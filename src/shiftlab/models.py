"""Concrete magic-unitary models and the lazy shift-tensor operator algebra.

A model assigns each grid position a d x d projection such that every row
and column sums to the identity.  Word operators represent
shift^m composed with finitely many tensor legs of an infinite product;
legs are stored sparsely (identity elsewhere), since every computation
touches finitely many of them.  The generator at (i, j) is the shift with
the (i, j) projection at leg 0; products stack projections on fresh legs,
so source and range projections of a word live on disjoint legs and
commute exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import charge, word_cap
from .errors import (
    DegenerateAngle,
    IndexClash,
    NotBiunitary,
    NotProjection,
)

MODEL_TOL = 1e-10

# random_qls_vectors: polar-fit sweeps per attempt, the biunitary residual
# they must reach, the overlap every unforced vector pair must exceed, and
# the number of seeded attempts
QLS_SWEEPS = 400
QLS_TOL = 1e-12
QLS_MIN_OVERLAP = 1e-3
QLS_ATTEMPTS = 20


def _max_norm(stack: np.ndarray) -> float:
    """Largest 2-norm over a stack of matrices (0 for an empty stack)."""
    return float(np.linalg.svd(stack, compute_uv=False).max(initial=0.0))


def _is_projection(p: np.ndarray) -> bool:
    return (
        np.linalg.norm(p - p.conj().T, 2) <= MODEL_TOL
        and np.linalg.norm(p @ p - p, 2) <= MODEL_TOL
    )


@dataclass(frozen=True, eq=False)
class MagicUnitaryModel:
    """Grid of d x d projections with identity row and column sums."""

    n: int
    dim: int
    entries: np.ndarray  # shape (n, n, dim, dim), complex

    def entry(self, i: int, j: int) -> np.ndarray:
        return self.entries[i - 1, j - 1]

    def validate(self) -> float:
        """Largest constraint residual; raises when above tolerance."""
        p, eye = self.entries, np.eye(self.dim)
        residuals = [p - p.conj().swapaxes(2, 3), p @ p - p]  # Hermitian, idempotent
        residuals += [p.sum(1) - eye, p.sum(0) - eye]  # row and column sums
        worst = max(_max_norm(r) for r in residuals)
        if worst > MODEL_TOL:
            raise NotBiunitary(f"model residual {worst:.3e} above {MODEL_TOL:.0e}")
        return worst


def two_projection_magic(theta: float) -> MagicUnitaryModel:
    """4x4 block model over 2x2 matrices built from two tilted lines.

    Upper block uses the projection p onto the first coordinate axis,
    lower block the projection q onto the line at angle theta; rows and
    columns pair each with its complement, so sums are exactly the
    identity, while p and q do not commute away from the degenerate
    angles.
    """
    if not 0.0 < theta < np.pi / 2:
        raise DegenerateAngle(f"theta = {theta} outside (0, pi/2)")
    p = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    q = np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    grid = [
        [p, eye - p, zero, zero],
        [eye - p, p, zero, zero],
        [zero, zero, q, eye - q],
        [zero, zero, eye - q, q],
    ]
    model = MagicUnitaryModel(n=4, dim=2, entries=np.array(grid))
    model.validate()
    return model


def classical_model(perm: tuple[int, ...]) -> MagicUnitaryModel:
    """Scalar 0/1 model of a single permutation (d = 1)."""
    n = len(perm)
    entries = np.zeros((n, n, 1, 1), dtype=complex)
    for i in range(n):
        entries[i, perm[i] - 1, 0, 0] = 1.0
    return MagicUnitaryModel(n=n, dim=1, entries=entries)


def qls_magic(vectors: np.ndarray) -> MagicUnitaryModel:
    """Rank-one model from a grid of vectors with orthonormal rows/columns."""
    vectors = np.asarray(vectors, dtype=complex)
    n = vectors.shape[0]
    if vectors.shape != (n, n, n):
        raise NotBiunitary(f"expected shape (n, n, n), got {vectors.shape}")
    residual = _biunitary_residual(vectors)
    if residual > MODEL_TOL:
        raise NotBiunitary(f"rows or columns not orthonormal: {residual:.3e}")
    entries = np.einsum("ija,ijb->ijab", vectors, vectors.conj())
    model = MagicUnitaryModel(n=n, dim=n, entries=entries)
    model.validate()
    return model


def random_qls_vectors(n: int, seed: int = 0) -> np.ndarray:
    """Seeded random biunitary grid via alternating row/column polar fits.

    A sweep is one stacked SVD over the rows, then one over the columns.
    The row SVD's values give the rows' residual ||G G* - I|| = max |s^2 - 1|
    for free, so the exact residual is taken only within twice the target.
    Rejection: retry until the alternation converges and every pair of
    vectors not forced orthogonal (same row or column) overlaps by more
    than ``QLS_MIN_OVERLAP``.
    """
    rng = np.random.default_rng(seed)
    for _ in range(QLS_ATTEMPTS):
        grid = rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))
        for sweep in range(QLS_SWEEPS):
            u, s, vh = np.linalg.svd(grid)
            near = sweep and np.abs(s * s - 1).max(initial=0.0) < 2 * QLS_TOL
            if near and _biunitary_residual(grid) < QLS_TOL:
                break
            grid = u @ vh
            u, _, vh = np.linalg.svd(grid.swapaxes(0, 1))
            grid = (u @ vh).swapaxes(0, 1)
        if _biunitary_residual(grid) >= QLS_TOL:
            continue
        if _min_free_overlap(grid) > QLS_MIN_OVERLAP:
            return grid
    raise NotBiunitary(
        f"no generic biunitary grid found in {QLS_ATTEMPTS} seeded attempts"
    )


def _biunitary_residual(grid: np.ndarray) -> float:
    """Largest ||G G* - I|| over the rows and columns G of the grid."""
    g = np.concatenate((grid, grid.swapaxes(0, 1)))
    return _max_norm(g @ g.conj().swapaxes(1, 2) - np.eye(grid.shape[0]))


def _min_free_overlap(grid: np.ndarray) -> float:
    """Smallest |<v_ij, v_kl>| over i != k and j != l."""
    n = grid.shape[0]
    v = grid.reshape(n * n, n)
    overlaps = np.abs(v.conj() @ v.T).reshape(n, n, n, n)
    i, j, k, l = np.indices((n, n, n, n), sparse=True)
    return float(overlaps[(i != k) & (j != l)].min(initial=np.inf))


@dataclass(frozen=True, eq=False)
class WordOperator:
    """shift^power composed with matrices on finitely many tensor legs."""

    dim: int
    shift_power: int
    legs: tuple[tuple[int, np.ndarray], ...]

    @classmethod
    def from_legs(
        cls, dim: int, shift_power: int, legs: dict[int, np.ndarray]
    ) -> "WordOperator":
        items = tuple(sorted((k, np.asarray(v, dtype=complex)) for k, v in legs.items()))
        return cls(dim=dim, shift_power=shift_power, legs=items)

    @property
    def is_tensor(self) -> bool:
        return self.shift_power == 0

    def materialize(self) -> np.ndarray:
        """Dense matrix on the occupied legs; only for pure tensors."""
        if not self.is_tensor:
            raise ValueError("only shift-free operators materialize")
        out = np.eye(1, dtype=complex)
        for _, m in self.legs:
            out = np.kron(out, m)
        return out


def word_op_mul(a: WordOperator, b: WordOperator) -> WordOperator:
    """Compose: shifts add, the left factor's legs slide past the right shift."""
    if a.dim != b.dim:
        raise ValueError("leg dimensions differ")
    legs: dict[int, np.ndarray] = {}
    for k, m in a.legs:
        legs[k - b.shift_power] = m
    for k, m in b.legs:
        if k in legs:
            legs[k] = legs[k] @ m
        else:
            legs[k] = m
    return WordOperator.from_legs(a.dim, a.shift_power + b.shift_power, legs)


def word_op_adjoint(a: WordOperator) -> WordOperator:
    legs = {k + a.shift_power: m.conj().T for k, m in a.legs}
    return WordOperator.from_legs(a.dim, -a.shift_power, legs)


def word_op_norm(a: WordOperator) -> float:
    """Product of leg norms: the shift is unitary and legs are independent."""
    out = 1.0
    for _, m in a.legs:
        out *= float(np.linalg.norm(m, 2))
    return out


@dataclass(frozen=True)
class RelationReport:
    max_partial_isometry_defect: float
    max_unitarity_defect: float
    words_checked: int


def capped_word_pairs(n: int, ell: int) -> int:
    """Word pairs of length <= ell on an n-grid, summed only until they pass
    ``word_cap()``; LengthOverflow when they or the normality triples do."""
    limit, pairs, m = word_cap(), 0, 0
    while m < ell and pairs <= limit:
        m += 1
        pairs += n ** (2 * m)
    charge(pairs, "{count} word pairs up to length {m} exceed cap {cap}", m=m)
    triples = n * (n - 1) * (n - 2) if n >= 4 else 0
    charge(triples, "{count} normality triples exceed cap {cap}")
    return pairs


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries; np.unique would import numpy.ma (1.3 MiB)."""
    out = np.sort(values, axis=None)
    return out[np.concatenate(([True], out[1:] != out[:-1]))]


def relation_check(model: MagicUnitaryModel, ell: int) -> RelationReport:
    """Partial-isometry and biunitarity residuals over words up to ell.

    For a word pair of length m, X*X is the tensor product of the legs P*P
    of its letters, and every m-tuple of grid entries occurs; so the largest
    ||(X*X)^2 - X*X|| is the largest |t^2 - t| over the products t of m leg
    eigenvalues (Horn & Johnson, Topics, Thm 4.2.12).  Row/column sums and
    conjugate-unitarity are checked on the generators.
    """
    n = model.n
    checked = capped_word_pairs(n, ell)
    legs = model.entries.reshape(n * n, model.dim, model.dim)
    spectrum = _distinct(np.linalg.eigvalsh(legs.conj().swapaxes(1, 2) @ legs))
    worst_pi = 0.0
    products = np.ones(1)  # the distinct products of m - 1 leg eigenvalues
    for m in range(1, ell + 1):
        for s in spectrum:  # one factor at a time keeps temporaries small
            t = products * s
            worst_pi = max(worst_pi, float(np.abs(t * t - t).max()))
        if m < ell:
            products = _distinct(np.multiply.outer(products, spectrum))
    # sides[0, i, j] = P_ij and sides[1, i, j] = P_ji: the row sums and
    # mixed products of both sides, added over j in order from zero as a
    # sum() of the separate terms would
    d = model.dim
    sides = np.stack((model.entries, model.entries.swapaxes(0, 1)))
    ranges = np.zeros((2, n, d, d), sides.dtype)
    for j in range(n):
        ranges += sides[:, :, j]
    worst_uni = _max_norm(ranges - np.eye(d))
    mixed = np.zeros((2, n, n, d, d), sides.dtype)
    for j in range(n):
        mixed += sides[:, :, None, j] @ sides[:, None, :, j]
    worst_uni = max(worst_uni, _max_norm(mixed[:, ~np.eye(n, dtype=bool)]))
    return RelationReport(
        max_partial_isometry_defect=worst_pi,
        max_unitarity_defect=worst_uni,
        words_checked=checked,
    )


def normality_element_norm(
    model: MagicUnitaryModel, i: int, k: int, l: int
) -> float:
    """||P_kl P_ii P_ll||; strictly positive output certifies the
    corresponding generator word is nonzero in the model."""
    if len({i, k, l}) != 3:
        raise IndexClash(f"indices {(i, k, l)} must be pairwise distinct")
    if model.n < 4:
        raise IndexClash("model needs n >= 4")
    prod = model.entry(k, l) @ model.entry(i, i) @ model.entry(l, l)
    return float(np.linalg.norm(prod, 2))


def _normality_norms(model: MagicUnitaryModel) -> np.ndarray:
    """normality_element_norm of every triple of
    itertools.permutations(range(1, n + 1), 3), in that order, for n >= 4:
    one stacked product and SVD per index i, each no larger than the entries."""
    n, p = model.n, model.entries
    k, l = np.indices((n, n)).reshape(2, -1)
    norms = []
    for i in range(n):
        keep = (k != i) & (l != i) & (k != l)
        ks, ls = k[keep], l[keep]
        prods = p[ks, ls] @ p[i, i] @ p[ls, ls]
        norms.append(np.linalg.svd(prods, compute_uv=False).max(axis=-1))
    return np.concatenate(norms)


def halmos_lemma_check(v: np.ndarray, w: np.ndarray) -> bool:
    """Whether [vw = wv] and [vwv = wvwv] agree (they must, always)."""
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    for name, p in (("v", v), ("w", w)):
        if not _is_projection(p):
            raise NotProjection(f"{name} is not a projection at {MODEL_TOL:.0e}")
    commute = np.linalg.norm(v @ w - w @ v, 2) <= MODEL_TOL
    sandwich = np.linalg.norm(v @ w @ v - w @ v @ w @ v, 2) <= MODEL_TOL
    return commute == sandwich

