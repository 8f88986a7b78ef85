"""Finite matrix blocks of the nonlocal Laplacian and the Hamiltonian.

Over a bisection with s-word beta, the level-d space consists of functions
on the cylinder C(beta) constant on the depth-(len(beta)+d) sub-cylinders.
These spaces are exactly invariant (no truncation error): the kernel
d(x,y)^-dim only sees prefixes that the level already resolves.

Matrices are expressed in the orthonormalized indicator basis
e_cell = indicator / sqrt(measure).  In that basis the Laplacian block is
genuinely symmetric and positive semidefinite; its kernel is spanned by
the coefficient vector of the constant function (the square roots of the
cell measures), available as ``OperatorBlock.constant_vector``.

Eigenvalues attach to sub-cylinders: the cell C(beta nu) carries
    lam * u[last(nu)] + lam * sum over the extension steps of
        u[step source] * (1 - P[source, target]),
with one eigenvector per "child minus one" at each internal node (the Haar
wavelets).  Each extension step increases the value by (lam - 1) * u[new
letter], so the value is strictly increasing along extensions and depends
on the base word only through its last letter; :func:`spectrum` walks the
letter counts of the extensions once per last letter and prunes on the
value.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import (
    AdjacencySpec,
    PerronFrobeniusData,
    Word,
    _frozen,
    _walk_words,
    conformal_measure,
    is_admissible,
    word_cap,
)
from .errors import LengthOverflow, NotAdmissible, PrefixMismatch
from .groupoid import (
    BisectionIndex,
    bisections_up_to,
    count_bisections_by_letter,
)

#: eigenvalues closer than this are one eigenvalue; also the cutoff slack
MERGE_TOL = 1e-9


@dataclass(frozen=True)
class LevelBasis:
    """Ordered sub-cylinder cells of one cylinder at a fixed relative depth."""

    base: Word
    depth: int
    cells: tuple[Word, ...]  # relative extensions, lexicographic

    @property
    def size(self) -> int:
        return len(self.cells)

    def full_words(self) -> list[Word]:
        return [self.base + nu for nu in self.cells]


def level_basis(spec: AdjacencySpec, base: Word, depth: int) -> LevelBasis:
    """The cells of C(base) at a relative depth: the tails of the admissible
    words of length depth + 1 that start at base's last letter, in order
    (LengthOverflow when those words are over ``word_cap()``)."""
    if not base:
        raise NotAdmissible("level basis needs a nonempty base word")
    if not is_admissible(spec, base):
        raise NotAdmissible(f"base {base} is not admissible")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    words = _walk_words(spec, depth + 1, start=base[-1])
    return LevelBasis(base=base, depth=depth, cells=tuple(w[1:] for w in words))


def cell_measures(pf: PerronFrobeniusData, basis: LevelBasis) -> np.ndarray:
    return np.array([conformal_measure(pf, w) for w in basis.full_words()])


@dataclass(frozen=True, eq=False)
class OperatorBlock:
    basis: LevelBasis
    matrix: np.ndarray
    kind: str  # "delta" | "dirac"
    bisection: BisectionIndex | None = None

    def constant_vector(self, pf: PerronFrobeniusData) -> np.ndarray:
        """Coefficients of the constant function, unit norm."""
        mu = cell_measures(pf, self.basis)
        vec = np.sqrt(mu)
        return vec / np.linalg.norm(vec)


def eigenvalue_formula(
    pf: PerronFrobeniusData, s_word: Word, nu: Word
) -> float:
    """Laplacian eigenvalue attached to the cell C(nu) inside C(s_word)."""
    if not s_word:
        raise PrefixMismatch("s_word must be nonempty")
    if nu[: len(s_word)] != s_word:
        raise PrefixMismatch(f"{nu} does not extend {s_word}")
    if not is_admissible(pf.spec, nu):
        raise NotAdmissible(f"word {nu} is not admissible")
    lam = pf.lambda_max
    total = lam * pf.u_of(nu[-1])
    m = len(nu)
    for k in range(m - len(s_word)):
        a = nu[m - k - 2]
        b = nu[m - k - 1]
        total += lam * pf.u_of(a) * (1.0 - pf.p_of(a, b))
    return total


def delta_matrix(pf: PerronFrobeniusData, base: Word, depth: int) -> OperatorBlock:
    """Laplacian block on the level-``depth`` space over C(base).

    Diagonal entries come from :func:`eigenvalue_formula` minus the
    top-of-cell term; the (i, j) off-diagonal is
    -lambda_max^w * sqrt(mu_i mu_j) with w the common-prefix length of the
    two full cell words, read for all pairs at once from one array, and
    mirrored from the upper triangle.  The brute-force shell oracle in the
    test suite recomputes the same action from sub-cylinders at extra depth.
    """
    if depth < 1:
        basis = level_basis(pf.spec, base, 0)
        return OperatorBlock(basis, np.zeros((1, 1)), "delta")
    basis = level_basis(pf.spec, base, depth)
    root_mu = np.sqrt(cell_measures(pf, basis))
    lam = pf.lambda_max
    cells = np.array(basis.cells)
    same = np.ones((basis.size, basis.size), dtype=bool)
    prefix = np.full(same.shape, len(base))  # common prefix of the full words
    for k in range(depth):
        same &= cells[:, None, k] == cells[None, :, k]
        prefix += same
    # powers as Python's float ** int takes them (numpy's can differ in the last bit)
    powers = np.array([lam**w for w in range(len(base) + depth + 1)])
    upper = np.triu(-powers[prefix] * root_mu[:, None] * root_mu[None, :], 1)
    mat = upper + upper.T
    for i, w in enumerate(basis.full_words()):
        mat[i, i] = eigenvalue_formula(pf, base, w) - lam * pf.u_of(w[-1])
    return OperatorBlock(basis, _frozen(mat), "delta")


@dataclass(frozen=True)
class WaveletVector:
    """Mean-zero unit vector constant on the children of one sub-cylinder."""

    support_cell: Word  # full word of the carrying cylinder
    children: tuple[Word, ...]  # full words of the child cylinders
    values: tuple[float, ...]  # function value on each child
    eigenvalue: float

    def coefficients(
        self, pf: PerronFrobeniusData, basis: LevelBasis
    ) -> np.ndarray:
        """Expansion in the orthonormalized basis of a containing level."""
        out = np.zeros(basis.size)
        child_of = {c: v for c, v in zip(self.children, self.values)}
        k = len(self.support_cell) + 1
        for i, w in enumerate(basis.full_words()):
            v = child_of.get(w[:k])
            if v is not None:
                out[i] = v * np.sqrt(conformal_measure(pf, w))
        return out


def wavelet_basis(
    pf: PerronFrobeniusData, base: Word, depth: int
) -> list[WaveletVector]:
    """Haar wavelets spanning the mean-zero part of the level-``depth`` space.

    At each sub-cylinder with m >= 2 admissible children of masses mu_j
    this emits m - 1 orthonormal mean-zero child-constant vectors: with
    M_i the mass of children i, i+1, ..., vector i is
    e_i - (mu_i / M_i) 1[j >= i] over sqrt(mu_i M_{i+1} / M_i), what
    Gram-Schmidt against the constant and e_0 .. e_{i-1} returns.  With the
    constant they form an orthonormal basis.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    spec = pf.spec
    out: list[WaveletVector] = []
    for t in range(depth):
        nodes = level_basis(spec, base, t)
        for nu in nodes.cells:
            word = base + nu
            children = tuple(word + (c,) for c in spec.successors(word[-1]))
            m = len(children)
            if m < 2:
                continue
            mu = np.array([conformal_measure(pf, c) for c in children])
            tail = mu[::-1].cumsum()[::-1]  # tail[i] = M_i
            eig = eigenvalue_formula(pf, base, word)
            j = np.arange(m)
            vecs = (j[:-1, None] == j) - (mu / tail)[:-1, None] * (j[:-1, None] <= j)
            vecs /= np.sqrt(mu[:-1] * tail[1:] / tail[:-1])[:, None]
            out.extend(WaveletVector(word, children, tuple(v.tolist()), eig) for v in vecs)
    return out


def dirac_block(
    pf: PerronFrobeniusData, gamma: BisectionIndex, depth: int
) -> OperatorBlock:
    """Hamiltonian block over one bisection at a level depth.

    The block is length * P - (1 - P)(Delta + length), where P projects
    onto the constant when the index is a finite-word (one-letter s) one
    and is zero otherwise.
    """
    ell = float(gamma.length_L)
    delta = delta_matrix(pf, gamma.s_word, depth)
    s = delta.matrix
    size = delta.basis.size
    if gamma.is_fock:
        c = delta.constant_vector(pf)
        proj = np.outer(c, c)
        mat = ell * proj - (np.eye(size) - proj) @ (s + ell * np.eye(size))
        mat = 0.5 * (mat + mat.T)
    else:
        mat = -(s + ell * np.eye(size))
    return OperatorBlock(delta.basis, _frozen(mat), "dirac", bisection=gamma)


def merge_multiset(pairs: Iterable[tuple[float, int]]) -> list[tuple[float, int]]:
    """Cluster (value, multiplicity) pairs whose values agree within MERGE_TOL."""
    pairs = sorted(pairs)
    merged: list[tuple[float, int]] = []
    for val, mult in pairs:
        if merged and val - merged[-1][0] <= MERGE_TOL:
            old_val, old_mult = merged[-1]
            merged[-1] = (old_val, old_mult + mult)
        else:
            merged.append((val, mult))
    return merged


def spectrum(pf: PerronFrobeniusData, cutoff: float) -> list[tuple[float, int]]:
    """All Hamiltonian eigenvalues with |value| <= cutoff, with multiplicity.

    |D| dominates the length function, so only indices with
    r_len + s_len <= cutoff contribute.  Per index of length L: the
    constant gives +L for a one-letter s-word and -L otherwise; every
    sub-cylinder cell with m >= 2 children gives -(cell value + L) with
    multiplicity m - 1.

    The cell values inside C(s) depend on s only through its last letter
    b: a cell reached by appending k_c copies of each letter c has value
    lam * u[b] + (lam - 1) * sum_c k_c * u[c].  So one walk per letter
    over states (last letter, k) with integer path counts covers every
    s-word ending in b, and its multiplicities are scaled by the number of
    indices of length L whose s-word ends in b.  Values grow along
    extensions, so the walk is pruned at L = 1.  The enumeration cap bounds
    the total number of walk states, checked as each level is built.
    """
    if not 1 <= cutoff < math.inf:
        raise ValueError("cutoff must be finite and >= 1")
    spec = pf.spec
    n = spec.n
    limit = word_cap()
    bound = cutoff + MERGE_TOL
    lam = pf.lambda_max
    u = [pf.u_of(c) for c in range(1, n + 1)]
    kids = [[j - 1 for j in row] for row in spec._successors]
    max_len = int(math.floor(bound))

    found: dict[float, int] = {}  # value -> multiplicity
    by_letter = []  # per length L: indices of length L by last letter of s
    for length in range(1, max_len + 1):
        per_s_len = [
            count_bisections_by_letter(spec, length - s_len, s_len)
            for s_len in range(1, length + 1)
        ]
        for val, mult in (
            (float(length), sum(per_s_len[0])),
            (-float(length), sum(sum(ends) for ends in per_s_len[1:])),
        ):
            if mult:
                found[val] = found.get(val, 0) + mult
        by_letter.append([sum(col) for col in zip(*per_s_len)])

    def value(b: int, k: tuple[int, ...]) -> float:
        return lam * u[b] + (lam - 1) * sum(kc * uc for kc, uc in zip(k, u))

    root = (0,) * n
    states = 0
    for b in range(n):
        wavelets: dict[tuple[int, ...], int] = {}
        level = {(b, root): 1} if value(b, root) + 1 <= bound else {}
        while level:
            states += len(level)
            nxt: dict[tuple[int, tuple[int, ...]], int] = {}
            for (last, k), paths in level.items():
                # the next level counts too: a level past the cap is never built
                if states + len(nxt) > limit:
                    raise LengthOverflow(f"spectrum walk exceeds cap {limit}")
                extra = (len(kids[last]) - 1) * paths
                if extra:
                    wavelets[k] = wavelets.get(k, 0) + extra
                for c in kids[last]:
                    child = k[:c] + (k[c] + 1,) + k[c + 1 :]
                    if value(b, child) + 1 <= bound:
                        key = (c, child)
                        nxt[key] = nxt.get(key, 0) + paths
            level = nxt
        for k, mult in wavelets.items():
            val = value(b, k)
            for length in range(1, max_len + 1):
                if val + length > bound:
                    break
                weight = by_letter[length - 1][b]
                if weight:
                    e = -(val + length)
                    found[e] = found.get(e, 0) + mult * weight
    return merge_multiset(found.items())


def spectrum_dense(pf: PerronFrobeniusData, cutoff: float) -> list[tuple[float, int]]:
    """Brute-force check of :func:`spectrum` by per-block diagonalization."""
    bound = cutoff + MERGE_TOL
    found: list[tuple[float, int]] = []
    for gamma in bisections_up_to(pf.spec, int(np.floor(bound))):
        ell = gamma.length_L
        depth = 1
        while True:
            frontier = level_basis(pf.spec, gamma.s_word, depth)
            vals = [
                eigenvalue_formula(pf, gamma.s_word, gamma.s_word + nu)
                for nu in frontier.cells
            ]
            if min(vals) + ell > bound:
                break
            depth += 1
        block = dirac_block(pf, gamma, depth)
        eigs = np.linalg.eigvalsh(block.matrix)
        for e in eigs:
            if abs(e) <= bound:
                found.append((float(e), 1))
    return merge_multiset(found)
