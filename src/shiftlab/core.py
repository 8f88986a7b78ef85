"""Primitive adjacency matrices, admissible words and the two canonical measures.

A primitive 0/1 matrix A over an alphabet {1..n} determines the one-sided
shift space of admissible infinite sequences.  This module computes the
maximal-eigenvalue data of A, enumerates admissible finite words, and
evaluates the shift-invariant measure (``parry``) and its conformal
rescaling (``conformal``) on cylinder sets, together with the gauge-action
equilibrium state value on pairs of words.

Conventions: letters are 1-based integers, words are plain tuples, the
empty word ``()`` is admissible and indexes the whole space.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    LengthOverflow,
    NonConvergence,
    NotAdmissible,
    NotPrimitive,
    NotZeroOne,
    ParseError,
)

Word = tuple[int, ...]

EMPTY_WORD: Word = ()

#: measure kinds accepted by :func:`cylinder_measure`
PARRY = "parry"
CONFORMAL = "conformal"

DEFAULT_WORD_CAP = 10**6

_CAP_ENV = "ARIADNE_CAP"


def word_cap(override: int | None = None) -> int:
    """Effective enumeration cap: explicit override, else env, else default."""
    if override is not None:
        return override
    env = os.environ.get(_CAP_ENV)
    if env is not None:
        return int(env)
    return DEFAULT_WORD_CAP


def _is_json_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class AdjacencySpec:
    """Primitive 0/1 transition matrix with alphabet size ``n``.

    ``expansion_base`` is the base of the ultrametric; every spectral
    quantity depends on it only through base**dim == lambda_max, so it is
    recorded for distance reporting and never enters the numerics.
    """

    n: int
    a: tuple[tuple[int, ...], ...]
    expansion_base: float = 2.0

    def __post_init__(self):
        if self.n < 2:
            raise NotPrimitive(f"alphabet size must be >= 2, got {self.n}")
        if len(self.a) != self.n or any(len(row) != self.n for row in self.a):
            raise NotZeroOne(f"matrix must be {self.n}x{self.n}")
        for row in self.a:
            for x in row:
                if x not in (0, 1):
                    raise NotZeroOne(f"entry {x!r} outside {{0, 1}}")
        for i, row in enumerate(self.a):
            if not any(row):
                raise NotPrimitive(f"row {i + 1} has no outgoing edge")
        for j in range(self.n):
            if not any(row[j] for row in self.a):
                raise NotPrimitive(f"column {j + 1} has no incoming edge")
        if self.expansion_base <= 1.0:
            warnings.warn(
                f"expansion base {self.expansion_base} <= 1 gives a "
                "non-contracting metric; stored as-is",
                stacklevel=2,
            )

    @classmethod
    def from_matrix(cls, a, expansion_base: float = 2.0) -> "AdjacencySpec":
        rows = tuple(tuple(int(x) for x in row) for row in a)
        return cls(n=len(rows), a=rows, expansion_base=expansion_base)

    @classmethod
    def full_shift(cls, n: int) -> "AdjacencySpec":
        return cls.from_matrix([[1] * n for _ in range(n)])

    @classmethod
    def from_json(cls, text: str) -> "AdjacencySpec":
        """Parse {"n": int, "a": [[int, ...], ...]}; nothing is coerced."""
        try:
            obj = json.loads(text)
            n = obj["n"]
            a = obj["a"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(f"bad adjacency JSON: {exc}") from exc
        if not _is_json_int(n):
            raise ParseError(f"n must be an integer, got {json.dumps(n)}")
        if not isinstance(a, list):
            raise ParseError("a must be a list of rows")
        if len(a) != n:
            raise ParseError(f"matrix has {len(a)} rows, expected n={n}")
        for i, row in enumerate(a, 1):
            if not isinstance(row, list) or len(row) != n:
                raise ParseError(f"row {i} is not a list of {n} entries")
            for x in row:
                if not _is_json_int(x):
                    raise ParseError(
                        f"entry {json.dumps(x)} in row {i} is not an integer"
                    )
        return cls.from_matrix(a)

    @property
    def matrix(self) -> np.ndarray:
        return _frozen(np.array(self.a, dtype=np.int64))

    def edges(self) -> list[tuple[int, int]]:
        """All (i, j) with a 1-entry, row-major."""
        return [
            (i + 1, j + 1)
            for i in range(self.n)
            for j in range(self.n)
            if self.a[i][j]
        ]

    def successors(self, letter: int) -> tuple[int, ...]:
        return tuple(j + 1 for j in range(self.n) if self.a[letter - 1][j])

    def is_full_shift(self) -> bool:
        return all(all(row) for row in self.a)


def validate_primitive(spec: AdjacencySpec) -> int:
    """Minimal k with A^k strictly positive; Wielandt bounds the search."""
    a = spec.matrix
    bound = spec.n * spec.n - 2 * spec.n + 2
    power = a.copy()
    for k in range(1, bound + 1):
        if (power > 0).all():
            return k
        # boolean semiring keeps entries in {0,1}; integer powers overflow
        power = ((power @ a) > 0).astype(np.int64)
    raise NotPrimitive(
        f"no power up to the Wielandt bound {bound} is strictly positive"
    )


@dataclass(frozen=True, eq=False)
class PerronFrobeniusData:
    """Maximal-eigenvalue data of a primitive matrix.

    u is the right eigenvector as a probability vector, v the left one
    scaled so u.v = 1; p_stat[j] = u[j] v[j] is stationary for the
    stochastic matrix ``stoch``.
    """

    spec: AdjacencySpec
    lambda_max: float
    u: np.ndarray
    v: np.ndarray
    p_stat: np.ndarray
    stoch: np.ndarray
    d_f: float
    tol: float = 1e-9
    primitivity_exponent: int = field(default=1, compare=False)

    def u_of(self, letter: int) -> float:
        return float(self.u[letter - 1])

    def v_of(self, letter: int) -> float:
        return float(self.v[letter - 1])

    def p_of(self, i: int, j: int) -> float:
        return float(self.stoch[i - 1, j - 1])


def _char_poly_coeffs(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via Faddeev-LeVerrier.

    Exact integers for a 0/1 matrix (held in float), so Newton refinement
    does not inherit eigensolver noise.
    """
    n = a.shape[0]
    af = a.astype(float)
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(af)
    for k in range(1, n + 1):
        m = af @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(af @ m) / k
    return coeffs


def _null_vector(m: np.ndarray) -> np.ndarray:
    """Unit vector spanning the (numerically) smallest singular direction."""
    _, _, vh = np.linalg.svd(m)
    return vh[-1]


def perron_frobenius(
    spec: AdjacencySpec,
    tol: float = 1e-9,
    max_iter: int = 20_000,
) -> PerronFrobeniusData:
    """Compute eigendata: power iteration, then Newton on the char poly."""
    k = validate_primitive(spec)
    a = spec.matrix.astype(float)
    n = spec.n

    x = np.full(n, 1.0 / n)
    lam = 0.0
    for it in range(max_iter):
        y = a @ x
        lam_new = float(y.sum())  # x normalized to sum 1, entries positive
        y /= lam_new
        if abs(lam_new - lam) < 1e-13 and it > 4:
            lam = lam_new
            x = y
            break
        lam, x = lam_new, y
    else:
        raise NonConvergence(f"power iteration did not settle in {max_iter} steps")

    coeffs = _char_poly_coeffs(spec.matrix)
    dcoeffs = np.polyder(coeffs)
    for _ in range(100):
        p = float(np.polyval(coeffs, lam))
        dp = float(np.polyval(dcoeffs, lam))
        if dp == 0.0:
            break
        step = p / dp
        lam -= step
        if abs(step) < 1e-15 * max(1.0, abs(lam)):
            break
    lambda_max = float(lam)
    if not lambda_max > 1.0:
        raise NotPrimitive(
            f"maximal eigenvalue {lambda_max} <= 1; matrix cannot be primitive"
        )

    u = _null_vector(a - lambda_max * np.eye(n))
    u = np.abs(u)
    u /= u.sum()
    v = _null_vector(a.T - lambda_max * np.eye(n))
    v = np.abs(v)
    v /= float(u @ v)

    if not (u > 0).all() or not (v > 0).all():
        raise NonConvergence("eigenvector has a non-positive entry")
    if np.linalg.norm(a @ u - lambda_max * u, np.inf) > tol:
        raise NonConvergence("right eigenvector residual above tolerance")
    if np.linalg.norm(v @ a - lambda_max * v, np.inf) > tol:
        raise NonConvergence("left eigenvector residual above tolerance")

    stoch = spec.matrix * u[None, :] / (lambda_max * u[:, None])
    p_stat = u * v
    d_f = math.log(lambda_max) / math.log(spec.expansion_base)

    return PerronFrobeniusData(
        spec=spec,
        lambda_max=lambda_max,
        u=_frozen(u),
        v=_frozen(v),
        p_stat=_frozen(p_stat),
        stoch=_frozen(stoch),
        d_f=d_f,
        tol=tol,
        primitivity_exponent=k,
    )


def is_admissible(spec: AdjacencySpec, word: Word) -> bool:
    """A word is admissible when every consecutive pair is an edge."""
    for x in word:
        if not 1 <= x <= spec.n:
            return False
    return all(spec.a[word[i] - 1][word[i + 1] - 1] for i in range(len(word) - 1))


def require_admissible(spec: AdjacencySpec, word: Word) -> None:
    if not is_admissible(spec, word):
        raise NotAdmissible(f"word {word} is not admissible")


def count_words(spec: AdjacencySpec, length: int) -> int:
    """Number of admissible words of the given length (1 for length 0)."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        return 1
    counts = np.ones(spec.n, dtype=object)  # exact integers, no overflow
    for _ in range(length - 1):
        counts = spec.matrix.T.astype(object) @ counts
    return int(counts.sum())


def enumerate_words(
    spec: AdjacencySpec, length: int, cap: int | None = None
) -> list[Word]:
    """All admissible words of a length, lexicographically sorted."""
    if length < 0:
        raise ValueError("length must be >= 0")
    limit = word_cap(cap)
    total = count_words(spec, length)
    if total > limit:
        raise LengthOverflow(f"{total} words of length {length} exceed cap {limit}")
    if length == 0:
        return [EMPTY_WORD]
    words: list[Word] = []
    stack: list[Word] = [(x,) for x in range(spec.n, 0, -1)]
    while stack:
        w = stack.pop()
        if len(w) == length:
            words.append(w)
            continue
        for nxt in reversed(spec.successors(w[-1])):
            stack.append(w + (nxt,))
    return words


@dataclass(frozen=True)
class MeasureValue:
    value: float
    kind: str


def conformal_measure(pf: PerronFrobeniusData, word: Word) -> float:
    """mu(C(word)) = u_last / lambda_max^(len-1); total mass 1 on ()."""
    if word == EMPTY_WORD:
        return 1.0
    return pf.u_of(word[-1]) / pf.lambda_max ** (len(word) - 1)


def parry_measure(pf: PerronFrobeniusData, word: Word) -> float:
    """nu(C(word)) = v_first * u_last / lambda_max^(len-1)."""
    if word == EMPTY_WORD:
        return 1.0
    return (
        pf.v_of(word[0])
        * pf.u_of(word[-1])
        / pf.lambda_max ** (len(word) - 1)
    )


def cylinder_measure(
    pf: PerronFrobeniusData, word: Word, kind: str = CONFORMAL
) -> MeasureValue:
    require_admissible(pf.spec, word)
    if kind == CONFORMAL:
        return MeasureValue(conformal_measure(pf, word), CONFORMAL)
    if kind == PARRY:
        return MeasureValue(parry_measure(pf, word), PARRY)
    raise ValueError(f"unknown measure kind {kind!r}")


def kms_value(pf: PerronFrobeniusData, alpha: Word, beta: Word) -> float:
    """Equilibrium-state value on a pair of generator words.

    Nonzero only on the diagonal, where it equals
    lambda_max^-|alpha| * sum_j A[last, j] u_j, which coincides with the
    conformal measure of C(alpha).
    """
    require_admissible(pf.spec, alpha)
    require_admissible(pf.spec, beta)
    if alpha != beta:
        return 0.0
    if alpha == EMPTY_WORD:
        return 1.0
    last = alpha[-1]
    tail = sum(
        pf.spec.a[last - 1][j] * float(pf.u[j]) for j in range(pf.spec.n)
    )
    return tail / pf.lambda_max ** len(alpha)


def ahlfors_profile(
    pf: PerronFrobeniusData, depth_max: int, cap: int | None = None
) -> tuple[float, float]:
    """Extremes of nu(ball)/radius^d_f over all cylinders of depth <= depth_max.

    Balls of radius base^-m are exactly the depth-m cylinders, and
    radius^d_f = lambda_max^-m, so the ratio is nu(C(w)) * lambda_max^m.
    """
    if depth_max < 1:
        raise ValueError("depth_max must be >= 1")
    c_min = math.inf
    c_max = 0.0
    for m in range(1, depth_max + 1):
        scale = pf.lambda_max**m
        for w in enumerate_words(pf.spec, m, cap):
            ratio = parry_measure(pf, w) * scale
            c_min = min(c_min, ratio)
            c_max = max(c_max, ratio)
    return c_min, c_max


def lexmin_extension(spec: AdjacencySpec, word: Word, extra: int) -> Word:
    """Extend a word by `extra` letters, least admissible letter each step."""
    w = list(word) if word else [1]
    for _ in range(extra):
        w.append(spec.successors(w[-1])[0])
    return tuple(w)


def ball_kernel_integral(
    pf: PerronFrobeniusData, word: Word, s: float, tail_depth: int = 60
) -> float:
    """integral over B(x, base^-m) of d(x,y)^-(d_f - s) dmu(y), m = len(word).

    x is the lexicographically least infinite extension of ``word``.  The
    integrand is constant on each shell "agrees with x to depth exactly k",
    so the integral is an exact shell sum; the geometric tail beyond
    tail_depth is discarded (ratio base^-s per level).
    """
    if not word:
        raise ValueError("ball needs a nonempty center word")
    require_admissible(pf.spec, word)
    m = len(word)
    lam = pf.lambda_max
    base = pf.spec.expansion_base
    x = lexmin_extension(pf.spec, word, tail_depth)
    total = 0.0
    for k in range(m, m + tail_depth):
        shell = conformal_measure(pf, x[:k]) - conformal_measure(pf, x[: k + 1])
        # d = base^-k on the shell; d^-(d_f - s) = lam^k * base^(-k s)
        total += lam**k * base ** (-k * s) * shell
    return total


def transfer_integral(pf: PerronFrobeniusData, word: Word) -> float:
    """integral of (Lf) dmu for f the indicator of C(word).

    (Lf)(x) sums f over shift preimages of x; for cylinder indicators the
    result is again locally constant, and the integral is evaluated by
    enumerating cylinders at the appropriate depth.
    """
    require_admissible(pf.spec, word)
    if word == EMPTY_WORD:
        # Lf(x) = #preimages of x = column sum of A at x_1
        col_sums = pf.spec.matrix.sum(axis=0)
        return float((col_sums * pf.u).sum())
    if len(word) == 1:
        # Lf = indicator weighted by A[word, x_1]
        return float(
            sum(
                pf.spec.a[word[0] - 1][j] * float(pf.u[j])
                for j in range(pf.spec.n)
            )
        )
    return conformal_measure(pf, word[1:])
