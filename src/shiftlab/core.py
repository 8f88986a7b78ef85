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

import itertools
import json
import math
import operator
import os
from dataclasses import dataclass
from functools import cached_property, reduce

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

#: eigenvector residual and entry-comparison tolerance (CLI ``--tol``)
DEFAULT_PF_TOL = 1e-9

#: shells summed by :func:`ball_kernel_integral` past the ball's own depth
KERNEL_TAIL_DEPTH = 60

#: ultrametric base: d(x, y) = base^-(common prefix), dimension log_base lambda
EXPANSION_BASE = 2.0

_CAP_ENV = "ARIADNE_CAP"


def word_cap() -> int:
    """Enumeration cap: ``ARIADNE_CAP`` when set, else the default.  The
    value is ASCII digits only: ``int`` would also take a sign, spaces,
    underscores and other scripts' digits."""
    env = os.environ.get(_CAP_ENV)
    if env is None:
        return DEFAULT_WORD_CAP
    if not (env.isascii() and env.isdigit() and int(env) >= 1):
        raise ParseError(f"{_CAP_ENV} must be an integer >= 1, got {env!r}")
    return int(env)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _bad_entry(row, i: int, spell) -> str | None:
    """Why row i holds an entry other than the integers 0 and 1, naming the
    first such entry as spell writes it; None when it holds none.  bool is
    its own type, so True is refused too."""
    if set(map(type, row)) <= {int} and set(row) <= {0, 1}:
        return None
    x = next(x for x in row if type(x) is not int or x not in (0, 1))
    kind = "an integer" if type(x) is not int else "0 or 1"
    return f"entry {spell(x)} in row {i} is not {kind}"


def _matrix_entry(x) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise NotZeroOne(f"entry {x!r} is not an integer") from None


@dataclass(frozen=True)
class AdjacencySpec:
    """Primitive 0/1 transition matrix with alphabet size ``n``."""

    n: int
    a: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 2:
            raise NotPrimitive(f"alphabet size must be >= 2, got {self.n}")
        if len(self.a) != self.n or any(len(row) != self.n for row in self.a):
            raise NotZeroOne(f"matrix must be {self.n}x{self.n}")
        for i, row in enumerate(self.a, 1):
            if why := _bad_entry(row, i, repr):
                raise NotZeroOne(why)
        for i, row in enumerate(self.a):
            if not any(row):
                raise NotPrimitive(f"row {i + 1} has no outgoing edge")
        for j, col in enumerate(zip(*self.a)):
            if not any(col):
                raise NotPrimitive(f"column {j + 1} has no incoming edge")

    @classmethod
    def from_matrix(cls, a) -> "AdjacencySpec":
        """Rows of Python or numpy integers (Python bools count as 0 and 1);
        a float or a string is refused, not rounded."""
        rows = tuple(tuple(map(_matrix_entry, row)) for row in a)
        return cls(n=len(rows), a=rows)

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
        if type(n) is not int:  # bool is its own type, so true is refused
            raise ParseError(f"n must be an integer, got {json.dumps(n)}")
        if not isinstance(a, list):
            raise ParseError("a must be a list of rows")
        if len(a) != n:
            raise ParseError(f"matrix has {len(a)} rows, expected n={n}")
        for i, row in enumerate(a, 1):
            if not isinstance(row, list) or len(row) != n:
                raise ParseError(f"row {i} is not a list of {n} entries")
            if why := _bad_entry(row, i, json.dumps):
                raise ParseError(why)
        return cls(n=n, a=tuple(map(tuple, a)))

    @cached_property  # read-only, so one array serves every caller
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
        return self._successors[letter - 1]

    # each letter's successors and predecessors, in order (index letter - 1),
    # built on first use: the PF data needs neither
    @cached_property
    def _successors(self) -> tuple[tuple[int, ...], ...]:
        letters = range(1, self.n + 1)
        return tuple(tuple(itertools.compress(letters, row)) for row in self.a)

    @cached_property
    def _predecessors(self) -> tuple[tuple[int, ...], ...]:
        letters = range(1, self.n + 1)
        return tuple(tuple(itertools.compress(letters, col)) for col in zip(*self.a))

    def is_full_shift(self) -> bool:
        return all(all(row) for row in self.a)


def validate_primitive(spec: AdjacencySpec) -> int:
    """Minimal k with A^k strictly positive; Wielandt bounds the search.

    A has no zero column (``AdjacencySpec`` rejects one), so A^k > 0 gives
    A^(k+1) = A^k A > 0: boolean squares A^(2^i) decide primitivity, and
    binary lifting over them finds the least k.
    """
    bound = spec.n * spec.n - 2 * spec.n + 2
    # squares[i] is A^(2^i) over 0/1; float products count <= n paths, exactly
    squares = [spec.matrix.astype(float)]
    while not squares[-1].all():
        if 2 ** (len(squares) - 1) >= bound:
            raise NotPrimitive(
                f"no power up to the Wielandt bound {bound} is strictly positive"
            )
        squares.append((squares[-1] @ squares[-1] > 0).astype(float))
    # largest non-positive power: A^0 = I, then add each bit that keeps it so
    below, exponent = np.eye(spec.n), 0
    for i in range(len(squares) - 2, -1, -1):
        power = (below @ squares[i] > 0).astype(float)
        if not power.all():
            below, exponent = power, exponent + 2**i
    return exponent + 1


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
    tol: float
    primitivity_exponent: int

    def u_of(self, letter: int) -> float:
        return float(self.u[letter - 1])

    def v_of(self, letter: int) -> float:
        return float(self.v[letter - 1])

    def p_of(self, i: int, j: int) -> float:
        return float(self.stoch[i - 1, j - 1])

    @cached_property
    def _tails(self) -> tuple[float, ...]:
        """sum_j A[i, j] u_j per letter (index letter - 1), summed in order."""
        u = list(map(float, self.u))
        return tuple(_dot(row, u) for row in self.spec.a)


def _dot(k: tuple[int, ...], u: list[float]) -> float:
    """sum_i k_i u_i added left to right (``sum()`` is compensated from 3.12)."""
    return reduce(operator.add, map(operator.mul, k, u), 0)


def _null_vector(m: np.ndarray) -> np.ndarray:
    """Unit vector spanning the (numerically) smallest singular direction."""
    _, _, vh = np.linalg.svd(m)
    return vh[-1]


def perron_frobenius(
    spec: AdjacencySpec, tol: float = DEFAULT_PF_TOL
) -> PerronFrobeniusData:
    """Compute eigendata: one dense eigensolve, SVD null vectors, residual checks."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    k = validate_primitive(spec)
    a = spec.matrix.astype(float)
    n = spec.n

    # primitive: every other eigenvalue is smaller in modulus than the Perron root
    lambda_max = float(np.linalg.eigvals(a).real.max())
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
    d_f = math.log(lambda_max) / math.log(EXPANSION_BASE)

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


def _ending_count_steps(spec: AdjacencySpec, start: int | None = None):
    """ending_counts at the lengths 1, 2, 3, ... in turn, without end;
    only of the words that begin with ``start`` when it is given.  A step
    sums each letter's predecessors' counts: nnz(A) additions of exact ints."""
    counts = [1 if start in (None, j + 1) else 0 for j in range(spec.n)]
    while True:
        yield counts
        counts = [
            sum([counts[i - 1] for i in pred]) for pred in spec._predecessors
        ]


def ending_counts(spec: AdjacencySpec, length: int) -> list[int]:
    """Number of admissible words of a length ending at each letter."""
    steps = _ending_count_steps(spec)
    return next(itertools.islice(steps, max(length, 1) - 1, None))


def ending_table(spec: AdjacencySpec, length: int) -> list[list[int]]:
    """ending_counts at the lengths 0..length; the length-0 row is zero."""
    return [[0] * spec.n, *itertools.islice(_ending_count_steps(spec), length)]


def count_words(spec: AdjacencySpec, length: int) -> int:
    """Number of admissible words of the given length (1 for length 0)."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        return 1
    return sum(ending_counts(spec, length))


def enumerate_words(spec: AdjacencySpec, length: int) -> list[Word]:
    """All admissible words of a length, lexicographically sorted."""
    return _walk_words(spec, length)


def _walk_words(
    spec: AdjacencySpec, length: int, start: int | None = None
) -> list[Word]:
    """enumerate_words, keeping only the words that begin with ``start``
    when it is given."""
    limit = word_cap()
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        return [EMPTY_WORD]
    # counting stops at the first length whose total passes the cap: totals
    # never fall with the length, since every letter has a successor
    for m, counts in enumerate(_ending_count_steps(spec, start), 1):
        total = sum(counts)
        if total > limit:
            raise LengthOverflow(f"{total} words of length {m} exceed cap {limit}")
        if m == length:
            break
    # depth first along one path: a word is copied once, at its leaf
    words: list[Word] = []
    path: list[int] = []
    # one branch per open prefix length
    branches = [iter(range(1, spec.n + 1) if start is None else (start,))]
    while branches:
        if len(path) == length - 1:
            head = tuple(path)
            words.extend([head + (x,) for x in branches.pop()])
        elif (x := next(branches[-1], None)) is not None:
            path.append(x)
            branches.append(iter(spec.successors(x)))
            continue
        else:
            branches.pop()
        if path:
            path.pop()
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
    return pf._tails[alpha[-1] - 1] / pf.lambda_max ** len(alpha)


def ahlfors_profile(pf: PerronFrobeniusData, depth_max: int) -> tuple[float, float]:
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
        for w in enumerate_words(pf.spec, m):
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


def ball_kernel_integral(pf: PerronFrobeniusData, word: Word, s: float) -> float:
    """integral over B(x, base^-m) of d(x,y)^-(d_f - s) dmu(y), m = len(word).

    x is the lexicographically least infinite extension of ``word``.  The
    integrand is constant on each shell "agrees with x to depth exactly k",
    so the integral is an exact shell sum; the geometric tail beyond
    KERNEL_TAIL_DEPTH shells is discarded (ratio base^-s per level).
    """
    if not word:
        raise ValueError("ball needs a nonempty center word")
    require_admissible(pf.spec, word)
    m = len(word)
    lam = pf.lambda_max
    x = lexmin_extension(pf.spec, word, KERNEL_TAIL_DEPTH)
    total = 0.0
    for k in range(m, m + KERNEL_TAIL_DEPTH):
        shell = conformal_measure(pf, x[:k]) - conformal_measure(pf, x[: k + 1])
        # d = base^-k on the shell; d^-(d_f - s) = lam^k * base^(-k s)
        total += lam**k * EXPANSION_BASE ** (-k * s) * shell
    return total

