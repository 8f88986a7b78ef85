"""Graph automorphisms and the classical phase-and-permutation isometries.

An isometry is a phase vector on the alphabet plus a digraph automorphism.
It acts on the basis vector of a cell (indexed by a bisection and a
relative extension) by relabeling every letter and multiplying by the
phase product of the r-word, the first s-letter and the conjugate s-word;
the extension phases cancel, so each block picks up a single scalar.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    AdjacencySpec,
    PerronFrobeniusData,
    Word,
    charge,
    enumerate_words,
    is_admissible,
    word_cap,
)
from .errors import NotClosed
from .groupoid import BisectionIndex, bisections_up_to, is_bisection_index
from .spectral import dirac_block, level_basis

_LIST_CHUNK = 4096  # parent rows per step of a level's listing


@dataclass(frozen=True)
class GraphAutomorphism:
    """Permutation of the alphabet preserving the adjacency matrix."""

    perm: tuple[int, ...]  # perm[i-1] is the image of letter i

    def __call__(self, letter: int) -> int:
        return self.perm[letter - 1]

    def apply_word(self, word: Word) -> Word:
        return tuple(self.perm[x - 1] for x in word)

    def compose(self, other: "GraphAutomorphism") -> "GraphAutomorphism":
        return GraphAutomorphism(
            tuple(self.perm[other.perm[i] - 1] for i in range(len(self.perm)))
        )

    def inverse(self) -> "GraphAutomorphism":
        inv = [0] * len(self.perm)
        for i, img in enumerate(self.perm):
            inv[img - 1] = i + 1
        return GraphAutomorphism(tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(img == i + 1 for i, img in enumerate(self.perm))

    @classmethod
    def identity(cls, n: int) -> "GraphAutomorphism":
        return cls(tuple(range(1, n + 1)))


class UnionFind:
    """Disjoint sets over 0..size-1; the smaller root wins every union, so
    every root is the least member of its set."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            lo, hi = min(ra, rb), max(ra, rb)
            self.parent[hi] = lo
            return lo
        return ra


def _search(a: Sequence[Sequence[int]]) -> tuple[int, list, list[int]]:
    """First-path search (McKay, 1981) pruned by equitable refinement.

    For each point i, deepest first, it follows the identity on the points
    below i and stops at the least leaf for each image j of i outside i's
    orbit so far; those leaves are the generators, sorted.  Loop bits colour
    the points; each mapping gives the point and its image a new colour and,
    unless nothing can split, refines both sides together: images keep
    colours and class sizes, as automorphisms do.  The colours only prune:
    one check per leaf, a permutation that keeps the matrix, decides.  Past
    ``word_cap()`` nodes: LengthOverflow.  Returns (order, generators,
    sizes): sizes[i] is the size of i's orbit under the elements fixing the
    points below i.
    """
    n, limit, nodes = len(a), word_cap(), itertools.count(1)
    m = np.array(a, dtype=np.int64).reshape(n, n)
    w0, w1, w2 = np.frombuffer(hashlib.shake_128().digest(72 * n), "i8").reshape(3, -1)
    found: list[tuple[int, ...]] = []
    assignment: list[int] = []

    def refine(*sides: list[int]) -> list[list[int]]:
        """Stable colourings ranked over all sides; a collision only merges classes."""
        c = np.array(sides)
        while len(set((k := w0[c] + w1[c] @ m.T + w2[c] @ m).flat)) > len(set(c.flat)):
            c = np.searchsorted(np.sort(k, axis=None), k)
        return c.tolist()

    def split(c: list[int], v: int) -> set | None:
        """Column and row v on each class of c without v, None if they vary: if
        not, v's own colour splits no class of c or of any finer colouring."""
        cells = {(col, a[y][v], a[v][y]) for y, col in enumerate(c) if y != v}
        return cells if len(cells) == len({cell[0] for cell in cells}) else None

    tops = refine(np.diag(m).tolist())  # tops[i]: the points below i fixed
    alone = (np.bincount(tops[0])[tops[0]] == 1).tolist()  # fixed by the root
    flat = [set() if alone[v] else split(tops[0], v) for v in range(n)]
    for k in range(n - 1):
        top = tops[k] if alone[k] else tops[k][:k] + [n + k] + tops[k][k + 1 :]
        tops.append(top if flat[k] is not None else refine(top)[0])

    def extend(i: int, src: list, tgt: list, images: Sequence[int] = ()) -> bool:
        """True at the least leaf below, with i taken into images if given."""
        if i == n:
            p = assignment
            if len(set(p)) < n or (m[np.ix_(p, p)] != m).any():
                return False
            found.append(tuple(x + 1 for x in p))
            return True
        if (node := next(nodes)) > limit:
            charge(node, "search exceeds cap {cap} nodes")
        for j in images or range(n):
            if tgt[j] != src[i]:  # so no assigned image: its colour is its own
                continue
            new = [src[:], tgt[:]]
            new[0][i] = new[1][j] = 2 * n + i  # a colour no class has
            if flat[i] is None or flat[i] != flat[j]:
                new = refine(*new)
                if sorted(new[0]) != sorted(new[1]):
                    continue
            assignment.append(j)
            hit = extend(i + 1, *new)
            assignment.pop()
            if hit:
                return True
        return False

    orbits, sizes = UnionFind(n), [1] * n  # one union per point and generator
    for i in reversed(range(n)):
        if alone[i]:
            continue
        top = tops[i]
        assignment[:] = range(i)
        for j in range(i + 1, n):
            if top[j] == top[i] and orbits.find(j) != orbits.find(i):
                if extend(i, top, top, [j]):
                    for p, q in enumerate(found[-1]):
                        orbits.union(p, q - 1)
        if found and found[-1][i] != i + 1:  # i moved; every generator fixes 0..i-1
            sizes[i] = [orbits.find(p) for p in range(n)].count(orbits.find(i))
    return math.prod(sizes), found, sizes


def _listed_group(a: Sequence[Sequence[int]]) -> tuple[np.ndarray, list]:
    """matrix_automorphisms(a) and the generators, from one _search; each
    level's transversal is built here, once, for a group that is listed.

    Each level is one preallocated array, filled _LIST_CHUNK parent rows
    at a time: a chunk's children are its rows composed with the
    transversal, reordered as whole rows (one void item each) by the
    parents' images of the orbit points, so no temporary outgrows a chunk."""
    order, found, sizes = _search(a)
    charge(order, "group of order {count} exceeds cap {cap}")
    n = len(a)
    dtype = np.min_scalar_type(-n - 1)  # the least signed type that holds n
    rows = np.arange(1, n + 1, dtype=dtype)[None, :]
    whole = np.dtype((np.void, n * rows.itemsize))
    for i, size in enumerate(sizes):
        if size == 1:  # the rows already agree on a 1-point level
            continue
        orbit = {i: tuple(range(1, n + 1))}  # p: fixes 0..i-1, takes i to p
        gens = [g for g in found if g[:i] == orbit[i][:i]]
        for p in (todo := [i]):  # todo grows with the orbit
            for g in gens:
                if (q := g[p] - 1) not in orbit:
                    orbit[q] = tuple(g[x - 1] for x in orbit[p])
                    todo.append(q)
        points = np.fromiter(orbit, dtype=np.intp, count=len(orbit))
        u = np.array(list(orbit.values()), dtype=np.intp) - 1
        level = np.empty((len(rows) * size, n), dtype)
        out = level.view(whole).ravel()
        for start in range(0, len(rows), _LIST_CHUNK):
            chunk = rows[start : start + _LIST_CHUNK]
            ranks = np.argsort(chunk[:, points], axis=1)
            ranks += np.arange(0, ranks.size, size)[:, None]  # into the chunk's children
            kids = np.take(chunk, u, axis=1).view(whole).ravel()
            np.take(kids, ranks.ravel(), out=out[start * size : start * size + ranks.size])
        rows = level
    return rows, found


def matrix_automorphisms(a: Sequence[Sequence[int]]) -> np.ndarray:
    """Every automorphism of a 0/1 matrix as the rows of one sorted
    (order, n) integer array: the products g·u along the chain, built a
    level at a time, each row's children taken in ascending g(p).  A group
    above ``word_cap()`` raises LengthOverflow unlisted."""
    return _listed_group(a)[0]


def automorphism_group(spec: AdjacencySpec) -> list[GraphAutomorphism]:
    """Complete automorphism group, sorted; LengthOverflow past ``word_cap()``."""
    return [GraphAutomorphism(tuple(p)) for p in matrix_automorphisms(spec.a).tolist()]


def generating_set(spec: AdjacencySpec) -> list[GraphAutomorphism]:
    """First-path generators of the automorphism group, sorted (identity
    excluded, so the trivial group has none); nothing is listed."""
    return [GraphAutomorphism(p) for p in _search(spec.a)[1]]


@dataclass(frozen=True)
class ClassicalIsometry:
    phases: tuple[complex, ...]
    perm: GraphAutomorphism

    def __post_init__(self):
        if sorted(self.perm.perm) != list(range(1, len(self.phases) + 1)):
            raise ValueError(f"{self.perm.perm} does not permute 1..{len(self.phases)}")
        for z in self.phases:
            if abs(abs(z) - 1.0) > 1e-12:
                raise ValueError(f"phase {z} is not unimodular")

    def word_phase(self, word: Word) -> complex:
        out = 1.0 + 0.0j
        for x in word:
            out *= self.phases[x - 1]
        return out


def truncation_basis(
    spec: AdjacencySpec, gammas: list[BisectionIndex], depth: int
) -> dict[tuple[BisectionIndex, Word], int]:
    """Row of each cell (bisection, relative extension) of the truncation:
    the level bases in list order.  A non-bisection or a repeat: ValueError."""
    index: dict[tuple[BisectionIndex, Word], int] = {}
    for gamma in gammas:
        cells = level_basis(spec, gamma.s_word, depth).cells
        if not is_bisection_index(spec, gamma.r_word, gamma.s_word):
            raise ValueError(f"{gamma} is not a bisection index")
        if (gamma, cells[0]) in index:
            raise ValueError(f"bisection {gamma} is listed twice")
        for nu in cells:
            index[gamma, nu] = len(index)
    return index


def _cell_images(
    iso: ClassicalIsometry, spec: AdjacencySpec, gammas: list[BisectionIndex], depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """The isometry on a truncation as the monomial map it is: each cell's
    image row (-1 where the image vanishes) and its block phase."""
    if len(iso.phases) != spec.n:
        raise ValueError(f"{len(iso.phases)} phases for {spec.n} letters")
    trunc = truncation_basis(spec, gammas, depth)
    rows = np.full(len(trunc), -1)
    phases = np.zeros(len(trunc), dtype=complex)
    for (gamma, nu), src in trunc.items():
        r, s = gamma.r_word, gamma.s_word
        phases[src] = iso.word_phase(r + s[-1:]) * np.conj(iso.word_phase(s))
        r, s, nu_img = map(iso.perm.apply_word, (r, s, nu))
        if not is_bisection_index(spec, r, s) or not is_admissible(spec, s + nu_img):
            continue
        dst = trunc.get((BisectionIndex(r, s), nu_img))
        if dst is None:
            raise NotClosed(f"image of {gamma} under the relabeling leaves the list")
        rows[src] = dst
    return rows, phases


def _monomial(rows: np.ndarray, phases: np.ndarray, height: int, top: int = 0):
    """phases[c] at (rows[c] - top, c) of height rows; zero columns where rows < 0."""
    mat = np.zeros((height, len(rows)), dtype=complex)
    cols = np.flatnonzero(rows >= 0)
    mat[rows[cols] - top, cols] = phases[cols]
    return mat


def isometry_unitary(
    iso: ClassicalIsometry,
    spec: AdjacencySpec,
    gammas: list[BisectionIndex],
    depth: int,
) -> np.ndarray:
    """Matrix of the isometry on a truncation.

    Cell (gamma, nu) maps to (relabeled gamma, relabeled nu) times the
    block phase z^r * z_{s_last} * conj(z)^s; the extension phases cancel,
    so the factor is constant per block.  Images whose words become
    inadmissible are sent to zero (their generator monomial vanishes);
    admissible images must stay inside the listed truncation.
    """
    rows, phases = _cell_images(iso, spec, gammas, depth)
    return _monomial(rows, phases, len(rows))


def commutation_residual(
    iso: ClassicalIsometry, pf: PerronFrobeniusData, cutoff: float
) -> float:
    """Operator norm of [U, D] on the level-1 truncation up to cutoff: the
    largest ||V D_gamma - D_gamma' V|| over the listed bisections gamma, with
    V the block of U from gamma's cells to gamma', the one bisection they
    land in.  D keeps each bisection's cells and U sends distinct cells to
    distinct cells, so [U, D]^H [U, D] is block diagonal.  Each V is read off
    gamma's slice of the cell map; U is never formed."""
    if not 1 <= cutoff < math.inf:
        raise ValueError("cutoff must be finite and >= 1")
    gammas = bisections_up_to(pf.spec, int(cutoff))
    rows, phases = _cell_images(iso, pf.spec, gammas, 1)
    blocks = [dirac_block(pf, gamma, 1).matrix for gamma in gammas]
    ends = np.cumsum([len(d) for d in blocks])  # the rows follow the list
    worst = 0.0
    for d, end in zip(blocks, ends):
        cols = slice(end - len(d), end)
        # gamma' holds gamma's image rows; a V of zeros may take any block
        j = np.searchsorted(ends, rows[cols].max(), side="right")
        v = _monomial(rows[cols], phases[cols], len(blocks[j]), ends[j] - len(blocks[j]))
        worst = max(worst, np.linalg.norm(v @ d - blocks[j] @ v, 2))
    return float(worst)


def _orbit_roots(gens: list[tuple[int, ...]], words: list[Word]) -> list[int]:
    """Index of the least word in each word's orbit under the group that
    ``gens`` (``_search``'s generators) generate, for all admissible words
    of one length, sorted: one union per word and generator (the group is
    never listed)."""
    index = {w: i for i, w in enumerate(words)}
    uf = UnionFind(len(words))
    for g in gens:
        for i, w in enumerate(words):
            uf.union(i, index[tuple([g[x - 1] for x in w])])
    return [uf.find(i) for i in range(len(words))]


@dataclass(frozen=True)
class FixedPointReport:
    level: int
    dimension: int
    orbits: tuple[tuple[Word, ...], ...]
    cycle_words: tuple[Word, ...]
    witness_proper: bool

    @property
    def witness_available(self) -> bool:
        return self.witness_proper


def classical_fixed_points(spec: AdjacencySpec, k: int) -> FixedPointReport:
    """Fixed diagonal projections of the classical action at word length k.

    Phases act trivially on diagonal projections, so the fixed-point
    dimension is the number of letterwise automorphism orbits.  The cycle
    indicator (words closing up into loops) is an extra fixed projection;
    it is proper only when some admissible word is not a cycle.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    words = enumerate_words(spec, k)
    members: dict[int, list[Word]] = {}  # each orbit, sorted, by least member
    for w, root in zip(words, _orbit_roots(_search(spec.a)[1], words)):
        members.setdefault(root, []).append(w)
    orbits = tuple(map(tuple, members.values()))

    cycles = tuple(w for w in words if spec.a[w[-1] - 1][w[0] - 1])
    proper = 0 < len(cycles) < len(words)
    return FixedPointReport(
        level=k,
        dimension=len(orbits),
        orbits=orbits,
        cycle_words=cycles,
        witness_proper=proper,
    )

