"""Graph automorphisms and the classical phase-and-permutation isometries.

An isometry is a phase vector on the alphabet plus a digraph automorphism.
It acts on the basis vector of a cell (indexed by a bisection and a
relative extension) by relabeling every letter and multiplying by the
phase product of the r-word, the first s-letter and the conjugate s-word;
the extension phases cancel, so each block picks up a single scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AdjacencySpec,
    PerronFrobeniusData,
    Word,
    enumerate_words,
    is_admissible,
)
from .errors import NotClosed
from .groupoid import BisectionIndex, bisections_up_to, is_bisection_index
from .spectral import LevelBasis, dirac_block, level_basis


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


def matrix_automorphisms(a: list[list[int]]) -> list[tuple[int, ...]]:
    """Backtracking search with in/out-degree pruning over any 0/1 matrix."""
    n = len(a)
    out_deg = [sum(row) for row in a]
    in_deg = [sum(a[i][j] for i in range(n)) for j in range(n)]
    profile = [(out_deg[i], in_deg[i], a[i][i]) for i in range(n)]
    candidates = [
        [j for j in range(n) if profile[j] == profile[i]] for i in range(n)
    ]
    found: list[tuple[int, ...]] = []
    assignment: list[int] = []
    used = [False] * n

    def extend(i: int) -> None:
        if i == n:
            found.append(tuple(x + 1 for x in assignment))
            return
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for k in range(i):
                if a[assignment[k]][j] != a[k][i] or a[j][assignment[k]] != a[i][k]:
                    ok = False
                    break
            if ok and a[j][j] == a[i][i]:
                used[j] = True
                assignment.append(j)
                extend(i + 1)
                assignment.pop()
                used[j] = False

    extend(0)
    found.sort()
    return found


def automorphism_group(spec: AdjacencySpec) -> list[GraphAutomorphism]:
    """Complete automorphism group of the directed graph, sorted."""
    return [GraphAutomorphism(p) for p in matrix_automorphisms([list(r) for r in spec.a])]


def generating_set(group: list[GraphAutomorphism]) -> list[GraphAutomorphism]:
    """Greedy small generating set (identity excluded)."""
    if not group:
        return []
    n = len(group[0].perm)
    ident = GraphAutomorphism.identity(n)
    have = {ident.perm}
    gens: list[GraphAutomorphism] = []
    for g in group:
        if g.perm in have:
            continue
        gens.append(g)
        frontier = [GraphAutomorphism(p) for p in have]
        have.add(g.perm)
        while frontier:
            h = frontier.pop()
            for gen in gens:
                for prod in (h.compose(gen), gen.compose(h)):
                    if prod.perm not in have:
                        have.add(prod.perm)
                        frontier.append(prod)
        if len(have) == len(group):
            break
    return gens


@dataclass(frozen=True)
class ClassicalIsometry:
    phases: tuple[complex, ...]
    perm: GraphAutomorphism

    def __post_init__(self):
        for z in self.phases:
            if abs(abs(z) - 1.0) > 1e-12:
                raise ValueError(f"phase {z} is not unimodular")

    def word_phase(self, word: Word) -> complex:
        out = 1.0 + 0.0j
        for x in word:
            out *= self.phases[x - 1]
        return out


@dataclass(frozen=True)
class TruncationBasis:
    """Concatenated level bases over a list of bisections."""

    gammas: tuple[BisectionIndex, ...]
    bases: tuple[LevelBasis, ...]
    offsets: tuple[int, ...]
    size: int

    def locate(self, gamma: BisectionIndex, cell: Word) -> int | None:
        try:
            g = self.gammas.index(gamma)
        except ValueError:
            return None
        try:
            c = self.bases[g].cells.index(cell)
        except ValueError:
            return None
        return self.offsets[g] + c


def truncation_basis(
    spec: AdjacencySpec, gammas: list[BisectionIndex], depth: int
) -> TruncationBasis:
    bases = [level_basis(spec, g.s_word, depth) for g in gammas]
    offsets = []
    total = 0
    for b in bases:
        offsets.append(total)
        total += b.size
    return TruncationBasis(
        gammas=tuple(gammas),
        bases=tuple(bases),
        offsets=tuple(offsets),
        size=total,
    )


def _relabeled_index(
    spec: AdjacencySpec, iso_perm: GraphAutomorphism, gamma: BisectionIndex
) -> BisectionIndex | None:
    """Letterwise image of a bisection index; None when inadmissible."""
    r = iso_perm.apply_word(gamma.r_word)
    s = iso_perm.apply_word(gamma.s_word)
    if not is_bisection_index(spec, r, s):
        return None
    return BisectionIndex(r, s)


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
    trunc = truncation_basis(spec, gammas, depth)
    pi = iso.perm
    mat = np.zeros((trunc.size, trunc.size), dtype=complex)
    for g_idx, gamma in enumerate(trunc.gammas):
        target = _relabeled_index(spec, pi, gamma)
        phase = (
            iso.word_phase(gamma.r_word)
            * iso.phases[gamma.s_word[-1] - 1]
            * np.conj(iso.word_phase(gamma.s_word))
        )
        for c_idx, nu in enumerate(trunc.bases[g_idx].cells):
            src = trunc.offsets[g_idx] + c_idx
            if target is None:
                continue
            nu_img = pi.apply_word(nu)
            if not is_admissible(spec, target.s_word + nu_img):
                continue
            dst = trunc.locate(target, nu_img)
            if dst is None:
                raise NotClosed(
                    f"image of {gamma} under the relabeling leaves the list"
                )
            mat[dst, src] = phase
    return mat


def dirac_truncation(
    pf: PerronFrobeniusData, gammas: list[BisectionIndex], depth: int
) -> np.ndarray:
    trunc = truncation_basis(pf.spec, gammas, depth)
    mat = np.zeros((trunc.size, trunc.size))
    for g_idx, gamma in enumerate(trunc.gammas):
        block = dirac_block(pf, gamma, depth)
        off = trunc.offsets[g_idx]
        end = off + trunc.bases[g_idx].size
        mat[off:end, off:end] = block.matrix
    return mat


def commutation_residual(
    iso: ClassicalIsometry, pf: PerronFrobeniusData, cutoff: float
) -> float:
    """Operator norm of [U, D] on the level-1 truncation up to cutoff."""
    gammas = bisections_up_to(pf.spec, int(cutoff))
    u = isometry_unitary(iso, pf.spec, gammas, 1)
    d = dirac_truncation(pf, gammas, 1)
    return float(np.linalg.norm(u @ d - d @ u, 2))


def _word_orbits(spec: AdjacencySpec, words: list[Word]) -> list[tuple[Word, ...]]:
    """Automorphism orbits of sorted words: each unseen word is the least
    member of a new orbit, its image set (#orbits * |G| images in all)."""
    group = automorphism_group(spec)
    seen: set[Word] = set()
    orbits: list[tuple[Word, ...]] = []
    for w in words:
        if w not in seen:
            orbit = tuple(sorted({g.apply_word(w) for g in group}))
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


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
    orbits = tuple(_word_orbits(spec, words))

    cycles = tuple(w for w in words if spec.a[w[-1] - 1][w[0] - 1])
    proper = 0 < len(cycles) < len(words)
    return FixedPointReport(
        level=k,
        dimension=len(orbits),
        orbits=orbits,
        cycle_words=cycles,
        witness_proper=proper,
    )

