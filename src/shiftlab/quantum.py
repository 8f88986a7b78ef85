"""Constraint propagation over projection variables and ergodicity verdicts.

The relations analysed here live between two square grids of projection
variables p[i][j], q[i][j]: both grids are "magic" (every row and column
sums to the identity), both preserve the right maximal eigenvector, and
the adjacency matrix intertwines them (A p = q A).  Propagation computes
a least fixed point of sound forcing rules and reports each variable as
Zero, One, or Free (grouped into union-find classes of provably equal
variables).  Free entries are honestly "not determined by the encoded
relations": longer-word partial-isometry identities are not linear and
are never encoded, so zero-forcing is sound but deliberately incomplete.

Word-level supports: a pair of admissible words is certainly zero when
some letter position holds a Zero variable, and certified nonzero when a
graph automorphism aligns the two words letterwise (on the full shift
every pair is certified: independent tensor legs).  Connectivity of the
resulting graphs decides ergodicity of the level-k action.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .core import (
    AdjacencySpec,
    PerronFrobeniusData,
    Word,
    _frozen,
    charge,
    enumerate_words,
)
from .errors import Inconsistent
from .symmetry import (
    GraphAutomorphism,
    UnionFind,
    _orbit_roots,
    matrix_automorphisms,
)

ZERO = "0"
ONE = "1"
FREE = "free"

CERTAIN_ZERO = "CertainZero"
CERTIFIED_NONZERO = "CertifiedNonzero"
POSSIBLE = "Possible"

ERGODIC_CERTIFIED = "ErgodicCertified"
NON_ERGODIC = "NonErgodic"
UNKNOWN = "Unknown"

DUAL_FREE_GROUP = "DualFreeGroup"
INDETERMINATE = "Indeterminate"

@dataclass(frozen=True)
class ProjVarState:
    kind: str  # ZERO | ONE | FREE
    class_id: int | None = None

    @property
    def is_zero(self) -> bool:
        return self.kind == ZERO

    @property
    def is_one(self) -> bool:
        return self.kind == ONE


@dataclass(frozen=True)
class PatternMatrix:
    n: int
    p: tuple[tuple[ProjVarState, ...], ...]
    q: tuple[tuple[ProjVarState, ...], ...]

    def p_state(self, i: int, j: int) -> ProjVarState:
        return self.p[i - 1][j - 1]

    def q_state(self, i: int, j: int) -> ProjVarState:
        return self.q[i - 1][j - 1]

    def is_identity_pattern(self) -> bool:
        return all(
            st.kind == (ONE if i == j else ZERO)
            for grid in (self.p, self.q)
            for i, row in enumerate(grid)
            for j, st in enumerate(row)
        )

    def grid_strings(self) -> dict[str, list[str]]:
        """Rows over {'.', '0', '1', class letters}; '.' marks a singleton
        Free entry, letters mark Free entries merged into a shared class."""
        free = [
            st.class_id
            for grid in (self.p, self.q)
            for row in grid
            for st in row
            if st.kind == FREE
        ]
        shared = [c for c, count in Counter(free).items() if count > 1]
        letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
        letter_of = {c: letters[k % len(letters)] for k, c in enumerate(shared)}

        def render(grid):  # ZERO and ONE print as themselves
            return [
                "".join(
                    letter_of.get(st.class_id, ".") if st.kind == FREE else st.kind
                    for st in row
                )
                for row in grid
            ]

        return {"p": render(self.p), "q": render(self.q)}


@dataclass(frozen=True)
class ConstraintSystem:
    """The equations on the 2n² variables of a pattern: p[i][j] has id
    i·n + j and q[i][j] id n² + i·n + j (0-based i, j)."""

    spec: AdjacencySpec
    # each equation: (lhs var ids, lhs const, rhs var ids, rhs const)
    equations: tuple[tuple[tuple[int, ...], int, tuple[int, ...], int], ...]
    pre_zero: tuple[int, ...]

    @property
    def var_count(self) -> int:
        return 2 * self.spec.n * self.spec.n


def _u_differs(pf: PerronFrobeniusData) -> np.ndarray:
    """n x n bool: eigenvector entries i and j (0-based) differ at ``pf.tol``."""
    u = np.asarray(pf.u, dtype=float)[:, None]
    return np.abs(u - u.T) > pf.tol * np.maximum(np.maximum(1.0, u), u.T)


#: variable codes in propagation, and the line rules' messages by index
_ZERO_VAR, _ONE_VAR, _FREE_VAR = 0, 1, 2
_LINE_RULES = (
    "a line of a magic pattern is all zero",
    "two ones in one line of a pattern",
)


def _pf_codes(pf: PerronFrobeniusData, use_pf_rule: bool) -> np.ndarray:
    """Each variable's code before propagation: Zero where the eigenvector
    rule pre-zeroes it, else free."""
    n = len(pf.u)
    codes = np.full(2 * n * n, _FREE_VAR, dtype=np.int8)
    if use_pf_rule:
        codes[np.tile(_u_differs(pf).ravel(), 2)] = _ZERO_VAR
    return codes


def _live_equations(spec: AdjacencySpec, kept: np.ndarray) -> list[tuple]:
    """The equations of ``build_constraints`` with only the variables where
    ``kept`` is True, as tuples in order, and only the live ones: those that
    keep a variable on either side, or whose constants differ (a clash keeps
    its place in order).  With every variable kept, every equation lives.

    The 4n magic lines (constants 0 and 1) all live.  Equation 4n + i n + k,
    (A p)[i][k] = (q A)[i][k], has constants 0 and lives when a kept p[j][k]
    (j a successor of i) or q[i][j] (j a predecessor of k) reaches it: one
    pass places each kept variable in its equations, keyed i n + k.  Kept
    ids are visited in increasing order, so each side lists its variables by
    increasing j, as the sums over j in A p and q A do."""
    n, nn = spec.n, spec.n**2
    # magic lines of p, then of q, rows before columns: each sums to 1
    grids = np.arange(2 * nn).reshape(2, n, n)
    lines = np.stack([grids, grids.transpose(0, 2, 1)], axis=1).reshape(4 * n, n)
    on_line = kept[lines]
    flat = tuple(lines[on_line].tolist())
    ends = np.cumsum(on_line.sum(axis=1)).tolist()
    equations = [(flat[s:e], 0, (), 1) for s, e in zip([0, *ends], ends)]
    sides = defaultdict(lambda: ([], []))  # i n + k -> (left ids, right ids)
    up = [[(i - 1 - j) * n for i in pre] for j, pre in enumerate(spec._predecessors)]
    for v in np.flatnonzero(kept[:nn]).tolist():  # p[j][k]: key = v + (i - j) n
        for d in up[v // n]:
            sides[v + d][0].append(v)
    down = [[k - 1 - j for k in succ] for j, succ in enumerate(spec._successors)]
    for v in np.flatnonzero(kept[nn:]).tolist():  # q[i][j]: key = v + k - j
        for d in down[v % n]:
            sides[v + d][1].append(nn + v)
    for lhs, rhs in map(sides.get, sorted(sides)):
        equations.append((tuple(lhs), 0, tuple(rhs), 0))
    return equations


def build_constraints(
    spec: AdjacencySpec,
    pf: PerronFrobeniusData,
    use_pf_rule: bool = True,
) -> ConstraintSystem:
    """Magic row/column sums, eigenvector zeroing, and intertwining.

    The eigenvector rule pre-zeroes p[i][j] and q[i][j] whenever
    u_i != u_j at the eigendata tolerance: a nonzero entry forces the two
    eigenvector components to agree.  It is kept independent of the other
    relations and can be disabled for experimentation.
    """
    n = spec.n
    eqs = tuple(_live_equations(spec, np.ones(2 * n * n, dtype=bool)))
    flat = np.flatnonzero(_pf_codes(pf, use_pf_rule)[: n * n] == _ZERO_VAR)
    pre = tuple(np.stack([flat, flat + n * n], axis=1).ravel().tolist())
    return ConstraintSystem(spec=spec, equations=eqs, pre_zero=pre)


def _live_sweep(
    spec: AdjacencySpec, pf: PerronFrobeniusData, use_pf_rule: bool = True
) -> tuple[PatternMatrix, np.ndarray]:
    """``propagate(build_constraints(...))`` from live equations; the sweep's codes."""
    codes = _pf_codes(pf, use_pf_rule)
    pattern = _sweep(spec.n, codes, _live_equations(spec, codes != _ZERO_VAR))
    return pattern, codes


def propagate(system: ConstraintSystem) -> PatternMatrix:
    """Least fixed point of the forcing rules.

    Each equation, with knowns substituted, reads Σ c_r x_r = d over its
    free classes r, where c_r is the class's count on the left minus its
    count on the right:
      * when every c_r has one sign, read from that sign's side, a scalar d
        against weight Σ|c_r| forces all-Zero when d = 0 and all-One when
        d = weight (a sum of projections equals its weight only when every
        summand is the identity: the deficits 1 - p are positive and sum
        to zero);
      * m x_a - m x_b = d merges the two classes when d = 0, and forces a
        (One, Zero) split when d = ±m;
      * no class and d != 0 is a contradiction.
    The fixed point does not depend on the order of ``system.equations``,
    and neither does whether a contradiction is met; which contradiction
    ``Inconsistent`` names does, since the sweep stops at the first one.

    A pre-zeroed variable is never merged or reassigned (only free classes
    are) and adds nothing to a tally, so it is dropped from every equation
    before the first sweep, and so is an equation left with no variable
    and equal constants.
    """
    codes = np.full(system.var_count, _FREE_VAR, dtype=np.int8)
    codes[np.fromiter(system.pre_zero, np.intp, len(system.pre_zero))] = _ZERO_VAR
    kept = (codes != _ZERO_VAR).tolist()
    equations = []
    for lhs, lc, rhs, rc in system.equations:
        lhs = [v for v in lhs if kept[v]]
        rhs = [v for v in rhs if kept[v]]
        if lhs or rhs or lc != rc:
            equations.append((lhs, lc, rhs, rc))
    return _sweep(system.spec.n, codes, equations)


def _sweep(n: int, codes: np.ndarray, equations: list) -> PatternMatrix:
    """Sweep the equations, which hold no variable that ``codes`` marks
    Zero, until a sweep changes nothing; then the pattern, with ``codes``
    updated and checked by the line rules.

    Each equation is read as one signed tally: Σ c_r x_r = d over its free
    classes r, with c_r the count on the left minus the count on the right
    (zero entries dropped) and d the right constant minus the left one,
    each constant plus its side's known Ones.  The classes a rule sets or
    merges are distinct keys of that tally, so every rule that fires
    changes the state.
    """
    size = len(codes)
    uf = UnionFind(size)
    find, parent = uf.find, uf.parent
    state: dict[int, str] = {}

    def tally(variables: list[int], sign: int, coef: dict[int, int]) -> int:
        """Add ``sign`` to ``coef`` per free class occurrence; the known Ones."""
        ones = 0
        for v in variables:
            r = v if parent[v] == v else find(v)  # a root needs no call
            st = state.get(r)
            if st is None:
                coef[r] = coef.get(r, 0) + sign
            elif st == ONE:
                ones += 1
        return ones

    # an equation whose tally is empty stays so (known classes keep their
    # value, merges add to both sides): later sweeps skip it
    pending = equations
    changed = True
    while changed:
        changed = False
        unsettled = []
        for eq in pending:
            coef: dict[int, int] = {}
            lconst = eq[1] + tally(eq[0], 1, coef)
            rconst = eq[3] + tally(eq[2], -1, coef)
            if 0 in coef.values():
                coef = {r: c for r, c in coef.items() if c}
            if not coef:
                if lconst != rconst:
                    raise Inconsistent(f"scalar clash {lconst} != {rconst}")
                continue
            unsettled.append(eq)
            d, weight = rconst - lconst, sum(coef.values())
            if weight < 0:  # read the equation from its right side
                d, weight = -d, -weight
            # every c_r of one sign: weight = Σ|c_r|, so weight >= len(coef)
            if len(coef) <= weight == sum(map(abs, coef.values())):
                if d in (0, weight):
                    state.update(dict.fromkeys(coef, ONE if d else ZERO))
                    changed = True
                elif d < 0 or d > weight:
                    raise Inconsistent(f"sum of {weight} projections = {d}")
                elif len(coef) == 1:
                    # single class scaled by its multiplicity: no 0/1 value
                    raise Inconsistent(f"class multiple {weight} cannot equal {d}")
            elif len(coef) == 2 and not weight:  # m x_a - m x_b = d
                ra, rb = sorted(coef, key=coef.get, reverse=True)  # +m, then -m
                m = coef[ra]
                if d == 0:
                    uf.union(ra, rb)
                elif abs(d) == m:
                    state[ra], state[rb] = (ONE, ZERO) if d > 0 else (ZERO, ONE)
                else:
                    raise Inconsistent(f"projection difference {d}/{m} out of range")
                changed = True
        pending = unsettled

    # one shared state per value and per free class; classes are numbered
    # in order of their first variable
    known = {ZERO: ProjVarState(ZERO), ONE: ProjVarState(ONE)}
    cells = [known[ZERO]] * size
    classes: dict[int, ProjVarState] = {}
    for v in np.flatnonzero(codes != _ZERO_VAR).tolist():
        r = find(v)
        st = state.get(r)
        if st is None:
            if r not in classes:
                classes[r] = ProjVarState(FREE, len(classes))
            cells[v] = classes[r]
        else:
            cells[v] = known[st]
            codes[v] = _ONE_VAR if st == ONE else _ZERO_VAR

    # p before q, row i before column i, all-zero before two ones
    grids = codes.reshape(2, n, n)
    lines = np.stack([grids, grids.transpose(0, 2, 1)], axis=2)
    broken = np.stack(
        [(lines == _ZERO_VAR).all(axis=-1), (lines == _ONE_VAR).sum(axis=-1) > 1],
        axis=-1,
    )
    if broken.any():
        raise Inconsistent(_LINE_RULES[broken.argmax() % 2])
    rows = [tuple(cells[s : s + n]) for s in range(0, size, n)]
    return PatternMatrix(n=n, p=tuple(rows[:n]), q=tuple(rows[n:]))


def collapse_report(pattern: PatternMatrix) -> str:
    """Diagnosis of a propagated pattern.

    ``DualFreeGroup`` when both grids collapsed to the identity pattern
    (off-diagonal entries vanish, the action is pure gauge).  Anything
    else is ``Indeterminate``: Free entries may still vanish in the
    universal algebra, the encoded rules only force one direction.
    """
    if pattern.is_identity_pattern():
        return DUAL_FREE_GROUP
    return INDETERMINATE


@dataclass(frozen=True)
class PerLegWitness:
    """Independent per-position alphabet permutations (full shift only)."""

    perms: tuple[GraphAutomorphism, ...]


@dataclass(frozen=True)
class SupportPattern:
    level: int
    words: tuple[Word, ...]
    states: tuple[tuple[str, ...], ...]

    def state(self, mu: Word, nu: Word) -> str:
        i = self.words.index(mu)
        j = self.words.index(nu)
        return self.states[i][j]


def classical_witness(
    spec: AdjacencySpec, mu: Word, nu: Word
) -> GraphAutomorphism | PerLegWitness | None:
    """Automorphism aligning nu with mu letterwise, if one exists.

    Its image under any one-dimensional representation of the classical
    group is a nonzero scalar, so it certifies the (mu, nu) support.  On
    the full shift the tensor legs are independent, so even when no single
    permutation matches, per-position transpositions certify the pair.
    The group is listed, so an order above ``word_cap()`` raises
    LengthOverflow.
    """
    if len(mu) != len(nu):
        raise ValueError("words must have equal length")
    group = matrix_automorphisms(spec.a)
    aligned = (group[:, [x - 1 for x in nu]] == mu).all(axis=1)
    if aligned.any():  # the rows are sorted: this is the least such one
        return GraphAutomorphism(tuple(group[aligned.argmax()].tolist()))
    if spec.is_full_shift():
        perms = []
        for a, b in zip(mu, nu):
            perm = list(range(1, spec.n + 1))
            perm[b - 1], perm[a - 1] = perm[a - 1], perm[b - 1]
            perms.append(GraphAutomorphism(tuple(perm)))
        return PerLegWitness(tuple(perms))
    return None


#: support states by int8 code: 0 Possible, 1 CertainZero, 2 CertifiedNonzero
_STATES = (POSSIBLE, CERTAIN_ZERO, CERTIFIED_NONZERO)
_CERTIFIED_CODE = 2


def _words_and_orbits(
    spec: AdjacencySpec, words: list[Word], alive: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The letters of the listed level-k words as an (m, k) array of 0-based
    indices, and each word's root: the index of the least word in its
    automorphism orbit, or 0 for every word on the full shift, where per-leg
    witnesses (``PerLegWitness``) join every pair into one class.

    Every ordered pair of words with one root, (w, w) included, is
    certified and must be alive (n x n bool over letters) at every
    position.  At position t the pairs of one orbit hold the letters
    (g(w_t), h(w_t)), which run over every ordered pair of one letter
    orbit; on the full shift they run over every letter pair.  Every
    letter starts some level-k word (each has a successor), so the check
    is ``alive`` on each letter orbit squared, and on the full shift
    ``alive`` everywhere.  The root of a word is its class's least word,
    so its first letter is the least letter of the first letter's orbit.
    """
    letters = np.array(words, dtype=np.intp) - 1
    if spec.is_full_shift():
        root = np.zeros(len(words), dtype=np.intp)
    else:
        root = np.array(_orbit_roots(spec, words), dtype=np.intp)
    if letters.size:
        least = np.empty(spec.n, dtype=np.intp)
        least[letters[:, 0]] = letters[root, 0]
        if (~alive & (least[:, None] == least)).any():
            raise Inconsistent(
                "witnessed pair was forced to zero; propagation is unsound"
            )
    return letters, root


def word_support(
    pattern: PatternMatrix, pf: PerronFrobeniusData, k: int
) -> SupportPattern:
    """Level-k support states for all pairs of admissible words.

    CertainZero when some position holds a Zero variable (or distinct
    eigenvector entries, which force one); CertifiedNonzero on a classical
    witness, i.e. when the two words share an automorphism orbit (on the
    full shift, every pair); Possible otherwise.  Pairs mixing an
    admissible with an inadmissible word are identically zero and never
    indexed.  The m x m states are charged against ``word_cap()`` before
    they are formed; a certified pair forced to zero raises Inconsistent.
    """
    alive = ~(_u_differs(pf) | [[st.is_zero for st in row] for row in pattern.p])
    words = enumerate_words(pf.spec, k)
    charge(len(words) ** 2, "{count} word pairs of length {k} exceed cap {cap}", k=k)
    letters, root = _words_and_orbits(pf.spec, words, alive)
    live = np.ones((len(words),) * 2, dtype=bool)  # not certainly zero
    for a_t in letters.T:
        live &= alive[a_t][:, a_t]  # rows, then columns: 4x faster than one gather
    codes = (~live).astype(np.int8)  # True is CertainZero
    codes[root[:, None] == root] = _CERTIFIED_CODE
    states = np.array(_STATES, dtype=object)[codes].tolist()
    return SupportPattern(k, tuple(words), tuple(map(tuple, states)))


@dataclass(frozen=True)
class ErgodicityVerdict:
    verdict: str  # ErgodicCertified | NonErgodic | Unknown
    level: int
    witness: tuple[Word, ...] | None


def ergodicity_verdict(
    spec: AdjacencySpec, pf: PerronFrobeniusData, k: int
) -> ErgodicityVerdict:
    """Level-k verdict from support-graph connectivity.

    A fixed element of the level-k diagonal algebra is forced to be the
    indicator of a word set F whose coefficients towards the complement
    all vanish.  If F holds the words whose letter at every position lies
    in the class of word 0's letter there, a class of the equivalence
    relation that ``alive | alive.T`` generates on the letters, then every
    word outside F has, at some position, a letter of another class than
    word 0's: neither order of the two letters is alive, so both
    coefficients between the words vanish, and a proper F makes the
    verdict NonErgodic with F as its witness.  When ``alive`` is itself an
    equivalence relation, the support graph (its k-fold direct product)
    has exactly these components.  If instead the certified-nonzero
    subgraph is connected, a proper F would need a vanishing certified
    coefficient, which is absurd.  Everything in between stays Unknown.

    The certified subgraph needs no search of its own: its pairs are the
    pairs with one root (``_words_and_orbits``), so its components are the
    roots.  The sweep starts from the eigenvector rule's Zeros and frees
    none, so ``alive`` needs no eigenvector mask of its own.  A full shift
    with every pair alive is certified unlisted (``PerLegWitness``).
    """
    n = spec.n
    alive = (_live_sweep(spec, pf)[1][: n * n] != _ZERO_VAR).reshape(n, n)
    if k >= 0 and alive.all() and spec.is_full_shift():
        return ErgodicityVerdict(ERGODIC_CERTIFIED, k, None)
    words = enumerate_words(spec, k)
    letters, root = _words_and_orbits(spec, words, alive)
    uf = UnionFind(n)
    for a, b in np.argwhere(alive).tolist():
        uf.union(a, b)
    cls = np.array([uf.find(x) for x in range(n)], dtype=np.intp)[letters]
    first = (cls == cls[0]).all(axis=1)
    if not first.all():
        witness = tuple(words[i] for i in np.flatnonzero(first))
        return ErgodicityVerdict(NON_ERGODIC, k, witness)
    if not root.any():  # one class: every root is word 0
        return ErgodicityVerdict(ERGODIC_CERTIFIED, k, None)
    return ErgodicityVerdict(UNKNOWN, k, None)


@dataclass(frozen=True, eq=False)
class TAReport:
    matrix: np.ndarray
    permutations: np.ndarray  # (order, n^2), sorted rows

    @property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.permutations.tolist()))

    @property
    def order(self) -> int:
        return len(self.permutations)


def t_a_matrix(spec: AdjacencySpec) -> np.ndarray:
    """(A^t (x) A) composed with the tensor flip, an n^2 x n^2 0/1 matrix."""
    n, a = spec.n, spec.matrix
    return np.kron(a.T, a)[:, np.arange(n * n).reshape(n, n).T.ravel()]


def t_a_analysis(spec: AdjacencySpec) -> TAReport:
    """Commuting permutations of the flip-intertwiner; LengthOverflow when its
    n^4 entries, group elements or search nodes pass ``word_cap()``."""
    charge(spec.n**4, "{count} t-a matrix entries exceed cap {cap}")
    t = t_a_matrix(spec)
    perms = matrix_automorphisms(t.tolist())
    return TAReport(matrix=_frozen(t), permutations=_frozen(perms))
