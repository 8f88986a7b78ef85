"""Independent brute-force oracles used by the test suite.

These recompute the library's closed forms by direct summation or
enumeration, staying off the code paths they check.
"""

import itertools
import json
import math
from collections import Counter
from functools import reduce
from operator import add, mul

import numpy as np

from shiftlab.cli import round15
from shiftlab.core import (
    EMPTY_WORD,
    conformal_measure,
    ending_table,
    enumerate_words,
    is_admissible,
    require_admissible,
    word_cap,
)
from shiftlab.errors import Inconsistent, LengthOverflow, NotBiunitary, NotClosed
from shiftlab.models import (
    QLS_ATTEMPTS,
    QLS_MIN_OVERLAP,
    QLS_SWEEPS,
    QLS_TOL,
    RelationReport,
    WordOperator,
    word_op_adjoint,
    word_op_mul,
)
from shiftlab.quantum import (
    CERTAIN_ZERO,
    CERTIFIED_NONZERO,
    ERGODIC_CERTIFIED,
    FREE,
    NON_ERGODIC,
    ONE,
    POSSIBLE,
    UNKNOWN,
    ZERO,
    ConstraintSystem,
    ErgodicityVerdict,
    PatternMatrix,
    PerLegWitness,
    ProjVarState,
    SupportPattern,
    build_constraints,
    propagate,
)
from shiftlab.groupoid import (
    BisectionIndex,
    bisections_up_to,
    count_bisections_by_letter,
    is_bisection_index,
)
from shiftlab.spectral import (
    MERGE_TOL,
    delta_matrix,
    eigenvalue_formula,
    level_basis,
    merge_multiset,
)
from shiftlab.symmetry import (
    GraphAutomorphism,
    UnionFind,
    truncation_basis,
)


def loop_level_basis(spec, base, depth):
    """level_basis as a breadth-first loop: each depth's cells extend the
    last ones by every successor, with the cap checked after each depth."""
    limit = word_cap()
    cells = [()]
    for _ in range(depth):
        cells = [nu + (c,) for nu in cells for c in spec.successors((base + nu)[-1])]
        if len(cells) > limit:
            raise LengthOverflow(f"level basis exceeds cap {limit}")
    return cells


def shell_delta_values(pf, base, depth, values, extra=2):
    """Apply the nonlocal kernel to a level function by raw shell summation.

    Both the evaluation point and the integration variable run over cells
    refined `extra` levels below the function's own level; the summand
    vanishes inside a coarse cell, and the distance between distinct fine
    cells is read off their common prefix.  Exact for level functions.
    Also asserts the result is constant on coarse cells.
    """
    spec = pf.spec
    coarse = level_basis(spec, base, depth)
    fine = level_basis(spec, base, depth + extra)
    fw = fine.full_words()
    mu = [conformal_measure(pf, w) for w in fw]
    coarse_of = {nu: i for i, nu in enumerate(coarse.cells)}
    anc = [coarse_of[nu[:depth]] for nu in fine.cells]
    lam = pf.lambda_max
    per_coarse = {}
    for gi, gw in enumerate(fw):
        total = 0.0
        for hi, hw in enumerate(fw):
            ci, cj = anc[gi], anc[hi]
            if ci == cj:
                continue
            # the common prefix: their coarse cells differ, so some letter does
            w = next(k for k, (x, y) in enumerate(zip(gw, hw)) if x != y)
            total += (values[ci] - values[cj]) * lam**w * mu[hi]
        prev = per_coarse.setdefault(anc[gi], total)
        assert abs(prev - total) < 1e-10, "kernel image not level-constant"
    return np.array([per_coarse[i] for i in range(coarse.size)])


def pairwise_delta_matrix(pf, base, depth):
    """delta_matrix's array by one pass per pair of cells: the diagonal
    from the eigenvalue formula, the (i, j) entry -lam^w sqrt(mu_i mu_j)
    with w counted as the first index where the full words differ."""
    words = level_basis(pf.spec, base, depth).full_words()
    root_mu = np.sqrt([conformal_measure(pf, w) for w in words])
    lam = pf.lambda_max
    mat = np.zeros((len(words), len(words)))
    for i, w in enumerate(words):
        mat[i, i] = eigenvalue_formula(pf, base, w) - lam * pf.u_of(w[-1])
    for i, j in itertools.combinations(range(len(words)), 2):
        w = next(k for k, (x, y) in enumerate(zip(words[i], words[j])) if x != y)
        mat[i, j] = mat[j, i] = -(lam**w) * root_mu[i] * root_mu[j]
    return mat


def gram_schmidt_wavelets(pf, base, depth):
    """(support cell, child values) of each Haar wavelet, in wavelet_basis's
    order, by Gram-Schmidt of e_0 .. e_{m-2} against the constant and the
    vectors before, in the inner product weighted by the child masses."""
    spec = pf.spec
    out = []
    for t in range(depth):
        for nu in level_basis(spec, base, t).cells:
            word = base + nu
            mu = np.array([conformal_measure(pf, word + (c,)) for c in spec.successors(word[-1])])
            taken = [np.ones(len(mu))]
            for i in range(len(mu) - 1):
                vec = np.eye(len(mu))[i]
                for prev in taken:
                    vec = vec - prev * (vec * prev * mu).sum() / (prev * prev * mu).sum()
                vec = vec / np.sqrt((vec * vec * mu).sum())
                taken.append(vec)
                out.append((word, vec))
    return out


def projected_dirac_block(pf, gamma, depth):
    """dirac_block's array as length * P - (1 - P)(Delta + length), P the
    projection onto the constant for a one-letter s (zero otherwise), by
    matrix products, then symmetrized."""
    ell = float(gamma.length_L)
    delta = delta_matrix(pf, gamma.s_word, depth)
    eye = np.eye(delta.basis.size)
    c = delta.constant_vector(pf)
    proj = np.outer(c, c) if gamma.is_fock else 0 * eye
    mat = ell * proj - (eye - proj) @ (delta.matrix + ell * eye)
    return 0.5 * (mat + mat.T)


def loop_isometry_unitary(iso, spec, gammas, depth):
    """isometry_unitary as one loop that writes each cell's image and
    block phase straight into a dense matrix."""
    if len(iso.phases) != spec.n:
        raise ValueError(f"{len(iso.phases)} phases for {spec.n} letters")
    trunc = truncation_basis(spec, gammas, depth)
    pi = iso.perm
    mat = np.zeros((len(trunc), len(trunc)), dtype=complex)
    for (gamma, nu), src in trunc.items():
        r, s, nu_img = map(pi.apply_word, (gamma.r_word, gamma.s_word, nu))
        if not is_bisection_index(spec, r, s) or not is_admissible(spec, s + nu_img):
            continue
        dst = trunc.get((BisectionIndex(r, s), nu_img))
        if dst is None:
            raise NotClosed(f"image of {gamma} under the relabeling leaves the list")
        mat[dst, src] = (
            iso.word_phase(gamma.r_word)
            * iso.phases[gamma.s_word[-1] - 1]
            * np.conj(iso.word_phase(gamma.s_word))
        )
    return mat


def dense_commutation_residual(iso, pf, cutoff):
    """commutation_residual as one 2-norm of the dense U D - D U over the
    whole level-1 truncation, U from loop_isometry_unitary and D block
    diagonal from projected_dirac_block with the blocks in list order."""
    gammas = bisections_up_to(pf.spec, int(cutoff))
    u = loop_isometry_unitary(iso, pf.spec, gammas, 1)
    d = np.zeros(u.shape)
    off = 0
    for gamma in gammas:
        block = projected_dirac_block(pf, gamma, 1)
        d[off : off + len(block), off : off + len(block)] = block
        off += len(block)
    assert off == len(u)
    return float(np.linalg.norm(u @ d - d @ u, 2))


def shifted_cylinder_mass(pf, word, k):
    """Measure of the k-fold shift image of a cylinder, by enumeration."""
    spec = pf.spec
    if k < len(word):
        return conformal_measure(pf, word[k:])
    assert k == len(word)
    return sum(conformal_measure(pf, (j,)) for j in spec.successors(word[-1]))


def eigenvalue_multiset(pf, base, depth):
    """Expected Laplacian block spectrum from the closed form: zero for the
    constant plus, per internal cell with m children, the cell value with
    multiplicity m - 1."""
    from shiftlab.spectral import eigenvalue_formula, merge_multiset

    spec = pf.spec
    pairs = [(0.0, 1)]
    for t in range(depth):
        for nu in level_basis(spec, base, t).cells:
            w = base + nu
            kids = spec.successors(w[-1])
            if len(kids) >= 2:
                pairs.append((eigenvalue_formula(pf, base, w), len(kids) - 1))
    return merge_multiset(pairs)


def dense_perron_frobenius(a):
    """(lambda, u, v) from numpy's dense eig on A and on A^T.

    Takes the eigenvalue of largest real part and its eigenvectors, scaled
    (not sign-folded) so u sums to one and u.v == 1; a wrong eigenvector
    shows up as a non-positive entry.
    """
    a = np.asarray(a, dtype=float)
    w, right = np.linalg.eig(a)
    k = int(np.argmax(w.real))
    wt, left = np.linalg.eig(a.T)
    u = right[:, k].real
    u = u / u.sum()
    v = left[:, int(np.argmax(wt.real))].real
    v = v / (u @ v)
    return float(w[k].real), u, v


def transfer_integral(pf, word):
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


def embed_level(pf, coarse, fine):
    """Isometric inclusion of level-d coefficients into level-(d+k)."""
    if fine.base != coarse.base or fine.depth < coarse.depth:
        raise ValueError("fine basis must refine the coarse one")
    mat = np.zeros((fine.size, coarse.size))
    coarse_index = {nu: i for i, nu in enumerate(coarse.cells)}
    for j, nu in enumerate(fine.cells):
        i = coarse_index[nu[: coarse.depth]]
        ratio = conformal_measure(pf, fine.base + nu) / conformal_measure(
            pf, coarse.base + nu[: coarse.depth]
        )
        mat[j, i] = np.sqrt(ratio)
    return mat


def relative_cell(gamma, alpha, beta):
    """Extension nu with (alpha, beta) == (r + s_last + nu, s + nu)."""
    s = gamma.s_word
    return beta[len(s):]


def loop_ending_counts(spec, length):
    """ending_counts as n² products per step over the matrix entries."""
    counts = [1] * spec.n
    for _ in range(max(length, 1) - 1):
        counts = [
            sum(counts[i] * spec.a[i][j] for i in range(spec.n))
            for j in range(spec.n)
        ]
    return counts


def loop_index_counts(spec, r_len, s_len):
    """count_bisections_by_letter as three cases on loop_ending_counts: an
    empty r pairs with every s, a one-letter s with every r whose last
    letter precedes it, and otherwise the predecessor sums of r's and of
    s's letter before last multiply, less the pairs where the two agree."""
    if r_len == 0:
        return loop_ending_counts(spec, s_len)
    r_ends = loop_ending_counts(spec, r_len)
    preds = [[a for a in range(spec.n) if spec.a[a][b]] for b in range(spec.n)]
    if s_len == 1:
        return [sum(r_ends[a] for a in pre) for pre in preds]
    s_inner = loop_ending_counts(spec, s_len - 1)
    return [
        sum(r_ends[a] for a in pre) * sum(s_inner[c] for c in pre)
        - sum(r_ends[a] * s_inner[a] for a in pre)
        for pre in preds
    ]


def loop_spectrum(pf, cutoff):
    """spectrum as a walk over states (last letter, k) with k an n-tuple of
    letter counts: each child copies k and sums its value afresh."""
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

    def value(b, k):
        # left to right, as the walk adds: sum() is compensated from 3.12
        return lam * u[b] + (lam - 1) * reduce(add, map(mul, k, u), 0)

    root = (0,) * n
    states = 0
    classes = [{} for _ in range(n)]
    for b in range(n):
        wavelets = classes[b]  # cell class k -> wavelet multiplicity, s ending in b
        level = {(b, root): 1} if value(b, root) + 1 <= bound else {}
        while level:
            states += len(level)
            nxt = {}
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

    ends = ending_table(spec, max_len)
    found = {}  # value -> multiplicity
    by_letter = []  # per length L: indices of length L by last letter of s
    for length in range(1, max_len + 1):
        per_s_len = [
            count_bisections_by_letter(spec, ends, length - s_len, s_len)
            for s_len in range(1, length + 1)
        ]
        for val, mult in (
            (float(length), sum(per_s_len[0])),
            (-float(length), sum(sum(counts) for counts in per_s_len[1:])),
        ):
            if mult:
                found[val] = found.get(val, 0) + mult
        by_letter.append([sum(col) for col in zip(*per_s_len)])

    for b in range(n):
        wavelets, classes[b] = classes[b], {}  # released once expanded
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


def largest_child_count(pf, cutoff):
    """The largest letter count in any child the spectrum walk makes, the
    pruned ones too: a walk over the sets of (last letter, counts) kept at
    each level, with no multiplicities and no cap."""
    n = pf.spec.n
    bound = cutoff + MERGE_TOL
    lam = pf.lambda_max
    u = [pf.u_of(c) for c in range(1, n + 1)]
    largest = 0
    for b in range(n):

        def kept(k):
            return lam * u[b] + (lam - 1) * reduce(add, map(mul, k, u), 0) + 1 <= bound

        level = {(b + 1, (0,) * n)} if kept((0,) * n) else set()
        while level:
            nxt = set()
            for last, k in level:
                for c in pf.spec.successors(last):
                    child = tuple(kc + (i == c - 1) for i, kc in enumerate(k))
                    largest = max(largest, child[c - 1])
                    if kept(child):
                        nxt.add((c, child))
            level = nxt
    return largest


def pressure_root(pf):
    """The beta with rho(A diag(exp(-beta f))) = 1 for f = (lam - 1) u,
    found by bisection on dense eigenvalues; it reads only A, lam and u.

    A cell one letter c deeper has a value (lam - 1) u_c larger, so the
    number N(cutoff) of spectrum values with |value| <= cutoff grows as
    exp(beta * cutoff) (Lalley, Renewal theorems in symbolic dynamics,
    Acta Math. 1989): log N - beta * cutoff converges when f is
    non-lattice, and stays in a bounded band when it is lattice."""
    a = np.asarray(pf.spec.matrix, dtype=float)
    f = (pf.lambda_max - 1) * np.asarray(pf.u, dtype=float)

    def radius(beta):
        return np.abs(np.linalg.eigvals(a * np.exp(-beta * f))).max()

    lo, hi = 0.0, 1.0  # radius(0) = lam > 1
    while radius(hi) > 1:
        lo, hi = hi, 2 * hi
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if radius(mid) > 1 else (lo, mid)
    return (lo + hi) / 2

def least_positive_power(a):
    """Least k with A^k > 0, scanning k = 1..n^2-2n+2 one power at a time.

    None when no power up to Wielandt's bound is positive (not primitive).
    """
    n = len(a)
    b = np.array(a, dtype=int)
    power = b.copy()
    for k in range(1, n * n - 2 * n + 3):
        if power.all():
            return k
        power = ((power @ b) > 0).astype(int)
    return None


def brute_force_group(a):
    """Every alphabet permutation (0-based, sorted) that preserves the
    matrix, by trying all n! of them (n <= 6)."""
    n = len(a)
    assert n <= 6, "n! permutations"
    return [
        p
        for p in itertools.permutations(range(n))
        if all(a[p[i]][p[j]] == a[i][j] for i in range(n) for j in range(n))
    ]


def backtrack_automorphisms(a):
    """Every automorphism of a 0/1 matrix (1-based, sorted), as the leaves
    of a backtracking search with in/out-degree pruning."""
    n = len(a)
    profile = [(sum(a[i]), sum(row[i] for row in a), a[i][i]) for i in range(n)]
    candidates = [[j for j in range(n) if profile[j] == p] for p in profile]
    found = []
    assignment = []
    used = [False] * n

    def extend(i):
        if i == n:
            found.append(tuple(x + 1 for x in assignment))
            return
        for j in candidates[i]:
            if used[j]:
                continue
            for k in range(i):
                if a[assignment[k]][j] != a[k][i] or a[j][assignment[k]] != a[i][k]:
                    break
            else:
                used[j] = True
                assignment.append(j)
                extend(i + 1)
                assignment.pop()
                used[j] = False

    extend(0)
    return found


def generated_group(gens, n):
    """Every product of the given 1-based permutations of 1..n, as tuples."""
    have = {tuple(range(1, n + 1))}
    todo = list(have)
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple(g[x - 1] for x in p)
            if q not in have:
                have.add(q)
                todo.append(q)
    return have


def brute_force_orbits(a, k):
    """Automorphism orbits of the admissible length-k words, as frozensets.

    The group is :func:`brute_force_group`; words come from all n^k
    letter tuples.
    """
    n = len(a)
    group = brute_force_group(a)
    words = [
        w
        for w in itertools.product(range(1, n + 1), repeat=k)
        if all(a[x - 1][y - 1] for x, y in zip(w, w[1:]))
    ]
    return {frozenset(tuple(p[x - 1] + 1 for x in w) for p in group) for w in words}


def _clean(obj):
    """The report conversions as one copying pass over the whole value."""
    if type(obj) is int:
        return obj
    if isinstance(obj, (float, np.floating)):
        return round15(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": round15(obj.real), "im": round15(obj.imag)}
    if isinstance(obj, np.ndarray):
        return _clean(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def reference_report_text(obj):
    """A report's text the way the CLI once built it: cleaned, then
    dumped in one string with a trailing newline."""
    return json.dumps(_clean(obj), indent=2, sort_keys=True) + "\n"


def _u_differs(pf, i, j):
    ui, uj = float(pf.u[i]), float(pf.u[j])
    return abs(ui - uj) > pf.tol * max(1.0, ui, uj)


def p_var(n, i, j):
    """Id of the variable p[i][j] (0-based) in a ConstraintSystem."""
    return i * n + j


def q_var(n, i, j):
    """Id of the variable q[i][j] (0-based) in a ConstraintSystem."""
    return n * n + i * n + j


def loop_build_constraints(spec, pf, use_pf_rule=True):
    """build_constraints as the 2n^3 loop over every (i, j, k) entry."""
    n = spec.n
    eqs = []
    for var in (p_var, q_var):
        for i in range(n):
            eqs.append((tuple(var(n, i, j) for j in range(n)), 0, (), 1))
        for j in range(n):
            eqs.append((tuple(var(n, i, j) for i in range(n)), 0, (), 1))
    for i in range(n):
        for k in range(n):
            lhs = tuple(p_var(n, j, k) for j in range(n) if spec.a[i][j])
            rhs = tuple(q_var(n, i, j) for j in range(n) if spec.a[j][k])
            eqs.append((lhs, 0, rhs, 0))
    pre = []
    if use_pf_rule:
        for i in range(n):
            for j in range(n):
                if _u_differs(pf, i, j):
                    pre.append(p_var(n, i, j))
                    pre.append(q_var(n, i, j))
    return ConstraintSystem(spec=spec, equations=tuple(eqs), pre_zero=tuple(pre))


def sweep_propagate(system):
    """propagate sweeping every equation until a sweep changes nothing."""
    uf = UnionFind(system.var_count)
    state = {}

    def root_state(x):
        return state.get(uf.find(x))

    def assign(x, value):
        r = uf.find(x)
        old = state.get(r)
        if old is None:
            state[r] = value
            return True
        if old != value:
            raise Inconsistent(
                f"variable class {r} forced to both {old} and {value}"
            )
        return False

    def merge(x, y):
        rx, ry = uf.find(x), uf.find(y)
        if rx == ry:
            return False
        sx, sy = state.get(rx), state.get(ry)
        if sx is not None and sy is not None and sx != sy:
            raise Inconsistent(f"merging contradictory classes {rx}, {ry}")
        r = uf.union(rx, ry)
        winner = sx if sx is not None else sy
        state.pop(rx, None)
        state.pop(ry, None)
        if winner is not None:
            state[r] = winner
        return True

    for var in system.pre_zero:
        assign(var, ZERO)

    changed = True
    while changed:
        changed = False
        for lhs, lc, rhs, rc in system.equations:
            lconst, lfree = lc, Counter()
            for v in lhs:
                st = root_state(v)
                if st == ONE:
                    lconst += 1
                elif st is None:
                    lfree[uf.find(v)] += 1
            rconst, rfree = rc, Counter()
            for v in rhs:
                st = root_state(v)
                if st == ONE:
                    rconst += 1
                elif st is None:
                    rfree[uf.find(v)] += 1
            for r in set(lfree) & set(rfree):
                m = min(lfree[r], rfree[r])
                lfree[r] -= m
                rfree[r] -= m
            lfree = +lfree
            rfree = +rfree

            if not lfree and not rfree:
                if lconst != rconst:
                    raise Inconsistent(f"scalar clash {lconst} != {rconst}")
                continue
            if not rfree or not lfree:
                free, d = (lfree, rconst - lconst) if not rfree else (
                    rfree,
                    lconst - rconst,
                )
                weight = sum(free.values())
                if d == 0:
                    for r in free:
                        changed |= assign(r, ZERO)
                elif d == weight:
                    for r in free:
                        changed |= assign(r, ONE)
                elif d < 0 or d > weight:
                    raise Inconsistent(f"sum of {weight} projections = {d}")
                elif len(free) == 1:
                    raise Inconsistent(
                        f"class multiple {weight} cannot equal {d}"
                    )
                continue
            if len(lfree) == 1 and len(rfree) == 1:
                (ra, ma), = lfree.items()
                (rb, mb), = rfree.items()
                if ma == mb:
                    d = rconst - lconst
                    if d == 0:
                        changed |= merge(ra, rb)
                    elif d == ma:
                        changed |= assign(ra, ONE)
                        changed |= assign(rb, ZERO)
                    elif d == -ma:
                        changed |= assign(ra, ZERO)
                        changed |= assign(rb, ONE)
                    else:
                        raise Inconsistent(
                            f"projection difference {d}/{ma} out of range"
                        )

    n = system.spec.n
    class_ids = {}

    def extract(var):
        r = uf.find(var)
        if r in state:
            return ProjVarState(state[r])
        if r not in class_ids:
            class_ids[r] = len(class_ids)
        return ProjVarState(FREE, class_ids[r])

    p = tuple(tuple(extract(p_var(n, i, j)) for j in range(n)) for i in range(n))
    q = tuple(tuple(extract(q_var(n, i, j)) for j in range(n)) for i in range(n))
    pattern = PatternMatrix(n=n, p=p, q=q)
    _validate_pattern(pattern)
    return pattern


def _validate_pattern(pattern):
    """Raise Inconsistent at the first line of a grid that is all Zero or
    holds two Ones: p before q, row i before column i."""
    for grid in (pattern.p, pattern.q):
        for i in range(pattern.n):
            row = [grid[i][j] for j in range(pattern.n)]
            col = [grid[j][i] for j in range(pattern.n)]
            for line in (row, col):
                if all(st.is_zero for st in line):
                    raise Inconsistent("a line of a magic pattern is all zero")
                if sum(st.is_one for st in line) > 1:
                    raise Inconsistent("two ones in one line of a pattern")


def loop_word_support(pattern, pf, k):
    """word_support as a double loop over every pair of words; off the full
    shift, (g nu, nu) is certified for each g that backtrack_automorphisms
    lists."""
    spec = pf.spec
    words = enumerate_words(spec, k)
    idx = {w: i for i, w in enumerate(words)}
    m = len(words)
    zero_pos = [
        [pattern.p[a][b].is_zero or _u_differs(pf, a, b) for b in range(spec.n)]
        for a in range(spec.n)
    ]
    states = [[POSSIBLE] * m for _ in range(m)]
    for i, mu in enumerate(words):
        for j, nu in enumerate(words):
            if any(zero_pos[a - 1][b - 1] for a, b in zip(mu, nu)):
                states[i][j] = CERTAIN_ZERO

    if spec.is_full_shift():
        for i in range(m):
            for j in range(m):
                if states[i][j] != CERTAIN_ZERO:
                    states[i][j] = CERTIFIED_NONZERO
    else:
        group = backtrack_automorphisms(spec.a)
        for j, nu in enumerate(words):
            for g in group:
                i = idx[tuple(g[x - 1] for x in nu)]
                if states[i][j] == CERTAIN_ZERO:
                    raise Inconsistent(
                        "witnessed pair was forced to zero; propagation is unsound"
                    )
                states[i][j] = CERTIFIED_NONZERO

    return SupportPattern(
        level=k,
        words=tuple(words),
        states=tuple(tuple(row) for row in states),
    )


def _components(m, edge):
    """Union-find components over the pairs i < j with edge(i, j): members
    in increasing order, components by least member."""
    uf = UnionFind(m)
    for i in range(m):
        for j in range(i + 1, m):
            if edge(i, j):
                uf.union(i, j)
    out = {}
    for x in range(m):
        out.setdefault(uf.find(x), []).append(x)
    return [out[r] for r in sorted(out)]


def loop_ergodicity_verdict(spec, pf, k, pattern=None):
    """ergodicity_verdict from union-find components of loop_word_support;
    ``pattern`` replaces the propagated one when given."""
    if pattern is None:
        pattern = propagate(build_constraints(spec, pf))
    support = loop_word_support(pattern, pf, k)
    words = support.words
    m = len(words)
    comps = _components(m, lambda i, j: support.states[i][j] != CERTAIN_ZERO)
    if len(comps) > 1:
        return ErgodicityVerdict(NON_ERGODIC, k, tuple(words[i] for i in comps[0]))
    certified = _components(
        m, lambda i, j: support.states[i][j] == CERTIFIED_NONZERO
    )
    if len(certified) == 1:
        return ErgodicityVerdict(ERGODIC_CERTIFIED, k, None)
    return ErgodicityVerdict(UNKNOWN, k, None)


def loop_classical_witness(spec, mu, nu):
    """classical_witness as a loop over the elements, in order, that
    backtrack_automorphisms lists."""
    if len(mu) != len(nu):
        raise ValueError("words must have equal length")
    for g in backtrack_automorphisms(spec.a):
        if tuple(g[x - 1] for x in nu) == tuple(mu):
            return GraphAutomorphism(g)
    if spec.is_full_shift():
        perms = []
        for a, b in zip(mu, nu):
            perm = list(range(1, spec.n + 1))
            perm[b - 1], perm[a - 1] = perm[a - 1], perm[b - 1]
            perms.append(GraphAutomorphism(tuple(perm)))
        return PerLegWitness(tuple(perms))
    return None


def generator_operator(model, i, j):
    """w_ij: the shift with the (i, j) projection at leg 0."""
    return WordOperator.from_legs(model.dim, 1, {0: model.entry(i, j)})


def word_operator(model, mu, nu):
    """Operator of the letter pair word: product of generators."""
    if len(mu) != len(nu):
        raise ValueError("words must have equal length")
    op = WordOperator.from_legs(model.dim, 0, {})
    for a, b in zip(mu, nu):
        op = word_op_mul(op, generator_operator(model, a, b))
    return op


def dense_relation_defect(model, ell):
    """relation_check's RelationReport with the partial-isometry defect
    from materializing X*X as a dense d^m x d^m matrix for each of the
    sum n^(2m) word pairs and taking ||(X*X)^2 - X*X||."""
    n = model.n
    checked = sum(n ** (2 * m) for m in range(1, ell + 1))
    if checked > word_cap():
        raise LengthOverflow(f"{checked} word pairs exceed cap {word_cap()}")
    worst_pi = 0.0
    for m in range(1, ell + 1):
        words = list(itertools.product(range(1, n + 1), repeat=m))
        for mu in words:
            for nu in words:
                x = word_operator(model, mu, nu)
                xx = word_op_mul(word_op_adjoint(x), x)
                dense = xx.materialize()
                worst_pi = max(
                    worst_pi, float(np.linalg.norm(dense @ dense - dense, 2))
                )
    eye = np.eye(model.dim)
    worst_uni = 0.0
    for i in range(1, n + 1):
        row_range = sum(model.entry(i, j) for j in range(1, n + 1))
        col_range = sum(model.entry(j, i) for j in range(1, n + 1))
        worst_uni = max(
            worst_uni,
            float(np.linalg.norm(row_range - eye, 2)),
            float(np.linalg.norm(col_range - eye, 2)),
        )
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            if i == k:
                continue
            mixed_col = sum(
                model.entry(i, j) @ model.entry(k, j) for j in range(1, n + 1)
            )
            mixed_row = sum(
                model.entry(j, i) @ model.entry(j, k) for j in range(1, n + 1)
            )
            worst_uni = max(
                worst_uni,
                float(np.linalg.norm(mixed_col, 2)),
                float(np.linalg.norm(mixed_row, 2)),
            )
    return RelationReport(
        max_partial_isometry_defect=worst_pi,
        max_unitarity_defect=worst_uni,
        words_checked=checked,
    )


def loop_qls_vectors(n, seed=0):
    """random_qls_vectors one matrix at a time: a separate polar fit (SVD)
    per row and per column, the residual checked after every sweep as the
    largest 2-norm over the rows and columns, and the overlaps of every
    vector pair in four nested loops."""

    def nearest_unitary(m):
        u, _, vh = np.linalg.svd(m)
        return u @ vh

    def residual(grid):
        eye = np.eye(n)
        worst = 0.0
        for i in range(n):
            worst = max(worst, np.linalg.norm(grid[i] @ grid[i].conj().T - eye, 2))
            worst = max(
                worst, np.linalg.norm(grid[:, i] @ grid[:, i].conj().T - eye, 2)
            )
        return worst

    def min_free_overlap(grid):
        best = np.inf
        for i, j, k, l in itertools.product(range(n), repeat=4):
            if i != k and j != l:
                best = min(best, abs(np.vdot(grid[i, j], grid[k, l])))
        return float(best)

    rng = np.random.default_rng(seed)
    for _ in range(QLS_ATTEMPTS):
        grid = rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))
        for _ in range(QLS_SWEEPS):
            for i in range(n):
                grid[i] = nearest_unitary(grid[i])
            for j in range(n):
                grid[:, j] = nearest_unitary(grid[:, j])
            if residual(grid) < QLS_TOL:
                break
        if residual(grid) >= QLS_TOL:
            continue
        if min_free_overlap(grid) > QLS_MIN_OVERLAP:
            return grid
    raise NotBiunitary(
        f"no generic biunitary grid found in {QLS_ATTEMPTS} seeded attempts"
    )
