"""Independent brute-force oracles used by the test suite.

These recompute the library's closed forms by direct summation or
enumeration, staying off the code paths they check.
"""

import itertools
import json

import numpy as np

from shiftlab.cli import round15
from shiftlab.core import EMPTY_WORD, conformal_measure, require_admissible
from shiftlab.spectral import _common_prefix_length, level_basis


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
            w = _common_prefix_length(gw, hw)
            total += (values[ci] - values[cj]) * lam**w * mu[hi]
        prev = per_coarse.setdefault(anc[gi], total)
        assert abs(prev - total) < 1e-10, "kernel image not level-constant"
    return np.array([per_coarse[i] for i in range(coarse.size)])


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
