import itertools
import cmath
import math
import random
import re
import types

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import shiftlab as sl
from shiftlab.core import word_cap
from shiftlab.groupoid import BisectionIndex, bisections_up_to
from shiftlab import symmetry
from shiftlab.quantum import t_a_matrix
from shiftlab.symmetry import (
    ClassicalIsometry,
    GraphAutomorphism,
    _search,
    generating_set,
    isometry_unitary,
    matrix_automorphisms,
    truncation_basis,
)
from shiftlab.errors import LengthOverflow, NotClosed
from conftest import (
    FIBONACCI,
    UNKNOWN_EXHIBIT,
    budget,
    primitive_circulants,
    primitive_matrices,
    random_primitive,
    sample_phase_vectors,
    swap_permutation,
    wielandt,
)
from oracles import (
    backtrack_automorphisms,
    brute_force_group,
    dense_commutation_residual,
    generated_group,
    least_positive_power,
    loop_isometry_unitary,
)


def cycle_circulant(n):
    """Loops plus the n-cycle i -> i + 1: its group is the rotations, C_n."""
    return [[int((j - i) % n in (0, 1)) for j in range(n)] for i in range(n)]


def t_a_circulants(max_n):
    """t-a matrices (n^2 letters) of every primitive circulant, n = 2..max_n."""
    for n in range(2, max_n + 1):
        for c in itertools.product((0, 1), repeat=n):
            a = [[c[(j - i) % n] for j in range(n)] for i in range(n)]
            if least_positive_power(a) is not None:
                yield t_a_matrix(sl.AdjacencySpec.from_matrix(a)).tolist()


def listable_t_a_circulants():
    """The t-a matrices of t_a_circulants(4) whose groups are listed."""
    return [m for m in t_a_circulants(4) if _search(m)[0] <= word_cap()]


def listing_sweep():
    """Any 0/1 matrix, primitive or not, as the listing only needs the
    orbit sizes and generators: random ones for n = 1..6, every circulant
    for n = 1..5, and the t-a matrices of Fibonacci and the full 2-shift."""
    rng = random.Random(20261020)
    mats = [
        [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        for n in range(1, 7)
        for _ in range(40)
    ]
    mats += [
        [[c[(j - i) % n] for j in range(n)] for i in range(n)]
        for n in range(1, 6)
        for c in itertools.product((0, 1), repeat=n)
    ]
    mats += [t_a_matrix(sl.AdjacencySpec.from_matrix(FIBONACCI)).tolist()]
    mats += [t_a_matrix(sl.AdjacencySpec.full_shift(2)).tolist()]
    return mats


def paley(q):
    """Paley graph of a prime q = 1 mod 4: i ~ j when i - j is a nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    return [[int((i - j) % q in squares) for j in range(q)] for i in range(q)]


def graph(points, adjacent):
    """0/1 matrix of the relation ``adjacent`` on ``points``."""
    return [[int(adjacent(x, y)) for y in points] for x in points]


Z4_SQUARED = list(itertools.product(range(4), repeat=2))

# strongly regular graphs and their published automorphism group orders
STRONGLY_REGULAR = {
    "petersen": (  # disjoint 2-subsets of a 5-set
        graph(list(itertools.combinations(range(5), 2)), lambda x, y: not {*x} & {*y}),
        120,
    ),
    "paley13": (paley(13), 78),
    "paley17": (paley(17), 136),
    "shrikhande": (  # Z4 x Z4 with differences ±(0, 1), ±(1, 0), ±(1, 1)
        graph(
            Z4_SQUARED,
            lambda x, y: ((x[0] - y[0]) % 4, (x[1] - y[1]) % 4)
            in {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)},
        ),
        192,
    ),
    "clebsch": (  # GF(2)^4 with differences of weight 1 or 4
        graph(range(16), lambda x, y: x ^ y in {1, 2, 4, 8, 15}),
        1920,
    ),
    "rook4": (  # the 4 x 4 grid, one row or one column apart
        graph(Z4_SQUARED, lambda x, y: x != y and (x[0] == y[0] or x[1] == y[1])),
        1152,
    ),
}


def assert_list_matches_backtracking(mat):
    order, gens, _ = _search(mat)
    group = matrix_automorphisms(mat)
    assert group.dtype.kind in "iu" and group.shape == (order, len(mat))
    rows = group.tolist()
    assert rows == [list(p) for p in backtrack_automorphisms(mat)]
    assert all(x < y for x, y in zip(rows, rows[1:]))  # strictly increasing
    assert generated_group(gens, len(mat)) == set(map(tuple, rows))


# the inputs on which the residual is checked against the dense norm, with
# their cutoffs: the full 3-shift's dense truncation at cutoff 4 is slow
RESIDUAL_MATRICES = {
    "fib": (FIBONACCI, 4.0),
    "full2": ([[1, 1], [1, 1]], 4.0),
    "full3": ([[1] * 3] * 3, 3.0),
    "unknown": (UNKNOWN_EXHIBIT, 4.0),
    "wielandt3": ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], 4.0),
    "cycle4": (cycle_circulant(4), 4.0),
}


def identity_iso(n):
    return ClassicalIsometry(
        phases=(1.0 + 0.0j,) * n, perm=GraphAutomorphism.identity(n)
    )


def residual_isometries(n):
    """Six relabelings, automorphisms or not, times three phase vectors."""
    for perm in itertools.islice(itertools.permutations(range(1, n + 1)), 6):
        for z in sample_phase_vectors(n)[:3]:
            yield ClassicalIsometry(phases=z, perm=GraphAutomorphism(perm))


class TestAutomorphismGroup:
    def test_full_shift_symmetric_group(self):
        for n, order in ((2, 2), (3, 6), (4, 24)):
            spec = sl.AdjacencySpec.full_shift(n)
            assert len(sl.automorphism_group(spec)) == order

    def test_fibonacci_trivial(self, fib):
        group = sl.automorphism_group(fib)
        assert [g.perm for g in group] == [(1, 2)]

    def test_triangle_graph_s3(self):
        spec = sl.AdjacencySpec.from_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert len(sl.automorphism_group(spec)) == 6

    def test_closed_under_composition_and_inverse(self, full3):
        group = sl.automorphism_group(full3)
        perms = {g.perm for g in group}
        for g in group:
            assert g.inverse().perm in perms
            for h in group:
                assert g.compose(h).perm in perms

    def test_preserves_matrix(self, full3):
        a = [list(r) for r in full3.a]
        for g in sl.automorphism_group(full3):
            assert all(
                a[g(i + 1) - 1][g(j + 1) - 1] == a[i][j]
                for i in range(3)
                for j in range(3)
            )

    def test_generating_set_generates(self, full3):
        group = sl.automorphism_group(full3)
        gens = generating_set(full3)
        assert 1 <= len(gens) <= 2
        have = {GraphAutomorphism.identity(3).perm}
        frontier = list(have)
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = GraphAutomorphism(p).compose(g).perm
                if q not in have:
                    have.add(q)
                    frontier.append(q)
        assert len(have) == len(group)


class TestFirstPathSearch:
    @seed(20261018)
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(primitive_matrices(max_n=6), primitive_circulants(max_n=6)))
    def test_order_and_generators_match_brute_force(self, mat):
        n = len(mat)
        group = {tuple(x + 1 for x in p) for p in brute_force_group(mat)}
        spec = sl.AdjacencySpec.from_matrix(mat)
        assert _search(mat)[0] == len(group)
        gens = [g.perm for g in generating_set(spec)]
        assert gens == sorted(gens)
        assert tuple(range(1, n + 1)) not in gens and set(gens) <= group
        assert generated_group(gens, n) == group
        assert matrix_automorphisms(mat).tolist() == [list(p) for p in sorted(group)]

    def test_t_a_circulants_match_backtracking(self):
        # n^2 letters: out of reach of the n! brute force; of the 14
        # circulants only the full 4-shift's group is over the cap
        listable = listable_t_a_circulants()
        assert len(listable) == 13
        for mat in listable:
            assert_list_matches_backtracking(mat)

    @seed(20261019)
    @settings(max_examples=100, deadline=None)
    @given(primitive_matrices(max_n=3))
    def test_t_a_of_random_matrices_match_backtracking(self, a):
        assume(a != [[1] * 3] * 3)  # its 9! list is the circulant test's
        assert_list_matches_backtracking(
            t_a_matrix(sl.AdjacencySpec.from_matrix(a)).tolist()
        )

    def test_listing_sweep_matches_backtracking(self):
        for mat in listing_sweep():
            assert_list_matches_backtracking(mat)

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_listing_across_chunk_boundaries(self, monkeypatch, chunk):
        # the two corpora above, each matched against backtracking at the
        # default chunk, listed again one or three parent rows at a time, so
        # that their levels cross chunk boundaries (S_9, the full 3-shift's
        # t-a group, among them)
        mats = listing_sweep() + listable_t_a_circulants()
        whole = [matrix_automorphisms(mat) for mat in mats]
        monkeypatch.setattr(symmetry, "_LIST_CHUNK", chunk)
        for mat, want in zip(mats, whole):
            got = matrix_automorphisms(mat)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_trivial_group_is_the_identity_row(self):
        group = matrix_automorphisms(UNKNOWN_EXHIBIT)
        assert group.shape == (1, 4) and group.tolist() == [[1, 2, 3, 4]]

    def test_one_point_levels_between_larger_ones(self):
        # (1 2) and (4 5): the chain's orbits have sizes 2, 1, 1, 2, 1
        mat = [
            [0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0],
            [1, 1, 0, 1, 1],
            [0, 0, 1, 1, 0],
            [0, 0, 1, 0, 1],
        ]
        assert _search(mat)[2] == [2, 1, 1, 2, 1]
        assert_list_matches_backtracking(mat)
        assert matrix_automorphisms(mat).tolist() == [
            [1, 2, 3, 4, 5], [1, 2, 3, 5, 4], [2, 1, 3, 4, 5], [2, 1, 3, 5, 4]
        ]

    @pytest.mark.parametrize("n", [127, 128])
    def test_letters_fit_the_smallest_dtype(self, n):
        # int8 holds the letters 1..127 but not 128
        group = matrix_automorphisms(cycle_circulant(n))
        assert group.dtype == (np.int8 if n < 128 else np.int16)
        rotations = [[(i + r) % n + 1 for i in range(n)] for r in range(n)]
        assert group.tolist() == sorted(rotations)

    @pytest.mark.parametrize("n", [4, 5])
    def test_cyclic_circulant_has_one_generator(self, n):
        spec = sl.AdjacencySpec.from_matrix(cycle_circulant(n))
        rotation = tuple(range(2, n + 1)) + (1,)
        assert [g.perm for g in generating_set(spec)] == [rotation]
        assert len(sl.automorphism_group(spec)) == n

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_rotation_generates_what_rotation_and_square_generate(self, n):
        # e.g. (3, 4, 1, 2), the square of (2, 3, 4, 1), adds nothing
        spec = sl.AdjacencySpec.from_matrix(cycle_circulant(n))
        rotation = tuple(range(2, n + 1)) + (1,)
        square = tuple(rotation[x - 1] for x in rotation)
        group = {g.perm for g in sl.automorphism_group(spec)}
        assert generated_group([g.perm for g in generating_set(spec)], n) == group
        assert generated_group([rotation, square], n) == group

    def test_big_groups_are_not_listed(self, monkeypatch):
        # S_12 has 12! elements, over the default cap: the order is refused
        # at once, and the level-1 orbit still comes from the generators
        monkeypatch.delenv("ARIADNE_CAP", raising=False)
        spec = sl.AdjacencySpec.full_shift(12)
        with budget(cpu_s=1.0):
            with pytest.raises(LengthOverflow):
                sl.automorphism_group(spec)
            assert len(generating_set(spec)) == 11
            assert sl.classical_fixed_points(spec, 1).dimension == 1

    @pytest.mark.parametrize(
        "weights",
        [bytes, lambda k: np.random.default_rng(7).integers(0, 3, k // 8).tobytes()],
        ids=["zero", "colliding"],
    )
    def test_exact_whatever_the_hash_weights(self, monkeypatch, weights):
        # zero weights: refine splits no class, so only loop bits and the
        # colours of assigned points prune.  Weights in {0, 1, 2}: collisions
        # merge classes, an assigned point's among them.  Either way the one
        # check per leaf decides, and the results are the real weights'
        rng = random.Random(20261024)
        mats = [
            [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            for n in range(1, 7)
            for _ in range(17)
        ]
        mats += [
            [[c[(j - i) % n] for j in range(n)] for i in range(n)]
            for n in range(1, 7)
            for c in itertools.product((0, 1), repeat=n)
        ]
        want = [_search(mat) for mat in mats]
        shake = types.SimpleNamespace(digest=weights)  # as many bytes as asked
        monkeypatch.setattr(
            symmetry, "hashlib", types.SimpleNamespace(shake_128=lambda: shake)
        )
        assert [_search(mat) for mat in mats] == want

    @pytest.mark.parametrize(
        "spec, nodes",
        [
            (sl.AdjacencySpec.full_shift(5), 324),
            (sl.AdjacencySpec.full_shift(8), 2079),
            (sl.AdjacencySpec.from_matrix(paley(13)), 673),
        ],
        ids=["full5", "full8", "paley13"],
    )
    def test_t_a_node_counts(self, monkeypatch, spec, nodes):
        # the search succeeds at its node count and fails one node short:
        # a weaker pruning shows here before it shows as time
        mat = t_a_matrix(spec).tolist()
        monkeypatch.setenv("ARIADNE_CAP", str(nodes))
        _search(mat)
        monkeypatch.setenv("ARIADNE_CAP", str(nodes - 1))
        with pytest.raises(LengthOverflow, match=f"^search exceeds cap {nodes - 1} nodes$"):
            _search(mat)

    @pytest.mark.parametrize("name", list(STRONGLY_REGULAR))
    def test_strongly_regular_graphs(self, name):
        # refinement separates the least on these: regular with no loops,
        # each is one class at the root, so the most rests on the leaf check
        mat, order = STRONGLY_REGULAR[name]
        m = np.array(mat)
        rows = matrix_automorphisms(mat).astype(np.intp) - 1
        assert len(rows) == order
        assert (m[rows[:, :, None], rows[:, None, :]] == m).all()


class TestIsometryUnitary:
    def test_identity_gives_identity_matrix(self, fib_pf):
        gammas = bisections_up_to(fib_pf.spec, 2)
        u = isometry_unitary(identity_iso(2), fib_pf.spec, gammas, 1)
        assert np.abs(u - np.eye(u.shape[0])).max() < 1e-14

    def test_pure_gauge_fixes_fock_vectors(self, fib_pf):
        # on indices with empty r-word the two phase products cancel exactly
        gammas = [BisectionIndex((), (1,)), BisectionIndex((), (2,))]
        z = (np.exp(0.7j), np.exp(-1.2j))
        iso = ClassicalIsometry(phases=z, perm=GraphAutomorphism.identity(2))
        u = isometry_unitary(iso, fib_pf.spec, gammas, 1)
        assert np.abs(u - np.eye(u.shape[0])).max() < 1e-14

    def test_full_shift_transposition_permutes_cells(self, full2_pf):
        gammas = bisections_up_to(full2_pf.spec, 1)
        iso = ClassicalIsometry(
            phases=(1.0 + 0.0j,) * 2, perm=swap_permutation(2, 1, 2)
        )
        u = isometry_unitary(iso, full2_pf.spec, gammas, 1)
        assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-14
        assert set(np.abs(u).round(12).flatten()) == {0.0, 1.0}
        assert not np.allclose(u, np.eye(u.shape[0]))

    def test_unitary_for_automorphisms(self, full3_pf):
        gammas = bisections_up_to(full3_pf.spec, 2)
        for g in generating_set(full3_pf.spec):
            for z in sample_phase_vectors(3)[:2]:
                u = isometry_unitary(
                    ClassicalIsometry(phases=z, perm=g), full3_pf.spec, gammas, 1
                )
                assert (
                    np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-12
                )

    def test_not_closed_raises(self, full2_pf):
        gammas = [BisectionIndex((), (1,))]  # image (0, (2)) missing
        iso = ClassicalIsometry(
            phases=(1.0 + 0.0j,) * 2, perm=swap_permutation(2, 1, 2)
        )
        with pytest.raises(NotClosed):
            isometry_unitary(iso, full2_pf.spec, gammas, 1)

    def test_repeated_bisection_refused(self, fib_pf):
        # a second copy of a block would be sent into the first: not unitary
        gamma = BisectionIndex((), (1,))
        with pytest.raises(ValueError, match=r"bisection -\.1 is listed twice"):
            isometry_unitary(identity_iso(2), fib_pf.spec, [gamma, gamma], 1)

    @pytest.mark.parametrize("perm", [(1, 1), (2, 2), (1, 2, 3), (0, 1), (1,)])
    def test_relabeling_must_permute_the_letters(self, perm):
        # a relabeling that merges letters sends two blocks into one
        with pytest.raises(ValueError, match="does not permute 1..2"):
            ClassicalIsometry(phases=(1.0 + 0.0j,) * 2, perm=GraphAutomorphism(perm))

    def test_phase_count_must_match_the_alphabet(self, fib_pf):
        iso = ClassicalIsometry(phases=(1.0 + 0.0j,), perm=GraphAutomorphism((1,)))
        gammas = bisections_up_to(fib_pf.spec, 2)
        with pytest.raises(ValueError, match="^1 phases for 2 letters$"):
            isometry_unitary(iso, fib_pf.spec, gammas, 1)
        with pytest.raises(ValueError, match="^1 phases for 2 letters$"):
            sl.commutation_residual(iso, fib_pf, 2.0)

    @pytest.mark.parametrize(
        "gamma", [BisectionIndex((2,), (2,)), BisectionIndex((1,), (1, 1))]
    )
    def test_non_bisection_refused(self, fib_pf, gamma):
        # A[2][2] = 0, and r = 1 ends at the letter before s's last: the
        # identity once sent such a block's cells to zero, so U was not unitary
        msg = f"^{re.escape(str(gamma))} is not a bisection index$"
        with pytest.raises(ValueError, match=msg):
            truncation_basis(fib_pf.spec, [gamma], 1)
        gammas = [BisectionIndex((), (1,)), gamma]
        with pytest.raises(ValueError, match=msg):
            isometry_unitary(identity_iso(2), fib_pf.spec, gammas, 1)

    @pytest.mark.parametrize("name", list(RESIDUAL_MATRICES))
    def test_matches_the_relabeling_loop(self, name):
        # the scatter of the cell map against the loop that writes U directly
        mat, cutoff = RESIDUAL_MATRICES[name]
        spec = sl.AdjacencySpec.from_matrix(mat)
        gammas = bisections_up_to(spec, int(cutoff))
        for iso in residual_isometries(spec.n):
            got = isometry_unitary(iso, spec, gammas, 1)
            want = loop_isometry_unitary(iso, spec, gammas, 1)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_refusals_match_the_relabeling_loop(self, fib_pf, full2_pf):
        swap = ClassicalIsometry(
            phases=(1.0 + 0.0j,) * 2, perm=swap_permutation(2, 1, 2)
        )
        short = ClassicalIsometry(phases=(1.0 + 0.0j,), perm=GraphAutomorphism((1,)))
        gamma = BisectionIndex((), (1,))
        cases = [
            (NotClosed, swap, full2_pf.spec, [gamma]),
            (ValueError, short, fib_pf.spec, bisections_up_to(fib_pf.spec, 2)),
            (ValueError, identity_iso(2), fib_pf.spec, [gamma, gamma]),
            (ValueError, identity_iso(2), fib_pf.spec, [BisectionIndex((2,), (2,))]),
        ]
        for error, iso, spec, gammas in cases:
            raised = []
            for build in (isometry_unitary, loop_isometry_unitary):
                with pytest.raises(error) as info:
                    build(iso, spec, gammas, 1)
                raised.append((type(info.value), str(info.value)))
            assert raised[0] == raised[1] and raised[0][0] is error

    def test_truncation_rows_follow_the_list(self, fib_pf):
        gammas = [BisectionIndex((1,), (2,)), BisectionIndex((), (1,))]
        trunc = truncation_basis(fib_pf.spec, gammas, 1)
        assert list(trunc.items()) == [
            ((gammas[0], (1,)), 0),
            ((gammas[1], (1,)), 1),
            ((gammas[1], (2,)), 2),
        ]


class TestCommutationResidual:
    def test_identity_zero(self, fib_pf):
        assert sl.commutation_residual(identity_iso(2), fib_pf, 4.0) == 0.0

    def test_automorphisms_commute(self, fib_pf, full2_pf):
        for pf in (fib_pf, full2_pf):
            n = pf.spec.n
            group = sl.automorphism_group(pf.spec)
            gens = generating_set(pf.spec) or group  # trivial group: identity
            for g in gens:
                for z in sample_phase_vectors(n):
                    iso = ClassicalIsometry(phases=z, perm=g)
                    assert sl.commutation_residual(iso, pf, 4.0) <= 1e-9

    def test_fibonacci_swap_detected(self, fib_pf):
        iso = ClassicalIsometry(
            phases=(1.0 + 0.0j,) * 2, perm=swap_permutation(2, 1, 2)
        )
        assert sl.commutation_residual(iso, fib_pf, 4.0) > 1e-3

    @pytest.mark.parametrize("name", list(RESIDUAL_MATRICES))
    def test_matches_the_dense_norm(self, name):
        mat, cutoff = RESIDUAL_MATRICES[name]
        pf = sl.perron_frobenius(sl.AdjacencySpec.from_matrix(mat))
        for iso in residual_isometries(pf.spec.n):
            got = sl.commutation_residual(iso, pf, cutoff)
            want = dense_commutation_residual(iso, pf, cutoff)
            assert abs(got - want) <= 1e-12 * max(1.0, want)

    def test_forms_no_cells_by_cells_matrix(self, full3_pf):
        # 4,005 cells at cutoff 5, where a dense U alone takes 257 MB: each
        # block V is read off the cell map, so the traced peak stays small
        z = cmath.exp(2j * math.pi / 7)
        iso = ClassicalIsometry(
            phases=(z, z**2, z**3), perm=swap_permutation(3, 1, 2)
        )
        with budget(traced_mib=16):
            assert sl.commutation_residual(iso, full3_pf, 5.0) <= 1e-9

    @pytest.mark.parametrize(
        "mat, cutoff",
        [
            (UNKNOWN_EXHIBIT, 5.0),
            (wielandt(4), 6.0),
            (random_primitive(5, seed=20261018), 5.0),
        ],
        ids=["unknown", "wielandt4", "seeded5"],
    )
    def test_invariant_under_renaming_the_letters(self, mat, cutoff):
        # (z, pi) on A and (z o sigma^-1, sigma pi sigma^-1) on sigma A
        # sigma^-1 are one operator with its cells listed in other orders
        n, rng = len(mat), random.Random(20261018)
        pf = sl.perron_frobenius(sl.AdjacencySpec.from_matrix(mat))
        for _ in range(4):
            sigma, pi = rng.sample(range(n), n), rng.sample(range(n), n)
            inv = [sigma.index(k) for k in range(n)]
            z = [cmath.exp(2j * math.pi * rng.random()) for _ in range(n)]
            renamed = [[mat[inv[i]][inv[j]] for j in range(n)] for i in range(n)]
            iso = ClassicalIsometry(tuple(z), GraphAutomorphism(tuple(p + 1 for p in pi)))
            twin = ClassicalIsometry(
                tuple(z[inv[k]] for k in range(n)),
                GraphAutomorphism(tuple(sigma[pi[inv[k]]] + 1 for k in range(n))),
            )
            pf_renamed = sl.perron_frobenius(sl.AdjacencySpec.from_matrix(renamed))
            want = sl.commutation_residual(iso, pf, cutoff)
            got = sl.commutation_residual(twin, pf_renamed, cutoff)
            assert abs(got - want) <= 1e-12 * max(1.0, want)

    def test_full_3_shift_isometries_commute_at_cutoff_4(self, full3_pf):
        # the classical isometries of O_3 on 1,089 cells: read block by
        # block, a residual takes about 0.1 s of CPU; one dense 2-norm of
        # the whole truncation takes over 1.5 s
        for g in generating_set(full3_pf.spec):
            for z in sample_phase_vectors(3):
                iso = ClassicalIsometry(phases=z, perm=g)
                with budget(cpu_s=0.5):
                    assert sl.commutation_residual(iso, full3_pf, 4.0) <= 1e-9

    @pytest.mark.parametrize("cutoff", [math.inf, math.nan, 0.5])
    def test_cutoff_refused_as_spectrum_refuses_it(self, fib_pf, cutoff):
        with pytest.raises(ValueError, match=r"^cutoff must be finite and >= 1$"):
            sl.commutation_residual(identity_iso(2), fib_pf, cutoff)


class TestClassicalFixedPoints:
    def test_full_shift_two_orbits_at_level_two(self):
        for n in (2, 3, 4):
            rep = sl.classical_fixed_points(sl.AdjacencySpec.full_shift(n), 2)
            assert rep.dimension == 2  # diagonal vs off-diagonal words

    def test_fibonacci_trivial_group_counts_words(self, fib):
        rep = sl.classical_fixed_points(fib, 1)
        assert rep.dimension == 2
        rep2 = sl.classical_fixed_points(fib, 2)
        assert rep2.dimension == 3

    def test_full_7_shift_level_3_within_budget(self):
        # one image set per orbit: 5 orbits of 343 words under S_7
        spec = sl.AdjacencySpec.full_shift(7)
        with budget(cpu_s=0.5):
            rep = sl.classical_fixed_points(spec, 3)
        assert rep.dimension == 5

    def test_orbits_partition_words(self, full3):
        rep = sl.classical_fixed_points(full3, 2)
        words = set(sl.enumerate_words(full3, 2))
        seen = [w for orbit in rep.orbits for w in orbit]
        assert sorted(seen) == sorted(words)
        assert len(seen) == len(set(seen))

    def test_fibonacci_cycle_witness(self, fib):
        # every admissible length-2 word closes up (the trivial witness),
        # the first proper witness appears at k = 3 where 212 cannot close
        rep2 = sl.classical_fixed_points(fib, 2)
        assert set(rep2.cycle_words) == {(1, 1), (1, 2), (2, 1)}
        assert not rep2.witness_proper
        rep3 = sl.classical_fixed_points(fib, 3)
        assert (2, 1, 2) not in rep3.cycle_words
        assert rep3.witness_proper

    def test_full_shift_witness_unavailable(self, full2):
        rep = sl.classical_fixed_points(full2, 3)
        assert not rep.witness_proper
        assert not rep.witness_available

    def test_orbit_indicators_fixed_by_isometries(self, full3_pf):
        # diagonal word vectors live over empty-r indices; an automorphism
        # permutes each orbit and the phases cancel on diagonal pairs
        k = 2
        pf = full3_pf
        rep = sl.classical_fixed_points(pf.spec, k)
        gammas = [BisectionIndex((), (b,)) for b in (1, 2, 3)]
        trunc = truncation_basis(pf.spec, gammas, k - 1)
        for g in generating_set(pf.spec):
            for z in sample_phase_vectors(3)[:2]:
                iso = ClassicalIsometry(phases=z, perm=g)
                u = isometry_unitary(iso, pf.spec, gammas, k - 1)
                for orbit in rep.orbits:
                    vec = np.zeros(len(trunc), dtype=complex)
                    for w in orbit:
                        vec[trunc[BisectionIndex((), (w[0],)), w[1:]]] = 1.0
                    assert np.abs(u @ vec - vec).max() < 1e-12
