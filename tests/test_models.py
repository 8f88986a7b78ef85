import itertools

import numpy as np
import pytest

import shiftlab as sl
import shiftlab.models
from shiftlab.models import (
    MagicUnitaryModel,
    _normality_norms,
    classical_model,
    qls_magic,
    random_qls_vectors,
    two_projection_magic,
)
from shiftlab.errors import (
    DegenerateAngle,
    IndexClash,
    LengthOverflow,
    NotBiunitary,
    NotProjection,
)
from conftest import budget, fourier_qls_vectors, random_projection
from oracles import (
    dense_relation_defect,
    generator_operator,
    loop_qls_vectors,
    word_operator,
)


@pytest.fixture(scope="module")
def qls4():
    return qls_magic(random_qls_vectors(4, seed=11))


class TestTwoProjectionMagic:
    def test_rows_and_columns_sum_exactly(self):
        m = two_projection_magic(np.pi / 3)
        eye = np.eye(2)
        for i in range(4):
            assert np.array_equal(m.entries[i].sum(axis=0), eye)
            assert np.array_equal(m.entries[:, i].sum(axis=0), eye)

    def test_commutator_at_quarter_pi(self):
        m = two_projection_magic(np.pi / 4)
        p, q = m.entry(1, 1), m.entry(3, 3)
        # closed form: ||pq - qp|| = sin(theta) cos(theta)
        assert np.linalg.norm(p @ q - q @ p, 2) == pytest.approx(0.5, abs=1e-12)
        assert np.linalg.norm(p @ q - q @ p, 2) > 0.4

    def test_abelian_limit(self):
        norms = []
        for theta in (0.3, 0.1, 0.01):
            m = two_projection_magic(theta)
            p, q = m.entry(1, 1), m.entry(3, 3)
            norms.append(np.linalg.norm(p @ q - q @ p, 2))
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 0.011

    @pytest.mark.parametrize("theta", [0.0, np.pi / 2, -0.3, 2.0])
    def test_degenerate_angles(self, theta):
        with pytest.raises(DegenerateAngle):
            two_projection_magic(theta)


class TestQlsMagic:
    def test_classical_latin_square_is_permutation_model(self):
        # standard basis vectors arranged by a cyclic Latin square
        n = 3
        vectors = np.zeros((n, n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                vectors[i, j, (i + j) % n] = 1.0
        model = qls_magic(vectors)
        for i in range(n):
            for j in range(n):
                p = model.entry(i + 1, j + 1)
                assert set(np.abs(p).round(12).flatten()) <= {0.0, 1.0}

    def test_fourier_arrangement_validates(self):
        model = qls_magic(fourier_qls_vectors(4))
        assert model.validate() < 1e-10

    def test_seeded_random_grid(self, qls4):
        assert qls4.validate() < 1e-10
        # generic grid: entries are genuinely rank one and non-orthogonal
        for i in range(1, 5):
            for j in range(1, 5):
                p = qls4.entry(i, j)
                assert np.trace(p).real == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_biunitary(self):
        bad = np.zeros((2, 2, 2), dtype=complex)
        bad[:, :, 0] = 1.0
        with pytest.raises(NotBiunitary):
            qls_magic(bad)


def qls_or_error(build, n, seed):
    try:
        return build(n, seed=seed)
    except NotBiunitary as exc:
        return str(exc)


class TestRandomQlsVectors:
    """Stacked polar fits against one SVD per row and per column."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_per_matrix_loop(self, n):
        # every seed at n = 3 and seed 14 at n = 6 end in NotBiunitary
        for seed in range(20):
            got = qls_or_error(random_qls_vectors, n, seed)
            want = qls_or_error(loop_qls_vectors, n, seed)
            if isinstance(want, str):
                assert got == want
            else:
                assert np.array_equal(got, want)

    def test_at_most_three_svds_per_sweep(self, monkeypatch):
        # one SVD fits every row, one every column, one is the residual;
        # fitting matrix by matrix takes 2n per sweep
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(shiftlab.models, "QLS_ATTEMPTS", 1)
        monkeypatch.setattr(shiftlab.models, "QLS_SWEEPS", 5)
        with pytest.raises(NotBiunitary):
            random_qls_vectors(4, seed=0)
        assert 0 < len(calls) <= 3 * 5


class TestWordOperators:
    def test_source_and_range_projections(self):
        m = two_projection_magic(np.pi / 5)
        w = generator_operator(m, 1, 1)
        ss = sl.word_op_mul(sl.word_op_adjoint(w), w)
        rr = sl.word_op_mul(w, sl.word_op_adjoint(w))
        assert ss.shift_power == 0 and [k for k, _ in ss.legs] == [0]
        assert rr.shift_power == 0 and [k for k, _ in rr.legs] == [1]
        assert np.allclose(ss.legs[0][1], m.entry(1, 1))
        assert np.allclose(rr.legs[0][1], m.entry(1, 1))

    def test_word_stacks_legs(self):
        m = two_projection_magic(np.pi / 5)
        x = word_operator(m, (1, 2, 3), (1, 2, 3))
        assert x.shift_power == 3
        assert [k for k, _ in x.legs] == [-2, -1, 0]

    def test_source_range_legs_disjoint(self):
        m = two_projection_magic(np.pi / 5)
        for length in (1, 2, 3, 4):
            word = tuple(1 + (i % 4) for i in range(length))
            x = word_operator(m, word, word)
            src = sl.word_op_mul(sl.word_op_adjoint(x), x)
            rng = sl.word_op_mul(x, sl.word_op_adjoint(x))
            src_legs = {k for k, _ in src.legs}
            rng_legs = {k for k, _ in rng.legs}
            assert src_legs <= set(range(1 - length, 1))
            assert rng_legs <= set(range(1, length + 1))
            assert not (src_legs & rng_legs)

    def test_zero_leg_kills_norm(self):
        m = two_projection_magic(np.pi / 5)
        x = word_operator(m, (1, 3), (1, 1))  # entry (3, 1) is a zero block
        assert sl.word_op_norm(x) == 0.0

    def test_norm_is_product_of_leg_norms(self, qls4):
        x = word_operator(qls4, (1, 2), (3, 4))
        dense_legs = [np.linalg.norm(mat, 2) for _, mat in x.legs]
        assert sl.word_op_norm(x) == pytest.approx(float(np.prod(dense_legs)))


class TestRelationCheck:
    def test_two_projection_partial_isometries(self):
        rep = sl.relation_check(two_projection_magic(np.pi / 5), 3)
        assert rep.max_partial_isometry_defect <= 1e-9
        assert rep.max_unitarity_defect <= 1e-10
        assert rep.words_checked == 16 + 256 + 4096

    def test_classical_model_exact(self):
        rep = sl.relation_check(classical_model((2, 1, 4, 3)), 2)
        assert rep.max_partial_isometry_defect == 0.0
        assert rep.max_unitarity_defect == 0.0

    def test_qls_model(self, qls4):
        rep = sl.relation_check(qls4, 2)
        assert rep.max_partial_isometry_defect <= 1e-9
        assert rep.max_unitarity_defect <= 1e-9

    def test_pair_sum_goes_on_past_a_sum_equal_to_the_cap(self, monkeypatch):
        # 9 + 81 pairs reach the cap at length 2, and length 3 still counts
        monkeypatch.setenv("ARIADNE_CAP", "90")
        message = r"^819 word pairs up to length 3 exceed cap 90$"
        with pytest.raises(LengthOverflow, match=message):
            sl.relation_check(classical_model((1, 2, 3)), 3)


def rotated_latin_square(n, seed):
    """Cyclic Latin square of basis vectors turned by a seeded unitary: a
    quantum Latin square whose projections are not diagonal (the random
    search finds none at n = 3)."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return np.array([[u[:, (i + j) % n] for j in range(n)] for i in range(n)])


def random_grid_model(n, dim, seed):
    """Magic-unitary shape with random complex entries: no entry is a
    projection, so the partial-isometry defect is of order one or more."""
    rng = np.random.default_rng(seed)
    shape = (n, n, dim, dim)
    entries = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return MagicUnitaryModel(n=n, dim=dim, entries=entries)


ORACLE_CASES = [
    *[(f"two-projection-{t}", lambda t=t: two_projection_magic(t), 2)
      for t in (0.1, 0.7, 1.2, 1.5)],
    ("two-projection-pi/5", lambda: two_projection_magic(np.pi / 5), 3),
    *[(f"qls2-seed{k}", lambda k=k: qls_magic(random_qls_vectors(2, seed=k)), 3)
      for k in (0, 1, 2)],
    *[(f"qls3-seed{k}", lambda k=k: qls_magic(rotated_latin_square(3, k)), 3)
      for k in (0, 1)],
    *[(f"qls4-seed{k}", lambda k=k: qls_magic(random_qls_vectors(4, seed=k)), 2)
      for k in (0, 1, 5)],
    ("classical-21", lambda: classical_model((2, 1)), 3),
    ("classical-231", lambda: classical_model((2, 3, 1)), 3),
    ("classical-2143", lambda: classical_model((2, 1, 4, 3)), 2),
    ("classical-4321", lambda: classical_model((4, 3, 2, 1)), 2),
    *[(f"non-projection-{n}x{d}-seed{k}", lambda a=(n, d, k): random_grid_model(*a), 3)
      for n, d, k in ((2, 1, 0), (2, 3, 1), (3, 2, 2))],
]


class TestRelationCheckOracle:
    """relation_check from per-leg spectra against the dense d^m x d^m loop."""

    @pytest.mark.parametrize(
        "build, ell", [c[1:] for c in ORACLE_CASES], ids=[c[0] for c in ORACLE_CASES]
    )
    def test_matches_dense_loop(self, build, ell):
        model = build()
        got = sl.relation_check(model, ell)
        want = dense_relation_defect(model, ell)
        assert got.words_checked == want.words_checked
        assert got.max_unitarity_defect == want.max_unitarity_defect
        a, b = got.max_partial_isometry_defect, want.max_partial_isometry_defect
        if b > 1e-6:
            assert abs(a - b) <= 1e-12 * b
        else:
            assert abs(a - b) <= 1e-14

    def test_non_projection_defect_is_order_one(self):
        # the formula must not assume the entries are projections
        rep = sl.relation_check(random_grid_model(2, 2, 7), 1)
        assert rep.max_partial_isometry_defect > 0.1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: two_projection_magic(np.pi / 5),
            lambda: qls_magic(random_qls_vectors(4, seed=1)),
            lambda: classical_model((2, 1, 4, 3)),
        ],
        ids=["two-projection", "qls", "classical"],
    )
    def test_length_four_in_bounded_time(self, build):
        # 69,904 word pairs; the dense loop does not end within 120 s on qls
        model = build()
        with budget(cpu_s=2.0):
            rep = sl.relation_check(model, 4)
        assert rep.words_checked == 16 + 16**2 + 16**3 + 16**4
        assert rep.max_partial_isometry_defect < 1e-10

    def test_huge_length_refused_at_once(self):
        with budget(cpu_s=1.0), pytest.raises(LengthOverflow, match="up to length 5 "):
            sl.relation_check(two_projection_magic(np.pi / 5), 10**9)


class TestFullShiftNonvanishing:
    def test_all_word_pairs_nonzero_in_generic_model(self, qls4):
        for k in (1, 2, 3):
            for mu in sl.enumerate_words(sl.AdjacencySpec.full_shift(4), k):
                for nu in sl.enumerate_words(
                    sl.AdjacencySpec.full_shift(4), k
                ):
                    x = word_operator(qls4, mu, nu)
                    assert sl.word_op_norm(x) > 0.0


class TestNormalityElement:
    def test_generic_qls_strictly_positive(self, qls4):
        norms = [
            sl.normality_element_norm(qls4, i, k, l)
            for i in range(1, 5)
            for k in range(1, 5)
            for l in range(1, 5)
            if len({i, k, l}) == 3
        ]
        assert max(norms) > 0.01

    def test_classical_model_vanishes(self):
        cm = classical_model((1, 2, 3, 4))
        assert sl.normality_element_norm(cm, 1, 3, 2) == 0.0

    def test_two_projection_cross_block_zero(self):
        m = two_projection_magic(np.pi / 5)
        # grid entry (3, 2) crosses the blocks and is the zero matrix
        assert sl.normality_element_norm(m, 1, 3, 2) == 0.0

    @pytest.mark.parametrize(
        "build",
        [
            *[lambda n=n: qls_magic(random_qls_vectors(n, seed=0)) for n in (4, 5, 6)],
            lambda: two_projection_magic(np.pi / 5),
            lambda: classical_model(tuple(range(1, 11))),
        ],
        ids=["qls4", "qls5", "qls6", "two-projection", "classical10"],
    )
    def test_batched_norms_equal_single_triples(self, build):
        model = build()
        triples = itertools.permutations(range(1, model.n + 1), 3)
        want = [sl.normality_element_norm(model, *t) for t in triples]
        assert _normality_norms(model).tolist() == want

    def test_index_clash(self, qls4):
        with pytest.raises(IndexClash):
            sl.normality_element_norm(qls4, 1, 1, 2)
        with pytest.raises(IndexClash):
            sl.normality_element_norm(two_projection_magic(0.5), 1, 2, 2)


class TestHalmosLemma:
    def test_commuting_pair(self):
        v = np.diag([1.0, 0.0, 1.0]).astype(complex)
        w = np.diag([1.0, 1.0, 0.0]).astype(complex)
        assert sl.halmos_lemma_check(v, w)

    def test_angle_pair_both_sides_fail(self):
        theta = np.pi / 3
        v = np.array([[1, 0], [0, 0]], dtype=complex)
        c, s = np.cos(theta), np.sin(theta)
        w = np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)
        assert np.linalg.norm(v @ w - w @ v, 2) > 0.4
        assert np.linalg.norm(v @ w @ v - w @ v @ w @ v, 2) > 0.2
        assert sl.halmos_lemma_check(v, w)

    def test_five_hundred_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            d = int(rng.integers(2, 7))
            v = random_projection(d, int(rng.integers(1, d)), rng)
            w = random_projection(d, int(rng.integers(1, d)), rng)
            assert sl.halmos_lemma_check(v, w)

    def test_rejects_non_projection(self):
        with pytest.raises(NotProjection):
            sl.halmos_lemma_check(
                np.array([[0.5, 0], [0, 0.5]]), np.eye(2)
            )
