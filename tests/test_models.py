import numpy as np
import pytest

import shiftlab as sl
from shiftlab.models import (
    classical_model,
    generator_operator,
    qls_magic,
    random_qls_vectors,
    two_projection_magic,
    word_operator,
)
from shiftlab.errors import (
    DegenerateAngle,
    IndexClash,
    LengthOverflow,
    NotBiunitary,
    NotProjection,
)
from conftest import fourier_qls_vectors, random_projection


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

    def test_word_pairs_bounded_by_cap(self, monkeypatch):
        model = classical_model((1, 2, 3))
        monkeypatch.setenv("ARIADNE_CAP", "90")
        assert sl.relation_check(model, 2).words_checked == 9 + 81
        monkeypatch.setenv("ARIADNE_CAP", "89")
        with pytest.raises(LengthOverflow):
            sl.relation_check(model, 2)


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
