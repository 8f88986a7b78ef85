import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftlab as sl
from shiftlab.core import (
    AdjacencySpec,
    lexmin_extension,
    transfer_integral,
)
from shiftlab.errors import (
    LengthOverflow,
    NotAdmissible,
    NotPrimitive,
    NotZeroOne,
)
from oracles import shifted_cylinder_mass

GOLDEN = (1 + math.sqrt(5)) / 2


class TestValidatePrimitive:
    def test_full_shift_exponent_one(self, full2):
        assert sl.validate_primitive(full2) == 1

    def test_fibonacci_exponent_two(self, fib):
        # A^2 = [[2,1],[1,1]] is the first strictly positive power
        assert sl.validate_primitive(fib) == 2

    def test_period_two_matrix_rejected(self):
        spec = AdjacencySpec.from_matrix([[0, 1], [1, 0]])
        with pytest.raises(NotPrimitive):
            sl.validate_primitive(spec)

    def test_bad_entry_rejected(self):
        with pytest.raises(NotZeroOne):
            AdjacencySpec.from_matrix([[1, 2], [1, 1]])

    def test_empty_row_rejected(self):
        with pytest.raises(NotPrimitive):
            AdjacencySpec.from_matrix([[0, 0], [1, 1]])

    def test_from_matrix_accepts_numpy_integers(self, fib):
        # the JSON loader is strict; the Python API still takes numpy ints
        a = np.array([[1, 1], [1, 0]], dtype=np.int8)
        assert AdjacencySpec.from_matrix(a) == fib


class TestPerronFrobenius:
    def test_full_shift_closed_form(self, full3_pf):
        pf = full3_pf
        assert pf.lambda_max == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(pf.u, 1 / 3, atol=1e-12)
        assert np.allclose(pf.stoch, 1 / 3, atol=1e-12)

    def test_fibonacci_golden_ratio(self, fib_pf):
        pf = fib_pf
        assert pf.lambda_max == pytest.approx(GOLDEN, abs=1e-13)
        assert pf.u[0] == pytest.approx(GOLDEN / (GOLDEN + 1), abs=1e-12)
        assert pf.u[1] == pytest.approx(1 / (GOLDEN + 1), abs=1e-12)

    @pytest.mark.parametrize(
        "mat",
        [[[1, 1], [1, 0]], [[1, 1, 1], [1, 1, 0], [1, 0, 0]], [[1] * 4] * 4],
    )
    def test_invariants(self, mat):
        spec = AdjacencySpec.from_matrix(mat)
        pf = sl.perron_frobenius(spec)
        a = spec.matrix.astype(float)
        assert np.linalg.norm(a @ pf.u - pf.lambda_max * pf.u, np.inf) < 1e-10
        assert np.linalg.norm(pf.v @ a - pf.lambda_max * pf.v, np.inf) < 1e-10
        assert pf.u @ pf.v == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(pf.stoch.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(pf.p_stat @ pf.stoch, pf.p_stat, atol=1e-12)
        assert (pf.u > 0).all() and (pf.v > 0).all()

    def test_dense_eigensolver_oracle(self, fib_pf):
        eigs = np.linalg.eigvals(fib_pf.spec.matrix.astype(float))
        assert fib_pf.lambda_max == pytest.approx(
            float(np.max(eigs.real)), abs=1e-12
        )

    def test_expansion_base_warning(self):
        with pytest.warns(UserWarning):
            AdjacencySpec.from_matrix([[1, 1], [1, 1]], expansion_base=0.5)


class TestWords:
    def test_full_shift_counts(self, full2):
        assert len(sl.enumerate_words(full2, 3)) == 8

    def test_fibonacci_counts(self, fib):
        assert [sl.count_words(fib, k) for k in (1, 2, 3)] == [2, 3, 5]
        for k in (1, 2, 3):
            assert len(sl.enumerate_words(fib, k)) == sl.count_words(fib, k)

    def test_length_zero_is_empty_word(self, fib):
        assert sl.enumerate_words(fib, 0) == [()]
        assert sl.count_words(fib, 0) == 1

    def test_sorted_lexicographically(self, fib):
        words = sl.enumerate_words(fib, 4)
        assert words == sorted(words)

    def test_count_matches_matrix_power(self, fib):
        a = fib.matrix
        for k in range(1, 7):
            assert sl.count_words(fib, k) == int(
                np.linalg.matrix_power(a, k - 1).sum()
            )

    def test_cap_overflow(self, full2):
        with pytest.raises(LengthOverflow):
            sl.enumerate_words(full2, 30, cap=1000)


class TestMeasures:
    def test_full_shift_closed_form(self, full2_pf):
        for m in range(1, 5):
            for w in sl.enumerate_words(full2_pf.spec, m):
                assert sl.cylinder_measure(
                    full2_pf, w
                ).value == pytest.approx(2.0**-m, abs=1e-14)

    def test_total_mass_one(self, fib_pf):
        assert sl.cylinder_measure(fib_pf, ()).value == 1.0
        assert sl.cylinder_measure(fib_pf, (), sl.PARRY).value == 1.0

    def test_inadmissible_rejected(self, fib_pf):
        with pytest.raises(NotAdmissible):
            sl.cylinder_measure(fib_pf, (2, 2))

    @pytest.mark.parametrize("kind", [sl.CONFORMAL, sl.PARRY])
    def test_additivity_to_depth_six(self, fib_pf, kind, full2_pf):
        for pf in (fib_pf, full2_pf):
            measure = (
                sl.conformal_measure if kind == sl.CONFORMAL else sl.parry_measure
            )
            for m in range(1, 7):
                for w in sl.enumerate_words(pf.spec, m):
                    kids = sum(
                        measure(pf, w + (c,))
                        for c in pf.spec.successors(w[-1])
                    )
                    assert kids == pytest.approx(measure(pf, w), abs=1e-13)

    def test_conformality(self, fib_pf, full2_pf):
        for pf in (fib_pf, full2_pf):
            for m in range(1, 6):
                for w in sl.enumerate_words(pf.spec, m):
                    mu = sl.conformal_measure(pf, w)
                    for k in range(m + 1):
                        assert shifted_cylinder_mass(pf, w, k) == pytest.approx(
                            pf.lambda_max**k * mu, abs=1e-12
                        )

    def test_transfer_operator_eigenproperty(self, fib_pf, full3_pf):
        for pf in (fib_pf, full3_pf):
            for m in range(0, 5):
                for w in sl.enumerate_words(pf.spec, m):
                    lhs = transfer_integral(pf, w)
                    rhs = pf.lambda_max * sl.conformal_measure(pf, w)
                    assert lhs == pytest.approx(rhs, abs=1e-12)


class TestKms:
    def test_full_shift_single_letter(self, full2_pf):
        assert sl.kms_value(full2_pf, (1,), (1,)) == pytest.approx(0.5)

    def test_off_diagonal_zero(self, fib_pf):
        assert sl.kms_value(fib_pf, (1, 2), (2, 1)) == 0.0
        assert sl.kms_value(fib_pf, (1,), (2,)) == 0.0

    def test_formula_equals_cylinder_integral(self, fib_pf):
        for m in range(1, 5):
            for w in sl.enumerate_words(fib_pf.spec, m):
                assert sl.kms_value(fib_pf, w, w) == pytest.approx(
                    sl.conformal_measure(fib_pf, w), abs=1e-13
                )


class TestAhlfors:
    def test_full_shift_ratio_constant(self, full2_pf):
        c_min, c_max = sl.ahlfors_profile(full2_pf, 6)
        assert c_max / c_min == pytest.approx(1.0, abs=1e-12)

    def test_fibonacci_band_stable(self, fib_pf):
        bands = [sl.ahlfors_profile(fib_pf, d) for d in (2, 4, 6, 8)]
        for c_min, c_max in bands:
            assert 0 < c_min <= c_max < math.inf
        # band does not widen with depth
        assert bands[-1][1] / bands[-1][0] == pytest.approx(
            bands[0][1] / bands[0][0], rel=1e-9
        )

    def test_depth_one_ratio_unrolled(self, fib_pf):
        pf = fib_pf
        ratios = [
            sl.parry_measure(pf, (i,)) * pf.lambda_max
            for i in (1, 2)
        ]
        c_min, c_max = sl.ahlfors_profile(pf, 1)
        assert c_min == pytest.approx(min(ratios))
        assert c_max == pytest.approx(max(ratios))

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_ball_integral_power_law(self, fib_pf, full2_pf, s):
        for pf in (fib_pf, full2_pf):
            ratios = []
            for m in range(1, 7):
                for w in sl.enumerate_words(pf.spec, m):
                    val = sl.ball_kernel_integral(pf, w, s)
                    ratios.append(val / pf.spec.expansion_base ** (-m * s))
            assert max(ratios) / min(ratios) < 10.0


class TestUltrametric:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_strong_triangle_inequality(self, fib_pf, data):
        words = sl.enumerate_words(fib_pf.spec, 6)
        x = data.draw(st.sampled_from(words))
        y = data.draw(st.sampled_from(words))
        z = data.draw(st.sampled_from(words))

        def agree(a, b):
            k = 0
            while k < 6 and a[k] == b[k]:
                k += 1
            return k

        # d(x,z) <= max(d(x,y), d(y,z)) on prefix lengths
        assert agree(x, z) >= min(agree(x, y), agree(y, z))

    def test_lexmin_extension_admissible(self, fib):
        w = lexmin_extension(fib, (2,), 5)
        assert sl.is_admissible(fib, w)
        assert w[:1] == (2,)
