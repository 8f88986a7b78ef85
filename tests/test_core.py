import math
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import shiftlab as sl
from shiftlab.core import (
    EXPANSION_BASE,
    NODA_STEPS,
    AdjacencySpec,
    _dot,
    ending_counts,
    lexmin_extension,
)
from shiftlab.errors import (
    LengthOverflow,
    NonConvergence,
    NotAdmissible,
    NotPrimitive,
    NotZeroOne,
    ParseError,
)
from conftest import (
    FIBONACCI, budget, irreducible_matrices, primitive_circulants, primitive_matrices,
    random_primitive, wielandt,
)
from oracles import (
    dense_perron_frobenius,
    least_positive_power,
    loop_ending_counts,
    shifted_cylinder_mass,
    transfer_integral,
)

GOLDEN = (1 + math.sqrt(5)) / 2

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # perfbench, as tests/agreement.py imports it
    sys.path.append(str(ROOT))


def _large_alphabet_draws():
    """The seeded n = 64, 96 and 128 graphs of perfbench's large-alphabet
    workload at seeds 1 and 2, one per pattern op."""
    from perfbench.workloads import large_alphabet

    return [op["matrix"] for seed in (1, 2) for op in large_alphabet(seed) if op["cmd"] == "pattern"]


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

    @pytest.mark.parametrize(
        "entry",
        [1.7, 0.9, "1", 1.0, np.float64(1.0)],
        ids=["1.7", "0.9", "str", "float", "float64"],
    )
    def test_from_matrix_refuses_non_integers(self, entry):
        # int() would round 1.7 and 0.9 and parse "1"
        message = re.escape(f"entry {entry!r} is not an integer")
        with pytest.raises(NotZeroOne, match=message):
            AdjacencySpec.from_matrix([[1, entry], [1, 1]])

    @pytest.mark.parametrize("entry", [1.0, True], ids=["float", "bool"])
    def test_constructor_refuses_non_int_entries(self, entry):
        # 1.0 == True == 1, so a value test alone would keep them
        with pytest.raises(NotZeroOne, match="entry .* in row 1 is not an integer"):
            AdjacencySpec(n=2, a=((1, entry), (1, 1)))

    def test_from_matrix_takes_python_bools_as_integers(self, fib):
        spec = AdjacencySpec.from_matrix([[True, True], [True, False]])
        assert spec == fib and {type(x) for row in spec.a for x in row} == {int}

    def test_empty_row_rejected(self):
        with pytest.raises(NotPrimitive):
            AdjacencySpec.from_matrix([[0, 0], [1, 1]])

    @pytest.mark.parametrize(
        "n, a, error, message",
        [
            (1, ((1,),), NotPrimitive, "alphabet size must be >= 2, got 1"),
            (2, ((1, 1),), NotZeroOne, "matrix must be 2x2"),
            (2, ((1, 1), (1,)), NotZeroOne, "matrix must be 2x2"),
            (2, ((1, 0), (1, 0)), NotPrimitive, "column 2 has no incoming edge"),
        ],
        ids=["one-letter", "row-count", "row-length", "zero-column"],
    )
    def test_constructor_refuses_bad_shapes(self, n, a, error, message):
        with pytest.raises(error, match=re.escape(message)):
            AdjacencySpec(n=n, a=a)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n": 2, "a": 5}', "a must be a list of rows"),
            (
                '{"n": 3, "a": [[1, 1, 1], [1, 1, 1]]}',
                "matrix has 2 rows, expected n=3",
            ),
        ],
        ids=["a-not-a-list", "row-count"],
    )
    def test_from_json_refuses_bad_shapes(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            AdjacencySpec.from_json(text)

    @seed(20261018)
    @settings(max_examples=200, deadline=None)
    @given(irreducible_matrices(max_n=8))
    def test_random_irreducible_against_power_scan(self, mat):
        # periodic matrices are irreducible too: both outcomes get drawn
        want = least_positive_power(mat)
        spec = AdjacencySpec.from_matrix(mat)
        if want is None:
            with pytest.raises(NotPrimitive):
                sl.validate_primitive(spec)
        else:
            assert sl.validate_primitive(spec) == want

    def test_wielandt_96_exponent_within_budget(self):
        spec = AdjacencySpec.from_matrix(wielandt(96))
        with budget(cpu_s=1.0):
            assert sl.validate_primitive(spec) == 96 * 96 - 2 * 96 + 2

    def test_96_cycle_rejected_within_budget(self):
        n = 96
        spec = AdjacencySpec.from_matrix(
            [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
        )
        with budget(cpu_s=1.0), pytest.raises(NotPrimitive):
            sl.validate_primitive(spec)

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

    @seed(20261018)
    @settings(max_examples=150, deadline=None)
    @given(primitive_matrices())
    def test_random_primitive_against_dense_oracle(self, mat):
        pf = sl.perron_frobenius(AdjacencySpec.from_matrix(mat))
        lam, u, v = dense_perron_frobenius(mat)
        assert pf.lambda_max == pytest.approx(lam, rel=1e-12)
        assert (u > 0).all() and (v > 0).all()
        assert np.allclose(pf.u, u, rtol=1e-9, atol=1e-12)
        assert np.allclose(pf.v, v, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize(
        "mat",
        [
            wielandt(48),
            wielandt(96),
            *(random_primitive(n, seed=20261018) for n in (16, 32, 64, 96, 128)),
        ],
        ids=["wielandt48", "wielandt96", *(f"seeded{n}" for n in (16, 32, 64, 96, 128))],
    )
    def test_large_n_against_dense_oracle(self, mat):
        self._agrees_with_dense_oracle(mat)

    def test_large_alphabet_draws_against_dense_oracle(self):
        draws = _large_alphabet_draws()
        assert [len(a) for a in draws] == [64, 96, 128] * 2
        for mat in draws:
            self._agrees_with_dense_oracle(mat)

    @staticmethod
    def _agrees_with_dense_oracle(mat):
        pf = sl.perron_frobenius(AdjacencySpec.from_matrix(mat))
        lam, u, v = dense_perron_frobenius(mat)
        assert pf.lambda_max == pytest.approx(lam, rel=1e-12)
        np.testing.assert_allclose(pf.u, u, rtol=1e-12, atol=0)
        np.testing.assert_allclose(pf.v, v, rtol=1e-12, atol=0)

    @seed(20261024)
    @settings(max_examples=150, deadline=None)
    @given(primitive_matrices())
    def test_collatz_wielandt_certificate(self, mat):
        self._certified(mat)

    @staticmethod
    def _certified(mat):
        # min_i (Au)_i / u_i <= lambda <= max_i (Au)_i / u_i, each (Au)_i
        # summed exactly (fsum), and the bracket is a few ulps wide
        pf = sl.perron_frobenius(AdjacencySpec.from_matrix(mat))
        u = pf.u.tolist()
        ratios = [
            math.fsum(x for x, bit in zip(u, row) if bit) / u[i] for i, row in enumerate(mat)
        ]
        lo, hi, ulp = min(ratios), max(ratios), math.ulp(pf.lambda_max)
        assert lo - 8 * ulp <= pf.lambda_max <= hi + 8 * ulp
        assert hi - lo <= 16 * ulp

    def test_singular_side_leaves_the_other_open(self):
        # with brackets closed at one unit of 2^-52, OpenBLAS's LU finds the
        # stacked solve of step 4 exactly singular on the left side (its
        # sigma is the root to the last bit) while the right bracket is still
        # about 30 ulps wide: the right side must go on alone and close
        mat = [[1, 0, 1, 1, 1], [1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 1, 1, 1, 1], [1, 1, 1, 1, 1]]
        with mock.patch.object(sl.core, "NODA_CLOSED", 2.0**-52):
            self._certified(mat)
        self._agrees_with_dense_oracle(mat)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_full_shift_exact_without_a_solve(self, n):
        # constant row and column sums: the all-ones start is exact
        self._exact_without_a_solve(AdjacencySpec.full_shift(n).a)

    @seed(20261025)
    @settings(max_examples=60, deadline=None)
    @given(primitive_circulants(max_n=10))
    def test_circulant_exact_without_a_solve(self, mat):
        self._exact_without_a_solve(mat)

    @staticmethod
    def _exact_without_a_solve(mat):
        with mock.patch.object(np.linalg, "solve", side_effect=AssertionError("solved")):
            pf = sl.perron_frobenius(AdjacencySpec.from_matrix(mat))
        assert pf.lambda_max == sum(mat[0])
        assert (pf.u == pf.u[0]).all() and (pf.v == pf.v[0]).all()

    def test_open_bracket_stops_at_the_step_bound(self, fib):
        # a stand-in solve that moves x a hundredth of the way to the Perron
        # vector (one for both sides: Fibonacci is symmetric): every bracket
        # shrinks, and none closes
        target = dense_perron_frobenius(FIBONACCI)[1][:, None]
        shapes = []

        def creep(m, b):
            shapes.append(m.shape)
            return 0.99 * b / b.sum(axis=-2, keepdims=True) + 0.01 * target

        with mock.patch.object(np.linalg, "solve", creep):
            with pytest.raises(NonConvergence, match="eigenvector residual above tolerance"):
                sl.perron_frobenius(fib)
        assert shapes == [(2, 2)] * 2 * NODA_STEPS

    def test_failed_solve_ends_only_its_own_side(self):
        # the left side's second solve fails: that side stops one step from
        # the all-ones start and its residual is refused; the right side,
        # solved on its own, is not held back
        mat = wielandt(5)
        left = -np.array(mat, dtype=float).T  # sigma I - A.T off the zero diagonal
        solve, left_solves = np.linalg.solve, []

        def failing(m, b):
            if (m * (1 - np.eye(5)) == left).all(axis=(-2, -1)).any():
                left_solves.append(m.shape)
                if len(left_solves) == 2:
                    raise np.linalg.LinAlgError("Singular matrix")
            return solve(m, b)

        with mock.patch.object(np.linalg, "solve", failing):
            with pytest.raises(NonConvergence, match="^left eigenvector residual"):
                sl.perron_frobenius(AdjacencySpec.from_matrix(mat))
        assert left_solves == [(5, 5)] * 2

    def test_128_letters_within_budget(self):
        # 20 calls took about 0.2 s of CPU with a dense eigensolve and two SVDs
        spec = AdjacencySpec.from_matrix(random_primitive(128, seed=20261018))
        sl.perron_frobenius(spec)
        with budget(cpu_s=0.12):
            for _ in range(20):
                sl.perron_frobenius(spec)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
    def test_tolerance_refused_as_the_cli_refuses_it(self, fib, tol):
        # a NaN or infinite tol would pass every residual check vacuously
        with pytest.raises(ValueError, match=r"^tol must be finite and > 0, got "):
            sl.perron_frobenius(fib, tol=tol)

    @pytest.mark.parametrize("n", [19, 24, 48])
    def test_wielandt_slow_mixing(self, n):
        # |lambda_2 / lambda_1| -> 1 as n grows, which stalls iterative solvers
        pf = sl.perron_frobenius(AdjacencySpec.from_matrix(wielandt(n)))
        assert pf.primitivity_exponent == n * n - 2 * n + 2
        a = pf.spec.matrix.astype(float)
        assert np.linalg.norm(a @ pf.u - pf.lambda_max * pf.u, np.inf) <= 1e-10
        assert np.linalg.norm(pf.v @ a - pf.lambda_max * pf.v, np.inf) <= 1e-10


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

    @seed(20261022)
    @settings(max_examples=100, deadline=None)
    @given(irreducible_matrices(max_n=8), st.integers(0, 40))
    def test_counts_and_successors_match_the_loops(self, mat, length):
        # predecessor sums against n² products, in exact ints (past int64
        # at these lengths), and each row's successors against a scan of it
        spec = AdjacencySpec.from_matrix(mat)
        assert ending_counts(spec, length) == loop_ending_counts(spec, length)
        for x in range(1, spec.n + 1):
            assert spec.successors(x) == tuple(
                j + 1 for j in range(spec.n) if mat[x - 1][j]
            )

    def test_edges_row_major_one_based(self, fib):
        assert fib.edges() == [(1, 1), (1, 2), (2, 1)]
        # against the matrix: np.argwhere lists its nonzero entries row-major
        a = random_primitive(16, seed=20261018)
        want = [(i + 1, j + 1) for i, j in np.argwhere(a).tolist()]
        assert len(want) > 16 and AdjacencySpec.from_matrix(a).edges() == want

    def test_exact_counts_past_int64(self, fib):
        assert sl.count_words(AdjacencySpec.full_shift(10), 30) == 10**30
        counts = [1, 2]  # of the lengths 0 and 1; then the Fibonacci rule
        while len(counts) <= 200:
            counts.append(counts[-1] + counts[-2])
        assert sl.count_words(fib, 200) == counts[200]

    def test_cap_overflow_names_the_first_length_past_it(self, fib, monkeypatch):
        # the exact count of length 10**9 would take 10**9 big-int steps
        monkeypatch.delenv("ARIADNE_CAP", raising=False)
        message = r"^1346269 words of length 29 exceed cap 1000000$"
        with budget(cpu_s=1.0), pytest.raises(LengthOverflow, match=message):
            sl.enumerate_words(fib, 10**9)

    def test_long_words_in_linear_time(self):
        # one successor per letter: 3 words, each copied once at its leaf,
        # not once per letter (about 30 s at this length)
        cycle = sl.AdjacencySpec(n=3, a=[[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        length = 100_000
        with budget(cpu_s=2.0):
            words = sl.enumerate_words(cycle, length)
        assert words == [
            tuple((x + t) % 3 + 1 for t in range(length)) for x in range(3)
        ]


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

    def test_level3_diagonal_on_128_letters_in_bounded_time(self):
        # 23,580 words, each reading its last letter's tail sum_j A[last, j] u_j;
        # summed over all 128 letters per call, they took 1.3 s of CPU
        spec = AdjacencySpec.from_matrix(random_primitive(128, seed=20261018))
        pf = sl.perron_frobenius(spec)
        words = list(sl.enumerate_words(spec, 3))
        with budget(cpu_s=0.6):
            values = [sl.kms_value(pf, w, w) for w in words]
        u = [float(x) for x in pf.u]
        for w, value in zip(words[::97], values[::97]):
            tail = 0
            for j in range(spec.n):  # left to right, as the library adds
                tail += spec.a[w[-1] - 1][j] * u[j]
            assert value == tail / pf.lambda_max**3  # the same sum, bit for bit

    @seed(20261023)
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.floats(0, 1)), min_size=1, max_size=64
        )
    )
    def test_sums_added_left_to_right(self, terms):
        # KMS tails and spectrum values decide report bytes; sum() of floats
        # is compensated from Python 3.12 on, so it may differ in the last bit
        total = 0
        for k, u in terms:
            total += k * u
        counts, u = zip(*terms)
        assert _dot(counts, list(u)).hex() == float(total).hex()


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
                    ratios.append(val / EXPANSION_BASE ** (-m * s))
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
