import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import shiftlab as sl
from shiftlab.groupoid import BisectionIndex, count_bisections
from shiftlab.core import word_cap
from shiftlab.spectral import (
    MERGE_TOL,
    _count_field,
    cell_measures,
    eigenvalue_formula,
    level_basis,
    merge_multiset,
)
from shiftlab.errors import LengthOverflow, PrefixMismatch
from conftest import (
    FIBONACCI,
    UNKNOWN_EXHIBIT,
    budget,
    primitive_matrices,
    random_primitive,
    wielandt,
)
from oracles import (
    embed_level,
    eigenvalue_multiset,
    gram_schmidt_wavelets,
    largest_child_count,
    loop_level_basis,
    loop_spectrum,
    pairwise_delta_matrix,
    pressure_root,
    projected_dirac_block,
    shell_delta_values,
)

WIELANDT3 = [[0, 1, 0], [0, 0, 1], [1, 1, 0]]
# the inputs on which the closed-form blocks are checked against the loops
BLOCK_MATRICES = {
    "fib": [[1, 1], [1, 0]],
    "full2": [[1, 1], [1, 1]],
    "full3": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    "unknown": UNKNOWN_EXHIBIT,
    "wielandt3": WIELANDT3,
}


def _bases_and_depths(pf):
    for base_len in (1, 2):
        for base in sl.enumerate_words(pf.spec, base_len):
            for depth in (1, 2, 3, 4):
                yield base, depth


def pf_of(matrix):
    return sl.perron_frobenius(sl.AdjacencySpec.from_matrix(matrix))


class TestDeltaMatrix:
    def test_full_shift_two_by_two(self, full2_pf):
        blk = sl.delta_matrix(full2_pf, (1,), 1)
        assert np.allclose(
            blk.matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14
        )

    def test_constant_function_in_kernel(self, fib_pf):
        for base in sl.enumerate_words(fib_pf.spec, 1):
            for depth in (1, 2, 3):
                blk = sl.delta_matrix(fib_pf, base, depth)
                c = blk.constant_vector(fib_pf)
                assert np.abs(blk.matrix @ c).max() < 1e-12

    def test_exactly_symmetric(self, fib_pf):
        blk = sl.delta_matrix(fib_pf, (2,), 3)
        assert np.array_equal(blk.matrix, blk.matrix.T)

    def test_positive_semidefinite_kernel_dim_one(self, fib_pf, full2_pf):
        for pf in (fib_pf, full2_pf):
            for base_len in (1, 2):
                for base in sl.enumerate_words(pf.spec, base_len):
                    for depth in (1, 2, 3):
                        blk = sl.delta_matrix(pf, base, depth)
                        eigs = np.linalg.eigvalsh(blk.matrix)
                        assert eigs.min() > -1e-10
                        assert int((np.abs(eigs) < 1e-10).sum()) == 1

    def test_shell_integration_oracle(self, fib_pf, full2_pf):
        rng = np.random.default_rng(3)
        for pf in (fib_pf, full2_pf):
            for base_len in (1, 2):
                for base in sl.enumerate_words(pf.spec, base_len):
                    for depth in (1, 2):
                        blk = sl.delta_matrix(pf, base, depth)
                        mu = cell_measures(pf, blk.basis)
                        vals = rng.normal(size=blk.basis.size)
                        coeffs = vals * np.sqrt(mu)
                        got = (blk.matrix @ coeffs) / np.sqrt(mu)
                        want = shell_delta_values(pf, base, depth, vals)
                        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("name", list(BLOCK_MATRICES))
    def test_matches_pairwise_loop(self, name):
        # same products in the same order as one pass per pair: same bits
        pf = pf_of(BLOCK_MATRICES[name])
        for base, depth in _bases_and_depths(pf):
            got = sl.delta_matrix(pf, base, depth).matrix
            assert np.array_equal(got, pairwise_delta_matrix(pf, base, depth))

    @pytest.mark.parametrize("name", ["fib", "full3", "unknown"])
    def test_depth_zero_is_one_zero_cell(self, name):
        pf = pf_of(BLOCK_MATRICES[name])
        for base in sl.enumerate_words(pf.spec, 1) + sl.enumerate_words(pf.spec, 2):
            blk = sl.delta_matrix(pf, base, 0)
            assert blk.basis.cells == ((),)
            assert np.array_equal(blk.matrix, [[0.0]])

    def test_negative_depth_refused(self, fib_pf):
        # as level_basis and wavelet_basis refuse it
        with pytest.raises(ValueError, match="depth must be >= 0"):
            sl.delta_matrix(fib_pf, (1,), -1)
        with pytest.raises(ValueError, match="depth must be >= 0"):
            sl.dirac_block(fib_pf, BisectionIndex((), (1,)), -2)

    def test_basis_partitions_measure(self, fib_pf):
        basis = level_basis(fib_pf.spec, (1,), 3)
        cells_mass = cell_measures(fib_pf, basis).sum()
        assert cells_mass == pytest.approx(
            sl.conformal_measure(fib_pf, (1,)), abs=1e-13
        )


def _cells_or_overflow(build, spec, base, depth):
    try:
        return tuple(build(spec, base, depth))
    except LengthOverflow:
        return LengthOverflow


class TestLevelBasis:
    @seed(20261019)
    @settings(max_examples=100, deadline=None)
    @given(primitive_matrices(max_n=8), st.sampled_from([None, 1, 2, 5, 20, 100]))
    def test_matches_breadth_first_loop(self, mat, cap):
        # under a cap, both overflow at the same depths; cells agree elsewhere
        spec = sl.AdjacencySpec.from_matrix(mat)
        bases = sl.enumerate_words(spec, 1) + sl.enumerate_words(spec, 2)
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                mp.setenv("ARIADNE_CAP", str(cap))
            for base in bases:
                for depth in range(5):
                    got = _cells_or_overflow(
                        lambda *a: level_basis(*a).cells, spec, base, depth
                    )
                    want = _cells_or_overflow(loop_level_basis, spec, base, depth)
                    assert got == want

    def test_overflow_names_the_first_length_over_cap(self, fib, monkeypatch):
        # words from letter 1 of lengths 1..4 number 1, 2, 3, 5
        monkeypatch.setenv("ARIADNE_CAP", "3")
        assert level_basis(fib, (2, 1), 2).size == 3
        with pytest.raises(LengthOverflow, match="^5 words of length 4 exceed cap 3$"):
            level_basis(fib, (2, 1), 3)


class TestEigenvalueFormula:
    def test_full_shift_linear_in_depth(self, full2_pf):
        for m in range(5):
            nu = (1,) + (2, 1, 2, 1)[:m]
            assert eigenvalue_formula(full2_pf, (1,), nu) == pytest.approx(
                1 + m / 2, abs=1e-12
            )

    def test_base_cell_value(self, fib_pf):
        for b in (1, 2):
            assert eigenvalue_formula(fib_pf, (b,), (b,)) == pytest.approx(
                fib_pf.lambda_max * fib_pf.u_of(b), abs=1e-12
            )

    def test_fibonacci_matches_block_diagonalization(self, fib_pf):
        # cells with a single child carry no wavelet, so only values at
        # branching cells appear in the block spectrum
        blk = sl.delta_matrix(fib_pf, (1,), 2)
        eigs = np.linalg.eigvalsh(blk.matrix)
        for nu in ((1,), (1, 1)):
            val = eigenvalue_formula(fib_pf, (1,), nu)
            assert min(abs(e - val) for e in eigs) < 1e-9
        lone_child_val = eigenvalue_formula(fib_pf, (1,), (1, 2))
        assert min(abs(e - lone_child_val) for e in eigs) > 1e-3

    def test_prefix_mismatch(self, fib_pf):
        with pytest.raises(PrefixMismatch):
            eigenvalue_formula(fib_pf, (1,), (2, 1))

    def test_extension_step_increment(self, fib_pf):
        # each extension letter adds (lambda - 1) * u[letter]
        pf = fib_pf
        for nu in sl.enumerate_words(pf.spec, 4):
            if nu[0] != 1:
                continue
            parent = eigenvalue_formula(pf, (1,), nu[:3])
            child = eigenvalue_formula(pf, (1,), nu)
            inc = (pf.lambda_max - 1) * pf.u_of(nu[-1])
            assert child - parent == pytest.approx(inc, abs=1e-12)

    def test_oracle_equivalence_all_bases(self, fib_pf, full2_pf, full3_pf):
        # dense spectra match the closed form with child-count multiplicities
        for pf in (fib_pf, full2_pf, full3_pf):
            for base_len in (1, 2):
                for base in sl.enumerate_words(pf.spec, base_len):
                    for depth in range(1, 5):
                        blk = sl.delta_matrix(pf, base, depth)
                        dense = np.sort(np.linalg.eigvalsh(blk.matrix))
                        expect = np.sort(
                            np.array(
                                [
                                    e
                                    for e, m in eigenvalue_multiset(
                                        pf, base, depth
                                    )
                                    for _ in range(m)
                                ]
                            )
                        )
                        assert dense.shape == expect.shape
                        assert np.abs(dense - expect).max() < 1e-9


class TestWavelets:
    def test_full_shift_single_wavelet(self, full2_pf):
        ws = sl.wavelet_basis(full2_pf, (1,), 1)
        assert len(ws) == 1
        w = ws[0]
        assert w.eigenvalue == pytest.approx(1.0, abs=1e-12)
        # proportional to (1, -1) across the two children
        assert w.values[0] == pytest.approx(-w.values[1], abs=1e-12)

    def test_count_full_shift(self, full2_pf):
        for d in (1, 2, 3):
            assert len(sl.wavelet_basis(full2_pf, (1,), d)) == 2**d - 1

    def test_mean_zero_unit_norm(self, fib_pf, full2_pf):
        for pf in (fib_pf, full2_pf):
            for w in sl.wavelet_basis(pf, (1,), 3):
                mean = sum(
                    v * sl.conformal_measure(pf, c)
                    for v, c in zip(w.values, w.children)
                )
                norm2 = sum(
                    v * v * sl.conformal_measure(pf, c)
                    for v, c in zip(w.values, w.children)
                )
                assert abs(mean) < 1e-12
                assert norm2 == pytest.approx(1.0, abs=1e-12)

    def test_block_action_reproduces_eigenvalue(self, fib_pf, full2_pf):
        for pf in (fib_pf, full2_pf):
            depth = 3
            for base in sl.enumerate_words(pf.spec, 1):
                blk = sl.delta_matrix(pf, base, depth)
                for w in sl.wavelet_basis(pf, base, depth):
                    vec = w.coefficients(pf, blk.basis)
                    assert (
                        np.abs(blk.matrix @ vec - w.eigenvalue * vec).max()
                        < 1e-10
                    )

    def test_orthonormal_family(self, fib_pf):
        depth = 3
        blk = sl.delta_matrix(fib_pf, (1,), depth)
        vecs = [
            w.coefficients(fib_pf, blk.basis)
            for w in sl.wavelet_basis(fib_pf, (1,), depth)
        ]
        vecs.append(blk.constant_vector(fib_pf))
        gram = np.array([[float(a @ b) for b in vecs] for a in vecs])
        assert np.abs(gram - np.eye(len(vecs))).max() < 1e-10
        # spans the whole level space
        assert len(vecs) == blk.basis.size

    @pytest.mark.parametrize("name", list(BLOCK_MATRICES))
    def test_closed_form_is_gram_schmidt(self, name):
        pf = pf_of(BLOCK_MATRICES[name])
        for base, depth in _bases_and_depths(pf):
            got = sl.wavelet_basis(pf, base, depth)
            want = gram_schmidt_wavelets(pf, base, depth)
            assert [w.support_cell for w in got] == [cell for cell, _ in want]
            for w, (_, values) in zip(got, want):
                assert np.abs(np.array(w.values) - values).max() < 1e-12


class TestDiracBlock:
    def test_fock_depth_one_constants(self, fib_pf):
        g = BisectionIndex((), (1,))
        blk = sl.dirac_block(fib_pf, g, 1)
        c = blk.constant_vector(fib_pf)
        assert np.abs(blk.matrix @ c - 1.0 * c).max() < 1e-12

    def test_edge_constants_eigenvalue_two(self, fib_pf):
        g = BisectionIndex((2,), (1,))
        blk = sl.dirac_block(fib_pf, g, 1)
        c = blk.constant_vector(fib_pf)
        assert np.abs(blk.matrix @ c - 2.0 * c).max() < 1e-12

    def test_long_s_constant_negative_length(self, fib_pf):
        g = BisectionIndex((), (1, 2))
        blk = sl.dirac_block(fib_pf, g, 2)
        c = blk.constant_vector(fib_pf)
        assert np.abs(blk.matrix @ c + g.length_L * c).max() < 1e-12

    @pytest.mark.parametrize("name", list(BLOCK_MATRICES))
    def test_closed_form_is_the_projector_expression(self, name):
        # P Delta = 0, so 2 length P - Delta - length is the projector
        # expression; written without a product, it is symmetric exactly
        pf = pf_of(BLOCK_MATRICES[name])
        for g in sl.bisections_up_to(pf.spec, 3):
            for depth in (0, 1, 2, 3):
                got = sl.dirac_block(pf, g, depth).matrix
                assert np.array_equal(got, got.T)
                assert np.abs(got - projected_dirac_block(pf, g, depth)).max() < 1e-12

    def test_refinement_commutes(self, fib_pf, full2_pf):
        rng = np.random.default_rng(7)
        for pf in (fib_pf, full2_pf):
            for g in (
                BisectionIndex((), (1,)),
                BisectionIndex((2,), (1,)),
                BisectionIndex((), (1, 2)),
            ):
                coarse = sl.dirac_block(pf, g, 2)
                fine = sl.dirac_block(pf, g, 3)
                emb = embed_level(pf, coarse.basis, fine.basis)
                v = rng.normal(size=coarse.basis.size)
                lhs = fine.matrix @ (emb @ v)
                rhs = emb @ (coarse.matrix @ v)
                assert np.abs(lhs - rhs).max() < 1e-12


class TestSpectrum:
    def test_low_eigenspaces_any_spec(self, fib_pf, full2_pf, full3_pf):
        for pf in (fib_pf, full2_pf, full3_pf):
            pairs = dict(sl.spectrum(pf, 2.0))
            n = pf.spec.n
            edges = int(pf.spec.matrix.sum())
            assert pairs[1.0] == n
            assert pairs[2.0] == edges

    def test_matches_dense_oracle(self, fib_pf, full2_pf, full3_pf):
        for pf in (
            fib_pf,
            full2_pf,
            full3_pf,
            pf_of(UNKNOWN_EXHIBIT),
            pf_of(WIELANDT3),
        ):
            fast = sl.spectrum(pf, 3.0)
            dense = sl.spectrum_dense(pf, 3.0)
            assert len(fast) == len(dense)
            for (e1, m1), (e2, m2) in zip(fast, dense):
                assert abs(e1 - e2) < 1e-9
                assert m1 == m2

    @pytest.mark.parametrize(
        "matrix, cutoff",
        [([[1, 1], [1, 0]], 20), ([[1] * 3] * 3, 8), (UNKNOWN_EXHIBIT, 7)],
        ids=["fibonacci", "full3", "unknown"],
    )
    def test_deep_cutoff_positive_part(self, matrix, cutoff):
        # only one-letter s-words give positive eigenvalues: +L once per
        # index of length L, so the positive part is a bisection count
        pf = pf_of(matrix)
        positive = {e: m for e, m in sl.spectrum(pf, cutoff) if e > 0}
        assert positive == {
            float(length): count_bisections(pf.spec, length - 1, 1)
            for length in range(1, cutoff + 1)
        }

    @pytest.mark.parametrize("cutoff", [math.inf, math.nan, 0.5])
    def test_dense_oracle_refuses_what_spectrum_refuses(self, fib_pf, cutoff):
        for fn in (sl.spectrum, sl.spectrum_dense):
            with pytest.raises(ValueError, match=r"^cutoff must be finite and >= 1$"):
                fn(fib_pf, cutoff)

    def test_tiny_cap_overflows(self, fib_pf, monkeypatch):
        monkeypatch.setenv("ARIADNE_CAP", "3")
        with pytest.raises(LengthOverflow):
            sl.spectrum(fib_pf, 5.0)

    def test_cap_checked_while_a_level_is_built(self, monkeypatch):
        # from letter 1 at cutoff 5, the seeded n = 16 graph walks 16,672
        # states and then a level of 29,120: under a cap of 20,000 that level
        # is never finished.  Built whole, it and its parent level held
        # 11 MiB; about 300 bytes a state, the walk now stays near 4 MiB
        spec = sl.AdjacencySpec.from_matrix(random_primitive(16, seed=20261018))
        pf = sl.perron_frobenius(spec)
        monkeypatch.setenv("ARIADNE_CAP", "20000")
        message = "^spectrum walk exceeds cap 20000$"
        with budget(traced_mib=8), pytest.raises(LengthOverflow, match=message):
            sl.spectrum(pf, 5.0)

    def test_spectral_gap(self, fib_pf, full2_pf):
        # |D| >= 1 on every block: nothing inside (-1, 1)
        for pf in (fib_pf, full2_pf):
            for e, m in sl.spectrum(pf, 4.0):
                assert abs(e) >= 1.0 - 1e-12
                assert m > 0

    def test_merge_multiset(self):
        pairs = [(1.0, 1), (1.0 + 5e-10, 2), (2.0, 1)]
        assert merge_multiset(pairs) == [(1.0, 3), (2.0, 1)]


def _log_count(pf, cutoff):
    """log N(cutoff), N the sum of the multiplicities spectrum returns."""
    return math.log(sum(m for _, m in sl.spectrum(pf, cutoff)))


class TestGrowthRate:
    # N(cutoff) grows as exp(beta * cutoff), beta = oracles.pressure_root

    @pytest.mark.parametrize(
        "matrix, cutoffs",
        [(UNKNOWN_EXHIBIT, (8, 12)), ([[1] * 2] * 2, (16, 20, 24)), ([[1] * 3] * 3, (18, 20))],
        ids=["unknown", "full2", "full3"],
    )
    def test_slope_is_the_pressure_root(self, matrix, cutoffs):
        # constant u, so f is lattice and the slope of log N settles to
        # beta: at 8 -> 12 on the exhibit (beta = 4 ln 2), and at 18 -> 20
        # on the full 3-shift, whose 12 -> 14 still reads 3.4e-4 over
        pf = pf_of(matrix)
        beta = pressure_root(pf)
        logs = [_log_count(pf, cutoff) for cutoff in cutoffs]
        for i in range(len(cutoffs) - 1):
            slope = (logs[i + 1] - logs[i]) / (cutoffs[i + 1] - cutoffs[i])
            assert abs(slope - beta) <= 1e-4

    # the bands: log N - beta * cutoff read -0.8570, -0.8689, -0.8779 and
    # -0.8825 on Fibonacci (non-lattice f, drifting to its limit),
    # -3.040, -3.008, -3.034 and -3.015 on Wielandt 4 (oscillating), and
    # -3.9017, -3.8982 and -3.8942 on Wielandt 5; each band is the
    # readings' range widened by that range on both sides.  Wielandt 5
    # rises by about 0.016 a unit of cutoff and drops back by 0.09 every 7
    # units (-3.9017 to -3.8102 over cutoffs 8-14), so it is read at one
    # phase, just past each drop: a band over every phase would be
    # [-4.00, -3.71], and would hold children counted under their parent
    # letter (-3.8178 to -3.7953 over cutoffs 8-22)
    @pytest.mark.parametrize(
        "matrix, cutoffs, band",
        [
            (FIBONACCI, (20, 30, 40, 60), (-0.91, -0.83)),
            (wielandt(4), (8, 10, 12, 14), (-3.08, -2.97)),
            (wielandt(5), (8, 15, 22), (-3.91, -3.88)),
        ],
        ids=["fibonacci", "wielandt4", "wielandt5"],
    )
    def test_count_over_its_growth_stays_in_a_band(self, matrix, cutoffs, band):
        pf = pf_of(matrix)
        beta = pressure_root(pf)
        for cutoff in cutoffs:
            assert band[0] <= _log_count(pf, cutoff) - beta * cutoff <= band[1]

def _spectrum_or_overflow(fn, pf, cutoff):
    try:
        return fn(pf, cutoff)
    except LengthOverflow as exc:
        return LengthOverflow, str(exc)


class TestCodedWalk:
    """spectrum walks letter counts coded as one int; loop_spectrum walks
    them as tuples.  Equal lists mean equal floats: no tolerance."""

    @seed(20261020)
    @settings(max_examples=100, deadline=None)
    @given(
        primitive_matrices(max_n=5),
        st.floats(min_value=1, max_value=6),
        st.sampled_from([None, 1, 7, 60, 400]),
    )
    def test_matches_the_tuple_walk(self, mat, cutoff, cap):
        # under a cap, both overflow with the same message or both return
        pf = pf_of(mat)
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                mp.setenv("ARIADNE_CAP", str(cap))
            got = _spectrum_or_overflow(sl.spectrum, pf, cutoff)
            want = _spectrum_or_overflow(loop_spectrum, pf, cutoff)
        assert got == want

    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("cutoff", [1, 2.5, 4])
    def test_wielandt_matches_the_tuple_walk(self, n, cutoff):
        pf = pf_of(wielandt(n))
        assert sl.spectrum(pf, cutoff) == loop_spectrum(pf, cutoff)

    @pytest.mark.parametrize("cutoff", [1, 2, 9, 20, 33.5, 60])
    def test_fibonacci_matches_the_tuple_walk(self, cutoff):
        pf = pf_of(FIBONACCI)
        assert sl.spectrum(pf, cutoff) == loop_spectrum(pf, cutoff)

    @pytest.mark.parametrize("n", [12, 16, 20])
    def test_two_byte_fields_match_the_tuple_walk(self, n):
        # lam -> 1: the count bound is 826 to 2,374, so a field of 2 bytes
        pf = pf_of(wielandt(n))
        assert _count_field(pf, 3 + MERGE_TOL, word_cap()) == 2
        assert sl.spectrum(pf, 3) == loop_spectrum(pf, 3)

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_field_is_the_smallest_that_holds_the_bound(self, size):
        # lam = 2 and min u = 1/2: the bound is floor(2 * bound) + 2
        pf = SimpleNamespace(lambda_max=2.0, u=[0.5, 0.5])
        largest = 256**size - 1
        assert _count_field(pf, (largest - 2) / 2, 2**40) == size
        assert _count_field(pf, (largest - 1) / 2, 2**40) == 2 * size
        # the cap bounds the counts too
        assert _count_field(pf, 1e300, largest - 2) == size
        assert _count_field(pf, 1e300, largest - 1) == 2 * size

    @pytest.mark.parametrize(
        "matrix, cutoff, largest",
        [
            (FIBONACCI, 60, 153),
            (FIBONACCI, 120, 310),
            (wielandt(12), 3, 34),
            ([[1, 1], [1, 1]], 30, 57),
            (UNKNOWN_EXHIBIT, 4.5, 13),
        ],
        ids=["fibonacci60", "fibonacci120", "wielandt12", "full2", "unknown"],
    )
    def test_field_holds_every_child_count(self, matrix, cutoff, largest):
        # Fibonacci at cutoff 120 makes a count of 310: one byte would carry
        pf = pf_of(matrix)
        assert largest_child_count(pf, cutoff) == largest
        assert largest < 256 ** _count_field(pf, cutoff + MERGE_TOL, word_cap())
