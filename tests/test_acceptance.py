"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and runtime budget is pinned here.
"""

import time

import numpy as np

import shiftlab as sl
from shiftlab.models import (
    random_qls_vectors,
    qls_magic,
    two_projection_magic,
)
from shiftlab.symmetry import ClassicalIsometry, generating_set
from conftest import random_projection, sample_phase_vectors, swap_permutation
from oracles import eigenvalue_multiset, shifted_cylinder_mass

FIB = [[1, 1], [1, 0]]


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            status = "PASS" if elapsed < self.seconds else "FAIL (over budget)"
            print(f"[acceptance] {self.name}: {status} ({elapsed:.3f}s)")
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.3f}s, budget {self.seconds}s"
            )
        else:
            print(f"[acceptance] {self.name}: FAIL ({elapsed:.3f}s)")
        return False


def test_01_fibonacci_collapse():
    with _Budget("1 Fibonacci collapse -> DualFreeGroup", 0.1):
        spec = sl.AdjacencySpec.from_matrix(FIB)
        pf = sl.perron_frobenius(spec)
        pattern = sl.propagate(sl.build_constraints(spec, pf))
        assert pattern.is_identity_pattern()
        assert pattern.grid_strings() == {
            "p": ["10", "01"],
            "q": ["10", "01"],
        }
        assert sl.collapse_report(pattern) == "DualFreeGroup"


def test_02_flip_intertwiner_reproduction():
    with _Budget("2 flip-intertwiner matrix and symmetry order", 1.0):
        spec = sl.AdjacencySpec.from_matrix(FIB)
        rep = sl.t_a_analysis(spec)
        assert np.array_equal(
            rep.matrix,
            np.array(
                [
                    [1, 1, 1, 1],
                    [1, 1, 0, 0],
                    [1, 0, 1, 0],
                    [1, 0, 0, 0],
                ]
            ),
        )
        assert rep.order > 1


def test_03_eigenvalue_formula_oracle():
    with _Budget("3 eigenvalue formula vs dense blocks <= 1e-9", 30.0):
        mats = [[[1] * 2] * 2, [[1] * 3] * 3, FIB]
        worst = 0.0
        for mat in mats:
            spec = sl.AdjacencySpec.from_matrix(mat)
            pf = sl.perron_frobenius(spec)
            for base_len in (1, 2):
                for base in sl.enumerate_words(spec, base_len):
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
                        worst = max(worst, np.abs(dense - expect).max())
        assert worst <= 1e-9


def test_04_dirac_low_eigenspaces():
    with _Budget("4 spectrum(2): +1 x N and +2 x edge count", 5.0):
        for mat in ([[1] * 2] * 2, [[1] * 3] * 3, FIB):
            spec = sl.AdjacencySpec.from_matrix(mat)
            pf = sl.perron_frobenius(spec)
            pairs = dict(sl.spectrum(pf, 2.0))
            assert pairs[1.0] == spec.n
            assert pairs[2.0] == int(spec.matrix.sum())


def test_05_classical_isometries():
    with _Budget("5 commutation residuals at cutoff 4", 30.0):
        for mat in ([[1] * 2] * 2, FIB):
            spec = sl.AdjacencySpec.from_matrix(mat)
            pf = sl.perron_frobenius(spec)
            group = sl.automorphism_group(spec)
            gens = generating_set(spec) or group
            for g in gens:
                for z in sample_phase_vectors(spec.n):
                    iso = ClassicalIsometry(phases=z, perm=g)
                    assert sl.commutation_residual(iso, pf, 4.0) <= 1e-9
        fib = sl.AdjacencySpec.from_matrix(FIB)
        pf = sl.perron_frobenius(fib)
        bad = ClassicalIsometry(
            phases=(1.0 + 0.0j,) * 2, perm=swap_permutation(2, 1, 2)
        )
        assert sl.commutation_residual(bad, pf, 4.0) > 1e-3


def test_06_classical_action_not_ergodic():
    with _Budget("6 classical fixed points dimension >= 2 at k=2", 5.0):
        for n in (2, 3, 4):
            rep = sl.classical_fixed_points(sl.AdjacencySpec.full_shift(n), 2)
            assert rep.dimension >= 2
        rep = sl.classical_fixed_points(sl.AdjacencySpec.from_matrix(FIB), 2)
        assert rep.dimension >= 2


def test_07_quantum_ergodicity_desk_scale():
    with _Budget("7 ergodicity verdicts (full shift vs Fibonacci)", 10.0):
        for n in (2, 3, 4):
            spec = sl.AdjacencySpec.full_shift(n)
            pf = sl.perron_frobenius(spec)
            for k in range(1, 5):
                if sl.count_words(spec, k) > 256:
                    continue
                verdict = sl.ergodicity_verdict(spec, pf, k)
                assert verdict.verdict == "ErgodicCertified"
        fib = sl.AdjacencySpec.from_matrix(FIB)
        pf = sl.perron_frobenius(fib)
        verdict = sl.ergodicity_verdict(fib, pf, 2)
        assert verdict.verdict == "NonErgodic"
        assert verdict.witness == ((1, 1),)


def test_08_model_relation_suite():
    with _Budget("8 model relations and normality norm", 20.0):
        rep = sl.relation_check(two_projection_magic(np.pi / 5), 3)
        assert rep.max_partial_isometry_defect <= 1e-9
        model = qls_magic(random_qls_vectors(4, seed=11))
        norms = [
            sl.normality_element_norm(model, i, k, l)
            for i in range(1, 5)
            for k in range(1, 5)
            for l in range(1, 5)
            if len({i, k, l}) == 3
        ]
        assert max(norms) > 0.01


def test_09_halmos_lemma_property():
    with _Budget("9 projection-pair biconditional x 500", 5.0):
        rng = np.random.default_rng(99)
        for _ in range(500):
            d = int(rng.integers(2, 7))
            v = random_projection(d, int(rng.integers(1, d)), rng)
            w = random_projection(d, int(rng.integers(1, d)), rng)
            assert sl.halmos_lemma_check(v, w)


def test_10_measure_suite():
    with _Budget("10 conformality, equilibrium state, regularity band", 10.0):
        for mat in ([[1] * 2] * 2, FIB):
            spec = sl.AdjacencySpec.from_matrix(mat)
            pf = sl.perron_frobenius(spec)
            for m in range(1, 6):
                for w in sl.enumerate_words(spec, m):
                    mu = sl.conformal_measure(pf, w)
                    for k in range(m + 1):
                        got = shifted_cylinder_mass(pf, w, k)
                        assert abs(got - pf.lambda_max**k * mu) <= 1e-12
                    if m <= 4:
                        assert abs(sl.kms_value(pf, w, w) - mu) <= 1e-12
            c_min, c_max = sl.ahlfors_profile(pf, 8)
            assert c_max / c_min < 10.0
