import itertools
import math
import random
import re
from collections import defaultdict
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import shiftlab as sl
from shiftlab import quantum
from shiftlab.quantum import (
    CERTAIN_ZERO,
    CERTIFIED_NONZERO,
    DUAL_FREE_GROUP,
    FREE,
    INDETERMINATE,
    ERGODIC_CERTIFIED,
    NON_ERGODIC,
    ONE,
    UNKNOWN,
    ZERO,
    ConstraintSystem,
    PatternMatrix,
    PerLegWitness,
    ProjVarState,
)
from shiftlab.models import classical_model
from shiftlab.symmetry import _orbit_roots, _search
from shiftlab.errors import Inconsistent, LengthOverflow
from conftest import (
    FIBONACCI,
    UNKNOWN_EXHIBIT,
    budget,
    primitive_circulants,
    primitive_matrices,
    random_primitive,
)
from oracles import (
    brute_force_orbits,
    least_positive_power,
    loop_classical_witness,
    loop_build_constraints,
    loop_ergodicity_verdict,
    loop_upper_triangle_verdict,
    loop_word_support,
    p_var,
    q_var,
    sweep_propagate,
)


@pytest.fixture(scope="module")
def fib_pattern(fib, fib_pf):
    return sl.propagate(sl.build_constraints(fib, fib_pf))


@pytest.fixture(scope="module")
def full2_pattern(full2, full2_pf):
    return sl.propagate(sl.build_constraints(full2, full2_pf))


def _blow_up(mat, r):
    """A ⊗ J_r: each letter of A becomes r twin letters."""
    return np.kron(mat, np.ones((r, r), dtype=int)).tolist()


class TestBuildConstraints:
    def test_full_shift_no_eigenvector_zeroing(self, full2, full2_pf):
        system = sl.build_constraints(full2, full2_pf)
        assert system.pre_zero == ()

    def test_fibonacci_pre_zeroes_off_diagonal(self, fib, fib_pf):
        system = sl.build_constraints(fib, fib_pf)
        n = 2
        expected = {
            p_var(n, 0, 1), p_var(n, 1, 0),
            q_var(n, 0, 1), q_var(n, 1, 0),
        }
        assert set(system.pre_zero) == expected

    def test_intertwining_equation_count(self, fib, fib_pf):
        system = sl.build_constraints(fib, fib_pf)
        two_sided = [eq for eq in system.equations if eq[2]]
        assert len(two_sided) == fib.n**2

    def test_pf_rule_flag(self, fib, fib_pf):
        system = sl.build_constraints(fib, fib_pf, use_pf_rule=False)
        assert system.pre_zero == ()


class TestPropagate:
    def test_fibonacci_collapses_to_identity(self, fib_pattern):
        assert fib_pattern.is_identity_pattern()
        grids = fib_pattern.grid_strings()
        assert grids["p"] == ["10", "01"]
        assert grids["q"] == ["10", "01"]

    def test_shared_classes_lettered_in_first_seen_order(self):
        # four shared classes, read row-major through p and then q
        spec = sl.AdjacencySpec.from_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 1]])
        pattern = sl.propagate(sl.build_constraints(spec, sl.perron_frobenius(spec)))
        assert pattern.grid_strings() == {
            "p": ["ab0", "cd0", "001"],
            "q": ["dc0", "ba0", "001"],
        }

    def test_full_shift_all_free(self, full2_pattern):
        for i in range(1, 3):
            for j in range(1, 3):
                assert full2_pattern.p_state(i, j).kind == "free"
                assert full2_pattern.q_state(i, j).kind == "free"

    def test_confluence_under_shuffles(self, fib, fib_pf, full2, full2_pf):
        for spec, pf in ((fib, fib_pf), (full2, full2_pf)):
            system = sl.build_constraints(spec, pf)
            base = sl.propagate(system)
            for seed in range(100):
                equations = list(system.equations)
                random.Random(seed).shuffle(equations)
                shuffled = replace(system, equations=tuple(equations))
                assert sl.propagate(shuffled) == base

    def test_distinct_eigenvector_3x3_collapses(self):
        spec = sl.AdjacencySpec.from_matrix([[1, 1, 1], [1, 1, 0], [1, 0, 0]])
        pf = sl.perron_frobenius(spec)
        assert len(set(np.round(pf.u, 9))) == 3  # all entries distinct
        pattern = sl.propagate(sl.build_constraints(spec, pf))
        assert pattern.is_identity_pattern()
        assert sl.collapse_report(pattern) == DUAL_FREE_GROUP

    def test_soundness_against_classical_models(self, fib, fib_pf):
        # a propagated zero must vanish in every permutation model
        pattern = sl.propagate(sl.build_constraints(fib, fib_pf))
        for g in sl.automorphism_group(fib):
            model = classical_model(g.perm)
            for i in range(1, 3):
                for j in range(1, 3):
                    if pattern.p_state(i, j).is_zero:
                        assert np.linalg.norm(model.entry(i, j)) == 0.0


class TestCollapseReport:
    def test_fibonacci_dual_free_group(self, fib_pattern):
        assert sl.collapse_report(fib_pattern) == DUAL_FREE_GROUP

    def test_full_shift_indeterminate(self, full2_pattern):
        assert sl.collapse_report(full2_pattern) == INDETERMINATE


class TestWordSupport:
    def test_fibonacci_diagonal_only(self, fib_pattern, fib_pf):
        sup = sl.word_support(fib_pattern, fib_pf, 2)
        for mu in sup.words:
            for nu in sup.words:
                want = CERTIFIED_NONZERO if mu == nu else CERTAIN_ZERO
                assert sup.state(mu, nu) == want

    def test_full_shift_everything_certified(self, full2_pattern, full2_pf):
        sup = sl.word_support(full2_pattern, full2_pf, 2)
        for mu in sup.words:
            for nu in sup.words:
                assert sup.state(mu, nu) == CERTIFIED_NONZERO

    def test_zero_on_the_full_shift_is_inconsistent(self, full2, full2_pf):
        # one more pre-zeroed variable, p[0][1], propagates to a pattern with
        # a Zero there, but classical_witness aligns (2) with (1) by the swap
        s = sl.build_constraints(full2, full2_pf)
        pattern = sl.propagate(ConstraintSystem(full2, s.equations, s.pre_zero + (1,)))
        assert pattern.p_state(1, 2).is_zero
        assert sl.classical_witness(full2, (1,), (2,)) == sl.GraphAutomorphism((2, 1))
        for call in (sl.word_support, loop_word_support):
            with pytest.raises(
                Inconsistent,
                match="^witnessed pair was forced to zero; propagation is unsound$",
            ):
                call(pattern, full2_pf, 1)

    def test_pairs_refused_before_the_orbits(self, monkeypatch):
        # the complete digraph without loops on 8 letters: 134,456 level-6
        # words, refused on their m² pairs before one orbit root is formed
        # (forming them first took about 1.2 s of CPU)
        monkeypatch.delenv("ARIADNE_CAP", raising=False)
        spec = sl.AdjacencySpec.from_matrix(_circulant(8, range(1, 8)))
        pf = sl.perron_frobenius(spec)
        pattern = sl.propagate(sl.build_constraints(spec, pf))
        message = r"^18078415936 word pairs of length 6 exceed cap 1000000$"
        with budget(cpu_s=0.3), pytest.raises(LengthOverflow, match=message):
            sl.word_support(pattern, pf, 6)

    def test_only_admissible_words_indexed(self, fib_pattern, fib_pf):
        sup = sl.word_support(fib_pattern, fib_pf, 2)
        assert (2, 2) not in sup.words

    def test_certified_contains_identity_and_composes(self, full3_pf, full3):
        pf = full3_pf
        pattern = sl.propagate(sl.build_constraints(full3, pf))
        sup = sl.word_support(pattern, pf, 2)
        words = sup.words
        certified = {
            (m, n)
            for m in words
            for n in words
            if sup.state(m, n) == CERTIFIED_NONZERO
        }
        for w in words:
            assert (w, w) in certified
        # relational composition: S contained in S o S
        for m, n in certified:
            assert any(
                (m, g) in certified and (g, n) in certified for g in words
            )


class TestClassicalWitness:
    def test_identity_on_diagonal(self, fib):
        w = sl.classical_witness(fib, (1, 2), (1, 2))
        assert w is not None and w.is_identity

    def test_fibonacci_off_diagonal_none(self, fib):
        assert sl.classical_witness(fib, (1, 1), (2, 1)) is None

    def test_full_shift_always_witnessed(self, full2):
        for mu in sl.enumerate_words(full2, 2):
            for nu in sl.enumerate_words(full2, 2):
                w = sl.classical_witness(full2, mu, nu)
                assert w is not None
                if isinstance(w, PerLegWitness):
                    assert all(
                        p(b) == a for p, a, b in zip(w.perms, mu, nu)
                    )
                else:
                    assert w.apply_word(nu) == mu

    @pytest.mark.parametrize(
        "mat",
        [FIBONACCI, UNKNOWN_EXHIBIT] + [[[1] * n] * n for n in (2, 3, 4)],
        ids=["fib", "unknown-exhibit", "full2", "full3", "full4"],
    )
    def test_same_witness_as_group_loop(self, mat):
        spec = sl.AdjacencySpec.from_matrix(mat)
        for k in (1, 2):
            words = sl.enumerate_words(spec, k)
            for mu in words:
                for nu in words:
                    assert sl.classical_witness(spec, mu, nu) == (
                        loop_classical_witness(spec, mu, nu)
                    )


def check_orbits_against_brute_force(mat, k):
    """Fixed-point orbits, certified supports and witnesses agree."""
    spec = sl.AdjacencySpec.from_matrix(mat)
    oracle = brute_force_orbits(mat, k)
    rep = sl.classical_fixed_points(spec, k)
    assert list(rep.orbits) == sorted(tuple(sorted(o)) for o in oracle)

    pf = sl.perron_frobenius(spec)
    sup = sl.word_support(sl.propagate(sl.build_constraints(spec, pf)), pf, k)
    words = sup.words
    orbit_of = {w: o for o in oracle for w in o}
    if not spec.is_full_shift():
        for i, mu in enumerate(words):
            for j, nu in enumerate(words):
                same = nu in orbit_of[mu]
                assert (sup.states[i][j] == CERTIFIED_NONZERO) == same

    # classical_witness searches the group per pair: check at most 8 rows
    for i in range(0, len(words), -(-len(words) // 8)):
        for j, nu in enumerate(words):
            state = sup.states[i][j]
            if state != CERTAIN_ZERO:
                witness = sl.classical_witness(spec, words[i], nu)
                assert (state == CERTIFIED_NONZERO) == (witness is not None)


class TestWordOrbits:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_full_shifts(self, n, k):
        check_orbits_against_brute_force([[1] * n for _ in range(n)], k)

    @seed(20261018)
    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(primitive_matrices(max_n=5), primitive_circulants(max_n=5)),
        st.integers(1, 3),
    )
    def test_random_primitive(self, mat, k):
        check_orbits_against_brute_force(mat, k)

    @seed(20261019)
    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(primitive_matrices(max_n=5), primitive_circulants(max_n=5)),
        st.integers(1, 3),
    )
    def test_roots_are_least_orbit_indices(self, mat, k):
        spec = sl.AdjacencySpec.from_matrix(mat)
        words = sl.enumerate_words(spec, k)
        roots = _orbit_roots(_search(mat)[1], words)
        index = {w: i for i, w in enumerate(words)}
        for orbit in brute_force_orbits(mat, k):
            members = [index[w] for w in orbit]
            assert {roots[i] for i in members} == {min(members)}


class TestErgodicityVerdict:
    def test_full_shift_certified(self):
        for n in (2, 3, 4):
            spec = sl.AdjacencySpec.full_shift(n)
            pf = sl.perron_frobenius(spec)
            for k in range(1, 5):
                if sl.count_words(spec, k) > 256:
                    continue
                v = sl.ergodicity_verdict(spec, pf, k)
                assert v.verdict == ERGODIC_CERTIFIED

    @pytest.mark.parametrize("n", range(2, 8))
    def test_full_shift_verdict_lists_no_word(self, monkeypatch, n):
        # the sweep keeps every letter pair on the full shift, so every pair
        # of words has a PerLegWitness: certified at every level, and no
        # word is listed; a negative level is still refused
        spec = sl.AdjacencySpec.full_shift(n)
        pf = sl.perron_frobenius(spec)
        want = [loop_ergodicity_verdict(spec, pf, k) for k in (1, 2, 3)]
        assert {v.verdict for v in want} == {ERGODIC_CERTIFIED}
        with pytest.raises(ValueError, match=r"^length must be >= 0$"):
            sl.ergodicity_verdict(spec, pf, -1)

        def unlisted(spec, k):
            raise AssertionError(f"level-{k} words listed")

        monkeypatch.setattr(quantum, "enumerate_words", unlisted)
        assert [sl.ergodicity_verdict(spec, pf, k) for k in (1, 2, 3)] == want

    def test_fibonacci_non_ergodic_with_witness(self, fib, fib_pf):
        v = sl.ergodicity_verdict(fib, fib_pf, 2)
        assert v.verdict == NON_ERGODIC
        assert v.witness == ((1, 1),)

    def test_witness_is_proper_nonempty_component(self, fib, fib_pf):
        v = sl.ergodicity_verdict(fib, fib_pf, 3)
        words = set(sl.enumerate_words(fib, 3))
        assert v.verdict == NON_ERGODIC
        assert 0 < len(v.witness) < len(words)
        assert set(v.witness) <= words

    def test_monotone_in_level(self, fib, fib_pf):
        # a non-ergodic verdict persists under refinement
        verdicts = [
            sl.ergodicity_verdict(fib, fib_pf, k).verdict for k in (2, 3, 4)
        ]
        assert verdicts == [NON_ERGODIC] * 3

    @pytest.mark.parametrize(
        "mat, orbit_count, verdict",
        [
            # per-leg witnesses join every pair: one class, no orbit formed
            ([[1] * 3] * 3, 1, ERGODIC_CERTIFIED),
            # the 6 ordered pairs of distinct letters are one S3 orbit
            ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 1, ERGODIC_CERTIFIED),
            # loops plus the 3-cycle: (i, i) and (i, i + 1) are two orbits
            ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2, UNKNOWN),
        ],
    )
    def test_certified_connectivity_from_orbit_count(self, mat, orbit_count, verdict):
        spec = sl.AdjacencySpec.from_matrix(mat)
        pf = sl.perron_frobenius(spec)
        # with every letter pair alive the check passes and hands over the
        # generators (None on the full shift)
        gens = quantum._check_letter_orbits(spec, np.ones((3, 3), dtype=bool), 2)
        root = quantum._certified_roots(gens, sl.enumerate_words(spec, 2))
        assert len(set(root.tolist())) == orbit_count
        v = sl.ergodicity_verdict(spec, pf, 2)
        assert v.verdict == verdict
        assert v == loop_ergodicity_verdict(spec, pf, 2)

    @pytest.mark.parametrize(
        "mat",
        [_blow_up(FIBONACCI, 2), _blow_up(FIBONACCI, 3), random_primitive(16, seed=20261018)],
        ids=["fibonacci-x-J2", "fibonacci-x-J3", "seeded16"],
    )
    def test_non_ergodic_forms_only_letter_orbits(self, monkeypatch, mat):
        # two or more letter classes decide the verdict, so the only orbits
        # formed are the n letters', for the soundness check
        spec = sl.AdjacencySpec.from_matrix(mat)
        pf = sl.perron_frobenius(spec)
        want = [loop_ergodicity_verdict(spec, pf, k) for k in (1, 2, 3)]
        assert {v.verdict for v in want} == {NON_ERGODIC}
        lengths = []

        def recording(gens, words):
            lengths.append(sorted({len(w) for w in words}))
            return _orbit_roots(gens, words)

        monkeypatch.setattr(quantum, "_orbit_roots", recording)
        assert [sl.ergodicity_verdict(spec, pf, k) for k in (1, 2, 3)] == want
        assert lengths == [[1]] * 3

    def test_level7_blow_up_in_bounded_time(self):
        # Fibonacci ⊗ J₃: 6 letters, a group of order 36 and 74,358 level-7
        # words in two letter classes, decided in about 0.08 s of CPU where
        # forming the word orbits took 0.43-0.49 s (shared 2-core machine);
        # the 3^7 words over the first class are the witness
        spec = sl.AdjacencySpec.from_matrix(_blow_up(FIBONACCI, 3))
        pf = sl.perron_frobenius(spec)
        with budget(cpu_s=0.35):
            v = sl.ergodicity_verdict(spec, pf, 7)
        assert v == quantum.ErgodicityVerdict(
            NON_ERGODIC, 7, tuple(itertools.product((1, 2, 3), repeat=7))
        )
        assert sl.ergodicity_verdict(spec, pf, 3) == loop_ergodicity_verdict(spec, pf, 3)

    @pytest.mark.parametrize(
        "mat",
        [
            UNKNOWN_EXHIBIT,
            [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
            [[int(i != j) for j in range(8)] for i in range(8)],
        ],
        ids=["unknown-exhibit", "3-cycle-with-loops", "complete-8-no-loops"],
    )
    def test_one_group_search_per_call(self, monkeypatch, mat):
        # one letter class: the letter check and the word roots share the
        # generators of one search, in a verdict and in a word support alike
        spec = sl.AdjacencySpec.from_matrix(mat)
        pf = sl.perron_frobenius(spec)
        pattern = sl.propagate(sl.build_constraints(spec, pf))
        searched = []

        def recording(a):
            searched.append(a)
            return _search(a)

        monkeypatch.setattr(sl.symmetry, "_search", recording)
        monkeypatch.setattr(quantum, "_search", recording, raising=False)
        for k in (1, 2, 3):
            for call in (
                lambda: sl.ergodicity_verdict(spec, pf, k),
                lambda: sl.word_support(pattern, pf, k),
            ):
                searched.clear()
                call()
                assert searched == [spec.a]

    def test_unknown_exhibit_pinned(self):
        spec = sl.AdjacencySpec.from_matrix(UNKNOWN_EXHIBIT)
        assert len(sl.automorphism_group(spec)) == 1
        pf = sl.perron_frobenius(spec)
        assert np.ptp(pf.u) < 1e-12  # constant eigenvector: no pre-zeroing
        v = sl.ergodicity_verdict(spec, pf, 2)
        assert v.verdict == UNKNOWN


def _sweep_returning(pattern):
    """A stand-in for ``quantum._live_sweep`` that returns ``pattern`` and
    its variable codes, so that ergodicity_verdict reads that pattern."""
    code = {ZERO: quantum._ZERO_VAR, ONE: quantum._ONE_VAR, FREE: quantum._FREE_VAR}
    cells = [st for grid in (pattern.p, pattern.q) for row in grid for st in row]
    codes = np.array([code[st.kind] for st in cells], dtype=np.int8)
    return lambda spec, pf: (pattern, codes)


def _zero_pattern(zero):
    """A pattern with Zero where the n x n bool ``zero`` is True, in both
    grids, and one free class elsewhere."""
    free, nil = ProjVarState(FREE, 0), ProjVarState(ZERO)
    grid = tuple(tuple(nil if z else free for z in row) for row in zero.tolist())
    return PatternMatrix(len(grid), grid, grid)


def _propagated(propagate, system):
    """The result, or the Inconsistent message the call stops with."""
    try:
        return propagate(system)
    except Inconsistent as exc:
        return str(exc)


def _circulant(n, steps):
    return [[int((j - i) % n in steps) for j in range(n)] for i in range(n)]


def _check_propagation(mat, pf_rule, draw_extra, draws=1):
    """build_constraints and propagate against the loop references, as
    built and with ``draws`` sets of more pre-zeroed variables, each from
    ``draw_extra(open variables)``.  Returns the built system."""
    spec = sl.AdjacencySpec.from_matrix(mat)
    pf = sl.perron_frobenius(spec)
    system = sl.build_constraints(spec, pf, use_pf_rule=pf_rule)
    assert system == loop_build_constraints(spec, pf, use_pf_rule=pf_rule)
    assert _propagated(sl.propagate, system) == _propagated(sweep_propagate, system)
    open_vars = sorted(set(range(system.var_count)) - set(system.pre_zero))
    for _ in range(draws):
        extra = tuple(draw_extra(open_vars))
        zeroed = replace(system, pre_zero=system.pre_zero + extra)
        assert _propagated(sl.propagate, zeroed) == _propagated(
            sweep_propagate, zeroed
        )
    return system


def _kept_equations(system, kept):
    """``system``'s equations with only the variables where ``kept`` is
    True, without the dead ones: no variable left and equal constants."""
    out = []
    for lhs, lc, rhs, rc in system.equations:
        lhs = tuple(v for v in lhs if kept[v])
        rhs = tuple(v for v in rhs if kept[v])
        if lhs or rhs or lc != rc:
            out.append((lhs, lc, rhs, rc))
    return out


class TestAgainstLoopReferences:
    """The array and settled-equation passes against the loops they replace."""

    @seed(20261019)
    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(primitive_matrices(max_n=6), primitive_circulants(max_n=6)),
        st.integers(0, 3),
    )
    def test_supports_and_verdicts(self, mat, k):
        spec = sl.AdjacencySpec.from_matrix(mat)
        pf = sl.perron_frobenius(spec)
        pattern = sl.propagate(sl.build_constraints(spec, pf))
        sup = sl.word_support(pattern, pf, k)
        assert sup == loop_word_support(pattern, pf, k)
        assert sl.ergodicity_verdict(spec, pf, k) == loop_ergodicity_verdict(
            spec, pf, k
        )

    @pytest.mark.parametrize("zero_at", [(0, 1), (1, 0)])
    def test_one_way_zero_splits_no_class(self, monkeypatch, zero_at):
        # UNKNOWN_EXHIBIT (trivial group, constant eigenvector) with letter
        # 1 cut off from the others but for one order of the pair 1, 2: that
        # pair of level-1 words is CertainZero one way round only, so the
        # letters stay one class and the four orbits leave the verdict
        # Unknown either way; the earlier rule read the pair with its
        # earlier word first and split off (1) for a Zero at p[0][1]
        spec = sl.AdjacencySpec.from_matrix(UNKNOWN_EXHIBIT)
        pf = sl.perron_frobenius(spec)
        zero = np.zeros((4, 4), dtype=bool)
        zero[0, 1:] = zero[1:, 0] = True
        zero[zero_at[::-1]] = False
        pattern = _zero_pattern(zero)
        monkeypatch.setattr(quantum, "_live_sweep", _sweep_returning(pattern))
        v = sl.ergodicity_verdict(spec, pf, 1)
        assert v == loop_ergodicity_verdict(spec, pf, 1, pattern)
        assert v == quantum.ErgodicityVerdict(UNKNOWN, 1, None)
        old = loop_upper_triangle_verdict(spec, pf, 1, pattern)
        if zero_at == (0, 1):  # states[0][1] was read: no edge
            assert old.verdict == NON_ERGODIC and old.witness == ((1,),)
        else:
            assert old == v

    @pytest.mark.parametrize("zero_at", [(0, 1), (1, 1)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_zero_inside_an_orbit_is_inconsistent(self, monkeypatch, zero_at, k):
        # loops plus the 3-cycle: rotation puts (1) and (2), and (1, 1) and
        # (2, 2), in one orbit, and a Zero at p[0][1] kills their certified
        # pair; a Zero at p[1][1] kills the pair (w, w) of a word through 2
        spec = sl.AdjacencySpec.from_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        pf = sl.perron_frobenius(spec)
        zero = np.zeros((3, 3), dtype=bool)
        zero[zero_at] = True
        pattern = _zero_pattern(zero)
        monkeypatch.setattr(quantum, "_live_sweep", _sweep_returning(pattern))
        for call in (
            lambda: sl.word_support(pattern, pf, k),
            lambda: sl.ergodicity_verdict(spec, pf, k),
            lambda: loop_word_support(pattern, pf, k),
            lambda: loop_ergodicity_verdict(spec, pf, k, pattern),
        ):
            with pytest.raises(
                Inconsistent,
                match="^witnessed pair was forced to zero; propagation is unsound$",
            ):
                call()

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_zero_inside_a_letter_orbit(self, monkeypatch, k):
        # the complete digraph without loops on 4 letters: its group S_4 is
        # transitive on the letters and on the 12 pairs of distinct ones, an
        # orbit larger than any rotation's; a Zero at p[0][1] kills a
        # certified pair at every level k >= 1, and at k = 0 the one word ()
        # has no position, so nothing is checked
        spec = sl.AdjacencySpec.from_matrix(_circulant(4, (1, 2, 3)))
        pf = sl.perron_frobenius(spec)
        zero = np.zeros((4, 4), dtype=bool)
        zero[0, 1] = True
        pattern = _zero_pattern(zero)
        monkeypatch.setattr(quantum, "_live_sweep", _sweep_returning(pattern))
        supports = [
            _propagated(lambda k: sl.word_support(pattern, pf, k), k),
            _propagated(lambda k: loop_word_support(pattern, pf, k), k),
        ]
        verdicts = [
            _propagated(lambda k: sl.ergodicity_verdict(spec, pf, k), k),
            _propagated(lambda k: loop_ergodicity_verdict(spec, pf, k, pattern), k),
        ]
        unsound = "witnessed pair was forced to zero; propagation is unsound"
        if k:
            assert supports == verdicts == [unsound, unsound]
        else:
            assert supports[0] == supports[1] != unsound
            assert verdicts[0] == verdicts[1] == quantum.ErgodicityVerdict(
                ERGODIC_CERTIFIED, 0, None
            )

    @seed(20261022)
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            primitive_matrices(max_n=5),
            primitive_circulants(max_n=5),
            st.integers(2, 5).map(lambda n: [[1] * n] * n),
            st.just(UNKNOWN_EXHIBIT),
        ),
        st.integers(1, 3),
        st.data(),
    )
    def test_verdicts_on_injected_zero_patterns(self, mat, k, data):
        # Zero off a band of drawn width around a drawn letter order, flipped
        # at a drawn density, so that the alive letter pairs are often
        # neither symmetric nor transitive (a zero diagonal entry kills the
        # certified pair (w, w), so half the draws clear it)
        spec = sl.AdjacencySpec.from_matrix(mat)
        pf = sl.perron_frobenius(spec)
        n = len(mat)
        rank = np.array(data.draw(st.permutations(range(n))))
        zero = np.abs(rank[:, None] - rank) > data.draw(st.integers(0, n))
        cells = data.draw(st.lists(st.integers(0, 7), min_size=n * n, max_size=n * n))
        zero ^= np.array(cells).reshape(n, n) < data.draw(st.integers(0, 3))
        if data.draw(st.booleans()):
            np.fill_diagonal(zero, False)
        pattern = _zero_pattern(zero)
        # the sweep starts from the eigenvector rule's Zeros and frees none,
        # so the verdict reads them with the drawn ones; word_support takes
        # the drawn pattern alone, as a pattern propagated without that rule
        swept = _zero_pattern(zero | quantum._u_differs(pf))
        with mock.patch.object(quantum, "_live_sweep", _sweep_returning(swept)):
            verdict = _propagated(lambda k: sl.ergodicity_verdict(spec, pf, k), k)
            support = _propagated(lambda k: sl.word_support(pattern, pf, k), k)
        assert verdict == _propagated(
            lambda k: loop_ergodicity_verdict(spec, pf, k, pattern), k
        )
        assert support == _propagated(lambda k: loop_word_support(pattern, pf, k), k)
        # the witness's indicator is fixed: each pair across its boundary is
        # certainly zero in both orders, whatever alive's shape
        if not isinstance(verdict, str) and verdict.verdict == NON_ERGODIC:
            inside = set(verdict.witness)
            for mu, nu in itertools.product(support.words, repeat=2):
                if (mu in inside) != (nu in inside):
                    assert support.state(mu, nu) == CERTAIN_ZERO

    @seed(20261023)
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            primitive_matrices(max_n=5),
            primitive_circulants(max_n=5),
            st.integers(2, 5).map(lambda n: [[1] * n] * n),
            st.just(UNKNOWN_EXHIBIT),
        ),
        st.integers(0, 3),
        st.data(),
    )
    def test_equivalence_patterns_keep_the_earlier_verdict(self, mat, k, data):
        # Zero between the blocks of a drawn partition of the letters into
        # unions of letter orbits (so that no certified pair is cut): with
        # the eigenvector rule's Zeros, alive is an equivalence relation, and
        # then the class rule gives the earlier rule's verdict and witness
        spec = sl.AdjacencySpec.from_matrix(mat)
        pf = sl.perron_frobenius(spec)
        n = len(mat)
        label = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        block = np.array(label)[_orbit_roots(_search(mat)[1], sl.enumerate_words(spec, 1))]
        pattern = _zero_pattern(block[:, None] != block)
        swept = _zero_pattern((block[:, None] != block) | quantum._u_differs(pf))
        with mock.patch.object(quantum, "_live_sweep", _sweep_returning(swept)):
            verdict = _propagated(lambda k: sl.ergodicity_verdict(spec, pf, k), k)
        assert verdict == _propagated(
            lambda k: loop_upper_triangle_verdict(spec, pf, k, pattern), k
        )
        assert verdict == _propagated(
            lambda k: loop_ergodicity_verdict(spec, pf, k, pattern), k
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "cut, verdict1",
        [
            ((), UNKNOWN),
            (((1, 2),), UNKNOWN),
            (((1, 2), (2, 1)), NON_ERGODIC),
        ],
    )
    def test_band_pattern_paths(self, monkeypatch, k, cut, verdict1):
        # UNKNOWN_EXHIBIT (trivial group, constant eigenvector) with Zero
        # wherever letters differ by more than one: the letter classes join
        # along the path 1 - 2 - 3 - 4, so one class and four orbits; a cut
        # at p[1][2] alone (the pair (2), (3) dead one way round) joins them
        # still, and a cut both ways splits the letters into 1, 2 and 3, 4
        spec = sl.AdjacencySpec.from_matrix(UNKNOWN_EXHIBIT)
        pf = sl.perron_frobenius(spec)
        letters = np.arange(4)
        zero = np.abs(letters[:, None] - letters) > 1
        for cell in cut:
            zero[cell] = True
        pattern = _zero_pattern(zero)
        monkeypatch.setattr(quantum, "_live_sweep", _sweep_returning(pattern))
        v = sl.ergodicity_verdict(spec, pf, k)
        assert v == loop_ergodicity_verdict(spec, pf, k, pattern)
        if k == 1:
            assert v.verdict == verdict1
            assert v.witness == (((1,), (2,)) if len(cut) == 2 else None)

    @seed(20261020)
    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(primitive_matrices(max_n=6), primitive_circulants(max_n=6)),
        st.booleans(),
        st.data(),
    )
    def test_constraints_and_propagation(self, mat, pf_rule, data):
        # a few more pre-zeroed variables: about a third of these systems
        # are contradictory, and the first Inconsistent raised must agree
        _check_propagation(
            mat,
            pf_rule,
            lambda open_vars: data.draw(
                st.lists(st.sampled_from(open_vars), min_size=1, max_size=3)
            ),
        )

    @pytest.mark.parametrize(
        "mat, pf_rule",
        [
            # distinct PF entries pre-zero every off-diagonal variable
            *((random_primitive(n, seed=n), True) for n in (16, 24, 32)),
            # no PF rule on a large random graph: every equation lives
            (random_primitive(64, seed=64), False),
            # a constant eigenvector and no PF rule: every variable starts
            # free, and the extra zeros of n = 5, 6 and 9 leave merged
            # classes shared by a p and a q variable
            *(
                (_circulant(n, steps), False)
                for n, steps in [(5, (0, 1)), (6, (1, 2)), (9, (1, 3)), (12, (0, 1, 5))]
            ),
        ],
        ids=lambda x: f"n{len(x)}" if isinstance(x, list) else f"pf_rule={x}",
    )
    def test_constraints_and_propagation_at_scale(self, mat, pf_rule):
        rng = random.Random(len(mat))
        system = _check_propagation(
            mat,
            pf_rule,
            lambda open_vars: rng.sample(open_vars, rng.randint(1, 3)),
            draws=4,
        )
        n = len(mat)
        assert len(system.pre_zero) == (2 * (n * n - n) if pf_rule else 0)

    @seed(20261021)
    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(primitive_matrices(max_n=8), primitive_circulants(max_n=8)),
        st.booleans(),
    )
    def test_live_equations_same_pattern(self, mat, pf_rule):
        spec = sl.AdjacencySpec.from_matrix(mat)
        pf = sl.perron_frobenius(spec)
        live = _propagated(lambda s: quantum._live_sweep(s, pf, pf_rule)[0], spec)
        system = sl.build_constraints(spec, pf, pf_rule)
        assert live == _propagated(sl.propagate, system)

    @pytest.mark.parametrize("pf_rule", [True, False])
    def test_only_live_equations_reach_the_sweep(self, monkeypatch, pf_rule):
        # distinct PF entries keep only the 2n diagonal variables: a magic
        # line keeps one, and intertwining equation (i, k) one per side
        # exactly when a[i][k] = 1; with no pre-zeroing every equation lives
        mat = random_primitive(128, seed=20261018)
        spec = sl.AdjacencySpec.from_matrix(mat)
        pf = sl.perron_frobenius(spec)
        sweep, counts = quantum._sweep, []

        def counting_sweep(n, codes, equations):
            counts.append(len(equations))
            return sweep(n, codes, equations)

        monkeypatch.setattr(quantum, "_sweep", counting_sweep)
        pattern = quantum._live_sweep(spec, pf, pf_rule)[0]
        n = len(mat)
        assert counts == [4 * n + (int(np.sum(mat)) if pf_rule else n * n)]
        assert pattern == sl.propagate(sl.build_constraints(spec, pf, pf_rule))

    @seed(20261022)
    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(primitive_matrices(max_n=6), primitive_circulants(max_n=6)),
        st.data(),
    )
    def test_live_equations_against_the_loops(self, mat, data):
        # any mask, its p and q halves drawn apart, not only what the PF
        # rule keeps: the same equations, in the same order, each side too
        n = len(mat)
        spec = sl.AdjacencySpec.from_matrix(mat)
        halves = st.lists(st.booleans(), min_size=n * n, max_size=n * n)
        kept = np.array(data.draw(halves) + data.draw(halves))
        system = loop_build_constraints(spec, None, use_pf_rule=False)
        assert quantum._live_equations(spec, kept) == _kept_equations(system, kept)

    @pytest.mark.parametrize("pf_rule", [True, False])
    def test_live_equations_against_the_loops_at_scale(self, pf_rule):
        # what the PF rule keeps (the 2n diagonal variables), and every one
        spec = sl.AdjacencySpec.from_matrix(random_primitive(128, seed=20261018))
        codes = quantum._pf_codes(sl.perron_frobenius(spec), pf_rule)
        kept = codes != quantum._ZERO_VAR
        system = loop_build_constraints(spec, None, use_pf_rule=False)
        assert quantum._live_equations(spec, kept) == _kept_equations(system, kept)

    @pytest.mark.parametrize(
        "pre_zero, forced_ones, message",
        [
            # p column 0 all zero, p row 0 two Ones: row 0 is read first
            ((0, 3, 6), (1, 2), "two ones in one line of a pattern"),
            # p row 0 all zero, p column 1 two Ones: line 0 is read first
            ((0, 1, 2), (4, 7), "a line of a magic pattern is all zero"),
            # q row 0 all zero, p row 2 two Ones: p is read first
            ((9, 10, 11), (7, 8), "two ones in one line of a pattern"),
        ],
    )
    def test_line_rules_pinned(self, full3, pre_zero, forced_ones, message):
        # no magic-row equations: only the line rules after the fixpoint
        # see the empty line and the doubled One
        system = ConstraintSystem(
            spec=full3, equations=((forced_ones, 0, (), 2),), pre_zero=pre_zero
        )
        assert _propagated(sl.propagate, system) == message
        assert _propagated(sweep_propagate, system) == message

    @pytest.mark.parametrize(
        "equation, p_rows",
        [
            # x0 on both sides, unequal counts: 2 x0 + x4 = x0 + 2 forces
            # two Ones, and x0 = 2 x0 + x4 two Zeros
            (((0, 0, 4), 0, (0,), 2), ("1..", ".1.", "...")),
            (((0,), 0, (0, 0, 4), 0), ("0..", ".0.", "...")),
            (((0, 0, 0), 0, (0,), 3), "sum of 2 projections = 3"),
            (((0, 0, 0), 0, (0,), 1), "class multiple 2 cannot equal 1"),
            # 2 x0 - x4 = 0 forces nothing
            (((0, 0), 0, (4,), 0), ("...", "...", "...")),
            # x0 - x4 = d merges at d = 0 and splits at d = 1 and -1
            (((0,), 0, (4,), 0), ("a..", ".a.", "...")),
            (((0,), 0, (4,), 1), ("1..", ".0.", "...")),
            (((0,), 1, (4,), 0), ("0..", ".1.", "...")),
            (((0,), 0, (4,), 2), "projection difference 2/1 out of range"),
            # 2 x0 - 2 x4 = d splits at d = 2, and has no 0/1 solution at 1
            (((0, 0), 0, (4, 4), 2), ("1..", ".0.", "...")),
            (((0, 0), 0, (4, 4), 1), "projection difference 1/2 out of range"),
        ],
    )
    def test_signed_tally_pinned(self, full3, equation, p_rows):
        # one equation over p[0][0] (variable 0) and p[1][1] (variable 4);
        # the left count of each class minus its right count decides the rule
        system = ConstraintSystem(spec=full3, equations=(equation,), pre_zero=())
        for propagate in (sl.propagate, sweep_propagate):
            result = _propagated(propagate, system)
            if isinstance(result, str):
                assert result == p_rows
            else:
                assert result.grid_strings() == {"p": list(p_rows), "q": ["..."] * 3}

    def test_inconsistent_message_pinned(self, full2, full2_pf):
        system = sl.build_constraints(full2, full2_pf)
        # p[0][0] = p[0][1] = 0 empties the first row of a magic grid
        zeroed = replace(system, pre_zero=(p_var(2, 0, 0), p_var(2, 0, 1)))
        message = _propagated(sl.propagate, zeroed)
        assert message == "scalar clash 0 != 1"
        assert message == _propagated(sweep_propagate, zeroed)

    def test_level2_verdict_n128_in_bounded_time(self):
        # 1,739 level-2 words (3 million pairs) and distinct PF entries,
        # which pre-zero every off-diagonal variable and isolate each word
        spec = sl.AdjacencySpec.from_matrix(random_primitive(128, seed=20261018))
        pf = sl.perron_frobenius(spec)
        with budget(cpu_s=2.0):
            v = sl.ergodicity_verdict(spec, pf, 2)
        assert v.verdict == NON_ERGODIC and v.witness == ((1, 1),)

    def test_level5_verdict_on_complete_digraph_in_bounded_time(self):
        # the complete digraph without loops on 8 letters: 19,208 level-5
        # words in orbits of up to 6,720 under S_8; soundness reads an 8 x 8
        # letter mask, not the Σ|orbit|² word pairs
        spec = sl.AdjacencySpec.from_matrix(_circulant(8, range(1, 8)))
        pf = sl.perron_frobenius(spec)
        with budget(cpu_s=1.0):
            v = sl.ergodicity_verdict(spec, pf, 5)
        assert v == quantum.ErgodicityVerdict(UNKNOWN, 5, None)

    def test_level3_verdict_n128_in_bounded_memory(self):
        # 23,580 level-3 words: one m x m bool array of their pairs would be
        # 556 MB; the search holds the words and blocks of 2^20 cells
        spec = sl.AdjacencySpec.from_matrix(random_primitive(128, seed=20261018))
        pf = sl.perron_frobenius(spec)
        with budget(cpu_s=2.0):
            v = sl.ergodicity_verdict(spec, pf, 3)
        assert v.verdict == NON_ERGODIC and v.witness == ((1, 1, 1),)
        with budget(traced_mib=64):
            assert sl.ergodicity_verdict(spec, pf, 3) == v


def _relabeled(mat, perm):
    """σAσ⁻¹ for σ = ``perm``: letter i of A (0-based) is letter perm[i]."""
    n = len(mat)
    b = [[0] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        b[perm[i]][perm[j]] = mat[i][j]
    return b


def _swept_at_a_cells(mat, perm, pf_rule, extra=()):
    """``_live_sweep`` on σAσ⁻¹ with, besides the PF rule's, the images of
    the cells (grid, i, j) of A in ``extra`` pre-zeroed; read back at A's
    cells: each cell's kind and the free classes as a partition of cells,
    since class letters are named by first appearance.  Inconsistent when
    the sweep raises it."""
    n = len(mat)
    spec = sl.AdjacencySpec.from_matrix(_relabeled(mat, perm))
    pf_codes = quantum._pf_codes

    def with_extra(pf, use_pf_rule):
        codes = pf_codes(pf, use_pf_rule)
        for g, i, j in extra:
            codes[g * n * n + perm[i] * n + perm[j]] = quantum._ZERO_VAR
        return codes

    with mock.patch.object(quantum, "_pf_codes", with_extra):
        try:
            pattern = quantum._live_sweep(spec, sl.perron_frobenius(spec), pf_rule)[0]
        except Inconsistent:
            return Inconsistent
    kinds, classes = {}, defaultdict(set)
    for g, grid in enumerate((pattern.p, pattern.q)):
        for i, j in itertools.product(range(n), repeat=2):
            cell = grid[perm[i]][perm[j]]
            kinds[g, i, j] = cell.kind
            if cell.kind == FREE:
                classes[cell.class_id].add((g, i, j))
    return kinds, set(map(frozenset, classes.values()))


def _verdicts(mat, perm):
    spec = sl.AdjacencySpec.from_matrix(_relabeled(mat, perm))
    pf = sl.perron_frobenius(spec)
    return [sl.ergodicity_verdict(spec, pf, k).verdict for k in (1, 2)]


class TestRelabeling:
    """Propagation on σAσ⁻¹ is propagation on A with its letters renamed
    by σ.  The witness of a verdict is the first word's component, and the
    first contradiction found hangs on the order of the equations, so
    neither is compared: with extra zeros, the relabeled sweep raised a
    different Inconsistent message in about one of eleven such systems."""

    @seed(20261024)
    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(primitive_matrices(max_n=7), primitive_circulants(max_n=7)),
        st.booleans(),
        st.data(),
    )
    def test_sweep_and_verdicts(self, mat, pf_rule, data):
        n = len(mat)
        perm = data.draw(st.permutations(range(n)))
        same = list(range(n))
        assert _swept_at_a_cells(mat, perm, pf_rule) == _swept_at_a_cells(
            mat, same, pf_rule
        )
        assert _verdicts(mat, perm) == _verdicts(mat, same)
        # a few more zeros: some of these systems are contradictory
        letter = st.integers(0, n - 1)
        cell = st.tuples(st.integers(0, 1), letter, letter)
        extra = data.draw(st.lists(cell, min_size=1, max_size=3))
        assert _swept_at_a_cells(mat, perm, pf_rule, extra) == _swept_at_a_cells(
            mat, same, pf_rule, extra
        )

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("pf_rule", [True, False])
    def test_seeded_graphs(self, n, pf_rule):
        mat = random_primitive(n, seed=20261018)
        perm = random.Random(n).sample(range(n), n)
        same = list(range(n))
        assert _swept_at_a_cells(mat, perm, pf_rule) == _swept_at_a_cells(
            mat, same, pf_rule
        )
        if pf_rule:
            assert _verdicts(mat, perm) == _verdicts(mat, same)


class TestTAAnalysis:
    def test_fibonacci_matrix_reproduced(self, fib):
        rep = sl.t_a_analysis(fib)
        expected = np.array(
            [
                [1, 1, 1, 1],
                [1, 1, 0, 0],
                [1, 0, 1, 0],
                [1, 0, 0, 0],
            ]
        )
        assert np.array_equal(rep.matrix, expected)

    def test_fibonacci_commutant_nontrivial(self, fib):
        rep = sl.t_a_analysis(fib)
        assert rep.order > 1
        # the only nontrivial commuting permutation swaps letters 2 and 3
        assert (1, 3, 2, 4) in rep.automorphisms

    def test_commuting_property(self, fib):
        rep = sl.t_a_analysis(fib)
        t = rep.matrix
        for perm in rep.automorphisms:
            for a in range(4):
                for b in range(4):
                    assert t[perm[a] - 1][perm[b] - 1] == t[a][b]

    def test_full_shift_brute_force(self, full2):
        rep = sl.t_a_analysis(full2)
        t = sl.quantum.t_a_matrix(full2)
        import itertools

        brute = [
            p
            for p in itertools.permutations(range(1, 5))
            if all(
                t[p[a] - 1][p[b] - 1] == t[a][b]
                for a in range(4)
                for b in range(4)
            )
        ]
        assert sorted(rep.automorphisms) == sorted(brute)

    def test_circulant_listing_is_bounded(self):
        # loops plus the 2-step 5-cycle: a group of order 20 on 25 letters,
        # whose backtracking leaves sit under many dead-end branches
        a = [[int((j - i) % 5 in (0, 2)) for j in range(5)] for i in range(5)]
        with budget(cpu_s=0.7):
            rep = sl.t_a_analysis(sl.AdjacencySpec.from_matrix(a))
        assert rep.order == 20

    def test_cap(self, monkeypatch):
        # S_49 is searched in about a thousand nodes; its order, 49!, is
        # over the listing cap, and the message names it exactly
        monkeypatch.delenv("ARIADNE_CAP", raising=False)
        spec = sl.AdjacencySpec.full_shift(7)
        message = rf"^group of order {math.factorial(49)} exceeds cap 1000000$"
        with pytest.raises(LengthOverflow, match=message):
            sl.t_a_analysis(spec)

    def test_matrix_over_cap_is_refused_before_it_is_built(self, monkeypatch):
        # 32^4 entries: the 1024 x 1024 matrix and its lists are never formed
        monkeypatch.delenv("ARIADNE_CAP", raising=False)
        monkeypatch.setattr(quantum, "t_a_matrix", None)
        message = r"^1048576 t-a matrix entries exceed cap 1000000$"
        with budget(cpu_s=0.5), pytest.raises(LengthOverflow, match=message):
            sl.t_a_analysis(sl.AdjacencySpec.full_shift(32))

    @pytest.mark.parametrize(
        "c",
        [(1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (0, 1, 1, 1, 0, 0)],
        ids=lambda c: "".join(map(str, c)),
    )
    def test_n6_circulants_in_under_a_second(self, c):
        # 36 letters, a group of order 24, and dead-end branches under
        # images that share a degree profile with the true ones
        a = [[c[(j - i) % 6] for j in range(6)] for i in range(6)]
        with budget(cpu_s=1.0):
            rep = sl.t_a_analysis(sl.AdjacencySpec.from_matrix(a))
        assert rep.order == 24

    def test_every_primitive_circulant_up_to_n7_is_bounded(self, monkeypatch):
        # 206 circulants with up to 49 letters: each lists its group, or
        # fails with a typed cap error, in under 2 s (about 2 s in all)
        monkeypatch.delenv("ARIADNE_CAP", raising=False)
        outcomes = {}
        for n in range(2, 8):
            for c in itertools.product((0, 1), repeat=n):
                a = [[c[(j - i) % n] for j in range(n)] for i in range(n)]
                if least_positive_power(a) is None:
                    continue
                with budget(cpu_s=2.0):
                    try:
                        outcome = sl.t_a_analysis(sl.AdjacencySpec.from_matrix(a)).order
                    except LengthOverflow as exc:
                        outcome = re.sub(r"\d+", "N", str(exc))
                outcomes[c] = outcome
        assert len(outcomes) == 206
        assert outcomes[(1, 1, 0, 0, 0, 0, 0)] == 28
        # only groups over the listing cap fail, none of them by the search
        # cap: the full 4- to 7-shifts and three n = 6 circulants
        failed = {c: v for c, v in outcomes.items() if not isinstance(v, int)}
        assert failed == dict.fromkeys(
            [
                (1, 1, 1, 1),
                (1, 1, 1, 1, 1),
                (0, 1, 1, 0, 1, 1),
                (1, 0, 1, 1, 0, 1),
                (1, 1, 0, 1, 1, 0),
                (1, 1, 1, 1, 1, 1),
                (1, 1, 1, 1, 1, 1, 1),
            ],
            "group of order N exceeds cap N",
        )

    def test_small_cap_stops_the_search(self, monkeypatch):
        # S_12 is searched in 77 nodes; loops plus the 7-cycle's 2401 t-a
        # entries are refused before its search (97 nodes) starts
        full12 = sl.AdjacencySpec.full_shift(12)
        a = [[int((j - i) % 7 in (0, 1)) for j in range(7)] for i in range(7)]
        monkeypatch.setenv("ARIADNE_CAP", "50")
        with pytest.raises(LengthOverflow, match=r"^search exceeds cap 50 nodes$"):
            sl.symmetry.generating_set(full12)
        with pytest.raises(LengthOverflow, match=r"^search exceeds cap 50 nodes$"):
            sl.automorphism_group(full12)
        with pytest.raises(LengthOverflow, match=r"^2401 t-a matrix entries"):
            sl.t_a_analysis(sl.AdjacencySpec.from_matrix(a))
        monkeypatch.setenv("ARIADNE_CAP", "77")
        assert len(sl.symmetry.generating_set(full12)) == 11
