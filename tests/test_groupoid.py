from collections import Counter

import pytest
from hypothesis import given, seed, settings

import shiftlab as sl
from shiftlab.core import ending_table
from shiftlab.groupoid import (
    BisectionIndex,
    bisections_with_length,
    common_suffix_length,
    count_bisections_by_letter,
)
from shiftlab.errors import LastLetterMismatch
from conftest import primitive_matrices
from oracles import loop_index_counts, relative_cell


class TestMembership:
    def test_empty_r_always_member(self, fib):
        for s in sl.enumerate_words(fib, 3):
            assert sl.is_bisection_index(fib, (), s)

    def test_fibonacci_forbidden_junction(self, fib):
        # junction letter pair must be an edge: A[2,2] = 0
        assert not sl.is_bisection_index(fib, (2,), (2,))
        assert sl.is_bisection_index(fib, (2,), (1,))

    def test_exclusion_condition(self, full2):
        # r_last equal to the letter before s_last is excluded
        assert not sl.is_bisection_index(full2, (1,), (1, 1))
        assert sl.is_bisection_index(full2, (2,), (1, 1))

    def test_exclusion_vacuous_for_single_letter_s(self, full2):
        # the letter before a one-letter s-word is the empty word
        assert sl.is_bisection_index(full2, (1,), (1,))

    def test_inadmissible_words_false_not_error(self, fib):
        assert not sl.is_bisection_index(fib, (2, 2), (1,))
        assert not sl.is_bisection_index(fib, (), (2, 2))


class TestCounting:
    def test_full_shift_one_per_letter(self, full2):
        assert sl.count_bisections(full2, 0, 1) == 2

    def test_full_shift_r1_s1_square(self, full2):
        # exclusion vacuous at one-letter s: all N^2 pairs
        assert sl.count_bisections(full2, 1, 1) == 4
        assert len(sl.enumerate_bisections(full2, 1, 1)) == 4

    def test_fibonacci_r1_s2_brute_force(self, fib):
        got = sl.count_bisections(fib, 1, 2)
        brute = [
            (r, s)
            for r in sl.enumerate_words(fib, 1)
            for s in sl.enumerate_words(fib, 2)
            if fib.a[r[-1] - 1][s[-1] - 1] and r[-1] != s[0]
        ]
        assert got == len(brute) == len(sl.enumerate_bisections(fib, 1, 2))

    @pytest.mark.parametrize("total", range(1, 9))
    def test_dp_matches_enumeration(self, total, fib, full2):
        for spec in (fib, full2):
            for r_len in range(total):
                s_len = total - r_len
                assert sl.count_bisections(spec, r_len, s_len) == len(
                    sl.enumerate_bisections(spec, r_len, s_len)
                )

    @seed(20261019)
    @settings(max_examples=40, deadline=None)
    @given(primitive_matrices(max_n=6))
    def test_per_letter_counts_match_enumeration_and_three_cases(self, mat):
        spec = sl.AdjacencySpec.from_matrix(mat)
        ends = ending_table(spec, 40)
        for r_len in range(5):
            for s_len in range(1, 5):
                # the enumeration scans every (r, s) pair: a bound on its time
                if sl.count_words(spec, r_len) * sl.count_words(spec, s_len) > 100_000:
                    continue
                last = Counter(
                    g.s_word[-1] for g in sl.enumerate_bisections(spec, r_len, s_len)
                )
                want = [last[b] for b in range(1, spec.n + 1)]
                assert count_bisections_by_letter(spec, ends, r_len, s_len) == want
        # exact ints, past int64 on the denser graphs
        for total in range(1, 41):
            for s_len in range(1, total + 1):
                got = count_bisections_by_letter(spec, ends, total - s_len, s_len)
                assert got == loop_index_counts(spec, total - s_len, s_len)

    def test_enumeration_ordering(self, fib):
        for length in (2, 3):
            gammas = bisections_with_length(fib, length)
            keys = [
                (len(g.r_word), len(g.s_word), g.r_word, g.s_word)
                for g in gammas
            ]
            assert keys == sorted(keys)


class TestDerivedData:
    def test_fock_indices(self, fib):
        for g in sl.enumerate_bisections(fib, 2, 1):
            assert g.is_fock
            assert g.kappa == 0
            assert g.length_L == len(g.r_word) + 1
        for g in sl.enumerate_bisections(fib, 0, 2):
            assert not g.is_fock

    def test_kappa_cocycle(self):
        g = BisectionIndex((1, 2), (2, 1, 1))
        assert g.kappa == 2
        assert g.cocycle == 0
        assert g.length_L == 5


class TestSupportDecomposition:
    def test_equal_words_give_fock_with_first_letter(self, full2):
        g = sl.support_decomposition(full2, (2, 1), (2, 1))
        assert g.r_word == ()
        assert g.s_word == (2,)

    def test_spec_example_full_shift(self, full2):
        g = sl.support_decomposition(full2, (1, 2), (2,))
        assert (g.r_word, g.s_word) == ((1,), (2,))

    def test_r_collapses_to_empty(self, full2):
        g = sl.support_decomposition(full2, (1,), (2, 1))
        assert (g.r_word, g.s_word) == ((), (2, 1))

    def test_mismatch_raises(self, full2):
        with pytest.raises(LastLetterMismatch):
            sl.support_decomposition(full2, (1,), (2,))

    def test_partition_property(self, fib, full2):
        # every matching-last-letter pair lands in a valid index whose
        # derived lag and return depth match the pair's own data
        for spec in (fib, full2):
            for la in range(1, 6):
                for lb in range(1, 6):
                    for a in sl.enumerate_words(spec, la):
                        for b in sl.enumerate_words(spec, lb):
                            if a[-1] != b[-1]:
                                continue
                            g = sl.support_decomposition(spec, a, b)
                            w = common_suffix_length(a, b)
                            assert sl.is_bisection_index(
                                spec, g.r_word, g.s_word
                            )
                            assert g.cocycle == len(a) - len(b)
                            assert g.kappa == len(b) - w
                            nu = relative_cell(g, a, b)
                            assert g.s_word + nu == b
                            assert g.r_word + (g.s_word[-1],) + nu == a
