"""Combinatorial skeleton of the shift groupoid: indexed clopen bisections.

A bisection index is a pair gamma = r.s of admissible words (r possibly
empty, s never).  For nonempty r the pair must satisfy A[r_last, s_last]=1
and r_last != s[-2]; the second condition is vacuous when len(s) == 1
(the "letter before the last" of a one-letter word is the empty word, so
nothing can clash with it).  Indices with len(s) == 1 are the distinguished
finite-word ("Fock") indices.

Bisections are never materialized as point sets: each one is homeomorphic
to the cylinder of its s-word, so every measure/operator computation
happens on that cylinder.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    AdjacencySpec,
    Word,
    charge,
    ending_table,
    enumerate_words,
    is_admissible,
)
from .errors import LastLetterMismatch, NotAdmissible


@dataclass(frozen=True, order=True)
class BisectionIndex:
    r_word: Word
    s_word: Word

    @property
    def kappa(self) -> int:
        return len(self.s_word) - 1

    @property
    def cocycle(self) -> int:
        return len(self.r_word) - len(self.s_word) + 1

    @property
    def length_L(self) -> int:
        return len(self.r_word) + len(self.s_word)

    @property
    def is_fock(self) -> bool:
        """Finite-word index: one-letter s-word."""
        return len(self.s_word) == 1

    def __str__(self) -> str:
        r = "".join(map(str, self.r_word)) or "-"
        s = "".join(map(str, self.s_word))
        return f"{r}.{s}"


def is_bisection_index(spec: AdjacencySpec, r: Word, s: Word) -> bool:
    """Membership test; returns False (never raises) on inadmissible words."""
    if not s:
        return False
    if not (is_admissible(spec, r) and is_admissible(spec, s)):
        return False
    if not r:
        return True
    if not spec.a[r[-1] - 1][s[-1] - 1]:
        return False
    return len(s) == 1 or r[-1] != s[-2]


def make_bisection(spec: AdjacencySpec, r: Word, s: Word) -> BisectionIndex:
    if not is_bisection_index(spec, r, s):
        raise NotAdmissible(f"({r}, {s}) is not a bisection index")
    return BisectionIndex(r_word=r, s_word=s)


def enumerate_bisections(
    spec: AdjacencySpec, r_len: int, s_len: int
) -> list[BisectionIndex]:
    """All indices with the given word lengths, lexicographically sorted."""
    count = count_bisections(spec, r_len, s_len)  # refuses bad lengths
    charge(count, "bisection count at {at} exceeds cap {cap}", at=(r_len, s_len))
    out = []
    s_words = enumerate_words(spec, s_len)
    for r in enumerate_words(spec, r_len):
        for s in s_words:
            if not r or (spec.a[r[-1] - 1][s[-1] - 1] and (s_len == 1 or r[-1] != s[-2])):
                out.append(BisectionIndex(r, s))
    return out


def count_bisections_by_letter(
    spec: AdjacencySpec, ends: list[list[int]], r_len: int, s_len: int
) -> list[int]:
    """Number of indices with the given word lengths, per last letter b of s,
    read from ``ends``, an :func:`~shiftlab.core.ending_table` to at least
    r_len + 1 and s_len.

    r followed by b is a word of length r_len + 1 ending in b, and s one of
    length s_len ending in b; of these pairs, the clashes are those whose r
    ends at the letter a before s's last, a predecessor of b.  With ends[0]
    zero, an empty r or a one-letter s has no clash.
    """
    if r_len < 0 or s_len < 1:
        raise ValueError("need r_len >= 0 and s_len >= 1")
    return [
        ends[r_len + 1][b] * ends[s_len][b]
        - sum(ends[r_len][a - 1] * ends[s_len - 1][a - 1] for a in pre)
        for b, pre in enumerate(spec._predecessors)
    ]


def count_bisections(spec: AdjacencySpec, r_len: int, s_len: int) -> int:
    """Dynamic-programming count matching :func:`enumerate_bisections`."""
    ends = ending_table(spec, max(r_len + 1, s_len))
    return sum(count_bisections_by_letter(spec, ends, r_len, s_len))


def bisections_with_length(spec: AdjacencySpec, length: int) -> list[BisectionIndex]:
    """All indices with |r| + |s| == length, ordered by (|r|,|s|) then lex."""
    if length < 1:
        raise ValueError("length must be >= 1")
    out: list[BisectionIndex] = []
    for r_len in range(length):
        out.extend(enumerate_bisections(spec, r_len, length - r_len))
    return out


def bisections_up_to(spec: AdjacencySpec, max_length: int) -> list[BisectionIndex]:
    out: list[BisectionIndex] = []
    for length in range(1, max_length + 1):
        out.extend(bisections_with_length(spec, length))
    return out


def common_suffix_length(a: Word, b: Word) -> int:
    w = 0
    while w < len(a) and w < len(b) and a[-1 - w] == b[-1 - w]:
        w += 1
    return w


def support_decomposition(
    spec: AdjacencySpec, alpha: Word, beta: Word
) -> BisectionIndex:
    """Bisection carrying the support of the (alpha, beta) pair.

    With w the longest common suffix length, the index is
    (alpha[:len(alpha)-w], beta[:len(beta)-w+1]); r collapses to the empty
    word when the suffix swallows all of alpha.
    """
    if not alpha or not beta:
        raise LastLetterMismatch("both words must be nonempty")
    if alpha[-1] != beta[-1]:
        raise LastLetterMismatch(
            f"last letters differ: {alpha[-1]} != {beta[-1]}"
        )
    for word in (alpha, beta):
        if not is_admissible(spec, word):
            raise NotAdmissible(f"word {word} is not admissible")
    w = common_suffix_length(alpha, beta)
    r = alpha[: len(alpha) - w]
    s = beta[: len(beta) - w + 1]
    return make_bisection(spec, r, s)

