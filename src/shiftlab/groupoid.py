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
    EMPTY_WORD,
    enumerate_words,
    is_admissible,
    word_cap,
)
from .errors import LastLetterMismatch, LengthOverflow, NotAdmissible


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
    spec: AdjacencySpec, r_len: int, s_len: int, cap: int | None = None
) -> list[BisectionIndex]:
    """All indices with the given word lengths, lexicographically sorted."""
    if r_len < 0 or s_len < 1:
        raise ValueError("need r_len >= 0 and s_len >= 1")
    limit = word_cap(cap)
    if count_bisections(spec, r_len, s_len) > limit:
        raise LengthOverflow(
            f"bisection count at ({r_len}, {s_len}) exceeds cap {limit}"
        )
    out = []
    s_words = enumerate_words(spec, s_len, cap)
    if r_len == 0:
        return [BisectionIndex(EMPTY_WORD, s) for s in s_words]
    for r in enumerate_words(spec, r_len, cap):
        for s in s_words:
            if spec.a[r[-1] - 1][s[-1] - 1] and (s_len == 1 or r[-1] != s[-2]):
                out.append(BisectionIndex(r, s))
    return out


def _ending_counts(spec: AdjacencySpec, length: int) -> list[int]:
    """Number of admissible words of a length ending at each letter."""
    counts = [1] * spec.n
    for _ in range(length - 1):
        counts = [
            sum(counts[i] * spec.a[i][j] for i in range(spec.n))
            for j in range(spec.n)
        ]
    return counts


def count_bisections_by_letter(
    spec: AdjacencySpec, r_len: int, s_len: int
) -> list[int]:
    """Number of indices with the given word lengths, per last letter of s.

    Splits on the last letter a of r and the last two letters c, b of s;
    the interior letters contribute ending-count factors.  For each b the
    pairs (a, c) of predecessors of b are counted as a product of two sums
    minus the clashing pairs a == c.
    """
    if r_len < 0 or s_len < 1:
        raise ValueError("need r_len >= 0 and s_len >= 1")
    n = spec.n
    if r_len == 0:
        return _ending_counts(spec, s_len)
    r_ends = _ending_counts(spec, r_len)
    preds = [[a for a in range(n) if spec.a[a][b]] for b in range(n)]
    if s_len == 1:
        return [sum(r_ends[a] for a in pre) for pre in preds]
    s_inner = _ending_counts(spec, s_len - 1)
    return [
        sum(r_ends[a] for a in pre) * sum(s_inner[c] for c in pre)
        - sum(r_ends[a] * s_inner[a] for a in pre)
        for pre in preds
    ]


def count_bisections(spec: AdjacencySpec, r_len: int, s_len: int) -> int:
    """Dynamic-programming count matching :func:`enumerate_bisections`."""
    return sum(count_bisections_by_letter(spec, r_len, s_len))


def bisections_with_length(
    spec: AdjacencySpec, length: int, cap: int | None = None
) -> list[BisectionIndex]:
    """All indices with |r| + |s| == length, ordered by (|r|,|s|) then lex."""
    if length < 1:
        raise ValueError("length must be >= 1")
    out: list[BisectionIndex] = []
    for r_len in range(length):
        out.extend(enumerate_bisections(spec, r_len, length - r_len, cap))
    return out


def bisections_up_to(
    spec: AdjacencySpec, max_length: int, cap: int | None = None
) -> list[BisectionIndex]:
    out: list[BisectionIndex] = []
    for length in range(1, max_length + 1):
        out.extend(bisections_with_length(spec, length, cap))
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


def relative_cell(gamma: BisectionIndex, alpha: Word, beta: Word) -> Word:
    """Extension nu with (alpha, beta) == (r + s_last + nu, s + nu)."""
    s = gamma.s_word
    return beta[len(s):]
