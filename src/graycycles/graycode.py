"""Two-change Gray codes for fixed-weight m-ary words.

Orders all length-n words over {0..m-1} with digit sum k so that consecutive
words differ in exactly two positions: one digit rises by some amount and
another falls by the same amount (a single-position change would break the
weight).  The scheme is reflective: words are grouped by leading digit in
increasing order, and each group orders its tails the same way, emitted
forward or backward depending on the parity of the digits already fixed.
That parity rule is what makes every group boundary a two-position change.

Both ``gray_list`` (the full, capped list) and ``gray_stream`` (one word at
a time in O(n) memory) come from the iterative walker in ``words``.  The
tests check them against an independent recursive builder kept in
``tests/word_oracles.py``.  CLI ``gray`` calls neither: it writes the same
order as text from ``words._gray_blocks``, which spells each list of short
tails once and shares it, reversed for odd weights, among the heads.  The
endpoint formulas import the weight decomposition from ``existence`` when
they run, so CLI ``verify gray`` loads only ``words``, ``records`` and this
module.
"""

from __future__ import annotations

from . import _LAZY
from .records import _Record
from .words import (
    DEFAULT_MATERIALIZATION_CAP,
    Word,
    _check_ordering,
    _check_params,
    _walk,
    count_fixed_weight,
    format_word,
    is_word,
    weight,
)

TYPE_CHECKING = False  # typing serves type checkers only; see words
if TYPE_CHECKING:
    from typing import Iterator, Sequence

__all__ = _LAZY["graycode"]  # listed in the package, which loads this module lazily


class GrayList(_Record):
    """An ordering of the weight-k words for parameters (m, n, k)."""

    m: int
    n: int
    k: int
    words: tuple[Word, ...]

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)


class GrayReport(_Record):
    """Verifier verdict; ``first_violation`` is (index, description).

    The index points at the offending word or adjacent pair; -1 marks a
    whole-list violation such as a cardinality mismatch or an invalid m or n.
    """

    ok: bool
    first_violation: tuple[int, str] | None = None


def gray_list(
    m: int, n: int, k: int, *, cap: int = DEFAULT_MATERIALIZATION_CAP
) -> GrayList:
    """The full two-change ordering of the weight-k words of length n.

    Parameters outside 0 <= k <= (m-1)*n yield an empty list (the set is
    empty); m < 1 or n < 0 raise.  Lists longer than ``cap`` raise
    MaterializationLimitError; use gray_stream for those.
    """
    _check_ordering(m, n, k, cap)
    return GrayList(m, n, k, tuple(_walk(m, n, k, k, True)))


def gray_stream(m: int, n: int, k: int) -> Iterator[Word]:
    """Yield gray_list(m, n, k) one word at a time without building the list.

    Memory is O(n) regardless of how many words the parameters generate.
    Out-of-range k yields nothing; m < 1 or n < 0 raise on the first next().
    """
    _check_params(m, n)
    yield from _walk(m, n, k, k, True)


def _require_nonempty(m: int, n: int, k: int) -> None:
    """Raise ValueError unless the set holds a word; n = 0 holds the empty word.

    For m >= 1 and n >= 0 the count is nonzero exactly on this window of k,
    which, unlike the count, costs nothing for long words.
    """
    if m < 1 or n < 0 or not 0 <= k <= (m - 1) * n:
        raise ValueError(
            f"no weight-{k} words of length {n} over an alphabet of size {m}"
        )


def first_word(m: int, n: int, k: int) -> Word:
    """Head of the ordering, in closed form: 0...0 r (m-1)...(m-1).

    With k = q*(m-1) + r, 0 <= r < m-1: the weight is packed into q trailing
    maximal digits plus one remainder digit.  This is the lexicographic
    minimum of the set.
    """
    from .existence import weight_decomposition

    _require_nonempty(m, n, k)
    dec = weight_decomposition(k, m)
    if dec.q == n:  # k == (m-1)*n, no room for a remainder digit
        return (m - 1,) * n
    return (0,) * (n - dec.q - 1) + (dec.r,) + (m - 1,) * dec.q


def last_word(m: int, n: int, k: int) -> Word:
    """Tail of the ordering, in closed form.

    Let u = min(m-1, k) be the leading digit and split k - u as
    q'*(m-1) + r'.  The tail of the final group is its last element when u
    is even and, because odd groups run backward, its first element when u
    is odd:

        u (m-1)...(m-1) r' 0...0    (u even)
        u 0...0 r' (m-1)...(m-1)    (u odd)
    """
    from .existence import weight_decomposition

    _require_nonempty(m, n, k)
    if n <= 1:  # the empty word, or the one word (k,)
        return (k,) * n
    u = min(m - 1, k)
    dec = weight_decomposition(k - u, m)
    if dec.q == n - 1:  # tail weight saturates every remaining digit
        return (u,) + (m - 1,) * (n - 1)
    middle = (m - 1,) * dec.q + (dec.r,) + (0,) * (n - 2 - dec.q)
    if u % 2 == 1:
        middle = middle[::-1]
    return (u,) + middle


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of positions where the two words differ (equal lengths only)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a, b))


def verify_gray(words: Sequence[Word], m: int, n: int, k: int) -> GrayReport:
    """Check a claimed ordering of the weight-k words.

    Passes iff the list is a permutation of the full set and every adjacent
    pair differs in exactly two positions.  Cyclic closure is not required.
    The first failing word or pair is reported; distance 0 or 1 between
    neighbours is impossible for distinct fixed-weight words, so "exactly
    two" is the right test.  Words may be tuples, lists or a mix of both.
    """
    try:
        _check_params(m, n)
    except ValueError as exc:
        return GrayReport(False, (-1, str(exc)))
    seen: set[Word] = set()
    for i, w in enumerate(map(tuple, words)):
        if not is_word(w, m, n):
            return GrayReport(
                False, (i, f"word {format_word(w)} is not a length-{n} word over 0..{m - 1}")
            )
        if weight(w) != k:
            return GrayReport(
                False, (i, f"word {format_word(w, m)} has weight {weight(w)}, expected {k}")
            )
        if w in seen:
            return GrayReport(False, (i, f"duplicate word {format_word(w, m)}"))
        seen.add(w)
    expected = count_fixed_weight(m, n, k)
    if len(words) != expected:
        return GrayReport(False, (-1, f"{len(words)} words listed, but the set has {expected}"))
    for i in range(len(words) - 1):
        dist = hamming_distance(words[i], words[i + 1])
        if dist != 2:
            pair = f"adjacent words {format_word(words[i], m)} and {format_word(words[i + 1], m)}"
            return GrayReport(False, (i, f"{pair} differ in {dist} positions, expected 2"))
    return GrayReport(True)
