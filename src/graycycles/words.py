"""Words over {0, ..., m-1}: enumeration, counting, parameter checks, text forms.

A word is a plain tuple of ints, leftmost digit first, so lexicographic
order is just tuple order.  Every word order in the package comes from one
iterative walker, ``_walk``: the lexicographic enumerators here and the
reflected Gray order in ``graycode``.  Counts come from one closed form,
``_count_at_most``, the number of words of weight at most K, so a count is
a difference of two of its values.  Tests check both against brute-force,
recursive and dynamic-programming oracles kept in ``tests/``.

``_split`` cuts a word order into heads and shared tails.  ``_gray_blocks``
uses it to give CLI ``gray`` the reflected order as write-ready text blocks
of at least ``_CHUNK`` lines, each tail spelled once, and ``codes`` to
enumerate a set straight into the integer codes of the overlap-cycle engine.
``_check_ordering`` refuses an ordering over the cap, for ``gray_list`` and
CLI ``gray`` alike.

Every command imports this module, and without a bytecode cache compiles it
on each start, so it holds only the word-set core that ``gray`` and ``count``
run.  The block and rotation lemmas behind the existence theorems live in
``existence``, and the result records' base in ``records``.
"""

from __future__ import annotations

import math
from itertools import islice

# Annotations are strings (PEP 563); typing, which costs start-up time, is for type checkers.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Iterator, Sequence, TypeVar

    _T = TypeVar("_T")

Word = tuple[int, ...]

# Full-list operations refuse to materialize more words than this unless the
# caller raises the cap explicitly.  Streaming generators are exempt.
DEFAULT_MATERIALIZATION_CAP = 10**6

__all__ = [
    "Word",
    "DEFAULT_MATERIALIZATION_CAP",
    "MaterializationLimitError",
    "weight",
    "is_word",
    "iter_fixed_weight",
    "enumerate_fixed_weight",
    "count_fixed_weight",
    "iter_weight_range",
    "enumerate_weight_range",
    "count_weight_range",
    "format_word",
    "parse_word",
]


class MaterializationLimitError(Exception):
    """A full-list operation would exceed the configured word cap."""


def _check_params(
    m: int, n: int, *, s: int | None = None, p: int | None = None, q: int | None = None
) -> None:
    """Raise ValueError on the first bad parameter: m, then s, then n, then [p, q]."""
    if m < 1:
        raise ValueError(f"alphabet size m must be >= 1, got {m}")
    if s is not None:
        _check_overlap(n, s)
    if n < 0:
        raise ValueError(f"word length n must be >= 0, got {n}")
    if p is not None and not 0 <= p < q <= (m - 1) * n:
        raise ValueError(
            f"weight range requires 0 <= p < q <= (m-1)*n, got p={p}, q={q}"
        )


def _check_overlap(n: int, s: int) -> None:
    """Raise ValueError unless the overlap length s lies in 1..n-1."""
    if not 1 <= s < n:
        raise ValueError(f"overlap length s={s} out of range for n={n}")


def _check_cap(total: int, cap: int, head: str) -> None:
    """Refuse a set of more than ``cap`` words; ``head`` has ``{}`` for the count.

    ``Decimal`` writes the count exactly: its text has no int/str digit limit.
    """
    if total > cap:
        from decimal import Decimal  # imported on this error path only

        raise MaterializationLimitError(f"{head.format(Decimal(total))}, cap is {cap}")


def _check_ordering(m: int, n: int, k: int, cap: int) -> None:
    """Refuse an ordering of the weight-k words over ``cap`` words; the count checks m, n."""
    _check_cap(count_fixed_weight(m, n, k), cap, "ordering holds {} words")


def _walk(m: int, n: int, p: int, q: int, reflected: bool) -> Iterator[Word]:
    """Yield the length-n words over {0..m-1} with weight in [p, q].

    Ascending lexicographic order, or with ``reflected`` the two-change Gray
    order of ``graycode``: a position runs through its digits backward when
    the digits before it have an odd sum.  Each position keeps its digit,
    its step (+1 or -1), the digit it ends on, and the weight placed before
    it.  A successor step advances the last position that has not reached
    its end and restarts every position after it, so memory is O(n) and
    there is no recursion.

    For a fixed weight (p == q) and n >= 2 the last digit is forced by the
    others, so the last two positions are emitted as one run: position n-2
    goes through its digits, position n-1 takes the rest of the weight, and
    each word costs two cell writes.  The successor scan then starts at
    n-3.  Assumes m >= 1 and n >= 0; an empty window yields nothing.
    """
    top = m - 1
    if max(p, 0) > min(q, top * n):
        return
    pair = p == q and n >= 2
    stop = n - 2 if pair else n  # positions before stop are placed one by one
    digits = [0] * n
    step = [1] * n
    end = [0] * n
    before = [0] * n
    i, acc, back = 0, 0, False
    while True:
        while i < stop:
            hi = q - acc
            if hi == 0:  # no weight left: every later digit is 0
                digits[i:stop] = end[i:stop] = [0] * (stop - i)
                break
            if hi > top:
                hi = top
            # Smallest digit that leaves the tail positions able to reach p.
            lo = p - acc - top * (n - 1 - i)
            if lo < 0:
                lo = 0
            before[i] = acc
            if back:
                d, step[i], end[i] = hi, -1, lo
            else:
                d, step[i], end[i] = lo, 1, hi
            digits[i] = d
            acc += d
            if reflected and d & 1:
                back = not back
            i += 1
        if pair:
            rest = q - acc
            lo, hi = max(rest - top, 0), min(rest, top)
            for d in range(hi, lo - 1, -1) if back else range(lo, hi + 1):
                digits[-2] = d
                digits[-1] = rest - d
                yield tuple(digits)
        else:
            yield tuple(digits)
        i = stop - 1
        while i >= 0 and digits[i] == end[i]:
            i -= 1
        if i < 0:
            return
        d = digits[i] + step[i]
        digits[i] = d
        acc = before[i] + d
        back = step[i] < 0
        if reflected and d & 1:
            back = not back
        i += 1


def weight(word: Sequence[int]) -> int:
    """Sum of the word's digits."""
    return sum(word)


def is_word(word: Sequence[int], m: int, n: int) -> bool:
    """True iff ``word`` has length n and every digit lies in [0, m-1]."""
    return len(word) == n and all(0 <= d <= m - 1 for d in word)


def iter_fixed_weight(m: int, n: int, k: int) -> Iterator[Word]:
    """Yield every length-n word over {0..m-1} with digit sum k.

    Ascending lexicographic order.  Streams with O(n) memory, so it is not
    subject to the materialization cap.  Out-of-range k yields nothing.
    """
    _check_params(m, n)
    yield from _walk(m, n, k, k, False)


def enumerate_fixed_weight(
    m: int, n: int, k: int, *, cap: int = DEFAULT_MATERIALIZATION_CAP
) -> list[Word]:
    """All weight-k words of length n over {0..m-1}, lexicographically ascending.

    Raises MaterializationLimitError if the set holds more than ``cap`` words.
    """
    _check_set(m, n, k, None, cap)
    return list(_walk(m, n, k, k, False))


def _count_at_most(m: int, n: int, top: int) -> int:
    """Number of length-n words over {0..m-1} with weight at most ``top``.

    Inclusion-exclusion over the j digits forced to be at least m, each
    term summed over weights 0..top by the hockey-stick identity:
    sum over j of (-1)^j C(n, j) C(top - j*m + n, n).  It is 0 below
    weight 0 and m**n from weight (m-1)*n on, so a difference of two values
    is 0 for weights outside the set without a branch of its own.
    """
    if top < 0:
        return 0
    if top >= (m - 1) * n:
        return m**n
    return sum(
        (-1) ** j * math.comb(n, j) * math.comb(top - j * m + n, n)
        for j in range(min(n, top // m) + 1)
    )


def count_fixed_weight(m: int, n: int, k: int) -> int:
    """Number of length-n words over {0..m-1} with digit sum k, exactly."""
    _check_params(m, n)
    return _count_at_most(m, n, k) - _count_at_most(m, n, k - 1)


def iter_weight_range(m: int, n: int, p: int, q: int) -> Iterator[Word]:
    """Yield every length-n word whose weight lies in [p, q], lexicographically.

    Requires 0 <= p < q <= (m-1)*n.
    """
    _check_params(m, n, p=p, q=q)
    yield from _walk(m, n, p, q, False)


def enumerate_weight_range(
    m: int, n: int, p: int, q: int, *, cap: int = DEFAULT_MATERIALIZATION_CAP
) -> list[Word]:
    """All words with weight in [p, q], ascending; capped like the fixed case."""
    _check_set(m, n, p, q, cap)
    return list(_walk(m, n, p, q, False))


def count_weight_range(m: int, n: int, p: int, q: int) -> int:
    """Number of length-n words with weight in [p, q], exactly."""
    _check_params(m, n, p=p, q=q)
    return _count_at_most(m, n, q) - _count_at_most(m, n, p - 1)


def _check_set(m: int, n: int, p: int, q: int | None, cap: int) -> None:
    """Check a word set's parameters, then refuse it if it has over ``cap`` words.

    The set is the words of weight p (q is None) or of weight in [p, q]; its
    size is the exact count.
    """
    if q is None:
        _check_cap(count_fixed_weight(m, n, p), cap, f"set of weight-{p} words has {{}} elements")
    else:
        head = f"set of weight-[{p},{q}] words has {{}} elements"
        _check_cap(count_weight_range(m, n, p, q), cap, head)


def _split(
    m: int, n: int, t: int, p: int, q: int, reflected: bool, spell: Callable[[Word], _T]
) -> Iterator[tuple[Word, list[_T]]]:
    """Cut the ``_walk`` order of the words of weight in [p, q] after n-t digits.

    Yields (head, tails) per head: the heads are the length-(n-t) words
    whose weight a some tail can complete, in ``_walk`` order, and ``tails``
    lists ``spell(tail)`` for the length-t words with weight in [p-a, q-a],
    in the order the full walk takes them after that head; one list per a,
    walked once.  With ``reflected`` a head of odd weight starts its tails
    backward, and the reflected walk started backward is the forward walk
    reversed (by induction on t: each digit's run of tails flips, and the
    digits come in reverse).  Only heads and tails that some word uses are
    listed, so the work is O(number of words).
    """
    tails: dict[int, list[_T]] = {}
    for head in _walk(m, n - t, p - (m - 1) * t, q, reflected):
        a = sum(head)
        if a not in tails:
            tails[a] = [spell(w) for w in _walk(m, t, p - a, q - a, reflected)]
            if reflected and a & 1:
                tails[a].reverse()
        yield head, tails[a]


# The tail table of ``_gray_blocks`` holds at most this many lines.
_TAIL_LINES = 4096
# Every block of ``_gray_blocks`` but the last holds at least this many lines.
_CHUNK = 1024


def _gray_blocks(m: int, n: int, k: int) -> Iterator[str]:
    """The reflected Gray order of the weight-k words as text blocks.

    Each block is words in their text form, each line ending in a newline,
    and every block but the last has at least ``_CHUNK`` lines, so one write
    per block costs the same whether stdout is buffered or not.  ``_split``
    cuts the words after n-t digits, with t <= n the longest tail whose m**t
    tails fit in ``_TAIL_LINES`` lines (13 digits for m = 1), so the tail
    table holds at most that many lines of t digits.  Each head's text is
    joined to its tails in one pass.  A one-digit tail is forced by its
    head, so below t = 2 (n <= 1, or m**2 over ``_TAIL_LINES``) nothing is
    shared and the walker's words are formatted one by one.  m < 1 or n < 0
    raise on the first next(); out-of-range k yields nothing.
    """
    _check_params(m, n)
    t = min(n, _TAIL_LINES.bit_length())
    while m**t > _TAIL_LINES:
        t -= 1
    if t < 2:
        walk = _walk(m, n, k, k, True)
        while words := list(islice(walk, _CHUNK)):
            yield "".join([format_word(w, m) + "\n" for w in words])
        return
    sep = "," if m > 10 and t < n else ""  # between head and tail digits
    block, lines = [], 0
    for head, tails in _split(m, n, t, k, k, True, lambda w: format_word(w, m)):
        text = format_word(head, m) + sep
        block.append(text + ("\n" + text).join(tails) + "\n")
        lines += len(tails)
        if lines >= _CHUNK:
            yield "".join(block)
            block, lines = [], 0
    if block:
        yield "".join(block)


# Byte d in 0..9 becomes ASCII digit d; every other byte becomes 0xFF.  A
# translated word is all digits iff every digit lies in 0..9.  It also spells
# the overlap-cycle engine's digit columns (``codes._byte_table``).
_DIGIT_TABLE = b"0123456789".ljust(256, b"\xff")


def format_word(word: Sequence[int], m: int | None = None) -> str:
    """Text form of a word: digits concatenated, or comma-separated values.

    Alphabets of size at most 10 concatenate single digits ("0122"); larger
    alphabets separate decimal values with commas ("0,1,11,2").  When m is
    not supplied the form is inferred from the digits present.
    """
    if m is None or m <= 10:
        # Digits 0..9 take one table lookup each.  Sequences other than
        # tuples, lists and bytes skip this: bytes() would copy a buffer
        # such as an array('i') as raw memory, not digit by digit.  bytes()
        # refuses digits that are not ints, such as 1.0, with a TypeError.
        if isinstance(word, (tuple, list)) and word and min(word) >= 0 and max(word) <= 9:
            try:
                return bytes(word).translate(_DIGIT_TABLE).decode("ascii")
            except TypeError:
                pass
        if isinstance(word, bytes):
            text = word.translate(_DIGIT_TABLE)
            if text.isdigit():
                return text.decode("ascii")
            if m is None:  # a digit in 10..255, or no digit at all
                m = 11
    if m is None:
        m = 11 if max(word, default=0) > 9 else 10
    return ("," if m > 10 else "").join(map(str, word))


def parse_word(text: str) -> Word:
    """Inverse of format_word; accepts both text forms.

    Each digit, or each comma-separated value once stripped, must be a run
    of ASCII digits: no sign, no underscore, no other script's digits.
    """
    stripped = text.strip()
    if not stripped:
        return ()
    parts = [p.strip() for p in stripped.split(",")] if "," in stripped else stripped
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"cannot parse word from {text!r}")
    return tuple(map(int, parts))
