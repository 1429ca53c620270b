"""The overlap-cycle engine's word coding and text.

Each word is an int whose fixed-width bit fields hold its digits less the
smallest one, so numeric order is word order and prefixes and suffixes are
shifts and masks.  Codes of up to 64 bits sit in machine words, in bytes of
their own seen through a read-only view, wider ones in a tuple of ints
(``_Codes``).  CLI ``ocycle`` and ``digraph`` enumerate their sets straight
into codes (``_word_codes``); tuple words given to the library are coded
once on entry, by the one coder ``_code``, and decoded once on exit.  Words
are decoded through tables of chunk codes of at most ``_TAIL_LINES``
entries.  Where fields have at most 4 bits or 8, digits are read from the
codes' memory a position at a time, one block of codes at a time
(``_columns``).  One speller, ``_spelled``, writes a cycle's text a block at
a time: from that memory where every digit lies in 0..9, else decoded
through ``format_word``.

This module is private: ``ocycles`` holds the engine and imports what it
needs from here.  Without a bytecode cache every ``ocycle`` start compiles
both, and compiling two halves peaks lower than compiling one whole.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from io import BytesIO
from itertools import chain, compress, count, islice, product, repeat
from operator import add, ge, itemgetter, ne

from .records import _Record
from .words import _TAIL_LINES, DEFAULT_MATERIALIZATION_CAP, Word, _check_set, _split, format_word

TYPE_CHECKING = False  # typing serves type checkers only; see words
if TYPE_CHECKING:
    from typing import Callable, Iterable, Iterator, Sequence

# The smallest unsigned array type that holds b bits, for b in 0..64.
_ARRAY_TYPE = [next(code for code in "BHIQ" if array(code).itemsize * 8 >= b) for b in range(65)]

_LITTLE_ENDIAN = sys.byteorder == "little"

# A chunk table spells at most this many bits of digit fields: _TAIL_LINES entries.
_CHUNK_BITS = _TAIL_LINES.bit_length() - 1


def _frozen(blocks: Iterable[array], kind: str) -> memoryview:
    """The blocks' codes, in order, as a read-only view of ``bytes`` of their own.

    The bytes grow a block at a time, so no whole array of the codes need be
    held beside them.
    """
    out = BytesIO()
    out.writelines(blocks)
    return memoryview(out.getvalue()).cast(kind)


def _popped(codes: array) -> Iterator[array]:
    """The array's codes a block at a time, first to last, as it shrinks to empty."""
    codes.reverse()
    while codes:
        yield codes[:-_TAIL_LINES - 1:-1]
        del codes[-_TAIL_LINES:]


class _Codes:
    """Codes of words of one length ``n``, in ascending or cycle order.

    Digit d of a word fills a ``width``-bit field with d - ``low``, first
    digit highest, so numeric order is word order, the first j digits of
    code c are ``c >> width*(n-j)`` and the last j are
    ``c & ((1 << width*j) - 1)``.  ``raw`` holds the codes: when n*width is
    at most 64, a ``memoryview`` of machine words of the smallest unsigned
    type that fits, over ``bytes`` of their own, else a tuple of ints.
    The bytes are filled a block at a time (``_frozen``): from what is
    given, or from an array the engine hands to ``taken``.  ``tuples`` marks
    codes made from tuple words, which the engine hands back as tuples.
    Immutable and hashable, like a tuple of words.
    """

    __slots__ = ("raw", "n", "width", "low", "tuples")
    __setattr__ = _Record.__setattr__
    __delattr__ = _Record.__delattr__

    def __init__(
        self, codes: Iterable[int], n: int, width: int, low: int = 0, tuples: bool = False
    ):
        if n * width > 64:
            raw = tuple(codes)
        else:
            kind = _ARRAY_TYPE[n * width]
            raw = _frozen(_popped(array(kind, codes)), kind)
        self._set(raw, n, width, low, tuples)

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.raw)

    def __iter__(self) -> Iterator[int]:
        return iter(self.raw)

    def __getitem__(self, index: int) -> int:
        return self.raw[index]

    def __eq__(self, other: object) -> bool:
        if type(other) is not _Codes:
            return NotImplemented
        return self._coding() == other._coding() and self.raw == other.raw

    def __hash__(self) -> int:
        raw = self.raw
        return hash((self._coding(), raw if type(raw) is tuple else raw.obj))

    def __repr__(self) -> str:
        return repr(tuple(self.raw))

    def _coding(self) -> tuple[int, int, int]:
        return self.n, self.width, self.low

    def like(self, codes: Iterable[int]) -> _Codes:
        """Other codes in this coding, marked like these."""
        return _Codes(codes, self.n, self.width, self.low, self.tuples)

    def taken(self, codes: array | list[int]) -> _Codes:
        """``like``, for a sequence the engine builds (``empty``) and hands on.

        An array's codes move into the new codes' bytes and it is left empty,
        so the two never both hold all of them.
        """
        if type(codes) is not array:
            return self.like(codes)
        taken = object.__new__(_Codes)
        taken._set(_frozen(_popped(codes), codes.typecode), *self._coding(), self.tuples)
        return taken

    def empty(self) -> array | list[int]:
        """A new growable sequence for these codes: an array of their type, or a list."""
        raw = self.raw
        return [] if type(raw) is tuple else array(raw.format)

    def in_bytes(self) -> bool:
        """Whether ``_columns`` can read these codes: an array whose digits fit bytes."""
        width = self.width
        return (type(self.raw) is not tuple and (width <= 4 or width == 8)
                and 0 <= self.low <= 256 - (1 << width))

    def digits(self) -> Iterator[Word]:
        """Each word's digits as a tuple, in order, spelled chunk by chunk (``_table``)."""
        raw, width, low = self.raw, self.width, self.low
        chunks = _fields(raw, self.n, width)
        if not chunks:  # words of length 0
            return repeat((), len(raw))
        columns = [map(_table(t, width, low), fields) for t, fields in chunks]
        if len(columns) > 3:  # long words: one flat call per word, not nested adds
            return map(tuple, map(chain, *columns))
        words = columns[0]
        for column in columns[1:]:
            words = map(add, words, column)
        return words


@lru_cache(maxsize=32)
def _table(size: int, width: int, low: int) -> Callable[[int], Word]:
    """The digits of each code of ``size`` digit fields, as a lookup function.

    A table holds one tuple per code, at most 2**_CHUNK_BITS; a digit wider
    than that has no table and is decoded one code at a time.
    """
    if size * width > _CHUNK_BITS:  # size is 1
        return lambda v: (v + low,)
    return list(product(range(low, low + (1 << width)), repeat=size)).__getitem__


def _fields(codes: Sequence[int], n: int, width: int) -> list[tuple[int, Iterator[int]]]:
    """Each code's n digit fields, cut into chunks.

    (t, fields) per chunk of t digits, first digits first: ``fields`` gives
    the chunk's t fields of every code in ``codes``, in order, as one code.
    A chunk takes as many digits as a table of ``_CHUNK_BITS`` bits allows,
    and at least one.
    """
    size = max(1, _CHUNK_BITS // width)
    chunks = []
    for start in range(0, n, size):
        t = min(size, n - start)
        shift = width * (n - start - t)
        fields = map(shift.__rrshift__, codes) if shift else iter(codes)
        if start:
            fields = map(((1 << width * t) - 1).__and__, fields)
        chunks.append((t, fields))
    return chunks


@lru_cache(maxsize=128)
def _byte_table(shift: int, width: int, low: int | None) -> bytes:
    """``bytes.translate`` table: byte b to its field at ``shift`` (``low`` None) or its digit.

    The digit, in ASCII, is the field plus ``low``; one over 9 becomes 0xFF.
    """
    fields = (b >> shift & (1 << width) - 1 for b in range(256))
    if low is None:
        return bytes(fields)
    return bytes(48 + low + f if low + f <= 9 else 0xFF for f in fields)


def _columns(block: memoryview, n: int, width: int, low: int | None) -> Callable[[int], bytes]:
    """A reader of digit p of every code in ``block``: a strided slice of its bytes, translated.

    See ``_Codes.in_bytes`` and ``_byte_table``.  A 3-bit field that crosses
    a byte boundary lies inside a byte of the codes shifted right by 4.
    Callers pass blocks of at most ``_TAIL_LINES`` codes and one more, as the
    reader copies its block's bytes.
    """
    size, memory = block.itemsize, [block.tobytes()]

    def column(p: int) -> bytes:
        low_bit, view = width * (n - 1 - p), 0
        if low_bit % 8 + width > 8:
            if len(memory) == 1:
                memory.append(array(block.format, map((4).__rrshift__, block)).tobytes())
            low_bit, view = low_bit - 4, 1
        byte = low_bit // 8 if _LITTLE_ENDIAN else size - 1 - low_bit // 8
        return memory[view][byte::size].translate(_byte_table(low_bit % 8, width, low))

    return column


def _ascii(block: memoryview, n: int, lead: int, width: int, low: int, end: bytes) -> bytearray:
    """The first ``lead`` digits of each code in ``block`` as ASCII, then ``end``.

    Each digit position is one column (``_columns``) and one strided slice
    assignment.  A digit outside 0..9 gives byte 0xFF, not an ASCII digit.
    """
    step, column = lead + len(end), _columns(block, n, width, low)
    text = bytearray(step * len(block))
    for p in range(lead):
        text[p::step] = column(p)
    if end:
        text[lead::step] = end * len(block)
    return text


@lru_cache(maxsize=32)
def _base_table(width: int, low: int) -> bytes:
    """``bytes.translate`` table: byte low + f to digit f of base 2**width, as ``int`` reads it."""
    digits = b"0123456789abcdefghijklmnopqrstuv"[:1 << width]  # width <= 5
    return bytes(low) + digits + bytes(256 - low - len(digits))


def _code(word: Sequence[int], width: int, low: int = 0) -> int:
    """The code of one word whose digits less ``low`` fit in ``width`` bits.

    Fields of at most 5 bits over digits in 0..255 are read in C: ``bytes``,
    ``_base_table``, ``int``.  Others, and the empty word, go digit by digit.
    """
    if word and width <= 5 and 0 <= low <= 256 - (1 << width):
        return int(bytes(word).translate(_base_table(width, low)), 1 << width)
    code = 0
    for d in word:
        code = code << width | d - low
    return code


def _encode(words: Sequence[Sequence[int]], n: int) -> _Codes:
    """The codes of words of length n, in their order, marked as tuple words.

    Each digit less the smallest fills just enough bits for the largest, and at least one.
    """
    low = top = 0
    if n and words:  # words of length 0 have no digits
        digits = set(chain.from_iterable(words))
        low, top = min(digits), max(digits)
    width = (top - low).bit_length() or 1
    return _Codes(map(_code, words, repeat(width), repeat(low)), n, width, low, True)


def _misfit(words: Sequence[Sequence[int]], n: int) -> int | None:
    """Index of the first word whose length is not n, or None."""
    return next(compress(count(), map(ne, map(len, words), repeat(n))), None)


def _codes(m: int, n: int, p: int, q: int) -> _Codes:
    """Codes of the length-n words over {0..m-1} with weight in [p, q], ascending.

    Each digit fills (m-1).bit_length() bits, and at least one.  Needs
    m >= 1 and n >= 0; an empty window gives no codes.  Each word is cut
    after n//2 digits by ``_split``, and each word costs one addition: head
    code shifted past the tail, plus tail code.
    """
    width = (m - 1).bit_length() or 1
    t = n - n // 2
    heads = _split(m, n, t, p, q, False, lambda w: _code(w, width))
    return _Codes(chain.from_iterable(
        map((_code(head, width) << width * t).__add__, lasts) for head, lasts in heads
    ), n, width)


def _word_codes(
    m: int, n: int, p: int, q: int | None, *, cap: int = DEFAULT_MATERIALIZATION_CAP
) -> _Codes:
    """The codes (``_codes``) of the words of weight p (q is None) or in [p, q].

    Checked and capped as ``enumerate_fixed_weight`` and
    ``enumerate_weight_range`` do; this is the CLI's one source of word sets
    for ``ocycle`` and ``digraph``.
    """
    _check_set(m, n, p, q, cap)
    return _codes(m, n, p, p if q is None else q)


def _repeats(raw: Sequence[int], bits: int) -> bool:
    """Whether the codes ``raw``, of ``bits`` bits each, hold some code twice.

    Found on sorted copies.  An array of ``_TAIL_LINES`` codes or more is split
    by their highest whole byte, one array per value, as equal codes share it.
    The keys are read a block of codes at a time, so no copy of all the codes'
    bytes is made.
    """
    groups = [raw]
    if type(raw) is not tuple and len(raw) >= _TAIL_LINES:
        size, byte = raw.itemsize, max(0, bits - 8) // 8
        key = slice(byte if _LITTLE_ENDIAN else size - 1 - byte, None, size)
        starts = range(0, len(raw), _TAIL_LINES)
        keys = b"".join([raw[i:i + _TAIL_LINES].tobytes()[key] for i in starts])
        if keys.count(keys[0]) < len(keys):  # else the codes are their own group
            groups = [array(raw.format) for _ in range(256)]
            any(map(array.append, map(groups.__getitem__, keys), raw))
    # One group's sorted copy is alive at a time; a repeat stops its ascent.
    return any(any(map(ge, ordered, islice(ordered, 1, None))) for ordered in map(sorted, groups))


def _spelled(cycle: _Codes, lead: int, end: str, m: int) -> Iterator[str]:
    """The first ``lead`` digits of each code, then ``end``, a block of ``_TAIL_LINES`` at a time.

    Digits are spelled as ``format_word`` spells them over m; with no ``end``
    the heads join into one word.  Over m <= 10, codes that ``in_bytes`` are
    spelled from the array's memory (``_ascii``), others decoded a block at a time.
    """
    raw, n, width, low = cycle.raw, cycle.n, cycle.width, cycle.low
    starts = range(0, len(raw), _TAIL_LINES)
    if m <= 10 and cycle.in_bytes():
        for i in starts:
            yield _ascii(raw[i:i + _TAIL_LINES], n, lead, width, low, end.encode()).decode("ascii")
        return
    glue = end or ("," if m > 10 else "")
    heads = map(format_word, map(itemgetter(slice(lead)), cycle.digits()), repeat(m))
    for i in starts:
        yield glue.join(islice(heads, _TAIL_LINES)) + (glue if i + _TAIL_LINES < len(raw) else end)
