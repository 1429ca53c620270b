"""The overlap-cycle engine's word coding and text.

Each word is an int whose fixed-width bit fields hold its digits less the
smallest one, so numeric order is word order and prefixes and suffixes are
shifts and masks.  Codes of up to 64 bits sit in machine words, in bytes of
their own seen through a read-only view, wider ones in a tuple of ints
(``_Codes``).  CLI ``ocycle`` and ``digraph`` enumerate their sets straight
into codes (``_codes``).  Words enter the engine through one entry coder,
``_coded``; tuple words are decoded once on exit.  One lane helper,
``_lanes``, the one place that reads byte order, lays a block (``_blocks``)
of codes out as the little-endian lanes of one int, and ``_spread`` puts a
value in every lane, so each bulk pass (``_codes``, the digraph's ascending
test, the self-check) costs a few big-int operations per block.  The one
digit reader, ``_columns``, slices digit columns out of the lanes, and one
speller, ``_spelled``, writes a cycle's text from its head columns.

This module is private: ``ocycles`` holds the engine and imports what it
needs from here.  Without a bytecode cache every ``ocycle`` start compiles
both, and compiling two halves peaks lower than compiling one whole.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from io import BytesIO
from itertools import chain, compress, count, repeat
from operator import ne

from .records import _Record
from .words import _DIGIT_TABLE, _TAIL_LINES, Word, _split, format_word

TYPE_CHECKING = False  # typing serves type checkers only; see words
if TYPE_CHECKING:
    from typing import Callable, Iterable, Iterator, Sequence

    _Reader = Callable[[int], bytes | list[int]]

# The smallest unsigned array type that holds b bits, for b in 0..64.
_ARRAY_TYPE = [next(code for code in "BHIQ" if array(code).itemsize * 8 >= b) for b in range(65)]


def _frozen(codes: array) -> memoryview:
    """The array's codes, in order, in a read-only view of ``bytes`` grown as the array empties."""
    out = BytesIO()
    codes.reverse()
    while codes:
        out.write(codes[:-_TAIL_LINES - 1:-1])
        del codes[-_TAIL_LINES:]
    return memoryview(out.getvalue()).cast(codes.typecode)


class _Codes:
    """Codes of words of one length ``n``, in ascending or cycle order.

    Digit d of a word fills a ``width``-bit field with d - ``low``, first
    digit highest, so numeric order is word order, the first j digits of
    code c are ``c >> width*(n-j)`` and the last j are
    ``c & ((1 << width*j) - 1)``.  ``raw`` holds the codes: when n*width is
    at most 64, a ``memoryview`` of machine words of the smallest unsigned
    type that fits, over ``bytes`` of their own, else a tuple of ints.
    The bytes are filled a block at a time (``_frozen``, ``taken``).
    ``tuples`` marks codes made from tuple words, which the engine hands
    back as tuples (``digits``).  ``readers`` reads the codes a block at a
    time.  Immutable and hashable, like a tuple of words.
    """

    __slots__ = ("raw", "n", "width", "low", "tuples")
    __setattr__ = _Record.__setattr__
    __delattr__ = _Record.__delattr__

    def __init__(
        self, codes: Iterable[int], n: int, width: int, low: int = 0, tuples: bool = False
    ):
        raw = tuple(codes) if n * width > 64 else _frozen(array(_ARRAY_TYPE[n * width], codes))
        self._set(raw, n, width, low, tuples)

    def _set(self, *values: object) -> _Codes:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

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
        return hash((self._coding(), getattr(self.raw, "obj", self.raw)))  # a view hashes its bytes

    def __repr__(self) -> str:
        return repr(tuple(self.raw))

    def _coding(self) -> tuple[int, int, int]:
        return self.n, self.width, self.low

    def like(self, codes: Iterable[int]) -> _Codes:
        """Other codes in this coding, marked like these."""
        return _Codes(codes, self.n, self.width, self.low, self.tuples)

    def taken(self, codes: array | list[int]) -> _Codes:
        """``like``, for a sequence the engine builds (``empty``) and hands on.

        An array's codes move into the new codes' bytes, leaving it empty.
        """
        if type(codes) is not array:
            return self.like(codes)
        return object.__new__(_Codes)._set(_frozen(codes), *self._coding(), self.tuples)

    def empty(self) -> array | list[int]:
        """A new growable sequence for these codes: an array of their type, or a list."""
        return [] if type(self.raw) is tuple else array(self.raw.format)

    def lane_size(self, guard: bool = False) -> int:
        """Bytes per lane: the codes' bits, and a guard bit if asked; an item's at least."""
        return max((self.n * self.width + 7 + guard) // 8, getattr(self.raw, "itemsize", 0))

    def readers(self, spell: bool = False) -> Iterator[_Reader]:
        """A digit reader (``_columns``) per block of codes (``_blocks``)."""
        size, n, width, low = self.lane_size(), *self._coding()
        return (_columns(block, n, width, low, spell, size) for block in _blocks(self.raw, size))

    def digits(self) -> Iterator[Word]:
        """Each word's digits as a tuple, in order, read a block at a time (``readers``)."""
        if not self.n:  # words of length 0
            return repeat((), len(self.raw))
        return chain.from_iterable(zip(*map(column, range(self.n))) for column in self.readers())


@lru_cache(maxsize=128)
def _byte_table(shift: int, width: int, low: int, spell: bool) -> bytes:
    """``bytes.translate`` table: byte b to the digit of its field at ``shift``.

    The digit is the field plus ``low``, at most 255; ``spell`` gives it in
    ASCII through ``format_word``'s table, where a digit over 9 is 0xFF.
    """
    table = bytes(low + (b >> shift & (1 << width) - 1) for b in range(256))
    return table.translate(_DIGIT_TABLE) if spell else table


def _lanes(block: Sequence[int], size: int) -> bytes:
    """The codes as little-endian lanes of ``size`` bytes: read as one int, code i is lane i.

    The one place that reads byte order: an array whose items are the lanes
    on a little-endian host gives its bytes as they lie, other codes are laid
    out one by one.  Lanes read back as items give the items' bytes again.
    """
    if getattr(block, "itemsize", 0) == size and sys.byteorder == "little":
        return block.tobytes()
    return b"".join(map(int.to_bytes, block, repeat(size), repeat("little")))


@lru_cache(maxsize=2)  # a block's pairs' value, kept for the next block
def _spread(value: int, count: int, size: int) -> int:
    """``value`` in each of ``count`` lanes of ``size`` bytes, as one int."""
    return int.from_bytes(value.to_bytes(size, "little") * count, "little")


def _blocks(codes: Sequence[int], size: int, more: int = 0) -> Iterator[Sequence[int]]:
    """The one cutter of codes into blocks of 32 KiB of lanes (8 bytes at least), ``more`` after."""
    step = max(1, _TAIL_LINES * 8 // max(size, 8))
    return (codes[i:i + step + more] for i in range(0, len(codes), step))


def _paired(codes: Sequence[int], size: int, value: int) -> Iterator[tuple[int, int]]:
    """Per block with the code after it: its lanes as one int, and ``value`` in all but the last."""
    for block in _blocks(codes, size, 1):
        yield int.from_bytes(_lanes(block, size), "little"), _spread(value, len(block) - 1, size)


def _columns(block: Sequence[int], n: int, width: int, low: int, spell: bool, size: int) -> _Reader:
    """A reader of digit p of every code in ``block``, as one column.

    Where digits lie in 0..255 a column is a strided slice of the block's
    lanes (``_lanes``), translated (``_byte_table``); a field that crosses a
    byte is read from the lanes shifted right by its offset in that byte,
    one copy per offset.  Other digits give a list of ints.  ``spell`` gives
    the digits in ASCII, which only digits in 0..9 have.
    """
    if low < 0 or low + (1 << width) > 256:
        mask = (1 << width) - 1

        def listed(p: int) -> bytes | list[int]:
            shift = width * (n - 1 - p)
            digits = [low + (c >> shift & mask) for c in block]
            return bytes(digits).translate(_DIGIT_TABLE) if spell else digits

        return listed
    laid = {0: _lanes(block, size)}  # the block's lanes, by the copy's shift

    def column(p: int) -> bytes:
        byte, offset = divmod(width * (n - 1 - p), 8)
        by = offset if offset + width > 8 else 0  # the copy's shift
        if by not in laid:
            laid[by] = (int.from_bytes(laid[0], "little") >> by).to_bytes(len(laid[0]), "little")
        return laid[by][byte::size].translate(_byte_table(offset - by, width, low, spell))

    return column


@lru_cache(maxsize=32)
def _base_table(width: int, low: int) -> bytes | None:
    """``translate`` table: byte low + f to digit f of base 2**width, as ``int`` reads it."""
    if width > 5 or not 0 <= low <= 256 - (1 << width):
        return None  # fields past 5 bits or digits outside 0..255
    digits = b"0123456789abcdefghijklmnopqrstuv"[:1 << width]
    return bytes(low) + digits + bytes(256 - low - len(digits))


def _code(word: Sequence[int], width: int, low: int = 0) -> int:
    """The code of one word whose digits less ``low`` fit in ``width`` bits.

    Where ``_base_table`` has a table the word is read in C: ``bytes``, the
    table, ``int``.  Others, and the empty word, go digit by digit.
    """
    table = _base_table(width, low)
    if word and table:
        return int(bytes(word).translate(table), 1 << width)
    code = 0
    for d in word:
        code = code << width | d - low
    return code


def _coded(words: Sequence[Word] | _Codes, n: int | None = None) -> _Codes | tuple[int, int]:
    """The engine's one entry coder: words of length n (by default the first's) as codes.

    Codes pass as they are, or give (0, their n) if that is not n.  Words
    give (index, length) of the first whose length is not n, else their
    codes in order, marked as tuple words, each digit less the smallest in
    just enough bits for the largest; the whole list is read as ``_code``
    reads one word.
    """
    if type(words) is _Codes:
        return words if not words or n in (None, words.n) else (0, words.n)
    if n is None:
        n = len(words[0]) if words else 0
    i = next(compress(count(), map(ne, map(len, words), repeat(n))), None)
    if i is not None:
        return i, len(words[i])
    digits = set(chain.from_iterable(words)) or {0}
    low, top = min(digits), max(digits)
    width = (top - low).bit_length() or 1
    table = _base_table(width, low)
    if n and table:
        codes = map(int, map(bytes.translate, map(bytes, words), repeat(table)), repeat(1 << width))
    else:
        codes = map(_code, words, repeat(width), repeat(low))
    return _Codes(codes, n, width, low, True)


def _codes(m: int, n: int, p: int, q: int) -> _Codes:
    """Codes of the length-n words over {0..m-1} with weight in [p, q], ascending.

    Each digit fills (m-1).bit_length() bits, and at least one.  Needs
    m >= 1 and n >= 0; an empty window gives no codes.  Each word is cut
    after n//2 digits by ``_split``; each list of tails is laid out in lanes
    once, and a head's codes are those lanes plus its code, shifted past the
    tail, times a 1 in every lane, written a block at a time.
    """
    width = (m - 1).bit_length() or 1
    t, codes, laned, out = n - n // 2, _Codes((), n, width), {}, BytesIO()
    size, items = codes.lane_size(), getattr(codes.raw, "format", "")
    for head, tails in _split(m, n, t, p, q, False, lambda w: _code(w, width)):
        if id(tails) not in laned:  # ``_split`` hands each list of tails on again
            laned[id(tails)] = [
                (int.from_bytes(_lanes(b, size), "little"), _spread(1, len(b), size), len(b) * size)
                for b in _blocks(tails, size)]
        top = _code(head, width) << width * t
        for lanes, ones, length in laned[id(tails)]:
            block = (lanes + top * ones).to_bytes(length, "little")
            # Lanes of an item's size, read back as items, give the items' bytes (``_lanes``).
            out.write(_lanes(memoryview(block).cast(items), size) if items else block)
    data = out.getvalue()  # ``_set`` with one value sets ``raw``, the first slot
    return codes._set(memoryview(data).cast(items)) if items else codes.like(
        int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size))


def _spelled(cycle: _Codes, lead: int, end: str, m: int) -> Iterator[str]:
    """The first ``lead`` digits of each code, then ``end``, a block (``_blocks``) at a time.

    Digits are spelled as ``format_word`` spells them over m; with no ``end``
    the heads join into one word.  Only the ``lead`` head columns are read
    (``readers``).  Where every digit lies in 0..9 (m <= 10, none below 0)
    each column is spelled in ASCII and lands in the text by one strided
    slice assignment, else heads go through ``format_word``.  Blocks after
    the first start with the glue between heads; ``end`` comes last.
    """
    spell = m <= 10 and cycle.low >= 0
    glue = end or ("," if m > 10 else "")
    step, skip = len(glue) + lead, len(glue)  # the first block starts with no glue
    for column in cycle.readers(spell=spell):
        heads = [column(p) for p in range(lead)]
        if spell:
            out = bytearray(glue.encode() + bytes(lead)) * len(heads[0])
            for p, digits in enumerate(heads, len(glue)):
                out[p::step] = digits
            text = out.decode("ascii")
        else:
            text = glue + glue.join(map(format_word, zip(*heads), repeat(m)))
        yield text[skip:]
        skip = 0
    yield end
