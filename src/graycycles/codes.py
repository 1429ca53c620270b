"""The overlap-cycle engine's word coding and text.

Each word is an int whose fixed-width bit fields hold its digits less the
smallest one, so numeric order is word order and prefixes and suffixes are
shifts and masks.  Codes of up to 64 bits sit in machine words, in bytes of
their own seen through a read-only view, wider ones in a tuple of ints
(``_Codes``).  CLI ``ocycle`` and ``digraph`` enumerate their sets straight
into codes (``_codes``) once the set and s are checked.  Words enter the
engine through one entry coder, ``_coded``, which codes tuple words (each
by ``_code``'s rule), passes codes through, and names a word of the wrong
length; tuple words are decoded once on exit.  One digit reader,
``_columns``, reads digit position p of a block of codes at a time: a
strided slice of the codes' bytes, translated, where digits lie in
0..255, else a list of ints.  ``_Codes.readers`` alone cuts the codes into
blocks and makes a reader for each.  The readers decode words, the
self-check compares their columns, and one speller, ``_spelled``, writes a
cycle's text from its head columns a block at a time: spelled in ASCII
where every digit lies in 0..9, else through ``format_word``.

This module is private: ``ocycles`` holds the engine and imports what it
needs from here.  Without a bytecode cache every ``ocycle`` start compiles
both, and compiling two halves peaks lower than compiling one whole.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from io import BytesIO
from itertools import chain, compress, count, islice, repeat
from operator import ge, ne

from .records import _Record
from .words import _DIGIT_TABLE, _TAIL_LINES, Word, _split, format_word

TYPE_CHECKING = False  # typing serves type checkers only; see words
if TYPE_CHECKING:
    from typing import Callable, Iterable, Iterator, Sequence

    _Reader = Callable[[int], bytes | list[int]]

# The smallest unsigned array type that holds b bits, for b in 0..64.
_ARRAY_TYPE = [next(code for code in "BHIQ" if array(code).itemsize * 8 >= b) for b in range(65)]

_LITTLE_ENDIAN = sys.byteorder == "little"  # of an array's memory


def _frozen(codes: array) -> memoryview:
    """The array's codes, in order, as a read-only view of ``bytes`` of their own.

    The bytes grow a block at a time as the array shrinks to empty, so no
    whole copy of the codes is held beside them.
    """
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
    The bytes are filled a block at a time (``_frozen``): from what is
    given, or from an array the engine hands to ``taken``.  ``tuples`` marks
    codes made from tuple words, which the engine hands back as tuples,
    decoded by ``digits``.  ``readers`` reads the codes a block at a time,
    through the one digit reader, ``_columns``.
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
            raw = _frozen(array(_ARRAY_TYPE[n * width], codes))
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
        taken._set(_frozen(codes), *self._coding(), self.tuples)
        return taken

    def empty(self) -> array | list[int]:
        """A new growable sequence for these codes: an array of their type, or a list."""
        raw = self.raw
        return [] if type(raw) is tuple else array(raw.format)

    def readers(self, overlap: int = 0, spell: bool = False) -> Iterator[_Reader]:
        """A digit reader (``_columns``) per block of ``_TAIL_LINES`` codes and ``overlap`` more.

        This is the one place where codes are cut into blocks to be read.
        """
        raw, n, width, low = self.raw, *self._coding()
        for i in range(0, len(raw), _TAIL_LINES):
            yield _columns(raw[i:i + _TAIL_LINES + overlap], n, width, low, spell)

    def digits(self) -> Iterator[Word]:
        """Each word's digits as a tuple, in order, read a block at a time (``readers``)."""
        n = self.n
        if not n:  # words of length 0
            return repeat((), len(self.raw))
        return chain.from_iterable(zip(*map(column, range(n))) for column in self.readers())


@lru_cache(maxsize=128)
def _byte_table(shift: int, width: int, low: int, spell: bool) -> bytes:
    """``bytes.translate`` table: byte b to the digit of its field at ``shift``.

    The digit is the field plus ``low``, at most 255; ``spell`` gives it in
    ASCII through ``format_word``'s table, where a digit over 9 is 0xFF.
    """
    table = bytes(low + (b >> shift & (1 << width) - 1) for b in range(256))
    return table.translate(_DIGIT_TABLE) if spell else table


def _columns(block: Sequence[int], n: int, width: int, low: int, spell: bool) -> _Reader:
    """A reader of digit p of every code in ``block``, as one column.

    Where digits lie in 0..255 a column is a strided slice of the codes'
    bytes, translated (``_byte_table``): an array's as in memory, a tuple's
    as ``int.to_bytes`` gives them, little-endian.  A field that crosses a
    byte is read from a copy of the codes shifted right by its offset in
    that byte, one copy per offset.  Other digits give a list of ints.
    ``spell`` gives the digits in ASCII, which only digits in 0..9 have.
    Only ``_Codes.readers`` makes readers, one per block, as a reader copies
    its block's bytes.
    """
    if low < 0 or low + (1 << width) > 256:
        mask = (1 << width) - 1

        def listed(p: int) -> bytes | list[int]:
            shift = width * (n - 1 - p)
            digits = [low + (c >> shift & mask) for c in block]
            return bytes(digits).translate(_DIGIT_TABLE) if spell else digits

        return listed
    wide = type(block) is tuple
    size = (n * width + 7) // 8 if wide else block.itemsize
    memory: dict[int, bytes] = {}

    def shifted(moved: int) -> bytes:
        if wide:
            return b"".join([(c >> moved).to_bytes(size, "little") for c in block])
        return (array(block.format, map(moved.__rrshift__, block)) if moved else block).tobytes()

    def column(p: int) -> bytes:
        low_bit = width * (n - 1 - p)
        offset = low_bit % 8
        moved = offset if offset + width > 8 else 0  # the copy's shift
        if moved not in memory:
            memory[moved] = shifted(moved)
        byte = low_bit // 8 if wide or _LITTLE_ENDIAN else size - 1 - low_bit // 8
        return memory[moved][byte::size].translate(_byte_table(offset - moved, width, low, spell))

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
    after n//2 digits by ``_split``, and each word costs one addition: head
    code shifted past the tail, plus tail code.
    """
    width = (m - 1).bit_length() or 1
    t = n - n // 2
    heads = _split(m, n, t, p, q, False, lambda w: _code(w, width))
    return _Codes(chain.from_iterable(
        map((_code(head, width) << width * t).__add__, lasts) for head, lasts in heads
    ), n, width)


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
    the heads join into one word.  Only the ``lead`` head columns are read
    (``readers``).  Where every digit lies in 0..9 (m <= 10, none below 0)
    each column is spelled in ASCII and lands in the text by one strided
    slice assignment; other heads go through ``format_word``.  Every block
    but the first starts with the glue between heads, and ``end`` comes last.
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
