"""s-overlap cycles via Euler tours on transition digraphs.

An s-overlap cycle for a set of length-n words is a cyclic ordering in which
each word's last s digits equal the next word's first s digits (wrapping
around).  Encoding every word as a directed edge from its s-prefix to its
s-suffix turns these cycles into exactly the Euler tours of the resulting
multigraph, so existence reduces to the classic criterion: balanced and
weakly connected, which the Hierholzer walk checks as it goes.

This module owns the engine's one word coding, ``_Codes``: each word is an
int whose fixed-width bit fields hold its digits less the smallest one, so
numeric order is word order and prefixes and suffixes are shifts and masks.
Codes of up to 64 bits sit in one read-only array of machine words, wider
ones in a tuple of ints.  CLI ``ocycle`` and ``digraph`` enumerate their sets
straight into codes (``_word_codes``); tuple words given to the library are
coded once on entry, by the one coder ``_code``, and decoded once on exit.  In
between, the digraph and its queries, the Hierholzer walk, the self-check
``_cycle_fault``, compression and the CLI writer work on the codes only.  Words
are decoded through tables of chunk codes of at most ``_TAIL_LINES`` entries.
Where fields have at most 4 bits or 8, the self-check and the text read digits
from the array's memory a position at a time (``_columns``).  One speller,
``_spelled``, writes a cycle's text a block at a time: from that memory where
every digit lies in 0..9, else decoded through ``format_word``.
The tests check the engine against the tuple-based Hierholzer kept in
``tests/ocycle_oracles.py`` and against networkx.

The paper's existence theorems, which decide most verdicts with no digraph,
live in ``existence``; this module keeps only the engine and its
``NotEulerianError`` reasons.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import Counter
from functools import cached_property, lru_cache
from itertools import chain, compress, count, islice, product, repeat
from operator import add, ge, itemgetter, ne

from . import _LAZY
from .records import _Record
from .words import (
    _TAIL_LINES,
    DEFAULT_MATERIALIZATION_CAP,
    Word,
    _check_overlap,
    _check_set,
    _split,
    format_word,
    parse_word,
)

TYPE_CHECKING = False  # typing serves type checkers only; see words
if TYPE_CHECKING:
    from typing import Callable, Iterable, Iterator, Sequence

__all__ = _LAZY["ocycles"]  # listed in the package, which loads this module lazily

REASON_DISCONNECTED = "digraph-disconnected"
REASON_UNBALANCED = "digraph-unbalanced"
REASON_SINGLETON = "singleton-mismatch"


class NotEulerianError(ValueError):
    """The digraph admits no Euler tour; ``reason`` says which condition failed.

    ``detail`` says where: the smallest unbalanced vertex with its degrees,
    or how many edges the walk covered; None when not known.
    """

    def __init__(self, reason: str, message: str, detail: str | None = None):
        super().__init__(message)
        self.reason = reason
        self.detail = detail


# The smallest unsigned array type that holds b bits, for b in 0..64.
_ARRAY_TYPE = [next(code for code in "BHIQ" if array(code).itemsize * 8 >= b) for b in range(65)]

_LITTLE_ENDIAN = sys.byteorder == "little"

# A chunk table spells at most this many bits of digit fields: _TAIL_LINES entries.
_CHUNK_BITS = _TAIL_LINES.bit_length() - 1


class _Codes:
    """Codes of words of one length ``n``, in ascending or cycle order.

    Digit d of a word fills a ``width``-bit field with d - ``low``, first
    digit highest, so numeric order is word order, the first j digits of
    code c are ``c >> width*(n-j)`` and the last j are
    ``c & ((1 << width*j) - 1)``.  ``raw`` holds the codes: when n*width is
    at most 64, a ``memoryview`` of machine words of the smallest unsigned
    type that fits, over ``bytes`` of their own, else a tuple of ints.
    ``tuples`` marks codes made from tuple words, which the engine hands
    back as tuples.  Immutable and hashable, like a tuple of words.
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
            if type(codes) is not array or codes.typecode != kind:
                codes = array(kind, codes)
            raw = memoryview(codes.tobytes()).cast(kind)
        for name, value in zip(self.__slots__, (raw, n, width, low, tuples)):
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
        return hash((self._coding(), raw if type(raw) is tuple else raw.tobytes()))

    def __repr__(self) -> str:
        return repr(tuple(self.raw))

    def _coding(self) -> tuple[int, int, int]:
        return self.n, self.width, self.low

    def like(self, codes: Iterable[int]) -> _Codes:
        """Other codes in this coding, marked like these."""
        return _Codes(codes, self.n, self.width, self.low, self.tuples)

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


class TransitionDigraph(_Record):
    """Directed multigraph of overlaps: vertices are s-strings, edges are words.

    Stored as ``by_code``, the words' codes (``_Codes``) in ascending order;
    ``base`` is 2**width.  Vertices are coded as words of length s, so the
    queries run on codes; ``edges``, the one tuple view, is decoded on first
    use.  Views are kept once asked for.  ``by_code`` is left out of the hash
    and the repr.
    """

    s: int
    n: int
    base: int
    by_code: _Codes
    _hidden = ("by_code",)

    def edge_count(self) -> int:
        return len(self.by_code)

    def _ends(self) -> tuple[int, int]:
        """(shift, mask): a word code's prefix vertex is code >> shift, its suffix code & mask."""
        width = self.by_code.width
        return width * (self.n - self.s), (1 << width * self.s) - 1

    @cached_property
    def _degrees(self) -> tuple[Counter[int], Counter[int]]:
        """``_degree_counts``, kept for the degree queries; the walk keeps none."""
        return _degree_counts(self)

    @cached_property
    def _vertex_words(self) -> dict[int, Word]:
        """Each vertex's word by its code, in ascending code order: the vertex decoder."""
        codes, (shift, mask) = self.by_code, self._ends()
        prefixes = set(map(shift.__rrshift__, codes.raw))
        vertex_codes = sorted(prefixes.union(map(mask.__and__, codes.raw)))
        words = _Codes(vertex_codes, self.s, codes.width, codes.low).digits()
        return dict(zip(vertex_codes, words))

    @cached_property
    def vertices(self) -> frozenset[Word]:
        return frozenset(self._vertex_words.values())

    @cached_property
    def edges(self) -> dict[tuple[Word, Word], tuple[Word, ...]]:
        """Word labels by (prefix, suffix) vertex pair, in order of prefix, then suffix."""
        codes, vertex, (shift, mask) = self.by_code, self._vertex_words, self._ends()
        groups: dict[tuple[int, int], list[Word]] = {}
        for code, word in zip(codes.raw, codes.digits()):
            groups.setdefault((code >> shift, code & mask), []).append(word)
        return {(vertex[u], vertex[v]): tuple(groups[u, v]) for u, v in sorted(groups)}

    def _degree(self, vertex: Word, side: int) -> int:
        """Out- (side 0) or in-degree (1) of a vertex, 0 for anything else."""
        codes = self.by_code
        low, top = codes.low, codes.low + (1 << codes.width)
        if isinstance(vertex, tuple) and len(vertex) == self.s and all(
                isinstance(d, int) and low <= d < top for d in vertex):
            return self._degrees[side][_code(vertex, codes.width, low)]
        return 0

    def out_degree(self, vertex: Word) -> int:
        return self._degree(vertex, 0)

    def in_degree(self, vertex: Word) -> int:
        return self._degree(vertex, 1)


def _prefix_runs(codes: Sequence[int], shift: int) -> Iterator[tuple[int, int, int]]:
    """(u, lo, hi) for each s-prefix vertex u of the ascending ``codes``.

    ``shift`` is width*(n-s).  The codes with prefix u fill
    [u << shift, (u+1) << shift), so they are the run ``codes[lo:hi]``,
    found with one bisection per vertex.
    """
    lo, total = 0, len(codes)
    while lo < total:
        u = codes[lo] >> shift
        hi = bisect_left(codes, (u + 1) << shift, lo)
        yield u, lo, hi
        lo = hi


def build_transition_digraph(words: Sequence[Word], s: int) -> TransitionDigraph:
    """One edge per word, from its s-prefix vertex to its s-suffix vertex.

    All words must share one length n with 1 <= s <= n-1 and be pairwise
    distinct; an empty list only needs s >= 1 and builds an empty digraph.
    The words are coded once (``_encode``) and their codes sorted.  Codes
    (``_Codes``) are kept as they are; they must be strictly ascending,
    which also makes them distinct.
    """
    if isinstance(words, _Codes):
        codes = words
    else:
        words = list(words)
        n = len(words[0]) if words else 0
        i = _misfit(words, n)
        if i is not None:
            w = words[i]
            raise ValueError(
                f"mixed word lengths: {format_word(w)} has length {len(w)}, expected {n}"
            )
        codes = _encode(words, n)
        codes = codes.like(sorted(codes.raw))
    if codes:
        _check_overlap(codes.n, s)
    elif s < 1:
        raise ValueError(f"overlap length s={s} out of range")
    raw = codes.raw
    if any(map(ge, raw, islice(raw, 1, None))):
        if codes.tuples:
            raise ValueError("duplicate words in input set")
        raise ValueError("codes are not strictly ascending")
    return TransitionDigraph(s, codes.n, 1 << codes.width, codes)


def _degree_counts(digraph: TransitionDigraph) -> tuple[Counter[int], Counter[int]]:
    """(out-degree, in-degree) by vertex code, counted on the codes.

    Out-degrees are the lengths of the sorted codes' prefix runs, in-degrees
    the counts of their suffixes.
    """
    raw, (shift, mask) = digraph.by_code.raw, digraph._ends()
    outs = Counter({u: hi - lo for u, lo, hi in _prefix_runs(raw, shift)})
    return outs, Counter(map(mask.__and__, raw))


def is_balanced(digraph: TransitionDigraph) -> bool:
    """True iff in-degree equals out-degree at every vertex, counted on the codes."""
    outs, ins = _degree_counts(digraph)
    return outs == ins


def _imbalance(digraph: TransitionDigraph, outs: Counter[int], ins: Counter[int]) -> str:
    """The smallest vertex whose counted in- and out-degree differ, with both, as text."""
    u = min(v for v in outs.keys() | ins.keys() if outs[v] != ins[v])
    vertex = digraph._vertex_words[u]
    return f"vertex {format_word(vertex)} has in-degree {ins[u]} and out-degree {outs[u]}"


def weak_components(digraph: TransitionDigraph) -> list[frozenset[Word]]:
    """Connected components of the underlying undirected multigraph.

    Deterministic: components are sorted by their smallest vertex.  Found by
    union-find on vertex codes, one union per distinct (prefix, suffix) pair.
    """
    raw, (shift, mask), vertex = digraph.by_code.raw, digraph._ends(), digraph._vertex_words
    parent = {v: v for v in vertex}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in set(zip(map(shift.__rrshift__, raw), map(mask.__and__, raw))):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[Word]] = {}
    for v, word in vertex.items():
        groups.setdefault(find(v), []).append(word)
    return [frozenset(group) for group in groups.values()]


def is_weakly_connected(digraph: TransitionDigraph) -> bool:
    """True iff every vertex sits in one undirected component.

    Vertices only ever arise as edge endpoints, so no isolated-vertex
    special case is needed; an empty digraph counts as connected.
    """
    return len(weak_components(digraph)) <= 1


def euler_tour(digraph: TransitionDigraph) -> list[Word] | _Codes:
    """Closed walk using every edge exactly once, as a list of edge labels.

    Hierholzer's algorithm over the digraph's codes, made deterministic: the
    walk starts at the smallest vertex and always leaves on the smallest
    unused out-edge, so the tour begins with the smallest word.  Each
    sub-walk must close where it began and the tour must hold every edge,
    which proves the Euler criterion; a failed walk counts degrees to tell
    unbalanced from disconnected (a balanced walk covers its component).
    Raises NotEulerianError when the digraph is unbalanced or not weakly
    connected, and ValueError when it has no edges.  A digraph built from
    codes (``_Codes``) returns its tour as codes.
    """
    codes = digraph.by_code
    raw = codes.raw
    if not raw:
        raise ValueError("digraph has no edges")
    shift, mask = digraph._ends()
    # Vertex u's unused out-edges, its run of the ascending codes reversed,
    # so pop() takes the smallest.
    out = {}
    for u, lo, hi in _prefix_runs(raw, shift):
        out[u] = run = codes.empty()
        run.extend(reversed(raw[lo:hi]))
    stack, tour = codes.empty(), codes.empty()
    start = raw[0] >> shift
    ready = out[start]
    try:
        while True:
            if ready:
                code = ready.pop()
                stack.append(code)
                ready = out[code & mask]  # KeyError: a vertex with no out-edge
                continue
            # Stuck: the sub-walk must end where it began, at ``start``.
            if not stack or stack[-1] & mask != start:
                break
            if len(stack) + len(tour) == len(raw):  # no edge left: the stack leads the tour
                stack += tour[::-1]
                tour = stack
                break
            # Move the stack's top edges to the tour, down to and including the
            # first whose source vertex (its prefix) has an unused edge left.
            # Nothing named here may hold the stack or ``out`` past the walk.
            depth = len(stack) - next(compress(count(1), map(
                out.__getitem__, map(shift.__rrshift__, reversed(stack)))), len(stack))
            tour += stack[depth:][::-1]
            del stack[depth:]
            start = tour[-1] >> shift
            ready = out[start]
    except KeyError:
        pass
    del out, ready, stack  # popped arrays keep their memory: freed before the copy
    if len(tour) != len(raw):
        covered = f"the walk covered {len(tour)} of {len(raw)} edges"
        del tour  # freed before the degree count
        outs, ins = _degree_counts(digraph)
        if outs == ins:
            raise NotEulerianError(
                REASON_DISCONNECTED, "no Euler tour: digraph is not weakly connected", covered
            )
        raise NotEulerianError(
            REASON_UNBALANCED, "no Euler tour: in/out degrees differ at some vertex",
            _imbalance(digraph, outs, ins),
        )
    coded = codes.like(tour)
    return list(coded.digits()) if codes.tuples else coded


class OcycleSolution(_Record):
    """A cyclic word ordering with the s-overlap property.

    Stored linearly with implicit wraparound, rotated to start at the
    lexicographically smallest word.  For input given as codes (``_Codes``)
    ``construct_ocycle`` stores the cycle as codes too, in a ``_Codes``,
    which is immutable and hashable, and so is the solution.
    """

    s: int
    cycle: tuple[Word, ...] | _Codes


class OcycleReport(_Record):
    """Verifier verdict; index -1 marks a whole-cycle violation."""

    ok: bool
    first_violation: tuple[int, str] | None = None


def _repeats(raw: Sequence[int], bits: int) -> bool:
    """Whether the codes ``raw``, of ``bits`` bits each, hold some code twice.

    Found on sorted copies.  An array of ``_TAIL_LINES`` codes or more is split
    by their highest whole byte, one array per value, as equal codes share it.
    """
    groups = [raw]
    if type(raw) is not tuple and len(raw) >= _TAIL_LINES:
        size, byte = raw.itemsize, max(0, bits - 8) // 8
        keys = raw.tobytes()[byte if _LITTLE_ENDIAN else size - 1 - byte::size]
        if keys.count(keys[0]) < len(keys):  # else the codes are their own group
            groups = [array(raw.format) for _ in range(256)]
            any(map(array.append, map(groups.__getitem__, keys), raw))
    # One group's sorted copy is alive at a time; a repeat stops its ascent.
    return any(any(map(ge, ordered, islice(ordered, 1, None))) for ordered in map(sorted, groups))


def _cycle_fault(cycle: Sequence[Word] | _Codes, n: int, s: int) -> tuple[int, str] | None:
    """First fault of a claimed s-overlap cycle, checked against itself only.

    In order: a word whose length is not n, any repeated word (index -1),
    then the first word whose last s digits differ from the next word's
    first s digits, wrapping around.  Returns (index, description) or None.
    Takes words, coded once their lengths pass, or codes (``_Codes``), and
    1 <= s < n.  Codes that ``in_bytes`` pass if each suffix column n-s+j
    equals prefix column j rotated by one word; the rest are scanned by word.
    """
    if not isinstance(cycle, _Codes):
        i = _misfit(cycle, n)
        if i is not None:
            return i, f"word has length {len(cycle[i])}, expected {n}"
        cycle = _encode(cycle, n)
    elif cycle and cycle.n != n:
        return 0, f"word has length {cycle.n}, expected {n}"
    raw, width = cycle.raw, cycle.width
    if _repeats(raw, n * width):
        return -1, "input word set contains duplicates"
    if cycle.in_bytes():
        column = _columns(raw, n, width, None)
        if all(column(n - s + j) == (head := column(j))[1:] + head[:1] for j in range(s)):
            return None
    suffixes = map(((1 << width * s) - 1).__and__, raw)
    following = chain(islice(raw, 1, None), raw[:1])
    next_prefixes = map((width * (n - s)).__rrshift__, following)
    i = next(compress(count(), map(ne, suffixes, next_prefixes)), None)
    if i is None:
        return None
    w, nxt = cycle.like((raw[i], raw[(i + 1) % len(raw)])).digits()
    return i, f"words {format_word(w)} and {format_word(nxt)} do not overlap in {s} digits"


def construct_ocycle(words: Sequence[Word], s: int) -> OcycleSolution:
    """Build an s-overlap cycle for the given word set, or fail loudly.

    The cycle is the Euler tour of the transition digraph read as edge
    labels, so it exists iff that digraph is balanced and weakly connected.
    A single word forms a cycle by itself iff its s-prefix equals its
    s-suffix, which is when its digraph, one edge, is balanced.
    Deterministic for a given input set.
    """
    digraph = build_transition_digraph(words, s)
    codes = digraph.by_code
    if not codes:
        raise ValueError("cannot build an overlap cycle for an empty word set")
    try:
        tour = euler_tour(digraph)  # begins with the smallest word: no rotation
    except NotEulerianError as exc:
        if len(codes) > 1:
            raise
        (word,) = codes.digits()
        raise NotEulerianError(
            REASON_SINGLETON,
            f"single word {format_word(word)} does not overlap itself in {s} digits",
            exc.detail,
        ) from None
    return OcycleSolution(s=s, cycle=tuple(tour) if codes.tuples else tour)


def verify_ocycle(
    cycle: Sequence[Word], words: Sequence[Word], s: int
) -> OcycleReport:
    """Check that ``cycle`` is an s-overlap cycle for the set ``words``.

    Passes iff the cycle lists each word of the set exactly once and every
    cyclically consecutive pair overlaps in s digits.  Never raises; all
    problems (including an out-of-range s) come back in the report.
    """
    claimed = [tuple(w) for w in cycle]
    expected = [tuple(w) for w in words]
    if not claimed and not expected:
        return OcycleReport(True)
    if not claimed:
        return OcycleReport(False, (-1, "cycle is empty but the word set is not"))
    n = len(claimed[0])
    for i, w in enumerate(claimed):
        if len(w) != n:
            return OcycleReport(
                False, (i, f"word {format_word(w)} has length {len(w)}, expected {n}")
            )
    try:
        _check_overlap(n, s)
    except ValueError as exc:
        return OcycleReport(False, (-1, str(exc)))
    remaining = set(expected)
    if len(remaining) != len(expected):
        return OcycleReport(False, (-1, "input word set contains duplicates"))
    for i, w in enumerate(claimed):
        if w not in remaining:
            if w in set(expected):
                return OcycleReport(False, (i, f"duplicate word {format_word(w)}"))
            return OcycleReport(
                False, (i, f"word {format_word(w)} is not in the input set")
            )
        remaining.remove(w)
    if remaining:
        missing = format_word(min(remaining))
        return OcycleReport(
            False, (-1, f"cycle misses {len(remaining)} word(s), e.g. {missing}")
        )
    fault = _cycle_fault(claimed, n, s)  # by now only an overlap can fail
    return OcycleReport(fault is None, fault)


def compress_cycle(solution: OcycleSolution, n: int) -> str:
    """Compressed text form: the first n-s digits of each word, around the cycle.

    The result is a cyclic string of len(cycle) * (n-s) symbols whose
    stride-(n-s) windows of length n spell out the cycle's words in order;
    the s overlapping digits of each word are supplied by its successors.
    The input is checked first, in O(len(cycle)), by the check that CLI
    ``verify ocycle`` runs: it is rejected unless 1 <= s <= n-1, its words
    all have length n and are distinct, and each word's last s digits equal
    the next word's first s digits, wrapping around.  The text is the blocks
    that CLI ``ocycle --compressed`` writes one at a time (``_compressed``).
    """
    return "".join(_compressed(solution, n))


def _compressed(solution: OcycleSolution, n: int) -> Iterator[str]:
    """``compress_cycle``'s text in blocks (``_spelled``), checked before the first.

    Words are coded once their lengths pass.  As in ``format_word``, commas
    join the digits iff one is over 9; a verified cycle's heads hold them all.
    """
    cycle, s = solution.cycle, solution.s
    if not cycle:
        raise ValueError("cannot compress an empty cycle")
    if not isinstance(cycle, _Codes) and _misfit(cycle, n) is None:
        cycle = _encode(cycle, n)  # a length fault is left to _cycle_fault
    if not 1 <= s < n or _cycle_fault(cycle, n, s) is not None:
        raise ValueError("refusing to compress an unverified cycle")
    raw, width, low = cycle.raw, cycle.width, cycle.low
    top = low + (1 << width) - 1
    if top > 9 and cycle.in_bytes():  # a digit over 9 reads 0xFF in its column
        blocks = (raw[i:i + _TAIL_LINES] for i in range(0, len(raw), _TAIL_LINES))
        columns = map(_columns, blocks, repeat(n), repeat(width), repeat(low))
        top = 9 + any(b"\xff" in column(p) for column in columns for p in range(n))
    elif top > 9:
        top = max(map(max, cycle.digits()))
    yield from _spelled(cycle, n - s, "", top + 1)


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


def decompress_cycle(text: str, n: int, s: int) -> tuple[Word, ...]:
    """Read the words back out of a compressed cycle string.

    Inverse of compress_cycle: takes len(text)/(n-s) windows of length n at
    stride n-s, wrapping cyclically.
    """
    symbols = parse_word(text)
    _check_overlap(n, s)
    step = n - s
    total = len(symbols)
    if total == 0:
        raise ValueError("cannot decompress an empty cycle")
    if total % step != 0:
        raise ValueError(f"compressed text length {total} is not a multiple of n-s={step}")
    return tuple(
        tuple(symbols[(i * step + j) % total] for j in range(n))
        for i in range(total // step)
    )


def export_dot(digraph: TransitionDigraph, m: int | None = None) -> str:
    """Graphviz DOT text for the digraph, with deterministic ordering.

    Vertices are labeled by their s-strings and edges by their full words;
    both are emitted in the digraph's own ascending order, so identical
    digraphs always render to identical text.
    """
    edges = digraph.edges  # first: the labels then reuse the memory its build frees
    label = {vertex: format_word(vertex, m) for vertex in digraph._vertex_words.values()}
    lines = ["digraph transitions {"]
    lines.extend(f'    "{text}";' for text in label.values())
    for (u, v), words in edges.items():
        arrow = f'    "{label[u]}" -> "{label[v]}" [label="'
        lines.extend(f'{arrow}{format_word(word, m)}"];' for word in words)
    lines.append("}\n")
    return "\n".join(lines)
