"""s-overlap cycles via Euler tours on transition digraphs.

An s-overlap cycle for a set of length-n words is a cyclic ordering in which
each word's last s digits equal the next word's first s digits (wrapping
around).  Encoding every word as a directed edge from its s-prefix to its
s-suffix turns these cycles into exactly the Euler tours of the resulting
multigraph, so existence reduces to the classic criterion: balanced and
weakly connected, which the Hierholzer walk checks as it goes.

This module holds the engine that CLI ``ocycle`` and ``verify ocycle`` run:
the digraph, the Hierholzer walk, the self-check ``_cycle_fault`` and
compression.  They work on the word codes (``_Codes``) of ``codes``, which
owns the one word coding, its decoding and the cycle's text; tuple words
given to the library are coded once on entry and decoded once on exit.
The self-check's overlap test reads digit columns a block of codes at a
time, so it holds no copy of the whole cycle.  The tests check the engine
against the tuple-based Hierholzer kept in ``tests/ocycle_oracles.py`` and
against networkx.

The library-only names (``verify_ocycle`` and its report,
``decompress_cycle``, ``export_dot``, ``is_balanced`` and the component
queries) live in ``views``, served from here on first access (PEP 562).
The paper's existence theorems, which decide most verdicts with no digraph,
live in ``existence``; this module keeps only the engine and its
``NotEulerianError`` reasons.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from operator import ge, ne

from . import _LAZY
from .codes import _Codes, _code, _columns, _encode, _misfit, _repeats, _spelled
from .records import _Record
from .words import _TAIL_LINES, Word, _check_overlap, format_word

TYPE_CHECKING = False  # typing serves type checkers only; see words
if TYPE_CHECKING:
    from typing import Iterator, Sequence

__all__ = _LAZY["ocycles"]  # listed in the package, which loads this module lazily

# Names of ``__all__`` defined in ``views``.
_VIEWS = """OcycleReport is_balanced is_weakly_connected weak_components verify_ocycle
    decompress_cycle export_dot""".split()

REASON_DISCONNECTED = "digraph-disconnected"
REASON_UNBALANCED = "digraph-unbalanced"
REASON_SINGLETON = "singleton-mismatch"


def __getattr__(name: str) -> object:
    if name in _VIEWS:
        from . import views
        return getattr(views, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NotEulerianError(ValueError):
    """The digraph admits no Euler tour; ``reason`` says which condition failed.

    ``detail`` says where: the smallest unbalanced vertex with its degrees,
    or how many edges the walk covered; None when not known.
    """

    def __init__(self, reason: str, message: str, detail: str | None = None):
        super().__init__(message)
        self.reason = reason
        self.detail = detail


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


def _imbalance(digraph: TransitionDigraph, outs: Counter[int], ins: Counter[int]) -> str:
    """The smallest vertex whose counted in- and out-degree differ, with both, as text."""
    u = min(v for v in outs.keys() | ins.keys() if outs[v] != ins[v])
    vertex = digraph._vertex_words[u]
    return f"vertex {format_word(vertex)} has in-degree {ins[u]} and out-degree {outs[u]}"


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
    del out, ready, stack  # popped arrays keep their memory: freed here
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
    coded = codes.taken(tour)  # the tour's codes become the cycle's, uncopied
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


def _cycle_fault(cycle: Sequence[Word] | _Codes, n: int, s: int) -> tuple[int, str] | None:
    """First fault of a claimed s-overlap cycle, checked against itself only.

    In order: a word whose length is not n, any repeated word (index -1),
    then the first word whose last s digits differ from the next word's
    first s digits, wrapping around.  Returns (index, description) or None.
    Takes words, coded once their lengths pass, or codes (``_Codes``), and
    1 <= s < n.  The codes pass if the last code's suffix is the first one's
    prefix and, in each run of ``_TAIL_LINES`` + 1 codes (one block and the
    next code), digit column n-s+j (``_columns``) less its last code equals
    column j less its first; only a cycle that fails is scanned by word, to
    find the fault.
    """
    if not isinstance(cycle, _Codes):
        i = _misfit(cycle, n)
        if i is not None:
            return i, f"word has length {len(cycle[i])}, expected {n}"
        cycle = _encode(cycle, n)
    elif cycle and cycle.n != n:
        return 0, f"word has length {cycle.n}, expected {n}"
    raw, width, low = cycle.raw, cycle.width, cycle.low
    if _repeats(raw, n * width):
        return -1, "input word set contains duplicates"
    mask, shift = (1 << width * s) - 1, width * (n - s)
    if not raw or raw[-1] & mask == raw[0] >> shift:
        starts = range(0, len(raw) - 1, _TAIL_LINES)
        blocks = (_columns(raw[i:i + _TAIL_LINES + 1], n, width, low) for i in starts)
        if all(column(n - s + j)[:-1] == column(j)[1:] for column in blocks for j in range(s)):
            return None
    suffixes = map(mask.__and__, raw)
    following = chain(islice(raw, 1, None), raw[:1])
    next_prefixes = map(shift.__rrshift__, following)
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
    join the digits iff one is over 9; a verified cycle's heads hold them
    all, and their digit columns (``_columns``) give the largest.
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
    if top > 9:
        blocks = (raw[i:i + _TAIL_LINES] for i in range(0, len(raw), _TAIL_LINES))
        columns = map(_columns, blocks, repeat(n), repeat(width), repeat(low))
        top = max(max(column(p)) for column in columns for p in range(n))
    yield from _spelled(cycle, n - s, "", top + 1)


