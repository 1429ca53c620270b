"""s-overlap cycles via Euler tours on transition digraphs.

An s-overlap cycle for a set of length-n words is a cyclic ordering in which
each word's last s digits equal the next word's first s digits (wrapping
around).  Encoding every word as a directed edge from its s-prefix to its
s-suffix turns these cycles into exactly the Euler tours of the resulting
multigraph, so existence reduces to the classic criterion: balanced and
weakly connected.

This module owns the engine's one word coding, ``_Codes``: each word is an
int whose fixed-width bit fields hold its digits, so numeric order is word
order and prefixes and suffixes are shifts and masks.  Digits in 0..255
take byte codes, ``int.from_bytes(bytes(word), "big")``.  CLI ``ocycle`` and
``digraph`` enumerate their sets straight into codes (``_word_codes``);
tuple words given to the library are coded once on entry (``_encode``) and
decoded once on exit.  In between, the digraph, ``is_balanced``, the
Hierholzer walk, the self-check ``_cycle_fault`` and compression work on
the codes only.  The tests check the engine against the tuple-based
Hierholzer kept in ``tests/ocycle_oracles.py`` and against networkx.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from operator import ge, ne

from . import _LAZY
from .words import (
    DEFAULT_MATERIALIZATION_CAP,
    Word,
    _check_overlap,
    _check_params,
    _check_set,
    _Record,
    _split,
    enumerate_fixed_weight,
    format_word,
    parse_word,
)

TYPE_CHECKING = False  # typing serves type checkers only; see words
if TYPE_CHECKING:
    from typing import Iterable, Iterator, Sequence

__all__ = _LAZY["ocycles"]  # listed in the package, which loads this module lazily

REASON_GCD = "gcd-condition"
REASON_WEIGHT_RANGE = "theorem-weight-range"
REASON_CONSTRUCTED = "constructed"
REASON_DISCONNECTED = "digraph-disconnected"
REASON_UNBALANCED = "digraph-unbalanced"
REASON_EMPTY = "empty-set"
REASON_DEGENERATE = "degenerate-checked"
REASON_SINGLETON = "singleton-mismatch"


class NotEulerianError(ValueError):
    """The digraph admits no Euler tour; ``reason`` says which condition failed."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class _Codes(tuple):
    """Codes of words of one length ``n``: a tuple of ints that carries its coding.

    Digit d of a word fills a ``width``-bit field with d - ``low``, first
    digit highest, so numeric order is word order, the first j digits of
    code c are ``c >> width*(n-j)`` and the last j are
    ``c & ((1 << width*j) - 1)``.  Byte codes, the default, have width 8
    and low 0: ``int.from_bytes(bytes(word), "big")``.  ``tuples`` marks
    codes made from tuple words, which the engine hands back as tuples.
    Being a tuple, it is immutable and hashable like a tuple of words.
    """

    tuples = False

    def __new__(cls, codes: Iterable[int], n: int, width: int = 8, low: int = 0) -> _Codes:
        self = super().__new__(cls, codes)
        self.n, self.width, self.low = n, width, low
        return self

    def like(self, codes: Iterable[int]) -> _Codes:
        """Other codes in this coding, marked like these."""
        other = _Codes(codes, self.n, self.width, self.low)
        other.tuples = self.tuples
        return other

    def digits(self) -> Iterator[bytes | Word]:
        """Each word's digits, in order: bytes for byte codes, else tuples."""
        n, width, low = self.n, self.width, self.low
        if (width, low) == (8, 0):
            return map(int.to_bytes, self, repeat(n), repeat("big"))
        mask, shifts = (1 << width) - 1, range(width * (n - 1), -1, -width)
        return (tuple([(c >> i & mask) + low for i in shifts]) for c in self)


def _code(word: Sequence[int], width: int, low: int = 0) -> int:
    """The code of one word whose digits less ``low`` fit in ``width`` bits."""
    code = 0
    for d in word:
        code = code << width | d - low
    return code


def _encode(words: Sequence[Sequence[int]], n: int) -> _Codes:
    """The codes of words of length n, in their order, marked as tuple words.

    Byte codes when every digit lies in 0..255, which ``bytes`` checks as it
    codes; otherwise each digit less the smallest one fills just enough bits
    for the largest.
    """
    try:
        codes = _Codes(map(int.from_bytes, map(bytes, words), repeat("big")), n)
    except ValueError:  # a digit outside 0..255
        low = min(map(min, words))
        width = (max(map(max, words)) - low).bit_length() or 1
        codes = _Codes(map(_code, words, repeat(width), repeat(low)), n, width, low)
    codes.tuples = True
    return codes


def _misfit(words: Sequence[Sequence[int]], n: int) -> int | None:
    """Index of the first word whose length is not n, or None."""
    return next(compress(count(), map(ne, map(len, words), repeat(n))), None)


def _codes(m: int, n: int, p: int, q: int) -> _Codes:
    """Codes of the length-n words over {0..m-1} with weight in [p, q], ascending.

    Byte codes over m <= 256, fields of (m-1).bit_length() bits beyond.
    Needs m >= 1 and n >= 0; an empty window gives no codes.  Each word is
    cut after n//2 digits by ``_split``, and each word costs one addition:
    head code shifted past the tail, plus tail code.
    """
    width = 8 if m <= 256 else (m - 1).bit_length()
    t = n - n // 2
    pairs = [(_code(head, width) << width * t, lasts)
             for head, lasts in _split(m, n, t, p, q, False, lambda w: _code(w, width))]
    return _Codes([first + last for first, lasts in pairs for last in lasts], n, width)


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
    ``base`` is 2**width, 256 for byte codes.  The tuple view is decoded on
    first use and kept: ``edges`` maps (prefix, suffix) vertex pairs to the
    ascending tuple of word labels travelling that way, and ``vertices``
    holds their endpoints.  ``by_code`` is left out of the hash and the repr.
    """

    s: int
    n: int
    base: int
    by_code: _Codes
    _hidden = ("by_code",)

    def edge_count(self) -> int:
        return len(self.by_code)

    @cached_property
    def edges(self) -> dict[tuple[Word, Word], tuple[Word, ...]]:
        """Word labels by (prefix, suffix) vertex pair, grouped on the codes.

        Pairs come in order of prefix, then suffix; each vertex is decoded
        once and shared by all its pairs.
        """
        codes, n, s = self.by_code, self.n, self.s
        shift, mask = codes.width * (n - s), (1 << codes.width * s) - 1
        groups: dict[tuple[int, int], list[Word]] = {}
        for code, word in zip(codes, map(tuple, codes.digits())):
            groups.setdefault((code >> shift, code & mask), []).append(word)
        vertex: dict[int, Word] = {}
        edges: dict[tuple[Word, Word], tuple[Word, ...]] = {}
        for u, v in sorted(groups):
            labels = groups[u, v]
            pair = vertex.setdefault(u, labels[0][:s]), vertex.setdefault(v, labels[0][n - s:])
            edges[pair] = tuple(labels)
        return edges

    @cached_property
    def vertices(self) -> frozenset[Word]:
        return frozenset(chain.from_iterable(self.edges))

    @cached_property
    def _degrees(self) -> tuple[dict[Word, int], dict[Word, int]]:
        """(out-degree, in-degree) by vertex, counted in one pass over the edges."""
        outs: dict[Word, int] = {}
        ins: dict[Word, int] = {}
        for (u, v), labels in self.edges.items():
            outs[u] = outs.get(u, 0) + len(labels)
            ins[v] = ins.get(v, 0) + len(labels)
        return outs, ins

    def out_degree(self, vertex: Word) -> int:
        return self._degrees[0].get(vertex, 0)

    def in_degree(self, vertex: Word) -> int:
        return self._degrees[1].get(vertex, 0)


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
        codes = codes.like(sorted(codes))
    if codes:
        _check_overlap(codes.n, s)
    elif s < 1:
        raise ValueError(f"overlap length s={s} out of range")
    if any(map(ge, codes, islice(codes, 1, None))):
        if codes.tuples:
            raise ValueError("duplicate words in input set")
        raise ValueError("byte codes are not strictly ascending")
    return TransitionDigraph(s, codes.n, 1 << codes.width, codes)


def is_balanced(digraph: TransitionDigraph) -> bool:
    """True iff in-degree equals out-degree at every vertex, counted on the codes.

    Out-degrees are the lengths of the sorted codes' prefix runs, in-degrees
    the counts of their suffixes.
    """
    codes, s = digraph.by_code, digraph.s
    runs = _prefix_runs(codes, codes.width * (digraph.n - s))
    outs = Counter({u: hi - lo for u, lo, hi in runs})
    return outs == Counter(map(((1 << codes.width * s) - 1).__and__, codes))


def weak_components(digraph: TransitionDigraph) -> list[frozenset[Word]]:
    """Connected components of the underlying undirected multigraph.

    Deterministic: components are sorted by their smallest vertex.
    """
    parent = {v: v for v in digraph.vertices}

    def find(x: Word) -> Word:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in digraph.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[Word, set[Word]] = {}
    for v in digraph.vertices:
        groups.setdefault(find(v), set()).add(v)
    return sorted((frozenset(g) for g in groups.values()), key=min)


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
    unused out-edge, so the tour begins with the smallest word.  Balance is
    checked first, by ``is_balanced``; in a balanced digraph the walk from
    one vertex covers exactly that vertex's weak component, so a tour
    shorter than the edge count means the digraph is not weakly connected.
    Raises NotEulerianError when the digraph is unbalanced or not weakly
    connected, and ValueError when it has no edges.  A digraph built from
    codes (``_Codes``) returns its tour as codes.
    """
    codes = digraph.by_code
    if not codes:
        raise ValueError("digraph has no edges")
    if not is_balanced(digraph):
        raise NotEulerianError(
            REASON_UNBALANCED, "no Euler tour: in/out degrees differ at some vertex"
        )
    shift = codes.width * (digraph.n - digraph.s)
    mask = (1 << codes.width * digraph.s) - 1  # a code's s-suffix vertex is code & mask
    # Out-lists run largest code first, so pop() yields the smallest.
    out = {u: [*reversed(codes[lo:hi])] for u, lo, hi in _prefix_runs(codes, shift)}
    # An edge on the stack left from the vertex whose out-list sits at the
    # same depth of ``left``, so stepping back needs no prefix arithmetic.
    stack: list[int] = []
    left: list[list[int]] = []
    tour: list[int] = []
    ready = out[codes[0] >> shift]
    while True:
        if ready:
            code = ready.pop()
            stack.append(code)
            left.append(ready)
            ready = out[code & mask]  # balanced: every vertex entered has one
        elif stack:
            tour.append(stack.pop())
            ready = left.pop()
        else:
            break
    if len(tour) != len(codes):
        raise NotEulerianError(
            REASON_DISCONNECTED, "no Euler tour: digraph is not weakly connected"
        )
    tour.reverse()
    coded = codes.like(tour)
    return list(map(tuple, coded.digits())) if codes.tuples else coded


class OcycleSolution(_Record):
    """A cyclic word ordering with the s-overlap property.

    Stored linearly with implicit wraparound, rotated to start at the
    lexicographically smallest word.  For input given as codes (``_Codes``)
    ``construct_ocycle`` stores the cycle as codes too, in a ``_Codes``,
    which is a tuple: the solution stays immutable and hashable.
    """

    s: int
    cycle: tuple[Word, ...] | _Codes


class OcycleReport(_Record):
    """Verifier verdict; index -1 marks a whole-cycle violation."""

    ok: bool
    first_violation: tuple[int, str] | None = None


def _cycle_fault(cycle: Sequence[Word] | _Codes, n: int, s: int) -> tuple[int, str] | None:
    """First fault of a claimed s-overlap cycle, checked against itself only.

    In order: a word whose length is not n, any repeated word (index -1),
    then the first word whose last s digits differ from the next word's
    first s digits, wrapping around.  Returns (index, description) or None.
    Takes words, coded once their lengths pass, or codes (``_Codes``), and
    1 <= s < n.  Repeats are found on a sorted copy of the codes, which
    costs less time and memory than a set of them.
    """
    if not isinstance(cycle, _Codes):
        i = _misfit(cycle, n)
        if i is not None:
            return i, f"word has length {len(cycle[i])}, expected {n}"
        cycle = _encode(cycle, n)
    elif cycle and cycle.n != n:
        return 0, f"word has length {cycle.n}, expected {n}"
    ordered = sorted(cycle)
    if any(map(ge, ordered, islice(ordered, 1, None))):
        return -1, "input word set contains duplicates"
    suffixes = map(((1 << cycle.width * s) - 1).__and__, cycle)
    following = chain(islice(cycle, 1, None), cycle[:1])
    next_prefixes = map((cycle.width * (n - s)).__rrshift__, following)
    i = next(compress(count(), map(ne, suffixes, next_prefixes)), None)
    if i is None:
        return None
    w, nxt = cycle.like((cycle[i], cycle[(i + 1) % len(cycle)])).digits()
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
    except NotEulerianError:
        if len(codes) > 1:
            raise
        (word,) = codes.digits()
        raise NotEulerianError(
            REASON_SINGLETON,
            f"single word {format_word(word)} does not overlap itself in {s} digits",
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


class ExistenceVerdict(_Record):
    """Outcome of an existence check, with the rule that decided it."""

    exists: bool
    reason: str
    detail: str | None = None


def exists_fixed_weight_ocycle(m: int, n: int, k: int, s: int) -> ExistenceVerdict:
    """Does the set of weight-k words of length n admit an s-overlap cycle?

    For weights strictly between 1 and (m-1)*n - 1 the answer is the gcd
    rule: a cycle exists iff n - s > gcd(n, s).  Outside that window the
    sets are tiny (at most n words) and rotation-degenerate, and the gcd
    rule is not reliable there, so the verdict is decided by actually
    constructing a cycle.  An empty set never has a cycle.
    """
    _check_params(m, n, s=s)
    if k < 0 or k > (m - 1) * n:
        return ExistenceVerdict(False, REASON_EMPTY, detail=f"no weight-{k} words exist")
    if 1 < k < (m - 1) * n - 1:
        d = math.gcd(n, s)
        return ExistenceVerdict(
            n - s > d, REASON_GCD, detail=f"n-s={n - s}, gcd(n,s)={d}"
        )
    word_set = enumerate_fixed_weight(m, n, k)
    try:
        solution = construct_ocycle(word_set, s)
    except NotEulerianError as exc:
        return ExistenceVerdict(False, REASON_DEGENERATE, detail=exc.reason)
    return ExistenceVerdict(
        True, REASON_DEGENERATE, detail=f"constructed a {len(solution.cycle)}-word cycle"
    )


def exists_weight_range_ocycle(
    m: int, n: int, p: int, q: int, s: int
) -> ExistenceVerdict:
    """Does the set of words with weight in [p, q] admit an s-overlap cycle?

    Always yes for valid parameters (1 <= s < n, 0 <= p < q <= (m-1)*n):
    the slack of even a single extra weight level keeps the transition
    digraph connected.  Parameter violations raise.
    """
    _check_params(m, n, s=s, p=p, q=q)
    return ExistenceVerdict(True, REASON_WEIGHT_RANGE)


def compress_cycle(solution: OcycleSolution, n: int) -> str:
    """Compressed text form: the first n-s digits of each word, around the cycle.

    The result is a cyclic string of len(cycle) * (n-s) symbols whose
    stride-(n-s) windows of length n spell out the cycle's words in order;
    the s overlapping digits of each word are supplied by its successors.
    The input is checked first, in O(len(cycle)), by the check that CLI
    ``verify ocycle`` runs: it is rejected unless 1 <= s <= n-1, its words
    all have length n and are distinct, and each word's last s digits equal
    the next word's first s digits, wrapping around.  Words are coded once,
    after their lengths are checked; the check and the text work on codes.
    """
    cycle, s = solution.cycle, solution.s
    if not cycle:
        raise ValueError("cannot compress an empty cycle")
    if not isinstance(cycle, _Codes) and _misfit(cycle, n) is None:
        cycle = _encode(cycle, n)  # a length fault is left to _cycle_fault
    if not 1 <= s < n or _cycle_fault(cycle, n, s) is not None:
        raise ValueError("refusing to compress an unverified cycle")
    step = n - s
    if (cycle.width, cycle.low) != (8, 0):
        return format_word([d for w in cycle.digits() for d in w[:step]])
    # The first n-s digits of byte code c are the bytes of c >> 8*s.
    heads = map(int.to_bytes, map((8 * s).__rrshift__, cycle), repeat(step), repeat("big"))
    # Joined 4,096 at a time: one block's bytes objects alive, not one per word.
    digits = bytearray()
    while block := b"".join(islice(heads, 4096)):
        digits += block
    digits = bytes(digits)  # rebound, so the bytearray is freed before the text is made
    return format_word(digits)


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
    both are emitted in sorted order so identical digraphs always render to
    identical text.
    """
    label = {vertex: format_word(vertex, m) for vertex in sorted(digraph.vertices)}
    lines = ["digraph transitions {"]
    lines.extend(f'    "{text}";' for text in label.values())
    for u, v in sorted(digraph.edges):
        arrow = f'    "{label[u]}" -> "{label[v]}" [label="'
        for word in digraph.edges[u, v]:
            lines.append(f'{arrow}{format_word(word, m)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
