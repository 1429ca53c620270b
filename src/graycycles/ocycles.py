"""s-overlap cycles via Euler tours on transition digraphs.

An s-overlap cycle for a set of length-n words is a cyclic ordering in which
each word's last s digits equal the next word's first s digits (wrapping
around).  Encoding every word as a directed edge from its s-prefix to its
s-suffix turns these cycles into exactly the Euler tours of the resulting
multigraph, so existence reduces to the classic criterion: balanced and
weakly connected.

``TransitionDigraph`` stores only integer codes, in which numeric order is
word order (see ``build_transition_digraph``), so each vertex's out-edges
are one run of the sorted codes.  ``is_balanced`` and ``euler_tour`` work
on the codes, and byte-coded input (``words._Codes``) gets its tour back as
byte codes, so CLI ``ocycle`` makes no word tuple from enumeration to
output.  ``_cycle_fault`` is the one self-check of a cycle.  The tests
check the engine against the tuple-based Hierholzer kept in
``tests/ocycle_oracles.py`` and against networkx.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from functools import cached_property
from itertools import chain, compress, count, groupby, islice, repeat
from operator import ge, getitem, ne

from . import _LAZY
from .words import (
    Word,
    _check_overlap,
    _check_params,
    _Codes,
    _Record,
    enumerate_fixed_weight,
    format_word,
    parse_word,
)

TYPE_CHECKING = False  # typing serves type checkers only; see words
if TYPE_CHECKING:
    from typing import Callable, Iterator, Sequence

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


class TransitionDigraph(_Record):
    """Directed multigraph of overlaps: vertices are s-strings, edges are words.

    Stored as ``by_code``: the words keyed by their base-``base`` codes (see
    ``build_transition_digraph``), or byte codes as the ``_Codes`` tuple
    itself.  The tuple view is derived on first use and kept: ``edges``
    maps (prefix, suffix) vertex pairs to the sorted tuple of word labels
    travelling that way, and ``vertices`` holds their endpoints.
    ``by_code`` is left out of the hash and the repr.
    """

    s: int
    n: int
    base: int
    by_code: dict[int, Word] | _Codes
    _hidden = ("by_code",)

    def edge_count(self) -> int:
        return len(self.by_code)

    @cached_property
    def _ascending(self) -> Sequence[int]:
        """The edge codes in ascending order; byte codes already are."""
        if isinstance(self.by_code, _Codes):
            return self.by_code
        return sorted(self.by_code)

    @cached_property
    def _labels(self) -> dict[int, Word]:
        """Word tuple by edge code; byte codes are decoded on first use."""
        if isinstance(self.by_code, dict):
            return self.by_code
        return dict(zip(self.by_code, map(tuple, self.by_code.digits())))

    @cached_property
    def edges(self) -> dict[tuple[Word, Word], tuple[Word, ...]]:
        """Word labels by (prefix, suffix) vertex pair, grouped by code."""
        n, s = self.n, self.s
        suffix_of = _suffix_of(self.base, s)
        codes = self._ascending
        vertex: dict[int, Word] = {}
        edges: dict[tuple[Word, Word], tuple[Word, ...]] = {}
        for u, lo, hi in _prefix_runs(codes, self.base ** (n - s)):
            # A stable sort by suffix keeps each label tuple in ascending order.
            for v, group in groupby(sorted(codes[lo:hi], key=suffix_of), suffix_of):
                labels = tuple(map(self._labels.__getitem__, group))
                if u not in vertex:
                    vertex[u] = labels[0][:s]
                if v not in vertex:
                    vertex[v] = labels[0][n - s:]
                edges[vertex[u], vertex[v]] = labels
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


def _suffix_of(base: int, s: int) -> Callable[[int], int]:
    """The s-suffix vertex of a base-``base`` word code, as a function.

    A power-of-two base takes a mask, which costs about half of a
    remainder on multi-digit ints.
    """
    if base & (base - 1):
        return (base ** s).__rmod__
    return ((1 << (base.bit_length() - 1) * s) - 1).__and__


def _prefix_runs(codes: Sequence[int], cut: int) -> Iterator[tuple[int, int, int]]:
    """(u, lo, hi) for each s-prefix vertex u of the ascending ``codes``.

    ``cut`` is base**(n-s).  The codes with prefix u fill [u*cut, (u+1)*cut),
    so they are the run ``codes[lo:hi]``, found with one bisection per vertex.
    """
    lo, total = 0, len(codes)
    while lo < total:
        u = codes[lo] // cut
        hi = bisect_left(codes, (u + 1) * cut, lo)
        yield u, lo, hi
        lo = hi


# Byte d in 0..35 becomes the base-36 digit character for d; other bytes
# become 0xFF, which int() rejects in every base.
_BASE36_DIGITS = b"0123456789abcdefghijklmnopqrstuvwxyz".ljust(256, b"\xff")


def build_transition_digraph(words: Sequence[Word], s: int) -> TransitionDigraph:
    """One edge per word, from its s-prefix vertex to its s-suffix vertex.

    All words must share one length n with 1 <= s <= n-1 and be pairwise
    distinct; an empty list only needs s >= 1 and builds an empty digraph.
    Each word is keyed, in input order, by its code: the number its digits
    spell in base b = 1 + largest digit (at least 2), so numeric order is
    word order.  If some digit lies outside 0..35, every digit is first
    lowered by the smallest one and b shrinks to match.  Byte codes
    (``words._Codes``) are kept as they are, with b = 256; they must be
    strictly ascending, which also makes them distinct.
    """
    if isinstance(words, _Codes) and words:
        _check_overlap(words.n, s)
        if any(map(ge, words, islice(words, 1, None))):
            raise ValueError("byte codes are not strictly ascending")
        return TransitionDigraph(s, words.n, 256, words)
    labels = list(map(tuple, words))
    if not labels:
        if s < 1:
            raise ValueError(f"overlap length s={s} out of range")
        return TransitionDigraph(s, 0, 2, {})
    n = len(labels[0])
    if len(set(map(len, labels))) > 1:
        w = next(w for w in labels if len(w) != n)
        raise ValueError(
            f"mixed word lengths: {format_word(w)} has length {len(w)}, expected {n}"
        )
    _check_overlap(n, s)
    high = max(map(max, labels))
    try:
        base = max(high + 1, 2)
        texts = map(bytes.translate, map(bytes, labels), repeat(_BASE36_DIGITS))
        by_code = dict(zip(map(int, texts, repeat(base)), labels))
    except ValueError:  # a digit outside 0..35, or too many digits for int()
        low = min(map(min, labels))
        base = max(high - low + 1, 2)
        by_code = {}
        for w in labels:
            code = 0
            for d in w:
                code = code * base + d - low
            by_code[code] = w
    if len(by_code) != len(labels):
        raise ValueError("duplicate words in input set")
    return TransitionDigraph(s, n, base, by_code)


def is_balanced(digraph: TransitionDigraph) -> bool:
    """True iff in-degree equals out-degree at every vertex, counted on the codes.

    Out-degrees are the lengths of the sorted codes' prefix runs.
    """
    base, n, s = digraph.base, digraph.n, digraph.s
    codes = digraph._ascending
    outs = Counter({u: hi - lo for u, lo, hi in _prefix_runs(codes, base ** (n - s))})
    return outs == Counter(map(_suffix_of(base, s), codes))


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


def euler_tour(digraph: TransitionDigraph) -> list[Word]:
    """Closed walk using every edge exactly once, as a list of edge labels.

    Hierholzer's algorithm over the digraph's integer codes, made
    deterministic: the walk starts at the smallest vertex and always leaves
    on the smallest unused out-edge, so the tour begins with the smallest
    word.  Balance is checked first, by ``is_balanced``; in a balanced
    digraph the walk from one vertex covers exactly that vertex's weak
    component, so a tour shorter than the edge count means the digraph is
    not weakly connected.  Raises NotEulerianError when the digraph is
    unbalanced or not weakly connected, and ValueError when it has no edges.
    A byte-coded digraph returns its tour as byte codes (``words._Codes``).
    """
    if not digraph.by_code:
        raise ValueError("digraph has no edges")
    if not is_balanced(digraph):
        raise NotEulerianError(
            REASON_UNBALANCED, "no Euler tour: in/out degrees differ at some vertex"
        )
    suffix_of = _suffix_of(digraph.base, digraph.s)
    codes = digraph._ascending
    cut = digraph.base ** (digraph.n - digraph.s)
    # Out-lists run largest code first, so pop() yields the smallest.
    out = {u: [*reversed(codes[lo:hi])] for u, lo, hi in _prefix_runs(codes, cut)}
    # An edge on the stack left from the vertex whose out-list sits at the
    # same depth of ``left``, so stepping back needs no prefix arithmetic.
    stack: list[int] = []
    left: list[list[int]] = []
    tour: list[int] = []
    ready = out[codes[0] // cut]
    while True:
        if ready:
            code = ready.pop()
            stack.append(code)
            left.append(ready)
            ready = out[suffix_of(code)]  # balanced: every vertex entered has one
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
    if isinstance(digraph.by_code, _Codes):
        return _Codes(tour, digraph.n)
    return list(map(digraph._labels.__getitem__, tour))


class OcycleSolution(_Record):
    """A cyclic word ordering with the s-overlap property.

    Stored linearly with implicit wraparound, rotated to start at the
    lexicographically smallest word.  For byte-coded input (``words._Codes``)
    ``construct_ocycle`` stores the cycle as byte codes too, in a
    ``_Codes``, which is a tuple: the solution stays immutable and hashable.
    """

    s: int
    cycle: tuple[Word, ...] | _Codes


class OcycleReport(_Record):
    """Verifier verdict; index -1 marks a whole-cycle violation."""

    ok: bool
    first_violation: tuple[int, str] | None = None


def _cycle_fault(cycle: Sequence[Word], n: int, s: int) -> tuple[int, str] | None:
    """First fault of a claimed s-overlap cycle, checked against itself only.

    In order: a word whose length is not n, any repeated word (index -1),
    then the first word whose last s digits differ from the next word's
    first s digits, wrapping around.  Returns (index, description) or None.
    Takes tuple words or byte codes (``words._Codes``), and 1 <= s < n.
    Byte codes are checked for repeats on a sorted copy, which costs less
    time and memory than a set of them.
    """
    if isinstance(cycle, _Codes):
        if cycle and cycle.n != n:
            return 0, f"word has length {cycle.n}, expected {n}"
        ordered = sorted(cycle)
        if any(map(ge, ordered, islice(ordered, 1, None))):
            return -1, "input word set contains duplicates"
        suffixes = map(_suffix_of(256, s), cycle)
        next_prefixes = map((8 * (n - s)).__rrshift__, chain(islice(cycle, 1, None), cycle[:1]))
    else:
        if set(map(len, cycle)) - {n}:
            i = next(i for i, w in enumerate(cycle) if len(w) != n)
            return i, f"word has length {len(cycle[i])}, expected {n}"
        if len(set(cycle)) != len(cycle):
            return -1, "input word set contains duplicates"
        suffixes = map(getitem, cycle, repeat(slice(-s, None)))
        next_prefixes = map(getitem, chain(cycle[1:], cycle[:1]), repeat(slice(None, s)))
    i = next(compress(count(), map(ne, suffixes, next_prefixes)), None)
    if i is None:
        return None
    w, nxt = cycle[i], cycle[(i + 1) % len(cycle)]
    if isinstance(cycle, _Codes):
        w, nxt = w.to_bytes(n, "big"), nxt.to_bytes(n, "big")
    return i, f"words {format_word(w)} and {format_word(nxt)} do not overlap in {s} digits"


def construct_ocycle(words: Sequence[Word], s: int) -> OcycleSolution:
    """Build an s-overlap cycle for the given word set, or fail loudly.

    The cycle is the Euler tour of the transition digraph read as edge
    labels, so it exists iff that digraph is balanced and weakly connected.
    A single word forms a cycle by itself iff its s-prefix equals its
    s-suffix.  Deterministic for a given input set.
    """
    digraph = build_transition_digraph(words, s)
    total = digraph.edge_count()
    if total == 0:
        raise ValueError("cannot build an overlap cycle for an empty word set")
    if total == 1:
        by_code = digraph.by_code
        cycle = by_code if isinstance(by_code, _Codes) else tuple(by_code.values())
        if _cycle_fault(cycle, digraph.n, s) is not None:
            (word,) = digraph._labels.values()
            raise NotEulerianError(
                REASON_SINGLETON,
                f"single word {format_word(word)} does not overlap itself in {s} digits",
            )
        return OcycleSolution(s=s, cycle=cycle)
    # The tour already begins with the smallest word: no rotation needed.
    tour = euler_tour(digraph)
    return OcycleSolution(s=s, cycle=tour if isinstance(tour, _Codes) else tuple(tour))


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
    the next word's first s digits, wrapping around.  A byte-coded cycle
    (``words._Codes``) is checked and written from its codes.
    """
    cycle, s = solution.cycle, solution.s
    if not isinstance(cycle, _Codes):
        cycle = tuple(map(tuple, cycle))
    if not cycle:
        raise ValueError("cannot compress an empty cycle")
    if not 1 <= s < n or _cycle_fault(cycle, n, s) is not None:
        raise ValueError("refusing to compress an unverified cycle")
    step = n - s
    if isinstance(cycle, _Codes):  # the first n-s digits of code c are c >> 8*s
        heads = map(int.to_bytes, map((8 * s).__rrshift__, cycle), repeat(step), repeat("big"))
        # Joined 4,096 at a time: one block's bytes objects alive, not one per word.
        digits = bytearray()
        while block := b"".join(islice(heads, 4096)):
            digits += block
        digits = bytes(digits)
    else:
        try:  # one byte per digit when every digit fits in a byte
            digits = bytes(chain.from_iterable(map(getitem, cycle, repeat(slice(None, step)))))
        except ValueError:
            digits = [d for w in cycle for d in w[:step]]
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
