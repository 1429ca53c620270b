"""An independent, tuple-based overlap-cycle builder, for tests only.

The library finds Euler tours on integer word codes.  This oracle shares
none of that code: it keys vertices by s-digit tuples, counts degrees per
vertex, decides weak connectivity with its own graph search, and walks
Hierholzer's algorithm over tuple labels with a per-vertex cursor, an
iterator over the vertex's sorted labels.  It follows the same
deterministic rule (start at the smallest vertex, leave on the smallest
unused label) and raises the same errors, so the library must match it
exactly.

``oracle_edges`` builds the tuple view of the transition digraph by slicing
every word, and ``oracle_first_gap`` checks the overlap rule one index at a
time; the library derives the first from integer codes and checks the
second with one ``map`` pipeline.  ``oracle_self_check`` is CLI ``verify
ocycle`` as it was before it shared ``compress_cycle``'s check.

(The module is not called ``oracles`` because ``perfbench/oracles.py``
already owns that import name on the shared test path.)
"""

from itertools import chain, islice
from operator import ge

from graycycles import NotEulerianError, format_word
from graycycles.codes import _code
from graycycles.ocycles import REASON_DISCONNECTED, REASON_SINGLETON, REASON_UNBALANCED
from graycycles.words import _split


def oracle_edges(words, s):
    """Word labels by (s-prefix, s-suffix) vertex pair, each tuple sorted.

    The words must be distinct, of one length n, with 1 <= s <= n-1.
    """
    groups = {}
    for w in map(tuple, words):
        groups.setdefault((w[:s], w[len(w) - s:]), []).append(w)
    return {pair: tuple(sorted(labels)) for pair, labels in groups.items()}


def oracle_first_gap(cycle, s):
    """Index of the first word whose last s digits differ from the next
    word's first s digits, wrapping around; None if every pair overlaps."""
    claimed = [tuple(w) for w in cycle]
    total = len(claimed)
    for i, w in enumerate(claimed):
        nxt = claimed[(i + 1) % total]
        if w[len(w) - s:] != nxt[:s]:
            return i
    return None


def oracle_self_check(words, n, s):
    """(stdout, exit code) of CLI ``verify ocycle n s`` on parsed ``words``.

    Spells out what the command ran before it shared ``compress_cycle``'s
    check: a length loop, then ``verify_ocycle(words, words, s)``, which
    for a list checked against itself reduces to the empty list, the
    duplicate test and the per-index overlap oracle.  Takes 1 <= s < n.
    """
    words = [tuple(w) for w in words]
    for i, w in enumerate(words):
        if len(w) != n:
            return f"violation at index {i}: word has length {len(w)}, expected {n}\n", 1
    if not words:
        return "ok\n", 0
    if len(set(words)) != len(words):
        return "violation at index -1: input word set contains duplicates\n", 1
    gap = oracle_first_gap(words, s)
    if gap is None:
        return "ok\n", 0
    w, nxt = words[gap], words[(gap + 1) % len(words)]
    return (f"violation at index {gap}: words {format_word(w)} and {format_word(nxt)} "
            f"do not overlap in {s} digits\n", 1)


def oracle_tour(words, s):
    """Euler tour of the transition digraph of ``words``, as a list of words.

    The words must be distinct, of one length n, with 1 <= s <= n-1.
    """
    labels = [tuple(w) for w in words]
    n = len(labels[0])
    tail = n - s
    out, ins, pairs = {}, {}, set()
    for w in labels:
        u, v = w[:s], w[tail:]
        out.setdefault(u, []).append(w)
        ins[v] = ins.get(v, 0) + 1
        pairs.add((u, v))
    vertices = set(out) | set(ins)
    if any(len(out.get(v, ())) != ins.get(v, 0) for v in vertices):
        raise NotEulerianError(
            REASON_UNBALANCED, "no Euler tour: in/out degrees differ at some vertex"
        )

    # Weakly connected iff a search along the pairs, both ways, reaches every vertex.
    near = {v: set() for v in vertices}
    for u, v in pairs:
        near[u].add(v)
        near[v].add(u)
    seen = {min(vertices)}
    todo = list(seen)
    while todo:
        new = near[todo.pop()] - seen
        seen |= new
        todo.extend(new)
    if len(seen) != len(vertices):
        raise NotEulerianError(
            REASON_DISCONNECTED, "no Euler tour: digraph is not weakly connected"
        )

    # Balanced, so every vertex the walk enters has out-edges.
    cursor = {u: iter(sorted(ready)) for u, ready in out.items()}
    stack = [(cursor[min(out)], None)]
    tour = []
    while stack:
        ready, incoming = stack[-1]
        label = next(ready, None)
        if label is not None:
            stack.append((cursor[label[tail:]], label))
        else:
            stack.pop()
            if incoming is not None:
                tour.append(incoming)
    tour.reverse()
    return tour


def oracle_cycle(words, s):
    """The s-overlap cycle of a nonempty word set, rotated to its smallest word.

    A single word forms a cycle by itself iff its s-prefix equals its
    s-suffix; otherwise the cycle is the Euler tour above.
    """
    labels = [tuple(w) for w in words]
    if len(labels) == 1:
        (word,) = labels
        if word[:s] != word[len(word) - s:]:
            raise NotEulerianError(
                REASON_SINGLETON,
                f"single word {format_word(word)} does not overlap itself in {s} digits",
            )
        return (word,)
    tour = oracle_tour(labels, s)
    pivot = tour.index(min(tour))
    return tuple(tour[pivot:] + tour[:pivot])


# The expressions the lane kernels (``codes._lanes``) replaced, kept as
# oracles for them.

def oracle_lanes(codes, size):
    """The codes' lanes of ``size`` bytes, little-endian, laid out code by code."""
    return b"".join([c.to_bytes(size, "little") for c in codes])


def oracle_ascending(raw):
    """Whether the codes strictly ascend: the pairwise test the digraph ran."""
    return not any(map(ge, raw, islice(raw, 1, None)))


def oracle_overlap_accept(raw, n, width, s):
    """Whether every code's last s digits are the next code's first s, wrapping around."""
    mask, shift = (1 << width * s) - 1, width * (n - s)
    following = chain(islice(raw, 1, None), raw[:1])
    return all(c & mask == d >> shift for c, d in zip(raw, following))


def oracle_codes(m, n, p, q):
    """The codes of ``codes._codes(m, n, p, q)`` as the chained per-word additions made them."""
    width = (m - 1).bit_length() or 1
    t = n - n // 2
    heads = _split(m, n, t, p, q, False, lambda w: _code(w, width))
    return list(chain.from_iterable(
        map((_code(head, width) << width * t).__add__, lasts) for head, lasts in heads
    ))
