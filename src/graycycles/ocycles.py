"""s-overlap cycles via Euler tours on transition digraphs.

An s-overlap cycle for a set of length-n words is a cyclic ordering in which
each word's last s digits equal the next word's first s digits (wrapping
around).  Encoding every word as a directed edge from its s-prefix to its
s-suffix turns these cycles into exactly the Euler tours of the resulting
multigraph, so existence reduces to the classic criterion: balanced and
weakly connected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .words import (
    Word,
    _check_params,
    enumerate_fixed_weight,
    format_word,
    parse_word,
    s_prefix,
    s_suffix,
)

__all__ = [
    "REASON_GCD",
    "REASON_WEIGHT_RANGE",
    "REASON_CONSTRUCTED",
    "REASON_DISCONNECTED",
    "REASON_UNBALANCED",
    "REASON_EMPTY",
    "REASON_DEGENERATE",
    "REASON_SINGLETON",
    "NotEulerianError",
    "TransitionDigraph",
    "OcycleSolution",
    "OcycleReport",
    "ExistenceVerdict",
    "build_transition_digraph",
    "is_balanced",
    "is_weakly_connected",
    "weak_components",
    "euler_tour",
    "construct_ocycle",
    "verify_ocycle",
    "exists_fixed_weight_ocycle",
    "exists_weight_range_ocycle",
    "compress_cycle",
    "decompress_cycle",
    "export_dot",
]

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


@dataclass(frozen=True)
class TransitionDigraph:
    """Directed multigraph of overlaps: vertices are s-strings, edges are words.

    ``edges`` maps (prefix, suffix) vertex pairs to the lexicographically
    sorted tuple of word labels travelling that way; parallel edges are just
    longer tuples.  Instances are treated as immutable once built.
    """

    s: int
    n: int
    vertices: frozenset[Word]
    edges: Mapping[tuple[Word, Word], tuple[Word, ...]]

    def edge_count(self) -> int:
        return sum(len(labels) for labels in self.edges.values())

    def out_degree(self, vertex: Word) -> int:
        return sum(
            len(labels) for (u, _), labels in self.edges.items() if u == vertex
        )

    def in_degree(self, vertex: Word) -> int:
        return sum(
            len(labels) for (_, v), labels in self.edges.items() if v == vertex
        )


def build_transition_digraph(words: Sequence[Word], s: int) -> TransitionDigraph:
    """One edge per word, from its s-prefix vertex to its s-suffix vertex.

    All words must share one length n with 1 <= s <= n-1 and be pairwise
    distinct.  An empty word list builds an empty digraph.
    """
    labels = [tuple(w) for w in words]
    n = len(labels[0]) if labels else 0
    if labels:
        for w in labels:
            if len(w) != n:
                raise ValueError(
                    f"mixed word lengths: {format_word(w)} has length {len(w)}, expected {n}"
                )
        if not 1 <= s <= n - 1:
            raise ValueError(f"overlap length s={s} out of range for n={n}")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate words in input set")
    elif s < 1:
        raise ValueError(f"overlap length s={s} out of range")

    grouped: dict[tuple[Word, Word], list[Word]] = {}
    vertices: set[Word] = set()
    for w in labels:
        u, v = w[:s], w[n - s:]
        grouped.setdefault((u, v), []).append(w)
        vertices.add(u)
        vertices.add(v)
    edges = {key: tuple(sorted(group)) for key, group in grouped.items()}
    return TransitionDigraph(s=s, n=n, vertices=frozenset(vertices), edges=edges)


def is_balanced(digraph: TransitionDigraph) -> bool:
    """True iff in-degree equals out-degree at every vertex."""
    outs: dict[Word, int] = {}
    ins: dict[Word, int] = {}
    for (u, v), labels in digraph.edges.items():
        outs[u] = outs.get(u, 0) + len(labels)
        ins[v] = ins.get(v, 0) + len(labels)
    return all(outs.get(v, 0) == ins.get(v, 0) for v in digraph.vertices)


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

    Hierholzer's algorithm, made deterministic: the walk starts at the
    smallest vertex and always leaves on the lexicographically smallest
    unused out-edge label.  Raises NotEulerianError when the digraph is
    unbalanced or not weakly connected, and ValueError when it has no edges.
    """
    total = digraph.edge_count()
    if total == 0:
        raise ValueError("digraph has no edges")
    if not is_balanced(digraph):
        raise NotEulerianError(
            REASON_UNBALANCED, "no Euler tour: in/out degrees differ at some vertex"
        )
    if not is_weakly_connected(digraph):
        raise NotEulerianError(
            REASON_DISCONNECTED, "no Euler tour: digraph is not weakly connected"
        )

    out: dict[Word, list[Word]] = {}
    for (u, _), labels in digraph.edges.items():
        out.setdefault(u, []).extend(labels)
    for labels in out.values():
        labels.sort()
    cursor = {u: 0 for u in out}
    tail = digraph.n - digraph.s

    start = min(out)
    stack: list[tuple[Word, Word | None]] = [(start, None)]
    tour: list[Word] = []
    while stack:
        vertex, incoming = stack[-1]
        ready = out.get(vertex, ())
        i = cursor.get(vertex, 0)
        if i < len(ready):
            cursor[vertex] = i + 1
            label = ready[i]
            stack.append((label[tail:], label))
        else:
            stack.pop()
            if incoming is not None:
                tour.append(incoming)
    tour.reverse()
    if len(tour) != total:  # unreachable once balanced + connected hold
        raise NotEulerianError(REASON_DISCONNECTED, "no Euler tour: edges left over")
    return tour


@dataclass(frozen=True)
class OcycleSolution:
    """A cyclic word ordering with the s-overlap property.

    Stored linearly with implicit wraparound, rotated to start at the
    lexicographically smallest word.
    """

    s: int
    cycle: tuple[Word, ...]


@dataclass(frozen=True)
class OcycleReport:
    """Verifier verdict; index -1 marks a whole-cycle violation."""

    ok: bool
    first_violation: tuple[int, str] | None = None


def construct_ocycle(words: Sequence[Word], s: int) -> OcycleSolution:
    """Build an s-overlap cycle for the given word set, or fail loudly.

    The cycle is the Euler tour of the transition digraph read as edge
    labels, so it exists iff that digraph is balanced and weakly connected.
    A single word forms a cycle by itself iff its s-prefix equals its
    s-suffix.  Deterministic for a given input set.
    """
    digraph = build_transition_digraph(words, s)
    if digraph.edge_count() == 0:
        raise ValueError("cannot build an overlap cycle for an empty word set")
    if digraph.edge_count() == 1:
        word = next(iter(digraph.edges.values()))[0]
        if s_prefix(word, s) != s_suffix(word, s):
            raise NotEulerianError(
                REASON_SINGLETON,
                f"single word {format_word(word)} does not overlap itself in {s} digits",
            )
        return OcycleSolution(s=s, cycle=(word,))
    tour = euler_tour(digraph)
    pivot = tour.index(min(tour))
    return OcycleSolution(s=s, cycle=tuple(tour[pivot:] + tour[:pivot]))


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
    if not 1 <= s <= n - 1:
        return OcycleReport(False, (-1, f"overlap length s={s} out of range for n={n}"))
    if len(set(expected)) != len(expected):
        return OcycleReport(False, (-1, "input word set contains duplicates"))
    remaining = set(expected)
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
    total = len(claimed)
    for i, w in enumerate(claimed):
        nxt = claimed[(i + 1) % total]
        if w[n - s:] != nxt[:s]:
            return OcycleReport(
                False,
                (i, f"words {format_word(w)} and {format_word(nxt)} do not overlap in {s} digits"),
            )
    return OcycleReport(True)


@dataclass(frozen=True)
class ExistenceVerdict:
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


def _check_solution(solution: OcycleSolution, n: int) -> None:
    cycle, s = solution.cycle, solution.s
    if not cycle:
        raise ValueError("cannot compress an empty cycle")
    report = verify_ocycle(cycle, cycle, s)
    if not report.ok or any(len(w) != n for w in cycle):
        raise ValueError("refusing to compress an unverified cycle")


def compress_cycle(solution: OcycleSolution, n: int) -> str:
    """Compressed text form: the first n-s digits of each word, around the cycle.

    The result is a cyclic string of len(cycle) * (n-s) symbols whose
    stride-(n-s) windows of length n spell out the cycle's words in order;
    the s overlapping digits of each word are supplied by its successors.
    The input is re-verified first and rejected if it is not a valid cycle.
    """
    _check_solution(solution, n)
    step = n - solution.s
    digits = [d for w in solution.cycle for d in w[:step]]
    return format_word(digits)


def decompress_cycle(text: str, n: int, s: int) -> tuple[Word, ...]:
    """Read the words back out of a compressed cycle string.

    Inverse of compress_cycle: takes len(text)/(n-s) windows of length n at
    stride n-s, wrapping cyclically.
    """
    symbols = parse_word(text)
    if not 1 <= s <= n - 1:
        raise ValueError(f"overlap length s={s} out of range for n={n}")
    step = n - s
    total = len(symbols)
    if total == 0 or total % step != 0:
        raise ValueError(
            f"compressed text length {total} is not a multiple of n-s={step}"
        )
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
    lines = ["digraph transitions {"]
    for vertex in sorted(digraph.vertices):
        lines.append(f'    "{format_word(vertex, m)}";')
    for u, v in sorted(digraph.edges):
        for label in digraph.edges[u, v]:
            lines.append(
                f'    "{format_word(u, m)}" -> "{format_word(v, m)}"'
                f' [label="{format_word(label, m)}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
