"""The overlap-cycle engine's library-only surface.

The cross-checking verifier ``verify_ocycle`` and its report, the reader
``decompress_cycle``, DOT export and the digraph's balance and component
queries.  CLI ``ocycle`` and ``verify ocycle`` call none of them, so they
live apart from the engine in ``ocycles``, which serves them on first
access (PEP 562) and is compiled on every such start when no bytecode
cache is kept.  CLI ``digraph`` loads this module for ``export_dot``.
"""

from __future__ import annotations

from .ocycles import TransitionDigraph, _cycle_fault, _degree_counts, _VIEWS
from .records import _Record
from .words import Word, _check_overlap, format_word, parse_word

TYPE_CHECKING = False  # typing serves type checkers only; see words
if TYPE_CHECKING:
    from typing import Sequence

__all__ = _VIEWS


class OcycleReport(_Record):
    """Verifier verdict; index -1 marks a whole-cycle violation."""

    ok: bool
    first_violation: tuple[int, str] | None = None


def is_balanced(digraph: TransitionDigraph) -> bool:
    """True iff in-degree equals out-degree at every vertex, counted on the codes."""
    outs, ins = _degree_counts(digraph)
    return outs == ins


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
