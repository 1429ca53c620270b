"""Reference code the benchmark checks the program against.

Nothing here imports graycycles: the counting oracle, the Gray order used to
build verifier inputs, the overlap-cycle builder and the cycle checker are
independent realizations, so a wrong answer from the program cannot be
confirmed by the program's own verifiers.  Words are digit strings, which is
enough for the alphabets the workloads use (m <= 10).
"""

from __future__ import annotations

import math
from functools import lru_cache


def count_fixed_weight(m: int, n: int, k: int) -> int:
    """|B_k(m, n)| by inclusion-exclusion over digits forced above m-1.

    sum_j (-1)^j C(n, j) C(k - j*m + n - 1, n - 1)
    """
    if n == 0:
        return int(k == 0)
    if k < 0:
        return 0
    total = 0
    for j in range(min(n, k // m) + 1):
        term = math.comb(n, j) * math.comb(k - j * m + n - 1, n - 1)
        total += -term if j % 2 else term
    return total


def gray_order(m: int, n: int, k: int) -> list[str]:
    """The reflected two-change ordering of the weight-k words, as strings.

    Words are grouped by leading digit in increasing order; the group of a
    digit d lists its tails forward when d is even and reversed when d is
    odd.  This is the order the CLI's ``gray`` command prints.
    """

    @lru_cache(maxsize=None)
    def forward(length: int, weight: int) -> tuple[str, ...]:
        if length == 0:
            return ("",) if weight == 0 else ()
        lo = max(0, weight - (m - 1) * (length - 1))
        out: list[str] = []
        for d in range(lo, min(m - 1, weight) + 1):
            tails = forward(length - 1, weight - d)
            head = str(d)
            out.extend(head + t for t in (reversed(tails) if d % 2 else tails))
        return tuple(out)

    if not 0 <= k <= (m - 1) * n:
        return []
    return list(forward(n, k))


def overlap_cycle(words: list[str], s: int, rotate: int = 0) -> list[str]:
    """An s-overlap cycle through ``words`` (an Euler tour of the overlap digraph).

    Each word is an edge from its s-prefix to its s-suffix; Hierholzer's
    algorithm walks every edge once.  The caller guarantees the digraph is
    balanced and connected.  The cycle is rotated left by ``rotate`` places.
    """
    n = len(words[0])
    out: dict[str, list[str]] = {}
    for w in sorted(words, reverse=True):
        out.setdefault(w[:s], []).append(w)  # pop() takes the smallest first
    stack: list[tuple[str, str | None]] = [(min(out), None)]
    tour: list[str] = []
    while stack:
        vertex, incoming = stack[-1]
        edges = out.get(vertex)
        if edges:
            w = edges.pop()
            stack.append((w[n - s:], w))
        else:
            stack.pop()
            if incoming is not None:
                tour.append(incoming)
    tour.reverse()
    if len(tour) != len(words):
        raise ValueError("overlap digraph is not Eulerian")
    rotate %= len(tour)
    return tour[rotate:] + tour[:rotate]


def check_cycle(words: list[str], m: int, n: int, k: int, s: int) -> str | None:
    """Why ``words`` is not an s-overlap cycle of B_k(m, n), or None if it is."""
    expected = count_fixed_weight(m, n, k)
    if len(words) != expected:
        return f"{len(words)} words, expected {expected}"
    if len(set(words)) != len(words):
        return "duplicate words"
    if not set("".join(words)) <= set("0123456789"[:m]):
        return f"a word has a digit outside 0..{m - 1}"
    digits = [(str(d), d) for d in range(1, m)]
    for i, w in enumerate(words):
        if len(w) != n:
            return f"word {i} ({w!r}) does not have length {n}"
        if sum(d * w.count(c) for c, d in digits) != k:
            return f"word {i} ({w}) does not have weight {k}"
        nxt = words[(i + 1) % len(words)]
        if w[n - s:] != nxt[:s]:
            return f"words {i} and {i + 1} do not overlap in {s} digits"
    return None


def decode_compressed(text: str, n: int, s: int) -> list[str]:
    """The words of a compressed cycle: length-n windows at stride n-s, cyclically."""
    step = n - s
    if not text or len(text) % step:
        raise ValueError(f"compressed length {len(text)} is not a multiple of {step}")
    wrapped = text + text[:n]
    return [wrapped[i:i + n] for i in range(0, len(text), step)]
