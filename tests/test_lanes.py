"""The lane kernels of the overlap-cycle engine against the expressions they replaced.

``codes._lanes`` lays a block of codes out as lanes of one int; the
digraph's ascending test, the self-check's overlap accept and ``_codes``
run on it.  Each is checked here against the per-code expression it
replaced (``ocycle_oracles``), at the seams where ``_blocks`` cuts blocks.
"""

from array import array
from itertools import count, product

import pytest

from graycycles import (
    build_transition_digraph,
    construct_ocycle,
    enumerate_fixed_weight,
    enumerate_weight_range,
    ocycles,
)
from graycycles.codes import _ARRAY_TYPE, _Codes, _blocks, _code, _codes, _lanes, _spread
from ocycle_oracles import (
    oracle_ascending,
    oracle_codes,
    oracle_first_gap,
    oracle_lanes,
    oracle_overlap_accept,
    oracle_self_check,
)

LENGTHS = [0, 1, 2, 4095, 4096, 4097, 8193]


def spaced(length, top):
    """``length`` codes from 0 to ``top`` (both present from 2 on), ascending where room allows."""
    if length < 2:
        return [top] * length
    step = max(1, top // (length - 1))
    return [min(i * step, top) for i in range(length - 1)] + [top]


def seams(total, size):
    """Where ``_blocks`` starts each block after the first, for ``total`` codes of ``size``-byte lanes."""
    starts = [0]
    for block in _blocks(range(total), size):
        starts.append(starts[-1] + len(block))
    return starts[1:-1]


@pytest.mark.parametrize("typecode", "BHIQ")
def test_lanes_match_code_by_code_layout(typecode):
    item = array(typecode).itemsize
    top = (1 << 8 * item) - 1  # a lane of all ones where the lane is the item
    for length in LENGTHS:
        codes = spaced(length, top)
        stored = array(typecode, codes)
        for size in (item, item + 1, item + 3):
            want = oracle_lanes(codes, size)
            for block in (stored, memoryview(stored), memoryview(stored)[:], codes, tuple(codes)):
                assert bytes(_lanes(block, size)) == want, (typecode, length, size, type(block))
    assert int.from_bytes(_lanes(array(typecode, [0, top]), item), "little") == top << 8 * item


def test_lanes_of_codes_over_64_bits():
    for bits in (65, 72, 600, 9600):
        size = (bits + 7) // 8
        codes = spaced(5, (1 << bits) - 1)
        assert _lanes(codes, size) == oracle_lanes(codes, size)
        assert _lanes(tuple(codes), size + 1) == oracle_lanes(codes, size + 1)


def test_spread_fills_every_lane():
    for size in (1, 4, 9):
        for value in (0, 1, (1 << 8 * size) - 1):
            for total in (0, 1, 2, 5):
                want = int.from_bytes(oracle_lanes([value] * total, size), "little")
                assert _spread(value, total, size) == want


@pytest.mark.parametrize("size", [1, 4, 8, 9, 75, 1200, 40_000])
def test_blocks_cut_by_bytes(size):
    total = 9000
    codes = range(total)
    blocks = list(_blocks(codes, size))
    assert [c for block in blocks for c in block] == list(codes)
    assert all(len(block) * max(size, 8) <= 32_768 or len(block) == 1 for block in blocks)
    assert len(blocks[0]) == (4096 if size <= 8 else max(1, 32_768 // size))
    paired = list(_blocks(codes, size, 1))
    assert [block[0] for block in paired] == [block[0] for block in blocks]
    assert all(p[-1] == min(b[-1] + 1, total - 1) for p, b in zip(paired, blocks))


# (n, width): codes of 8, 16, 24, 32 and 64 bits, which fill a machine word
# or not, and of 72 and 600 bits, held in a tuple of ints.
CODINGS = [(2, 4), (2, 8), (3, 8), (4, 8), (8, 8), (9, 8), (75, 8)]


def raises_not_ascending(codes):
    try:
        build_transition_digraph(codes, 1)
    except ValueError as exc:
        assert str(exc) == "codes are not strictly ascending"
        return True
    return False


@pytest.mark.parametrize("n, width", CODINGS)
def test_ascending_test_matches_pairwise_oracle(n, width):
    # Descents and repeats at the first pair, across each seam of the guard
    # lanes' blocks, just after it, and at the last pair.
    bits = n * width
    size = _Codes([], n, width).lane_size(True)
    for length in LENGTHS if bits > 8 else [0, 1, 2, 255, 256]:
        base = spaced(length, (1 << bits) - 1)
        assert oracle_ascending(base) and not raises_not_ascending(_Codes(base, n, width))
        cuts = seams(length, size)
        for j in {1, length - 1, *cuts, *(c + 1 for c in cuts)} - {0, length}:
            if j < 1 or j >= length:
                continue
            swapped = base[:j - 1] + [base[j], base[j - 1]] + base[j + 1:]
            repeated = base[:j] + [base[j - 1]] + base[j + 1:]
            for edited in (swapped, repeated):
                assert not oracle_ascending(edited)
                assert raises_not_ascending(_Codes(edited, n, width)), (n, width, length, j)
    words = [tuple(range(n))] * 2 + [tuple(range(1, n + 1))]
    with pytest.raises(ValueError, match="^duplicate words in input set$"):
        build_transition_digraph(words, 1)


@pytest.mark.parametrize("n, width", CODINGS)
def test_overlap_accept_matches_per_code_oracle(n, width, monkeypatch):
    # The accept alone (the repeat test stubbed out), on codes that overlap
    # everywhere (one code repeated) and everywhere but one pair, at the
    # first pair, at each seam and at the last pair before the wrap.
    monkeypatch.setattr(ocycles, "_repeats", lambda raw, bits: False)
    size = _Codes([], n, width).lane_size()
    for s in (1, n - 1):
        for length in (1, 2, 4097, 8193):
            same = [(1 << n * width) - 1] * length
            assert oracle_overlap_accept(same, n, width, s)
            assert ocycles._cycle_fault(_Codes(same, n, width), n, s) is None
            for j in {0, length - 2, *seams(length, size)}:
                if 0 <= j < length - 1:
                    broken = same[:j + 1] + [0] + same[j + 2:]
                    assert not oracle_overlap_accept(broken, n, width, s)
                    fault = ocycles._cycle_fault(_Codes(broken, n, width), n, s)
                    assert fault[0] == j, (n, width, s, length, j)


# (m, n, k, s): digits over 255 (9-bit fields), and codes of 100 bits in a
# tuple of ints, whose 13-byte lanes cut blocks of 2,520 codes.
FAULT_CASES = [(300, 3, 300, 1), (2, 100, 2, 1)]


@pytest.mark.parametrize("m, n, k, s", FAULT_CASES)
def test_cycle_fault_at_index_0_a_seam_and_the_wrap(m, n, k, s):
    codes = construct_ocycle(_codes(m, n, k, k), s).cycle
    words = list(codes.digits())
    edge = seams(len(words), codes.lane_size())[0]
    drops = {  # the first broken pair, and where its words are dropped
        0: lambda c, cut: c[:1] + c[1 + cut:],
        edge - 1: lambda c, cut: c[:edge] + c[edge + cut:],
        edge: lambda c, cut: c[:edge + 1] + c[edge + 1 + cut:],
        "wrap": lambda c, cut: c[:-cut],
    }
    assert ocycles._cycle_fault(codes, n, s) is None
    seen = set()
    for gap, drop in drops.items():
        cut = next(i for i in count(1) if oracle_first_gap(drop(words, i), s) is not None)
        broken, claimed = codes.like(drop(list(codes.raw), cut)), drop(words, cut)
        fault = ocycles._cycle_fault(broken, n, s)
        text = "ok\n" if fault is None else "violation at index {}: {}\n".format(*fault)
        assert (text, 1) == oracle_self_check(claimed, n, s), gap
        seen.add("wrap" if fault[0] == len(claimed) - 1 else fault[0])
    assert seen == {0, edge - 1, edge, "wrap"}


# (m, n, p, q): m = 1, n = 0 and 1, empty windows, weight ranges, codings
# that fill 8, 16, 32 and 64 bits exactly, codings over 64 bits, and tails
# of more than one block of lanes (n = 40 and 200).
CODES_CASES = [
    (1, 0, 0, 0), (1, 1, 0, 0), (1, 5, 0, 3), (2, 0, 0, 0), (3, 1, 0, 2), (3, 1, 1, 1),
    (5, 0, 1, 1), (3, 4, 9, 12), (3, 6, 2, 9), (4, 4, 3, 6), (2, 8, 0, 8), (2, 16, 3, 5),
    (4, 8, 5, 7), (2, 32, 2, 2), (16, 8, 1, 1), (2, 64, 0, 2), (4, 32, 1, 1), (2, 65, 2, 2),
    (3, 33, 0, 2), (2, 40, 4, 4), (2, 200, 2, 2),
]


@pytest.mark.parametrize("m, n, p, q", CODES_CASES)
def test_codes_match_per_word_oracle(m, n, p, q):
    width = (m - 1).bit_length() or 1
    want = oracle_codes(m, n, p, q)
    try:
        words = enumerate_fixed_weight(m, n, p) if p == q else enumerate_weight_range(m, n, p, q)
    except ValueError:  # windows the enumerators refuse: every word, filtered
        words = [w for w in product(range(m), repeat=n) if p <= sum(w) <= q]
    assert want == sorted(_code(w, width) for w in words)
    got = _codes(m, n, p, q)
    assert (got.n, got.width, got.low, got.tuples) == (n, width, 0, False)
    if n * width > 64:
        assert got.raw == tuple(want)
    else:
        assert got.raw.format == _ARRAY_TYPE[n * width] and type(got.raw.obj) is bytes
        assert got.raw.tobytes() == array(_ARRAY_TYPE[n * width], want).tobytes()
