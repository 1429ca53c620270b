"""Transition digraphs, Euler tours, overlap cycles, and existence predicates."""

import math
import random
from array import array
from collections import Counter
from itertools import chain, count, product

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graycycles import (
    NotEulerianError,
    OcycleSolution,
    block_profile,
    build_transition_digraph,
    compress_cycle,
    construct_ocycle,
    count_fixed_weight,
    decompress_cycle,
    enumerate_fixed_weight,
    enumerate_weight_range,
    euler_tour,
    exists_fixed_weight_ocycle,
    exists_weight_range_ocycle,
    export_dot,
    format_word,
    is_balanced,
    is_cyclic_rotation,
    is_weakly_connected,
    s_prefix,
    s_suffix,
    verify_ocycle,
    weak_components,
    witness_non_rotation,
)
from graycycles import ocycles
from graycycles.codes import _TAIL_LINES, _codes
from graycycles.ocycles import (
    REASON_DISCONNECTED,
    REASON_SINGLETON,
    REASON_UNBALANCED,
    _Codes,
    _cycle_fault,
    _encode,
)
from ocycle_oracles import (
    oracle_cycle,
    oracle_edges,
    oracle_first_gap,
    oracle_self_check,
    oracle_tour,
)

B24_2 = enumerate_fixed_weight(2, 4, 2)  # 0011 0101 0110 1001 1010 1100


def W(text):
    return tuple(int(c) for c in text)


# ---------------------------------------------------------------- digraphs


def test_build_digraph_b2_s2():
    d = build_transition_digraph(B24_2, 2)
    assert d.s == 2 and d.n == 4
    assert d.vertices == frozenset({W("00"), W("01"), W("10"), W("11")})
    assert d.edges == {
        (W("11"), W("00")): (W("1100"),),
        (W("00"), W("11")): (W("0011"),),
        (W("10"), W("10")): (W("1010"),),
        (W("01"), W("01")): (W("0101"),),
        (W("10"), W("01")): (W("1001"),),
        (W("01"), W("10")): (W("0110"),),
    }
    assert d.edge_count() == 6


def test_build_digraph_self_loop():
    d = build_transition_digraph([W("0000")], 1)
    assert d.vertices == frozenset({(0,)})
    assert d.edges == {((0,), (0,)): (W("0000"),)}


def test_build_digraph_b5_34_s1():
    d = build_transition_digraph(enumerate_fixed_weight(3, 4, 5), 1)
    assert d.vertices == frozenset({(0,), (1,), (2,)})
    assert d.edge_count() == 16


def test_build_digraph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_transition_digraph([W("01"), W("011")], 1)
    with pytest.raises(ValueError):
        build_transition_digraph([W("01"), W("01")], 1)
    for s in (0, 4, 5):
        with pytest.raises(ValueError):
            build_transition_digraph(B24_2, s)
    # the empty word: n = 0 leaves no room for any overlap
    with pytest.raises(ValueError, match="overlap length s=1 out of range for n=0"):
        build_transition_digraph([()], 1)
    with pytest.raises(ValueError, match="overlap length s=1 out of range for n=0"):
        construct_ocycle([()], 1)


def test_build_digraph_empty_set():
    d = build_transition_digraph([], 2)
    assert d.edge_count() == 0 and not d.vertices
    assert is_weakly_connected(d)


def test_degrees():
    d = build_transition_digraph(B24_2, 1)
    assert d.out_degree((0,)) == d.in_degree((0,)) == 3
    assert d.out_degree((1,)) == d.in_degree((1,)) == 3


def test_balanced(monkeypatch):
    assert is_balanced(build_transition_digraph(B24_2, 2))
    assert is_balanced(build_transition_digraph(B24_2, 1))
    assert not is_balanced(build_transition_digraph([W("0011")], 2))
    assert is_balanced(build_transition_digraph([], 1))
    # The check and the tour run on the codes and keep nothing on the
    # digraph: no tuple view and no degree table.
    fields = {"s", "n", "base", "by_code"}
    d = build_transition_digraph(B24_2, 1)
    assert is_balanced(d) and euler_tour(d)
    assert d.__dict__.keys() == fields
    built = []

    def build(words, s):
        built.append(build_transition_digraph(words, s))
        return built[-1]

    monkeypatch.setattr(ocycles, "build_transition_digraph", build)
    assert construct_ocycle(_codes(3, 6, 6, 6), 2).cycle
    assert [d.__dict__.keys() for d in built] == [fields]


def test_fixed_weight_digraphs_always_balanced():
    for m in (2, 3):
        for n in range(2, 6):
            for k in range(0, (m - 1) * n + 1):
                words = enumerate_fixed_weight(m, n, k)
                if not words:
                    continue
                for s in range(1, n):
                    assert is_balanced(build_transition_digraph(words, s)), (m, n, k, s)


def test_weak_connectivity():
    assert not is_weakly_connected(build_transition_digraph(B24_2, 2))
    assert is_weakly_connected(build_transition_digraph(B24_2, 1))
    assert is_weakly_connected(build_transition_digraph([W("0000")], 2))


def test_weak_components_split():
    comps = weak_components(build_transition_digraph(B24_2, 2))
    assert [sorted(c) for c in comps] == [
        [W("00"), W("11")],
        [W("01"), W("10")],
    ]


# -------------------------------------------------------------- Euler tours


def test_euler_tour_covers_every_edge_once():
    d = build_transition_digraph(B24_2, 1)
    tour = euler_tour(d)
    assert sorted(tour) == B24_2
    # consecutive edges share a vertex, cyclically
    for a, b in zip(tour, tour[1:] + tour[:1]):
        assert a[3:] == b[:1]


def test_euler_tour_golden_and_deterministic():
    d = build_transition_digraph(B24_2, 1)
    tour = euler_tour(d)
    assert [format_word(w) for w in tour] == [
        "0011", "1001", "1010", "0101", "1100", "0110",
    ]
    assert euler_tour(d) == tour
    assert euler_tour(build_transition_digraph(list(reversed(B24_2)), 1)) == tour


def test_euler_tour_self_loop():
    assert euler_tour(build_transition_digraph([W("0000")], 2)) == [W("0000")]


def test_euler_tour_errors():
    with pytest.raises(NotEulerianError) as info:
        euler_tour(build_transition_digraph(B24_2, 2))
    assert info.value.reason == "digraph-disconnected"
    with pytest.raises(NotEulerianError) as info:
        euler_tour(build_transition_digraph([W("0011")], 2))
    assert info.value.reason == "digraph-unbalanced"
    with pytest.raises(ValueError):
        euler_tour(build_transition_digraph([], 1))


# ------------------------------------------------------------------ cycles


def test_construct_b2_s1():
    sol = construct_ocycle(B24_2, 1)
    assert sol.s == 1
    assert [format_word(w) for w in sol.cycle] == [
        "0011", "1001", "1010", "0101", "1100", "0110",
    ]
    assert verify_ocycle(sol.cycle, B24_2, 1).ok


def test_construct_starts_at_smallest_word():
    for m, n, k, s in [(2, 5, 2, 1), (3, 4, 4, 1), (2, 6, 3, 2)]:
        words = enumerate_fixed_weight(m, n, k)
        sol = construct_ocycle(words, s)
        assert sol.cycle[0] == min(sol.cycle)
        assert verify_ocycle(sol.cycle, words, s).ok


def test_construct_deterministic():
    a = construct_ocycle(B24_2, 1)
    b = construct_ocycle(list(reversed(B24_2)), 1)
    assert a == b


def test_construct_singleton():
    assert construct_ocycle([W("0000")], 3).cycle == (W("0000"),)
    assert construct_ocycle([W("0110")], 1).cycle == (W("0110"),)
    with pytest.raises(NotEulerianError) as info:
        construct_ocycle([W("0011")], 1)
    assert info.value.reason == "singleton-mismatch"


def test_construct_failure_and_empty():
    with pytest.raises(NotEulerianError) as info:
        construct_ocycle(B24_2, 2)
    assert info.value.reason == "digraph-disconnected"
    with pytest.raises(ValueError):
        construct_ocycle([], 1)


def test_verify_ocycle_reports():
    sol = construct_ocycle(B24_2, 1)
    assert verify_ocycle(sol.cycle, B24_2, 1).ok
    # break one adjacency by swapping two non-adjacent words
    broken = list(sol.cycle)
    broken[1], broken[3] = broken[3], broken[1]
    report = verify_ocycle(broken, B24_2, 1)
    assert not report.ok
    first_bad = next(
        i for i in range(len(broken))
        if broken[i][3:] != broken[(i + 1) % len(broken)][:1]
    )
    assert report.first_violation[0] == first_bad
    # wrong multiset
    report = verify_ocycle(sol.cycle[:-1], B24_2, 1)
    assert not report.ok and report.first_violation[0] == -1
    report = verify_ocycle(sol.cycle, B24_2[:-1], 1)
    assert not report.ok
    # duplicates in the cycle
    report = verify_ocycle([W("0011")] * 2, [W("0011"), W("0101")], 2)
    assert not report.ok
    # trivial singleton
    assert verify_ocycle([W("0000")], [W("0000")], 2).ok
    # bad s never raises, only reports
    report = verify_ocycle([W("0011")], [W("0011")], 9)
    assert report.first_violation == (-1, "overlap length s=9 out of range for n=4")
    assert verify_ocycle([], [], 1).ok


# ---------------------------------------------------------------- existence


def test_exists_fixed_weight_gcd_cases():
    v = exists_fixed_weight_ocycle(3, 4, 5, 2)
    assert (v.exists, v.reason) == (False, "gcd-condition")
    v = exists_fixed_weight_ocycle(2, 4, 2, 1)
    assert (v.exists, v.reason) == (True, "gcd-condition")
    v = exists_fixed_weight_ocycle(2, 4, 2, 3)
    assert (v.exists, v.reason) == (False, "gcd-condition")


def test_exists_fixed_weight_degenerate_cases():
    # decided by theorem; test_degenerate_weights_admit_a_constructed_cycle
    # checks the theorem by construction
    v = exists_fixed_weight_ocycle(2, 4, 1, 2)
    assert (v.exists, v.reason) == (True, "degenerate-checked")
    assert v.detail == "k=1: 4 words with a single 1"
    v = exists_fixed_weight_ocycle(2, 2, 2, 1)  # single word 11
    assert (v.exists, v.reason) == (True, "degenerate-checked")
    v = exists_fixed_weight_ocycle(3, 3, 0, 1)  # single word 000
    assert (v.exists, v.reason) == (True, "degenerate-checked")
    v = exists_fixed_weight_ocycle(3, 4, 8, 2)  # single word 2222
    assert (v.exists, v.reason) == (True, "degenerate-checked")
    assert v.detail == "k=8: 1 constant word"
    v = exists_fixed_weight_ocycle(3, 4, 7, 2)  # 1222 and its rotations
    assert (v.exists, v.reason) == (True, "degenerate-checked")
    assert v.detail == "k=7: 4 words, the digit complements of the weight-1 words"


def test_degenerate_weights_admit_a_constructed_cycle():
    # The theorem behind the degenerate verdicts, checked by the engine: at
    # k in {0, 1, (m-1)n - 1, (m-1)n} every s admits a cycle, of 1 or n words.
    cases = 0
    for m in range(1, 8):
        for n in range(2, 13):
            top = (m - 1) * n
            for k in sorted({0, 1, top - 1, top} & set(range(top + 1))):
                words = enumerate_fixed_weight(m, n, k)
                for s in range(1, n):
                    cycle = construct_ocycle(words, s).cycle
                    assert verify_ocycle(cycle, words, s).ok, (m, n, k, s)
                    verdict = exists_fixed_weight_ocycle(m, n, k, s)
                    assert verdict.exists and verdict.reason == "degenerate-checked"
                    assert verdict.detail.startswith(f"k={k}: {len(words)} "), verdict
                    cases += 1
    assert cases == 1649


# The grid of the slow theorem checks: m 2-6, n 2-10, every s, and sets of
# at most this many words.
SLOW_GRID_CAP = 300_000


def constructs(codes, s):
    """Whether the engine builds an s-overlap cycle of the codes."""
    try:
        construct_ocycle(codes, s)
    except NotEulerianError:
        return False
    return True


@pytest.mark.slow
@pytest.mark.parametrize("m, cases", [(2, 196), (3, 525), (4, 855), (5, 1068), (6, 1178)])
def test_gcd_rule_by_construction_on_a_wide_grid(m, cases):
    # Every weight strictly inside the window: a cycle is built iff
    # n-s > gcd(n,s), as the verdict says.  3,822 cases in all.
    checked = 0
    for n in range(2, 11):
        for k in range(2, (m - 1) * n - 1):
            if count_fixed_weight(m, n, k) > SLOW_GRID_CAP:
                continue
            codes = _codes(m, n, k, k)
            for s in range(1, n):
                expected = n - s > math.gcd(n, s)
                assert constructs(codes, s) == expected, (m, n, k, s)
                assert exists_fixed_weight_ocycle(m, n, k, s).exists == expected
                checked += 1
    assert checked == cases


@pytest.mark.slow
@pytest.mark.parametrize("m, cases", [(2, 1485), (3, 5610), (4, 9702), (5, 10448), (6, 12342)])
def test_weight_range_theorem_by_construction_on_a_wide_grid(m, cases):
    # Every window [p, q] with p < q: a cycle is always built, as the
    # verdict says.  39,587 cases in all.
    checked = 0
    for n in range(2, 11):
        top = (m - 1) * n
        for p in range(top):
            for q in range(p + 1, top + 1):
                if sum(count_fixed_weight(m, n, k) for k in range(p, q + 1)) > SLOW_GRID_CAP:
                    break  # wider windows only grow
                codes = _codes(m, n, p, q)
                for s in range(1, n):
                    assert constructs(codes, s), (m, n, p, q, s)
                    assert exists_weight_range_ocycle(m, n, p, q, s).exists
                    checked += 1
    assert checked == cases


def test_exists_fixed_weight_empty_set():
    v = exists_fixed_weight_ocycle(2, 4, 9, 1)
    assert (v.exists, v.reason) == (False, "empty-set")
    v = exists_fixed_weight_ocycle(2, 4, -1, 1)
    assert (v.exists, v.reason) == (False, "empty-set")


def test_exists_fixed_weight_param_errors():
    for m, n, k, s in [(2, 4, 2, 0), (2, 4, 2, 4), (2, 1, 1, 1), (0, 4, 2, 1)]:
        with pytest.raises(ValueError):
            exists_fixed_weight_ocycle(m, n, k, s)


def test_exists_matches_construction_exhaustively():
    for m in (2, 3):
        for n in range(2, 7):
            for s in range(1, n):
                for k in range(0, (m - 1) * n + 1):
                    words = enumerate_fixed_weight(m, n, k)
                    if not words:
                        continue
                    try:
                        sol = construct_ocycle(words, s)
                        constructed = verify_ocycle(sol.cycle, words, s).ok
                    except NotEulerianError:
                        constructed = False
                    verdict = exists_fixed_weight_ocycle(m, n, k, s)
                    assert verdict.exists == constructed, (m, n, k, s)


def test_exists_weight_range():
    v = exists_weight_range_ocycle(2, 4, 1, 2, 2)
    assert (v.exists, v.reason) == (True, "theorem-weight-range")
    assert exists_weight_range_ocycle(3, 3, 0, 6, 1).exists
    assert exists_weight_range_ocycle(2, 2, 0, 2, 1).exists


def test_exists_weight_range_param_errors():
    for m, n, p, q, s in [
        (2, 4, 2, 2, 1), (2, 4, 3, 1, 1), (2, 4, 0, 5, 1),
        (2, 4, -1, 2, 1), (2, 4, 1, 2, 0), (2, 4, 1, 2, 4), (0, 4, 0, 1, 1),
    ]:
        with pytest.raises(ValueError):
            exists_weight_range_ocycle(m, n, p, q, s)


def test_weight_range_always_constructs():
    for m in (2, 3):
        for n in range(2, 5):
            top = (m - 1) * n
            for p in range(0, top):
                for q in range(p + 1, top + 1):
                    for s in range(1, n):
                        words = enumerate_weight_range(m, n, p, q)
                        sol = construct_ocycle(words, s)
                        assert verify_ocycle(sol.cycle, words, s).ok, (m, n, p, q, s)


def test_weight_range_example_cycle():
    words = enumerate_weight_range(2, 2, 0, 2)
    sol = construct_ocycle(words, 1)
    assert sorted(sol.cycle) == words
    assert verify_ocycle(sol.cycle, words, 1).ok


def test_disconnected_cases_separate_the_witness_pair():
    for m in (2, 3):
        for n in range(2, 7):
            for s in range(1, n):
                if n - s != math.gcd(n, s):
                    continue
                for k in range(2, (m - 1) * n - 1):
                    words = enumerate_fixed_weight(m, n, k)
                    digraph = build_transition_digraph(words, s)
                    assert not is_weakly_connected(digraph), (m, n, k, s)
                    a, b = witness_non_rotation(m, n, k, s)
                    where = {
                        v: i
                        for i, comp in enumerate(weak_components(digraph))
                        for v in comp
                    }
                    assert where[s_prefix(a, s)] != where[s_prefix(b, s)], (m, n, k, s)
                    assert not is_cyclic_rotation(
                        block_profile(a, s).weights, block_profile(b, s).weights
                    )


# ------------------------------------------------ engine against the oracles


def grid_sets():
    """Every nonempty fixed-weight and weight-range set for m <= 3, 2 <= n <= 6."""
    for m in (1, 2, 3):
        for n in range(2, 7):
            top = (m - 1) * n
            for k in range(top + 1):
                yield enumerate_fixed_weight(m, n, k)
            for p in range(top):
                for q in range(p + 1, top + 1):
                    yield enumerate_weight_range(m, n, p, q)


def outcome(build, words, s):
    """The built sequence, or the (reason, message) of the NotEulerianError."""
    try:
        return tuple(build(words, s))
    except NotEulerianError as exc:
        return exc.reason, str(exc)


def library_cycle(words, s):
    return construct_ocycle(words, s).cycle


def library_tour(words, s):
    return euler_tour(build_transition_digraph(words, s))


def assert_matches_oracle(words, s, orders=()):
    """construct_ocycle on every order, and euler_tour on the last, match the oracle."""
    orders = (words, *orders)
    expected = outcome(oracle_cycle, words, s)
    for order in orders:
        assert outcome(library_cycle, order, s) == expected, (words, s)
    if len(words) > 1:
        assert outcome(library_tour, orders[-1], s) == outcome(oracle_tour, words, s), (words, s)


def test_engine_matches_tuple_oracle_on_grid():
    rng = random.Random(3)
    for words in grid_sets():
        shuffled = list(words)
        rng.shuffle(shuffled)
        for s in range(1, len(words[0])):
            assert_matches_oracle(words, s, (words[::-1], shuffled))


def test_engine_matches_oracle_on_edge_shapes():
    # self-loops (000, 010, 101, 111) with parallel pairs, joined by 001/100
    loops = [W("000"), W("001"), W("010"), W("100"), W("101"), W("111")]
    assert_matches_oracle(loops, 1, (loops[::-1],))
    assert_matches_oracle(loops[:3] + loops[4:], 1)  # unbalanced
    assert_matches_oracle([W("000"), W("010"), W("101"), W("111")], 1)  # two components
    # an alphabet of 11 letters: digits up to 10
    for words in (enumerate_fixed_weight(11, 3, 15), enumerate_weight_range(11, 2, 3, 12)):
        for s in range(1, len(words[0])):
            assert_matches_oracle(words, s, (words[::-1],))


def test_engine_keeps_order_under_shifted_digits():
    # Negative digits and digits beyond 255 take the general coding; adding
    # one constant to every digit must shift the cycle and change nothing else.
    for m, n, k, s in [(2, 4, 2, 1), (3, 4, 4, 1), (3, 5, 5, 2), (2, 6, 3, 2)]:
        words = enumerate_fixed_weight(m, n, k)
        cycle = construct_ocycle(words, s).cycle
        for shift in (-1, -40, 36, 300):
            moved = [tuple(d + shift for d in w) for w in words]
            expected = tuple(tuple(d + shift for d in w) for w in cycle)
            assert construct_ocycle(moved, s).cycle == expected, (m, n, k, s, shift)
            assert construct_ocycle(moved[::-1], s).cycle == expected
            assert_matches_oracle(moved, s)


def test_engine_on_words_too_long_for_int_parsing():
    # Codes of 40,000 and 9,600 bits.
    n = 5000
    high, low = (2, 0) * (n // 2), (0, 2) * (n // 2)
    assert construct_ocycle([high, low], n - 1).cycle == (low, high)
    assert_matches_oracle([high, low], n - 1)
    words = enumerate_weight_range(3, 1200, 0, 1) + [(2,) + (0,) * 1199]
    for s in (1, 1199):
        assert_matches_oracle(words, s)


def coded(words):
    """The words as ascending byte codes: ``_Codes`` of width 8."""
    codes = sorted(int.from_bytes(bytes(w), "big") for w in words)
    return _Codes(codes, len(words[0]) if words else 0, 8)


def decoded(codes):
    return tuple(tuple(c.to_bytes(codes.n, "big")) for c in codes)


def assert_codes_match_tuples(words, s):
    """Byte-coded input gives the oracles' digraph view, cycle or error, and text."""
    codes = coded(words)
    d = assert_view_matches_oracle(words, s, codes)
    assert repr(d) == f"TransitionDigraph(s={s}, n={codes.n}, base=256)"
    try:
        expected = oracle_cycle(words, s)
    except NotEulerianError as exc:
        with pytest.raises(NotEulerianError) as info:
            construct_ocycle(codes, s)
        assert (info.value.reason, str(info.value)) == (exc.reason, str(exc)), (words, s)
        return
    solution = construct_ocycle(codes, s)
    assert type(solution.cycle) is _Codes and solution.cycle.n == codes.n
    assert decoded(solution.cycle) == expected, (words, s)
    heads = [digit for w in expected for digit in w[:codes.n - s]]
    assert compress_cycle(solution, codes.n) == format_word(heads)
    if len(words) > 1:
        assert decoded(euler_tour(d)) == expected


def test_byte_codes_match_the_tuple_path():
    for words in grid_sets():
        for s in range(1, len(words[0])):
            assert_codes_match_tuples(words, s)
    for words in (enumerate_fixed_weight(11, 3, 15), enumerate_weight_range(256, 2, 500, 510)):
        for s in range(1, len(words[0])):
            assert_codes_match_tuples(words, s)
    # n = 1200: codes of 9600 bits
    words = enumerate_weight_range(3, 1200, 0, 1) + [(2,) + (0,) * 1199]
    for s in (1, 1199):
        assert_codes_match_tuples(words, s)


def test_byte_codes_must_ascend():
    for bad in ([1, 0], [3, 3]):
        with pytest.raises(ValueError, match="^codes are not strictly ascending$"):
            build_transition_digraph(_Codes(bad, 2, 8), 1)
    with pytest.raises(ValueError, match="^overlap length s=2 out of range for n=2$"):
        build_transition_digraph(_Codes([1, 2], 2, 8), 2)
    assert build_transition_digraph(_Codes([], 0, 8), 1).edge_count() == 0


def word_lists():
    """Lists of words of one length n from 1 to 6, digits -300..600."""
    return st.integers(1, 6).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(-300, 600)] * n), min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(word_lists())
@example([(0, 1, 255), (255, 0, 0), (0, 1, 2)])  # 8-bit fields
@example([(250, 254, 250), (254, 250, 250), (251, 252, 253)])  # near 255, 3-bit fields
@example([(7, 0, 5), (3, 6, 1)])  # the first 3-bit field crosses a byte
@example([(240, 247, 243, 245), (241, 240, 246, 247)])  # read from bytes, above 0
@example([(3, 34, 3, 20), (34, 3, 17, 4), (5, 6, 33, 34)])  # 5-bit fields from 3, crossing bytes
@example([(2, 129, 64, 2), (129, 2, 2, 100), (70, 71, 3, 128)])  # 7-bit fields from 2, crossing bytes
@example([(-1,), (0,), (-300,), (600,)])
@example([tuple(7 * i % 901 - 300 for i in range(5000))])  # one word, n = 5000
def test_one_coder_keeps_order_identity_and_digits(words):
    codes = _encode(words, len(words[0]))
    assert list(map(tuple, codes.digits())) == words
    for a, b in product(range(len(words)), repeat=2):
        assert (codes[a] < codes[b]) == (words[a] < words[b]), (words[a], words[b])
        assert (codes[a] == codes[b]) == (words[a] == words[b]), (words[a], words[b])


SHIFT_CASES = [(2, 4, 2, 1), (3, 4, 4, 1), (3, 5, 5, 2), (2, 6, 3, 2)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SHIFT_CASES), st.sampled_from((-40, 300)), st.randoms())
def test_coded_shifted_sets_keep_their_cycles(case, shift, rng):
    # The sets of test_engine_keeps_order_under_shifted_digits, shifted out
    # of 0..255 and shuffled: their codes sort as the words do, and the
    # cycle is the oracle's cycle of the unshifted set, shifted.
    m, n, k, s = case
    words = enumerate_fixed_weight(m, n, k)
    moved = [tuple(d + shift for d in w) for w in words]
    rng.shuffle(moved)
    codes = _encode(moved, n)
    assert (codes.low, codes.width) == (shift, (m - 1).bit_length())
    assert [moved[i] for i in sorted(range(len(moved)), key=codes.__getitem__)] == sorted(moved)
    expected = tuple(tuple(d + shift for d in w) for w in oracle_cycle(words, s))
    assert construct_ocycle(moved, s).cycle == expected


def test_construct_agrees_with_networkx():
    for words in grid_sets():
        n = len(words[0])
        for s in range(1, n):
            graph = nx.MultiDiGraph()
            graph.add_edges_from((w[:s], w[n - s:]) for w in words)
            try:
                construct_ocycle(words, s)
                reason = None
            except NotEulerianError as error:
                exc, reason = error, error.reason
            assert (reason is None) == nx.is_eulerian(graph), (words, s)
            if reason is None:
                continue
            balanced = all(graph.in_degree(v) == graph.out_degree(v) for v in graph)
            if len(words) == 1:
                assert reason == REASON_SINGLETON and not balanced
            elif balanced:
                assert reason == REASON_DISCONNECTED and not nx.is_weakly_connected(graph)
            else:
                assert reason == REASON_UNBALANCED, (words, s)
            assert exc.detail == networkx_detail(graph, len(words)), (words, s)


def networkx_detail(graph, edges):
    """The detail a NotEulerianError on this multigraph should carry."""
    unbalanced = [v for v in graph if graph.in_degree(v) != graph.out_degree(v)]
    if unbalanced:
        v = min(unbalanced)
        return (f"vertex {format_word(v)} has in-degree {graph.in_degree(v)}"
                f" and out-degree {graph.out_degree(v)}")
    component = nx.node_connected_component(graph.to_undirected(), min(graph))
    covered = graph.subgraph(component).number_of_edges()
    return f"the walk covered {covered} of {edges} edges"


def test_not_eulerian_errors_say_where():
    # The detail is taken from the codes and decoded only when the error
    # is raised; a default error has none.
    assert NotEulerianError(REASON_UNBALANCED, "message").detail is None
    cases = [
        (B24_2, 2, REASON_DISCONNECTED, "the walk covered 2 of 6 edges"),
        ([W("000"), W("001")], 2, REASON_UNBALANCED,
         "vertex 00 has in-degree 1 and out-degree 2"),
        ([(300, 300, 300), (300, 300, 301)], 2, REASON_UNBALANCED,
         "vertex 300,300 has in-degree 1 and out-degree 2"),
        ([W("0011")], 2, REASON_SINGLETON, "vertex 00 has in-degree 0 and out-degree 1"),
    ]
    for words, s, reason, detail in cases:
        for given in (words, coded(words) if max(map(max, words)) <= 255 else words):
            with pytest.raises(NotEulerianError) as info:
                construct_ocycle(given, s)
            assert (info.value.reason, info.value.detail) == (reason, detail)
    with pytest.raises(NotEulerianError) as info:
        euler_tour(build_transition_digraph(_codes(3, 4, 4, 4), 2))
    assert info.value.detail == "the walk covered 2 of 19 edges"  # 0022 and 2200


def test_walk_counts_degrees_only_when_it_fails(monkeypatch):
    # The walk checks the Euler criterion itself; degrees are counted only
    # to name the reason of a failed walk.
    calls = []
    real = ocycles._degree_counts
    monkeypatch.setattr(ocycles, "_degree_counts", lambda d: calls.append(d) or real(d))
    assert len(construct_ocycle(_codes(3, 12, 12, 12), 5).cycle) == 73_789
    assert calls == []
    with pytest.raises(NotEulerianError) as info:
        construct_ocycle(B24_2, 2)
    assert (info.value.reason, info.value.detail) == (
        REASON_DISCONNECTED, "the walk covered 2 of 6 edges")
    assert len(calls) == 1
    # One count names the reason and the unbalanced vertex.
    calls.clear()
    with pytest.raises(NotEulerianError) as info:
        construct_ocycle(B24_2[:-1], 1)
    assert (info.value.reason, info.value.detail) == (
        REASON_UNBALANCED, "vertex 0 has in-degree 2 and out-degree 3")
    assert len(calls) == 1


@st.composite
def word_subsets(draw):
    """A nonempty subset of product(range(m), repeat=n), m <= 3, 2 <= n <= 6, or its complement."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    every = list(product(range(m), repeat=n))
    picked = draw(st.sets(st.sampled_from(every), min_size=1))
    if len(picked) < len(every) and draw(st.booleans()):
        return [w for w in every if w not in picked]
    return sorted(picked)


@settings(max_examples=200, deadline=None)
@given(word_subsets())
@example([W("0011")])  # a singleton, unbalanced for every s
@example([W("0000")])  # a self-loop
@example(list(B24_2))  # disconnected at s = 2
@example([W("000"), W("010"), W("101"), W("111")])  # two components at s = 1
@example([W("001"), W("010"), W("102")])  # at s = 1 the walk enters 2, which has no out-edge
@example([W("001"), W("011"), W("100")])  # at s = 1 the walk is stuck at 1, not at 0
@example([W("001"), W("100"), W("200")])  # at s = 1 the walk closes, then covers 2 of 3
def test_walk_matches_oracle_on_any_subset(words):
    # grid_sets() yields only balanced digraphs; here most are not.
    n = len(words[0])
    for s in range(1, n):
        graph = nx.MultiDiGraph()
        graph.add_edges_from((w[:s], w[n - s:]) for w in words)
        try:
            expected = oracle_tour(words, s)
        except NotEulerianError as exc:
            with pytest.raises(NotEulerianError) as info:
                euler_tour(build_transition_digraph(words, s))
            assert (info.value.reason, str(info.value)) == (exc.reason, str(exc)), (words, s)
            assert info.value.detail == networkx_detail(graph, len(words)), (words, s)
        else:
            assert euler_tour(build_transition_digraph(words, s)) == expected, (words, s)


def assert_view_matches_oracle(words, s, given=None):
    """Every query on the digraph agrees with the sliced tuple view; returns it.

    The digraph is built from ``given`` (the words' codes, say), by default
    from the words themselves.  The queries on vertex codes run first and
    must not decode ``edges``.  Anything that is not a vertex of the coding
    has degree 0: a tuple of another length, one with a digit below the
    smallest or past the field width, or a list.
    """
    d = build_transition_digraph(words if given is None else given, s)
    edges = oracle_edges(words, s)
    vertices = frozenset(chain.from_iterable(edges))
    assert d.vertices == vertices
    assert d.edge_count() == len(words)
    outs, ins = Counter(), Counter()
    for (u, v), labels in edges.items():
        outs[u] += len(labels)
        ins[v] += len(labels)
    for v in vertices:
        assert (d.out_degree(v), d.in_degree(v)) == (outs[v], ins[v]), (words, s, v)
    low, top = d.by_code.low, d.by_code.low + d.base
    for v in sorted(vertices)[:2] or [(low,) * s]:
        for probe in (v + (low,), v[1:], (low - 1,) + v[1:], (top,) + v[1:], list(v)):
            assert d.out_degree(probe) == d.in_degree(probe) == 0, (words, s, probe)
    assert is_balanced(d) == (outs == ins)
    graph = nx.MultiDiGraph()
    graph.add_nodes_from(vertices)
    graph.add_edges_from(edges)
    components = sorted(map(frozenset, nx.weakly_connected_components(graph)), key=min)
    assert weak_components(d) == components
    assert is_weakly_connected(d) == (len(components) <= 1)
    assert "edges" not in d.__dict__
    assert d.edges == edges, (words, s)
    text = {w: format_word(w) for w in chain(vertices, map(tuple, words))}
    dot = ["digraph transitions {"] + [f'    "{text[v]}";' for v in sorted(vertices)]
    for u, v in sorted(edges):
        dot += [f'    "{text[u]}" -> "{text[v]}" [label="{text[w]}"];' for w in edges[u, v]]
    assert export_dot(d) == "\n".join(dot + ["}"]) + "\n"
    return d


def test_digraph_view_matches_tuple_oracle():
    # Shifted by -40 or 300, digits leave 0..255, so those digraphs take the
    # general coding.
    assert_view_matches_oracle([], 1)
    # Here some vertices only start edges and others only end them.
    for words in ([W("0011")], [W("001"), W("012")]):
        for s in range(1, len(words[0])):
            assert_view_matches_oracle(words, s)
    for words in grid_sets():
        for s in range(1, len(words[0])):
            for shift in (0, -40, 300):
                assert_view_matches_oracle([tuple(d + shift for d in w) for w in words], s)
    n = 5000
    high, low = (2, 0) * (n // 2), (0, 2) * (n // 2)
    for s in (1, 2, n - 1):
        assert_view_matches_oracle([high, low], s)
    # 80-bit codes, held in a tuple of ints: wider than a machine word.
    wide = _codes(3, 40, 2, 2)
    assert type(wide.raw) is tuple
    for s in (1, 2, 20, 39):
        assert_view_matches_oracle(enumerate_fixed_weight(3, 40, 2), s, wide)


def test_digraph_hash_and_repr_leave_the_codes_out():
    d = build_transition_digraph([W("0011"), W("0101")], 2)
    same = build_transition_digraph([W("0101"), W("0011")], 2)
    other = build_transition_digraph([W("0011"), W("0110")], 2)
    assert d == same and hash(d) == hash(same)
    assert d != other
    assert len({d, same, other}) == 2
    assert repr(d) == "TransitionDigraph(s=2, n=4, base=2)"


# ------------------------------------------------------------- compression


def test_compress_examples():
    sol = construct_ocycle(B24_2, 1)
    text = compress_cycle(sol, 4)
    assert text == "001100101010110011"
    assert len(text) == 6 * 3

    singleton = construct_ocycle([W("0000")], 2)
    assert compress_cycle(singleton, 4) == "00"

    words = enumerate_weight_range(2, 4, 1, 2)
    assert len(words) == 10
    sol = construct_ocycle(words, 2)
    assert len(compress_cycle(sol, 4)) == 10 * 2


def test_compress_decompress_roundtrip():
    for m, n, k, s in [(2, 4, 2, 1), (2, 5, 2, 2), (3, 4, 4, 1), (3, 4, 5, 1)]:
        words = enumerate_fixed_weight(m, n, k)
        sol = construct_ocycle(words, s)
        assert decompress_cycle(compress_cycle(sol, n), n, s) == sol.cycle


def test_compress_rejects_invalid_solution():
    sol = construct_ocycle(B24_2, 1)
    order = list(sol.cycle)
    order[1], order[3] = order[3], order[1]  # breaks an adjacency
    broken = OcycleSolution(s=1, cycle=tuple(order))
    with pytest.raises(ValueError):
        compress_cycle(broken, 4)
    shuffled = OcycleSolution(s=2, cycle=sol.cycle)
    with pytest.raises(ValueError):
        compress_cycle(shuffled, 4)
    with pytest.raises(ValueError):
        compress_cycle(OcycleSolution(s=1, cycle=()), 4)
    with pytest.raises(ValueError):
        compress_cycle(sol, 5)  # wrong declared length
    # a repeated word whose overlaps all hold: 0000 loops onto itself
    with pytest.raises(ValueError):
        compress_cycle(OcycleSolution(s=1, cycle=(W("0000"), W("0000"))), 4)
    # mixed lengths whose overlaps all hold
    with pytest.raises(ValueError):
        compress_cycle(OcycleSolution(s=1, cycle=(W("0110"), W("01100"))), 4)
    with pytest.raises(ValueError):
        compress_cycle(OcycleSolution(s=1, cycle=(W("01100"), W("0110"))), 4)
    with pytest.raises(ValueError, match="refusing to compress an unverified cycle"):
        compress_cycle(OcycleSolution(s=1, cycle=((),)), 0)
    # only the wrap-around pair, last word to first, fails to overlap
    order = list(sol.cycle)
    order[-1] = W("0111")
    assert all(a[3:] == b[:1] for a, b in zip(order, order[1:]))
    with pytest.raises(ValueError):
        compress_cycle(OcycleSolution(s=1, cycle=tuple(order)), 4)


def old_guard_rejects(cycle, s, n):
    # What compress_cycle must refuse, spelled out independently of the
    # library: an empty cycle, s outside 1..n-1, a word not of length n, a
    # repeated word, or a broken overlap found by the per-index oracle.
    cycle = [tuple(w) for w in cycle]
    return (
        not cycle
        or not 1 <= s < n
        or any(len(w) != n for w in cycle)
        or len(set(cycle)) != len(cycle)
        or oracle_first_gap(cycle, s) is not None
    )


def guard_rejects(cycle, s, n):
    try:
        compress_cycle(OcycleSolution(s=s, cycle=tuple(cycle)), n)
    except ValueError:
        return True
    return False


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=4).map(tuple), max_size=6),
    st.integers(0, 4),
    st.integers(2, 4),
)
def test_compress_guard_matches_full_verification(cycle, s, n):
    assert guard_rejects(cycle, s, n) == old_guard_rejects(cycle, s, n)
    if not old_guard_rejects(cycle, s, n):
        digits = [d for w in cycle for d in w[:n - s]]
        text = compress_cycle(OcycleSolution(s=s, cycle=tuple(cycle)), n)
        assert text == "".join(map(str, digits))


def test_compress_guard_on_constructed_cycles():
    # Valid overlap cycles are rare at random, so also feed the guard real
    # cycles and copies with two neighbouring words swapped.
    for words in grid_sets():
        n = len(words[0])
        for s in range(1, n):
            try:
                cycle = construct_ocycle(words, s).cycle
            except NotEulerianError:
                continue
            text = compress_cycle(OcycleSolution(s=s, cycle=cycle), n)
            assert decompress_cycle(text, n, s) == cycle
            if len(cycle) < 2:
                continue
            for i in {0, (len(cycle) - 1) // 2, len(cycle) - 2}:
                swapped = list(cycle)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                assert guard_rejects(swapped, s, n) == old_guard_rejects(swapped, s, n)


GAP_CASES = [(2, 4, 2, 1), (3, 4, 4, 1), (2, 6, 3, 2), (3, 5, 5, 2)]


def broken_cycle(case, drop, swaps):
    """A constructed cycle with one word dropped and some positions swapped.

    Dropping word j leaves its neighbours adjacent, so the only gap (unless
    the word loops onto itself) sits just before j: index 0 for j = 1, the
    wrap-around for j = 0.
    """
    m, n, k, s = GAP_CASES[case]
    cycle = list(construct_ocycle(enumerate_fixed_weight(m, n, k), s).cycle)
    del cycle[drop % len(cycle)]
    for a, b in swaps:
        a, b = a % len(cycle), b % len(cycle)
        cycle[a], cycle[b] = cycle[b], cycle[a]
    return cycle, s


def assert_verify_reports_oracle_gap(cycle, s):
    gap = oracle_first_gap(cycle, s)
    report = verify_ocycle(cycle, cycle, s)
    assert report.ok == (gap is None), (cycle, s)
    if gap is not None:
        w, nxt = cycle[gap], cycle[(gap + 1) % len(cycle)]
        assert report.first_violation == (
            gap, f"words {format_word(w)} and {format_word(nxt)} do not overlap in {s} digits"
        )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, len(GAP_CASES) - 1),
    st.integers(0, 10**3),
    st.lists(st.tuples(st.integers(0, 10**3), st.integers(0, 10**3)), max_size=3),
)
@example(case=2, drop=0, swaps=[])  # the gap is at the wrap-around
@example(case=2, drop=1, swaps=[])  # the gap is at index 0
def test_verify_reports_the_oracles_first_gap(case, drop, swaps):
    assert_verify_reports_oracle_gap(*broken_cycle(case, drop, swaps))


def test_verify_gap_at_every_position():
    # Deterministically place the single gap at every index, the first and
    # the wrap-around included.
    seen = set()
    for case in range(len(GAP_CASES)):
        total = len(broken_cycle(case, 0, [])[0])
        for drop in range(total + 1):
            cycle, s = broken_cycle(case, drop, [])
            gap = oracle_first_gap(cycle, s)
            seen.add("wrap" if gap == total - 1 else gap)
            assert_verify_reports_oracle_gap(cycle, s)
    assert {0, "wrap", None} <= seen


def test_compress_refuses_broken_code_tours():
    # The compress step's own check runs on the codes: a tour with two
    # entries swapped, one with a code repeated and one with a code dropped.
    n, s = 6, 2
    tour = construct_ocycle(_codes(3, n, 6, 6), s).cycle
    assert _cycle_fault(tour, n, s) is None
    swapped, repeated, dropped = list(tour), list(tour), list(tour)
    swapped[3], swapped[4] = swapped[4], swapped[3]
    repeated[5] = repeated[9]
    del dropped[7]
    for broken in (swapped, repeated, dropped, [0, 0]):
        solution = OcycleSolution(s=s, cycle=tour.like(broken))
        with pytest.raises(ValueError, match="^refusing to compress an unverified cycle$"):
            compress_cycle(solution, n)
    with pytest.raises(ValueError, match="^refusing to compress an unverified cycle$"):
        compress_cycle(OcycleSolution(s=s, cycle=tour), n + 1)
    # [0, 0] is the word 000000 twice: every overlap holds, only the repeat fails.
    assert _cycle_fault(tour.like([0, 0]), n, s) == (-1, "input word set contains duplicates")


def test_coded_solutions_are_immutable_and_hashable():
    # A coded cycle is immutable and hashable, so the frozen solution hashes
    # like one with tuple words, and a single word's cycle, which is the
    # input codes themselves, cannot be changed through the solution.
    solution = construct_ocycle(_codes(3, 4, 4, 4), 1)
    assert hash(solution) == hash(construct_ocycle(_codes(3, 4, 4, 4), 1))
    single = _Codes([int.from_bytes(bytes((1, 2, 1, 2)), "big")], 4, 8)
    solution = construct_ocycle(single, 2)
    assert type(solution.cycle) is _Codes and solution.cycle == single
    assert hash(solution) == hash(OcycleSolution(2, single))
    with pytest.raises(TypeError):
        solution.cycle[0] = 0
    # Neither the codes, nor the memory under them, nor the coding can change.
    raw = solution.cycle.raw
    for memory in (raw, raw.obj):
        with pytest.raises(TypeError):
            memory[0] = 0
    with pytest.raises(AttributeError):
        solution.cycle.n = 2
    with pytest.raises(AttributeError):
        del solution.cycle.raw
    # An array given to _Codes is copied, so changing it later changes no codes.
    given = array("I", [1, 2])
    codes = _Codes(given, 4, 8)
    given[0] = 3
    assert list(codes) == [1, 2] and hash(codes) == hash(_Codes([1, 2], 4, 8))


def test_codes_own_their_bytes_and_take_over_the_engines_arrays():
    # _Codes fills bytes of its own from what it is given, so a caller's
    # array, or a read-only view of it, is copied and stays as it was;
    # ``taken`` moves the codes of an array the engine hands on, as the walk
    # hands on its tour, and leaves it empty.
    codes = _Codes(iter([5, 1, 4]), 3, 2)
    assert codes.raw.readonly and type(codes.raw.obj) is bytes and codes.raw.format == "B"
    given = array("B", [1, 4, 5])
    held = [_Codes(given, 3, 2), _Codes(memoryview(given).toreadonly(), 3, 2)]
    given[0] = 0
    assert [list(h) for h in held] == [[1, 4, 5]] * 2 and list(given) == [0, 4, 5]
    assert all(type(h.raw.obj) is bytes for h in held)
    handed = array("B", [1, 4, 5])
    taken = codes.taken(handed)
    assert not handed and type(taken.raw.obj) is bytes
    assert taken == _Codes([1, 4, 5], 3, 2) and hash(taken) == hash(_Codes([1, 4, 5], 3, 2))
    other = array("H", [1, 4, 5])
    assert codes.taken([1, 4, 5]) == taken == codes.like(other) and list(other) == [1, 4, 5]
    wide = _Codes([], 12, 2).taken(array("I", range(3 * _TAIL_LINES + 5)))
    assert list(wide) == list(range(3 * _TAIL_LINES + 5)) and wide.raw.format == "I"
    tour = construct_ocycle(_codes(3, 6, 6, 6), 2).cycle
    assert type(tour.raw.obj) is bytes and tour.raw.format == "H"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 255), min_size=3, max_size=3).map(tuple), max_size=6),
    st.integers(1, 2),
    st.integers(2, 4),
)
@example([(0, 0, 1), (0, 1, 0), (1, 0, 0)], 2, 3)  # only the wrap-around fails
@example([(1, 1, 1)] * 2, 1, 3)  # a repeat whose overlaps hold
def test_cycle_fault_on_codes_matches_tuples(cycle, s, n):
    # One length per code list; a declared n that differs is a length fault.
    # The oracle is CLI ``verify ocycle`` on the tuple words.
    codes = _Codes([int.from_bytes(bytes(w), "big") for w in cycle], 3, 8)
    fault = _cycle_fault(codes, n, s)
    text = "ok\n" if fault is None else "violation at index {}: {}\n".format(*fault)
    assert (text, int(fault is not None)) == oracle_self_check(cycle, n, s)


# (m, n, k, s, storage, width): one cycle per array type and field width,
# most of at least 4,096 words, so that the repeat test splits them by a byte.
COLUMN_CASES = [
    (2, 8, 4, 1, "B", 1),
    (2, 16, 8, 5, "H", 1),
    (3, 10, 10, 4, "I", 2),
    (5, 7, 14, 3, "I", 3),  # fields at bits 15-17 and 6-8 cross bytes
    (16, 5, 16, 2, "I", 4),  # digits 10..15 too
    (150, 3, 200, 1, "I", 8),
    (2, 34, 3, 1, "Q", 1),
    (3, 33, 3, 1, None, 2),  # 66 bits: a tuple of ints
]


@pytest.mark.parametrize("m, n, k, s, storage, width", COLUMN_CASES)
def test_cycle_fault_on_large_cycles_matches_oracle(m, n, k, s, storage, width):
    # The repeat test's byte groups and the overlap test's digit columns
    # against CLI ``verify ocycle`` on the tuple words: the cycle itself,
    # repeats, and overlaps broken at index 0, in the middle and at the
    # wrap-around, each made alike in the codes and in the words.
    codes = construct_ocycle(_codes(m, n, k, k), s).cycle
    words = construct_ocycle(enumerate_fixed_weight(m, n, k), s).cycle
    raw = codes.raw
    assert (raw.format if storage else type(raw)) == (storage or tuple)
    assert codes.width == width and list(codes.digits()) == list(words)
    total = len(words)
    assert total >= 4096 or storage == "B"
    middle = total // 2
    # A later code in the middle one's group, the codes with its highest
    # whole byte (8-bit codes are groups of one): repeated in place of it.
    shift = max(0, n * width - 8) // 8 * 8
    twin = next((i for i in range(middle + 1, total)
                 if (raw[i] ^ raw[middle]) >> shift & 0xFF == 0), middle + 1)
    edits = {
        "cycle": lambda c: c,
        "repeat": lambda c: c[:middle] + [c[twin]] + c[middle + 1:],
        "repeat at the ends": lambda c: c[:-1] + c[:1],
        "tiled": lambda c: c * -(-4096 // total) if total < 4096 else c + c[:1],
        "swapped": lambda c: c[:middle] + [c[middle + 1], c[middle]] + c[middle + 2:],
        "reversed": lambda c: c[::-1],  # overlaps that hold the other way round
    }
    drops = {
        "gap at 0": lambda c, cut: c[:1] + c[1 + cut:],
        "gap in the middle": lambda c, cut: c[:middle] + c[middle + cut:],
        "gap at the wrap": lambda c, cut: c[:-cut],
    }
    for name, drop in drops.items():
        # Drop the fewest words that break an overlap: one may still hold.
        cut = next(i for i in count(1) if oracle_first_gap(drop(list(words), i), s) is not None)
        edits[name] = lambda c, drop=drop, cut=cut: drop(c, cut)
    seen = set()
    for name, edit in edits.items():
        broken, claimed = codes.like(edit(list(raw))), edit(list(words))
        fault = _cycle_fault(broken, n, s)
        text = "ok\n" if fault is None else "violation at index {}: {}\n".format(*fault)
        assert (text, int(fault is not None)) == oracle_self_check(claimed, n, s), name
        seen.add(fault and ("wrap" if fault[0] == len(claimed) - 1 else fault[0]))
    assert {None, -1, 0, middle - 1, "wrap"} <= seen


# (m, n, k, s): cycles of at least two blocks of _TAIL_LINES codes, whose
# digit columns the self-check reads a block at a time: 2-bit fields, and
# 3-bit fields of which some cross a byte (bits 15-17 and 6-8 for m = 5,
# bits 6-8 for m = 8); 5-, 6- and 7-bit fields, most of which cross a byte;
# and 72-bit codes, held in a tuple of ints.
BLOCK_CASES = [
    (3, 10, 10, 4), (5, 8, 10, 3), (8, 6, 15, 2),
    (17, 5, 19, 1), (33, 4, 35, 1), (65, 4, 35, 1), (3, 36, 3, 1),
]


@pytest.mark.parametrize("m, n, k, s", BLOCK_CASES)
def test_cycle_fault_at_block_edges_matches_oracle(m, n, k, s):
    # The overlap test at the edges of its blocks against CLI ``verify
    # ocycle`` on the tuple words: pairs swapped across the first edge,
    # overlaps broken at the last pair of a block, at the first pair of the
    # next and at the wrap-around, cycles cut to lengths that leave one or two
    # codes in the last block, and whole cycles, as built and rotated.
    edge = _TAIL_LINES
    codes = construct_ocycle(_codes(m, n, k, k), s).cycle
    words = construct_ocycle(enumerate_fixed_weight(m, n, k), s).cycle
    assert codes.width == (m - 1).bit_length()
    assert list(codes.digits()) == list(words) and len(words) > 2 * edge
    edits = {
        "cycle": lambda c: c,
        "rotated by a block": lambda c: c[edge:] + c[:edge],
        "swapped at 4095/4096": lambda c: c[:edge - 1] + [c[edge], c[edge - 1]] + c[edge + 1:],
        "swapped at 4096/4097": lambda c: c[:edge] + [c[edge + 1], c[edge]] + c[edge + 2:],
        "cut to 4097": lambda c: c[:edge + 1],
        "cut to 4098": lambda c: c[:edge + 2],
        "cut to 8193": lambda c: c[:2 * edge + 1],
    }
    drops = {  # the first broken pair, and where its words are dropped
        edge - 1: lambda c, cut: c[:edge] + c[edge + cut:],
        edge: lambda c, cut: c[:edge + 1] + c[edge + 1 + cut:],
        "wrap": lambda c, cut: c[:-cut],
    }
    for gap, drop in drops.items():
        # Drop the fewest words that break an overlap: one may still hold.
        cut = next(i for i in count(1) if oracle_first_gap(drop(list(words), i), s) is not None)
        where = oracle_first_gap(drop(list(words), cut), s)
        assert where == (len(words) - cut - 1 if gap == "wrap" else gap)
        edits[f"gap at {gap}"] = lambda c, drop=drop, cut=cut: drop(c, cut)
    seen = set()
    for name, edit in edits.items():
        broken, claimed = codes.like(edit(list(codes.raw))), edit(list(words))
        fault = _cycle_fault(broken, n, s)
        text = "ok\n" if fault is None else "violation at index {}: {}\n".format(*fault)
        assert (text, int(fault is not None)) == oracle_self_check(claimed, n, s), name
        seen.add(fault and ("wrap" if fault[0] == len(claimed) - 1 else fault[0]))
    assert {None, edge - 1, edge, "wrap"} <= seen


def test_compress_shifted_digits_below_ten():
    # Digits 1..9 with the smallest above 0 are joined without commas, and
    # digits over 9 with them, whatever the field width.
    for m, n, k, s in [(2, 4, 2, 1), (3, 5, 5, 2), (5, 4, 8, 1), (8, 3, 10, 1)]:
        cycle = construct_ocycle(enumerate_fixed_weight(m, n, k), s).cycle
        for shift in (1, 2, 9 - m, 10 - m, 9):
            moved = tuple(tuple(d + shift for d in w) for w in cycle)
            heads = [d for w in moved for d in w[:n - s]]
            assert compress_cycle(OcycleSolution(s, moved), n) == format_word(heads), shift


def test_compress_wide_and_shifted_digits():
    words = enumerate_fixed_weight(11, 3, 15)
    sol = construct_ocycle(words, 1)
    text = compress_cycle(sol, 3)
    assert text == ",".join(str(d) for w in sol.cycle for d in w[:2])
    assert decompress_cycle(text, 3, 1) == sol.cycle
    moved = OcycleSolution(s=1, cycle=tuple(tuple(d + 300 for d in w) for w in sol.cycle))
    assert compress_cycle(moved, 3) == ",".join(str(d) for w in moved.cycle for d in w[:2])


def test_decompress_rejects_bad_lengths():
    with pytest.raises(ValueError, match="^compressed text length 5 is not a multiple of n-s=3"):
        decompress_cycle("00110", 4, 1)  # 5 symbols, stride 3
    with pytest.raises(ValueError, match="^cannot decompress an empty cycle$"):
        decompress_cycle("", 4, 1)
    with pytest.raises(ValueError):
        decompress_cycle("0011", 4, 0)


# ------------------------------------------------------------------ export


def test_export_dot_self_loop():
    d = build_transition_digraph([W("0000")], 2)
    assert export_dot(d) == (
        'digraph transitions {\n'
        '    "00";\n'
        '    "00" -> "00" [label="0000"];\n'
        '}\n'
    )


def test_export_dot_counts_and_determinism():
    d = build_transition_digraph(B24_2, 2)
    text = export_dot(d)
    body = [line for line in text.splitlines() if line.startswith("    ")]
    assert len([b for b in body if "->" in b]) == 6
    assert len([b for b in body if "->" not in b]) == 4
    assert text == export_dot(build_transition_digraph(list(reversed(B24_2)), 2))


def test_export_dot_empty():
    assert export_dot(build_transition_digraph([], 1)) == "digraph transitions {\n}\n"


def test_export_dot_wide_alphabet():
    d = build_transition_digraph([(0, 11, 3)], 1)
    text = export_dot(d, m=12)
    assert '"0" -> "3" [label="0,11,3"];' in text


def test_cycles_cover_all_product_words():
    # full-range weight window equals the whole cube
    words = enumerate_weight_range(2, 3, 0, 3)
    assert sorted(words) == sorted(product(range(2), repeat=3))
    sol = construct_ocycle(words, 1)
    assert verify_ocycle(sol.cycle, words, 1).ok
