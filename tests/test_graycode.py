"""Gray-code generator, endpoints, stream, and verifier."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graycycles import (
    MaterializationLimitError,
    count_fixed_weight,
    first_word,
    format_word,
    gray_list,
    gray_stream,
    hamming_distance,
    last_word,
    verify_gray,
    weight,
)
from word_oracles import gray_oracle

# The known-good 16-word ordering for (m, n, k) = (3, 4, 5).
GOLDEN_345 = [
    "0122", "0212", "0221", "1220", "1211", "1202", "1112", "1121",
    "1022", "2012", "2021", "2120", "2111", "2102", "2201", "2210",
]


def sweep():
    for m in (2, 3, 4):
        for n in range(1, 6):
            for k in range(0, (m - 1) * n + 1):
                yield m, n, k


def as_text(words):
    return [format_word(w) for w in words]


def test_golden_345():
    gl = gray_list(3, 4, 5)
    assert (gl.m, gl.n, gl.k) == (3, 4, 5)
    assert as_text(gl.words) == GOLDEN_345


def test_golden_sublists():
    assert as_text(gray_list(3, 3, 5).words) == ["122", "212", "221"]
    assert as_text(gray_list(3, 3, 4).words) == ["022", "121", "112", "202", "211", "220"]
    assert as_text(gray_list(2, 4, 3).words) == ["0111", "1101", "1110", "1011"]


def test_guard_returns_empty():
    assert gray_list(3, 2, 5).words == ()
    assert gray_list(2, 4, -1).words == ()
    assert gray_list(2, 4, 5).words == ()
    assert len(gray_list(2, 4, -1)) == 0


def test_degenerate_params():
    assert gray_list(3, 0, 0).words == ((),)
    assert gray_list(1, 4, 0).words == ((0, 0, 0, 0),)
    assert gray_list(1, 4, 1).words == ()
    assert gray_list(2, 1, 1).words == ((1,),)


def test_param_validation():
    with pytest.raises(ValueError):
        gray_list(0, 3, 1)
    with pytest.raises(ValueError):
        list(gray_stream(2, -1, 0))


def test_list_is_permutation_with_two_position_steps():
    for m, n, k in sweep():
        report = verify_gray(gray_list(m, n, k).words, m, n, k)
        assert report.ok, (m, n, k, report)


def test_adjacent_changes_balance():
    # the two changed positions always move by +d and -d
    for m, n, k in sweep():
        words = gray_list(m, n, k).words
        for a, b in zip(words, words[1:]):
            deltas = [x - y for x, y in zip(a, b) if x != y]
            assert len(deltas) == 2
            assert deltas[0] + deltas[1] == 0
            assert abs(deltas[0]) >= 1


def test_leading_digit_groups_are_contiguous_ascending():
    for m, n, k in sweep():
        leads = [w[0] for w in gray_list(m, n, k).words]
        assert leads == sorted(leads)


def test_first_last_formulas_match_list():
    for m, n, k in sweep():
        words = gray_list(m, n, k).words
        if not words:
            continue
        assert first_word(m, n, k) == words[0], (m, n, k)
        assert last_word(m, n, k) == words[-1], (m, n, k)


def test_first_last_examples():
    assert first_word(3, 4, 5) == (0, 1, 2, 2)
    assert last_word(3, 4, 5) == (2, 2, 1, 0)
    assert first_word(4, 3, 0) == (0, 0, 0)
    assert last_word(4, 3, 0) == (0, 0, 0)
    assert first_word(2, 4, 3) == (0, 1, 1, 1)
    assert last_word(2, 4, 3) == (1, 0, 1, 1)
    assert last_word(5, 1, 3) == (3,)
    assert first_word(3, 4, 8) == (2, 2, 2, 2)
    assert last_word(3, 4, 8) == (2, 2, 2, 2)


def test_first_last_reject_empty_sets():
    for m, n, k in [(3, 2, 5), (2, 4, -1), (2, 0, 0), (0, 2, 1)]:
        with pytest.raises(ValueError):
            first_word(m, n, k)
        with pytest.raises(ValueError):
            last_word(m, n, k)


def test_consecutive_weights_shift_endpoints_by_one():
    for m, n, _ in sweep():
        for k in range(1, (m - 1) * n + 1):
            assert hamming_distance(first_word(m, n, k), first_word(m, n, k - 1)) == 1
            assert hamming_distance(last_word(m, n, k), last_word(m, n, k - 1)) == 1


def test_stream_equals_list():
    # Both come from one walker, so each is checked against the recursive oracle.
    for m, n, k in sweep():
        expected = gray_oracle(m, n, k)
        assert list(gray_stream(m, n, k)) == expected, (m, n, k)
        assert list(gray_list(m, n, k).words) == expected, (m, n, k)
    assert as_text(gray_stream(3, 4, 5)) == GOLDEN_345


@st.composite
def gray_params(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(0, 7))
    k = draw(st.integers(-1, (m - 1) * n + 1))
    return m, n, k


@settings(max_examples=200, deadline=None)
@given(gray_params())
def test_stream_matches_oracle_property(params):
    m, n, k = params
    words = list(gray_stream(m, n, k))
    assert words == gray_oracle(m, n, k)
    assert all(hamming_distance(a, b) == 2 for a, b in zip(words, words[1:]))
    if words and n > 0:
        assert words[0] == first_word(m, n, k)
        assert words[-1] == last_word(m, n, k)


def test_stream_yield_count_is_exact():
    assert sum(1 for _ in gray_stream(2, 6, 3)) == 20
    for m, n, k in sweep():
        assert sum(1 for _ in gray_stream(m, n, k)) == count_fixed_weight(m, n, k)


def test_stream_head_and_degenerates():
    assert next(gray_stream(3, 4, 5)) == first_word(3, 4, 5)
    assert list(gray_stream(3, 0, 0)) == [()]
    assert list(gray_stream(3, 2, 5)) == []
    assert list(gray_stream(2, 3, -2)) == []
    assert list(gray_stream(1, 3, 0)) == [(0, 0, 0)]


def test_stream_is_lazy_and_unbounded():
    # far past any cap: 64 choose 32 words, but the first few come instantly
    stream = gray_stream(2, 64, 32)
    head = [next(stream) for _ in range(4)]
    assert head[0] == first_word(2, 64, 32)
    assert all(weight(w) == 32 for w in head)


def test_list_cap():
    with pytest.raises(MaterializationLimitError):
        gray_list(2, 40, 20, cap=1000)
    assert len(gray_list(2, 4, 2, cap=6)) == 6
    with pytest.raises(MaterializationLimitError, match="^ordering holds 6 words, cap is 5$"):
        gray_list(2, 4, 2, cap=5)


def test_verify_accepts_golden():
    words = [tuple(int(c) for c in row) for row in GOLDEN_345]
    assert verify_gray(words, 3, 4, 5).ok


def test_verify_reports_first_bad_pair():
    words = [tuple(int(c) for c in row) for row in GOLDEN_345]
    words[0], words[2] = words[2], words[0]
    # oracle: scan for the first adjacent pair at distance != 2
    expected = next(
        i for i, (a, b) in enumerate(zip(words, words[1:]))
        if hamming_distance(a, b) != 2
    )
    report = verify_gray(words, 3, 4, 5)
    assert not report.ok
    assert report.first_violation[0] == expected


def test_verify_rejects_wrong_weight():
    report = verify_gray([(0, 1, 2, 2), (0, 2, 2, 2)], 3, 4, 5)
    assert not report.ok
    assert report.first_violation[0] == 1
    assert "weight" in report.first_violation[1]


def test_verify_rejects_foreign_and_duplicate_words():
    report = verify_gray([(0, 1, 3, 1)], 3, 4, 5)
    assert not report.ok and report.first_violation[0] == 0
    report = verify_gray([(0, 1, 2, 2), (0, 1, 2, 2)], 3, 4, 5)
    assert not report.ok and report.first_violation[0] == 1
    assert "duplicate" in report.first_violation[1]


def test_verify_rejects_incomplete_list():
    words = gray_list(3, 4, 5).words[:-1]
    report = verify_gray(words, 3, 4, 5)
    assert not report.ok
    assert report.first_violation[0] == -1


def test_verify_trivial_lists():
    assert verify_gray([(1,)], 2, 1, 1).ok
    assert verify_gray([], 3, 2, 5).ok  # empty set, empty list
    assert not verify_gray([], 2, 2, 1).ok


@pytest.mark.parametrize("words, m, n, message", [
    ([], 0, 3, "alphabet size m must be >= 1, got 0"),
    ([(0, 1)], 0, 2, "alphabet size m must be >= 1, got 0"),
    ([(0,)], 3, -1, "word length n must be >= 0, got -1"),
    ([(0, 1, 2)], -2, -5, "alphabet size m must be >= 1, got -2"),
], ids=["empty", "word", "negative-n", "both"])
def test_verify_reports_invalid_parameters_first(words, m, n, message):
    # Never raises: an invalid m or n comes back at index -1, before any
    # word is read against it.
    assert verify_gray(words, m, n, 1) == verify_gray(words, m, n, -1)
    assert verify_gray(words, m, n, 1).first_violation == (-1, message)
    assert not verify_gray(words, m, n, 1).ok


def test_verify_reads_list_words_like_tuples():
    golden = [tuple(int(c) for c in row) for row in GOLDEN_345]
    swapped = list(golden)
    swapped[0], swapped[2] = swapped[2], swapped[0]
    cases = [
        golden,  # ok
        [(0, 1, 3, 1)],  # not a word over 0..2
        [(0, 1, 2)],  # wrong length
        [(0, 1, 2, 2), (0, 2, 2, 2)],  # wrong weight
        [(0, 1, 2, 2), (0, 1, 2, 2)],  # duplicate
        golden[:-1],  # incomplete
        swapped,  # bad adjacent pair
    ]
    assert [verify_gray(words, 3, 4, 5).ok for words in cases] == [True] + [False] * 6
    for words in cases:
        expected = verify_gray(words, 3, 4, 5)
        as_lists = [list(w) for w in words]
        mixed = [list(w) if i % 2 else w for i, w in enumerate(words)]
        assert verify_gray(as_lists, 3, 4, 5) == expected, words
        assert verify_gray(mixed, 3, 4, 5) == expected, words
    assert verify_gray([[0, 1], [1, 0]], 2, 2, 1) == verify_gray([(0, 1), (1, 0)], 2, 2, 1)
    # a list and a tuple with the same digits are the same word
    report = verify_gray([[0, 1, 2, 2], (0, 1, 2, 2)], 3, 4, 5)
    assert report.first_violation == (1, "duplicate word 0122")


def test_hamming_distance():
    assert hamming_distance((0, 1, 2, 2), (2, 2, 1, 0)) == 4
    assert hamming_distance((), ()) == 0
    with pytest.raises(ValueError):
        hamming_distance((1, 2), (1, 2, 3))


def test_two_position_distance_to_brute_neighbours():
    # cross-check verify_gray's pair rule against a brute recomputation
    words = gray_list(3, 3, 4).words
    dists = [
        sum(a != b for a, b in zip(u, v)) for u, v in zip(words, words[1:])
    ]
    assert dists == [2] * (len(words) - 1)


def test_full_product_space_coverage():
    # every fixed-weight class partitions the cube: unioning all lists
    # over k recovers the whole product space exactly once
    m, n = 3, 4
    seen = []
    for k in range(0, (m - 1) * n + 1):
        seen.extend(gray_list(m, n, k).words)
    assert sorted(seen) == sorted(product(range(m), repeat=n))
