"""Word enumeration, counting, and block machinery against brute-force oracles."""

import math
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graycycles import (
    BlockProfile,
    MaterializationLimitError,
    block_profile,
    count_fixed_weight,
    count_weight_range,
    enumerate_fixed_weight,
    enumerate_weight_range,
    format_word,
    gray_list,
    gray_stream,
    is_cyclic_rotation,
    is_word,
    iter_fixed_weight,
    iter_weight_range,
    parse_word,
    s_prefix,
    s_suffix,
    weight,
    weight_decomposition,
    witness_non_rotation,
)
from graycycles.codes import _Codes, _codes
from graycycles.words import _check_set, _walk
from word_oracles import brute_fixed_weight, brute_weight_range, count_oracle, gray_oracle


def sweep_params():
    for m in (1, 2, 3, 4):
        for n in range(0, 7):
            for k in range(-1, (m - 1) * n + 2):
                yield m, n, k


def test_weight_examples():
    assert weight((0, 1, 2, 2)) == 5
    assert weight((0, 0, 0, 0)) == 0
    assert weight((2, 2, 1, 0)) == 5
    assert weight(()) == 0


def test_enumerate_matches_brute_force():
    for m, n, k in sweep_params():
        assert enumerate_fixed_weight(m, n, k) == brute_fixed_weight(m, n, k), (m, n, k)


def test_enumerate_golden_cases():
    assert enumerate_fixed_weight(2, 4, 2) == [
        (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0),
        (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0),
    ]
    assert enumerate_fixed_weight(3, 4, 0) == [(0, 0, 0, 0)]
    assert enumerate_fixed_weight(5, 3, 0) == [(0, 0, 0)]
    assert enumerate_fixed_weight(2, 0, 0) == [()]
    # the 16 words behind the golden Gray list, as a sorted set
    words = enumerate_fixed_weight(3, 4, 5)
    assert len(words) == 16
    assert words[0] == (0, 1, 2, 2) and words[-1] == (2, 2, 1, 0)


def test_enumerate_sorted_distinct_and_weighted():
    for m, n, k in sweep_params():
        words = enumerate_fixed_weight(m, n, k)
        assert words == sorted(set(words))
        assert all(weight(w) == k and is_word(w, m, n) for w in words)


def test_count_agrees_with_enumeration():
    for m, n, k in sweep_params():
        assert count_fixed_weight(m, n, k) == len(enumerate_fixed_weight(m, n, k))


def test_count_golden_cases():
    assert count_fixed_weight(3, 4, 5) == 16
    assert count_fixed_weight(2, 6, 3) == 20
    assert count_fixed_weight(7, 5, 0) == 1
    assert count_fixed_weight(2, 4, -3) == 0
    assert count_fixed_weight(2, 4, 9) == 0


def test_count_binary_is_binomial():
    for n in range(0, 12):
        for k in range(0, n + 1):
            assert count_fixed_weight(2, n, k) == math.comb(n, k)


def test_count_exceeds_64_bits():
    # 100 digits over {0,1}: central binomial far beyond 2**64
    assert count_fixed_weight(2, 100, 50) == math.comb(100, 50)


def test_counts_match_the_weight_dp():
    for m in range(1, 7):
        for n in range(0, 9):
            top = (m - 1) * n
            for k in range(-2, top + 3):
                assert count_fixed_weight(m, n, k) == count_oracle(m, n, k), (m, n, k)
            by_weight = [count_oracle(m, n, k) for k in range(top + 1)]
            for p in range(0, top):
                for q in range(p + 1, top + 1):
                    expected = sum(by_weight[p:q + 1])
                    assert count_weight_range(m, n, p, q) == expected, (m, n, p, q)


def test_counts_of_deep_words():
    # The DP oracle's rows stop at the requested weight, so long words with
    # small weights cost it O(n * k).
    for n in (1200, 5000):
        assert count_fixed_weight(2, n, 1) == n
        assert count_fixed_weight(3, n, 4) == count_oracle(3, n, 4)
        assert count_fixed_weight(5, n, 9) == count_oracle(5, n, 9)
        assert count_weight_range(2, n, 0, 1) == n + 1
        assert count_weight_range(4, n, 2, 5) == sum(count_oracle(4, n, k) for k in range(2, 6))


def test_fixed_weight_counts_sum_to_every_word():
    for m in range(1, 11):
        for n in range(0, 41):
            total = sum(count_fixed_weight(m, n, k) for k in range((m - 1) * n + 1))
            assert total == m**n, (m, n)


def test_full_weight_range_counts_every_word():
    for m in range(2, 11):
        for n in range(1, 41):
            assert count_weight_range(m, n, 0, (m - 1) * n) == m**n, (m, n)


def test_counts_are_symmetric_in_the_weight():
    # Replacing each digit d by m-1-d maps weight k onto weight (m-1)*n - k.
    top = 9 * 800
    for k in (0, 1, 37, 1001, 3599):
        assert count_fixed_weight(10, 800, k) == count_fixed_weight(10, 800, top - k), k


def test_count_edges():
    for n in range(0, 6):
        assert count_fixed_weight(1, n, 0) == 1
        assert count_fixed_weight(1, n, 1) == 0
    for m in range(1, 5):
        assert count_fixed_weight(m, 0, 0) == 1
        assert count_fixed_weight(m, 0, 1) == 0
        assert count_fixed_weight(m, 3, -1) == 0
        assert count_fixed_weight(m, 3, -10**12) == 0
    assert count_fixed_weight(2, 5, 10**12) == 0
    assert count_fixed_weight(2, 5, 6) == 0
    assert count_fixed_weight(2, 5, 5) == 1
    assert count_weight_range(2, 5, 4, 5) == 6


def test_materialization_cap():
    with pytest.raises(MaterializationLimitError):
        enumerate_fixed_weight(2, 40, 20, cap=100)
    # the cap is inclusive: the weight-[1,2] words of length 4 number 4 + 6
    assert len(enumerate_weight_range(2, 4, 1, 2, cap=10)) == 10
    with pytest.raises(MaterializationLimitError) as info:
        enumerate_weight_range(2, 4, 1, 2, cap=9)
    assert str(info.value) == "set of weight-[1,2] words has 10 elements, cap is 9"
    # streaming is exempt: pulling a few words from a huge set works fine
    stream = iter_fixed_weight(2, 64, 32)
    first = [next(stream) for _ in range(3)]
    assert all(weight(w) == 32 for w in first)
    assert first == sorted(first)


def test_param_validation():
    with pytest.raises(ValueError):
        count_fixed_weight(0, 3, 1)
    with pytest.raises(ValueError):
        count_fixed_weight(2, -1, 0)


def test_weight_range_matches_brute_force():
    for m in (2, 3):
        for n in range(1, 5):
            top = (m - 1) * n
            for p in range(0, top):
                for q in range(p + 1, top + 1):
                    assert enumerate_weight_range(m, n, p, q) == brute_weight_range(m, n, p, q)
                    assert count_weight_range(m, n, p, q) == len(brute_weight_range(m, n, p, q))


def test_iterators_follow_product_scan_order():
    # The walker's lexicographic order, word by word, against a full scan.
    for m in (1, 2, 3, 4):
        for n in range(0, 7):
            space = list(product(range(m), repeat=n))
            top = (m - 1) * n
            for k in range(-1, top + 2):
                expected = [w for w in space if sum(w) == k]
                assert list(iter_fixed_weight(m, n, k)) == expected, (m, n, k)
            for p in range(0, top):
                for q in range(p + 1, top + 1):
                    expected = [w for w in space if p <= sum(w) <= q]
                    assert list(iter_weight_range(m, n, p, q)) == expected, (m, n, p, q)


def test_walk_runs_of_the_last_two_digits_match_oracles():
    # A fixed weight emits its last two positions as one run.  Check it on
    # the shortest words, over m = 1, at both end weights, and on sets whose
    # words end in a zero tail (k = 0, and k = 1, 2 on longer words).
    cases = [(m, n, k) for m in (1, 2, 3, 4, 5) for n in (0, 1, 2, 3)
             for k in range(-1, (m - 1) * n + 2)]
    cases += [(1, 7, 0), (3, 6, 0), (3, 6, 12), (4, 6, 1), (5, 6, 2), (2, 9, 1), (2, 9, 8)]
    for m, n, k in cases:
        assert list(_walk(m, n, k, k, False)) == brute_fixed_weight(m, n, k), (m, n, k)
        assert list(_walk(m, n, k, k, True)) == gray_oracle(m, n, k), (m, n, k)


@st.composite
def code_windows(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(0, 8))
    top = (m - 1) * n
    # Both bounds may fall outside 0..top and p may exceed q: empty windows.
    p = draw(st.integers(-2, top + 2))
    q = draw(st.integers(-2, top + 2))
    return m, n, p, q


@settings(max_examples=400, deadline=None)
@given(code_windows())
@example((1, 0, 0, 0))  # the empty word
@example((3, 7, 5, 4))  # p > q
@example((5, 8, 32, 32))  # the all-maximal word alone
@example((256, 1, 0, 255))  # every byte
@example((256, 2, 505, 510))  # digits up to 255
@example((256, 3, 0, 2))
@example((256, 3, 760, 765))
def test_codes_match_the_walker(window):
    # Each word's code, one by one, in the walker's order: every digit
    # fills (m-1).bit_length() bits, and at least one.
    m, n, p, q = window
    width = (m - 1).bit_length() or 1
    expected = [sum(d << width * (n - 1 - i) for i, d in enumerate(w))
                for w in _walk(m, n, p, q, False)]
    codes = _codes(m, n, p, q)
    assert type(codes) is _Codes and (codes.n, codes.width, codes.low) == (n, width, 0)
    assert list(codes) == expected


def outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except (MaterializationLimitError, ValueError) as exc:
        return type(exc), str(exc)


def checked_codes(m, n, p, q, cap):
    """The set's codes as CLI ``ocycle`` and ``digraph`` make them: checked, capped, enumerated."""
    _check_set(m, n, p, q, cap)
    return _codes(m, n, p, p if q is None else q)


def test_word_codes_check_and_cap_like_the_enumerators():
    # Fields of (m-1).bit_length() bits for every m; the same error, word
    # for word, wherever an enumerator refuses.
    for m, n, p, q, cap in [
        (3, 4, 4, None, 10**6), (3, 4, 2, 5, 10**6), (257, 2, 300, None, 10**6),
        (257, 2, 0, 3, 10**6), (3, 4, 4, None, 18), (3, 4, 4, None, 19),
        (3, 4, 2, 5, 49), (3, 4, 9, None, 10), (0, 4, 1, None, 10), (3, -1, 1, None, 10),
        (3, 4, 3, 3, 10), (3, 4, 5, 2, 10), (3, 4, -1, 2, 10), (1, 0, 0, None, 10),
    ]:
        if q is None:
            expected = outcome(enumerate_fixed_weight, m, n, p, cap=cap)
        else:
            expected = outcome(enumerate_weight_range, m, n, p, q, cap=cap)
        got = outcome(checked_codes, m, n, p, q, cap)
        if type(got) is _Codes:
            assert got.width == ((m - 1).bit_length() or 1) and got.n == n
            got = list(map(tuple, got.digits()))
        assert got == expected, (m, n, p, q, cap)


def test_codes_past_a_byte_take_wider_fields():
    # Past a byte too, over m > 256, each digit fills (m-1).bit_length()
    # bits, first digit highest.
    for m, n, p, q in [(257, 2, 256, 256), (257, 3, 0, 2), (257, 3, 765, 768),
                       (1000, 2, 990, 1010), (1000, 1, 0, 999)]:
        width = (m - 1).bit_length()
        expected = [sum(d << width * (n - 1 - i) for i, d in enumerate(w))
                    for w in _walk(m, n, p, q, False)]
        codes = _codes(m, n, p, q)
        assert (codes.n, codes.width, codes.low) == (n, width, 0)
        assert list(codes) == expected, (m, n, p, q)


def test_iterators_validate_lazily():
    # Bad parameters raise on the first next(), not when the generator is made.
    for bad in (iter_fixed_weight(0, 3, 1), iter_fixed_weight(2, -1, 0),
                iter_weight_range(0, 3, 0, 1), iter_weight_range(2, -1, 0, 1),
                iter_weight_range(2, 4, 2, 2)):
        with pytest.raises(ValueError):
            next(bad)


def test_deep_words_do_not_recurse():
    # n far above the interpreter's recursion limit
    assert len(gray_list(2, 1200, 1)) == 1200
    words = enumerate_weight_range(2, 1200, 0, 1)
    assert len(words) == 1201
    assert words[0] == (0,) * 1200 and words[-1] == (1,) + (0,) * 1199
    assert sum(1 for _ in gray_stream(2, 5000, 1)) == 5000
    assert next(iter_weight_range(2, 5000, 4999, 5000)) == (0,) + (1,) * 4999


def test_weight_range_rejects_bad_bounds():
    for p, q in [(2, 2), (3, 1), (-1, 2), (0, 5)]:
        with pytest.raises(ValueError):
            enumerate_weight_range(2, 4, p, q)
        with pytest.raises(ValueError):
            count_weight_range(2, 4, p, q)


def test_prefix_suffix():
    w = (0, 1, 2, 2)
    assert s_prefix(w, 2) == (0, 1)
    assert s_suffix(w, 2) == (2, 2)
    assert s_prefix(w, 0) == ()
    assert s_suffix(w, 0) == ()
    assert s_prefix(w, 4) == w
    assert s_suffix(w, 4) == w
    for bad in (-1, 5):
        with pytest.raises(ValueError):
            s_prefix(w, bad)
        with pytest.raises(ValueError):
            s_suffix(w, bad)


def test_weight_decomposition():
    for m in range(2, 7):
        for k in range(0, 40):
            dec = weight_decomposition(k, m)
            assert dec.q * (m - 1) + dec.r == k
            assert 0 <= dec.r < m - 1
    assert weight_decomposition(0, 1) == weight_decomposition(0, 2)
    with pytest.raises(ValueError, match=r"^alphabet size m must be >= 1, got 0$"):
        weight_decomposition(0, 0)
    with pytest.raises(ValueError):
        weight_decomposition(1, 1)
    with pytest.raises(ValueError):
        weight_decomposition(-1, 3)


@pytest.mark.parametrize(
    "word,s,expected",
    [
        ((1, 0, 0, 0), 2, BlockProfile(2, (1, 0))),
        ((0, 0, 1, 1), 2, BlockProfile(2, (0, 2))),
        ((0, 1, 2, 2), 2, BlockProfile(2, (1, 4))),
        ((0, 1, 2, 2, 0, 1), 4, BlockProfile(2, (1, 4, 1))),
        ((1, 1, 1), 2, BlockProfile(1, (1, 1, 1))),
    ],
)
def test_block_profile_examples(word, s, expected):
    assert block_profile(word, s) == expected


def test_block_profile_sums_to_weight():
    for m in (2, 3):
        for n in range(2, 7):
            for w in product(range(m), repeat=n):
                for s in range(1, n):
                    profile = block_profile(w, s)
                    assert sum(profile.weights) == weight(w)
                    assert profile.d == math.gcd(n, s)
                    assert len(profile.weights) == n // profile.d


def test_block_profile_range_errors():
    for s in (0, 4, -1):
        with pytest.raises(ValueError):
            block_profile((0, 1, 0, 1), s)


def test_is_cyclic_rotation_examples():
    assert is_cyclic_rotation((1, 0), (0, 1))
    assert not is_cyclic_rotation((0, 2), (1, 1))
    assert is_cyclic_rotation((1, 2, 3), (2, 3, 1))
    assert is_cyclic_rotation((), ())
    assert not is_cyclic_rotation((1,), (1, 1))


def test_is_cyclic_rotation_properties():
    # reflexive, symmetric, invariant under rotating either argument
    seqs = [tuple(w) for n in range(0, 5) for w in product(range(3), repeat=n)]
    for a in seqs:
        assert is_cyclic_rotation(a, a)
    import random

    rng = random.Random(7)
    pool = [s for s in seqs if s]
    for _ in range(300):
        a, b = rng.choice(pool), rng.choice(pool)
        verdict = is_cyclic_rotation(a, b)
        assert verdict == is_cyclic_rotation(b, a)
        i = rng.randrange(len(a))
        assert verdict == is_cyclic_rotation(a[i:] + a[:i], b)


def witness_preconditions(m, n_max):
    for n in range(2, n_max + 1):
        for s in range(1, n):
            if n - s != math.gcd(n, s):
                continue
            for k in range(2, (m - 1) * n - 1):
                yield n, k, s


@pytest.mark.parametrize(
    "params,expected",
    [
        ((2, 4, 2, 2), ((0, 0, 1, 1), (1, 0, 1, 0))),
        ((3, 6, 7, 3), ((0, 0, 1, 2, 2, 2), (1, 0, 1, 2, 2, 1))),
        ((2, 6, 3, 3), ((0, 0, 0, 1, 1, 1), (1, 0, 0, 1, 1, 0))),
    ],
)
def test_witness_golden_pairs(params, expected):
    assert witness_non_rotation(*params) == expected


def test_witness_exhaustive_to_n10():
    for m in (2, 3, 4, 5):
        for n, k, s in witness_preconditions(m, 10):
            a, b = witness_non_rotation(m, n, k, s)
            assert is_word(a, m, n) and is_word(b, m, n)
            assert weight(a) == weight(b) == k
            pa = block_profile(a, s).weights
            pb = block_profile(b, s).weights
            assert not is_cyclic_rotation(pa, pb), (m, n, k, s)


def test_witness_rejects_bad_params():
    with pytest.raises(ValueError):
        witness_non_rotation(2, 4, 2, 1)  # n-s=3 > gcd=1
    with pytest.raises(ValueError):
        witness_non_rotation(2, 4, 1, 2)  # k too small
    with pytest.raises(ValueError):
        witness_non_rotation(2, 4, 3, 2)  # k = (m-1)n-1
    with pytest.raises(ValueError):
        witness_non_rotation(2, 4, 2, 0)


def test_format_word():
    assert format_word((0, 1, 2, 2)) == "0122"
    assert format_word(()) == ""
    assert format_word((0, 1, 2), m=3) == "012"
    assert format_word((0, 1, 11, 2)) == "0,1,11,2"
    assert format_word((0, 1, 2), m=12) == "0,1,2"


def _format_word_reference(word, m=None):
    # The plain per-digit form: commas for m > 10 or, without m, for any
    # digit above 9; otherwise the decimal values run together.
    wide = (m > 10) if m is not None else any(d > 9 for d in word)
    return (",".join if wide else "".join)(str(d) for d in word)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-12, 300), max_size=8) | st.lists(st.integers(0, 9), max_size=8)
    # digits that are not ints, such as 1.0, which bytes() refuses
    | st.lists(st.integers(0, 9) | st.floats(0, 12, allow_nan=False), max_size=8),
    st.none() | st.integers(1, 14),
    st.sampled_from([tuple, list]),
)
def test_format_word_matches_reference_property(digits, m, kind):
    word = kind(digits)
    assert format_word(word, m) == _format_word_reference(word, m)


def test_format_word_edge_forms():
    # digits above 9 under a narrow alphabet run together, as do negatives
    assert format_word((1, 10, 2), m=3) == "1102"
    assert format_word((0, -1, 2)) == "0-12"
    assert format_word((0, 255, 256)) == "0,255,256"
    assert format_word((3, 0), m=11) == "3,0"
    assert format_word([0, 9], m=10) == "09"
    # without m, any digit above 9 selects the comma form, whatever the
    # word's type and whether the digit fits in a byte
    assert format_word([11, 0]) == "11,0"
    assert format_word(bytes([10, 0, 9])) == "10,0,9"
    assert format_word((7, 1000)) == "7,1000"
    assert format_word((-1, 12)) == "-1,12"
    assert format_word([0, -1, 2]) == "0-12"
    assert format_word((0, -1, 2), m=12) == "0,-1,2"
    assert format_word((1.0, 2.0)) == "1.02.0"
    assert format_word([0, 2.5], m=3) == "02.5"


def test_parse_word():
    assert parse_word("0122") == (0, 1, 2, 2)
    assert parse_word(" 0122 \n") == (0, 1, 2, 2)
    assert parse_word("0,1,11,2") == (0, 1, 11, 2)
    assert parse_word("") == ()
    for bad in ("01x2", "1,-2", "-1"):
        with pytest.raises(ValueError):
            parse_word(bad)


def test_format_parse_roundtrip():
    for m in (2, 3, 12):
        for w in [(0,), (m - 1,) * 3, tuple(range(min(m, 4)))]:
            assert parse_word(format_word(w, m)) == w
