"""CLI contract: output formats, exit codes, stdin verification, DOT export."""

import hashlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graycycles import (
    MaterializationLimitError,
    NotEulerianError,
    count_fixed_weight,
    count_weight_range,
    enumerate_fixed_weight,
    enumerate_weight_range,
    format_word,
    gray_list,
    parse_word,
    verify_ocycle,
)
from graycycles import existence, graycode, ocycles
from graycycles.cli import _CHUNK, build_parser, main
from graycycles.words import _split
from ocycle_oracles import oracle_cycle, oracle_self_check

GOLDEN_345 = Path(__file__).parent / "data" / "gray_3_4_5.txt"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def test_gray_golden_file(capsys):
    code, out, err = run(capsys, "gray", "3", "4", "5")
    assert code == 0 and err == ""
    assert out == GOLDEN_345.read_text()


def test_gray_stream_identical(capsys):
    # Bad m and n included: both forms must fail alike, too.
    for m in range(5):
        for n in range(-1, 7):
            for k in range(-1, max((m - 1) * n, 0) + 2):
                argv = ("gray", str(m), str(n), str(k))
                assert run(capsys, *argv) == run(capsys, *argv, "--stream"), argv


def test_gray_never_builds_the_list(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the CLI built a GrayList")

    monkeypatch.setattr("graycycles.graycode.GrayList", refuse)
    assert run(capsys, "gray", "3", "4", "5") == (0, GOLDEN_345.read_text(), "")


@pytest.mark.parametrize("argv, message", [
    ("gray 3 15 15", "ordering holds 1787607 words, cap is 1000000"),
    ("ocycle fixed 3 15 15 5", "set of weight-15 words has 1787607 elements, cap is 1000000"),
    ("digraph range 3 13 0 26 1",
     "set of weight-[0,26] words has 1594323 elements, cap is 1000000"),
])
def test_sets_over_the_cap_are_refused(capsys, argv, message):
    assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")


@contextmanager
def unlimited_digits():
    """Lift the interpreter's int/str digit limit, where it has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_numbers_past_the_int_string_limit(capsys):
    # C(1001498, 1499) has 4883 digits, past the default limit of 4300.
    count = run(capsys, "count", "1000000", "1500", "999999")
    refused = run(capsys, "gray", "1000000", "1500", "999999")
    assert run(capsys, "count", "3", "4", "1" + "0" * 5000) == (0, "0\n", "")
    with unlimited_digits():
        total = str(math.comb(1001498, 1499))
    assert len(total) == 4883
    assert count == (0, total + "\n", "")
    assert refused == (2, "", f"error: ordering holds {total} words, cap is 1000000\n")


@pytest.mark.parametrize("build, args, count", [
    (gray_list, (10**6, 1500, 999999), count_fixed_weight),
    (enumerate_fixed_weight, (10**6, 1500, 999999), count_fixed_weight),
    (enumerate_weight_range, (10**6, 1500, 0, 999999), count_weight_range),
])
def test_over_cap_messages_past_the_int_string_limit(build, args, count):
    # In process, where no CLI lifts the limit, the exact count of 4883 or
    # more digits must still reach the message, and the limit stay as it was.
    before = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    with pytest.raises(MaterializationLimitError) as info:
        build(*args)
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == before
    with unlimited_digits():
        total = str(count(*args))
    assert len(total) >= 4883
    assert f" {total} " in str(info.value)
    assert str(info.value).endswith(", cap is 1000000")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int/str digit limit")
def test_main_restores_the_int_string_limit(capsys):
    before = sys.get_int_max_str_digits()
    assert run(capsys, "count", "3", "4", "5") == (0, "16\n", "")
    assert sys.get_int_max_str_digits() == before
    with pytest.raises(SystemExit):
        main(["count", "3"])
    assert sys.get_int_max_str_digits() == before


def test_gray_empty_set(capsys):
    code, out, err = run(capsys, "gray", "3", "2", "5")
    assert code == 0 and out == "" and err == ""


def test_gray_bad_params(capsys):
    code, out, err = run(capsys, "gray", "0", "2", "1")
    assert code == 2 and "error" in err


def test_count(capsys):
    assert run(capsys, "count", "3", "4", "5") == (0, "16\n", "")
    assert run(capsys, "count", "2", "6", "3") == (0, "20\n", "")
    assert run(capsys, "count", "2", "4", "9") == (0, "0\n", "")


def test_exists_exit_codes(capsys):
    code, out, _ = run(capsys, "exists", "2", "4", "2", "2")
    assert code == 1 and out == "no (n-s = gcd(n,s))\n"
    code, out, _ = run(capsys, "exists", "2", "4", "2", "1")
    assert code == 0 and out == "yes (n-s > gcd(n,s))\n"
    code, out, _ = run(capsys, "exists", "2", "4", "1", "2")
    assert code == 0 and out == "yes (degenerate-checked)\n"
    code, out, _ = run(capsys, "exists", "2", "4", "9", "1")
    assert code == 1 and out == "no (empty-set)\n"
    code, out, err = run(capsys, "exists", "2", "4", "2", "0")
    assert code == 2 and "error" in err


def test_ocycle_fixed(capsys):
    code, out, err = run(capsys, "ocycle", "fixed", "2", "4", "2", "1")
    assert code == 0
    cycle = [parse_word(line) for line in out.splitlines()]
    assert verify_ocycle(cycle, cycle, 1).ok
    assert len(cycle) == 6


def test_ocycle_fixed_not_eulerian(capsys):
    code, out, err = run(capsys, "ocycle", "fixed", "2", "4", "2", "2")
    assert code == 1 and out == ""
    assert "digraph-disconnected" in err


def test_ocycle_fixed_empty(capsys):
    code, out, err = run(capsys, "ocycle", "fixed", "2", "4", "9", "1")
    assert code == 1 and "empty" in err


def test_ocycle_compressed(capsys):
    code, out, _ = run(capsys, "ocycle", "fixed", "2", "4", "2", "1", "--compressed")
    assert code == 0
    assert out.strip() == "001100101010110011"
    code, out, _ = run(capsys, "ocycle", "range", "2", "4", "1", "2", "2", "--compressed")
    assert code == 0
    assert len(out.strip()) == 20


def test_ocycle_range(capsys):
    code, out, _ = run(capsys, "ocycle", "range", "3", "3", "0", "6", "1")
    cycle = [parse_word(line) for line in out.splitlines()]
    assert code == 0 and len(cycle) == 27
    assert verify_ocycle(cycle, cycle, 1).ok


def test_ocycle_range_bad_bounds(capsys):
    code, _, err = run(capsys, "ocycle", "range", "2", "4", "2", "1", "1")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "ocycle", "fixed", "2", "4", "2", "0")
    assert code == 2


def test_verify_gray_roundtrip(capsys, monkeypatch):
    _, out, _ = run(capsys, "gray", "3", "4", "5")
    feed(monkeypatch, out)
    code, verdict, _ = run(capsys, "verify", "gray", "3", "4", "5")
    assert code == 0 and verdict == "ok\n"


def test_verify_gray_comments_and_blanks(capsys, monkeypatch):
    feed(monkeypatch, "# weight-1 words, n=2\n\n01\n10\n")
    code, verdict, _ = run(capsys, "verify", "gray", "2", "2", "1")
    assert code == 0 and verdict == "ok\n"


def test_verify_gray_rejects_bad_list(capsys, monkeypatch):
    feed(monkeypatch, "0122\n2210\n")
    code, verdict, _ = run(capsys, "verify", "gray", "3", "4", "5")
    assert code == 1
    assert verdict.startswith("violation at index")


def test_verify_gray_rejects_garbage(capsys, monkeypatch):
    feed(monkeypatch, "01x2\n")
    code, _, err = run(capsys, "verify", "gray", "3", "4", "5")
    assert code == 1 and "line 1" in err


@pytest.mark.parametrize("stdin", ["", "01\n", "# c\n\n01\n10\n", "0122\n2210\n"],
                         ids=["empty", "word", "comments", "other-set"])
@pytest.mark.parametrize("argv, err", [
    ("0 2 1", "error: alphabet size m must be >= 1, got 0\n"),
    ("2 -1 0", "error: word length n must be >= 0, got -1\n"),
], ids=["m", "n"])
def test_verify_gray_bad_parameters_exit_2(capsys, monkeypatch, stdin, argv, err):
    # Checked once stdin is read, whatever words it holds.
    feed(monkeypatch, stdin)
    assert run(capsys, "verify", "gray", *argv.split()) == (2, "", err)


def test_verify_gray_parse_error_beats_bad_parameters(capsys, monkeypatch):
    feed(monkeypatch, "01\n0x\n")
    code, out, err = run(capsys, "verify", "gray", "0", "2", "1")
    assert (code, out, err) == (1, "", "error: line 2: cannot parse word from '0x'\n")


def test_verify_ocycle_roundtrip(capsys, monkeypatch):
    _, out, _ = run(capsys, "ocycle", "fixed", "2", "4", "2", "1")
    feed(monkeypatch, out)
    code, verdict, _ = run(capsys, "verify", "ocycle", "4", "1")
    assert code == 0 and verdict == "ok\n"


def test_verify_ocycle_rejects_broken_cycle(capsys, monkeypatch):
    feed(monkeypatch, "0011\n0101\n")
    code, verdict, _ = run(capsys, "verify", "ocycle", "4", "2")
    assert code == 1 and verdict.startswith("violation at index")


def test_verify_ocycle_rejects_wrong_length(capsys, monkeypatch):
    feed(monkeypatch, "0011\n")
    code, verdict, _ = run(capsys, "verify", "ocycle", "5", "1")
    assert code == 1 and "length" in verdict


def test_verify_ocycle_bad_s(capsys, monkeypatch):
    feed(monkeypatch, "0011\n")
    code, out, err = run(capsys, "verify", "ocycle", "4", "4")
    assert code == 2 and out == ""
    assert err == "error: overlap length s=4 out of range for n=4\n"


@pytest.mark.parametrize("stdin, argv, expected", [
    ("", "4 1", (0, "ok\n", "")),
    ("# nothing here\n\n", "4 1", (0, "ok\n", "")),
    ("# a 3-overlap cycle\n\n0011\n  \n# more\n0110\n1100\n1001\n", "4 3", (0, "ok\n", "")),
    ("0011\n0110\n0011\n", "4 1",
     (1, "violation at index -1: input word set contains duplicates\n", "")),
    ("0011\n0110\n011\n1100\n", "4 1",
     (1, "violation at index 2: word has length 3, expected 4\n", "")),
    # Comments and blank lines are skipped: the index counts words only.
    ("# a cycle\n\n0011\n  \n# with a break\n0110\n11\n", "4 1",
     (1, "violation at index 2: word has length 2, expected 4\n", "")),
    ("0011\n0101\n", "4 2",
     (1, "violation at index 0: words 0011 and 0101 do not overlap in 2 digits\n", "")),
    # A parse error beats every violation, an out-of-range s included.
    ("0011\n0011\n011\n01x1\n0011\n", "4 1",
     (1, "", "error: line 4: cannot parse word from '01x1'\n")),
    ("# c\n\n0011\n01x1\n", "4 9",
     (1, "", "error: line 4: cannot parse word from '01x1'\n")),
])
def test_verify_ocycle_contract(capsys, monkeypatch, stdin, argv, expected):
    feed(monkeypatch, stdin)
    assert run(capsys, "verify", "ocycle", *argv.split()) == expected


def verify_ocycle_cli(words, n, s):
    stdin, out = sys.stdin, io.StringIO()
    sys.stdin = io.StringIO("".join(format_word(w) + "\n" for w in words))
    try:
        with redirect_stdout(out):
            code = main(["verify", "ocycle", str(n), str(s)])
    finally:
        sys.stdin = stdin
    return out.getvalue(), code


@st.composite
def self_check_cases(draw):
    n = draw(st.integers(2, 5))
    s = draw(st.integers(1, n - 1))
    word = st.integers(n - 1, n + 1).flatmap(
        lambda length: st.lists(st.integers(0, 2), min_size=length, max_size=length)
    )
    return draw(st.lists(word, max_size=6)), n, s


@settings(max_examples=400, deadline=None)
@given(self_check_cases())
@example(([[0, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 0], [1, 0, 0, 1]], 4, 1))  # a cycle
@example(([[0, 1, 1], [1, 1, 0], [0, 0, 1]], 3, 1))  # only the wrap-around fails
def test_verify_ocycle_matches_the_self_check_oracle(case):
    words, n, s = case
    assert verify_ocycle_cli(words, n, s) == oracle_self_check(words, n, s)


def test_digraph_stdout_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "digraph", "fixed", "2", "4", "2", "2")
    assert code == 0
    assert out.startswith("digraph transitions {")
    assert out.count("->") == 6

    target = tmp_path / "graph.dot"
    code, piped, _ = run(capsys, "digraph", "fixed", "2", "4", "2", "2", "--dot", str(target))
    assert code == 0 and piped == ""
    assert target.read_text() == out

    code, ranged, _ = run(capsys, "digraph", "range", "2", "3", "0", "1", "1")
    assert code == 0 and ranged.count("->") == 4


@pytest.mark.parametrize("argv, digest", [
    ("digraph fixed 3 12 12 5",
     "2476077777b66f808ca160e510cc9b9d759646bdf8f2cbf1c2ad1105f2850ea0"),
    # 80-bit codes: a tuple of ints, not an array
    ("digraph fixed 3 40 2 3", "a58b18259aec869742005ecbc5ac70d1c4ed813d57ee106480b11cb230590c0d"),
])
def test_digraph_output_is_pinned(capsys, argv, digest):
    # Digests taken while the degree and component queries read a tuple view.
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_usage_errors_exit_2(capsys):
    for argv in (["gray", "3", "4"], ["nonsense"], [], ["ocycle", "fixed", "2"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


def test_gray_line_count_matches_count(capsys):
    for m in (2, 3):
        for n in range(1, 5):
            for k in range(0, (m - 1) * n + 1):
                _, listing, _ = run(capsys, "gray", str(m), str(n), str(k))
                _, total, _ = run(capsys, "count", str(m), str(n), str(k))
                assert len(listing.splitlines()) == int(total)


def test_verify_accepts_own_gray_output(capsys, monkeypatch):
    for m, n, k in [(2, 4, 2), (3, 3, 4), (4, 2, 3), (2, 5, 0)]:
        _, out, _ = run(capsys, "gray", str(m), str(n), str(k))
        feed(monkeypatch, out)
        code, verdict, _ = run(capsys, "verify", "gray", str(m), str(n), str(k))
        assert code == 0 and verdict == "ok\n", (m, n, k)


def test_digraph_empty_set(capsys):
    code, out, _ = run(capsys, "digraph", "fixed", "2", "4", "9", "1")
    assert code == 0
    assert out == "digraph transitions {\n}\n"


@pytest.mark.parametrize("argv", [
    "digraph fixed 3 4 100 9", "digraph fixed 3 4 100 0", "ocycle fixed 3 4 100 9",
])
def test_empty_set_with_bad_s_is_a_usage_error(capsys, argv):
    # An out-of-range s is refused as ``exists`` refuses it, even when the
    # word set is empty.
    s = argv.split()[-1]
    expected = 2, "", f"error: overlap length s={s} out of range for n=4\n"
    assert run(capsys, *argv.split()) == expected


OVER_CAP = "set of weight-[10,12] words has 1161615 elements, cap is 1000000"


@pytest.mark.parametrize("argv, message", [
    ("ocycle fixed 3 14 14 99", "overlap length s=99 out of range for n=14"),
    ("ocycle fixed 3 14 14 14 --compressed", "overlap length s=14 out of range for n=14"),
    ("ocycle range 3 12 11 13 99", "overlap length s=99 out of range for n=12"),
    ("digraph fixed 3 14 14 99", "overlap length s=99 out of range for n=14"),
    ("digraph range 3 12 11 13 0", "overlap length s=0 out of range for n=12"),
    # The set's own faults, its size over the cap among them, come first.
    ("digraph range 3 14 10 12 99", OVER_CAP),
    ("ocycle range 3 14 10 12 99", OVER_CAP),
    ("ocycle range 3 4 5 2 99", "weight range requires 0 <= p < q <= (m-1)*n, got p=5, q=2"),
    ("digraph range 3 4 5 5 0", "weight range requires 0 <= p < q <= (m-1)*n, got p=5, q=5"),
    ("ocycle fixed 0 4 1 99", "alphabet size m must be >= 1, got 0"),
    ("digraph fixed 3 -1 1 99", "word length n must be >= 0, got -1"),
])
def test_bad_s_is_refused_before_the_set_is_enumerated(capsys, monkeypatch, argv, message):
    # s is checked after the set's parameters and size and before any word
    # is made: the enumerator is never called.
    def refuse(*args):
        raise AssertionError("the word set was enumerated")

    monkeypatch.setattr("graycycles.codes._codes", refuse)
    assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")


def test_byte_identical_reruns(capsys):
    first = run(capsys, "ocycle", "range", "2", "4", "0", "3", "2")
    second = run(capsys, "ocycle", "range", "2", "4", "0", "3", "2")
    assert first == second
    third = run(capsys, "gray", "4", "4", "6")
    fourth = run(capsys, "gray", "4", "4", "6")
    assert third == fourth


@pytest.mark.parametrize("argv, lines", [
    ("gray 2 1200 1", 1200),
    ("gray 2 1200 1 --stream", 1200),
    ("ocycle range 2 1200 0 1 1", 1201),
    ("ocycle fixed 2 1200 1 1", 1200),
    ("exists 2 1200 1 5", 1),
    ("digraph fixed 2 1200 1 1", 1204),
])
def test_deep_words_exit_cleanly(capsys, argv, lines):
    # n = 1200 lies above the interpreter's default recursion limit
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    assert out.count("\n") == lines


def lines_of(words, m):
    return "".join(format_word(w, m) + "\n" for w in words)


def gray_sets():
    """(m, n, k) for the CLI ``gray`` differential, out-of-range k included.

    For each m the lengths run past the tail length t of the head and tail
    split (m**t <= 4096, t <= 13), so words get real heads; n <= 1 and
    m = 257 and 10**6 take the chunked path.
    """
    lengths = {1: 15, 2: 14, 3: 9, 4: 8, 5: 7, 10: 5, 11: 5, 12: 5, 257: 3}
    for m, stop in lengths.items():
        for n in range(stop):
            yield from ((m, n, k) for k in range(-1, (m - 1) * n + 2))
    m = 10**6
    for n in range(4):
        top = (m - 1) * n
        yield from ((m, n, k) for k in sorted({-1, 0, 1, 2, top - 1, top, top + 1}))


def test_gray_writer_matches_format_word(capsys, monkeypatch):
    # The head and tail blocks against the walker's words, formatted one by
    # one, with and without --stream; the last cases cross several chunk
    # boundaries.
    heads = {}

    def spy(m, n, t, *rest):
        heads[m] = max(heads.get(m, 0), n - t)
        return _split(m, n, t, *rest)

    monkeypatch.setattr("graycycles.words._split", spy)
    for m, n, k in gray_sets():
        expected = lines_of(gray_list(m, n, k), m)
        for flags in ((), ("--stream",)):
            code, out, err = run(capsys, "gray", str(m), str(n), str(k), *flags)
            assert (code, out, err) == (0, expected, ""), (m, n, k, flags)
    assert all(heads[m] > 0 for m in (1, 2, 3, 4, 5, 10, 11, 12)), heads
    for m, n, k in ((3, 9, 9), (10, 5, 22), (12, 5, 27)):
        assert count_fixed_weight(m, n, k) > 2 * _CHUNK
        code, out, _ = run(capsys, "gray", str(m), str(n), str(k), "--stream")
        assert code == 0 and out == lines_of(gray_list(m, n, k), m)
    code, out, _ = run(capsys, "gray", "2", "1200", "1", "--stream")
    assert code == 0 and out == lines_of(gray_list(2, 1200, 1), 2)


@pytest.mark.parametrize("argv, digest", [
    ("gray 3 12 12 --stream", "542f29b9525179e9f0040109b3cce8b3c555c69f73ba722165fc00fd8c00c480"),
    ("gray 3 11 11", "170a67cbd14afe7fc5c5a3e57bfb6f4798dbfcd31de26053eafe7d2aeb44355c"),
    ("gray 3 14 14 --stream", "faccab4e87e9149b7c9548f631ac0379f0fadb3fcfa197b54466b39fb45017a8"),
])
def test_gray_output_is_pinned(capsys, argv, digest):
    # Digests taken while the CLI still wrote the walker's words one by one.
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


class Enough(Exception):
    pass


class LineSink(io.TextIOBase):
    """A stdout that keeps nothing and stops the command after ``limit`` lines."""

    def __init__(self, limit):
        super().__init__()
        self.lines = 0
        self.limit = limit

    def write(self, text):
        self.lines += text.count("\n")
        if self.lines >= self.limit:
            raise Enough
        return len(text)


@pytest.mark.parametrize("argv", ["gray 1000000 3 999999 --stream", "gray 3 40 40 --stream"])
def test_gray_streams_in_bounded_memory(monkeypatch, argv):
    # 200,000 words of each: the walker, the pending blocks and the tail
    # table must stay under 2 MiB.  A tail table kept for every head weight
    # grows with the words written on the first command, to tens of MiB by
    # this point.
    sink = LineSink(200_000)
    monkeypatch.setattr("sys.stdout", sink)
    build_parser()  # built once per process, outside the measurement
    tracemalloc.start()
    try:
        with pytest.raises(Enough):
            main(argv.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.lines >= 200_000
    assert peak < 2 * 2**20, peak


def tuple_path(mode, m, n, weights):
    """(exit code, stdout, stderr) of CLI ``ocycle`` spelled out with the oracles.

    Keyed by (s, compressed) for every s from 0 to n.  The word set comes
    from ``enumerate_*``, the cycle from ``oracle_cycle`` (the tuple-based
    Hierholzer of ``tests/ocycle_oracles.py``) and the text from
    ``format_word``, once per word of the set: the compressed line is the
    first n-s digits of each word, around the cycle.  The checks come in the
    CLI's order.
    """
    results = {}
    try:
        if mode == "fixed":
            words = enumerate_fixed_weight(m, n, *weights)
        else:
            words = enumerate_weight_range(m, n, *weights)
    except (MaterializationLimitError, ValueError) as exc:
        failed = 2, "", f"error: {exc}\n"
        return {(s, c): failed for s in range(n + 1) for c in (False, True)}
    line = {w: format_word(w, m) + "\n" for w in words}
    for s in range(n + 1):
        if not 1 <= s < n:
            plain = compressed = 2, "", f"error: overlap length s={s} out of range for n={n}\n"
        elif not words:
            plain = compressed = 1, "", "error: the word set is empty\n"
        else:
            try:
                cycle = oracle_cycle(words, s)
            except NotEulerianError as exc:
                plain = compressed = 1, "", f"no {s}-overlap cycle: {exc.reason}\n"
            else:
                plain = 0, "".join(map(line.__getitem__, cycle)), ""
                heads = [d for w in cycle for d in w[:n - s]]
                compressed = 0, format_word(heads) + "\n", ""
        results[s, False], results[s, True] = plain, compressed
    return results


def ocycle_sets():
    """(m, n, mode, weights): every k and [p, q], out-of-range ones included."""
    for m in (1, 2, 3, 4):
        for n in range(7):
            top = (m - 1) * n
            yield from ((m, n, "fixed", (k,)) for k in range(-1, top + 2))
            yield from ((m, n, "range", (p, q)) for p in range(-1, top + 1)
                        for q in range(p, top + 2))
    # m = 5 and 8 have 3-bit digits, some of which cross a byte of the codes.
    for m, n in ((5, 4), (8, 3)):
        top = (m - 1) * n
        yield from ((m, n, "fixed", (k,)) for k in range(top + 1))
        yield from ((m, n, "range", (p, q)) for p, q in ((0, top), (3, top - 3)))
    # m = 10 is the widest concatenated form; m = 11 and 12 are comma-separated.
    for m, n in ((10, 2), (11, 3), (12, 3)):
        top = (m - 1) * n
        yield from ((m, n, "fixed", (k,)) for k in range(top + 1))
    for m in (11, 12):
        yield from ((m, 3, "range", (p, q)) for p, q in ((0, 3 * m - 3), (5, 20)))
    # m = 257 takes 9-bit fields: digit 256 has no byte.
    for n in (2, 3):
        top = 256 * n
        yield from ((257, n, "fixed", (k,)) for k in (0, 1, 257, top - 1, top))
        yield from ((257, n, "range", (p, q)) for p, q in ((0, 2), (255, 260), (top - 2, top)))


def test_ocycle_writer_matches_format_word(capsys):
    # The coded CLI path against the tuple oracles, plain and compressed,
    # on every s from 0 to n: stdout, stderr and exit code.
    for m, n, mode, weights in ocycle_sets():
        expected = tuple_path(mode, m, n, weights)
        for s in range(n + 1):
            argv = ["ocycle", mode, str(m), str(n), *map(str, weights), str(s)]
            assert run(capsys, *argv) == expected[s, False], argv
            assert run(capsys, *argv, "--compressed") == expected[s, True], argv


@pytest.mark.parametrize("flags, digest", [
    ((), "361c8ae891799159500d85b9621e62c1c0f7a2be80b469b3e1ffd9f8d3046839"),
    (("--compressed",), "e7de658a8e2f887f08f7c6c48d8ec8274fc2ab84dcd8d19ceb436f290a3d9cac"),
])
def test_ocycle_output_is_pinned(capsys, flags, digest):
    # Digests of the 73,789-word cycle, taken before words became byte codes.
    code, out, err = run(capsys, "ocycle", "fixed", "3", "12", "12", "5", *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    ("ocycle fixed 3 14 14 6 --compressed",
     "cadbf4685887e02efeff9128851f532e6efabce0a12d6e6345edd391c9658ee1"),
    # 80-bit and 1,200-bit codes: a tuple of ints, not an array
    ("ocycle fixed 3 40 2 3", "7994c3d0a4c4c6ab8dd2e252cdd16d06f931f1454ee4a69c22228a5c5a2f5cc9"),
    ("ocycle range 2 1200 0 1 1 --compressed",
     "166c24f82c0f50cba59b7a5b88f5dfc2098f18916346d9ccf6fb38b16bea5b3a"),
    # Each spans more than one block of text: digits over 9 (commas),
    # 300-bit codes, and m = 11 with no digit over 9 (no commas).
    ("ocycle fixed 12 6 30 2 --compressed",
     "c0f481ad5659f6aced64f0a46036d8c477fe58cdceb2c3f1b4d379b9a520db8c"),
    ("ocycle range 2 300 0 2 1 --compressed",
     "862e682b2664b0dfafc736cba22bb3fc0f4668a67bc1fd44c9ff77bd2f5dcb72"),
    ("ocycle fixed 11 8 9 3 --compressed",
     "1d21fb62b08633a89f6e76061622fca9e3256492c16721b7ced088ad199b8b84"),
    # Fields of 5, 6 and 7 bits, some crossing a byte (the 5-bit one with
    # commas), the digraph's vertex decoder on 5-bit fields, and 66-bit
    # codes in a tuple of ints over 12 blocks of plain text.
    ("ocycle fixed 20 5 40 2 --compressed",
     "d035ebd1c1ee699828f6cb31a2e9022cbb180fad032cf707db204e461b88eafa"),
    ("ocycle fixed 40 3 60 1 --compressed",
     "e4e9176b8bf817d2b0b8b1b5e27f844935c16782bb58992ac55b9b9776b8f7f4"),
    ("ocycle fixed 100 3 150 1", "913f4f223e98a5f387a7282e0736ea8d43d9bf5a148772e9ed6022ec82b56c92"),
    ("digraph fixed 20 4 30 1", "b7af01a0257dc496e8c2e1f13eff217ee125d8dc070edda5185d963211db33d0"),
    ("ocycle fixed 2 66 3 1", "a03b831cf34556948bb95c0ed0113983289ea46829a305f5c871dc6975ce3b26"),
])
def test_larger_and_wider_ocycles_are_pinned(capsys, argv, digest):
    # Digests taken while every word was still a byte code.
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def traced_ocycle(monkeypatch, *args):
    """Exit code, stdout lines and traced peak of ``ocycle`` with args."""
    sink = LineSink(10**9)
    monkeypatch.setattr("sys.stdout", sink)
    build_parser()  # built once per process, outside the measurement
    tracemalloc.start()
    try:
        code = main(["ocycle", *args])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, sink.lines, peak


@pytest.mark.parametrize("flags, bound", [((), 20), (("--compressed",), 14)])
def test_ocycle_peak_memory_per_word(monkeypatch, flags, bound):
    # The traced peak of the 73,789-word cycle, in bytes per word: about 9.0
    # plain and 10.6 compressed with codes in arrays of machine words, where
    # a tuple of 96-bit byte codes took 73 and 77, and a walk that copied
    # each vertex's run of codes took both to 12.9.  The compressed line's
    # self-check sorts its codes a byte-keyed group at a time, reads its
    # digit columns a block at a time and the line is written a block at a
    # time, so its peak is the repeat test's groups beside the cycle.  A
    # sorted copy of all the codes took it to 48, and a copy of all their
    # bytes to 16.1.
    code, lines, peak = traced_ocycle(monkeypatch, "fixed", "3", "12", "12", "5", *flags)
    assert code == 0 and lines == (1 if flags else 73_789)
    assert peak < bound * 73_789, peak / 73_789


@pytest.mark.parametrize("argv, words, bound", [
    ("fixed 12 6 30 2 --compressed", 129_668, 20),
    ("range 2 300 0 2 1 --compressed", 45_151, 200),
])
def test_decoded_compressed_ocycle_peak_memory_per_word(monkeypatch, argv, words, bound):
    # Codes with digits over 9 are decoded and written a block at a time,
    # and 300-bit codes in a tuple of ints are spelled from their digit
    # columns a block at a time, so the compressed line peaks about where
    # the plain lines do: about 10.0 and 178 bytes a word, against 8.8 and
    # 206 plain.  A list of every digit of the cycle took them to 284 and
    # 2,890.
    code, lines, peak = traced_ocycle(monkeypatch, *argv.split())
    assert (code, lines) == (0, 1)
    assert peak < bound * words, peak / words


def test_compressed_ocycle_peaks_where_the_plain_one_does(monkeypatch):
    # The walk's cursors into the ascending codes hold no copy of them, so
    # the plain command peaks at about 8.8 bytes a word; a reversed array of
    # each vertex's run took it to 12.3.  The self-check of the 129,668-word
    # cycle holds no copy of all its codes or their bytes either, and the
    # compressed command peaks at about 10.0, within the 13.3 that held when
    # the walk set both peaks.  Reading the check's digit columns from one
    # copy of all the codes' bytes took it to 16.0.
    argv = ("fixed", "12", "6", "30", "2")
    code, lines, plain = traced_ocycle(monkeypatch, *argv)
    assert (code, lines) == (0, 129_668)
    assert plain <= 10 * 129_668, plain / 129_668
    code, lines, compressed = traced_ocycle(monkeypatch, *argv, "--compressed")
    assert (code, lines) == (0, 1)
    assert compressed <= 13.3 * 129_668, compressed / 129_668


def test_disconnected_ocycle_peak_memory_per_word(monkeypatch, capsys):
    # At s = 11 nearly every word has a vertex of its own, and the walk
    # stops short of the edge count.  Its traced peak is about 144 bytes a
    # word with one cursor per vertex into the codes, and 168 with a copy of
    # each vertex's run in an array of its own.  A degree table kept on the
    # digraph through the walk made it 303, and counting degrees before the
    # walk's cursors are freed makes it 259.
    code, lines, peak = traced_ocycle(monkeypatch, "fixed", "3", "12", "12", "11")
    assert (code, lines) == (1, 0)
    assert "digraph-disconnected" in capsys.readouterr().err
    assert peak < 160 * 73_789, peak / 73_789


def test_compressed_ocycle_keeps_its_self_check(capsys, monkeypatch):
    # A tour with two codes swapped must stop at compress_cycle's check.
    tour = ocycles.euler_tour

    def swapped(digraph):
        cycle = tour(digraph)
        return cycle.like((cycle[0], cycle[2], cycle[1], *cycle[3:]))

    monkeypatch.setattr(ocycles, "euler_tour", swapped)
    code, out, err = run(capsys, "ocycle", "fixed", "3", "6", "6", "2", "--compressed")
    assert (code, out, err) == (2, "", "error: refusing to compress an unverified cycle\n")


def test_handlers_call_the_module_functions_they_find(capsys, monkeypatch):
    # The handlers import from graycode, ocycles and existence when they run,
    # so they call what those modules hold at that moment.
    called = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            called.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [
        (existence, "exists_fixed_weight_ocycle"), (ocycles, "construct_ocycle"),
        (ocycles, "build_transition_digraph"), (ocycles, "_compressed"),
        (ocycles, "_cycle_fault"), (ocycles, "export_dot"), (graycode, "verify_gray"),
    ]:
        spy(module, name)
    assert run(capsys, "exists", "3", "4", "4", "1") == (0, "yes (n-s > gcd(n,s))\n", "")
    assert run(capsys, "ocycle", "fixed", "2", "4", "2", "1", "--compressed")[0] == 0
    assert run(capsys, "digraph", "fixed", "2", "4", "2", "1")[0] == 0
    feed(monkeypatch, "0122\n")
    assert run(capsys, "verify", "gray", "3", "4", "5")[0] == 1
    feed(monkeypatch, "0011\n")
    assert run(capsys, "verify", "ocycle", "4", "2")[0] == 1
    assert called == [
        "exists_fixed_weight_ocycle",
        "construct_ocycle", "build_transition_digraph", "_compressed", "_cycle_fault",
        "build_transition_digraph", "export_dot",
        "verify_gray",
        "_cycle_fault",
    ]


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_gray_writes_once_per_chunk(monkeypatch):
    stub = CountingStdout()
    monkeypatch.setattr("sys.stdout", stub)
    assert main(["gray", "3", "9", "9", "--stream"]) == 0
    total = count_fixed_weight(3, 9, 9)
    assert stub.getvalue().count("\n") == total
    assert stub.writes <= -(-total // _CHUNK) + 1


def cli(*argv, unbuffered="1"):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    return subprocess.Popen([sys.executable, "-m", "graycycles.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


def test_unbuffered_stdout_matches_golden_file():
    out, err = cli("gray", "3", "4", "5").communicate(timeout=60)
    assert out == GOLDEN_345.read_bytes() and err == b""


def test_one_parser_serves_every_command(capsys):
    # main builds its parser once per process; flags and subcommands of one
    # call must not leak into the next.
    assert build_parser() is build_parser()
    for argv in ("ocycle fixed 3 4 4 2 --compressed", "ocycle fixed 3 4 4 2",
                 "gray 3 4 4", "ocycle range 2 4 1 3 2 --compressed", "gray 3 4 4 --stream",
                 "gray 0 4 4", "exists 3 4 4 2"):
        code, out, err = run(capsys, *argv.split())
        proc = cli(*argv.split())
        fresh_out, fresh_err = proc.communicate(timeout=60)
        assert (code, out, err) == (proc.returncode, fresh_out.decode(), fresh_err.decode()), argv


@pytest.mark.parametrize("unbuffered", ["1", None])
@pytest.mark.parametrize("argv", [
    "gray 3 12 12 --stream", "ocycle fixed 3 11 11 4", "gray 3 15 15 --stream",
])
def test_closed_pipe_exits_quietly(argv, unbuffered):
    # Each output is several times larger than a pipe holds, so the command
    # is still writing when the reader goes.  The last set is over the cap,
    # which --stream lifts.
    proc = cli(*argv.split(), unbuffered=unbuffered)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_unwritable_dot_path_is_a_usage_error(tmp_path):
    target = tmp_path / "missing" / "x.dot"
    proc = cli("digraph", "fixed", "2", "4", "2", "1", "--dot", str(target))
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2 and out == b""
    lines = err.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert b"Traceback" not in err
    assert not target.parent.exists()
