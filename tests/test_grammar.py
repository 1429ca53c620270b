"""The command grammar: help and usage text, and the argv matcher against argparse."""

import io
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graycycles.cli import FLAGS, GRAMMAR, _matched, build_parser, main

GOLDEN_HELP = Path(__file__).parent / "data" / "help.txt"

# Every parser's -h, then three usage errors; captured from the hand-built
# argparse tree that the command table replaced.
HELP = ["", "gray", "count", "exists", "ocycle", "ocycle fixed", "ocycle range", "verify",
        "verify gray", "verify ocycle", "digraph", "digraph fixed", "digraph range"]
USAGE_ERRORS = ["ocycle fixed x", "nonsense", ""]


def exit_of(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


def transcript(capsys):
    parts = []
    for line in HELP:
        argv = [*line.split(), "-h"]
        code, out, err = exit_of(capsys, argv)
        assert (code, err) == (0, ""), argv
        parts.append(f"$ {' '.join(['graycycles', *argv])}\n{out}")
    for line in USAGE_ERRORS:
        code, out, err = exit_of(capsys, line.split())
        assert (code, out) == (2, ""), line
        parts.append(f"$ {' '.join(['graycycles', *line.split()])} 2>&1\n{err}")
    return "".join(parts)


def test_help_and_usage_text_match_the_golden_file(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    assert transcript(capsys) == GOLDEN_HELP.read_text()


def leaves():
    for command, (_, names, flag) in GRAMMAR.items():
        if isinstance(flag, dict):
            for mode, (_, ints, switch) in flag.items():
                yield [command, mode], ints.split(), switch
        else:
            yield [command], names.split(), flag


LEAVES = list(leaves())
# Tokens argparse reads in its own way: signs, leading zeros, underscores,
# non-ASCII digits, a 5,000-digit int, abbreviated and misplaced options.
EDGES = ["-0", "-1", "-12", "007", "+3", "3_0", "٣", " 3", "x", "9" * 5000,
         "--comp", "--", "-h", *FLAGS]


@st.composite
def command_lines(draw):
    """A canonical command line from the table, then up to three edits."""
    words, names, flag = draw(st.sampled_from(LEAVES))
    argv = [*words, *(str(draw(st.integers(-30, 30))) for _ in names)]
    if flag and draw(st.booleans()):
        argv.append(flag)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        token = draw(st.sampled_from(EDGES) | st.integers(-30, 30).map(str))
        edit = draw(st.sampled_from(["put", "insert", "delete"]))
        if edit == "insert":
            argv.insert(at, token)
        elif at < len(argv):
            if edit == "put":
                argv[at] = token
            else:
                del argv[at]
    return argv


@contextmanager
def no_digit_limit():
    # as main does: argparse and the matcher then read ints of any length
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@settings(max_examples=600, deadline=None)
@given(command_lines())
@example(["gray", "-0", "007", "-12"])
@example(["count", "9" * 5000, "3", "-1"])
@example(["ocycle", "fixed", "3", "4", "4", "2", "--compressed"])
@example(["ocycle", "range", "3", "4", "1", "3", "2", "--compressed", "--compressed"])
@example(["digraph", "fixed", "3", "4", "4", "2"])
@example(["verify", "ocycle", "4"])
@example(["verify", "gray", "3", "4", "4", "5"])
def test_matcher_agrees_with_argparse(argv):
    with no_digit_limit(), redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        matched = _matched(argv)
        try:
            parsed, code = vars(build_parser().parse_args(argv)), 0
        except SystemExit as exc:
            parsed, code = None, exc.code
    if matched is not None:
        assert matched == parsed
    if code == 2:
        assert matched is None


@pytest.mark.parametrize("argv", [
    "-h", "gray -h", "gray 3 4 5 -h", "gray 3 4 5 --str", "ocycle fixed 3 4 4 2 --comp",
    "ocycle --compressed fixed 3 4 4 2", "ocycle fixed --compressed 3 4 4 2",
    "ocycle fixed 3 4 4 2 --compressed --compressed", "gray -- 3 4 5", "gray 3 4 5 --",
    "digraph fixed 3 4 4 2 --dot out.dot", "digraph fixed 3 4 4 2 --dot=out.dot",
    "count +3 4 5", "count 3_0 4 5", "count ٣ 4 5", "count 3 4", "count 3 4 5 6",
    "count --5 4 5", "verify ocycle 4", "ocycle 3 4 4 2", "",
])
def test_matcher_leaves_everything_else_to_argparse(argv):
    assert _matched(argv.split()) is None

