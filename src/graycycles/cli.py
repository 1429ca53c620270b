"""Command-line front end.

Subcommands: gray, count, exists, ocycle, verify, digraph.  Words travel on
stdout one per line in their text form; diagnostics go to stderr.  Exit
codes: 0 success / exists / valid, 1 not-exists / invalid input list,
2 usage or parameter error.  A reader that closes the pipe early (``| head``)
ends the command with exit 1 and nothing on stderr.

``GRAMMAR`` is the one table of the command line: each command, or command
and mode, with its help text, its int positionals and its one optional
flag.  ``main`` first matches argv against it with str methods alone
(``_matched``), and takes only the canonical form: the command, the mode or
target, exactly the int positionals (each an ASCII run of digits with an
optional ``-``), and the flag, if given, as the last token.  A well-formed
command line so loads neither ``argparse`` (with ``gettext``, ``locale``
and ``re``) nor any parser.  Anything else, from ``-h`` and abbreviated or
misplaced flags to ``--dot PATH`` and ints such as ``+3`` or ``3_0``, goes
to the ``argparse`` tree that ``build_parser`` builds from the same table:
it prints every help text and usage error, and parses what it accepts.

Word lists are written in chunks of at least ``words._CHUNK`` words, one
``write`` call per chunk, so the cost does not depend on whether stdout is
buffered.  ``gray`` always streams the text blocks of ``words._gray_blocks``,
in O(n) memory plus a tail table of at most ``words._TAIL_LINES`` short
lines for every m; without ``--stream`` it first refuses, from the count,
sets over the 10^6-word cap.

``ocycle`` and ``digraph`` check the set's parameters, its size against
the same cap (``words._check_set``) and s, in that order, and only then
load the engine and enumerate the set (``codes._codes``); ``codes`` owns
the word coding.  Each word travels as one int, its digits in fields of
(m-1).bit_length() bits, kept in read-only machine words when the word
fits 64 bits, through the transition digraph, the Euler tour and the
tour's self-check to the text, spelled only there by ``codes._spelled``.
``ocycle`` lets go of the ascending codes once the cycle is built.

Handlers import from ``graycode``, ``codes``, ``ocycles`` and ``existence``
when they run, so ``gray`` and ``count`` load only ``words``, ``exists``
loads only ``existence`` and ``records``, which decide every verdict by
theorem, and only ``digraph`` loads ``views``, for ``export_dot``.
"""

from __future__ import annotations

import functools
import os
import sys
from itertools import chain
from types import SimpleNamespace

from .words import (
    _CHUNK,
    DEFAULT_MATERIALIZATION_CAP,
    _ORDERING_HEAD,
    MaterializationLimitError,
    _check_cap,
    _check_overlap,
    _check_params,
    _check_set,
    _gray_blocks,
    count_fixed_weight,
    parse_word,
)

TYPE_CHECKING = False  # typing serves type checkers only; see words
if TYPE_CHECKING:
    import argparse
    from typing import Sequence

# command -> (help, int positionals, flag); a command with modes maps to
# (help, the mode's attribute, {mode: (help, int positionals, flag)}).
GRAMMAR = {
    "gray": ("list the two-change ordering of B_k(m,n)", "m n k", "--stream"),
    "count": ("print |B_k(m,n)| exactly", "m n k", None),
    "exists": ("fixed-weight s-overlap cycle existence", "m n k s", None),
    "ocycle": ("construct an s-overlap cycle", "mode", {
        "fixed": ("cycle for the weight-k words", "m n k s", "--compressed"),
        "range": ("cycle for the words with weight in [p,q]", "m n p q s", "--compressed"),
    }),
    "verify": ("check a word list from stdin", "target", {
        "gray": ("check a claimed two-change ordering", "m n k", None),
        "ocycle": ("check a claimed s-overlap cycle", "n s", None),
    }),
    "digraph": ("export a transition digraph as DOT", "mode", {
        "fixed": (None, "m n k s", "--dot"),
        "range": (None, "m n p q s", "--dot"),
    }),
}
FLAGS = {"--stream": "lift the 10^6-word cap", "--compressed": "one-line compressed form",
         "--dot": "write DOT here instead of stdout"}  # --dot alone takes a value


def _matched(argv: Sequence[str]) -> dict | None:
    """The attributes argparse gives a canonical command line, else None."""
    args, rest = {}, list(argv)
    names, flag = "command", GRAMMAR
    while isinstance(flag, dict):  # the command, then its mode or target
        if not rest or rest[0] not in flag:
            return None
        args[names] = rest[0]
        _, names, flag = flag[rest.pop(0)]
    names = names.split()
    ints, tail = rest[:len(names)], rest[len(names):]
    if len(ints) < len(names) or tail not in ([], [flag]) or tail == ["--dot"]:
        return None
    for text in ints:
        digits = text[text[:1] == "-":]
        if not (digits.isdigit() and digits.isascii()):
            return None
    if flag:
        args[flag[2:]] = None if flag == "--dot" else bool(tail)
    args.update(zip(names, map(int, ints)))
    return args


@functools.cache  # built once per process, for help and usage errors only
def build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="graycycles",
        description="Fixed-weight m-ary Gray codes and s-overlap cycles.",
    )
    _add_commands(parser, "command", GRAMMAR)
    return parser


def _add_commands(parser: argparse.ArgumentParser, dest: str, table: dict) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (text, names, flag) in table.items():
        p = sub.add_parser(name, **{"help": text} if text else {})  # help=None lists it too
        if isinstance(flag, dict):
            _add_commands(p, names, flag)
            continue
        for arg in names.split():
            p.add_argument(arg, type=int)
        if flag == "--dot":
            p.add_argument(flag, metavar="PATH", help=FLAGS[flag])
        elif flag:
            p.add_argument(flag, action="store_true", help=FLAGS[flag])


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Exact counts, and the argv ints they come from, may run past the
    # interpreter's limit on int/str conversion (4300 digits by default);
    # lift it while the command runs.  Interpreters without one read as 0.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = SimpleNamespace(**(_matched(argv) or vars(build_parser().parse_args(argv))))
        handler = {
            "gray": _cmd_gray,
            "count": _cmd_count,
            "exists": _cmd_exists,
            "ocycle": _cmd_ocycle,
            "verify": _cmd_verify,
            "digraph": _cmd_digraph,
        }[args.command]
        code = handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so the interpreter's
        # final flush of what is left in the buffer stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (MaterializationLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _cmd_gray(args: SimpleNamespace) -> int:
    if not args.stream:
        total = count_fixed_weight(args.m, args.n, args.k)
        _check_cap(total, DEFAULT_MATERIALIZATION_CAP, _ORDERING_HEAD)
    # One write per run of blocks that reaches _CHUNK lines.
    write = sys.stdout.write
    pending, lines = [], 0
    for text, count in _gray_blocks(args.m, args.n, args.k):
        pending.append(text)
        lines += count
        if lines >= _CHUNK:
            write("".join(pending))
            pending, lines = [], 0
    if pending:
        write("".join(pending))
    return 0


def _cmd_count(args: SimpleNamespace) -> int:
    print(count_fixed_weight(args.m, args.n, args.k))
    return 0


def _cmd_exists(args: SimpleNamespace) -> int:
    from .existence import REASON_GCD, exists_fixed_weight_ocycle
    verdict = exists_fixed_weight_ocycle(args.m, args.n, args.k, args.s)
    if verdict.reason == REASON_GCD:
        phrase = "n-s > gcd(n,s)" if verdict.exists else "n-s = gcd(n,s)"
    else:
        phrase = verdict.reason
    print(f"{'yes' if verdict.exists else 'no'} ({phrase})")
    return 0 if verdict.exists else 1


def _checked_weights(args: SimpleNamespace) -> tuple[int, int]:
    p, q = (args.k, None) if args.mode == "fixed" else (args.p, args.q)
    _check_set(args.m, args.n, p, q, DEFAULT_MATERIALIZATION_CAP)
    _check_overlap(args.n, args.s)  # after the set's own checks, on an empty set too
    return p, p if q is None else q


def _cmd_ocycle(args: SimpleNamespace) -> int:
    p, q = _checked_weights(args)  # the engine then compiles before any code is held
    from .codes import _codes, _spelled
    from .ocycles import NotEulerianError, _compressed, construct_ocycle
    words = _codes(args.m, args.n, p, q)
    if not words:
        print("error: the word set is empty", file=sys.stderr)
        return 1
    try:
        solution = construct_ocycle(words, args.s)
    except NotEulerianError as exc:
        print(f"no {args.s}-overlap cycle: {exc.reason}", file=sys.stderr)
        return 1
    del words  # the cycle alone is checked and written
    if args.compressed:  # checked before its first block, so a fault writes nothing
        blocks = chain(_compressed(solution, args.n), ("\n",))
    else:
        blocks = _spelled(solution.cycle, args.n, "\n", args.m)
    write = sys.stdout.write
    for text in blocks:
        write(text)
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    # One word per line; blank lines and '#' comments are ignored.
    words = []
    for lineno, raw in enumerate(sys.stdin, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            words.append(parse_word(text))
        except ValueError as exc:
            print(f"error: line {lineno}: {exc}", file=sys.stderr)
            return 1
    if args.target == "gray":  # parameters checked once stdin is read, before the verifier loads
        _check_params(args.m, args.n)
        from .graycode import verify_gray
        fault = verify_gray(words, args.m, args.n, args.k).first_violation
    else:
        _check_overlap(args.n, args.s)
        from .ocycles import _cycle_fault
        fault = _cycle_fault(words, args.n, args.s)
    if fault is None:
        print("ok")
        return 0
    index, description = fault
    print(f"violation at index {index}: {description}")
    return 1


def _cmd_digraph(args: SimpleNamespace) -> int:
    p, q = _checked_weights(args)
    from .codes import _codes
    from .ocycles import build_transition_digraph, export_dot
    text = export_dot(build_transition_digraph(_codes(args.m, args.n, p, q), args.s), args.m)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
