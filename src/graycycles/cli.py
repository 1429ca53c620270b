"""Command-line front end.

Subcommands: gray, count, exists, ocycle, verify, digraph.  Words travel on
stdout one per line in their text form; diagnostics go to stderr.  Exit
codes: 0 success / exists / valid, 1 not-exists / invalid input list,
2 usage or parameter error.  A reader that closes the pipe early (``| head``)
ends the command with exit 1 and nothing on stderr.

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

import argparse
import functools
import os
import sys
from itertools import chain

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
    from typing import Sequence


@functools.cache  # built once per process: each build costs about 3 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graycycles",
        description="Fixed-weight m-ary Gray codes and s-overlap cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gray", help="list the two-change ordering of B_k(m,n)")
    _add_ints(p, "m", "n", "k")
    p.add_argument("--stream", action="store_true", help="lift the 10^6-word cap")

    p = sub.add_parser("count", help="print |B_k(m,n)| exactly")
    _add_ints(p, "m", "n", "k")

    p = sub.add_parser("exists", help="fixed-weight s-overlap cycle existence")
    _add_ints(p, "m", "n", "k", "s")

    p = sub.add_parser("ocycle", help="construct an s-overlap cycle")
    modes = p.add_subparsers(dest="mode", required=True)
    fixed = modes.add_parser("fixed", help="cycle for the weight-k words")
    _add_ints(fixed, "m", "n", "k", "s")
    fixed.add_argument("--compressed", action="store_true", help="one-line compressed form")
    rng = modes.add_parser("range", help="cycle for the words with weight in [p,q]")
    _add_ints(rng, "m", "n", "p", "q", "s")
    rng.add_argument("--compressed", action="store_true", help="one-line compressed form")

    p = sub.add_parser("verify", help="check a word list from stdin")
    targets = p.add_subparsers(dest="target", required=True)
    vg = targets.add_parser("gray", help="check a claimed two-change ordering")
    _add_ints(vg, "m", "n", "k")
    vo = targets.add_parser("ocycle", help="check a claimed s-overlap cycle")
    _add_ints(vo, "n", "s")

    p = sub.add_parser("digraph", help="export a transition digraph as DOT")
    modes = p.add_subparsers(dest="mode", required=True)
    fixed = modes.add_parser("fixed")
    _add_ints(fixed, "m", "n", "k", "s")
    fixed.add_argument("--dot", metavar="PATH", help="write DOT here instead of stdout")
    rng = modes.add_parser("range")
    _add_ints(rng, "m", "n", "p", "q", "s")
    rng.add_argument("--dot", metavar="PATH", help="write DOT here instead of stdout")

    return parser


def _add_ints(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, type=int)


def main(argv: Sequence[str] | None = None) -> int:
    # Exact counts, and the argv ints they come from, may run past the
    # interpreter's limit on int/str conversion (4300 digits by default);
    # lift it while the command runs.  Interpreters without one read as 0.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
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


def _cmd_gray(args: argparse.Namespace) -> int:
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


def _cmd_count(args: argparse.Namespace) -> int:
    print(count_fixed_weight(args.m, args.n, args.k))
    return 0


def _cmd_exists(args: argparse.Namespace) -> int:
    from .existence import REASON_GCD, exists_fixed_weight_ocycle
    verdict = exists_fixed_weight_ocycle(args.m, args.n, args.k, args.s)
    if verdict.reason == REASON_GCD:
        phrase = "n-s > gcd(n,s)" if verdict.exists else "n-s = gcd(n,s)"
    else:
        phrase = verdict.reason
    print(f"{'yes' if verdict.exists else 'no'} ({phrase})")
    return 0 if verdict.exists else 1


def _checked_weights(args: argparse.Namespace) -> tuple[int, int]:
    p, q = (args.k, None) if args.mode == "fixed" else (args.p, args.q)
    _check_set(args.m, args.n, p, q, DEFAULT_MATERIALIZATION_CAP)
    _check_overlap(args.n, args.s)  # after the set's own checks, on an empty set too
    return p, p if q is None else q


def _cmd_ocycle(args: argparse.Namespace) -> int:
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


def _cmd_verify(args: argparse.Namespace) -> int:
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


def _cmd_digraph(args: argparse.Namespace) -> int:
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
