"""End-to-end and per-layer benchmark of the graycycles CLI.

    python3 perfbench/run.py --workload gray --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--workload all`` runs the four workloads, interleaved rep by rep.
``BENCHMARK.json`` lists the workloads with ``gated`` set.

Each command of a workload runs as a fresh ``python -m graycycles.cli``
subprocess, one at a time, with ``PYTHONPATH=src``; ``spawn.py`` starts it,
drains its stdout from a pipe, hashes it, and reaps it with ``os.wait4`` for
its CPU time and peak RSS.  Every output is checked: its sha256 must equal the
digest pinned from the seed commit, and outputs with an independent oracle
(``oracles.py``) are checked against it too.  A wrong exit code, a digest or
oracle mismatch, or a timeout counts the command as failed.

``--trace 0`` reports the end-to-end metrics as medians over whole reps: at
least ``MIN_REPS``, and more while the next one fits in ``--seconds``.

* ``wall_s``: wall time of one rep of the workload's commands, summed;
* ``cpu_s``: the children's user+sys time for the same commands;
* ``peak_rss_mib``: the largest ``ru_maxrss`` among them;
* ``setup_s``: the same subcommand on a trivial instance, sampled
  ``SETUPS_PER_REP`` times per rep.  It covers interpreter start, import and
  argument parsing, so work moved into import shows up here.

The commands are sized at about a second each, so that a run of 55 s holds
about twenty reps.  On a shared host a virtual CPU runs up to about 1.5x slower
while its physical core also serves other guests, for stretches of a few
seconds; the median of many short reps is less moved by such a stretch than
that of a few long ones.  For the same reason ``spawn.py`` starts each child
on the CPU that is faster at that moment.

``first_byte_s``, spawn to the first stdout byte of the first command, is
printed and recorded but not in the result line; see ``UNGATED``.

The failed share of commands is ``failed / attempted`` in the result line.
Before each rep a fixed stdlib loop is timed; that calibration is written to
the result file as a drift marker, not reported as a metric.

``--trace 1`` reports the per-layer metrics from ``layers.py``: one untraced
rep, then one traced pass and one tracemalloc pass, each in its own process.

Inputs depend only on ``--seed``: it picks which line is deleted from the
corrupted ``verify gray`` input and where the ``verify ocycle`` listing
starts.  The program sees only argv and stdin.

Not covered: ``ocycle range``, ``digraph`` / ``export_dot``,
``decompress_cycle``, ``exists``, and the ``RecursionError`` the recursive
generators hit near n = 1000 (a correctness defect, not a speed workload).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per-run records (environment,
calibration, every rep, every failure) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles
from spawn import COMMAND_TIMEOUT, Outcome, Spawner

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
INPUTS = OUT / "inputs"
CLI = (sys.executable, "-m", "graycycles.cli")

MIN_REPS = 3
SETUPS_PER_REP = 5
CALIBRATION_LOOPS = 1_000_000


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its stdout must be."""

    argv: tuple[str, ...]
    sha256: str  # stdout digest pinned from the seed commit
    exit_code: int = 0
    stdin: str | None = None  # name of a generated input file
    check: Callable[[bytes], str | None] | None = None  # independent oracle

    def __str__(self) -> str:
        text = " ".join(self.argv)
        return f"{text} < {self.stdin}" if self.stdin else text


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    setup: Command  # the same subcommand on a trivial instance
    gated: bool = True  # listed in BENCHMARK.json, so regressions are rejected


def _expect_count(m: int, n: int, k: int) -> Callable[[bytes], str | None]:
    def check(out: bytes) -> str | None:
        want = oracles.count_fixed_weight(m, n, k)
        return None if out == f"{want}\n".encode() else f"count is not {want}"

    return check


def _expect_cycle(m: int, n: int, k: int, s: int) -> Callable[[bytes], str | None]:
    def check(out: bytes) -> str | None:
        lines = out.decode("ascii", "replace").splitlines()
        if len(lines) != 1:
            return f"compressed cycle spans {len(lines)} lines"
        try:
            words = oracles.decode_compressed(lines[0], n, s)
        except ValueError as exc:
            return str(exc)
        return oracles.check_cycle(words, m, n, k, s)

    return check


def _expect_line(prefix: bytes) -> Callable[[bytes], str | None]:
    def check(out: bytes) -> str | None:
        return None if out.startswith(prefix) else f"stdout does not start with {prefix!r}"

    return check


OK = "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22"  # b"ok\n"
GRAY_3_4_5 = "02ca9c66dc88ed8384f6f7015c7692540fd31fe5ee3ee17660098143158ac45d"
GRAY_3_11_11 = "170a67cbd14afe7fc5c5a3e57bfb6f4798dbfcd31de26053eafe7d2aeb44355c"
GRAY_3_12_12 = "542f29b9525179e9f0040109b3cce8b3c555c69f73ba722165fc00fd8c00c480"
GRAY_3_13_13 = "220e4af8895fb0f2733ddfb30c4e84de630f800da262b8a611e19387fbc1f75a"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gray",
            "the write side: Gray generation, word formatting and printing, "
            "on both the streaming and the list path",
            (
                Command(("gray", "3", "12", "12", "--stream"), GRAY_3_12_12),
                Command(("gray", "3", "11", "11"), GRAY_3_11_11),
            ),
            Command(("gray", "3", "4", "5"), GRAY_3_4_5),
        ),
        Workload(
            "ocycle",
            "the memory-heavy path: enumeration, transition digraph, Euler "
            "tour and the re-verifying compression, one line of output",
            (
                Command(
                    ("ocycle", "fixed", "3", "12", "12", "5", "--compressed"),
                    "e7de658a8e2f887f08f7c6c48d8ec8274fc2ab84dcd8d19ceb436f290a3d9cac",
                    check=_expect_cycle(3, 12, 12, 5),
                ),
            ),
            Command(
                ("ocycle", "fixed", "2", "4", "2", "1", "--compressed"),
                "3d85e7469280139a6e010fed64255ff759761cbc22e6500c44e859638054ecf7",
            ),
        ),
        Workload(
            "verify",
            "the read side: parsing and both verifiers, plus a list with a "
            "word missing that a verifier must reject",
            (
                Command(("verify", "gray", "3", "13", "13"), OK,
                        stdin="gray_3_13_13", check=_expect_line(b"ok\n")),
                Command(
                    ("verify", "gray", "3", "13", "13"),
                    "62031f04083fdbb1b026e7775e7ff1818daf92a829d86203462416be5297c937",
                    exit_code=1,
                    stdin="gray_3_13_13_cut",
                    check=_expect_line(b"violation at index -1:"),
                ),
                Command(("verify", "ocycle", "13", "5"), OK,
                        stdin="cycle_3_13_13_5", check=_expect_line(b"ok\n")),
            ),
            Command(("verify", "gray", "3", "4", "5"), OK, stdin="gray_3_4_5"),
            # Left out of BENCHMARK.json so that the two gated workloads fit
            # longer runs in the time the whole benchmark may take; run it by
            # hand or through --workload all.
            gated=False,
        ),
        Workload(
            "count",
            "the counting oracle at large n, which no other workload stresses",
            (
                Command(
                    ("count", "10", "800", "3600"),
                    "ed7822dcb37e4ab96d2d5caf4ecaa690fc6e9de67bd52e439b138870e393b425",
                    check=_expect_count(10, 800, 3600),
                ),
            ),
            Command(
                ("count", "3", "4", "5"),
                "e6c21e8d260fe71882debdb339d2402a2ca7648529bc2303f48649bce0380017",
                check=_expect_count(3, 4, 5),
            ),
            # Its run-to-run spread of wall_s over ten seeds (18-40% on a
            # 2-vCPU VM) reaches the 0.25 ceiling on bounds, so it is run by
            # hand or through --workload all, not gated.
            gated=False,
        ),
    )
}

# The traced pass also runs these, so that every layer is entered at least
# once on every workload: the four set-up instances plus the streaming path.
PROBE = tuple(w.setup for w in WORKLOADS.values()) + (
    Command(("gray", "3", "4", "5", "--stream"), GRAY_3_4_5),
)


def _lines(words: list[str]) -> bytes:
    return "".join(w + "\n" for w in words).encode("ascii")


def make_inputs(seed: int, names: set[str]) -> None:
    """Write the named stdin files under INPUTS; the seed fixes their content."""
    rng = random.Random(seed)
    cut, rotate = rng.random(), rng.random()
    gray13: list[str] = []
    if names & {"gray_3_13_13", "gray_3_13_13_cut", "cycle_3_13_13_5"}:
        gray13 = oracles.gray_order(3, 13, 13)
        if hashlib.sha256(_lines(gray13)).hexdigest() != GRAY_3_13_13:
            raise RuntimeError("the harness's Gray order disagrees with the pinned digest")
    makers = {
        "gray_3_4_5": lambda: _lines(oracles.gray_order(3, 4, 5)),
        "gray_3_13_13": lambda: _lines(gray13),
        "gray_3_13_13_cut": lambda: _lines(
            gray13[: int(cut * len(gray13))] + gray13[int(cut * len(gray13)) + 1:]
        ),
        "cycle_3_13_13_5": lambda: _lines(
            oracles.overlap_cycle(gray13, 5, int(rotate * len(gray13)))
        ),
    }
    INPUTS.mkdir(parents=True, exist_ok=True)
    for name in sorted(names):
        (INPUTS / f"{name}.txt").write_bytes(makers[name]())


@dataclass
class Judge:
    """Decides whether a command's result is correct; keeps every failure."""

    failures: list[dict] = field(default_factory=list)
    attempted: int = 0
    _checked: dict = field(default_factory=dict)  # (command, digest) -> oracle verdict

    def __call__(self, command: Command, exit_code, sha256: str, stdout: bytes,
                 timed_out: bool = False) -> str | None:
        self.attempted += 1
        reason = None
        if timed_out:
            reason = "timed out"
        elif exit_code != command.exit_code:
            reason = f"exit code {exit_code}, expected {command.exit_code}"
        elif sha256 != command.sha256:
            reason = f"stdout sha256 {sha256[:16]}.. is not the pinned {command.sha256[:16]}.."
        if command.check and not timed_out:
            key = (command, sha256)
            if key not in self._checked:
                self._checked[key] = command.check(stdout)
            reason = reason or self._checked[key]
        if reason:
            self.failures.append({"command": str(command), "reason": reason})
        return reason


def run_command(command: Command, judge: Judge, spawn: Spawner) -> Outcome:
    stdin_path = INPUTS / f"{command.stdin}.txt" if command.stdin else None
    stdout_path = OUT / "stdout.bin" if command.check else None
    out = spawn(CLI + command.argv, stdin_path, stdout_path=stdout_path)
    stdout = stdout_path.read_bytes() if stdout_path else b""
    judge(command, out.exit_code, out.sha256, stdout, out.timed_out)
    return out


def calibrate() -> float:
    """Time a fixed pure-Python loop: a marker of how fast the machine is now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - start


def run_rep(workload: Workload, judge: Judge, spawn: Spawner) -> dict:
    rep = {"calibration_s": calibrate()}
    rep["setup_s"] = [run_command(workload.setup, judge, spawn).wall
                      for _ in range(SETUPS_PER_REP)]
    outs = [run_command(c, judge, spawn) for c in workload.commands]
    rep.update(
        wall_s=sum(o.wall for o in outs),
        cpu_s=sum(o.cpu for o in outs),
        peak_rss_mib=max(o.rss_mib for o in outs),
        first_byte_s=outs[0].wall if outs[0].first_byte is None else outs[0].first_byte,
        commands=[{"command": str(c), **o._asdict()}
                  for c, o in zip(workload.commands, outs)],
        timed_out=any(o.timed_out for o in outs),
    )
    return rep


UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "first_byte_s": "s", "setup_s": "s"}
# Printed and recorded, but left out of the result line and BENCHMARK.json:
# on gray first_byte_s is interpreter start-up, which setup_s already covers,
# and its run-to-run spread on a 2-vCPU VM reaches the 0.25 ceiling on
# bounds; on the other workloads it is the first command's wall time.
UNGATED = {"first_byte_s"}


def end_to_end(reps: list[dict]) -> dict[str, float]:
    metrics = {name: statistics.median(r[name] for r in reps)
               for name in ("wall_s", "cpu_s", "peak_rss_mib", "first_byte_s")}
    metrics["setup_s"] = statistics.median(s for r in reps for s in r["setup_s"])
    return {name: metrics[name] for name in UNITS}


def measure(workloads: list[Workload], seconds: float, judge: Judge,
            spawn: Spawner) -> dict[str, list[dict]]:
    """Interleave reps of the workloads until the time budget is spent."""
    for w in workloads:  # fill bytecode and page caches before timing
        run_command(w.setup, judge, spawn)
    reps: dict[str, list[dict]] = {w.name: [] for w in workloads}
    budget = seconds * len(workloads)
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for w in workloads:
            reps[w.name].append(run_rep(w, judge, spawn))
        rounds += 1
        now = time.perf_counter()
        if any(r[-1]["timed_out"] for r in reps.values()):
            break
        if rounds >= MIN_REPS and now - start + (now - round_start) > budget:
            break
    return reps


def traced(workload: Workload, seed: int, judge: Judge,
           spawn: Spawner) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: an untraced rep, then layers.py's timed and memory passes."""
    untraced = sum(run_command(c, judge, spawn).wall for c in workload.commands)
    results = {}
    for mode in ("time", "alloc"):
        path = OUT / f"trace-{workload.name}-seed{seed}-{mode}.json"
        path.unlink(missing_ok=True)
        out = spawn((sys.executable, str(HERE / "layers.py"), "--workload", workload.name,
                     "--seed", str(seed), "--mode", mode, "--out", str(path)),
                    timeout=2 * COMMAND_TIMEOUT)
        if out.exit_code != 0 or not path.is_file():
            judge.attempted += 1
            judge.failures.append({"command": f"layers.py --mode {mode}",
                                   "reason": f"exit code {out.exit_code}: {out.stderr[-2000:]}"})
            continue
        result = json.loads(path.read_text())
        judge.attempted += result["attempted"]
        judge.failures.extend(result["failures"])
        results.update(result["metrics"])
    main_s = results.pop("cli.main.workload_s", (0.0, "s"))[0]
    results["trace.overhead_ratio"] = (main_s / untraced, "ratio")
    return results


def loadavg() -> list[str] | None:
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment() -> dict:
    """Python version, commit, source digest and cores; the load is added by the caller."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "graycycles").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "graycycles" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'graycycles'} is missing", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    spawn = Spawner()  # first, while this process is still small
    try:
        env = environment()
        env["loadavg_start"] = loadavg()
        workloads = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
        make_inputs(args.seed, {c.stdin for w in workloads
                                for c in (*w.commands, w.setup, *PROBE) if c.stdin})
        judge = Judge()
        metrics: dict[tuple[str, str], tuple[float, str]] = {}
        record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                        "trace": args.trace}
        if args.trace:
            for w in workloads:
                for name, value in traced(w, args.seed, judge, spawn).items():
                    metrics[name, w.name] = value
        else:
            reps = measure(workloads, args.seconds, judge, spawn)
            record["reps"] = reps
            for w in workloads:
                for name, value in end_to_end(reps[w.name]).items():
                    metrics[name, w.name] = (value, UNITS[name])
    finally:
        spawn.close()

    env["loadavg_end"] = loadavg()
    record.update(environment=env, failures=judge.failures, attempted=judge.attempted,
                  metrics={f"{w}.{n}": v for (n, w), v in metrics.items()})
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    report(workloads, record, metrics, judge)
    single = len(workloads) == 1
    print(json.dumps({
        "correct": not judge.failures,
        "attempted": judge.attempted,
        "failed": len(judge.failures),
        "metrics": {(n if single else f"{w}.{n}"): {"value": v, "unit": u}
                    for (n, w), (v, u) in metrics.items() if n not in UNGATED},
    }))
    return 0


def report(workloads, record, metrics, judge) -> None:
    env = record["environment"]
    print(f"python {env['python']}  commit {env['commit']}  src {env['src_sha256'][:12]}  "
          f"nproc {env['nproc']}  loadavg {env['loadavg_start']} -> {env['loadavg_end']}")
    for w in workloads:
        reps = record.get("reps", {}).get(w.name)
        if reps:
            cal = statistics.median(r["calibration_s"] for r in reps)
            print(f"{w.name}: {len(reps)} reps, {len(reps) * SETUPS_PER_REP} set-up samples, "
                  f"calibration median {cal:.4f} s")
        for (name, wname), (value, unit) in metrics.items():
            if wname == w.name:
                note = "  (not gated)" if name in UNGATED else ""
                print(f"  {w.name:7s} {name:46s} {value:14.6f} {unit}{note}")
    ratio = len(judge.failures) / max(1, judge.attempted)
    print(f"failed_ratio {ratio:.4f} ({len(judge.failures)}/{judge.attempted} commands)")
    for f in judge.failures[:20]:
        print(f"  FAILED {f['command']}: {f['reason']}")


if __name__ == "__main__":
    sys.exit(main())
