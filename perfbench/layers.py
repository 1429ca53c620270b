"""Per-layer pass of the benchmark: run the CLI in process and time each layer.

    python3 perfbench/layers.py --workload gray --seed 1 --mode time --out t.json

``run.py --trace 1`` starts this twice per workload, in fresh processes:

* ``--mode time`` wraps the public functions of ``words``, ``graycode``,
  ``ocycles`` and ``cli`` from outside (the names each module and ``cli``
  bind are replaced for the duration of the pass), calls ``cli.main`` on the
  workload's commands with stdout going to a byte sink, and records one
  span per call: name, start, end, parent span, and the workload it served.
  A generator's span lasts from the call to its exhaustion; its busy time
  is the time spent inside ``next``.  Spans stay in memory and are written
  to ``perfbench/out/spans-<workload>-seed<seed>.tsv.gz`` at the end.
* ``--mode alloc`` runs the same commands under ``tracemalloc`` and records
  the peak traced allocation of the list-building functions.  It is not
  timed.

Both passes also run ``run.PROBE`` (tagged ``probe``), so every layer is
entered at least once on every workload.  Quantities per layer: ``.s`` is
busy time summed over calls, ``.calls``, ``.words`` is words produced or
consumed, ``.peak_alloc_mib`` the largest peak over calls.  ``cli.self_s``
is ``cli.main`` time not covered by its child spans, and
``ocycles.digraph.*`` describe the largest transition digraph built.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import io
import json
import sys
import traceback
import tracemalloc
from array import array
from contextlib import contextmanager
from time import perf_counter

import run

LAYERS = {
    "cli.main": ("s",),
    "graycode.gray_stream": ("s", "calls", "words", "peak_alloc_mib"),
    "graycode.gray_list": ("s", "calls", "words", "peak_alloc_mib"),
    "graycode.verify_gray": ("s", "calls", "words", "peak_alloc_mib"),
    "words.format_word": ("s", "calls"),
    "words.parse_word": ("s", "calls"),
    "words.enumerate_fixed_weight": ("s", "calls", "words", "peak_alloc_mib"),
    "words.count_fixed_weight": ("s", "calls"),
    "ocycles.build_transition_digraph": ("s", "calls", "words", "peak_alloc_mib"),
    "ocycles.is_balanced": ("s",),
    "ocycles.weak_components": ("s",),
    "ocycles.euler_tour": ("s",),
    "ocycles.construct_ocycle": ("s", "calls", "words", "peak_alloc_mib"),
    "ocycles.compress_cycle": ("s",),
    "ocycles.verify_ocycle": ("s",),
}
GENERATORS = {"graycode.gray_stream"}
DIGRAPH = "ocycles.build_transition_digraph"
# Words produced or consumed by one call, from its arguments and result.
WORDS = {
    "graycode.gray_list": lambda args, result: len(result),
    "graycode.verify_gray": lambda args, result: len(args[0]),
    "words.enumerate_fixed_weight": lambda args, result: len(result),
    "ocycles.build_transition_digraph": lambda args, result: len(args[0]),
    "ocycles.construct_ocycle": lambda args, result: len(result.cycle),
}
UNITS = {"s": "s", "calls": "count", "words": "count", "peak_alloc_mib": "MiB"}
EXTRA = {
    "cli.self_s": "s",
    "ocycles.digraph.vertices": "count",
    "ocycles.digraph.edges": "count",
    "ocycles.digraph.vertex_pairs": "count",
    "trace.overhead_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{key}.{q}": UNITS[q] for key, qs in LAYERS.items() for q in qs}
    units.update(EXTRA)
    return units


@contextmanager
def patched(wrap):
    """Replace every module binding of each traced function by wrap(key, fn)."""
    modules = {m: importlib.import_module(f"graycycles.{m}")
               for m in {key.split(".")[0] for key in LAYERS}}
    replace = {}
    for key in LAYERS:
        module, name = key.split(".")
        fn = getattr(modules[module], name, None)
        if fn is None:
            print(f"warning: {key} no longer exists; its metrics read 0", file=sys.stderr)
            continue
        replace[id(fn)] = (fn, wrap(key, fn))
    saved = []
    for module in (importlib.import_module("graycycles"), *modules.values()):
        for attr, value in list(vars(module).items()):
            hit = replace.get(id(value))
            if hit and hit[0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, hit[1])
    try:
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


class SpanLog:
    """Spans kept in flat arrays: one entry per traced call."""

    def __init__(self) -> None:
        self.keys: list[str] = []
        self.tags: list[str] = []
        self.tag = 0
        self.name = array("i")
        self.parent = array("i")
        self.workload = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy: dict[int, float] = {}  # generator spans only
        self.words: dict[int, int] = {}
        self.digraphs: list[tuple[int, int, int]] = []
        self.stack = [-1]

    def set_tag(self, tag: str) -> None:
        if tag not in self.tags:
            self.tags.append(tag)
        self.tag = self.tags.index(tag)

    def _open(self, nid: int) -> int:
        sid = len(self.end)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.workload.append(self.tag)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return sid

    def wrap(self, key: str, fn):
        nid = len(self.keys)
        self.keys.append(key)
        if key in GENERATORS:
            def traced_generator(*args, **kwargs):
                return self._drive(self._open(nid), fn(*args, **kwargs))
            return traced_generator

        count = WORDS.get(key)
        digraph = key == DIGRAPH
        stack, end, words, open_ = self.stack, self.end, self.words, self._open

        def traced(*args, **kwargs):
            sid = open_(nid)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if count is not None:
                words[sid] = count(args, result)
            if digraph:
                self.digraphs.append(
                    (len(result.vertices), result.edge_count(), len(result.edges)))
            return result

        return traced

    def _drive(self, sid: int, generator):
        busy, produced, stack = 0.0, 0, self.stack
        try:
            while True:
                stack.append(sid)
                t0 = perf_counter()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    busy += perf_counter() - t0
                    stack.pop()
                produced += 1
                yield item
        finally:
            self.end[sid] = perf_counter()
            self.busy[sid] = busy
            self.words[sid] = produced

    def span_busy(self, sid: int) -> float:
        return self.busy.get(sid, self.end[sid] - self.start[sid])

    def metrics(self, workload: str) -> dict[str, float]:
        out = {f"{key}.{q}": 0 for key, qs in LAYERS.items() for q in qs if q != "peak_alloc_mib"}
        child = [0.0] * len(self.end)
        main_id = self.keys.index("cli.main") if "cli.main" in self.keys else -1
        tag = self.tags.index(workload) if workload in self.tags else -1
        main_self = main_workload = 0.0
        for sid in range(len(self.end)):
            key = self.keys[self.name[sid]]
            busy = self.span_busy(sid)
            out[f"{key}.s"] += busy
            if f"{key}.calls" in out:
                out[f"{key}.calls"] += 1
            if f"{key}.words" in out:
                out[f"{key}.words"] += self.words.get(sid, 0)
            if self.parent[sid] >= 0:
                child[self.parent[sid]] += busy
        for sid in range(len(self.end)):
            if self.name[sid] == main_id:
                main_self += self.span_busy(sid) - child[sid]
                if self.workload[sid] == tag:
                    main_workload += self.span_busy(sid)
        out["cli.self_s"] = main_self
        out["cli.main.workload_s"] = main_workload
        vertices, edges, pairs = max(self.digraphs, key=lambda d: d[1], default=(0, 0, 0))
        out.update({"ocycles.digraph.vertices": vertices, "ocycles.digraph.edges": edges,
                    "ocycles.digraph.vertex_pairs": pairs})
        return out

    def write(self, path, origin: float) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tworkload\tstart_s\tend_s\tbusy_s\twords\n")
            for sid in range(len(self.end)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.keys[self.name[sid]]}\t"
                         f"{self.tags[self.workload[sid]]}\t{self.start[sid] - origin:.9f}\t"
                         f"{self.end[sid] - origin:.9f}\t{self.span_busy(sid):.9f}\t"
                         f"{self.words.get(sid, '')}\n")


class AllocLog:
    """Largest tracemalloc peak above the entry level, per traced function.

    Tracing runs only while a traced call is open, so untraced work runs at
    full speed.  Nested calls each reset the peak, so the enclosing frame
    folds in the peak seen so far before a child resets it and again when
    the child ends.  A generator's frame lasts from its first ``next`` to
    its exhaustion.
    """

    def __init__(self) -> None:
        self.frames: list[list[int]] = []  # [level at entry, peak so far]
        self.peak: dict[str, int] = {}

    def _enter(self) -> None:
        if not self.frames:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self.frames:
            self.frames[-1][1] = max(self.frames[-1][1], peak)
        tracemalloc.reset_peak()
        self.frames.append([current, current])

    def _exit(self, key: str) -> None:
        _, peak = tracemalloc.get_traced_memory()
        base, high = self.frames.pop()
        high = max(high, peak)
        self.peak[key] = max(self.peak.get(key, 0), high - base)
        if self.frames:
            self.frames[-1][1] = max(self.frames[-1][1], high)
            tracemalloc.reset_peak()
        else:
            tracemalloc.stop()

    def wrap(self, key: str, fn):
        if "peak_alloc_mib" not in LAYERS[key]:
            return fn
        if key in GENERATORS:
            def traced_generator(*args, **kwargs):
                return self._drive(key, fn(*args, **kwargs))
            return traced_generator

        def traced(*args, **kwargs):
            self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(key)

        return traced

    def _drive(self, key: str, generator):
        self._enter()
        try:
            yield from generator
        finally:
            self._exit(key)

    def metrics(self) -> dict[str, float]:
        return {f"{key}.peak_alloc_mib": self.peak.get(key, 0) / 2**20
                for key, qs in LAYERS.items() if "peak_alloc_mib" in qs}


class Sink(io.RawIOBase):
    """Byte sink for stdout: hashes what it receives, keeps it only if asked."""

    def __init__(self, keep: bool) -> None:
        self.digest = hashlib.sha256()
        self.chunks: list[bytes] | None = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.digest.update(data)
        if self.chunks is not None:
            self.chunks.append(bytes(data))
        return len(data)


def call_main(command: run.Command) -> tuple[int, str, bytes]:
    """Run cli.main on one command with stdout into a byte sink; return its result."""
    import graycycles.cli

    stdin = (run.INPUTS / f"{command.stdin}.txt").read_text() if command.stdin else ""
    sink = Sink(keep=command.check is not None)
    stdout = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    streams = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), stdout, io.StringIO()
    try:
        code = graycycles.cli.main(list(command.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # a crash fails this command; the pass goes on
        traceback.print_exc(file=streams[2])
        code = 1
    finally:
        sys.stdin, sys.stdout, sys.stderr = streams
        stdout.detach().flush()
    return code, sink.digest.hexdigest(), b"".join(sink.chunks or ())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(run.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("time", "alloc"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))

    workload = run.WORKLOADS[args.workload]
    commands = [(workload.name, c) for c in workload.commands] + [("probe", c) for c in run.PROBE]
    judge = run.Judge()
    log = SpanLog() if args.mode == "time" else AllocLog()
    origin = perf_counter()
    with patched(log.wrap):
        for tag, command in commands:
            gc.collect()
            if args.mode == "time":
                log.set_tag(tag)
            code, digest, stdout = call_main(command)
            judge(command, code, digest, stdout)
    if args.mode == "alloc":
        metrics = log.metrics()
    else:
        metrics = log.metrics(workload.name)
        log.write(run.OUT / f"spans-{workload.name}-seed{args.seed}.tsv.gz", origin)
    units = metric_units()
    with open(args.out, "w") as fh:
        json.dump({"attempted": judge.attempted, "failures": judge.failures,
                   "metrics": {k: (v, units.get(k, "s")) for k, v in metrics.items()}}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
