"""Tests of the benchmark harness itself: its failure accounting and its oracles.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import time

import pytest

import layers
import oracles
import run
import spawn

sys.path.insert(0, str(run.SRC))
from graycycles import count_fixed_weight, verify_ocycle  # noqa: E402
from graycycles.words import parse_word  # noqa: E402

OK_CMD = run.Command(("fake",), run.OK)


def fake(code: str, timeout: float = 20.0) -> spawn.Outcome:
    return spawn.execute((sys.executable, "-c", code), None, timeout=timeout)


def judged(command: run.Command, out: spawn.Outcome,
           stdout: bytes = b"") -> tuple[str | None, run.Judge]:
    judge = run.Judge()
    return judge(command, out.exit_code, out.sha256, stdout, out.timed_out), judge


def test_matching_output_passes():
    out = fake("print('ok')")
    reason, judge = judged(OK_CMD, out)
    assert reason is None and judge.failures == [] and judge.attempted == 1
    assert out.first_byte is not None and 0 < out.first_byte <= out.wall


def test_wrong_digest_counts_as_failed():
    reason, judge = judged(OK_CMD, fake("print('okay')"))
    assert "sha256" in reason
    assert len(judge.failures) == 1 and judge.attempted == 1


def test_unexpected_exit_code_counts_as_failed():
    reason, judge = judged(OK_CMD, fake("import sys; print('ok'); sys.exit(3)"))
    assert reason == "exit code 3, expected 0"
    assert len(judge.failures) == 1


def test_timeout_counts_as_failed_and_kills_the_child():
    start = time.perf_counter()
    out = fake("import time; print('ok', flush=True); time.sleep(60)", timeout=0.5)
    assert time.perf_counter() - start < 10
    assert out.timed_out and out.exit_code is None
    reason, judge = judged(OK_CMD, out)
    assert reason == "timed out" and len(judge.failures) == 1


def test_corrupted_verify_input_fails_if_the_cli_says_ok():
    cut = next(c for c in run.WORKLOADS["verify"].commands if c.exit_code == 1)
    ok = hashlib.sha256(b"ok\n").hexdigest()
    assert cut.check(b"ok\n") is not None
    said_ok = spawn.Outcome(0.1, 0.1, 1.0, 0.1, 1, ok, "", False)
    reason, _ = judged(cut, said_ok, b"ok\n")
    assert reason is not None
    # The oracle rejects "ok" even against a digest re-pinned to it.
    reason, _ = judged(dataclasses.replace(cut, sha256=ok), said_ok, b"ok\n")
    assert reason == "stdout does not start with b'violation at index -1:'"


def test_counting_oracle_matches_the_library_on_a_grid():
    for m in range(1, 6):
        for n in range(0, 8):
            for k in range(-1, (m - 1) * n + 2):
                assert oracles.count_fixed_weight(m, n, k) == count_fixed_weight(m, n, k), (m, n, k)


@pytest.mark.parametrize("params, digest", [
    ((3, 4, 5), run.GRAY_3_4_5),
    ((3, 11, 11), run.GRAY_3_11_11),
    ((3, 12, 12), run.GRAY_3_12_12),
    ((3, 13, 13), run.GRAY_3_13_13),
])
def test_independent_gray_order_reproduces_the_pinned_outputs(params, digest):
    assert hashlib.sha256(run._lines(oracles.gray_order(*params))).hexdigest() == digest


def test_overlap_cycle_and_its_checker():
    words = oracles.gray_order(3, 6, 6)
    cycle = oracles.overlap_cycle(words, 2, rotate=5)
    assert oracles.check_cycle(cycle, 3, 6, 6, 2) is None
    assert verify_ocycle([parse_word(w) for w in cycle], [parse_word(w) for w in words], 2).ok
    assert oracles.check_cycle(cycle[1:], 3, 6, 6, 2) is not None
    assert oracles.check_cycle(cycle[1:] + cycle[:1], 3, 6, 6, 2) is None
    swapped = cycle[:]
    swapped[3], swapped[4] = swapped[4], swapped[3]
    assert oracles.check_cycle(swapped, 3, 6, 6, 2) is not None


def test_compressed_cycle_check_rejects_a_changed_digit():
    check = run._expect_cycle(3, 6, 6, 2)
    text = "".join(w[:4] for w in oracles.overlap_cycle(oracles.gray_order(3, 6, 6), 2))
    assert check(f"{text}\n".encode()) is None
    bad = ("1" if text[7] != "1" else "0").join((text[:7], text[8:]))
    assert check(f"{bad}\n".encode()) is not None
    assert check(f"{text[:-4]}\n".encode()) is not None


def test_traced_spans_nest_and_the_wrappers_are_removed():
    import graycycles.cli
    import graycycles.ocycles

    original = graycycles.ocycles.build_transition_digraph
    log = layers.SpanLog()
    with layers.patched(log.wrap):
        log.set_tag("probe")
        code, digest, _ = layers.call_main(run.WORKLOADS["ocycle"].setup)
    assert graycycles.ocycles.build_transition_digraph is original
    assert code == 0 and digest == run.WORKLOADS["ocycle"].setup.sha256
    names = [log.keys[i] for i in log.name]
    build = names.index("ocycles.build_transition_digraph")
    assert names[log.parent[build]] == "ocycles.construct_ocycle"
    metrics = log.metrics("probe")
    assert metrics["ocycles.digraph.edges"] == 6
    assert metrics["cli.main.s"] >= metrics["cli.self_s"] > 0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, unit in run.UNITS.items() if name not in run.UNGATED}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in run.WORKLOADS.values() if w.gated}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "count",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
