"""The summary rule of ``scripts/bench_pairs.py``; no benchmark is run here."""

import importlib.util
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
)
bench_pairs = sys.modules["bench_pairs"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(parent, change, name="throughput_per_s"):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def test_quartiles_and_wins_of_a_clear_gain():
    parent = [100, 90, 104, 98, 95, 101, 99, 97, 102, 96]
    change = [x * 1.2 for x in parent]
    (s,) = bench_pairs.summarize(_pairs(parent, change), {"throughput_per_s": "higher"})
    assert s.parent == (96.25, 98.5, 100.75)
    assert s.change[1] == 98.5 * 1.2
    assert (s.wins, s.pairs, s.gain) == (10, 10, True)


def test_lower_is_better_and_ties_count_for_neither():
    parent = [5.0, 5.0, 6.0, 6.0, 5.0, 6.0, 5.0, 6.0, 5.0, 6.0]
    change = [4.0, 5.0, 5.0, 5.0, 4.0, 5.0, 4.0, 5.0, 4.0, 5.0]
    (s,) = bench_pairs.summarize(_pairs(parent, change, "call_ms_p50"), {"call_ms_p50": "lower"})
    # 9 won and 1 tied, but the medians differ by no more than the parent's quartiles
    assert (s.wins, s.gain) == (9, False)


def test_eight_wins_in_ten_is_no_gain():
    parent = [100.0] * 10
    change = [150.0] * 8 + [90.0] * 2
    (s,) = bench_pairs.summarize(_pairs(parent, change), {"throughput_per_s": "higher"})
    assert (s.wins, s.gain) == (8, False)


def test_one_pair_has_degenerate_quartiles():
    (s,) = bench_pairs.summarize(_pairs([10.0], [12.0]), {"throughput_per_s": "higher"})
    assert s.parent == (10.0, 10.0, 10.0) and s.change == (12.0, 12.0, 12.0)
    assert (s.wins, s.pairs, s.gain) == (1, 1, True)
