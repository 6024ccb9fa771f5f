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


def test_a_median_worse_by_more_than_the_bound_is_beyond_it():
    parent = [100.0] * 4
    better = {"peak_rss_mb": "lower", "throughput_per_s": "higher"}
    bounds = {"peak_rss_mb": 0.1, "throughput_per_s": 0.25}
    pairs = [({"peak_rss_mb": p, "throughput_per_s": p}, {"peak_rss_mb": c, "throughput_per_s": t})
             for p, c, t in zip(parent, [111.0, 112.0, 109.0, 111.0], [74.0, 80.0, 70.0, 74.0])]
    rss, throughput = bench_pairs.summarize(pairs, better, bounds)
    assert (rss.change[1], rss.beyond_bound) == (111.0, True)
    assert (throughput.change[1], throughput.beyond_bound) == (74.0, True)


def test_a_median_worse_by_no_more_than_the_bound_is_within_it():
    pairs = _pairs([100.0] * 3, [109.0, 110.0, 111.0], "peak_rss_mb")
    (s,) = bench_pairs.summarize(pairs, {"peak_rss_mb": "lower"}, {"peak_rss_mb": 0.1})
    assert (s.change[1], s.beyond_bound) == (110.0, False)
    (s,) = bench_pairs.summarize(_pairs([100.0], [76.0]), {"throughput_per_s": "higher"},
                                 {"throughput_per_s": 0.25})
    assert s.beyond_bound is False


def test_any_rise_in_the_failed_share_is_beyond_its_zero_bound():
    better, bounds = {"failed_share": "lower"}, {"failed_share": 0.0}
    pairs = _pairs([0.0] * 3, [0.0, 0.01, 0.01], "failed_share")
    (s,) = bench_pairs.summarize(pairs, better, bounds)
    assert s.beyond_bound is True
    (s,) = bench_pairs.summarize(_pairs([0.2125] * 3, [0.2125] * 3, "failed_share"), better, bounds)
    assert s.beyond_bound is False


def test_a_metric_without_a_bound_is_not_judged_against_one():
    (s,) = bench_pairs.summarize(_pairs([10.0], [1.0]), {"throughput_per_s": "higher"})
    assert s.beyond_bound is None
