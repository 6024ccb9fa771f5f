"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the checkout root)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_program()

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _traced(name: str, seed: int, ops: int, tmp_path: Path):
    w = workloads.WORKLOADS[name](seed, tmp_path / name)
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run.measure(w, max_ops=ops, tracer=tracer)
    finally:
        tracer.uninstall()
    return w, tracer, result


def test_metric_names_match_benchmark_json():
    assert set(run.UNITS) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        assert run.UNITS[metric["name"]] == metric["unit"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert list(declared) == spans.per_layer_names()
    for name, unit in declared.items():
        assert run.per_layer_unit(name) == unit
    assert set(workloads.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_declared_metrics(trace):
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "certificates",
         "--seed", "3", "--seconds", "0.5", "--trace", trace],
        capture_output=True, text=True, check=True, cwd=run.ROOT,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    key = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_self_times_sum_to_traced_wall_time(tmp_path):
    for name, ops in (("suites", 22), ("certificates", 16)):
        _, tracer, _ = _traced(name, 5, ops, tmp_path)
        wall = tracer.wall_s()
        assert wall > 0
        assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=1e-9, abs=1e-9)


def test_tracer_restores_the_program(tmp_path):
    import welfareax.axioms
    import welfareax.profiles

    before = (welfareax.axioms.swo_compare, welfareax.profiles.Profile.sorted_blocks)
    _traced("suites", 5, 1, tmp_path)
    assert (welfareax.axioms.swo_compare, welfareax.profiles.Profile.sorted_blocks) == before


def test_fixed_seed_run_repeats_its_counts(tmp_path):
    def counts(sub: str):
        w, tracer, result = _traced("search-shrink", 11, 4, tmp_path / sub)
        assert not w.verify(result.records)
        return dict(tracer.calls), dict(tracer.counts), [r.ok for r in result.records]

    first = counts("a")
    assert first == counts("b")
    calls, extra, _ = first
    assert calls["search.find_counterexample"] == 4
    assert extra["search.candidates_checked"] > 0
