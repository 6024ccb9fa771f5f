"""Run perfbench on two checkouts in alternating pairs and summarise each metric.

Usage:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload certificates \
        --seeds 7,11 --pairs 10 --seconds 25

PARENT and CHANGE are roots of two checkouts. Each pair runs each
checkout's own ``perfbench/run.py --trace 0`` once, in a fresh process,
with the same workload, seed and run length. The side that runs first
alternates from pair to pair, and the seeds are taken in turn. The
metrics are the end-to-end ones that CHANGE's ``BENCHMARK.json`` names,
plus the share of operations that failed.

For each metric it prints each side's lower quartile, median and upper
quartile, the ratio of the medians, and the number of pairs the change
won (a tie counts for neither side). A metric reads as a gain when the
change won at least nine tenths of the pairs and its median is better
than the parent's by more than the distance between the parent's
quartiles. It reads as beyond its bound when the change's median is worse
than the parent's by more than the metric's ``BENCHMARK.json`` bound, a
share of the parent's median; the failed share has bound 0, so any rise
is beyond it.

Each pair line and the summary also give each side's ``attempted`` op
count (the summary its median): perfbench keeps every op's result until
its gate, so peak RSS rises with the op count, and a faster side holds
more.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Summary:
    name: str
    parent: tuple[float, float, float]  # lower quartile, median, upper quartile
    change: tuple[float, float, float]
    wins: int
    pairs: int
    gain: bool
    beyond_bound: bool | None  # None: the metric has no bound


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> list[Summary]:
    """Per metric in ``better`` ("higher" or "lower"), the two sides' quartiles over
    the (parent, change) metric dicts of ``pairs``, the pairs the change won, and
    whether its median is worse than the parent's by more than the metric's share
    in ``bounds``."""
    bounds = bounds or {}
    out = []
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p, c = quartiles(parent), quartiles(change)
        gain = wins >= 0.9 * len(pairs) and sign * (c[1] - p[1]) > p[2] - p[0]
        bound = bounds.get(name)
        beyond = None if bound is None else sign * (p[1] - c[1]) > bound * abs(p[1])
        out.append(Summary(name, p, c, wins, len(pairs), gain, beyond))
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run of ``checkout``: its end-to-end metrics, failed
    share and attempted op count."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    if not doc["correct"]:
        raise SystemExit(f"{checkout}: perfbench checks failed on {workload} seed {seed}")
    metrics = {name: m["value"] for name, m in doc["metrics"].items()}
    metrics["failed_share"] = doc["failed"] / doc["attempted"]
    metrics["attempted"] = doc["attempted"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="7", help="comma-separated, taken in turn")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better["failed_share"] = "lower"
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds["failed_share"] = 0.0

    pairs = []
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run_once(getattr(args, side), args.workload, seed, args.seconds)
                for side in order}
        pairs.append((runs["parent"], runs["change"]))
        for side in order:
            shown = " ".join(f"{name}={runs[side][name]:.6g}" for name in [*better, "attempted"])
            print(f"pair {i + 1} seed {seed} {side}: {shown}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, {args.seconds:g} s runs, seeds {args.seeds}")
    attempted = [statistics.median(pair[i]["attempted"] for pair in pairs) for i in (0, 1)]
    print("median ops attempted: parent {:g}, change {:g}".format(*attempted))
    print(f"{'metric':<18} {'parent q1 / median / q3':>34} {'change q1 / median / q3':>34}"
          f" {'ratio':>7} {'wins':>6}  gain  beyond bound")
    for s in summarize(pairs, better, bounds):
        ratio = s.change[1] / s.parent[1] if s.parent[1] else float("nan")
        sides = ["{:.4g} / {:.4g} / {:.4g}".format(*q) for q in (s.parent, s.change)]
        beyond = {None: "-", True: "YES", False: "no"}[s.beyond_bound]
        print(f"{s.name:<18} {sides[0]:>34} {sides[1]:>34} {ratio:>7.3f}"
              f" {s.wins:>3}/{s.pairs:<2}  {'yes' if s.gain else 'no':<4}  {beyond}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
