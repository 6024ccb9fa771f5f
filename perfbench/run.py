"""welfareax benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload suites --seed 1 --seconds 10 --trace 0

Workloads: suites, search-shrink, large-population, certificates (see
BENCHMARK.json for why each was chosen). The program is imported from
``src/`` of the checkout this file sits in. The run

1. times ``setup_s``: fresh processes that import welfareax and build the
   workload's inputs, median of SETUP_REPEATS;
2. runs the workload's operations in a closed loop for ``--seconds``;
3. checks every result against known or independently computed answers;
4. prints the workload's own named figures, then one JSON line.

With ``--trace 0`` the JSON metrics are the end-to-end ones. With
``--trace 1`` the run measures the same operations twice, first
untraced for half of ``--seconds`` and then traced, and reports the
per-layer metrics plus the tracing overhead between the two; the spans
are written to ``.perfbench/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5


def _import_program():
    """Put this checkout's sources first on the path and import them."""
    if not (SRC / "welfareax" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no welfareax sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import welfareax

    if Path(welfareax.__file__).resolve().parent != SRC / "welfareax":
        raise SystemExit("perfbench: imported welfareax from outside this checkout")


def build(workload: str, seed: int):
    from workloads import WORKLOADS

    workdir = OUT / f"work-{workload}-{os.getpid()}"
    return WORKLOADS[workload](seed, workdir)


# The machine this benchmark was written on is shared with other tenants,
# and its speed moves by up to a factor of two over seconds to minutes,
# which no amount of work in one run averages out. Every end-to-end time
# is therefore scaled to a nominal machine speed: the loop times a fixed
# reference kernel that uses only the standard library (never welfareax)
# every REFERENCE_EVERY_S, and each operation's time is divided by its
# window's slowdown, the mean of the reference times just before and just
# after it over REFERENCE_NOMINAL_S. The raw figures are printed above the
# JSON line.
REFERENCE_NOMINAL_S = 0.0066
REFERENCE_EVERY_S = 0.25


def reference_seconds() -> float:
    """One timed pass of the reference kernel: Fraction arithmetic and a keyed sort."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i % 97 + 1, i % 13 + 2)
        if total > 50:
            total -= 50
    sorted(range(3000), key=lambda x: -x)
    return time.perf_counter() - t0


@dataclass
class Run:
    """Records of one closed-loop measurement, with the reference times taken
    during it; ``window[i]`` is the index of the last reference before record i."""

    records: list
    wall: float
    references: list
    window: list

    def slowdowns(self) -> list[float]:
        """Per record: its window's mean reference time over the nominal one."""
        refs = self.references
        return [
            (refs[k] + refs[min(k + 1, len(refs) - 1)]) / 2 / REFERENCE_NOMINAL_S
            for k in self.window
        ]


def measure(w, seconds: float | None = None, max_ops: int | None = None, tracer=None) -> Run:
    """Cycle through the workload's ops until ``max_ops`` ran, or until
    ``seconds`` passed at the end of a whole cycle, so that every run
    measures the op list in the same proportions."""
    from workloads import Record

    records = []
    window = []
    references = [reference_seconds()]
    ops = w.ops
    start = last_reference = time.perf_counter()
    i = 0
    while True:
        if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            references.append(reference_seconds())
            last_reference = time.perf_counter()
        if max_ops is not None and i >= max_ops:
            break
        if (seconds is not None and i and i % len(ops) == 0
                and time.perf_counter() - start >= seconds):
            break
        k, cycle = i % len(ops), i // len(ops)
        fn = ops[k].fn
        t0 = time.perf_counter()
        try:
            result = fn(cycle) if tracer is None else tracer.run_op(i, fn, cycle)
            ok = True
        except Exception as exc:  # a failed operation is counted, and the loop goes on
            result, ok = exc.with_traceback(None), False
        seconds_taken = time.perf_counter() - t0
        records.append(Record(k, cycle, ok, w.keep(result) if ok else result, seconds_taken))
        window.append(len(references) - 1)
        i += 1
    references.append(reference_seconds())
    return Run(records, time.perf_counter() - start, references, window)


def end_to_end(w, run: Run, slowdowns=None) -> dict[str, float]:
    """Throughput and call latencies, each op's time divided by its slowdown
    (1 when none is given). Throughput is the median over cycles, so that a
    burst of load from elsewhere on the machine moves one cycle and not the
    result."""
    from workloads import quantile

    slowdowns = slowdowns or [1.0] * len(run.records)
    units: dict[int, int] = {}
    seconds: dict[int, float] = {}
    calls = []
    for r, slowdown in zip(run.records, slowdowns):
        units[r.cycle] = units.get(r.cycle, 0) + (w.ops[r.op].units if r.ok else 0)
        seconds[r.cycle] = seconds.get(r.cycle, 0.0) + r.seconds / slowdown
        if r.ok and w.ops[r.op].primary:
            calls.append(r.seconds / slowdown * 1e3)
    return {
        "throughput_per_s": statistics.median(units[c] / seconds[c] for c in units),
        "call_ms_p50": statistics.median(calls),
        "call_ms_p90": quantile(calls, 90),
    }


def setup_seconds(workload: str, seed: int) -> tuple[float, list[float]]:
    """Median wall time of fresh processes that import welfareax and build
    the inputs, and the reference times taken between them."""
    times, references = [], []
    for _ in range(SETUP_REPEATS):
        references.append(reference_seconds())
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            check=True,
            cwd=ROOT,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times), references


UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_share", "_ratio", "_rate", "_per_candidate")):
        return "share"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def traced_metrics(w, seconds: float):
    """Untraced then traced run of the same ops; per-layer metrics and both runs."""
    from spans import Tracer, per_layer_names

    plain = measure(w, seconds=seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(w, max_ops=len(plain.records), tracer=tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{w.name}.npz")
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = (traced.wall / plain.wall - 1) * 100
    failed = sum(not r.ok for r in traced.records)
    metrics["bench.error_rate"] = failed / len(traced.records)
    return {name: metrics[name] for name in per_layer_names()}, plain, traced


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    if args.setup_only:
        w = build(args.workload, args.seed)
        shutil.rmtree(w.workdir, ignore_errors=True)
        return 0

    setup_s, references = (None, []) if args.trace else setup_seconds(args.workload, args.seed)
    w = build(args.workload, args.seed)
    try:
        if args.trace:
            metrics, plain, traced = traced_metrics(w, args.seconds)
            runs = (plain, traced)
        else:
            run = measure(w, seconds=args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            raw = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, **end_to_end(w, run)}
            setup_slowdown = statistics.median(references) / REFERENCE_NOMINAL_S
            metrics = {
                "setup_s": setup_s / setup_slowdown,
                "peak_rss_mb": peak_rss_mb,
                **end_to_end(w, run, run.slowdowns()),
            }
            runs = (run,)
        records = [r for run in runs for r in run.records]
        failures = w.verify(records)
    finally:
        shutil.rmtree(w.workdir, ignore_errors=True)

    attempted = len(records)
    failed = sum(not r.ok for r in records)
    print(f"machine: python {platform.python_version()}, nproc {os.cpu_count()}, {platform.machine()}")
    print(f"workload {w.name} seed {args.seed}: {attempted} operations, {failed} failed")
    named = {"error_rate": (failed / attempted, "share")}
    if not args.trace:
        slowdowns = run.slowdowns()
        print(f"reference kernel: {len(run.references)} passes, slowdown from "
              f"{min(slowdowns):.3f} to {max(slowdowns):.3f}, median {statistics.median(slowdowns):.3f}; "
              f"raw figures:")
        named.update((name, (value, UNITS[name])) for name, value in raw.items())
    named.update(w.summary(runs[0].records, runs[0].wall))
    for name, (value, unit) in named.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in failures[:20]:
        print(f"CHECK FAILED: {problem}")
    if len(failures) > 20:
        print(f"CHECK FAILED: ... and {len(failures) - 20} more")

    units = UNITS if not args.trace else None
    out = {
        name: {"value": value, "unit": units[name] if units else per_layer_unit(name)}
        for name, value in metrics.items()
    }
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    _import_program()
    raise SystemExit(main())
