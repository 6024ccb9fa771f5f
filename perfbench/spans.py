"""Span tracing around the public functions of each welfareax module.

The tracer rebinds each traced function in every ``welfareax`` module
namespace that holds it (``axioms`` imports ``swo_compare``, ``search``
imports ``validate_preconditions``, and so on), and patches the traced
methods on their classes, so calls between modules pass through a
wrapper. Each wrapper records a span: name, start, end, parent span and
the benchmark operation it ran under. Spans stay in memory and are
written out when the run ends. A layer's self time is its spans'
durations minus the part their child spans cover; since the program is
single-threaded, child spans nest and never overlap, so the covered part
is the sum of the children's durations.

Counts that need a function's result (tied verdicts, shrink candidates,
certificate bytes, rational bit lengths) are taken by hooks that run
after the span closes, outside its timed interval.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

# (span name, module, attribute, kind); kind is "function", "stream" for
# generator functions (one span per next()), or "method:<Class>,<Class>".
TARGETS = (
    ("profiles.sorted_blocks", "profiles", "sorted_blocks", "method:Profile"),
    ("profiles.aligned_runs", "profiles", "aligned_runs", "stream"),
    ("profiles.replicate", "profiles", "replicate", "function"),
    ("profiles.parse_profiles", "profiles", "parse_profiles", "function"),
    (
        "gfunctions.value",
        "gfunctions",
        "value",
        "method:Identity,Sqrt,LogShifted,SaturatingExp,PiecewiseLinear",
    ),
    (
        "gfunctions.exact",
        "gfunctions",
        "exact",
        "method:Identity,Sqrt,LogShifted,SaturatingExp,PiecewiseLinear",
    ),
    ("orderings.swo_compare", "orderings", "swo_compare", "function"),
    ("orderings.leximin_compare", "orderings", "leximin_compare", "function"),
    ("orderings.rdu_compare", "orderings", "rdu_compare", "function"),
    ("orderings.evaluate", "orderings", "evaluate", "function"),
    ("orderings.rdu_value", "orderings", "rdu_value", "function"),
    ("orderings.rdu_value_exact", "orderings", "rdu_value_exact", "function"),
    ("orderings.suffavg_value", "orderings", "suffavg_value", "function"),
    ("orderings.multithreshold_value", "orderings", "multithreshold_value", "function"),
    ("orderings.boundedg_value", "orderings", "boundedg_value", "function"),
    ("orderings.concavepoor_value", "orderings", "concavepoor_value", "function"),
    ("axioms.generate", "axioms", "generate_instances", "stream"),
    ("axioms.validate_preconditions", "axioms", "validate_preconditions", "function"),
    ("axioms.check_axiom", "axioms", "check_axiom", "function"),
    ("axioms.run_suite", "axioms", "run_suite", "function"),
    ("search.find_counterexample", "search", "find_counterexample", "function"),
    ("chains.serialize_chain", "chains", "serialize_chain", "function"),
    ("chains.parse_chain", "chains", "parse_chain", "function"),
    ("chains.validate_chain", "chains", "validate_chain", "function"),
    ("propositions.build_chain", "propositions", "build_prop1_chain", "function"),
    ("propositions.build_chain", "propositions", "build_prop2_chain", "function"),
    ("propositions.build_chain", "propositions", "build_prop3_chain", "function"),
    ("propositions.build_chain", "propositions", "build_prop4_chain", "function"),
    (
        "propositions.scan_ratio_coefficients",
        "propositions",
        "scan_ratio_coefficients",
        "stream",
    ),
    ("propositions.prop5_ratio_failure", "propositions", "prop5_ratio_failure", "function"),
    (
        "propositions.prop5_nonagg_condition",
        "propositions",
        "prop5_nonagg_condition",
        "function",
    ),
    ("cli.main", "cli", "main", "function"),
)

MODULES = ("profiles", "gfunctions", "orderings", "axioms", "search", "chains", "propositions", "cli")
OP_SPAN = "bench.op"
SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))
_COMPARES = {"orderings.swo_compare", "orderings.rdu_compare", "orderings.leximin_compare"}

def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_ms"]
    names += [
        "profiles.errors",
        "gfunctions.errors",
        "orderings.tied",
        "orderings.tied_share",
        "orderings.errors",
        "axioms.unmet_ratio",
        "axioms.errors",
        "search.shrink_ms",
        "search.candidates_checked",
        "search.shrink_steps",
        "search.accept_ratio",
        "search.validations_per_candidate",
        "search.errors",
        "chains.cert_bytes",
        "chains.steps",
        "chains.errors",
        "propositions.max_bits",
        "propositions.errors",
        "cli.errors",
        "bench.self_ms",
        "bench.error_rate",
        "trace.wall_ms",
        "trace.spans",
        "trace.overhead_pct",
    ]
    return names


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _chain_bits(chain) -> int:
    best = 0
    for step in chain.steps:
        for profile in (step.from_profile, step.to_profile):
            for value, _ in profile.blocks:
                best = max(best, _bits(value))
    return best


class _SearchState:
    __slots__ = ("span", "violation_at", "last_inst", "last_from_check", "candidates", "validations")

    def __init__(self, span: int):
        self.span = span
        self.violation_at = None
        self.last_inst = None
        self.last_from_check = False
        self.candidates = 0
        self.validations = 0


class Tracer:
    """In-memory span recorder; install() patches welfareax, uninstall() restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._child = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.shrink_s = 0.0
        self._search: list[_SearchState] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._child.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> float:
        end = time.perf_counter()
        self.span_end[idx] = end
        self._stack.pop()
        duration = end - self.span_start[idx]
        self.self_s[self.names[self.span_name[idx]]] += duration - self._child[idx]
        parent = self.span_parent[idx]
        if parent >= 0:
            self._child[parent] += duration
        return end

    def parent_name(self, idx: int) -> str | None:
        parent = self.span_parent[idx]
        return None if parent < 0 else self.names[self.span_name[parent]]

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark operation under a root span."""
        self.op_id = op_id
        idx = self.open(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def error(self, name: str, exc: BaseException) -> None:
        """Count an exception once, in the layer that raised it first."""
        if getattr(exc, "_perfbench_counted", False):
            return
        try:
            exc._perfbench_counted = True
        except AttributeError:
            pass
        self.counts[name.split(".", 1)[0] + ".errors"] += 1

    # -- wrappers ------------------------------------------------------

    def _function(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx)
                tracer.error(name, exc)
                raise
            end = tracer.close(idx)
            if hook is not None:
                hook(tracer, idx, end, args, result)
            return result

        return wrapper

    def _stream(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _Stream(tracer, name, fn(*args, **kwargs), hook)

        return wrapper

    def install(self) -> None:
        modules = {
            key: mod
            for key, mod in sys.modules.items()
            if key == "welfareax" or key.startswith("welfareax.")
        }
        for name, module, attr, kind in TARGETS:
            owner = modules[f"welfareax.{module}"]
            hook = _HOOKS.get(name)
            if kind.startswith("method:"):
                for cls_name in kind.split(":", 1)[1].split(","):
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, self._function(name, original, hook))
                continue
            original = getattr(owner, attr)
            if name == "search.find_counterexample":
                wrapper = _search_wrapper(self, original)
            elif kind == "stream":
                wrapper = self._stream(name, original, hook)
            else:
                wrapper = self._function(name, original, hook)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def wall_s(self) -> float:
        op = self._name_ids.get(OP_SPAN)
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_name))
            if self.span_name[i] == op
        )

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_ms"] = self.self_s[span] * 1e3
        c = self.counts
        for key in (
            "orderings.tied",
            "search.candidates_checked",
            "search.shrink_steps",
            "chains.cert_bytes",
            "chains.steps",
            "propositions.max_bits",
        ) + tuple(f"{module}.errors" for module in MODULES):
            out[key] = c[key]
        out["orderings.tied_share"] = c["orderings.tied"] / max(1, c["orderings.compares"])
        validations = self.calls["axioms.validate_preconditions"]
        out["axioms.unmet_ratio"] = c["axioms.unmet"] / max(1, validations)
        candidates = c["search.candidates_checked"]
        out["search.shrink_ms"] = self.shrink_s * 1e3
        out["search.accept_ratio"] = c["search.shrink_steps"] / max(1, candidates)
        out["search.validations_per_candidate"] = c["search.shrink_validations"] / max(1, candidates)
        out["bench.self_ms"] = self.self_s[OP_SPAN] * 1e3
        out["trace.wall_ms"] = self.wall_s() * 1e3
        out["trace.spans"] = len(self.span_name)
        return out

    def write(self, path) -> None:
        """Write the spans as a NumPy archive: one array per field plus the name table."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )


class _Stream:
    """Iterator proxy that records one span per next() of a generator."""

    __slots__ = ("tracer", "name", "gen", "hook")

    def __init__(self, tracer: Tracer, name: str, gen, hook):
        self.tracer, self.name, self.gen, self.hook = tracer, name, gen, hook

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        tracer.calls[self.name] += 1
        idx = tracer.open(self.name)
        try:
            item = next(self.gen)
        except StopIteration:
            tracer.close(idx)
            raise
        except BaseException as exc:
            tracer.close(idx)
            tracer.error(self.name, exc)
            raise
        end = tracer.close(idx)
        if self.hook is not None:
            self.hook(tracer, idx, end, (), item)
        return item


# -- result hooks --------------------------------------------------------
# Each runs after its span closed: hook(tracer, span, end_time, args, result).


def _compare_hook(tracer: Tracer, idx, end, args, result):
    if tracer.parent_name(idx) in _COMPARES:
        return  # counted by the outer comparison
    tracer.counts["orderings.compares"] += 1
    if result.numerically_tied:
        tracer.counts["orderings.tied"] += 1


def _active_search(tracer: Tracer):
    return tracer._search[-1] if tracer._search else None


def _candidate(state: _SearchState, inst, from_check: bool) -> None:
    if inst is not state.last_inst:
        state.candidates += 1
        state.last_inst = inst
        state.last_from_check = from_check


def _validate_hook(tracer: Tracer, idx, end, args, result):
    if not result.ok:
        tracer.counts["axioms.unmet"] += 1
    state = _active_search(tracer)
    if state is None or state.violation_at is None:
        return
    state.validations += 1
    if tracer.span_parent[idx] == state.span:
        _candidate(state, args[0], False)


def _check_hook(tracer: Tracer, idx, end, args, result):
    state = _active_search(tracer)
    if state is None or tracer.span_parent[idx] != state.span:
        return
    if state.violation_at is None:
        if result.violated:
            state.violation_at = end
        return
    _candidate(state, args[1], True)


def _search_wrapper(tracer: Tracer, fn):
    """find_counterexample's wrapper: also settles the shrink accounting."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls["search.find_counterexample"] += 1
        idx = tracer.open("search.find_counterexample")
        state = _SearchState(idx)
        tracer._search.append(state)
        try:
            witness = fn(*args, **kwargs)
        except BaseException as exc:
            tracer._search.pop()
            tracer.close(idx)
            tracer.error("search.find_counterexample", exc)
            raise
        tracer._search.pop()
        end = tracer.close(idx)
        if state.violation_at is not None:
            tracer.shrink_s += end - state.violation_at
        if witness is not None:
            # the final re-check of the returned witness is not a shrink candidate
            if state.last_inst is witness.instance and state.last_from_check:
                state.candidates -= 1
                state.validations -= 1
            tracer.counts["search.shrink_steps"] += witness.shrink_steps
        tracer.counts["search.candidates_checked"] += state.candidates
        tracer.counts["search.shrink_validations"] += state.validations
        return witness

    return wrapper


def _serialize_hook(tracer: Tracer, idx, end, args, result):
    tracer.counts["chains.cert_bytes"] += len(result.encode())
    tracer.counts["chains.steps"] += len(args[0].steps)


def _max_bits(tracer: Tracer, bits: int) -> None:
    if bits > tracer.counts["propositions.max_bits"]:
        tracer.counts["propositions.max_bits"] = bits


def _build_hook(tracer: Tracer, idx, end, args, result):
    _max_bits(tracer, _chain_bits(result))


def _scan_hook(tracer: Tracer, idx, end, args, item):
    _max_bits(tracer, _bits(item[1]))


def _ratio_hook(tracer: Tracer, idx, end, args, result):
    for profile in (result.witness.u, result.witness.v):
        _max_bits(tracer, max(_bits(v) for v, _ in profile.blocks))


def _rdu_value_hook(tracer: Tracer, idx, end, args, result):
    if not math.isfinite(result.value):  # an overflow that raised nothing
        tracer.counts["orderings.errors"] += 1


def _cli_hook(tracer: Tracer, idx, end, args, result):
    if result == 2:
        tracer.counts["cli.errors"] += 1


_HOOKS = {
    "orderings.swo_compare": _compare_hook,
    "orderings.rdu_compare": _compare_hook,
    "orderings.leximin_compare": _compare_hook,
    "orderings.rdu_value": _rdu_value_hook,
    "axioms.validate_preconditions": _validate_hook,
    "axioms.check_axiom": _check_hook,
    "chains.serialize_chain": _serialize_hook,
    "propositions.build_chain": _build_hook,
    "propositions.scan_ratio_coefficients": _scan_hook,
    "propositions.prop5_ratio_failure": _ratio_hook,
    "cli.main": _cli_hook,
}
