"""The four benchmark workloads: inputs built from a seed, operations, and checks.

Each workload is a closed loop driven by one caller in one thread: the
runner calls the next operation only after the previous one returned.
A workload holds a seeded list of operations; the runner cycles through
it and passes the cycle number, which the suite and search operations
fold into their library seed so that repeated cycles check fresh
instances. Library functions are looked up on their module at call
time, so a traced run sees every call through the tracer's wrappers.

``verify`` is the correctness gate. It compares results with answers
known from the paper or computed independently in :mod:`oracle`, never
with a second call of the timed code path alone; flagged and tied
results are metrics, not failures.
"""

from __future__ import annotations

import io
import math
import random
import statistics
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as F
from functools import partial
from pathlib import Path
from typing import Callable

import yaml

import oracle
import params as P
from welfareax import axioms as A
from welfareax import chains as C
from welfareax import cli
from welfareax import orderings as O
from welfareax import propositions as PR
from welfareax import search as S
from welfareax.gfunctions import Identity, LogShifted, SaturatingExp, Sqrt
from welfareax.orderings import (
    BoundedG,
    ConcavePoor,
    ConstantLambda,
    Leximin,
    MidpointLambda,
    MultiThreshold,
    RankWeighted,
    Rdu,
    SuffAvg,
)
from welfareax.profiles import Profile, Verdict


@dataclass
class Op:
    kind: str
    fn: Callable[[int], object]  # called with the cycle number
    units: int = 1  # work units for throughput (suites: instance checks)
    primary: bool = True  # counted in the call-latency percentiles


@dataclass
class Record:
    op: int  # index into the workload's op list
    cycle: int
    ok: bool
    result: object  # return value, or the exception raised
    seconds: float


def quantile(values, q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles; the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def latency_ms(records) -> list[float]:
    return [r.seconds * 1e3 for r in records if r.ok]


class Workload:
    name = ""
    known_failures: tuple[type, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.ops: list[Op] = []

    def verify(self, records: list[Record]) -> list[str]:
        raise NotImplementedError

    def summary(self, records: list[Record], wall: float) -> dict[str, tuple[float, str]]:
        """The workload's own named end-to-end figures, printed for reading."""
        raise NotImplementedError

    def keep(self, result):
        """What the run holds of a result until the gate: by default all of it."""
        return result

    def unexpected_failures(self, records: list[Record]) -> list[str]:
        return [
            f"op {r.op} ({self.ops[r.op].kind}) raised {type(r.result).__name__}: {r.result}"
            for r in records
            if not r.ok and not isinstance(r.result, self.known_failures)
        ]


# ---------------------------------------------------------------------------
# suites


class Suites(Workload):
    """run_suite over the roster of suites the paper says hold."""

    name = "suites"
    COUNT = 40  # instances per run_suite call

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        half = ConstantLambda(F(1, 2))
        roster = []
        prop6 = SuffAvg(P.PROP6_THRESHOLD, MidpointLambda(*P.PROP6_MIDPOINT))
        roster += [("suffavg", prop6, axiom, p, {}) for axiom, p in P.PROP6_SUITES]
        roster += [("leximin", Leximin(), axiom, p, {}) for axiom, p in P.LEXIMIN_SUITES]
        holding = P.criterion5_holding()  # rho-major 5 x 5 grid; take its diagonal
        for i in range(len(P.HOLDING_RHOS)):
            rho, alpha, beta = holding[i * (len(P.HOLDING_RHOS) + 1)]
            roster.append(
                ("rdu-identity", Rdu(rho, Identity()), "minimal_non_aggregation",
                 P.mna_params(alpha, beta), dict(populations=(2, 8)))
            )
        paper = Rdu(F(101, 100), Sqrt())
        for axiom in ("anonymity", "strong_pareto", "pigou_dalton"):
            roster.append(("rdu-sqrt", paper, axiom, {}, dict(values=(0, 20))))
        rank_weights = tuple(
            (n, tuple(F(2 * (n - r), n * (n + 1)) for r in range(n))) for n in range(2, 11)
        )
        roster += [
            ("multithreshold",
             MultiThreshold((0, 2), weights=(F(1, 2), F(1, 3), F(1, 6))), "strong_pareto", {}, {}),
            ("rankweighted", RankWeighted(1, half, rank_weights), "anonymity", {}, {}),
            ("boundedg", BoundedG(0, ConstantLambda(F(1, 4)), SaturatingExp(F(10), F(2))),
             "strong_pareto", {}, {}),
            ("concavepoor", ConcavePoor(1, half, Identity()), "pigou_dalton", {}, {}),
        ]
        rng.shuffle(roster)
        for kind, spec, axiom, p, kwargs in roster:
            self.ops.append(
                Op(f"{kind}:{axiom}",
                   partial(self._run, spec, axiom, p, kwargs, rng.randrange(2**31)),
                   units=self.COUNT)
            )

    def _run(self, spec, axiom, p, kwargs, base_seed, cycle):
        return A.run_suite(spec, axiom, p, self.COUNT, seed=base_seed + cycle, **kwargs)

    def verify(self, records):
        failures = self.unexpected_failures(records)
        for r in records:
            if r.ok and (r.result.violated or r.result.unmet or r.result.checked != self.COUNT):
                failures.append(
                    f"suite {self.ops[r.op].kind} (cycle {r.cycle}) reported "
                    f"violated={r.result.violated} unmet={r.result.unmet}"
                )
        return failures

    def summary(self, records, wall):
        done = [r.result for r in records if r.ok]
        checked = sum(s.checked for s in done)
        return {
            "checks_per_s": (checked / wall, "1/s"),
            "tied_share": (sum(s.flagged for s in done) / max(1, checked), "share"),
        }


# ---------------------------------------------------------------------------
# search-shrink


class SearchShrink(Workload):
    """find_counterexample on configurations known to have violations."""

    name = "search-shrink"
    POPULATIONS = (6, 16)
    BUDGET = 100_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        roster = [
            ("rdu-identity:mna", Rdu(rho, Identity()), "minimal_non_aggregation",
             P.mna_params(alpha, beta))
            for rho, alpha, beta in P.criterion5_failing()
        ]
        roster += [
            ("leximin:qa", Leximin(), "quantitative_aggregation", dict(m=3, gamma=2, delta=1)),
            ("leximin:ra", Leximin(), "ratio_aggregation", dict(lam=F(1, 2), gamma=2, delta=1)),
            ("leximin:minagg", Leximin(), "minimal_aggregation", dict(gamma=2, delta=1)),
            ("suffavg:ri", SuffAvg(P.PROP6_THRESHOLD, MidpointLambda(*P.PROP6_MIDPOINT)),
             "replication_invariance", {}),
        ]
        rng.shuffle(roster)
        for kind, spec, axiom, p in roster:
            self.ops.append(Op(kind, partial(self._run, spec, axiom, p, rng.randrange(2**31))))

    def _run(self, spec, axiom, p, base_seed, cycle):
        budget = S.SearchBudget(self.BUDGET, seed=base_seed + cycle, populations=self.POPULATIONS)
        return spec, S.find_counterexample(spec, axiom, p, budget)

    def verify(self, records):
        failures = self.unexpected_failures(records)
        for r in records:
            if not r.ok:
                continue
            spec, witness = r.result
            label = f"search {self.ops[r.op].kind} (cycle {r.cycle})"
            if witness is None:
                failures.append(f"{label} found no violation")
            elif not A.validate_preconditions(witness.instance).ok:
                failures.append(f"{label} returned a witness that does not validate")
            elif not A.check_axiom(spec, witness.instance).violated:
                failures.append(f"{label} returned a witness that is not violated")
        return failures

    def summary(self, records, wall):
        ms = latency_ms(records)
        return {
            "witness_ms_p50": (statistics.median(ms), "ms"),
            "witness_ms_p90": (quantile(ms, 90), "ms"),
        }


# ---------------------------------------------------------------------------
# large-population

LEVEL_TOP = 200


def _log_scale(q: float, lo: float, hi: float) -> int:
    """The q-quantile (0 <= q < 1) of a log-uniform draw on [lo, hi]."""
    return int(round(lo * (hi / lo) ** q))


def _counts(rng: random.Random, n: int, blocks: int) -> list[int]:
    blocks = max(1, min(blocks, n))
    cuts = sorted(rng.sample(range(1, n), blocks - 1)) if blocks > 1 else []
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def _levels(rng: random.Random, k: int, parity: int) -> list[F]:
    """k levels on the grid of halves in [1, LEVEL_TOP], distinct while k allows;
    parity 0 gives integers and parity 1 odd halves, so two profiles drawn with
    different parities share no level."""
    pool = range(2 + parity, 2 * LEVEL_TOP + 1, 2)
    picks = rng.sample(pool, k) if k <= len(pool) else rng.choices(pool, k=k)
    return [F(x, 2) for x in picks]


def _profile(rng, n, blocks, parity=None):
    counts = _counts(rng, n, blocks)
    if parity is None:
        levels = [F(rng.randint(2, 2 * LEVEL_TOP), 2) for _ in counts]
    else:
        levels = _levels(rng, len(counts), parity)
    return list(zip(levels, counts))


def _size(q_n: float, q_blocks: float, smallest: float = 1e3) -> tuple[int, int]:
    """Entries in smallest..1e9 and blocks in 1..1e3, both log-uniform."""
    n = _log_scale(q_n, smallest, 1e9)
    return n, min(_log_scale(q_blocks, 1, 1e3), n)


# Identity pairs with at most 2e4 entries in all take rdu_compare's exact
# path, whose cost grows with blocks times the bit length of rho**n (up to
# 1.5 s at 4e3 entries and 400 blocks). Random pairs with an identity
# transform therefore start at 2e4 entries per profile; the exact kernel is
# measured by rdu_value_exact and same-multiset ops, on sizes held below that.
EXACT_PATH_ENTRIES = 2e4


def _grid(count: int, dims: int) -> list[tuple[float, ...]]:
    """count points in [0, 1)^dims at stratum midpoints; each coordinate takes
    every stratum of width 1/count once, in a fixed order that does not depend
    on the seed. Sizes are a fixed design, so seeds change the profiles' levels
    and cuts but not the cost mix, and p50 does not wander with the seed."""
    columns = []
    for d in range(dims):
        strata = list(range(count))
        random.Random(1000 * count + d).shuffle(strata)
        columns.append([(s + 0.5) / count for s in strata])
    return list(zip(*columns))


def _near_tie(rng, rho, q_n, blocks):
    """Sorted profile u and v = u with one entry raised by 1/2 at a rank whose
    weight is 1e-20 .. 1e-45 of the worst-off's, so floats cannot separate them
    but a 400-bit sum can."""
    n = 10_050 + int(950 * q_n)
    depth = rng.uniform(20, 45) / math.log10(rho)
    cut = max(2, min(n - 1, int(depth)))
    counts = [cut] + _counts(rng, n - cut, blocks - 1)
    levels = sorted(_levels(rng, len(counts), rng.randint(0, 1)))
    u = list(zip(levels, counts))
    v = [(levels[0], cut - 1), (levels[0] + F(1, 2), 1)] + u[1:]
    return u, v


class NonFiniteValue(ArithmeticError):
    """rdu_value overflowed to inf or nan instead of raising OverflowError."""


class LargePopulation(Workload):
    """Comparisons and valuations of block profiles with 10^3 to 10^9 entries.

    The op list has a fixed number of each kind, and each kind's
    parameters are stratified: (rho, g) pairs are dealt in turn and sizes
    come from a fixed grid, so seeds change the profiles but not the mix,
    which keeps run-to-run spread small.
    """

    name = "large-population"
    known_failures = (OverflowError, NonFiniteValue)
    G = {"identity": Identity(), "sqrt": Sqrt(), "log_shifted": LogShifted(F(1))}
    COMBOS = tuple((rho, g) for rho in P.RHOS for g in ("identity", "sqrt", "log_shifted"))
    KINDS = (  # (kind, ops per cycle, classes: ops j and j' share a class when j = j' mod classes)
        ("rdu_compare", 120, 15), ("swo_compare_rdu", 45, 15), ("leximin_compare", 40, 5),
        ("swo_compare_suffavg", 40, 2), ("rdu_value", 45, 15), ("rdu_value_exact", 20, 5),
        ("suffavg_family", 40, 4), ("same_multiset", 30, 15), ("near_tie", 8, 4),
        ("ranking", 12, 3),
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.cases = []
        for kind, count, classes in self.KINDS:
            make = getattr(self, f"_make_{kind}")
            for c in range(classes):  # sizes are stratified within each class
                for k, q in enumerate(_grid(count // classes, 4)):
                    self.cases.append((kind, make(rng, c + classes * k, q)))
        rng.shuffle(self.cases)
        self.ops = [Op(kind, partial(self._run, case)) for kind, case in self.cases]
        self.cases = [case for _, case in self.cases]
        self._oracle_cache: dict[int, object] = {}

    # -- case builders -----------------------------------------------------

    def _spec(self, rho, g_name):
        return rho, g_name, Rdu(rho, self.G[g_name])

    def _make_rdu_compare(self, rng, j, q, via_swo=False):
        rho, g_name, spec = self._spec(*self.COMBOS[j % len(self.COMBOS)])
        smallest = EXACT_PATH_ENTRIES if g_name == "identity" else 1e3
        parity = rng.randint(0, 1)
        u = _profile(rng, *_size(q[0], q[1], smallest), parity)
        v = _profile(rng, *_size(q[2], q[3], smallest), 1 - parity)
        return dict(kind="pair", call="swo" if via_swo else "rdu", rho=rho, g=g_name,
                    spec=spec, u=u, v=v, pu=Profile.from_blocks(u), pv=Profile.from_blocks(v))

    def _make_swo_compare_rdu(self, rng, j, q):
        return self._make_rdu_compare(rng, j, q, via_swo=True)

    def _make_same_multiset(self, rng, j, q):
        rho, g_name, spec = self._spec(*self.COMBOS[j % len(self.COMBOS)])
        if g_name == "identity":
            n, blocks = 1_000 + int(4_000 * q[0]), 2 + int(18 * q[1])
        else:
            n, blocks = _size(q[0], q[1])
        u = _profile(rng, n, blocks)
        v = list(u)
        rng.shuffle(v)
        return dict(kind="pair", call="rdu", rho=rho, g=g_name, spec=spec, u=u, v=v,
                    pu=Profile.from_blocks(u), pv=Profile.from_blocks(v))

    def _make_near_tie(self, rng, j, q):
        rho = (F(101, 100), F(3, 2))[j % 2]
        rho, g_name, spec = self._spec(rho, ("identity", "sqrt")[(j // 2) % 2])
        u, v = _near_tie(rng, rho, q[0], 4 + 3 * (j // 4 % 2))
        rng.shuffle(u)
        rng.shuffle(v)
        if q[2] < 0.5:
            u, v = v, u
        return dict(kind="pair", call="rdu", rho=rho, g=g_name, spec=spec, u=u, v=v,
                    pu=Profile.from_blocks(u), pv=Profile.from_blocks(v))

    def _make_leximin_compare(self, rng, j, q):
        n, blocks = _size(q[0], q[1])
        u = _profile(rng, n, blocks)
        if j % 5 == 0:
            v = list(u)
            rng.shuffle(v)
        else:
            v = _profile(rng, n, _size(q[0], q[2])[1])
        return dict(kind="leximin", u=u, v=v, pu=Profile.from_blocks(u), pv=Profile.from_blocks(v))

    def _make_swo_compare_suffavg(self, rng, j, q):
        n, blocks = _size(q[0], q[1])
        u, v = _profile(rng, n, blocks), _profile(rng, n, _size(q[0], q[2])[1])
        theta = F(rng.randint(2, 2 * LEVEL_TOP), 2)
        lam = F(rng.randint(1, 9), 10)
        if j % 2 == 0:
            spec, ref = SuffAvg(theta, ConstantLambda(lam)), partial(oracle.suffavg, theta=theta, lam=lam)
        else:
            thetas, weights = (theta / 2, theta), (lam / 2, lam / 2, 1 - lam)
            spec = MultiThreshold(thetas, weights=weights)
            ref = partial(oracle.multithreshold, thetas=thetas, weights=weights)
        return dict(kind="suffavg_pair", spec=spec, ref=ref, u=u, v=v,
                    pu=Profile.from_blocks(u), pv=Profile.from_blocks(v))

    def _make_rdu_value(self, rng, j, q):
        rho, g_name, spec = self._spec(*self.COMBOS[j % len(self.COMBOS)])
        u = _profile(rng, *_size(q[0], q[1]))
        return dict(kind="rdu_value", rho=rho, g=g_name, spec=spec, u=u, pu=Profile.from_blocks(u))

    def _make_rdu_value_exact(self, rng, j, q):
        rho, g_name, spec = self._spec(P.RHOS[j % len(P.RHOS)], "identity")
        if rho == 1:
            n, blocks = _size(q[0], q[1])
        else:  # four size strata per rho, since this exact kernel's cost grows fast
            n, blocks = _log_scale(q[0], 1e3, 1e4), 1 + int(49 * q[0])
        u = _profile(rng, n, blocks)
        return dict(kind="rdu_exact", rho=rho, g=g_name, spec=spec, u=u, pu=Profile.from_blocks(u))

    def _make_suffavg_family(self, rng, j, q):
        u = _profile(rng, *_size(q[0], q[1]))
        theta = F(rng.randint(2, 2 * LEVEL_TOP), 2)
        lam = F(rng.randint(1, 9), 10)
        which = ("suffavg", "multithreshold", "boundedg", "concavepoor")[j % 4]
        if which == "suffavg":
            spec, ref = SuffAvg(theta, ConstantLambda(lam)), partial(oracle.suffavg, theta=theta, lam=lam)
        elif which == "multithreshold":
            thetas, weights = (theta / 2, theta), (lam / 2, lam / 2, 1 - lam)
            spec = MultiThreshold(thetas, weights=weights)
            ref = partial(oracle.multithreshold, thetas=thetas, weights=weights)
        elif which == "boundedg":
            cap, scale = F(rng.randint(10, 100)), F(rng.randint(1, 50))
            spec = BoundedG(theta, ConstantLambda(lam), SaturatingExp(cap, scale))
            ref = partial(oracle.boundedg_saturating, theta=theta, lam=lam, cap=cap, scale=scale)
        else:
            spec = ConcavePoor(theta, ConstantLambda(lam), Sqrt())
            ref = partial(oracle.concavepoor_sqrt, theta=theta, lam=lam)
        return dict(kind="family", which=which, spec=spec, ref=ref, u=u, pu=Profile.from_blocks(u))

    RANKINGS = (
        # scripts/large_scale_rankings.py: each first profile ranks strictly above the second
        ("rdu", [(100, 10**6)], [(90, 1), (100, 999), (300, 999000)]),
        ("rdu", [(100, 10**3)], [(99, 10**6)]),
        ("suffavg", [(-100, 1), (200, 10**9 - 1)], [(0, 1), (100, 10**9 - 1)]),
    )

    def _make_ranking(self, rng, j, q):
        which, u, v = self.RANKINGS[j % len(self.RANKINGS)]
        spec = Rdu(F(101, 100), Sqrt()) if which == "rdu" else SuffAvg(0, ConstantLambda(F(1, 5)))
        return dict(kind="ranking", spec=spec, pu=Profile.from_blocks(u), pv=Profile.from_blocks(v))

    # -- execution ---------------------------------------------------------

    @staticmethod
    def _run(case, cycle):
        kind = case["kind"]
        if kind == "pair":
            if case["call"] == "swo":
                return O.swo_compare(case["spec"], case["pu"], case["pv"])
            return O.rdu_compare(case["pu"], case["pv"], case["spec"])
        if kind == "leximin":
            return O.leximin_compare(case["pu"], case["pv"])
        if kind in ("suffavg_pair", "ranking"):
            return O.swo_compare(case["spec"], case["pu"], case["pv"])
        if kind == "rdu_value":
            value = O.rdu_value(case["pu"], case["spec"])
            if not math.isfinite(value.value):
                raise NonFiniteValue(f"rdu_value returned {value}")
            return value
        if kind == "rdu_exact":
            return O.rdu_value_exact(case["pu"], case["spec"])
        which, spec, u = case["which"], case["spec"], case["pu"]
        if which == "suffavg":
            return O.suffavg_value(u, spec)
        if which == "multithreshold":
            return O.multithreshold_value(u, spec)
        if which == "boundedg":
            return O.boundedg_value(u, spec)
        return O.concavepoor_value(u, spec)

    # -- correctness -------------------------------------------------------

    def _expected(self, case):
        kind = case["kind"]
        if kind == "pair":
            a = oracle.rdu(case["u"], case["rho"], case["g"])
            b = oracle.rdu(case["v"], case["rho"], case["g"])
            return oracle.sign_of_difference(a, b)
        if kind == "leximin":
            return oracle.leximin_sign(case["u"], case["v"])
        if kind == "suffavg_pair":
            diff = case["ref"](case["u"]) - case["ref"](case["v"])
            return (diff > 0) - (diff < 0)
        if kind == "ranking":
            return 1
        if kind in ("rdu_value", "rdu_exact"):
            return oracle.rdu(case["u"], case["rho"], case["g"])
        return case["ref"](case["u"])

    def _check(self, case, result, expected) -> str | None:
        kind = case["kind"]
        if kind in ("pair", "leximin", "suffavg_pair", "ranking"):
            if expected is None or getattr(result, "numerically_tied", False):
                return None  # unresolvable by the reference, or a reported tie
            want = {1: Verdict.STRICTLY_BETTER, -1: Verdict.STRICTLY_WORSE, 0: Verdict.EQUIVALENT}
            if result.verdict is not want[expected]:
                return f"verdict {result.verdict.value}, reference sign {expected}"
            return None
        if kind == "rdu_value":
            ok = oracle.close(result.value, expected, 1e-9)
        elif kind == "rdu_exact":
            ok = oracle.close(oracle.fraction_to_mpf(result), expected, 2.0**-300)
        elif isinstance(expected, F):
            ok = result == expected
        else:
            value = float(result.value) if hasattr(result, "value") else float(result)
            ok = oracle.close(value, expected, 1e-9)
        return None if ok else f"value {result!r} disagrees with the reference"

    def verify(self, records):
        failures = self.unexpected_failures(records)
        # the known overflow defect: rank weights rho**-i grow without bound for rho < 1
        failures += [
            f"op {r.op} ({self.ops[r.op].kind}) overflowed with rho >= 1"
            for r in records
            if not r.ok and self.cases[r.op].get("rho", 0) >= 1
        ]
        checked: dict[int, object] = {}  # op -> a result already checked
        for r in records:
            if not r.ok or (r.op in checked and checked[r.op] == r.result):
                continue
            checked[r.op] = r.result
            case = self.cases[r.op]
            if r.op not in self._oracle_cache:
                self._oracle_cache[r.op] = self._expected(case)
            problem = self._check(case, r.result, self._oracle_cache[r.op])
            if problem:
                failures.append(f"op {r.op} ({self.ops[r.op].kind}): {problem}")
        return failures

    def summary(self, records, wall):
        compares = [r for r in records if r.ok and hasattr(r.result, "verdict")]
        us = [r.seconds * 1e6 for r in compares]
        return {
            "compare_us_p50": (statistics.median(us), "us"),
            "compare_us_p99": (quantile(us, 99), "us"),
            "tied_share": (
                sum(r.result.numerically_tied for r in compares) / max(1, len(compares)),
                "share",
            ),
        }


# ---------------------------------------------------------------------------
# certificates


@dataclass
class RoundTrip:
    replay_code: int
    validate_code: int
    output: str
    certificate: str


@dataclass
class Scan:
    n_star: int
    witness_violated: bool
    conditions: list[bool]
    coefficients: list[F]


class Certificates(Workload):
    """CLI replay and validate of chain certificates, plus the threshold scans."""

    name = "certificates"
    SCAN_N = 2000  # even n from 2, the grid acceptance 6 checks
    CHAIN4_PAIRS = 240  # about one pair per op of a run: a chain-4 round trip costs 8 to 90 ms
    CHAIN4_PER_CYCLE = 8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        orderings = (
            Leximin(),
            Rdu(F(101, 100), Sqrt()),
            SuffAvg(10, MidpointLambda(*P.LOCATE_MIDPOINT)),
        )
        self.ordering_files = []
        for i, spec in enumerate(orderings):
            path = workdir / f"ordering{i}.yaml"
            path.write_text(yaml.safe_dump(O.ordering_to_config(spec)), encoding="utf-8")
            self.ordering_files.append(str(path))
        ops = []
        for chain_id, sets in ((1, P.PROP1_SETS), (2, P.PROP2_SETS), (3, P.PROP3_SETS)):
            for j, params in enumerate(sets):
                path = workdir / f"chain{chain_id}-{j}.yaml"
                path.write_text(yaml.safe_dump(_yaml_params(params)), encoding="utf-8")
                ops.append(Op(f"chain{chain_id}",
                              partial(self._chain, chain_id, str(path), None, f"c{chain_id}-{j}")))
        self.chain4 = []
        for j, (u, v) in enumerate(_dominance_pairs(rng, self.CHAIN4_PAIRS)):
            path = workdir / f"pair{j}.txt"
            path.write_text(f"{u}\n{v}\n", encoding="utf-8")
            self.chain4.append(str(path))
        for j in range(self.CHAIN4_PER_CYCLE):
            ops.append(Op("chain4", partial(self._chain4, j)))
        ops.append(Op("scan", self._scan, primary=False))
        rng.shuffle(ops)
        self.ops = ops
        self._kept: dict = {}

    def _chain(self, chain_id, params_path, profiles_path, key, cycle):
        cert = str(self.workdir / f"{key}.cert")
        # chains 1-3 rotate through the three orderings; leximin affirms chain 4
        slot = 0 if chain_id == 4 else (int(key.rsplit("-", 1)[1]) + cycle) % 3
        locate = self.ordering_files[slot]
        replay = ["replay", "--id", str(chain_id), "--out", cert, "--locate", locate]
        if params_path:
            replay += ["--params", params_path]
        if profiles_path:
            replay += ["--profiles", profiles_path]
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(replay)
            check = cli.main(["validate", "--certificate", cert, "--locate", locate])
        return RoundTrip(code, check, out.getvalue(), Path(cert).read_text(encoding="utf-8"))

    def _chain4(self, slot, cycle):
        j = (slot + self.CHAIN4_PER_CYCLE * cycle) % self.CHAIN4_PAIRS
        return self._chain(4, None, self.chain4[j], f"c4-{j}", cycle)

    def _scan(self, cycle):
        report = PR.prop5_ratio_failure(Identity(), *P.RATIO_FAILURE_ARGS)
        theta_p = P.CRITERION5_THETA_P
        conditions = [
            PR.prop5_nonagg_condition(Identity(), rho, theta_p, theta_p + beta + 1, alpha, beta).holds
            for rho, alpha, beta in P.criterion5_holding() + P.criterion5_failing()
        ]
        rho, lam = P.RATIO_FAILURE_ARGS[:2]
        coefficients = [c for _, c in PR.scan_ratio_coefficients(rho, lam, 2, self.SCAN_N, 2)]
        return Scan(report.n_star, report.check.violated, conditions, coefficients)

    def keep(self, result):
        """Share the texts and coefficient lists that repeat from cycle to
        cycle, so memory stays flat over a run."""
        if isinstance(result, Scan):
            first = self._kept.setdefault("scan", result.coefficients)
            if result.coefficients == first:
                result.coefficients = first
        else:
            result.output = self._kept.setdefault(result.output, result.output)
            result.certificate = self._kept.setdefault(result.certificate, result.certificate)
        return result

    def verify(self, records):
        failures = self.unexpected_failures(records)
        grid = P.criterion5_holding() + P.criterion5_failing()
        expected_conditions = [alpha >= rho * beta / (rho - 1) for rho, alpha, beta in grid]
        checked_certs = set()
        for r in records:
            if not r.ok:
                continue
            kind = self.ops[r.op].kind
            res = r.result
            if kind == "scan":
                if res.n_star != P.RATIO_FAILURE_N_STAR:
                    failures.append(f"ratio failure n_star {res.n_star}, expected 1062")
                if not res.witness_violated:
                    failures.append("ratio failure witness is not violated")
                if res.conditions != expected_conditions:
                    failures.append("identity non-aggregation condition disagrees with the grid")
                peak = max(range(len(res.coefficients)), key=res.coefficients.__getitem__)
                tail = res.coefficients[peak:]
                if peak > 100 or any(b >= a for a, b in zip(tail, tail[1:])):
                    failures.append("ratio coefficients do not decrease strictly after their peak")
                continue
            label = f"{kind} op {r.op} cycle {r.cycle}"
            if res.replay_code != 0 or res.validate_code != 0:
                failures.append(f"{label}: exit codes {res.replay_code}, {res.validate_code}")
            affirmed = "ordering affirms every step" in res.output
            if kind == "chain1" and affirmed:
                failures.append(f"{label}: no step of a first-construction chain was denied")
            if kind == "chain4" and (not affirmed or "denied:" in res.output):
                failures.append(f"{label}: leximin denied a step of its dominance chain")
            if res.certificate in checked_certs:
                continue
            checked_certs.add(res.certificate)
            chain = C.parse_chain(res.certificate)
            if C.serialize_chain(chain) != res.certificate:
                failures.append(f"{label}: certificate does not round-trip byte for byte")
            if not C.validate_chain(chain).ok:
                failures.append(f"{label}: parsed certificate does not validate")
        return failures

    def summary(self, records, wall):
        trips = latency_ms([r for r in records if self.ops[r.op].kind != "scan"])
        scans = [r.seconds for r in records if r.ok and self.ops[r.op].kind == "scan"]
        return {
            "roundtrip_ms_p50": (statistics.median(trips), "ms"),
            "roundtrip_ms_p90": (quantile(trips, 90), "ms"),
            "scan_s": (statistics.median(scans) if scans else float("nan"), "s"),
        }


def _yaml_params(params: dict) -> dict:
    return {k: (str(v) if isinstance(v, F) else v) for k, v in params.items()}


def _dominance_pairs(rng: random.Random, count: int):
    """Strict leximin pairs (better, worse) drawn as in acceptance 8."""
    pairs = []
    while len(pairs) < count:
        n = rng.randint(2, 6)
        u = [F(rng.randint(-8, 8), rng.choice([1, 2, 4])) for _ in range(n)]
        v = [F(rng.randint(-8, 8), rng.choice([1, 2, 4])) for _ in range(n)]
        sign = oracle.leximin_sign([(x, 1) for x in u], [(x, 1) for x in v])
        if sign == 0:
            continue
        if sign < 0:
            u, v = v, u
        pairs.append((_line(u), _line(v)))
    return pairs


def _line(levels) -> str:
    return ",".join(str(x) for x in levels)


WORKLOADS = {w.name: w for w in (Suites, SearchShrink, LargePopulation, Certificates)}
