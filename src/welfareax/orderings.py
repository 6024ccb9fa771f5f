"""Social welfare orderings over well-being profiles.

Implemented families:

* same-population leximin (lexicographic maximin);
* rank-discounted generalized utilitarianism (RDU): ascending ranks,
  the worst-off gets weight 1, rank i gets rho**(-i);
* a sufficientarian-average rule: a population-size-dependent convex
  combination of the shortfall sum below a poverty threshold and the
  simple average, with the per-n weight either fixed, tabulated, or the
  midpoint of the feasibility interval derived from aggregation and
  non-aggregation magnitudes;
* four variants of that rule: multiple thresholds, a rank-weighted
  second term, a bounded concave transform of the average, and a
  concave transform of the shortfall term.

Each ordering is a frozen dataclass that owns its rules: ``value`` gives
a profile's valuation through the family's kernel (``suffavg_value``,
``rdu_value``, ...; leximin refuses), and ``compare`` gives the verdict
on two profiles, refusing different population sizes unless asked
(leximin always refuses, RDU never does). Each weight schedule answers
``value_for(n)``. ``config_fields`` names the parameters that the field
codec in :mod:`welfareax.codec` reads and writes.

Piecewise-linear rules evaluate in exact rational arithmetic; RDU and
the transformed variants use float sums with an a-posteriori error
bound. One function, ``_resolve``, decides every verdict on two
valuations: exactly when both are exact, else by the float difference
against the combined bound, then by an exact fallback where one exists
(RDU with an exact transform), else as a flagged numerical tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from typing import Mapping

from .codec import LEVEL, LEVELS, Record, table
from .errors import ConfigError, MissingLambda
from .gfunctions import TRANSFORM, GFunction
from .profiles import (
    CompareResult,
    Profile,
    Verdict,
    as_level,
    ceil_ratio,
    format_level,
)

DEFAULT_TOLERANCE = Fraction(1, 10**12)

#: Largest total population for which an exact RDU comparison is attempted.
RDU_EXACT_LIMIT = 20_000

_EPS = 2.0**-52


# ---------------------------------------------------------------------------
# valuations


@dataclass(frozen=True)
class ExactValue:
    value: Fraction
    is_exact = True
    bound = 0.0

    def __float__(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        return f"{format_level(self.value)} (exact)"


@dataclass(frozen=True)
class FloatValue:
    value: float
    bound: float
    is_exact = False

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        return f"{self.value!r} (error bound {self.bound:.3e})"


Valuation = ExactValue | FloatValue


# ---------------------------------------------------------------------------
# per-population weight schedules


def _tabulated(table, n: int, what: str):
    """The entry of a ((n, entry), ...) table for population size n."""
    for size, entry in table:
        if size == n:
            return entry
    raise MissingLambda(f"no {what} tabulated for population size {n}")


@dataclass(frozen=True)
class ConstantLambda:
    value: Fraction

    def value_for(self, n: int) -> Fraction:
        return self.value


@dataclass(frozen=True)
class TableLambda:
    table: tuple[tuple[int, Fraction], ...]

    def value_for(self, n: int) -> Fraction:
        return _tabulated(self.table, n, "weight")

    @staticmethod
    def from_mapping(mapping: Mapping[int, object]) -> "TableLambda":
        return TableLambda(tuple(sorted(_LEVEL_TABLE[2](mapping))))


@dataclass(frozen=True)
class MidpointLambda(Record):
    """Midpoint of the per-n feasibility interval, clamped into (0, 1).

    alpha > beta > 0 are the non-aggregation gain/loss magnitudes,
    gamma > delta > 0 the aggregation ones, ratio the population share
    whose gains must prevail.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    ratio: Fraction
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)
    config_fields = dict.fromkeys(("alpha", "beta", "gamma", "delta", "ratio"), LEVEL)

    def value_for(self, n: int) -> Fraction:
        if n not in self._cache:
            lower, upper, feasible = lambda_feasible_interval(
                n, self.alpha, self.beta, self.gamma, self.delta, self.ratio
            )
            if not feasible:
                raise MissingLambda(
                    f"feasibility interval empty at n={n}: "
                    f"({format_level(lower)}, {format_level(upper)})"
                )
            self._cache[n] = (max(lower, Fraction(0)) + min(upper, Fraction(1))) / 2
        return self._cache[n]


LambdaSchedule = ConstantLambda | TableLambda | MidpointLambda

_LEVEL_TABLE = table(LEVEL)

# codec choice: a schedule is written under the document key of its type
_SCHEDULE = {
    "lambda": (
        ConstantLambda, lambda s: format_level(s.value), lambda x: ConstantLambda(as_level(x))
    ),
    "lambda_table": (TableLambda, lambda s: _LEVEL_TABLE[1](s.table), TableLambda.from_mapping),
    "lambda_midpoint": (
        MidpointLambda,
        lambda s: s.encode_fields({}),
        lambda doc: MidpointLambda.from_fields(doc, "lambda_midpoint parameter"),
    ),
}


def lambda_feasible_interval(
    n: int, alpha, beta, gamma, delta, lam_ratio
) -> tuple[Fraction, Fraction, bool]:
    """Exact bounds on the per-n weight of the sufficientarian term.

    lower = ((n-1) beta - alpha) / ((n-1)(alpha + beta))
    upper = (q gamma - delta) / ((n-1) delta + q gamma),  q = ceil(ratio * n)

    Any weight in (max(lower, 0), min(upper, 1)) makes the n-person rule
    tolerate a delta-loss against q gains of gamma while still letting
    an alpha-gain of the poorest outweigh (n-1) losses of beta.
    """
    alpha, beta = as_level(alpha), as_level(beta)
    gamma, delta = as_level(gamma), as_level(delta)
    if not alpha > beta > 0:
        raise ConfigError("need alpha > beta > 0")
    if not gamma > delta > 0:
        raise ConfigError("need gamma > delta > 0")
    if n < 2:
        raise ConfigError("interval defined for n >= 2")
    q = ceil_ratio(as_level(lam_ratio), n)
    lower = Fraction((n - 1) * beta - alpha, (n - 1) * (alpha + beta))
    upper = Fraction(q * gamma - delta, (n - 1) * delta + q * gamma)
    feasible = max(lower, Fraction(0)) < min(upper, Fraction(1))
    return lower, upper, feasible


# ---------------------------------------------------------------------------
# orderings


class _Ordering(Record):
    """Rules shared by the ordering dataclasses; each overrides what differs."""

    tag = ""

    def value(self, u: Profile) -> Valuation:
        raise NotImplementedError

    def compare(
        self, u: Profile, v: Profile, cross_size: bool, tolerance: Fraction
    ) -> CompareResult:
        """Verdict on u against v; value rules depend on the population size."""
        if len(u) != len(v) and not cross_size:
            return CompareResult(
                Verdict.INCOMPARABLE,
                note=(
                    "value function is population-size dependent; "
                    "pass cross_size=True to compare raw values"
                ),
            )
        return _resolve(evaluate(self, u), evaluate(self, v), tolerance)


@dataclass(frozen=True)
class Leximin(_Ordering):
    tag = "leximin"

    def value(self, u):
        raise ConfigError("leximin is not value-based")

    def compare(self, u, v, cross_size, tolerance):
        return leximin_compare(u, v)


@dataclass(frozen=True)
class Rdu(_Ordering):
    rho: Fraction
    g: GFunction
    tag = "rdu"
    config_fields = {"rho": LEVEL, "g": TRANSFORM}
    config_defaults = {"g": "identity"}

    def __post_init__(self):
        super().__post_init__()
        if self.rho <= 0:
            raise ConfigError("discount factor rho must be positive")

    @property
    def warnings(self) -> tuple[str, ...]:
        if self.rho <= 1:
            return ("rho <= 1: rank discounting is reversed or absent",)
        return ()

    def value(self, u):
        return rdu_value(u, self)

    def compare(self, u, v, cross_size, tolerance):
        return rdu_compare(u, v, self, tolerance)


@dataclass(frozen=True)
class _Shortfall(_Ordering):
    """A shortfall term below theta_p weighted by the schedule's lambda_n."""

    theta_p: Fraction
    schedule: LambdaSchedule
    allow_degenerate = False
    config_fields = {"theta_p": LEVEL, "schedule": _SCHEDULE}

    def lambda_for(self, n: int) -> Fraction:
        lam = self.schedule.value_for(n)
        if self.allow_degenerate:
            if not 0 <= lam < 1:
                raise ConfigError(f"weight {format_level(lam)} outside [0, 1)")
        elif not 0 < lam < 1:
            raise ConfigError(f"weight {format_level(lam)} outside (0, 1)")
        return lam


@dataclass(frozen=True)
class SuffAvg(_Shortfall):
    """Shortfall-plus-average rule with threshold theta_p.

    ``allow_degenerate`` admits a weight of exactly 0 (plain average
    utilitarianism), used as a test extension only.
    """

    allow_degenerate: bool = False
    tag = "suffavg"

    @property
    def warnings(self) -> tuple[str, ...]:
        if self.theta_p <= 0:
            return ("theta_p <= 0: the rule is defined with a positive threshold",)
        return ()

    def value(self, u):
        return ExactValue(suffavg_value(u, self))


_WEIGHTS_TABLE = table(LEVELS)


@dataclass(frozen=True)
class MultiThreshold(_Ordering):
    """Several nested shortfall terms below increasing thresholds."""

    thetas: tuple[Fraction, ...]
    weights: tuple[Fraction, ...] | None = None
    weights_table: tuple[tuple[int, tuple[Fraction, ...]], ...] | None = None
    tag = "multithreshold"
    config_fields = {"thetas": LEVELS, "weights": LEVELS, "weights_table": _WEIGHTS_TABLE}
    config_defaults = {"weights": None, "weights_table": None}

    def __post_init__(self):
        super().__post_init__()
        if any(b <= a for a, b in zip(self.thetas, self.thetas[1:])):
            raise ConfigError("thresholds must be strictly increasing")
        if (self.weights is None) == (self.weights_table is None):
            raise ConfigError("give exactly one of weights / weights_table")
        for w in self._weight_vectors():
            if len(w) != len(self.thetas) + 1:
                raise ConfigError("need one weight per threshold plus the average weight")
            if any(not 0 < x < 1 for x in w):
                raise ConfigError("weights must lie in (0, 1)")
            if sum(w) != 1:
                raise ConfigError("weights must sum to 1 exactly")

    def _weight_vectors(self) -> list[tuple[Fraction, ...]]:
        if self.weights is not None:
            return [self.weights]
        return [w for _, w in self.weights_table]

    @property
    def warnings(self) -> tuple[str, ...]:
        for w in self._weight_vectors():
            if any(b >= a for a, b in zip(w, w[1:])):
                return (
                    "weights are not strictly decreasing: deeper-poverty terms "
                    "are defined to weigh more",
                )
        return ()

    def weights_for(self, n: int) -> tuple[Fraction, ...]:
        if self.weights is not None:
            return self.weights
        return _tabulated(self.weights_table, n, "weights")

    def value(self, u):
        return ExactValue(multithreshold_value(u, self))


@dataclass(frozen=True)
class RankWeighted(_Shortfall):
    """Shortfall term plus a rank-weighted average (worst-off weighted most)."""

    weights_table: tuple[tuple[int, tuple[Fraction, ...]], ...]
    tag = "rankweighted"
    config_fields = {**_Shortfall.config_fields, "weights_table": _WEIGHTS_TABLE}

    def __post_init__(self):
        super().__post_init__()
        for n, w in self.weights_table:
            if len(w) != n:
                raise ConfigError(f"need {n} rank weights for population size {n}")
            if any(x <= 0 for x in w):
                raise ConfigError("rank weights must be positive")
            if sum(w) != 1:
                raise ConfigError("rank weights must sum to 1 exactly")
            if any(b > a for a, b in zip(w, w[1:])):
                raise ConfigError("rank weights must be nonincreasing in rank")

    def weights_for(self, n: int) -> tuple[Fraction, ...]:
        return _tabulated(self.weights_table, n, "rank weights")

    def value(self, u):
        return ExactValue(rankweighted_value(u, self))


@dataclass(frozen=True)
class BoundedG(_Shortfall):
    """Shortfall term plus the average of a bounded concave transform."""

    g: GFunction
    tag = "boundedg"
    config_fields = {**_Shortfall.config_fields, "g": TRANSFORM}

    @property
    def warnings(self) -> tuple[str, ...]:
        if self.g.upper_bound is None:
            return ("transform has no upper bound: large gains are not capped",)
        return ()

    def value(self, u):
        return boundedg_value(u, self)


@dataclass(frozen=True)
class ConcavePoor(_Shortfall):
    """Concave transform applied to the shortfall term, plain average kept."""

    g: GFunction
    tag = "concavepoor"
    config_fields = {**_Shortfall.config_fields, "g": TRANSFORM}

    def value(self, u):
        return concavepoor_value(u, self)


OrderingSpec = Leximin | Rdu | SuffAvg | MultiThreshold | RankWeighted | BoundedG | ConcavePoor

_ORDERINGS = {cls.tag: cls for cls in OrderingSpec.__args__}


# ---------------------------------------------------------------------------
# leximin


def leximin_compare(u: Profile, v: Profile) -> CompareResult:
    """Lexicographic maximin: worst-off first, then second worst, ...

    Profiles of different sizes are incomparable (the rule says nothing
    across population sizes).
    """
    if len(u) != len(v):
        return CompareResult(
            Verdict.INCOMPARABLE, note="leximin compares equal population sizes only"
        )
    ublocks = u.sorted_blocks()
    vblocks = v.sorted_blocks()
    iu = iv = 0
    ucnt = vcnt = 0
    while iu < len(ublocks):
        uval, un = ublocks[iu]
        vval, vn = vblocks[iv]
        if uval != vval:
            verdict = Verdict.STRICTLY_BETTER if uval > vval else Verdict.STRICTLY_WORSE
            return CompareResult(verdict)
        take = min(un - ucnt, vn - vcnt)
        ucnt += take
        vcnt += take
        if ucnt == un:
            iu += 1
            ucnt = 0
        if vcnt == vn:
            iv += 1
            vcnt = 0
    return CompareResult(Verdict.EQUIVALENT)


# ---------------------------------------------------------------------------
# rank-discounted generalized utilitarianism


def _rdu_float(u: Profile, p: Rdu) -> FloatValue:
    rho = float(p.rho)
    log_r = -math.log(rho)
    total = comp = 0.0
    err = abs_sum = 0.0
    start = 0  # 0-based rank of the first entry of the block
    for value, count in u.sorted_blocks():
        gv = p.g.value(value)
        if p.rho == 1:
            term = gv * count
            cond = 2.0
        else:
            x_s = start * log_r
            x_c = count * log_r
            weight = math.exp(x_s)
            geom = -math.expm1(x_c) / -math.expm1(log_r)
            term = gv * weight * geom
            cond = 8.0 + abs(x_s) + abs(x_c)
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        abs_sum += abs(term)
        err += _EPS * abs(term) * cond
        start += count
    value = total + comp
    return FloatValue(value, err + 4 * _EPS * abs_sum)


_CUM_TABLE_LIMIT = 64


@lru_cache(maxsize=512)
def _weight_prefix_sums(rho: Fraction, n: int) -> tuple[Fraction, ...]:
    """cum[i] = sum of rho**(-j) for j < i; cached for small populations."""
    r = 1 / rho
    cum = [Fraction(0)]
    weight = Fraction(1)
    for _ in range(n):
        cum.append(cum[-1] + weight)
        weight *= r
    return tuple(cum)


def _rdu_exact(u: Profile, p: Rdu) -> Fraction:
    total = Fraction(0)
    start = 0
    n = len(u)
    if p.rho != 1 and n <= _CUM_TABLE_LIMIT:
        cum = _weight_prefix_sums(p.rho, n)
        for value, count in u.sorted_blocks():
            total += p.g.exact(value) * (cum[start + count] - cum[start])
            start += count
        return total
    r = 1 / p.rho
    for value, count in u.sorted_blocks():
        gv = p.g.exact(value)
        if p.rho == 1:
            total += gv * count
        else:
            total += gv * r**start * (1 - r**count) / (1 - r)
        start += count
    return total


def rdu_value(u: Profile, p: Rdu) -> FloatValue:
    """Sum over ascending ranks i (0-based) of rho**(-i) * g(level).

    Compensated blockwise summation; the returned bound is an
    a-posteriori absolute error estimate.
    """
    return _rdu_float(u, p)


def rdu_value_exact(u: Profile, p: Rdu) -> Fraction:
    """Exact rational RDU value; requires an exact transform."""
    return _rdu_exact(u, p)


def rdu_compare(
    u: Profile, v: Profile, p: Rdu, tolerance: Fraction = DEFAULT_TOLERANCE
) -> CompareResult:
    """Compare by RDU value; sizes may differ (the sum is well defined).

    With an exact transform and moderate populations both values are
    exact. Otherwise float values are compared, and a difference inside
    the combined error bound (or the relative tolerance) is retried
    exactly when the transform allows it; failing that, the result is
    flagged as numerically tied and reported as equivalent.
    """
    if p.g.is_exact and len(u) + len(v) <= RDU_EXACT_LIMIT:
        return _resolve(ExactValue(_rdu_exact(u, p)), ExactValue(_rdu_exact(v, p)), tolerance)
    exact = (lambda: _rdu_exact(u, p) - _rdu_exact(v, p)) if p.g.is_exact else None
    return _resolve(_rdu_float(u, p), _rdu_float(v, p), tolerance, exact)


def _sign_verdict(diff) -> Verdict:
    if diff > 0:
        return Verdict.STRICTLY_BETTER
    if diff < 0:
        return Verdict.STRICTLY_WORSE
    return Verdict.EQUIVALENT


# ---------------------------------------------------------------------------
# sufficientarian-average rule and variants


def _shortfall(u: Profile, theta: Fraction) -> Fraction:
    """Sum of (level - theta) over entries strictly below theta (<= 0)."""
    return sum(((v - theta) * c for v, c in u.blocks if v < theta), Fraction(0))


def suffavg_value(u: Profile, p: SuffAvg) -> Fraction:
    """lambda_n * shortfall + (1 - lambda_n) * mean, exact."""
    lam = p.lambda_for(len(u))
    return lam * _shortfall(u, p.theta_p) + (1 - lam) * u.mean()


def gn_eval(x, n: int, p: SuffAvg) -> Fraction:
    """Per-person value whose sum over a profile equals suffavg_value."""
    x = as_level(x)
    lam = p.lambda_for(n)
    base = (1 - lam) * x / n
    if x < p.theta_p:
        return lam * (x - p.theta_p) + base
    return base


def multithreshold_value(u: Profile, p: MultiThreshold) -> Fraction:
    n = len(u)
    weights = p.weights_for(n)
    total = Fraction(0)
    for theta, w in zip(p.thetas, weights):
        total += w * _shortfall(u, theta)
    return total + weights[-1] * u.mean()


def rankweighted_value(u: Profile, p: RankWeighted) -> Fraction:
    n = len(u)
    lam = p.lambda_for(n)
    weights = p.weights_for(n)
    weighted = Fraction(0)
    position = 0
    for value, count in u.sorted_blocks():
        weighted += value * sum(weights[position : position + count])
        position += count
    return lam * _shortfall(u, p.theta_p) + (1 - lam) * weighted


def boundedg_value(u: Profile, p: BoundedG) -> Valuation:
    """Shortfall term exact; transformed average exact only when g is."""
    n = len(u)
    lam = p.lambda_for(n)
    first = lam * _shortfall(u, p.theta_p)
    if p.g.is_exact:
        avg = sum((p.g.exact(v) * c for v, c in u.blocks), Fraction(0)) / n
        return ExactValue(first + (1 - lam) * avg)
    total = err = 0.0
    for v, c in u.blocks:
        term = p.g.value(v) * c
        total += term
        err += 8 * _EPS * abs(term)
    second = float(1 - lam) * total / n
    return FloatValue(float(first) + second, err / n + 8 * _EPS * (abs(second) + abs(float(first))))


def concavepoor_value(u: Profile, p: ConcavePoor) -> Valuation:
    """Concave transform of the shortfall entries, plain average second term."""
    n = len(u)
    lam = p.lambda_for(n)
    mean_term = (1 - lam) * u.mean()
    if p.g.is_exact:
        g_theta = p.g.exact(p.theta_p)
        short = sum(
            ((p.g.exact(v) - g_theta) * c for v, c in u.blocks if v < p.theta_p),
            Fraction(0),
        )
        return ExactValue(lam * short + mean_term)
    g_theta = p.g.value(p.theta_p)
    total = err = 0.0
    for v, c in u.blocks:
        if v < p.theta_p:
            term = (p.g.value(v) - g_theta) * c
            total += term
            err += 8 * _EPS * (abs(term) + abs(g_theta) * c)
    first = float(lam) * total
    return FloatValue(first + float(mean_term), float(lam) * err + 8 * _EPS * abs(first))


# ---------------------------------------------------------------------------
# uniform dispatch


def evaluate(spec: OrderingSpec, u: Profile) -> Valuation:
    """Value of a profile under a value-based ordering."""
    return spec.value(u)


def _resolve(
    a: Valuation, b: Valuation, tolerance: Fraction, exact=None
) -> CompareResult:
    """The verdict on two valuations, and the one place a float near-tie is decided.

    Exact valuations compare exactly. Float ones are separated when their
    difference exceeds the combined error bound plus the relative
    tolerance; otherwise ``exact()``, when given, supplies the exact
    difference; otherwise the result is a flagged numerical tie.
    """
    if a.is_exact and b.is_exact:
        diff = a.value - b.value
        return CompareResult(_sign_verdict(diff), margin=float(diff))
    af, bf = float(a), float(b)
    diff = af - bf
    threshold = a.bound + b.bound + float(tolerance) * max(abs(af), abs(bf))
    if abs(diff) > threshold:
        return CompareResult(_sign_verdict(diff), margin=diff)
    if exact is not None:
        exact_diff = exact()
        return CompareResult(_sign_verdict(exact_diff), margin=float(exact_diff))
    return CompareResult(
        Verdict.EQUIVALENT,
        margin=diff,
        numerically_tied=True,
        note="difference within combined error bound",
    )


def swo_compare(
    spec: OrderingSpec,
    u: Profile,
    v: Profile,
    *,
    cross_size: bool = False,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> CompareResult:
    """Uniform comparison dispatch.

    Population-size-dependent value rules refuse cross-size comparisons
    unless the ``cross_size`` opt-in is set; RDU compares any sizes
    directly; leximin never compares across sizes.
    """
    return spec.compare(u, v, cross_size, tolerance)


# ---------------------------------------------------------------------------
# configuration documents


def ordering_to_config(spec: OrderingSpec) -> dict:
    return spec.encode_fields({"ordering": spec.tag})


def ordering_from_config(doc: Mapping) -> OrderingSpec:
    if not isinstance(doc, Mapping) or "ordering" not in doc:
        raise ConfigError("ordering config must be a mapping with an 'ordering' tag")
    cls = _ORDERINGS.get(str(doc["ordering"]))
    if cls is None:
        raise ConfigError(f"unknown ordering tag {doc['ordering']!r}")
    return cls.from_fields(doc, "ordering parameter")
