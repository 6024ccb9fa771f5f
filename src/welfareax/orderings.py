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

Piecewise-linear rules evaluate in exact rational arithmetic, on int
numerators over a common denominator (the profile's stored form, its
ascending ``ranked`` view for rank-order rules, or their images under an
exact transform, ``exact_scaled``), into an ``ExactValue``: an int over a
positive int, not reduced on the way to a verdict. Exact RDU weighs each
block of ranks by one integer geometric sum, ``geometric_sum``, and the
rank-weighted rule by differences of its weights' int prefix sums. RDU
and the transformed variants pass the same int numerators to the
transform's ``value`` and sum floats with ``math.fsum`` in ``_float_sum``,
under a bound derived from each block's conditioning and each
transform's stated error. One function, ``_resolve``, decides every
verdict on two valuations: by the sign of one cross-multiplication when
both are exact, else by the float difference against the combined bound
plus a fixed relative slack, ``TOLERANCE`` = 10^-12, then as equivalent
when the profiles hold the same levels, then by an exact fallback where
one exists (RDU with an exact transform), else as a flagged numerical tie.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .codec import LEVEL, LEVELS, Record, read_tagged, table
from .errors import ConfigError, FloatRangeError, MissingLambda
from .gfunctions import EPS, TINY, TRANSFORM, GFunction
from .profiles import (
    CompareResult,
    Profile,
    Verdict,
    _cached,
    as_level,
    block_runs,
    ceil_ratio,
    format_level,
    over_common_denominator,
)

#: Relative slack added to the combined error bound of a float verdict.
TOLERANCE = 1e-12

#: Largest total population for which an exact RDU comparison is attempted.
RDU_EXACT_LIMIT = 20_000


# ---------------------------------------------------------------------------
# valuations


@dataclass(frozen=True, slots=True, eq=False)
class ExactValue:
    """numerator / denominator, ints with denominator > 0, unreduced; ``value`` reduces it."""

    numerator: int
    denominator: int
    is_exact = True
    bound = 0.0

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactValue) and self.value == other.value

    def __float__(self) -> float:
        return self.numerator / self.denominator  # int true division rounds correctly

    def __str__(self) -> str:
        return f"{format_level(self.value)} (exact)"


@dataclass(frozen=True, slots=True)
class FloatValue:
    value: float
    bound: float
    is_exact = False

    def __float__(self) -> float:
        return self.value

    def as_integer_ratio(self) -> tuple[int, int]:
        return self.value.as_integer_ratio()

    def __str__(self) -> str:
        return f"{self.value!r} (error bound {self.bound:.3e})"


Valuation = ExactValue | FloatValue


def _float_or_inf(x) -> float:
    """x (a ``Fraction`` or an ``ExactValue``) as a float, or +-inf beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x.numerator > 0 else -math.inf


def _weighted_sum(*terms: tuple[int, int, int, int]) -> ExactValue:
    """The sum of (wn / wd) * (a / d) over int terms (wn, wd, a, d), wd, d > 0, unreduced."""
    num, den = 0, 1
    for wn, wd, a, d in terms:
        d *= wd
        num, den = num * d + wn * a * den, den * d
    return ExactValue(num, den)


def _float_sum(terms: list[float], errors: list[float]) -> FloatValue:
    """The sum of float terms, each within its absolute error of the true term.

    ``math.fsum`` rounds the terms' exact sum once, so the result S is within
    sum(errors) + ulp(S)/2 of the true sum. The float sum of m errors is
    widened by (1 + m EPS) (Higham, ch. 4), and the bound by (1 + 2 EPS) for
    its own roundings. The errors are first-order, with coefficients rounded
    up, and assume libm calls within one ulp. An overflowing sum, or one
    meeting inf - inf, is the plain float sum with an infinite bound.
    """
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):
        return FloatValue(sum(terms), math.inf)
    bound = sum(errors) * (1 + len(errors) * EPS) + math.ulp(total) / 2
    return FloatValue(total, bound * (1 + 2 * EPS))


# ---------------------------------------------------------------------------
# per-population weight schedules


def _tabulated(table, n: int, what: str):
    """The entry of a ((n, entry), ...) table for population size n."""
    for size, entry in table:
        if size == n:
            return entry
    raise MissingLambda(f"no {what} tabulated for population size {n}")


@dataclass(frozen=True)
class ConstantLambda(Record):
    value: Fraction
    config_fields = {"value": LEVEL}

    def value_for(self, n: int) -> Fraction:
        return self.value


_LEVEL_TABLE = table(LEVEL)


@dataclass(frozen=True)
class TableLambda(Record):
    """Rows (n, weight), held sorted by n."""

    table: tuple[tuple[int, Fraction], ...]
    config_fields = {"table": _LEVEL_TABLE}

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "table", tuple(sorted(self.table)))

    def value_for(self, n: int) -> Fraction:
        return _tabulated(self.table, n, "weight")

    @staticmethod
    def from_mapping(mapping: Mapping[int, object]) -> "TableLambda":
        return TableLambda(mapping)


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
            self._cache[n] = lambda_midpoint(lower, upper)
        return self._cache[n]


LambdaSchedule = ConstantLambda | TableLambda | MidpointLambda

# codec choice: a schedule is written under the document key of its type
_SCHEDULE = {
    "lambda": (ConstantLambda, lambda s: format_level(s.value), ConstantLambda),
    "lambda_table": (TableLambda, lambda s: _LEVEL_TABLE[1](s.table), TableLambda),
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


def lambda_midpoint(lower: Fraction, upper: Fraction) -> Fraction:
    """The weight ``MidpointLambda`` takes: the midpoint of (max(lower, 0), min(upper, 1))."""
    return (max(lower, Fraction(0)) + min(upper, Fraction(1))) / 2


# ---------------------------------------------------------------------------
# orderings


class _Ordering(Record):
    """Rules shared by the ordering dataclasses; each overrides what differs."""

    tag = ""

    def compare(self, u: Profile, v: Profile, cross_size: bool) -> CompareResult:
        """Verdict on u against v; value rules depend on the population size."""
        if len(u) != len(v) and not cross_size:
            return CompareResult(
                Verdict.INCOMPARABLE,
                note=(
                    "value function is population-size dependent; "
                    "pass cross_size=True to compare raw values"
                ),
            )
        return _resolve(u, v, evaluate(self, u), evaluate(self, v))


@dataclass(frozen=True)
class Leximin(_Ordering):
    tag = "leximin"

    def value(self, u):
        raise ConfigError("leximin is not value-based")

    def compare(self, u, v, cross_size):
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

    @_cached
    def _weights(self) -> tuple[float, float, float, float, float]:
        """``rdu_value``'s (L, k_s, k_c, k0, expm1(L)), computed once per ordering."""
        y = float(self.rho - 1)
        if abs(y) < 2.0**-1022:  # flat weights, each within exp(2 n |y|) of 1
            # dL = 4 n |y| / EPS < 2**-904 for any n <= sys.maxsize, so k0 rounds to 6 at every n
            L, dL = 0.0, 4 * sys.maxsize * abs(y) / EPS
        elif not float(self.rho):  # rho rounds to 0.0, and its weights rho**-i are no floats
            raise FloatRangeError(f"rho {format_level(self.rho)} is below the float range")
        else:
            L = -math.log1p(y) if y > -0.5 else -math.log(float(self.rho))
            dL = 1 + abs(y / ((1 + y) * L)) / 2
        # cond = k_s s + k_c c + k0, as |s L| + max(c L, 0) = |L| s + max(L, 0) c
        k_s, k_c = (1 + dL) * abs(L), (1 + dL) * max(L, 0.0)
        return L, k_s, k_c, 6 + dL * (2 + max(L, 0.0)), math.expm1(L)

    def value(self, u):
        return rdu_value(u, self)

    def compare(self, u, v, cross_size):
        return rdu_compare(u, v, self)


@dataclass(frozen=True)
class _Shortfall(_Ordering):
    """A shortfall term below theta_p weighted by the schedule's lambda_n."""

    theta_p: Fraction
    schedule: LambdaSchedule
    config_fields = {"theta_p": LEVEL, "schedule": _SCHEDULE}

    def lambda_for(self, n: int) -> tuple[int, int]:
        lam = self.schedule.value_for(n)
        if not 0 < lam.numerator < lam.denominator:
            raise ConfigError(f"weight {format_level(lam)} outside (0, 1)")
        return lam.numerator, lam.denominator


@dataclass(frozen=True)
class SuffAvg(_Shortfall):
    """Shortfall-plus-average rule with threshold theta_p."""

    tag = "suffavg"

    @property
    def warnings(self) -> tuple[str, ...]:
        if self.theta_p <= 0:
            return ("theta_p <= 0: the rule is defined with a positive threshold",)
        return ()

    def value(self, u):
        """lambda_n * shortfall + (1 - lambda_n) * mean, exact."""
        ln, ld = self.lambda_for(len(u))
        short, mean = _shortfall(u, self.theta_p), u.scaled_mean()
        return _weighted_sum((ln, ld, *short), (ld - ln, ld, *mean))


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
        weights = self.weights_for(len(u))
        terms = [(*w.as_integer_ratio(), *_shortfall(u, t)) for t, w in zip(self.thetas, weights)]
        return _weighted_sum(*terms, (*weights[-1].as_integer_ratio(), *u.scaled_mean()))


@dataclass(frozen=True)
class RankWeighted(_Shortfall):
    """Shortfall term plus a rank-weighted average (worst-off weighted most)."""

    weights_table: tuple[tuple[int, tuple[Fraction, ...]], ...]
    tag = "rankweighted"
    config_fields = {**_Shortfall.config_fields, "weights_table": _WEIGHTS_TABLE}

    def __post_init__(self):
        super().__post_init__()
        prefix = []  # per n: the prefix sums of its weights, as ints over one denominator
        for n, w in self.weights_table:
            if len(w) != n:
                raise ConfigError(f"need {n} rank weights for population size {n}")
            if any(x <= 0 for x in w):
                raise ConfigError("rank weights must be positive")
            if sum(w) != 1:
                raise ConfigError("rank weights must sum to 1 exactly")
            if any(b > a for a, b in zip(w, w[1:])):
                raise ConfigError("rank weights must be nonincreasing in rank")
            prefix.append((n, over_common_denominator(list(itertools.accumulate(w, initial=0)))))
        object.__setattr__(self, "_prefix", tuple(prefix))

    def value(self, u):
        ln, ld = self.lambda_for(len(u))
        wden, prefix = _tabulated(self._prefix, len(u), "rank weights")
        den, numerators, counts = u.ranked
        ends = itertools.accumulate(counts)  # ranks e-c..e-1 weigh prefix[e] - prefix[e-c]
        weighted = sum(a * (prefix[e] - prefix[e - c]) for a, c, e in zip(numerators, counts, ends))
        short = _shortfall(u, self.theta_p)
        return _weighted_sum((ln, ld, *short), (ld - ln, ld, weighted, den * wden))


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
    du, nu, cu = u.ranked
    dv, nv, cv = v.ranked
    for _, _, a, b in block_runs(zip(nu, cu), zip(nv, cv)):
        diff = a * dv - b * du
        if diff:
            return CompareResult(_sign_verdict(diff))
    return CompareResult(Verdict.EQUIVALENT)


# ---------------------------------------------------------------------------
# rank-discounted generalized utilitarianism


def geometric_sum(a: int, b: int, k: int) -> int:
    """G(a, b, k) = sum over t < k of a**(k-1-t) * b**t = (a**k - b**k) / (a - b).

    For rho = a/b in lowest terms, a == b only at rho = 1, where G is k.
    """
    return k if a == b else (a**k - b**k) // (a - b)


def rdu_value(u: Profile, p: Rdu) -> FloatValue:
    """Sum over ascending ranks i (0-based) of rho**(-i) * g(level), in floats.

    With L = log(1/rho), the c ranks from rank s weigh exp(s L) expm1(c L) /
    expm1(L). L = -log1p(rho - 1) (-log(rho) below rho = 1/2) is off by dL
    EPS relative, dL = 1 + kappa/2 with kappa the condition of log1p; L = 0
    within 2**-1022 of rho = 1 leaves each weight within exp(2 n |rho - 1|)
    of c. An argument x = s L or c L is then off by (1 + dL) EPS |x|, which
    moves exp(x) by as much and expm1(x) by (1 + max(x, 0)) times as much,
    relative. With an ulp per libm call and half an ulp per division and
    product, a term is off by R = cond EPS relative, cond = (1 + dL)(|s L| +
    max(c L, 0) + 1) + dL (1 + max(L, 0)) + 5, taken as R (1 + R) for the
    second order; each product that underflows adds 2**-1074 times what
    multiplies it later. A weight beyond the float range raises
    ``FloatRangeError``.
    """
    try:
        L, k_s, k_c, k0, em1 = p._weights
        g = p.g
        terms, errors = [], []
        start = 0
        den, numerators, counts = u.ranked
        for a, count in zip(numerators, counts):
            gv = g.value(a, den)
            e = math.exp(start * L)
            geom = math.expm1(count * L) / em1 if L else float(count)
            rel = (k_s * start + k_c * count + k0) * EPS
            terms.append(gv * e * geom)
            errors.append(
                (g.error(a, gv, den) + abs(gv) * rel * (1 + rel)) * e * geom
                + (abs(gv) * geom + geom + 1) * TINY
            )
            start += count
        return _float_sum(terms, errors)
    except OverflowError:
        pass  # raised below, so that the error holds no frame of this call
    raise FloatRangeError(f"RDU weights at rho {format_level(p.rho)} exceed the float range")


def rdu_value_exact(u: Profile, p: Rdu) -> Fraction:
    """Exact rational RDU value, reduced; requires an exact transform."""
    return _rdu_exact(u, p).value


def _rdu_exact(u: Profile, p: Rdu) -> ExactValue:
    """Exact RDU value; requires an exact transform.

    With rho = a/b, rank i weighs a**(n-1-i) * b**i over a**(n-1), so c ranks
    from rank s weigh b**s * a**(n-s-c) * G(a, b, c) over a**(n-1), all in ints.
    """
    a, b = p.rho.numerator, p.rho.denominator
    n = len(u)
    den, numerators, counts = u.ranked
    den, gs = p.g.exact_scaled(den, numerators)
    total = start = 0
    for gx, count in zip(gs, counts):
        total += gx * b**start * a ** (n - start - count) * geometric_sum(a, b, count)
        start += count
    return ExactValue(total, den * a ** (n - 1))


def rdu_compare(u: Profile, v: Profile, p: Rdu) -> CompareResult:
    """Compare by RDU value; sizes may differ (the sum is well defined).

    With an exact transform, moderate populations compare exactly and
    larger ones by float values with an exact retry of a near-tie.
    """
    if p.g.is_exact and len(u) + len(v) <= RDU_EXACT_LIMIT:
        return _resolve(u, v, _rdu_exact(u, p), _rdu_exact(v, p))
    exact = (lambda: (_rdu_exact(u, p), _rdu_exact(v, p))) if p.g.is_exact else None
    return _resolve(u, v, rdu_value(u, p), rdu_value(v, p), exact)


def _sign_verdict(diff) -> Verdict:
    if diff > 0:
        return Verdict.STRICTLY_BETTER
    if diff < 0:
        return Verdict.STRICTLY_WORSE
    return Verdict.EQUIVALENT


# ---------------------------------------------------------------------------
# sufficientarian-average rule and variants


def _shortfall(u: Profile, theta: Fraction) -> tuple[int, int]:
    """Sum of (level - theta) over entries strictly below theta (<= 0), as (num, den)."""
    q, t = theta.denominator, theta.numerator * u.den  # a / den < theta  <=>  a * q < t
    return sum((a * q - t) * c for a, c in zip(u.numerators, u.counts) if a * q < t), u.den * q


def suffavg_value(u: Profile, p: SuffAvg) -> Fraction:
    return p.value(u).value


def gn_eval(x, n: int, p: SuffAvg) -> Fraction:
    """Per-person value whose sum over a profile equals suffavg_value: an nth of n people at x."""
    return p.value(Profile.constant(x, n)).value / n


def multithreshold_value(u: Profile, p: MultiThreshold) -> Fraction:
    return p.value(u).value


def rankweighted_value(u: Profile, p: RankWeighted) -> Fraction:
    return p.value(u).value


def _transformed_sum(
    g: GFunction, den: int, numerators, weights, offset: tuple, scale: tuple
) -> Valuation:
    """offset + scale * (sum of g(a / den) * w over numerators a and int weights w), offset
    and scale as (num, den) int pairs. Exact when g is; otherwise a term float(scale) * w *
    g(x) is off by g's error times |scale * w| plus four roundings, and float(offset) by one.
    """
    if g.is_exact:
        den, gs = g.exact_scaled(den, numerators)
        total = sum(gx * w for gx, w in zip(gs, weights))
        return _weighted_sum((1, 1, *offset), (*scale, total, den))
    sc = scale[0] / scale[1]
    terms, errors = [], []
    for a, w in zip(numerators, weights):
        gx = g.value(a, den)
        f = sc * w
        t = gx * f
        terms.append(t)
        errors.append(g.error(a, gx, den) * abs(f) + 3 * EPS * abs(t) + (abs(gx) + 1) * TINY)
    try:  # after g, which names a level beyond the float range
        off = offset[0] / offset[1]
    except OverflowError:
        raise FloatRangeError("the mean term exceeds the float range") from None
    terms.append(off)
    errors.append(EPS * abs(off) + TINY)
    return _float_sum(terms, errors)


def boundedg_value(u: Profile, p: BoundedG) -> Valuation:
    """lambda_n * shortfall + (1 - lambda_n) * mean of g over the entries."""
    ln, ld = p.lambda_for(len(u))
    below, den = _shortfall(u, p.theta_p)
    offset, scale = (ln * below, ld * den), (ld - ln, ld * len(u))
    return _transformed_sum(p.g, u.den, u.numerators, u.counts, offset, scale)


def concavepoor_value(u: Profile, p: ConcavePoor) -> Valuation:
    """lambda_n * sum of (g(x) - g(theta_p)) over entries below theta_p, plus
    (1 - lambda_n) * mean; g(theta_p) enters as one more level, so the difference
    cancels inside the sum."""
    ln, ld = p.lambda_for(len(u))
    q, t = p.theta_p.denominator, p.theta_p.numerator * u.den  # theta_p is t / (den q)
    below = [(a * q, c) for a, c in zip(u.numerators, u.counts) if a * q < t]
    numerators, weights = zip(*below, (t, -sum(c for _, c in below)))
    total, den = u.scaled_mean()
    offset = ((ld - ln) * total, ld * den)
    return _transformed_sum(p.g, u.den * q, numerators, weights, offset, (ln, ld))


# ---------------------------------------------------------------------------
# uniform dispatch


def evaluate(spec: OrderingSpec, u: Profile) -> Valuation:
    """Value of a profile under a value-based ordering."""
    return spec.value(u)


def _resolve(u: Profile, v: Profile, a: Valuation, b: Valuation, exact=None) -> CompareResult:
    """The verdict on valuations a of u and b of v; the one place a float near-tie is decided.

    Exact valuations compare exactly. Float ones are separated when their
    difference exceeds the combined error bound plus ``TOLERANCE`` times
    the larger magnitude; otherwise u and v with the same levels are
    equivalent (every value rule here is anonymous), else ``exact()``, when
    given, supplies exact valuations of both, else the result is a flagged
    numerical tie.
    """
    if not (a.is_exact and b.is_exact):
        af, bf = float(a), float(b)
        diff = af - bf
        threshold = a.bound + b.bound + TOLERANCE * max(abs(af), abs(bf))
        if abs(diff) > threshold:
            return CompareResult(_sign_verdict(diff), margin=diff)
        if u.same_multiset(v):
            return CompareResult(Verdict.EQUIVALENT, margin=0.0)
        if exact is None:
            return CompareResult(
                Verdict.EQUIVALENT,
                margin=diff,
                numerically_tied=True,
                note="difference within combined error bound",
            )
        a, b = exact()
    # the sign of one cross-multiplication; the margin is one correctly rounded division
    diff = ExactValue(
        a.numerator * b.denominator - b.numerator * a.denominator, a.denominator * b.denominator
    )
    return CompareResult(_sign_verdict(diff.numerator), margin=_float_or_inf(diff))


def swo_compare(
    spec: OrderingSpec, u: Profile, v: Profile, *, cross_size: bool = False
) -> CompareResult:
    """Uniform comparison dispatch.

    Population-size-dependent value rules refuse cross-size comparisons
    unless the ``cross_size`` opt-in is set; RDU compares any sizes
    directly; leximin never compares across sizes.
    """
    return spec.compare(u, v, cross_size)


# ---------------------------------------------------------------------------
# configuration documents


def ordering_to_config(spec: OrderingSpec) -> dict:
    return spec.encode_fields({"ordering": spec.tag})


def ordering_from_config(doc: Mapping) -> OrderingSpec:
    return read_tagged(_ORDERINGS, doc, "ordering", "ordering")
