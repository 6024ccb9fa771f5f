"""Constructive impossibility and characterization chains, plus the
rank-discounting threshold reports.

``build_prop1_chain`` .. ``build_prop4_chain`` replay four constructive
arguments as validated certificates:

1. weak Pareto + quantitative aggregation + minimal non-aggregation are
   jointly contradictory (no replication needed);
2. weak Pareto + Pigou-Dalton + replication invariance + ratio
   aggregation + minimal non-aggregation are jointly contradictory;
3. weak Pareto + replication invariance + ratio aggregation + minimal
   non-aggregation are jointly contradictory whenever some h, n satisfy
   n > h * ceil(lam * n) and h * delta > alpha;
4. leximin dominance: for same-size profiles that leximin ranks
   strictly, a chain of strong non-aggregation, strong Pareto,
   anonymity and a replication descent certifies the strict ranking.

All chain parameters (counts h, l, k and level placements) are chosen
as the smallest exact rationals satisfying the required inequalities,
with a margin of one unit where strictness is needed, so the builders
are deterministic and every step validates exactly.

``prop5_nonagg_condition`` evaluates the closed-form condition under
which rank-discounted generalized utilitarianism with discount rho > 1
satisfies minimal non-aggregation; ``prop5_ratio_failure`` scans, on
integers, for the population size at which it must violate ratio
aggregation and returns a concrete violated instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

from .axioms import (
    _MAGNITUDES,
    Anonymity,
    CheckResult,
    MinimalNonAggregation,
    PigouDalton,
    QuantitativeAggregation,
    RatioAggregation,
    StrongNonAggregation,
    StrongPareto,
    WeakPareto,
    _require,
    check_axiom,
)
from .chains import AxiomStep, ChainKind, DerivationChain, DescentStep, LiftStep
from .codec import LEVEL
from .errors import FloatRangeError, InfeasibleParameters
from .gfunctions import EPS, TINY, GFunction
from .orderings import Rdu, _float_or_inf, _float_sum, geometric_sum, leximin_compare
from .profiles import (
    IndexSet,
    Profile,
    Verdict,
    argsort,
    as_level,
    block_runs,
    ceil_ratio,
    replicate,
    sorting_permutation,
)


def _count_exceeding(threshold: Fraction, unit: Fraction) -> int:
    """Smallest positive integer c with c * unit > threshold."""
    return int(threshold // unit) + 1


def _magnitudes(arguments: dict, *types) -> list:
    """The magnitudes among a builder's ``arguments`` (its ``locals()`` before it
    rebinds one), in order, levels exact, checked by the ``magnitude_clauses`` of
    the axiom ``types`` its chain instantiates."""
    p = SimpleNamespace()
    for name, x in arguments.items():
        if name in _MAGNITUDES:
            setattr(p, name, as_level(x) if _MAGNITUDES[name] is LEVEL else x)
    failures = [text for cls in types for text in cls.magnitude_clauses(p)]
    _require(not failures, "; ".join(failures))
    return list(vars(p).values())


# ---------------------------------------------------------------------------
# chain 1: quantitative aggregation vs minimal non-aggregation


def build_prop1_chain(theta_p, theta_r, alpha, beta, gamma, delta, m: int) -> DerivationChain:
    """Contradiction chain with n = h*l*m + l and no replication steps.

    l recipients below the poverty line each gain alpha (minimal
    non-aggregation, the h*l*m rich paying beta each time), then each
    recipient is pushed back down in h quantitative-aggregation steps
    paid for by fresh blocks of m rich; weak Pareto then ranks the start
    strictly above the end.
    """
    theta_p, theta_r, alpha, beta, gamma, delta, m = _magnitudes(
        locals(), MinimalNonAggregation, QuantitativeAggregation
    )

    h = _count_exceeding(alpha, delta)  # h * delta > alpha
    l = _count_exceeding(gamma, beta)  # l * beta > gamma
    n_rich = h * l * m
    u_low = theta_p - alpha
    u_high = theta_r + l * beta + 1  # keeps the rich above theta_r throughout

    rich_set = IndexSet.from_ranges([(l, l + n_rich)])

    steps = []
    current = Profile.from_blocks([(u_low, l), (u_high, n_rich)])
    start = current
    for t in range(1, l + 1):
        nxt = Profile.from_blocks([(u_low + alpha, t), (u_low, l - t), (u_high - t * beta, n_rich)])
        mna = MinimalNonAggregation(current, nxt, t - 1, rich_set, theta_p, theta_r, alpha, beta)
        steps.append(AxiomStep.of(mna))
        current = nxt

    rich_low = u_high - l * beta
    rich_boosted = rich_low + gamma
    for r in range(1, l + 1):
        for s in range(1, h + 1):
            gained = (r - 1) * h * m + s * m
            sinking = u_low + alpha - s * delta
            nxt = Profile.from_blocks(
                [
                    (u_low + alpha - h * delta, r - 1),
                    (sinking, 1),
                    (u_low + alpha, l - r),
                    (rich_boosted, gained),
                    (rich_low, n_rich - gained),
                ]
            )
            block = IndexSet.from_ranges([(l + gained - m, l + gained)])
            steps.append(
                AxiomStep.of(QuantitativeAggregation(current, nxt, r - 1, block, m, gamma, delta))
            )
            current = nxt

    terminal = WeakPareto(start, current)
    return DerivationChain(tuple(steps), terminal, ChainKind.CONTRADICTION)


# ---------------------------------------------------------------------------
# chain 2: ratio aggregation + replication invariance + transfers


def _smallest_ratio_population(lam: Fraction) -> int:
    # n - 1 >= ceil(lam * n) holds exactly when n * (1 - lam) >= 1
    n = max(3, math.ceil(1 / (1 - lam)))
    _require(n <= 10_000, "no workable population size below 10000")
    return n


def _copies(poor_levels: list[Fraction], rich_level: Fraction, n: int) -> Profile:
    """One size-n population per poor level: that level, then n - 1 at ``rich_level``."""
    return Profile.from_blocks([b for x in poor_levels for b in ((x, 1), (rich_level, n - 1))])


def build_prop2_chain(
    theta_p, theta_r, alpha, beta, gamma, delta, lam, n: int | None = None
) -> DerivationChain:
    """Contradiction chain in a k-replicated population.

    One ratio-aggregation step is lifted through k-replication, after
    which l rounds of minimal non-aggregation followed by Pigou-Dalton
    smoothing (k - 1 transfers of alpha / k) push every poor copy up by
    l * alpha / k < delta while the rich pay l * beta > gamma; weak
    Pareto contradicts the accumulated weak ranking.
    """
    theta_p, theta_r, alpha, beta, gamma, delta, lam = _magnitudes(
        locals(), MinimalNonAggregation, RatioAggregation
    )
    if n is None:
        n = _smallest_ratio_population(lam)
    _require(isinstance(n, int) and n >= 3, "need integer population size n > 2")
    _require(n - 1 >= ceil_ratio(lam, n), "need n - 1 >= ceil(lam * n)")

    l = _count_exceeding(gamma, beta)  # l * beta > gamma
    k = _count_exceeding(l * alpha, delta)  # l * alpha / k < delta
    u_low = theta_p - alpha
    u_high = theta_r + l * beta + 1

    u_base = Profile.from_blocks([(u_low, 1), (u_high, n - 1)])
    u_boost = Profile.from_blocks([(u_low - delta, 1), (u_high + gamma, n - 1)])
    base_instance = RatioAggregation(
        u_base, u_boost, 0, IndexSet.from_ranges([(1, n)]), lam, gamma, delta
    )

    rich_set = IndexSet.from_ranges([(j * n + 1, (j + 1) * n) for j in range(k)])
    eps = alpha / k

    lift = LiftStep.of(base_instance, k)
    steps: list = [lift]
    current = lift.to_profile

    poor = [u_low - delta] * k
    rich = u_high + gamma
    for t in range(1, l + 1):
        rich_next = rich - beta
        poor_up = list(poor)
        poor_up[0] = poor[0] + alpha
        nxt = _copies(poor_up, rich_next, n)
        mna = MinimalNonAggregation(current, nxt, 0, rich_set, theta_p, theta_r, alpha, beta)
        steps.append(AxiomStep.of(mna))
        current = nxt
        rich = rich_next
        poor = poor_up
        for j in range(1, k):
            steps.append(AxiomStep.of(PigouDalton(current, 0, j * n, eps)))
            current = steps[-1].to_profile
            poor[0] -= eps
            poor[j] += eps

    terminal = WeakPareto(lift.from_profile, current)
    return DerivationChain(tuple(steps), terminal, ChainKind.CONTRADICTION)


# ---------------------------------------------------------------------------
# chain 3: ratio aggregation + replication invariance, no transfers


def build_prop3_chain(
    theta_p, theta_r, alpha, beta, gamma, delta, lam, h: int, n: int
) -> DerivationChain:
    """Contradiction chain under the hypothesis n > h * ceil(lam * n) and
    h * delta > alpha.

    k minimal non-aggregation steps run in the k-replicated population,
    a replication descent brings the ranking back to size n, and h ratio
    aggregation steps (donor sets of exactly ceil(lam * n)) take back the
    poor person's gain; weak Pareto closes the contradiction.
    """
    theta_p, theta_r, alpha, beta, gamma, delta, lam = _magnitudes(
        locals(), MinimalNonAggregation, RatioAggregation
    )
    _require(isinstance(h, int) and h >= 1, "need integer h >= 1")
    _require(isinstance(n, int) and n >= 1, "need integer population size n >= 1")
    q = ceil_ratio(lam, n)
    _require(n > h * q, f"hypothesis n > h * ceil(lam * n) fails ({n} <= {h * q})")
    _require(h * delta > alpha, "hypothesis h * delta > alpha fails")

    k = _count_exceeding(gamma, beta)  # k * beta > gamma
    u_low = theta_p - alpha
    u_high = theta_r + k * beta + 1

    u_base = Profile.from_blocks([(u_low, 1), (u_high, n - 1)])
    rich_set = IndexSet.from_ranges([(j * n + 1, (j + 1) * n) for j in range(k)])

    steps: list = []
    current = replicate(u_base, k)
    for t in range(1, k + 1):
        # t poor copies already lifted, all rich at u_high - t * beta
        nxt = _copies([u_low + alpha] * t + [u_low] * (k - t), u_high - t * beta, n)
        mna = MinimalNonAggregation(
            current, nxt, (t - 1) * n, rich_set, theta_p, theta_r, alpha, beta
        )
        steps.append(AxiomStep.of(mna))
        current = nxt

    w_base = Profile.from_blocks([(u_low + alpha, 1), (u_high - k * beta, n - 1)])
    steps.append(DescentStep(u_base, w_base, k))
    current = w_base

    rich_low = u_high - k * beta
    for s in range(1, h + 1):
        nxt = Profile.from_blocks(
            [
                (u_low + alpha - s * delta, 1),
                (rich_low + gamma, s * q),
                (rich_low, n - 1 - s * q),
            ]
        )
        donors = IndexSet.from_ranges([(1 + (s - 1) * q, 1 + s * q)])
        steps.append(AxiomStep.of(RatioAggregation(current, nxt, 0, donors, lam, gamma, delta)))
        current = nxt

    terminal = WeakPareto(u_base, current)
    return DerivationChain(tuple(steps), terminal, ChainKind.CONTRADICTION)


# ---------------------------------------------------------------------------
# chain 4: leximin dominance


def build_prop4_chain(u: Profile, v: Profile, beta_ratio=Fraction(1, 2)) -> DerivationChain:
    """Dominance chain certifying u > v for leximin-ranked same-size pairs.

    The acceptable exact sacrifice of strong non-aggregation is beta =
    beta_ratio * alpha for a gain alpha, with 0 < beta_ratio < 1; the chain
    uses a per-step loss beta' strictly inside (0, beta).
    """
    beta_ratio = as_level(beta_ratio)
    _require(0 < beta_ratio < 1, "need 0 < beta_ratio < 1")
    res = leximin_compare(u, v)
    _require(
        res.verdict is Verdict.STRICTLY_BETTER,
        f"leximin must rank u strictly above v (got {res.verdict.value})",
    )
    n = len(u)
    su, sv = u.sorted_blocks(), v.sorted_blocks()
    equal = []  # the runs of ranks below h, the first rank where the levels differ
    for h, count, uh, vh in block_runs(su, sv):
        if uh != vh:
            break
        equal.append((uh, count))

    if uh >= sv[-1][0]:
        # pure strong-Pareto certificate on the sorted rearrangements
        u_sorted = Profile.from_blocks(su)
        instances = (
            Anonymity(v, sorting_permutation(v)),
            StrongPareto(u_sorted, Profile.from_blocks(sv)),
            Anonymity(u_sorted, argsort(u)),
        )
        return DerivationChain(tuple(map(AxiomStep.of, instances)), None, ChainKind.DOMINANCE)

    gap = uh - vh
    v_star = sv[-1][0] + 1
    u_star = vh + gap / 4
    alpha = gap / 4
    beta = alpha * beta_ratio
    target = vh + 3 * gap / 4  # the level v_star - k * beta' must hit
    k = math.ceil((v_star - target) / beta) + 1
    beta_prime = (v_star - target) / k

    prefix = [(level, count * k) for level, count in equal]
    n_rich = k * (n - h - 1)

    @cache  # each W profile ends one step and starts the next: build it once
    def w_profile(t: int) -> Profile:
        return Profile.from_blocks(
            prefix
            + [
                (u_star + alpha, t),
                (u_star, k - t),
                (v_star - t * beta_prime, n_rich),
            ]
        )

    big_u = replicate(u, k)
    big_v = replicate(v, k)
    grouped_u = Profile.from_blocks([(level, count * k) for level, count in su])
    grouped_v = Profile.from_blocks([(level, count * k) for level, count in sv])
    rich_set = IndexSet.from_ranges([((h + 1) * k, n * k)])

    instances = [
        Anonymity(big_v, sorting_permutation(big_v)),
        StrongPareto(w_profile(0), grouped_v),
        *(
            StrongNonAggregation(
                w_profile(t - 1), w_profile(t), h * k + t - 1, rich_set, alpha, beta_prime
            )
            for t in range(1, k + 1)
        ),
        StrongPareto(grouped_u, w_profile(k)),
        Anonymity(grouped_u, argsort(big_u)),
    ]
    steps = (*map(AxiomStep.of, instances), DescentStep(v, u, k))
    return DerivationChain(steps, None, ChainKind.DOMINANCE)


# ---------------------------------------------------------------------------
# rank-discounting threshold condition


def _difference(g: GFunction, x, y):
    """g(x) - g(y): a ``Fraction`` for an exact g, else the ``_float_sum`` of the two
    values within their ``g.error``, whose ``value`` is their correctly rounded difference."""
    if g.is_exact:
        return g.exact(x) - g.exact(y)
    gx, gy = g.value(x), g.value(y)
    return _float_sum([gx, -gy], [g.error(x, gx), g.error(y, gy)])


@dataclass(frozen=True)
class Prop5Report:
    """Two sides of the non-aggregation condition for discount rho > 1.

    holds is True only when lhs >= rhs beyond the combined error bound;
    ``certain`` is False when a floating evaluation could not separate
    the sides. Exact transforms yield exact zero-bound reports.
    """

    lhs: float
    rhs: float
    lhs_bound: float
    rhs_bound: float
    holds: bool
    certain: bool
    exact: bool


def prop5_nonagg_condition(
    g: GFunction, rho, theta_p, theta_r, alpha, beta
) -> Prop5Report:
    """Evaluate g(theta_p) - g(theta_p - alpha) >= rho/(rho-1) * (g(theta_r + beta) - g(theta_r)).

    For a float transform each difference is a ``_float_sum`` of two terms
    within their ``g.error`` (``_difference``). The factor f = float(rho/(rho-1)) > 1 is off by
    EPS/2 relative and the product t = f * rise by EPS/2 relative, or
    2**-1075 when it underflows, so t is within f * bound(rise) (1 + EPS) +
    2 EPS |t| + TINY of the true side; an f beyond the float range is a
    ``FloatRangeError``. An exact report shows a side beyond the float
    range as +-inf.
    """
    rho = as_level(rho)
    _require(rho > 1, "need rho > 1")
    # StrongNonAggregation's clauses ask alpha > beta > 0 only: the thresholds need not be positive
    theta_p, theta_r, alpha, beta = _magnitudes(locals(), StrongNonAggregation)
    _require(theta_r > theta_p, "need theta_r > theta_p")
    for point in (theta_p, theta_p - alpha, theta_r, theta_r + beta):
        g.check_domain(point)
    lhs = _difference(g, theta_p, theta_p - alpha)
    rise = _difference(g, theta_r + beta, theta_r)
    if g.is_exact:
        rhs = rho / (rho - 1) * rise
        return Prop5Report(
            _float_or_inf(lhs), _float_or_inf(rhs), 0.0, 0.0, lhs >= rhs, True, True
        )
    factor = _float_or_inf(rho / (rho - 1))
    if math.isinf(factor):
        raise FloatRangeError("rho/(rho-1) exceeds the float range")
    t = factor * rise.value
    rhs = _float_sum([t], [factor * rise.bound * (1 + EPS) + 2 * EPS * abs(t) + TINY])
    diff = _float_sum([lhs.value, -rhs.value], [lhs.bound, rhs.bound])
    separated = abs(diff.value) > diff.bound
    return Prop5Report(
        lhs.value, rhs.value, lhs.bound, rhs.bound, diff.value > 0 and separated, separated, False
    )


# ---------------------------------------------------------------------------
# ratio-aggregation failure scan


def _ratio_terms(rho: Fraction, lam: Fraction, n: int, step: int = 1):
    """Endless (n, num, den) with num / den = ratio_coefficient(rho, lam, n), n += step.

    With rho = a/b and q = ceil(lam n), num = b^(n+2-q) * G(a, b, q) and
    den = a^(n+1) are coprime, as gcd(a, b) = 1 and G(a, b, q) = b^(q-1)
    mod a. As G(a, b, q+d) = a^d * G(a, b, q) + b^q * G(a, b, d), num
    carries to n + step, d = q(n+step) - q(n), as b^(step-d) * (a^d * num +
    b^(n+2) * G(a, b, d)); 0 <= d <= ceil(lam step) <= step as 0 < lam < 1,
    so each step multiplies the big ints only by ints of O(step) digits.
    """
    a, b, p, r = rho.numerator, rho.denominator, lam.numerator, lam.denominator
    q = ceil_ratio(lam, n)
    num, high, den = b ** (n + 2 - q) * geometric_sum(a, b, q), b ** (n + 2), a ** (n + 1)
    a_step, b_step = a**step, b**step
    while True:
        yield n, num, den
        n += step
        d = -(-p * n // r) - q
        num = b ** (step - d) * (a**d * num + high * geometric_sum(a, b, d))
        high *= b_step
        den *= a_step
        q += d


def ratio_coefficient(rho: Fraction, lam: Fraction, n: int) -> Fraction:
    """Geometric coefficient (rho^(-n+q-1) - rho^(-n-1)) / (rho - 1), q = ceil(lam n).

    This bound indexes the donor weights as rho^(-i); the ordering's own
    weights run as rho^(-(i-1)), making its donor sum exactly rho**2
    times larger. Both vanish as n grows, which is what the failure scan
    relies on; the reports carry both population sizes.
    """
    return next(scan_ratio_coefficients(rho, lam, n, n))[1]


def scan_ratio_coefficients(rho, lam, n_from: int, n_to: int, step: int = 1):
    """Yield (n, coefficient) over a range, exact, from ints carried from one n to the next."""
    rho, lam = as_level(rho), as_level(lam)
    _require(rho > 1, "need rho > 1")
    _require(step >= 1, "need step >= 1")
    for n, num, den in _ratio_terms(rho, lam, n_from, step):
        if n > n_to:
            return
        # num / den is in lowest terms (see _ratio_terms): set the two slots
        # with no gcd, as Python 3.12's Fraction._from_coprime_ints does
        coefficient = object.__new__(Fraction)
        coefficient._numerator, coefficient._denominator = num, den
        yield n, coefficient


@dataclass(frozen=True)
class RatioFailureReport:
    n_star: int
    witness_n: int
    witness: RatioAggregation
    check: CheckResult
    coefficient_note: str


def _ratio_witness(lam, gamma, delta, u1, n: int) -> RatioAggregation:
    q = ceil_ratio(lam, n)
    u = Profile.constant(u1, n)
    v = Profile.from_blocks([(u1 - delta, 1), (u1, n - 1 - q), (u1 + gamma, q)])
    return RatioAggregation(u, v, 0, IndexSet.from_ranges([(n - q, n)]), lam, gamma, delta)


def prop5_ratio_failure(
    g: GFunction, rho, lam, gamma, delta, u1, n_max: int = 100_000
) -> RatioFailureReport:
    """Smallest n where the displayed coefficient inequality fails, plus a
    concrete ratio-aggregation instance that the RDU ordering violates.

    The scan reads ``_difference``'s lhs and gain as exact (a float one without its
    bound). The witness population may exceed n_star slightly because the
    actual rank weights are rho**2 times the displayed coefficient.
    """
    rho, u1 = as_level(rho), as_level(u1)
    _require(rho > 1, "need rho > 1")
    lam, gamma, delta = _magnitudes(locals(), RatioAggregation)
    g.check_domain(u1 - delta)
    g.check_domain(u1 + gamma)

    lhs, gain = _difference(g, u1, u1 - delta), _difference(g, u1 + gamma, u1)
    # lhs > (num / den) * gain, cross-multiplied over positive denominators
    (ln, ld), (gn, gd) = lhs.as_integer_ratio(), gain.as_integer_ratio()
    left, right = ln * gd, gn * ld
    for n_star, num, den in _ratio_terms(rho, lam, 2):
        if n_star > n_max:
            raise InfeasibleParameters(f"no failure found up to n_max={n_max}")
        if left * den > num * right:
            break

    spec = Rdu(rho, g)
    witness_n = n_star
    while witness_n <= n_max:
        candidate = _ratio_witness(lam, gamma, delta, u1, witness_n)
        result = check_axiom(spec, candidate)
        if result.violated:
            return RatioFailureReport(
                n_star,
                witness_n,
                candidate,
                result,
                "the scan's bounding coefficient uses weights rho^(-i); the "
                "ordering's weights rho^(-(i-1)) are rho**2 times larger, so "
                "the witness population can exceed n_star",
            )
        witness_n += 1
    raise InfeasibleParameters(f"no violated instance found up to n_max={n_max}")
