"""Independent reference implementations used only by the tests.

These stay deliberately naive: plain sorted-list comparison for the
lexicographic maximin rule, term-by-term high-precision summation for
rank-discounted values, 300-bit blockwise closed forms (geometric
series for RDU weights, transforms written out in mpmath) for the float
valuations, the exact rules summed entry by entry in ``Fraction``
arithmetic over plain level lists, and Proposition 5's coefficient ints
from their closed form, afresh at each n. They share no code path with the
package's engines, except the counterexample search reference, which runs
the package's generation, shrink proposals and ``check_axiom`` in the
plainest loop: every instance validated.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath

from welfareax import Profile, Verdict, check_axiom
from welfareax.axioms import generate_instances


def naive_leximin(u: list, v: list) -> Verdict:
    if len(u) != len(v):
        return Verdict.INCOMPARABLE
    su, sv = sorted(u), sorted(v)
    for a, b in zip(su, sv):
        if a > b:
            return Verdict.STRICTLY_BETTER
        if a < b:
            return Verdict.STRICTLY_WORSE
    return Verdict.EQUIVALENT


def rdu_highprec(profile: Profile, rho: Fraction, g_name: str, prec_bits: int = 128):
    """Term-by-term ascending-rank summation at >= prec_bits precision.

    The discount weight is carried by repeated multiplication, and the
    transform is applied per block value, so this shares nothing with
    the production blockwise closed form.
    """
    with mpmath.workprec(prec_bits):
        r = mpmath.mpf(rho.denominator) / mpmath.mpf(rho.numerator)
        total = mpmath.mpf(0)
        weight = mpmath.mpf(1)
        for value, count in _merged(profile.blocks):
            x = mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)
            if g_name == "sqrt":
                gx = mpmath.sqrt(x)
            elif g_name == "identity":
                gx = x
            else:
                raise ValueError(f"unsupported transform {g_name!r}")
            for _ in range(count):
                total += gx * weight
                weight *= r
        return total


# Blockwise closed forms for the float valuations. A transform is named by
# a tuple: ("identity",), ("sqrt",), ("log_shifted", shift) or
# ("saturating_exp", cap, scale), with rational parameters.


def _mpf(x) -> mpmath.mpf:
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def g_mp(transform: tuple, x) -> mpmath.mpf:
    name, *params = transform
    x = _mpf(x)
    if name == "identity":
        return x
    if name == "sqrt":
        return mpmath.sqrt(x)
    if name == "log_shifted":
        return mpmath.log(x + _mpf(params[0]))
    if name == "saturating_exp":
        cap, scale = map(_mpf, params)
        return cap * x / scale if x < 0 else cap * -mpmath.expm1(-x / scale)
    raise ValueError(f"unsupported transform {name!r}")


def _merged(blocks) -> list:
    counts: dict = {}
    for x, c in blocks:
        counts[Fraction(x)] = counts.get(Fraction(x), 0) + c
    return sorted(counts.items())


def rdu_blockwise(blocks, rho: Fraction, transform: tuple, prec_bits: int = 300):
    """Sum over ascending ranks of rho**-rank * g(level): the c ranks from rank
    s weigh r**s * (1 - r**c) / (1 - r), r = 1/rho, or c at rho = 1."""
    with mpmath.workprec(prec_bits):
        r = 1 / _mpf(rho)
        total, s = mpmath.mpf(0), 0
        for x, c in _merged(blocks):
            weight = c if rho == 1 else r**s * (1 - r**c) / (1 - r)
            total += g_mp(transform, x) * weight
            s += c
        return total


def boundedg_blockwise(blocks, theta, lam, transform: tuple, prec_bits: int = 300):
    """lam * sum of (x - theta) below theta + (1 - lam) * mean of g(x)."""
    with mpmath.workprec(prec_bits):
        theta, lam = _mpf(theta), _mpf(lam)
        n = sum(c for _, c in blocks)
        short = sum(((_mpf(x) - theta) * c for x, c in blocks if _mpf(x) < theta), mpmath.mpf(0))
        mean_g = sum((g_mp(transform, x) * c for x, c in blocks), mpmath.mpf(0)) / n
        return lam * short + (1 - lam) * mean_g


def concavepoor_blockwise(blocks, theta, lam, transform: tuple, prec_bits: int = 300):
    """lam * sum of (g(x) - g(theta)) below theta + (1 - lam) * mean."""
    with mpmath.workprec(prec_bits):
        g_theta = g_mp(transform, theta)
        n = sum(c for _, c in blocks)
        short = sum(
            ((g_mp(transform, x) - g_theta) * c for x, c in blocks if Fraction(x) < theta),
            mpmath.mpf(0),
        )
        mean = sum((_mpf(x) * c for x, c in blocks), mpmath.mpf(0)) / n
        return _mpf(lam) * short + (1 - _mpf(lam)) * mean


def prop5_sides(transform: tuple, rho, theta_p, theta_r, alpha, beta, prec_bits: int = 300):
    """(g(theta_p) - g(theta_p - alpha), rho / (rho - 1) * (g(theta_r + beta) - g(theta_r)))."""
    theta_p, theta_r, alpha, beta = map(Fraction, (theta_p, theta_r, alpha, beta))
    with mpmath.workprec(prec_bits):
        lhs = g_mp(transform, theta_p) - g_mp(transform, theta_p - alpha)
        rise = g_mp(transform, theta_r + beta) - g_mp(transform, theta_r)
        return lhs, _mpf(rho) / (_mpf(rho) - 1) * rise


def ratio_terms(a: int, b: int, lam_num: int, lam_den: int, n: int) -> tuple[int, int]:
    """Proposition 5's coefficient at n for rho = a/b > 1 and lam = lam_num/lam_den,
    as (b^(n+2-q) * G(a, b, q), a^(n+1)) with q = ceil(lam n), built from scratch."""
    q = -(-lam_num * n // lam_den)
    return b ** (n + 2 - q) * ((a**q - b**q) // (a - b)), a ** (n + 1)


# Exact rules entry by entry, on lists of Fraction levels; g is a callable
# on Fractions (identity, or ``piecewise_linear`` over a knot list).


def identity(x: Fraction) -> Fraction:
    return x


def piecewise_linear(points, x: Fraction) -> Fraction:
    """Linear interpolation through the knots (x_k, y_k) at a level inside their span."""
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= x <= x1:
            return Fraction(y0) + (Fraction(y1) - y0) * (x - x0) / (Fraction(x1) - x0)
    raise ValueError(f"level {x} outside the knots")


def fraction_rdu(levels, rho: Fraction, g=identity) -> Fraction:
    """Ascending ranks, the worst-off weighted 1 and each next rank 1/rho times the last."""
    total, weight = Fraction(0), Fraction(1)
    for x in sorted(levels):
        total += weight * g(x)
        weight /= rho
    return total


def fraction_shortfall(levels, theta: Fraction, g=identity) -> Fraction:
    return sum((g(x) - g(theta) for x in levels if x < theta), Fraction(0))


def fraction_mean(levels, g=identity) -> Fraction:
    return sum((g(x) for x in levels), Fraction(0)) / len(levels)


def fraction_suffavg(levels, theta, lam) -> Fraction:
    return lam * fraction_shortfall(levels, theta) + (1 - lam) * fraction_mean(levels)


def fraction_multithreshold(levels, thetas, weights) -> Fraction:
    terms = [w * fraction_shortfall(levels, t) for w, t in zip(weights, thetas)]
    return sum(terms, Fraction(0)) + weights[-1] * fraction_mean(levels)


def fraction_rankweighted(levels, theta, lam, weights) -> Fraction:
    weighted = sum((w * x for w, x in zip(weights, sorted(levels))), Fraction(0))
    return lam * fraction_shortfall(levels, theta) + (1 - lam) * weighted


def fraction_boundedg(levels, theta, lam, g) -> Fraction:
    return lam * fraction_shortfall(levels, theta) + (1 - lam) * fraction_mean(levels, g)


def fraction_concavepoor(levels, theta, lam, g) -> Fraction:
    return lam * fraction_shortfall(levels, theta, g) + (1 - lam) * fraction_mean(levels)


def fraction_verdict(a: Fraction, b: Fraction) -> tuple[Verdict, float]:
    """The verdict on value a against b, and a - b as a float (+-inf beyond the range)."""
    diff = a - b
    try:
        margin = float(diff)
    except OverflowError:
        margin = math.inf if diff > 0 else -math.inf
    if diff == 0:
        return Verdict.EQUIVALENT, margin
    return (Verdict.STRICTLY_BETTER if diff > 0 else Verdict.STRICTLY_WORSE), margin


# Counterexample search with every drawn instance and every smaller shrink
# candidate checked by ``check_axiom``, clauses first: the reference for search,
# which asks the ordering first.


def _search_metric(inst) -> tuple[int, Fraction]:
    """The population, then the sum of |level| over both profiles, entry by entry."""
    return len(inst.u), sum((abs(x) for p in (inst.u, inst.v) for x in p.levels()), Fraction(0))


def search_reference(spec, axiom: str, params, budget) -> tuple | None:
    """(instance, check result, shrink steps) of the first violation in the budget,
    greedily shrunk, or None when the budget draws none."""
    stream = generate_instances(axiom, params, populations=budget.populations,
                                values=budget.values, seed=budget.seed)
    for inst in itertools.islice(stream, budget.max_instances):
        if not check_axiom(spec, inst).violated:
            continue
        current, metric, steps = inst, _search_metric(inst), 0
        while True:
            for candidate in current.shrinks():
                smaller = _search_metric(candidate)
                if smaller < metric and check_axiom(spec, candidate).violated:
                    current, metric, steps = candidate, smaller, steps + 1
                    break
            else:
                return current, check_axiom(spec, current), steps
    return None
