"""Reference answers the correctness gate compares the library against.

Nothing here calls into welfareax: profiles are passed as lists of
``(level, count)`` pairs, and the rank-discounted sums are evaluated in
mpmath at a fixed high precision by a per-block closed form that is
written independently of the library's float and exact kernels.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

PREC_BITS = 400


def sorted_blocks(blocks):
    merged = {}
    for value, count in blocks:
        merged[value] = merged.get(value, 0) + count
    return sorted(merged.items())


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _g(name: str, x: Fraction):
    if name == "identity":
        return _mp(x)
    if name == "sqrt":
        return mpmath.sqrt(_mp(x))
    if name == "log_shifted":  # shift 1
        return mpmath.log(_mp(x) + 1)
    raise ValueError(f"no reference transform {name!r}")


def rdu(blocks, rho: Fraction, g_name: str):
    """Sum over ascending ranks i of rho**(-i) * g(level), at PREC_BITS."""
    with mpmath.workprec(PREC_BITS):
        total = mpmath.mpf(0)
        if rho == 1:
            for value, count in sorted_blocks(blocks):
                total += _g(g_name, value) * count
            return total
        r = mpmath.mpf(rho.denominator) / rho.numerator
        weight = mpmath.mpf(1)  # r**start
        for value, count in sorted_blocks(blocks):
            rc = mpmath.power(r, count)
            total += _g(g_name, value) * weight * (1 - rc) / (1 - r)
            weight *= rc
        return total


def sign_of_difference(a, b) -> int | None:
    """Sign of a - b, or None when the precision cannot resolve it."""
    with mpmath.workprec(PREC_BITS):
        diff = a - b
        if diff == 0:
            return 0
        scale = max(abs(a), abs(b))
        if abs(diff) <= scale * mpmath.mpf(2) ** (40 - PREC_BITS):
            return None
        return 1 if diff > 0 else -1


def close(value, reference, rel: float) -> bool:
    with mpmath.workprec(PREC_BITS):
        return abs(mpmath.mpf(value) - reference) <= rel * abs(reference)


def fraction_to_mpf(x: Fraction):
    with mpmath.workprec(PREC_BITS):
        return _mp(x)


def leximin_sign(u_blocks, v_blocks) -> int:
    """Lexicographic maximin on equal-size profiles, by rank ranges."""
    su, sv = sorted_blocks(u_blocks), sorted_blocks(v_blocks)
    iu = iv = 0
    left_u, left_v = su[0][1], sv[0][1]
    while iu < len(su):
        a, b = su[iu][0], sv[iv][0]
        if a != b:
            return 1 if a > b else -1
        take = min(left_u, left_v)
        left_u -= take
        left_v -= take
        if left_u == 0:
            iu += 1
            left_u = su[iu][1] if iu < len(su) else 0
        if left_v == 0:
            iv += 1
            left_v = sv[iv][1] if iv < len(sv) else 0
    return 0


def shortfall(blocks, theta: Fraction) -> Fraction:
    return sum(((v - theta) * c for v, c in blocks if v < theta), Fraction(0))


def mean(blocks) -> Fraction:
    return sum((v * c for v, c in blocks), Fraction(0)) / sum(c for _, c in blocks)


def suffavg(blocks, theta: Fraction, lam: Fraction) -> Fraction:
    return lam * shortfall(blocks, theta) + (1 - lam) * mean(blocks)


def multithreshold(blocks, thetas, weights) -> Fraction:
    total = sum((w * shortfall(blocks, t) for t, w in zip(thetas, weights)), Fraction(0))
    return total + weights[-1] * mean(blocks)


def boundedg_saturating(blocks, theta, lam, cap, scale):
    """lam * shortfall + (1 - lam) * mean of cap * (1 - exp(-x / scale))."""
    with mpmath.workprec(PREC_BITS):
        n = sum(c for _, c in blocks)
        cap_m, scale_m = _mp(cap), _mp(scale)
        total = mpmath.mpf(0)
        for v, c in blocks:
            x = _mp(v)
            gx = cap_m * x / scale_m if x < 0 else cap_m * (1 - mpmath.exp(-x / scale_m))
            total += gx * c
        return _mp(lam * shortfall(blocks, theta)) + _mp(1 - lam) * total / n


def concavepoor_sqrt(blocks, theta, lam):
    """lam * sum over entries below theta of (sqrt(x) - sqrt(theta)) + (1 - lam) * mean."""
    with mpmath.workprec(PREC_BITS):
        g_theta = mpmath.sqrt(_mp(theta))
        short = mpmath.mpf(0)
        for v, c in blocks:
            if v < theta:
                short += (mpmath.sqrt(_mp(v)) - g_theta) * c
        return _mp(lam) * short + _mp((1 - lam) * mean(blocks))
