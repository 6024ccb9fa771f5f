"""Seeded differential test of the float valuations' error bounds.

Every float value of RDU, BoundedG and ConcavePoor must lie within its
returned bound of a 300-bit closed form from ``_oracles``, on draws that
mix discount factors near and away from 1, counts up to 10^8, levels
near 10^-18, below the normal floats and near the transforms' poles, and
shortfalls that cancel.
An RDU draw whose weights leave the float range must raise
``FloatRangeError``.

A sha256 digest pins every float value and bound, and every refusal, of
the three kernels on seeded draws over the same grid plus a table
transform, levels outside each domain and beyond the float range
included, so that a change in how a kernel reads its levels cannot move
a float bit unseen.
"""

import hashlib
import math
import random
from fractions import Fraction as F

from welfareax import (
    BoundedG,
    ConcavePoor,
    ConstantLambda,
    DomainError,
    FloatRangeError,
    Identity,
    LogShifted,
    PiecewiseLinear,
    Profile,
    Rdu,
    SaturatingExp,
    Sqrt,
    WelfareaxError,
    boundedg_value,
    concavepoor_value,
    rdu_value,
)
from welfareax.orderings import _float_sum

from _oracles import boundedg_blockwise, concavepoor_blockwise, rdu_blockwise

RHOS = (1 + F(1, 10**6), F(101, 100), F(3, 2), F(1), F(99, 100), F(1, 2))
TRANSFORMS = (
    (Identity(), ("identity",), F(-50)),
    (Sqrt(), ("sqrt",), F(0)),
    (LogShifted(F(1)), ("log_shifted", F(1)), F(-1)),
    (LogShifted(F(1, 10**9)), ("log_shifted", F(1, 10**9)), F(-1, 10**9)),
    (SaturatingExp(F(10), F(3)), ("saturating_exp", F(10), F(3)), F(-50)),
    (SaturatingExp(F(1000), F(1, 1000)), ("saturating_exp", F(1000), F(1, 1000)), F(-50)),
)


def draw_level(rng, floor: F) -> F:
    """A level above floor: small, near 10^-18, large, just above the floor,
    negative, or subnormal as a float (below 2**-1022, about 2.2e-308)."""
    kind = rng.randrange(6)
    if kind == 0:
        x = F(rng.randint(0, 40), rng.choice((1, 2, 3, 7)))
    elif kind == 1:
        x = F(rng.randint(1, 1000), 10**18)
    elif kind == 2:
        x = F(round(10 ** rng.uniform(0, 8)), rng.randint(1, 9))
    elif kind == 3:
        x = floor + F(1, 10 ** rng.randint(1, 12)) * abs(floor or 1)
    elif kind == 4:
        x = -F(rng.randint(0, 10**6), 10**5)
    else:
        x = rng.choice((1, -1)) * F(rng.randint(1, 10**6), 10 ** rng.randint(309, 330))
    return x if x > floor else floor + F(1, rng.randint(2, 1000)) * abs(floor or 1)


def draw_count(rng) -> int:
    return int(10 ** rng.uniform(0, rng.choice((1, 3, 8))))


def test_rdu_bound_holds_or_range_error():
    rng = random.Random(20240611)
    finite, violations = 0, []
    for i in range(4200):
        rho = RHOS[i % len(RHOS)]
        g, transform, floor = TRANSFORMS[(i // len(RHOS)) % len(TRANSFORMS)]
        blocks = [(draw_level(rng, floor), draw_count(rng)) for _ in range(rng.randint(1, 7))]
        u = Profile.from_blocks(blocks)
        try:
            got = rdu_value(u, Rdu(rho, g))
        except FloatRangeError:
            # only weights beyond the float range may raise: rho < 1 and a large rank
            assert rho < 1 and (len(u) - 1) * math.log(1 / rho) > 700, (rho, blocks)
            continue
        if not math.isfinite(got.value):
            assert got.bound == math.inf and rho < 1, (rho, transform, blocks, got)
            continue
        finite += 1
        oracle = rdu_blockwise(blocks, rho, transform)
        if not abs(got.value - oracle) <= got.bound:
            violations.append((rho, transform, blocks, got, float(oracle)))
    assert finite >= 3000, finite
    assert not violations, f"{len(violations)} of {finite} violate the bound: {violations[:3]}"


def test_boundedg_and_concavepoor_bounds_hold():
    rng = random.Random(7)
    checked, violations = 0, []
    for i in range(2400):
        g, transform, floor = TRANSFORMS[1 + i % (len(TRANSFORMS) - 1)]
        theta = draw_level(rng, floor)
        lam = F(rng.randint(1, 99), 100)
        blocks = [(draw_level(rng, floor), draw_count(rng)) for _ in range(rng.randint(1, 7))]
        if i % 3 == 0:  # levels just below the threshold, whose shortfalls cancel
            blocks += [(theta - F(1, 10 ** rng.randint(6, 15)), draw_count(rng))]
            blocks = [(x, c) for x, c in blocks if x > floor]
        u = Profile.from_blocks(blocks)
        try:
            if i % 2:
                got = boundedg_value(u, BoundedG(theta, ConstantLambda(lam), g))
                oracle = boundedg_blockwise(blocks, theta, lam, transform)
            else:
                got = concavepoor_value(u, ConcavePoor(theta, ConstantLambda(lam), g))
                oracle = concavepoor_blockwise(blocks, theta, lam, transform)
        except DomainError:
            # only a level within float rounding of the log's pole may raise
            shift = float(g.shift)
            assert any(float(x) + shift <= 0 for x, _ in blocks), (transform, blocks)
            continue
        checked += 1
        if not abs(got.value - oracle) <= got.bound:
            violations.append((i % 2, transform, theta, lam, blocks, got, float(oracle)))
    assert checked >= 2300, checked
    assert not violations, f"{len(violations)} of {checked} violate the bound: {violations[:3]}"


def test_subnormal_level_under_sqrt():
    # 10^-320 converts to a subnormal float, off by up to 2**-1075 absolute
    blocks = [(F(1, 10**320), 1)]
    got = rdu_value(Profile.from_blocks(blocks), Rdu(F(3, 2), Sqrt()))
    assert abs(got.value - rdu_blockwise(blocks, F(3, 2), ("sqrt",))) <= got.bound


# The digest's grid: the transforms above with their floors, and a table on [-50, 10^8].
GRID = [(g, floor) for g, _, floor in TRANSFORMS] + [
    (PiecewiseLinear.from_pairs([(-50, -100), (0, 0), (F(7, 3), 2), (10**8, 10**6)]), F(-50))
]
FLOAT_DIGEST = "98cd38263c244c4bda8d1673cfa4a4bcd2cf02dc89c0cb899d1bbc4e2558e2e6"


def draw_outside(rng, floor: F) -> F:
    """A level at or below floor (outside the domain of sqrt, the log and the table),
    or one beyond the float range."""
    if rng.random() < 0.7:
        return floor - F(rng.randint(0, 10**6), 10 ** rng.randint(0, 12))
    return rng.choice((1, -1)) * F(rng.randint(1, 9) * 10 ** rng.randint(308, 420))


def test_float_values_bounds_and_refusals_are_pinned():
    rng = random.Random(17)
    digest, refusals = hashlib.sha256(), 0
    for i in range(6300):
        rho = RHOS[i % len(RHOS)]
        g, floor = GRID[(i // len(RHOS)) % len(GRID)]
        blocks = []
        for _ in range(rng.randint(1, 7)):
            draw = draw_outside if rng.random() < 0.05 else draw_level
            blocks.append((draw(rng, floor), draw_count(rng)))
        u = Profile.from_blocks(blocks)
        theta, lam = draw_level(rng, floor), ConstantLambda(F(rng.randint(1, 99), 100))
        for kernel, p in (
            (rdu_value, Rdu(rho, g)),
            (boundedg_value, BoundedG(theta, lam, g)),
            (concavepoor_value, ConcavePoor(theta, lam, g)),
        ):
            try:
                got = kernel(u, p)
            except WelfareaxError as exc:
                refusals += 1
                result = type(exc).__name__, str(exc)
            else:  # an exact value (the identity, the table) as its Fraction
                result = (str(got.value),) if got.is_exact else (got.value.hex(), got.bound.hex())
            digest.update(repr(result).encode())
    assert refusals >= 1000, refusals
    assert digest.hexdigest() == FLOAT_DIGEST


def test_an_overflowing_float_sum_is_the_plain_sum_with_an_infinite_bound():
    big = _float_sum([1e308, 1e308], [0.0, 0.0])
    assert (big.value, big.bound) == (math.inf, math.inf)
    opposed = _float_sum([math.inf, -math.inf], [0.0, 0.0])  # fsum refuses inf - inf
    assert math.isnan(opposed.value) and opposed.bound == math.inf
