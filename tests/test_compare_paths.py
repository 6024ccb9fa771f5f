"""The full CompareResult of each way a comparison can be resolved.

Exact valuations compare exactly; float valuations are separated by their
combined error bound; RDU with an exact transform retries a float
near-tie exactly; otherwise a near-tie is a flagged numerical tie.
"""

import math
from fractions import Fraction

import pytest

from welfareax import (
    BoundedG,
    ConcavePoor,
    ConstantLambda,
    Identity,
    Profile,
    Rdu,
    Sqrt,
    SuffAvg,
    Verdict,
    rdu_compare,
    swo_compare,
)
from welfareax.orderings import RDU_EXACT_LIMIT

P = Profile.from_levels
TIE_NOTE = "difference within combined error bound"
HALF = ConstantLambda(Fraction(1, 2))


def outcome(result):
    """(verdict, sign of the margin, numerically_tied, note)."""
    margin = result.margin
    sign = None if margin is None else 0.0 if margin == 0 else math.copysign(1.0, margin)
    return result.verdict, sign, result.numerically_tied, result.note


# one exact-fallback pair: more than RDU_EXACT_LIMIT entries, apart by 10^-15 in
# the worst-off entry, which float sums at these magnitudes cannot separate
BASE = [(Fraction(1), 6000), (Fraction(5), 6000), (Fraction(9), 6000)]
LOWERED = [(Fraction(1) - Fraction(1, 10**15), 1), (Fraction(1), 5999)] + BASE[1:]


CASES = [
    pytest.param(
        Rdu(Fraction(3, 2), Identity()), P([1, 2]), P([1, 3]),
        (Verdict.STRICTLY_WORSE, -1.0, False, None), id="rdu-exact",
    ),
    pytest.param(
        SuffAvg(0, ConstantLambda(Fraction(1, 5))), P([-1, 4]), P([0, 2]),
        (Verdict.STRICTLY_BETTER, 1.0, False, None), id="suffavg-exact",
    ),
    pytest.param(
        Rdu(Fraction(101, 100), Sqrt()), P([1, 4]), P([1, 9]),
        (Verdict.STRICTLY_WORSE, -1.0, False, None), id="rdu-float-separated",
    ),
    pytest.param(
        Rdu(Fraction(3, 2), Identity()), Profile.from_blocks(BASE), Profile.from_blocks(LOWERED),
        (Verdict.STRICTLY_BETTER, 1.0, False, None), id="rdu-exact-fallback",
    ),
    pytest.param(
        Rdu(Fraction(3, 2), Identity()), Profile.from_blocks(BASE),
        Profile.from_blocks(BASE[::-1]),
        (Verdict.EQUIVALENT, 0.0, False, None), id="rdu-exact-fallback-equal",
    ),
    pytest.param(
        Rdu(Fraction(101, 100), Sqrt()), P([1, 4, 9]), P([9, 4, 1]),
        (Verdict.EQUIVALENT, 0.0, True, TIE_NOTE), id="rdu-sqrt-tied",
    ),
    pytest.param(
        BoundedG(0, HALF, Identity()), P([-1, 4]), P([0, 2]),
        (Verdict.STRICTLY_WORSE, -1.0, False, None), id="boundedg-exact",
    ),
    pytest.param(
        BoundedG(0, HALF, Sqrt()), P([1, 9]), P([1, 4]),
        (Verdict.STRICTLY_BETTER, 1.0, False, None), id="boundedg-float-separated",
    ),
    pytest.param(
        BoundedG(0, HALF, Sqrt()), P([1, 4, 9]), P([9, 4, 1]),
        (Verdict.EQUIVALENT, 0.0, True, TIE_NOTE), id="boundedg-sqrt-tied",
    ),
    pytest.param(
        ConcavePoor(4, HALF, Identity()), P([1, 8]), P([2, 8]),
        (Verdict.STRICTLY_WORSE, -1.0, False, None), id="concavepoor-exact",
    ),
    pytest.param(
        ConcavePoor(4, HALF, Sqrt()), P([1, 8]), P([0, 8]),
        (Verdict.STRICTLY_BETTER, 1.0, False, None), id="concavepoor-float-separated",
    ),
    pytest.param(
        ConcavePoor(4, HALF, Sqrt()), P([1, 2, 8]), P([2, 1, 8]),
        (Verdict.EQUIVALENT, 0.0, True, TIE_NOTE), id="concavepoor-sqrt-tied",
    ),
]


@pytest.mark.parametrize("spec,u,v,expected", CASES)
def test_compare_result_of_each_resolution(spec, u, v, expected):
    assert outcome(swo_compare(spec, u, v)) == expected
    verdict, sign, *rest = expected
    assert outcome(swo_compare(spec, v, u)) == (verdict.flipped(), -sign + 0.0, *rest)


def test_fallback_pair_is_past_the_exact_limit_and_inside_the_float_bound():
    u, v = Profile.from_blocks(BASE), Profile.from_blocks(LOWERED)
    assert len(u) + len(v) > RDU_EXACT_LIMIT
    # under an inexact transform the same pair stays a flagged near-tie
    result = rdu_compare(u, v, Rdu(Fraction(3, 2), Sqrt()))
    assert result.verdict is Verdict.EQUIVALENT and result.numerically_tied
