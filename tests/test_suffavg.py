import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

from welfareax import (
    BoundedG,
    ConcavePoor,
    ConfigError,
    ConstantLambda,
    ExactValue,
    Identity,
    MidpointLambda,
    MissingLambda,
    MultiThreshold,
    Profile,
    RankWeighted,
    SaturatingExp,
    Sqrt,
    SuffAvg,
    TableLambda,
    Verdict,
    boundedg_value,
    concavepoor_value,
    evaluate,
    gn_eval,
    lambda_feasible_interval,
    multithreshold_value,
    permute,
    rankweighted_value,
    suffavg_value,
    swo_compare,
)

from conftest import profiles

HALF = ConstantLambda(Fraction(1, 2))


def test_value_example():
    p = SuffAvg(0, ConstantLambda(Fraction(1, 5)))
    u = Profile.from_levels([-100, 200, 200])
    assert suffavg_value(u, p) == 60


def test_all_above_threshold_reduces_to_scaled_mean():
    p = SuffAvg(3, HALF)
    u = Profile.from_levels([5, 7, 9])
    assert suffavg_value(u, p) == Fraction(1, 2) * 7


def test_threshold_membership_is_strict():
    p = SuffAvg(10, HALF)
    at = Profile.from_levels([10, 10])
    below = Profile.from_levels([10, Fraction(39, 4)])
    assert suffavg_value(at, p) == 5  # no shortfall at the boundary
    assert suffavg_value(below, p) < suffavg_value(at, p)


def test_billion_entry_block_evaluation():
    p = SuffAvg(0, ConstantLambda(Fraction(1, 5)))
    u = Profile.from_blocks([(-100, 1), (200, 10**9 - 1)])
    v = Profile.from_blocks([(0, 1), (100, 10**9 - 1)])
    assert suffavg_value(u, p) > suffavg_value(v, p)
    assert swo_compare(p, u, v).verdict is Verdict.STRICTLY_BETTER


def test_lambda_schedules():
    table = TableLambda.from_mapping({3: "1/3"})
    p = SuffAvg(1, table)
    assert suffavg_value(Profile.from_levels([2, 2, 2]), p) == Fraction(4, 3)
    with pytest.raises(MissingLambda):
        suffavg_value(Profile.from_levels([2, 2]), p)
    with pytest.raises(ConfigError):
        suffavg_value(Profile.from_levels([4, 0]), SuffAvg(1, ConstantLambda(Fraction(0))))


def test_lambda_feasible_interval_examples():
    lower, upper, feasible = lambda_feasible_interval(10, 10, 1, 10, 1, Fraction(1, 2))
    assert (lower, upper, feasible) == (Fraction(-1, 99), Fraction(49, 59), True)
    lower, upper, feasible = lambda_feasible_interval(2, 3, 1, 3, 1, Fraction(1, 2))
    assert (lower, upper, feasible) == (Fraction(-1, 2), Fraction(1, 2), True)


def test_lambda_interval_feasible_when_gain_dominates():
    # with alpha = gamma and beta = delta the interval is nonempty as long
    # as ceil(ratio * n) * alpha^2 exceeds (n - 1) * beta^2
    for n in range(2, 60):
        lower, upper, feasible = lambda_feasible_interval(n, 10, 1, 10, 1, Fraction(1, 2))
        assert feasible
        assert max(lower, Fraction(0)) < min(upper, Fraction(1))


def test_lambda_interval_can_be_empty_even_with_matched_magnitudes():
    # alpha = gamma = 5, beta = delta = 4: at n = 20 the bounds cross
    lower, upper, feasible = lambda_feasible_interval(20, 5, 4, 5, 4, Fraction(1, 2))
    assert not feasible
    assert lower > upper


def test_midpoint_schedule_lies_inside_interval():
    schedule = MidpointLambda(Fraction(10), Fraction(1), Fraction(10), Fraction(1), Fraction(1, 2))
    for n in (2, 3, 10, 47):
        lam = schedule.value_for(n)
        lower, upper, _ = lambda_feasible_interval(n, 10, 1, 10, 1, Fraction(1, 2))
        assert max(lower, Fraction(0)) < lam < min(upper, Fraction(1))


def test_gn_eval_matches_displayed_branches():
    p = SuffAvg(0, HALF)
    assert gn_eval(-1, 2, p) == Fraction(-3, 4)
    boundary = SuffAvg(10, HALF)
    assert gn_eval(10, 4, boundary) == Fraction(1, 2) * 10 / 4


@given(profiles(min_size=2, max_size=6))
@settings(max_examples=80)
def test_gn_sum_identity(u):
    p = SuffAvg(2, ConstantLambda(Fraction(1, 3)))
    n = len(u)
    assert sum(gn_eval(x, n, p) for x in u.iter_levels()) == suffavg_value(u, p)


@given(profiles(min_size=2, max_size=5))
@settings(max_examples=60)
def test_piecewise_linear_slopes(u):
    """Slope lambda + (1-lambda)/n below theta_p, (1-lambda)/n above."""
    lam = Fraction(1, 3)
    p = SuffAvg(0, ConstantLambda(lam))
    n = len(u)
    base = suffavg_value(u, p)
    below = u.with_value_at(0, Fraction(-50))
    lower_slope = lam + (1 - lam) / n
    step = Fraction(1, 7)
    assert (
        suffavg_value(below.with_value_at(0, Fraction(-50) + step), p)
        - suffavg_value(below, p)
    ) == lower_slope * step
    above = u.with_value_at(0, Fraction(50))
    assert (
        suffavg_value(above.with_value_at(0, Fraction(50) + step), p)
        - suffavg_value(above, p)
    ) == (1 - lam) / n * step
    assert base is not None


# ---------------------------------------------------------------------------
# variants


def test_multithreshold_collapses_to_single_threshold():
    lam = Fraction(1, 3)
    single = SuffAvg(0, ConstantLambda(lam))
    multi = MultiThreshold((0,), weights=(lam, 1 - lam))
    for levels in ([-5, 10], [1, 2, 3], [-1, -2, 5, 0]):
        u = Profile.from_levels(levels)
        assert multithreshold_value(u, multi) == suffavg_value(u, single)


def test_multithreshold_example_and_empty_penalty():
    multi = MultiThreshold((0,), weights=(Fraction(1, 3), Fraction(2, 3)))
    assert multithreshold_value(Profile.from_levels([-5, 10]), multi) == 0
    rich = Profile.from_levels([4, 8])
    assert multithreshold_value(rich, multi) == Fraction(2, 3) * 6


def test_multithreshold_reads_its_weights_table_by_population_size():
    w3 = (Fraction(2, 3), Fraction(1, 3))
    w4 = (Fraction(1, 2), Fraction(1, 2))
    table = MultiThreshold((0,), weights_table=((3, w3), (4, w4)))
    for levels, w in (([-5, 1, 10], w3), ([-5, 1, 10, 2], w4)):
        u = Profile.from_levels(levels)
        assert multithreshold_value(u, table) == multithreshold_value(
            u, MultiThreshold((0,), weights=w)
        )
    with pytest.raises(MissingLambda, match="no weights tabulated for population size 2"):
        multithreshold_value(Profile.from_levels([1, 2]), table)


def test_multithreshold_validation():
    with pytest.raises(ConfigError):
        MultiThreshold((0, 0), weights=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    with pytest.raises(ConfigError):
        MultiThreshold((0,), weights=(Fraction(1, 4), Fraction(1, 4)))  # sum != 1
    # non-decreasing weights are allowed but flagged
    flat = MultiThreshold((0, 1), weights=(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    assert flat.warnings
    assert not MultiThreshold(
        (0, 1), weights=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    ).warnings


def test_rankweighted_uniform_reduces_to_suffavg():
    lam = Fraction(1, 2)
    base = SuffAvg(0, ConstantLambda(lam))
    for n in (2, 3, 4):
        rw = RankWeighted(0, ConstantLambda(lam), ((n, (Fraction(1, n),) * n),))
        for levels in itertools.product([-2, 0, 3], repeat=n):
            u = Profile.from_levels(levels)
            assert rankweighted_value(u, rw) == suffavg_value(u, base)


def test_rankweighted_example_and_anonymity():
    rw = RankWeighted(
        0, HALF, ((2, (Fraction(3, 4), Fraction(1, 4))),)
    )
    u = Profile.from_levels([0, 4])
    assert rankweighted_value(u, rw) == Fraction(1, 2)
    assert rankweighted_value(permute(u, (1, 0)), rw) == Fraction(1, 2)


def test_rankweighted_validation():
    with pytest.raises(ConfigError):
        RankWeighted(0, HALF, ((2, (Fraction(1, 4), Fraction(3, 4))),))  # increasing
    with pytest.raises(ConfigError):
        RankWeighted(0, HALF, ((2, (Fraction(3, 4), Fraction(3, 4))),))  # sum != 1


def test_bounded_and_concavepoor_reduce_with_identity():
    lam = Fraction(1, 3)
    base = SuffAvg(1, ConstantLambda(lam))
    bounded = BoundedG(1, ConstantLambda(lam), Identity())
    poor = ConcavePoor(1, ConstantLambda(lam), Identity())
    for levels in ([-5, 10], [0, 1, 2], [4, 4, 4, -1]):
        u = Profile.from_levels(levels)
        expected = suffavg_value(u, base)
        assert boundedg_value(u, bounded) == ExactValue(*expected.as_integer_ratio())
        assert concavepoor_value(u, poor) == ExactValue(*expected.as_integer_ratio())


def test_concavepoor_example():
    p = ConcavePoor(4, HALF, Sqrt())
    got = concavepoor_value(Profile.from_levels([1, 100]), p)
    assert got.value == pytest.approx(24.75, abs=1e-12)


def test_boundedg_cap_limits_value():
    cap = Fraction(5)
    p = BoundedG(0, ConstantLambda(Fraction(1, 4)), SaturatingExp(cap, Fraction(2)))
    u = Profile.from_levels([1, 5, 9])
    assert boundedg_value(u, p).value < float(Fraction(3, 4) * cap)
    huge = Profile.from_levels([100, 1000, 10**6])
    assert boundedg_value(huge, p).value <= float(Fraction(3, 4) * cap)


def test_boundedg_warns_without_bound():
    assert BoundedG(0, HALF, Identity()).warnings
    assert not BoundedG(0, HALF, SaturatingExp(Fraction(1), Fraction(1))).warnings


def test_cross_size_policy():
    p = SuffAvg(0, ConstantLambda(Fraction(1, 5)))
    u = Profile.from_levels([1, 2])
    v = Profile.from_levels([1, 2, 3])
    assert swo_compare(p, u, v).verdict is Verdict.INCOMPARABLE
    assert swo_compare(p, u, v, cross_size=True).verdict is not Verdict.INCOMPARABLE


@given(profiles(min_size=2, max_size=4))
@settings(max_examples=40)
def test_anonymity_of_value_variants(u):
    n = len(u)
    weights = tuple(
        Fraction(2 * (n - r), n * (n + 1)) for r in range(n)
    )  # decreasing, sums to 1
    specs = [
        SuffAvg(1, HALF),
        MultiThreshold((0, 2), weights=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
        RankWeighted(1, HALF, ((n, weights),)),
        ConcavePoor(1, HALF, Identity()),
    ]
    for spec in specs:
        base = evaluate(spec, u)
        for pi in itertools.permutations(range(n)):
            assert evaluate(spec, permute(u, pi)) == base
