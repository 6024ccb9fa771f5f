"""Differential test: the integer exact kernels against plain Fraction formulas.

The kernels run on int numerators over a common denominator; the
references below are the textbook sums in ``Fraction`` arithmetic. They
must agree exactly on block profiles with mixed and large denominators
(up to 10^12), negative levels and counts up to 10^9, and on profiles
built as generation builds them, over a denominator of 6 that their
levels may not need. The rank-order views (``same_multiset`` and
leximin) are checked against sorted level lists, also on pairs of a
generated profile and a parsed rearrangement of its levels.

Each exact rule's compare is checked on 10,000 seeded pairs against the
verdict and float margin of a ``Fraction`` difference of entry-by-entry
values (``_oracles``), including margins beyond the float range and
margins that underflow to zero.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from welfareax import (
    BoundedG,
    ConcavePoor,
    ConstantLambda,
    Identity,
    MultiThreshold,
    PiecewiseLinear,
    Profile,
    RankWeighted,
    Rdu,
    SuffAvg,
    TableLambda,
    Verdict,
    boundedg_value,
    concavepoor_value,
    multithreshold_value,
    rankweighted_value,
    rdu_value_exact,
    suffavg_value,
    swo_compare,
)
from welfareax.orderings import _shortfall, leximin_compare
from welfareax.profiles import format_level, parse_profile_line

import _oracles as O
from _oracles import naive_leximin

SEEDED = settings(max_examples=150, derandomize=True, deadline=None)

denominators = st.one_of(st.integers(1, 12), st.integers(1, 10**12))
# levels in [-50, 50]; g below is defined on [-100, 100]
levels = denominators.flatmap(lambda q: st.integers(-50 * q, 50 * q).map(lambda k: Fraction(k, q)))
counts = st.one_of(st.integers(1, 3), st.integers(1, 10**9))
weights = denominators.flatmap(lambda q: st.integers(1, q).map(lambda k: Fraction(k, q + 1)))
KNOTS = [(-100, -150), (0, 0), (Fraction(7, 3), 2), (100, 50)]
G = st.sampled_from([Identity(), PiecewiseLinear.from_pairs(KNOTS)])


def generated_profiles(max_size: int):
    """Numerators over 6, all multiples of one step, so 6 is often more than the levels need."""
    return st.tuples(
        st.sampled_from([1, 2, 3, 6]), st.lists(st.integers(-50, 50), min_size=1, max_size=max_size)
    ).map(lambda sk: Profile.from_numerators(6, [sk[0] * k for k in sk[1]]))


def block_profiles(count=counts, max_blocks: int = 8):
    blocks = st.lists(st.tuples(levels, count), min_size=1, max_size=max_blocks)
    return st.one_of(blocks.map(Profile.from_blocks), generated_profiles(max_blocks))


def ref_size(u: Profile) -> int:
    return sum(c for _, c in u.blocks)


def ref_total(u: Profile) -> Fraction:
    return sum((v * c for v, c in u.blocks), Fraction(0))


def ref_mean(u: Profile) -> Fraction:
    return ref_total(u) / ref_size(u)


def ref_shortfall(u: Profile, theta: Fraction, g=Identity()) -> Fraction:
    return sum(
        ((g.exact(v) - g.exact(theta)) * c for v, c in u.blocks if v < theta), Fraction(0)
    )


def ref_ranked(u: Profile) -> list[Fraction]:
    return sorted(v for v, c in u.blocks for _ in range(c))


@SEEDED
@given(block_profiles(), levels)
def test_shortfall_total_mean(u, theta):
    assert Fraction(*_shortfall(u, theta)) == ref_shortfall(u, theta)
    assert u.total() == ref_total(u)
    assert u.mean() == ref_mean(u)
    assert len(u) == ref_size(u)


@SEEDED
@given(block_profiles(), levels, weights)
def test_suffavg(u, theta, lam):
    spec = SuffAvg(theta, ConstantLambda(lam))
    assert suffavg_value(u, spec) == lam * ref_shortfall(u, theta) + (1 - lam) * ref_mean(u)


@SEEDED
@given(
    block_profiles(),
    st.lists(levels, min_size=1, max_size=3, unique=True).map(sorted),
    st.lists(st.integers(1, 10**6), min_size=4, max_size=4),
)
def test_multithreshold(u, thetas, raw):
    raw = raw[: len(thetas) + 1]
    w = tuple(Fraction(x, sum(raw)) for x in raw)
    want = sum(
        (wk * ref_shortfall(u, theta) for wk, theta in zip(w, thetas)), Fraction(0)
    ) + w[-1] * ref_mean(u)
    assert multithreshold_value(u, MultiThreshold(tuple(thetas), weights=w)) == want


@SEEDED
@given(
    block_profiles(st.integers(1, 3), max_blocks=6),
    levels,
    weights,
    st.lists(st.integers(1, 10**6), min_size=18, max_size=18),
)
def test_rankweighted(u, theta, lam, raw):
    n = ref_size(u)
    raw = sorted(raw[:n], reverse=True)
    w = tuple(Fraction(x, sum(raw)) for x in raw)
    spec = RankWeighted(theta, ConstantLambda(lam), ((n, w),))
    weighted = sum((wk * x for wk, x in zip(w, ref_ranked(u))), Fraction(0))
    assert rankweighted_value(u, spec) == lam * ref_shortfall(u, theta) + (1 - lam) * weighted


@SEEDED
@given(block_profiles(), levels, weights, G)
def test_boundedg_exact(u, theta, lam, g):
    value = boundedg_value(u, BoundedG(theta, ConstantLambda(lam), g))
    avg = sum((g.exact(v) * c for v, c in u.blocks), Fraction(0)) / ref_size(u)
    assert value.is_exact
    assert value.value == lam * ref_shortfall(u, theta) + (1 - lam) * avg


@SEEDED
@given(block_profiles(), levels, weights, G)
def test_concavepoor_exact(u, theta, lam, g):
    value = concavepoor_value(u, ConcavePoor(theta, TableLambda(((ref_size(u), lam),)), g))
    assert value.is_exact
    assert value.value == lam * ref_shortfall(u, theta, g) + (1 - lam) * ref_mean(u)


rhos = st.one_of(
    st.sampled_from([Fraction(1), Fraction(101, 100), Fraction(3, 2), Fraction(99, 100),
                     Fraction(1, 2)]),
    st.tuples(st.integers(1, 10**12), st.integers(1, 10**12)).map(lambda ab: Fraction(*ab)),
)


@SEEDED
@given(block_profiles(st.one_of(st.integers(1, 8), st.integers(1, 80)), max_blocks=8), rhos, G)
def test_rdu_exact_table(u, rho, g):
    want = sum(
        (rho ** (-i) * g.exact(x) for i, x in enumerate(ref_ranked(u))), Fraction(0)
    )
    assert rdu_value_exact(u, Rdu(rho, g)) == want


def test_rdu_exact_table_at_rho_one_is_the_plain_sum():
    u = Profile.from_blocks([(Fraction(-7, 3), 5), (Fraction(1, 10**12), 2), (4, 57)])
    assert rdu_value_exact(u, Rdu(1, Identity())) == ref_total(u)


def parsed(levels) -> Profile:
    return parse_profile_line(",".join(map(format_level, levels)))


small_profiles = block_profiles(st.integers(1, 3))
nudges = st.sampled_from([Fraction(1, 6), Fraction(-1, 2), Fraction(1), Fraction(1, 10**12)])


@st.composite
def profile_pairs(draw):
    """Independent profiles, or a profile and the parse of a rearrangement of
    its levels, one entry nudged or none, in either order."""
    u = draw(small_profiles)
    kind = draw(st.sampled_from(["independent", "rearranged", "nudged"]))
    if kind == "independent":
        v = draw(small_profiles)
    else:
        xs = list(draw(st.permutations(u.levels())))
        if kind == "nudged":
            i = draw(st.integers(0, len(xs) - 1))
            xs[i] += draw(nudges)
        v = parsed(xs)
    return (u, v) if draw(st.booleans()) else (v, u)


@SEEDED
@given(profile_pairs())
def test_rank_order_views(pair):
    u, v = pair
    lu, lv = list(u.levels()), list(v.levels())
    assert Profile.from_blocks(u.sorted_blocks()).levels() == tuple(sorted(lu))
    assert u.same_multiset(v) == (sorted(lu) == sorted(lv))
    assert leximin_compare(u, v).verdict == naive_leximin(lu, lv)


def test_generated_and_parsed_profiles_share_one_ranked_view():
    generated = Profile.from_numerators(6, [6, 12, 6])
    assert generated.den == 1
    assert generated.ranked == parsed([1, 2, 1]).ranked == (1, (1, 2), (2, 1))
    assert generated.same_multiset(parsed([2, 1, 1]))


# ---------------------------------------------------------------------------
# verdicts and margins of each exact rule against a Fraction reference

PAIRS = 10_000
PL = PiecewiseLinear.from_pairs(KNOTS)
PL_REF = partial(O.piecewise_linear, KNOTS)
HUGE, TINY = Fraction(10**400), Fraction(1, 10**400)


def groups(rng: random.Random, count: int, extremes: bool) -> list[list[list[Fraction]]]:
    """Seeded groups of level lists: a base of 1-6 levels, its rearrangement, and copies
    nudged by 1/6 or -1/2. With ``extremes``, one group in four also holds a copy nudged
    by +-10^-400 (a margin that underflows to 0.0), and one in eight holds a level near
    10^400 (a margin beyond the float range against the rest); their big ints are kept
    rare, as they would dominate the test's time."""
    out = []
    for k in range(count):
        q = rng.choice([1, 2, 3, 6, 7, 12, 10**12])
        base = [Fraction(rng.randint(-50 * q, 50 * q), q) for _ in range(rng.randint(1, 6))]
        if extremes and k % 8 == 4:
            base[0] += HUGE
        nudges = [Fraction(1, 6), Fraction(-1, 2)]
        if extremes and k % 4 == 0:
            nudges.append(rng.choice([TINY, -TINY]))
        group = [base, rng.sample(base, len(base))]
        for nudge in nudges:
            nudged = list(base)
            nudged[rng.randrange(len(base))] += nudge
            group.append(nudged)
        out.append(group)
    return out


def profile(levels: list[Fraction]) -> Profile:
    """Parsed as levels, or, when their sum is an even integer, built over 12 times their
    least denominator, as generation builds profiles over a denominator they may not need."""
    den = math.lcm(*(x.denominator for x in levels))
    if sum(levels) % 2:
        return Profile.from_levels(levels)
    return Profile.from_numerators(12 * den, [int(x * 12 * den) for x in levels])


def check_pairs(seed: int, specs, reference, value, extremes=True, pairs=PAIRS) -> Counter:
    """Seeded pairs, half within one group (the same size) and half across groups
    (mostly of different sizes), each with a spec drawn from ``specs``:
    ``swo_compare``'s verdict and margin are those of ``reference`` values, and
    ``value`` (the public entry point) gives each reference value."""
    rng = random.Random(seed)
    pool = groups(rng, 32, extremes)
    profiles = [[profile(levels) for levels in group] for group in pool]
    refs: dict = {}

    def ref(s, g, k):
        if (s, g, k) not in refs:
            refs[s, g, k] = reference(specs[s], pool[g][k])
            assert value(profiles[g][k], specs[s]) == refs[s, g, k], (specs[s], pool[g][k])
        return refs[s, g, k]

    seen = Counter()
    for _ in range(pairs):
        s, g = rng.randrange(len(specs)), rng.randrange(len(pool))
        h = g if rng.random() < 0.5 else rng.randrange(len(pool))
        k, m = rng.randrange(len(pool[g])), rng.randrange(len(pool[h]))
        result = swo_compare(specs[s], profiles[g][k], profiles[h][m], cross_size=True)
        verdict, margin = O.fraction_verdict(ref(s, g, k), ref(s, h, m))
        assert (result.verdict, repr(result.margin)) == (verdict, repr(margin)), (
            specs[s], pool[g][k], pool[h][m]
        )
        seen[verdict] += 1
        seen["inf"] += math.isinf(margin)
        seen["underflow"] += margin == 0 and verdict is not Verdict.EQUIVALENT
    return seen


def covers_all(seen: Counter, extremes: bool = True) -> bool:
    """Every verdict was met, and with ``extremes`` both ends of the float range."""
    needed = [Verdict.STRICTLY_BETTER, Verdict.STRICTLY_WORSE, Verdict.EQUIVALENT]
    return all(seen[key] > 0 for key in needed + ["inf", "underflow"] * extremes)


# A family's pairs, split by transform: three quarters under the identity, with extreme
# levels, and a quarter under the table, without (a level near 10^400 lies outside its
# domain).
TRANSFORMS = pytest.mark.parametrize(
    "g,g_ref,extremes,pairs",
    [(Identity(), O.identity, True, PAIRS * 3 // 4), (PL, PL_REF, False, PAIRS // 4)],
    ids=["identity", "piecewise"],
)
LAMBDAS = [ConstantLambda(Fraction(1, 5)), ConstantLambda(Fraction(1, 2))]
THETAS = [Fraction(0), Fraction(7, 3), Fraction(-5)]


@TRANSFORMS
def test_rdu_verdicts(g, g_ref, extremes, pairs):
    rhos = [Fraction(1, 2), Fraction(1), Fraction(101, 100), Fraction(3, 2)]
    specs = [Rdu(rho, g) for rho in rhos]
    seen = check_pairs(
        1, specs, lambda p, xs: O.fraction_rdu(xs, p.rho, g_ref), rdu_value_exact, extremes, pairs
    )
    assert covers_all(seen, extremes)


def test_suffavg_verdicts():
    specs = [SuffAvg(theta, lam) for theta in THETAS for lam in LAMBDAS]
    seen = check_pairs(
        2, specs, lambda p, xs: O.fraction_suffavg(xs, p.theta_p, p.schedule.value), suffavg_value
    )
    assert covers_all(seen)


def test_multithreshold_verdicts():
    specs = [
        MultiThreshold((0, 2), weights=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
        MultiThreshold(
            (Fraction(-7, 3), Fraction(1, 10**12), 5),
            weights=(Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)),
        ),
    ]
    seen = check_pairs(
        3, specs, lambda p, xs: O.fraction_multithreshold(xs, p.thetas, p.weights),
        multithreshold_value,
    )
    assert covers_all(seen)


def test_rankweighted_verdicts():
    sizes = range(1, 7)
    linear = tuple((n, tuple(Fraction(2 * (n - r), n * (n + 1)) for r in range(n))) for n in sizes)
    steep = tuple((n, tuple(Fraction(2 ** (n - r - 1), 2**n - 1) for r in range(n))) for n in sizes)
    specs = [RankWeighted(t, LAMBDAS[0], table) for t in THETAS for table in (linear, steep)]

    def reference(p, xs):
        weights = dict(p.weights_table)[len(xs)]
        return O.fraction_rankweighted(xs, p.theta_p, p.schedule.value, weights)

    assert covers_all(check_pairs(4, specs, reference, rankweighted_value))


@TRANSFORMS
def test_boundedg_and_concavepoor_verdicts(g, g_ref, extremes, pairs):
    rules = (BoundedG, ConcavePoor)
    specs = [rule(theta, lam, g) for rule in rules for theta in THETAS[:2] for lam in LAMBDAS]

    def reference(p, xs):
        rule = O.fraction_boundedg if isinstance(p, BoundedG) else O.fraction_concavepoor
        return rule(xs, p.theta_p, p.schedule.value, g_ref)

    def value(u, p):
        return (boundedg_value if isinstance(p, BoundedG) else concavepoor_value)(u, p).value

    assert covers_all(check_pairs(5, specs, reference, value, extremes, pairs), extremes)
