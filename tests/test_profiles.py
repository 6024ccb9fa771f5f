import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from welfareax import (
    IndexSet,
    InfeasibleParameters,
    MaterializeError,
    Profile,
    ProfileParseError,
    WelfareaxError,
    as_level,
    ceil_ratio,
    parse_profile_line,
    parse_profiles,
    permute,
    replicate,
    serialize_profile,
)
from welfareax.profiles import aligned_runs, argsort
from welfareax.propositions import build_prop4_chain

from conftest import profiles


def ranked(u: Profile) -> Profile:
    return Profile(u.sorted_blocks())


def test_rank_sorts_ascending():
    assert ranked(Profile.from_levels([3, 1, 2])).levels() == (1, 2, 3)
    assert ranked(Profile.from_levels([5, 5, 5])).levels() == (5, 5, 5)
    assert ranked(Profile.from_levels([90, 100, 100, 300])).levels() == (90, 100, 100, 300)


def test_rank_provenance_is_stable_for_ties():
    order = argsort(Profile.from_levels([2, 1, 2, 1]))
    # ties keep original relative order: positions 1, 3 then 0, 2
    assert order == (1, 3, 0, 2)


def test_rank_idempotent():
    u = Profile.from_levels([4, -1, 4, 0])
    once = ranked(u)
    assert ranked(once) == once


def test_rank_invariant_under_all_permutations_small_n():
    base = [Fraction(1), Fraction(3), Fraction(1), Fraction(-2)]
    u = Profile.from_levels(base)
    expected = u.sorted_blocks()
    for pi in itertools.permutations(range(4)):
        assert permute(u, pi).sorted_blocks() == expected


def test_replicate_blocks_and_length():
    u = Profile.from_levels([1, 2])
    assert replicate(u, 2).levels() == (1, 2, 1, 2)
    assert replicate(Profile.from_levels([7]), 3).levels() == (7, 7, 7)
    assert replicate(u, 1) is u
    for k in (0, -1):
        with pytest.raises(InfeasibleParameters):
            replicate(u, k)


def test_replicate_equals_merged_copies_seeded():
    # the copies of merged blocks merge only where one copy's last level
    # meets the next copy's first; single-block and equal-end profiles
    # are the draws where that happens
    rng = random.Random(2024)
    shapes = {"single": 0, "equal ends": 0, "distinct ends": 0}
    for _ in range(600):
        pool = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
        counts = (1, 2, 5, 10**12)
        blocks = [(rng.choice(pool), rng.choice(counts)) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.4:
            blocks.append((blocks[0][0], rng.randint(1, 4)))
        u = Profile.from_blocks(blocks)
        first, last = u.blocks[0][0], u.blocks[-1][0]
        if len(u.blocks) == 1:
            shape = "single"
        else:
            shape = "equal ends" if first == last else "distinct ends"
        shapes[shape] += 1
        for k in range(1, 7):
            assert replicate(u, k) == Profile.from_blocks(u.blocks * k), (u, k)
        assert replicate(u, 1) is u
    assert min(shapes.values()) >= 50, shapes


def test_replicate_then_rank_repeats_each_level():
    u = Profile.from_levels([2, 0, 1])
    k = 3
    assert replicate(u, k).sorted_blocks() == tuple((v, c * k) for v, c in u.sorted_blocks())


def test_permute_scatter_semantics():
    u = Profile.from_levels([1, 2, 3])
    assert permute(u, (0, 1, 2)) == u
    # result[pi[i]] = u[i]
    assert permute(u, (1, 0, 2)).levels() == (2, 1, 3)
    with pytest.raises(ValueError):
        permute(u, (0, 0, 2))


@given(st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=20),
       st.integers(min_value=1, max_value=200))
def test_ceil_ratio_bracket(lam, n):
    m = ceil_ratio(lam, n)
    assert m - 1 < lam * n <= m


def test_ceil_ratio_examples():
    assert ceil_ratio(Fraction(1, 2), 4) == 2
    assert ceil_ratio(Fraction(3, 10), 7) == 3
    assert ceil_ratio(Fraction(1, 3), 3) == 1


def test_levels_parse_exactly():
    assert as_level("0.2") == Fraction(1, 5)
    assert as_level("-1.25") == Fraction(-5, 4)
    assert as_level("7/3") == Fraction(7, 3)
    assert as_level(0.2) == Fraction(1, 5)


def test_profile_parsing_and_runs():
    p = parse_profile_line("90, 999*100, 999000*300")
    assert len(p) == 10**6
    assert p.blocks == ((Fraction(90), 1), (Fraction(100), 999), (Fraction(300), 999000))
    assert p.value_at(0) == 90
    assert p.value_at(1000) == 300
    assert p.min_level() == 90 and p.max_level() == 300


def test_profile_parse_errors_carry_position():
    with pytest.raises(ProfileParseError) as err:
        parse_profile_line("1, x, 3")
    assert err.value.line == 1
    assert err.value.column > 1
    with pytest.raises(ProfileParseError):
        parse_profile_line("0*5")
    with pytest.raises(ProfileParseError):
        parse_profile_line("1,,2")


def test_profile_file_roundtrip():
    text = "1,2,3\n# comment\n1000000*100  # inline\n-1/2, 2*0.25\n"
    parsed = parse_profiles(text)
    assert len(parsed) == 3
    for p in parsed:
        assert parse_profile_line(serialize_profile(p)) == p


@given(profiles())
def test_serialize_roundtrip_random(p):
    assert parse_profile_line(serialize_profile(p)) == p


def test_materialize_guard():
    huge = Profile.constant(1, 10**9)
    with pytest.raises(MaterializeError):
        huge.levels()
    assert len(huge) == 10**9
    assert huge.mean() == 1


def test_with_value_at_splits_blocks():
    p = Profile.from_blocks([(5, 4)])
    q = p.with_value_at(2, 7)
    assert q.levels() == (5, 5, 7, 5)
    assert p.levels() == (5, 5, 5, 5)


def test_index_set_roundtrip_and_overlap():
    s = IndexSet.from_indices([0, 1, 2, 7, 9, 10])
    assert s.serialize() == "0-2,7,9-10"
    assert IndexSet.parse(s.serialize()) == s
    assert len(s) == 6
    assert 7 in s and 8 not in s
    assert s.overlap(1, 8) == 3


def test_aligned_runs_covers_mismatched_blocks():
    u = Profile.from_blocks([(1, 3), (2, 2)])
    v = Profile.from_blocks([(1, 2), (5, 3)])
    runs = list(aligned_runs(u, v))
    assert runs == [
        (0, 2, Fraction(1), Fraction(1)),
        (2, 1, Fraction(1), Fraction(5)),
        (3, 2, Fraction(2), Fraction(5)),
    ]


def test_bad_levels_are_package_errors():
    u, v = Profile.from_levels([1, 2, 3]), Profile.from_levels([1, 1, 5])
    for call in (
        lambda: Profile.from_levels(["x"]),
        lambda: Profile.from_levels([object()]),
        lambda: build_prop4_chain(u, v, "abc"),
        lambda: Profile(()),
        lambda: Profile.from_blocks([(1, -1)]),
        lambda: replicate(u, 0),
        lambda: IndexSet.from_indices([-1]),
        lambda: IndexSet.parse("3-1"),
        lambda: IndexSet.parse("x"),
        lambda: permute(Profile.from_levels([1, 2]), (0, 0)),
    ):
        with pytest.raises(WelfareaxError):
            call()
