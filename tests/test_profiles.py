import itertools
import math
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from welfareax import (
    IndexSet,
    InfeasibleParameters,
    Leximin,
    MaterializeError,
    Profile,
    ProfileParseError,
    ReplicationInvariance,
    SizeMismatch,
    WelfareaxError,
    as_level,
    ceil_ratio,
    check_axiom,
    parse_profile_line,
    parse_profiles,
    permute,
    replicate,
    serialize_profile,
)
from welfareax.chains import parse_chain, validate_chain
from welfareax.profiles import MATERIALIZE_LIMIT, aligned_runs, argsort, block_runs, parse_level
from welfareax.propositions import build_prop4_chain

from conftest import profiles


def ranked(u: Profile) -> Profile:
    return Profile.from_blocks(u.sorted_blocks())


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
    assert as_level("1e400") == 10**400
    assert as_level("1e-400") == Fraction(1, 10**400)
    assert as_level("1.5e-3") == Fraction(3, 2000)
    assert parse_profile_line("1e400, -1.25, 1.5e-3").blocks == (
        (Fraction(10**400), 1),
        (Fraction(-5, 4), 1),
        (Fraction(3, 2000), 1),
    )


def test_an_exponent_beyond_the_digit_limit_is_refused_at_once():
    # Fraction's parser would build 10**exponent in full (seconds for 1e10000000)
    limit = sys.get_int_max_str_digits()
    assert as_level(f"1e{limit}") == 10**limit
    for literal in ("1e10000000", "-2.5E-10000000", "1e+1000000000", f"1e{limit + 1}"):
        start = time.perf_counter()
        with pytest.raises(InfeasibleParameters, match="bad level literal"):
            as_level(literal)
        with pytest.raises(ProfileParseError, match="bad level literal") as err:
            parse_profile_line(f"1, 2*{literal}")
        assert err.value.column == 3
        assert time.perf_counter() - start < 0.1, literal


def test_profile_parsing_and_runs():
    p = parse_profile_line("90, 999*100, 999000*300")
    assert len(p) == 10**6
    assert p.blocks == ((Fraction(90), 1), (Fraction(100), 999), (Fraction(300), 999000))
    assert p.value_at(0) == 90
    assert p.value_at(1000) == 300


def test_profile_parse_errors_carry_position():
    with pytest.raises(ProfileParseError) as err:
        parse_profile_line("1, x, 3")
    assert err.value.line == 1
    assert err.value.column > 1
    with pytest.raises(ProfileParseError):
        parse_profile_line("0*5")
    with pytest.raises(ProfileParseError):
        parse_profile_line("1,,2")


def fraction_level(text: str) -> Fraction:
    """A level literal read by ``Fraction`` alone: ``p/q`` from its two ints, else its parser."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InfeasibleParameters(f"bad level literal {text!r}") from exc


def fraction_profile_line(line: str, line_no: int = 1) -> Profile:
    """Reference reader: a ``Fraction`` per entry, then ``Profile.from_blocks``."""
    body = line.split("#", 1)[0]
    blocks, col = [], 1
    for entry in body.split(","):
        if entry.strip() == "":
            raise ProfileParseError("empty profile entry", line_no, col)
        count, value_text = 1, entry.strip()
        if "*" in value_text:
            count_text, _, value_text = value_text.partition("*")
            try:
                count = int(count_text.strip())
            except ValueError:
                raise ProfileParseError(f"bad repeat count {count_text.strip()!r}", line_no, col)
            if count < 1:
                raise ProfileParseError("repeat count must be >= 1", line_no, col)
        try:
            blocks.append((fraction_level(value_text), count))
        except InfeasibleParameters:
            raise ProfileParseError(f"bad level literal {value_text.strip()!r}", line_no, col)
        col += len(entry) + 1
    return Profile.from_blocks(blocks)


GOOD_LEVELS = ["0/5", "-0", "+3", "3_000", "1.25", "-0.5", "1e3", "2E-2", "1e400", "-7", "1_0/2_0"]
BAD_ENTRIES = ["1/0", "0x10", "1/2/3", "x", "", "0*1", "-2*1", "x*1", "2*", "1.5/2", " / "]


def random_entry(rng) -> str:
    kind = rng.randrange(5)
    if kind == 0:  # a non-reduced p/q, the denominator of either sign
        g = rng.randint(1, 12)
        text = f"{rng.randint(-40, 40) * g}/{rng.choice((1, -1)) * rng.randint(1, 9) * g}"
    elif kind == 1:
        text = str(rng.randint(-10**6, 10**6))
    elif kind == 2:  # an exact decimal or exponent
        text = f"{rng.randint(-999, 999)}.{rng.randint(0, 999)}e{rng.randint(-5, 5)}"
    else:
        text = rng.choice(GOOD_LEVELS)
    if rng.random() < 0.3:
        text = f"{rng.randint(1, 10**6)} * {text}"
    return " " * rng.randint(0, 2) + text + " " * rng.randint(0, 2)


def test_int_reader_matches_the_fraction_reader_seeded():
    rng = random.Random(2718)
    entries = refusals = 0
    while entries < 6000:
        line = [random_entry(rng) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.15:
            line.insert(rng.randrange(len(line) + 1), rng.choice(BAD_ENTRIES))
        entries += len(line)
        text, line_no = ",".join(line) + rng.choice(("", "  # note")), rng.randint(1, 50)
        try:
            want = fraction_profile_line(text, line_no)
        except ProfileParseError as exc:
            with pytest.raises(ProfileParseError) as got:
                parse_profile_line(text, line_no)
            assert str(got.value) == str(exc), text
            assert (got.value.line, got.value.column) == (exc.line, exc.column), text
            refusals += 1
            continue
        got = parse_profile_line(text, line_no)
        assert got == want and hash(got) == hash(want), text
    assert refusals >= 200, refusals
    for level in GOOD_LEVELS + [e for e in BAD_ENTRIES if "*" not in e]:
        try:
            want = fraction_level(level)
        except InfeasibleParameters as exc:
            with pytest.raises(InfeasibleParameters, match=re.escape(str(exc))):
                parse_level(level)
        else:
            assert parse_level(level) == want


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
    members = IndexSet.from_ranges([(0, MATERIALIZE_LIMIT + 1)])
    assert len(members) == MATERIALIZE_LIMIT + 1 and MATERIALIZE_LIMIT in members
    with pytest.raises(MaterializeError):
        next(iter(members))


def test_with_value_at_splits_blocks():
    p = Profile.from_blocks([(5, 4)])
    q = p.with_value_at(2, 7)
    assert q.levels() == (5, 5, 7, 5)
    assert p.levels() == (5, 5, 5, 5)
    assert str(q) == serialize_profile(q) == "2*5,7,5"
    for index in (-1, 4):
        with pytest.raises(IndexError, match=f"index {index} out of range"):
            q.value_at(index)


def test_index_set_roundtrip_and_membership():
    s = IndexSet.from_indices([0, 1, 2, 7, 9, 10])
    assert s.serialize() == "0-2,7,9-10"
    assert IndexSet.parse(s.serialize()) == s
    assert len(s) == 6
    assert 7 in s and 8 not in s


def test_tally_counts_members_per_run_seeded():
    s = IndexSet.from_indices([0, 1, 2, 7, 9, 10])
    runs = [(0, 1), (1, 7), (8, 3), (11, 2)]
    assert [members for _, members in s.tally(runs)] == [1, 3, 2, 0]
    # multi-range sets against blocks that straddle their edges: the cursor
    # must count what per-position membership counts, run by run
    rng = random.Random(61)
    for _ in range(2000):
        n = rng.randint(2, 24)
        M = IndexSet.from_indices(p for p in range(n) if rng.random() < 0.45)
        u, v = (
            Profile.from_levels([rng.randint(0, 2) for _ in range(n)]) for _ in range(2)
        )
        runs = list(block_runs(u.blocks, v.blocks))
        got = list(M.tally(iter(runs)))
        assert [run for run, _ in got] == runs
        expected = [sum(p in M for p in range(start, start + count)) for start, count, *_ in runs]
        assert [members for _, members in got] == expected, (M, runs)


def test_block_counts_must_be_integral():
    # an integral count in any form is read; a fractional one is refused,
    # not truncated (2.5 once gave 2 entries and 0.5 dropped its block)
    for count in (3, 3.0, "3", Fraction(3), "6/2", "30e-1"):
        assert Profile.from_blocks([(1, count)]) == Profile.from_levels([1, 1, 1])
    assert Profile.from_blocks([(1, "1e3")]) == Profile.constant(1, 1000)
    for blocks in ([(1, 2.5)], [(1, Fraction(5, 2))], [(2, 0.5), (1, 1)], [(1, "2.5")]):
        with pytest.raises(InfeasibleParameters, match="is not an integer"):
            Profile.from_blocks(blocks)


def test_malformed_block_counts_are_refused():
    for count in ("x", float("nan"), None, float("inf"), object(), "1/0"):
        with pytest.raises(InfeasibleParameters, match="is not an integer"):
            Profile.from_blocks([(1, count)])
    with pytest.raises(InfeasibleParameters, match="negative block count"):
        Profile.from_blocks([(1, -1.0)])


def test_huge_text_block_count_is_refused_before_it_is_expanded():
    # text counts go through the level reader, whose exponent guard refuses
    # "1e1000000" before 10**1000000 is built (Fraction's parser took 0.23 s)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(InfeasibleParameters, match="is not an integer"):
            Profile.from_blocks([(1, "1e1000000")])
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.01, seconds


def test_profiles_beyond_an_index_are_refused():
    huge = 10**30
    for call in (
        lambda: Profile.from_blocks([(1, huge), (2, 1)]),
        lambda: Profile.constant(1, sys.maxsize + 1),
        lambda: replicate(Profile.from_blocks([(1, 2**62), (2, 1)]), 2),
    ):
        with pytest.raises(InfeasibleParameters) as exc:
            call()
        assert str(exc.value) == f"profile has more than {sys.maxsize} entries"
    assert len(Profile.constant(1, sys.maxsize)) == sys.maxsize


def test_replication_past_the_block_limit_is_refused_before_it_is_built():
    distinct, seam = Profile.from_levels([1, 2]), Profile.from_levels([1, 2, 1])
    half = MATERIALIZE_LIMIT // 2
    for u, k, blocks in [
        (distinct, 10**12, 2 * 10**12),
        (distinct, 10**400, 2 * 10**400),
        (seam, 10**12, 2 * 10**12 + 1),
        (distinct, half + 1, MATERIALIZE_LIMIT + 2),
        (seam, half, MATERIALIZE_LIMIT + 1),
    ]:
        with pytest.raises(MaterializeError) as exc:
            replicate(u, k)
        assert str(exc.value) == (
            f"{k} copies make {blocks} blocks, beyond the materialization limit"
        )
    # at the limit the copies are built; a single block takes O(1) at any factor
    assert len(replicate(seam, half - 1).counts) == MATERIALIZE_LIMIT - 1
    assert replicate(Profile.constant(1, 3), 10**12).counts == (3 * 10**12,)


def test_replications_that_inputs_ask_for_are_refused():
    fixtures = Path(__file__).parent / "data" / "certificates"
    lifted = (fixtures / "chain2_0.cert").read_text().replace("lift k=7 ", "lift k=1000000000000 ")
    descended = (fixtures / "chain3_0.cert").read_text().replace("descent k=4 ", "descent k=1e400 ")
    u, v = Profile.from_levels([1, 2]), Profile.from_levels([2, 1])
    for call in (
        lambda: validate_chain(parse_chain(lifted)),
        lambda: validate_chain(parse_chain(descended)),
        lambda: check_axiom(Leximin(), ReplicationInvariance(u, v, 10**12)),
        lambda: build_prop4_chain(
            Profile.from_levels([Fraction(1, 10), 10**6]), Profile.from_levels([0, 10**6])
        ),
    ):
        with pytest.raises(MaterializeError, match="blocks, beyond the materialization limit"):
            call()


def _merged(blocks) -> tuple:
    """Reference merge on Fractions: zero counts dropped, adjacent repeats merged."""
    out = []
    for x, c in blocks:
        x = Fraction(x)
        if c and out and out[-1][0] == x:
            out[-1] = (x, out[-1][1] + c)
        elif c:
            out.append((x, c))
    return tuple(out)


def _expanded(blocks) -> list:
    return [Fraction(x) for x, c in blocks for _ in range(c)]


def test_every_constructor_builds_the_canonical_form():
    rng = random.Random(1519)
    for _ in range(2000):
        den = rng.choice([1, 2, 3, 4, 6, 8, 9, 12, 30])
        numerators = [rng.randint(-3 * den, 3 * den) for _ in range(rng.randint(1, 6))]
        numerators = [a if i == 0 or rng.random() < 0.6 else numerators[i - 1]
                      for i, a in enumerate(numerators)]  # adjacent repeats
        counts = [rng.randint(0, 3) for _ in numerators]
        counts[rng.randrange(len(counts))] += 1  # at least one entry
        # the text form "a/den" is not reduced: 4/6, 0/12
        blocks = [(f"{a}/{den}", c) for a, c in zip(numerators, counts)]
        levels = _expanded(blocks)
        u = Profile.from_blocks(blocks)
        m = rng.randint(1, 5)
        i = rng.randrange(len(levels))
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        k = rng.randint(1, 3)
        shifts = {rng.randrange(len(levels)): rng.randint(-9, 9) for _ in range(2)}
        shifted = [x + Fraction(shifts.get(p, 0), u.den * m) for p, x in enumerate(levels)]
        pi = list(range(len(levels)))
        rng.shuffle(pi)
        scattered = [None] * len(levels)
        for source, target in enumerate(pi):
            scattered[target] = levels[source]
        cases = [
            (u, levels),
            (Profile.from_levels(levels), levels),
            (Profile.from_numerators(den * m, [a * m for a in numerators], counts), levels),
            (u.with_value_at(i, x), levels[:i] + [x] + levels[i + 1:]),
            (u.shifted(shifts, u.den * m), shifted),
            (replicate(u, k), levels * k),
            (permute(u, pi), scattered),
        ]
        for profile, expected in cases:
            assert math.gcd(profile.den, *profile.numerators) == 1, profile
            assert 0 not in profile.counts, profile
            assert all(a != b for a, b in zip(profile.numerators, profile.numerators[1:])), profile
            reference = Profile.from_levels(expected)
            assert profile == reference and hash(profile) == hash(reference), (profile, expected)
            assert profile.blocks == _merged((level, 1) for level in expected), profile


def test_aligned_runs_covers_mismatched_blocks():
    u = Profile.from_blocks([(1, 3), (2, 2)])
    v = Profile.from_blocks([(1, 2), (5, 3)])
    runs = list(aligned_runs(u, v))
    assert runs == [
        (0, 2, Fraction(1), Fraction(1)),
        (2, 1, Fraction(1), Fraction(5)),
        (3, 2, Fraction(2), Fraction(5)),
    ]
    with pytest.raises(SizeMismatch, match="sizes 5 and 4"):
        next(aligned_runs(u, Profile.from_blocks([(1, 4)])))


def test_bad_levels_are_package_errors():
    u, v = Profile.from_levels([1, 2, 3]), Profile.from_levels([1, 1, 5])
    for call in (
        lambda: Profile.from_levels(["x"]),
        lambda: Profile.from_levels([object()]),
        lambda: build_prop4_chain(u, v, "abc"),
        lambda: Profile.from_blocks(()),
        lambda: Profile.from_blocks([(1, -1)]),
        lambda: replicate(u, 0),
        lambda: IndexSet.from_indices([-1]),
        lambda: IndexSet.parse("3-1"),
        lambda: IndexSet.parse("x"),
        lambda: permute(Profile.from_levels([1, 2]), (0, 0)),
    ):
        with pytest.raises(WelfareaxError):
            call()
