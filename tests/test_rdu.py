import itertools
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from welfareax import (
    ConfigError,
    DomainError,
    Identity,
    Profile,
    Rdu,
    Sqrt,
    Verdict,
    permute,
    rdu_compare,
    rdu_value,
    rdu_value_exact,
)

from _oracles import rdu_highprec
from conftest import profiles

RHO2 = Rdu(Fraction(2), Sqrt())


def test_single_and_two_person_values():
    assert rdu_value(Profile.from_levels([4]), RHO2).value == pytest.approx(2.0)
    # 1 * sqrt(1) + 0.5 * sqrt(4)
    assert rdu_value(Profile.from_levels([1, 4]), RHO2).value == pytest.approx(2.0)


def test_value_uses_ascending_ranks():
    # worst-off gets weight 1 regardless of input order
    a = rdu_value(Profile.from_levels([4, 1]), RHO2)
    b = rdu_value(Profile.from_levels([1, 4]), RHO2)
    assert a.value == b.value == pytest.approx(2.0)


def test_exact_value_identity_g():
    p = Rdu(Fraction(2), Identity())
    assert rdu_value_exact(Profile.from_levels([1, 4]), p) == 3
    assert rdu_value_exact(Profile.from_levels([1, 4, 8]), p) == 5


def test_exact_matches_float():
    p = Rdu(Fraction(3, 2), Identity())
    u = Profile.from_levels([3, -1, 7, 0, 2])
    exact = rdu_value_exact(u, p)
    approx = rdu_value(u, p)
    assert abs(float(exact) - approx.value) <= approx.bound


def test_domain_error_propagates():
    with pytest.raises(DomainError):
        rdu_value(Profile.from_levels([-1, 4]), RHO2)


def test_rho_validation_and_flag():
    with pytest.raises(ConfigError):
        Rdu(Fraction(0), Sqrt())
    assert Rdu(Fraction(1, 2), Sqrt()).warnings
    assert not Rdu(Fraction(2), Sqrt()).warnings


@given(
    st.fractions(min_value=Fraction(0), max_value=Fraction(50), max_denominator=8),
    st.integers(min_value=1, max_value=40),
    st.fractions(min_value=Fraction(11, 10), max_value=Fraction(3), max_denominator=10),
)
def test_geometric_series_identity_constant_profiles(c, n, rho):
    """For (c, ..., c): value = g(c) * (1 - rho^-n) * rho / (rho - 1)."""
    p = Rdu(rho, Sqrt())
    got = rdu_value(Profile.constant(c, n), p)
    with mpmath.workprec(200):
        r = mpmath.mpf(rho.numerator) / rho.denominator
        expected = mpmath.sqrt(mpmath.mpf(c.numerator) / c.denominator) * (1 - r**-n) * r / (r - 1)
    assert abs(got.value - expected) <= got.bound


def test_large_constant_block_against_closed_form():
    p = Rdu(Fraction(101, 100), Sqrt())
    got = rdu_value(Profile.constant(100, 10**6), p)
    rho = 1.01
    expected = 10 * (1 - rho ** -(10**6)) * rho / (rho - 1)
    assert got.value == pytest.approx(expected, rel=1e-11)


def test_highprec_oracle_agreement_moderate_sizes():
    p = Rdu(Fraction(101, 100), Sqrt())
    u = Profile.from_blocks([(90, 1), (100, 999), (300, 9000)])
    got = rdu_value(u, p)
    oracle = rdu_highprec(u, Fraction(101, 100), "sqrt")
    assert abs(got.value - oracle) <= got.bound


def test_compare_reflexive_and_antisymmetric():
    u = Profile.from_levels([1, 4, 9])
    v = Profile.from_levels([4, 4, 4])
    assert rdu_compare(u, u, RHO2).verdict is Verdict.EQUIVALENT
    assert rdu_compare(u, v, RHO2).verdict is rdu_compare(v, u, RHO2).verdict.flipped()


def test_compare_cross_sizes_allowed():
    u = Profile.constant(100, 10)
    v = Profile.constant(100, 20)
    assert rdu_compare(v, u, RHO2).verdict is Verdict.STRICTLY_BETTER


def test_exact_tie_detected():
    p = Rdu(Fraction(2), Identity())
    u = Profile.from_levels([0, 4])  # 0 + 2
    v = Profile.from_levels([1, 2])  # 1 + 1
    res = rdu_compare(u, v, p)
    assert res.verdict is Verdict.EQUIVALENT
    assert not res.numerically_tied  # decided exactly, not flagged


@given(profiles(max_size=4), st.integers(0, 23))
@settings(max_examples=60)
def test_anonymity(u, perm_index):
    p = Rdu(Fraction(3, 2), Identity())
    perms = list(itertools.permutations(range(len(u))))
    pi = perms[perm_index % len(perms)]
    res = rdu_compare(u, permute(u, pi), p)
    assert res.verdict is Verdict.EQUIVALENT


@given(profiles(min_size=2, max_size=5))
@settings(max_examples=60)
def test_strong_pareto_strict_increase(u):
    p = Rdu(Fraction(3, 2), Identity())
    bumped = u.with_value_at(0, u.value_at(0) + Fraction(1, 2))
    assert rdu_compare(bumped, u, p).verdict is Verdict.STRICTLY_BETTER
