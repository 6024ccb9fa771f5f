from fractions import Fraction

import pytest

from welfareax import (
    ConfigError,
    DomainError,
    Identity,
    InfeasibleParameters,
    LogShifted,
    PiecewiseLinear,
    SaturatingExp,
    Sqrt,
    g_from_config,
    g_to_config,
)


def test_identity_exact():
    g = Identity()
    assert g.is_exact
    assert g.exact(Fraction(-7, 3)) == Fraction(-7, 3)
    assert g.value(2) == 2.0


def test_sqrt_domain():
    g = Sqrt()
    assert g.value(4) == 2.0
    with pytest.raises(DomainError):
        g.value(Fraction(-1))


def test_log_shifted_domain():
    g = LogShifted(Fraction(1))
    assert g.value(0) == 0.0
    with pytest.raises(DomainError):
        g.value(Fraction(-1))


def test_saturating_exp_shape():
    g = SaturatingExp(Fraction(5), Fraction(2))
    assert g.upper_bound == 5
    # linear extension below zero, matching slope cap/scale at 0
    assert g.value(-2) == pytest.approx(-5.0)
    assert g.value(0) == 0.0
    assert g.value(10) < 5.0
    assert g.value(1000) <= 5.0  # saturates at the cap in floats
    # increasing and concave on a grid
    xs = [x / 2 for x in range(-8, 40)]
    ys = [g.value(x) for x in xs]
    diffs = [b - a for a, b in zip(ys, ys[1:])]
    assert all(d > 0 for d in diffs)
    assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(diffs, diffs[1:]))
    with pytest.raises(ConfigError):
        SaturatingExp(Fraction(-1), Fraction(2))


@pytest.mark.parametrize(
    "g",
    [
        Identity(),
        Sqrt(),
        LogShifted(Fraction(1)),
        SaturatingExp(Fraction(1), Fraction(1)),
        PiecewiseLinear.from_pairs([(0, 0), (1, 2), (3, 3)]),
    ],
)
def test_text_levels_read_as_levels(g):
    # float() refuses "p/q" and reads "inf", "nan" and "1e400"; every transform reads a
    # text as the level it names, which "inf" and "nan" are not, and 10^400 is no float
    assert g.value("1/2") == g.value(Fraction(1, 2))
    # the domain check returns the level as the ints value reads
    assert g.check_domain("1/2") == (1, 2) and g.check_domain(3, 6) == (3, 6)
    for text in ("abc", "inf", "nan", "-inf"):
        with pytest.raises(InfeasibleParameters):
            g.value(text)
    with pytest.raises(DomainError):
        g.value("1e400")
    for den in (0, -2, 1.5):  # an int level is a numerator over a positive int
        with pytest.raises(InfeasibleParameters):
            g.value(1, den)


def test_piecewise_linear_validation_and_eval():
    g = PiecewiseLinear.from_pairs([(0, 0), (1, 2), (3, 3)])
    assert g.is_exact
    assert g.exact(Fraction(1, 2)) == 1
    assert g.exact(Fraction(2)) == Fraction(5, 2)
    with pytest.raises(DomainError):
        g.exact(Fraction(4))
    with pytest.raises(ConfigError):
        PiecewiseLinear.from_pairs([(0, 0), (1, 1), (2, 3)])  # convex corner
    with pytest.raises(ConfigError):
        PiecewiseLinear.from_pairs([(0, 0), (1, 0)])  # not increasing


@pytest.mark.parametrize(
    "g",
    [
        Identity(),
        Sqrt(),
        LogShifted(Fraction(3, 2)),
        SaturatingExp(Fraction(7), Fraction(3)),
        PiecewiseLinear.from_pairs([(-1, -2), (0, 0), (2, 1)]),
    ],
)
def test_config_roundtrip(g):
    assert g_from_config(g_to_config(g)) == g


def test_config_shorthand():
    assert g_from_config("sqrt") == Sqrt()
    with pytest.raises(ConfigError):
        g_from_config({"kind": "cubic"})
