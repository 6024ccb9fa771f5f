from fractions import Fraction

import pytest
import yaml

from welfareax import (
    BoundedG,
    ConcavePoor,
    ConfigError,
    ConstantLambda,
    Leximin,
    MidpointLambda,
    MultiThreshold,
    RankWeighted,
    Rdu,
    SaturatingExp,
    Sqrt,
    SuffAvg,
    TableLambda,
    ordering_from_config,
    ordering_to_config,
)

SPECS = [
    Leximin(),
    Rdu(Fraction(101, 100), Sqrt()),
    SuffAvg(0, ConstantLambda(Fraction(1, 5))),
    SuffAvg(10, TableLambda.from_mapping({2: "1/3", 5: "2/5"})),
    SuffAvg(10, MidpointLambda(Fraction(10), Fraction(1), Fraction(10), Fraction(1), Fraction(1, 2))),
    MultiThreshold((0, 5), weights=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
    MultiThreshold((0,), weights_table=((3, (Fraction(2, 3), Fraction(1, 3))),)),
    RankWeighted(0, ConstantLambda(Fraction(1, 2)), ((2, (Fraction(3, 4), Fraction(1, 4))),)),
    BoundedG(0, ConstantLambda(Fraction(1, 4)), SaturatingExp(Fraction(5), Fraction(2))),
    ConcavePoor(4, ConstantLambda(Fraction(1, 2)), Sqrt()),
]

# the documents ordering_to_config wrote for SPECS before the ordering
# types owned their config fields; repr compares nested key order too
DOCS = [
    {"ordering": "leximin"},
    {"ordering": "rdu", "rho": "101/100", "g": {"kind": "sqrt"}},
    {"ordering": "suffavg", "theta_p": "0", "lambda": "1/5"},
    {"ordering": "suffavg", "theta_p": "10", "lambda_table": {"2": "1/3", "5": "2/5"}},
    {
        "ordering": "suffavg",
        "theta_p": "10",
        "lambda_midpoint": {"alpha": "10", "beta": "1", "gamma": "10", "delta": "1", "ratio": "1/2"},
    },
    {"ordering": "multithreshold", "thetas": ["0", "5"], "weights": ["1/2", "1/3", "1/6"]},
    {"ordering": "multithreshold", "thetas": ["0"], "weights_table": {"3": ["2/3", "1/3"]}},
    {
        "ordering": "rankweighted",
        "theta_p": "0",
        "lambda": "1/2",
        "weights_table": {"2": ["3/4", "1/4"]},
    },
    {
        "ordering": "boundedg",
        "theta_p": "0",
        "lambda": "1/4",
        "g": {"kind": "saturating_exp", "cap": "5", "scale": "2"},
    },
    {"ordering": "concavepoor", "theta_p": "4", "lambda": "1/2", "g": {"kind": "sqrt"}},
]


@pytest.mark.parametrize("spec,doc", zip(SPECS, DOCS), ids=[s.tag for s in SPECS])
def test_ordering_to_config_pinned(spec, doc):
    assert repr(ordering_to_config(spec)) == repr(doc)
    assert ordering_from_config(doc) == spec


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.tag)
def test_ordering_config_roundtrip(spec):
    doc = ordering_to_config(spec)
    # through YAML text, as the CLI does
    recovered = ordering_from_config(yaml.safe_load(yaml.safe_dump(doc)))
    assert recovered == spec


def test_yaml_decimal_levels_parse_exactly():
    doc = yaml.safe_load("ordering: suffavg\ntheta_p: 0\nlambda: '0.2'\n")
    spec = ordering_from_config(doc)
    assert spec.schedule.value == Fraction(1, 5)


def test_unknown_tag_rejected():
    with pytest.raises(ConfigError):
        ordering_from_config({"ordering": "nash"})
    with pytest.raises(ConfigError):
        ordering_from_config({"no": "tag"})


def test_missing_parameter_rejected():
    with pytest.raises(ConfigError):
        ordering_from_config({"ordering": "rdu"})
    with pytest.raises(ConfigError):
        ordering_from_config({"ordering": "suffavg", "theta_p": 1})
