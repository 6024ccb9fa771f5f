"""A bad argument to a library call is refused as the package's own error, never as
an ``AttributeError`` or ``TypeError`` from deep inside it."""

import pytest

from welfareax import (
    Anonymity,
    ConfigError,
    DomainError,
    InfeasibleParameters,
    Leximin,
    Profile,
    Rdu,
    Sqrt,
    generate_instances,
    rdu_value_exact,
    replicate,
    run_suite,
)
from welfareax.chains import LiftStep


def test_exact_rdu_value_under_an_inexact_transform_is_a_domain_error():
    with pytest.raises(DomainError, match="sqrt has no exact rational evaluation"):
        rdu_value_exact(Profile.from_levels([1]), Rdu(2, Sqrt()))


def test_generation_parameters_that_are_not_a_mapping_are_a_config_error():
    with pytest.raises(ConfigError, match="expected a mapping, got 'x'"):
        generate_instances("pigou_dalton", "x")


def test_suite_parameters_that_are_not_a_mapping_are_a_config_error():
    with pytest.raises(ConfigError, match="expected a mapping, got 'x'"):
        run_suite(Leximin(), "anonymity", "x", 3)


@pytest.mark.parametrize("k", [1.5, 2.0, "2"])
def test_a_replication_factor_that_is_not_an_integer_is_refused(k):
    with pytest.raises(InfeasibleParameters, match="positive integer"):
        replicate(Profile.from_levels([1, 2]), k)


def test_a_lift_by_a_factor_that_is_not_an_integer_is_refused():
    base = Anonymity(Profile.from_levels([1, 2]), (1, 0))
    with pytest.raises(InfeasibleParameters, match="positive integer"):
        LiftStep.of(base, "2")
