import math
import random
from fractions import Fraction

import pytest

from welfareax import (
    CheckStatus,
    DomainError,
    Identity,
    InfeasibleParameters,
    LogShifted,
    Rdu,
    SaturatingExp,
    Sqrt,
    check_axiom,
    validate_preconditions,
)
from welfareax.propositions import (
    prop5_nonagg_condition,
    prop5_ratio_failure,
    ratio_coefficient,
    scan_ratio_coefficients,
)

from _oracles import prop5_sides

# (transform, oracle name, exclusive lower end of the domain or None)
FLOAT_TRANSFORMS = (
    (Sqrt(), ("sqrt",), Fraction(0)),
    (LogShifted(Fraction(1)), ("log_shifted", Fraction(1)), Fraction(-1)),
    (LogShifted(Fraction(1, 10**9)), ("log_shifted", Fraction(1, 10**9)), Fraction(-1, 10**9)),
    (SaturatingExp(Fraction(10), Fraction(3)), ("saturating_exp", Fraction(10), Fraction(3)), None),
)


def _magnitude(rng) -> Fraction:
    """A positive level from 10^-330 (subnormal as a float) to 10^4."""
    exponent = rng.choice((rng.randint(-330, -300), rng.randint(-18, 4)))
    return Fraction(rng.randint(1, 10**6), 10**6) * Fraction(10) ** exponent


class TestNonAggCondition:
    def test_sqrt_example(self):
        report = prop5_nonagg_condition(Sqrt(), 2, 4, 100, 3, 1)
        assert report.lhs == pytest.approx(1.0)
        assert report.rhs == pytest.approx(0.09975124224178, abs=1e-12)
        assert report.holds and report.certain

    def test_log_near_tie_is_not_certain(self):
        # lhs and rhs differ by 1.8e-17 while each float log is off by ~1e-16
        report = prop5_nonagg_condition(
            LogShifted(Fraction(1)),
            3,
            Fraction(81, 10**10),
            Fraction(1, 32),
            Fraction(1, 156250000),
            Fraction(11, 2500000000),
        )
        assert not (report.holds and report.certain)

    def test_float_sides_within_their_bounds(self):
        rng = random.Random(5)
        checked, violations = 0, []
        for i in range(700):
            g, transform, floor = FLOAT_TRANSFORMS[i % len(FLOAT_TRANSFORMS)]
            rho = rng.choice((Fraction(101, 100), Fraction(3, 2), Fraction(3), Fraction(10**6)))
            start = floor if floor is not None else -_magnitude(rng)
            theta_p = start + _magnitude(rng)
            alpha = (theta_p - start) * Fraction(rng.randint(1, 999), 1000)
            beta = alpha * Fraction(rng.randint(1, 999), 1000)
            theta_r = theta_p + _magnitude(rng)
            try:
                report = prop5_nonagg_condition(g, rho, theta_p, theta_r, alpha, beta)
            except DomainError:  # a level within float rounding of the log's pole
                assert isinstance(g, LogShifted), (transform, theta_p, alpha)
                continue
            checked += 1
            lhs, rhs = prop5_sides(transform, rho, theta_p, theta_r, alpha, beta)
            if not (abs(report.lhs - lhs) <= report.lhs_bound
                    and abs(report.rhs - rhs) <= report.rhs_bound):
                violations.append((transform, rho, theta_p, theta_r, alpha, beta, report))
            if report.certain:
                assert report.holds == (lhs >= rhs)
        assert checked >= 500, checked
        assert not violations, f"{len(violations)} of {checked} violate a bound: {violations[:2]}"

    def test_identity_reduces_to_closed_form(self):
        # lhs = alpha, rhs = rho * beta / (rho - 1), decided exactly
        for rho, alpha, beta in [
            (Fraction(2), Fraction(3), Fraction(1)),
            (Fraction(2), Fraction(2), Fraction(1)),
            (Fraction(3, 2), Fraction(7, 2), Fraction(1)),
            (Fraction(5), Fraction(5, 4), Fraction(1)),
        ]:
            report = prop5_nonagg_condition(Identity(), rho, 10, 20, alpha, beta)
            assert report.exact
            assert report.holds == (alpha >= rho * beta / (rho - 1))

    def test_rho_limit_towards_one_makes_rhs_blow_up(self):
        tight = prop5_nonagg_condition(Identity(), Fraction(101, 100), 10, 20, 5, 1)
        assert not tight.holds  # rhs = 101 > alpha = 5

    def test_large_rho_limit_is_bare_difference(self):
        # rho/(rho-1) -> 1: rhs approaches g(theta_r + beta) - g(theta_r)
        report = prop5_nonagg_condition(Identity(), Fraction(10**6), 10, 20, 2, 1)
        assert report.rhs == pytest.approx(1.0, rel=1e-5)

    def test_guards(self):
        with pytest.raises(InfeasibleParameters):
            prop5_nonagg_condition(Identity(), 1, 10, 20, 2, 1)
        with pytest.raises(InfeasibleParameters):
            prop5_nonagg_condition(Identity(), 2, 20, 10, 2, 1)


class TestRatioFailure:
    def test_reference_scan(self):
        report = prop5_ratio_failure(Identity(), Fraction(101, 100), Fraction(1, 2), 2, 1, 10)
        assert report.n_star == 1062
        assert report.witness_n >= report.n_star
        assert report.check.status is CheckStatus.VIOLATED
        assert validate_preconditions(report.witness).ok
        # and the witness really is an exact RDU violation
        spec = Rdu(Fraction(101, 100), Identity())
        assert check_axiom(spec, report.witness).status is CheckStatus.VIOLATED

    def test_larger_rho_fails_sooner(self):
        previous = None
        for rho in (Fraction(102, 100), Fraction(11, 10), Fraction(3, 2)):
            report = prop5_ratio_failure(Identity(), rho, Fraction(1, 2), 2, 1, 10)
            if previous is not None:
                assert report.n_star <= previous
            previous = report.n_star

    def test_sqrt_transform_also_fails(self):
        report = prop5_ratio_failure(Sqrt(), Fraction(3, 2), Fraction(1, 2), 2, 1, 10)
        assert report.check.status is CheckStatus.VIOLATED


class TestCoefficientScan:
    def test_matches_direct_formula(self):
        for rho, lam, step in [
            (Fraction(101, 100), Fraction(1, 2), 1),
            # q = ceil(2n/3) rises by 2 in every step of 3
            (Fraction(101, 100), Fraction(2, 3), 3),
            (Fraction(7, 3), Fraction(1, 3), 2),
        ]:
            r = 1 / rho
            scanned = list(scan_ratio_coefficients(rho, lam, 2, 200, step))
            assert [n for n, _ in scanned] == list(range(2, 201, step))
            for n, coefficient in scanned:
                q = math.ceil(lam * n)
                want = (r ** (n - q + 1) - r ** (n + 1)) / (rho - 1)
                assert coefficient == want
                assert ratio_coefficient(rho, lam, n) == want

    def test_coefficients_are_reduced_fractions_seeded(self):
        # the scan sets a Fraction's slots directly, trusting _ratio_terms'
        # proof that num and den are coprime; check the result is the
        # Fraction that Fraction(num, den) would have built
        rng = random.Random(1062)
        for draw in range(150):
            b = 1 if draw % 5 == 0 else rng.randint(1, 60)
            rho = Fraction(rng.randint(b + 1, 3 * b + 40), b)
            q = rng.randint(2, 25)
            lam, step = Fraction(rng.randint(1, q - 1), q), rng.randint(1, 3)
            n_from = rng.randint(1, 40)
            scanned = list(scan_ratio_coefficients(rho, lam, n_from, n_from + 60, step))
            assert [n for n, _ in scanned] == list(range(n_from, n_from + 61, step))
            for n, c in scanned:
                num, den = c.numerator, c.denominator
                assert type(c) is Fraction and den > 0 and math.gcd(num, den) == 1
                built = Fraction(num, den)
                assert (c, hash(c), repr(c)) == (built, hash(built), repr(built))
                assert ratio_coefficient(rho, lam, n) == c

    def test_coefficient_needs_rho_above_one(self):
        # the scan's guard: at rho = 0 the denominator a^(n+1) is 0, and
        # below 0 it can be negative
        for rho in (Fraction(1), Fraction(1, 2), Fraction(0), Fraction(-3, 2)):
            with pytest.raises(InfeasibleParameters):
                ratio_coefficient(rho, Fraction(1, 2), 5)

    def test_rises_to_a_peak_then_decays(self):
        # for weak discounting the donor count ceil(lam * n) grows faster
        # than the weights decay, so the coefficient rises before its
        # geometric tail takes over
        rho, lam = Fraction(101, 100), Fraction(1, 2)
        values = dict(scan_ratio_coefficients(rho, lam, 2, 600, step=2))
        peak = max(values, key=values.get)
        assert 50 < peak < 300
        tail = [values[n] for n in range(peak, 601, 2)]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_parity_wiggle_from_the_ceiling(self):
        # ceil(lam * n) makes C(2m + 1) exceed C(2m) at every parity step
        rho, lam = Fraction(101, 100), Fraction(1, 2)
        assert ratio_coefficient(rho, lam, 11) > ratio_coefficient(rho, lam, 10)
        assert ratio_coefficient(rho, lam, 12) < ratio_coefficient(rho, lam, 11)

    def test_strong_discounting_decreases_from_the_start(self):
        rho, lam = Fraction(2), Fraction(1, 2)
        values = [c for _, c in scan_ratio_coefficients(rho, lam, 2, 80, step=2)]
        assert all(b < a for a, b in zip(values, values[1:]))
