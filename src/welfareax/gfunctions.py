"""Increasing concave transforms applied to well-being levels.

Each transform is a frozen dataclass that owns its rules:

* ``value`` evaluates it in floating point, refusing a level beyond the
  float range, and ``exact`` (``exact_scaled`` on an int view) in exact
  rational arithmetic, which identity and piecewise-linear tables
  support (``is_exact``) and square root, shifted log and the
  saturating exponential refuse;
* ``error`` bounds |value(x) - g(x)|: ``ulps`` times EPS * |value| (at
  least one ulp) plus ``floor``, the absolute error of roundings to
  subnormal floats, or an absolute model for the shifted log, assuming
  libm calls within one ulp and parameters that are normal floats;
* ``check_domain`` refuses levels outside its domain, and construction
  validates its shape: builtins are increasing and concave analytically,
  tables are checked exactly through their slopes;
* ``config_fields`` names its parameters for the field codec in
  :mod:`welfareax.codec`, so ``g_to_config`` and ``g_from_config`` read
  and write every transform the same way, keyed by its ``kind``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .codec import LEVEL, Record, read_tagged
from .errors import ConfigError, DomainError
from .profiles import as_level, format_level, over_common_denominator

EPS = 2.0**-52  # the spacing of floats at 1
TINY = math.ulp(0.0)  # 2**-1074, the spacing of subnormal floats


def _float(x) -> float:
    """A level (text ``float`` refuses, as ``p/q``, read by ``as_level``) as a float;
    one beyond the float range is a ``DomainError`` naming it."""
    try:
        return float(x)
    except ValueError:
        return _float(as_level(x))
    except OverflowError:
        x = as_level(x)
        level = (Decimal(x.numerator) / x.denominator).normalize()
        raise DomainError(f"level {level:.6g} is too large for a float") from None


class _Transform(Record):
    """Base of the transforms; ``kind`` is the tag of its config document."""

    kind = ""
    upper_bound = None
    ulps = 1  # one rounding of the level or of g (sqrt halves the level's)
    # A rounding to a subnormal float is off by up to 2**-1075 absolute, not
    # EPS/2 relative; ``floor`` bounds what such roundings move g by.
    floor = TINY

    def error(self, x, gx: float) -> float:
        """A bound on |value(x) - g(x)|, given gx = value(x)."""
        return self.ulps * EPS * abs(gx) + self.floor

    def check_domain(self, x: Fraction) -> None:
        pass

    def exact_scaled(self, den: int, numerators) -> tuple[int, tuple[int, ...]]:
        """The exact images of the levels a / den, as ``(den', numerators')``."""
        return over_common_denominator([self.exact(Fraction(a, den)) for a in numerators])


@dataclass(frozen=True)
class Identity(_Transform):
    kind = "identity"
    is_exact = True

    def exact(self, x: Fraction) -> Fraction:
        return x

    def exact_scaled(self, den, numerators):
        return den, numerators

    def value(self, x) -> float:
        return _float(x)


@dataclass(frozen=True)
class Sqrt(_Transform):
    kind = "sqrt"
    is_exact = False
    floor = 2.0**-537  # |sqrt(a) - sqrt(b)| <= sqrt(|a - b|); a subnormal level is off by 2**-1075

    def check_domain(self, x: Fraction) -> None:
        if x < 0:
            raise DomainError(f"sqrt undefined for negative level {format_level(x)}")

    def exact(self, x: Fraction) -> Fraction:
        raise DomainError("sqrt has no exact rational evaluation")

    def value(self, x) -> float:
        self.check_domain(as_level(x))
        return math.sqrt(_float(x))


@dataclass(frozen=True)
class LogShifted(_Transform):
    """g(x) = log(x + shift), defined for x > -shift."""

    shift: Fraction
    kind = "log_shifted"
    is_exact = False
    config_fields = {"shift": LEVEL}
    config_defaults = {"shift": 1}

    def check_domain(self, x: Fraction) -> None:
        if x + self.shift <= 0:
            raise DomainError(
                f"log undefined at level {format_level(x)} with shift {format_level(self.shift)}"
            )

    def exact(self, x: Fraction) -> Fraction:
        raise DomainError("log has no exact rational evaluation")

    def value(self, x) -> float:
        x = as_level(x)
        self.check_domain(x)
        a = _float(x) + _float(self.shift)
        if a <= 0:
            raise DomainError(
                f"level {format_level(x)} is within float rounding of the log's pole "
                f"at {format_level(-self.shift)}"
            )
        return math.log(a)

    def error(self, x, gx: float) -> float:
        """Absolute, as g's relative error is unbounded near log(1): a = float(x)
        + float(shift) is off by d = EPS (|float(x)| + |float(shift)| + a) + TINY
        or less (a subnormal level is off by 2**-1075), which moves log(a) by
        -log1p(-d / a) or less; log adds an ulp."""
        xf, shift = _float(x), _float(self.shift)
        a = xf + shift
        r = (EPS * (abs(xf) + abs(shift) + a) + TINY) / a
        return EPS * abs(gx) + (-math.log1p(-r) if r < 1 else math.inf)


@dataclass(frozen=True)
class SaturatingExp(_Transform):
    """Bounded concave transform: cap * (1 - exp(-x / scale)) for x >= 0.

    Extended linearly below zero with the matching slope cap / scale, so
    it stays increasing, continuous and concave on all of R while never
    exceeding cap.
    """

    cap: Fraction
    scale: Fraction
    kind = "saturating_exp"
    is_exact = False
    ulps = 4  # three conversions, a division, expm1 and a product
    config_fields = {"cap": LEVEL, "scale": LEVEL}

    def __post_init__(self):
        super().__post_init__()
        if self.cap <= 0 or self.scale <= 0:
            raise ConfigError("saturating_exp needs cap > 0 and scale > 0")

    @property
    def floor(self) -> float:
        """In units of 2**-1075, half of TINY: a subnormal rounding of the level
        moves g by up to cap / scale units, of the product (x < 0) by 1 / scale,
        of the quotient (x >= 0) by cap, of expm1 (an ulp) by 2 cap, of g by 1."""
        cap, scale = _float(self.cap), _float(self.scale)
        return TINY * ((cap + 1) / scale + 2 * cap + 1)

    @property
    def upper_bound(self) -> Fraction:
        return self.cap

    def exact(self, x: Fraction) -> Fraction:
        raise DomainError("saturating_exp has no exact rational evaluation")

    def value(self, x) -> float:
        xf, cap, scale = _float(x), _float(self.cap), _float(self.scale)
        if xf < 0:
            return cap * xf / scale
        return -cap * math.expm1(-xf / scale)


_POINTS = (
    tuple,
    lambda points: [[format_level(x), format_level(y)] for x, y in points],
    lambda points: tuple((as_level(x), as_level(y)) for x, y in points),
)


@dataclass(frozen=True)
class PiecewiseLinear(_Transform):
    """Exact table transform: linear interpolation through (x, y) knots.

    Valid only on [x_0, x_last]. Construction verifies, exactly, that
    slopes are positive (increasing) and nonincreasing (concave).
    """

    points: tuple[tuple[Fraction, Fraction], ...]
    kind = "piecewise_linear"
    is_exact = True
    config_fields = {"points": _POINTS}

    def __post_init__(self):
        super().__post_init__()
        if len(self.points) < 2:
            raise ConfigError("piecewise_linear needs at least two knots")
        xs = [x for x, _ in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ConfigError("piecewise_linear knots must have strictly increasing x")
        slopes = [
            (y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(self.points, self.points[1:])
        ]
        if any(s <= 0 for s in slopes):
            raise ConfigError("piecewise_linear must be strictly increasing")
        if any(s1 > s0 for s0, s1 in zip(slopes, slopes[1:])):
            raise ConfigError("piecewise_linear must be concave (nonincreasing slopes)")

    @staticmethod
    def from_pairs(pairs) -> "PiecewiseLinear":
        return PiecewiseLinear(_POINTS[2](pairs))

    def check_domain(self, x: Fraction) -> None:
        if not (self.points[0][0] <= x <= self.points[-1][0]):
            raise DomainError(
                f"level {format_level(x)} outside table domain "
                f"[{format_level(self.points[0][0])}, {format_level(self.points[-1][0])}]"
            )

    def exact(self, x: Fraction) -> Fraction:
        self.check_domain(x)
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            if x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        raise AssertionError("unreachable")

    def value(self, x) -> float:
        return _float(self.exact(as_level(x)))


GFunction = Identity | Sqrt | LogShifted | SaturatingExp | PiecewiseLinear


_TRANSFORMS = {cls.kind: cls for cls in GFunction.__args__}


def g_to_config(g: GFunction) -> dict:
    return g.encode_fields({"kind": g.kind})


def g_from_config(doc) -> GFunction:
    if isinstance(doc, str):
        doc = {"kind": doc}
    return read_tagged(_TRANSFORMS, doc, "kind", "transform")


#: the codec field of an ordering's transform
TRANSFORM = (_Transform, g_to_config, g_from_config)
