"""Increasing concave transforms applied to well-being levels.

Each transform is a frozen dataclass that owns its rules:

* ``value(x, den=1)`` evaluates it in floating point on the level x / den,
  an int numerator over a positive int as a profile stores it (any other
  level is read once by ``as_level``), through one correctly rounded int
  division, refusing a level beyond the float range, and ``exact``
  (``exact_scaled``, from int view to int view) in exact rational
  arithmetic, which identity and piecewise-linear tables support
  (``is_exact``) and square root, shifted log and the saturating
  exponential refuse;
* ``error(x, gx, den=1)`` bounds |value - g|: ``ulps`` times EPS * |value|
  (at least one ulp) plus ``floor``, the absolute error of roundings to
  subnormal floats, or an absolute model for the shifted log, assuming
  libm calls within one ulp and parameters that are normal floats;
* ``check_domain(x, den=1)`` refuses levels outside its domain, exactly on
  the ints, and returns the level as the ints ``value`` reads; construction
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
from .errors import ConfigError, DomainError, InfeasibleParameters
from .profiles import _cached, as_level, format_level, over_common_denominator

EPS = 2.0**-52  # the spacing of floats at 1
TINY = math.ulp(0.0)  # 2**-1074, the spacing of subnormal floats


def _ints(x, den: int) -> tuple[int, int]:
    """The level x / den as ints; an x that is not an int is read by ``as_level``."""
    if type(x) is not int:
        x, q = as_level(x).as_integer_ratio()
        den *= q
    if type(den) is not int or den < 1:
        raise InfeasibleParameters(f"level denominator {den!r} is not a positive integer")
    return x, den


def _quotient(a: int, den: int) -> float:
    """a / den of ints, correctly rounded; a level beyond the float range is a ``DomainError``."""
    try:
        return a / den
    except OverflowError:
        level = (Decimal(a) / den).normalize()
        raise DomainError(f"level {level:.6g} is too large for a float") from None


class _Transform(Record):
    """Base of the transforms; ``kind`` is the tag of its config document."""

    kind = ""
    is_exact = False
    upper_bound = None
    ulps = 1  # one rounding of the level or of g (sqrt halves the level's)
    # A rounding to a subnormal float is off by up to 2**-1075 absolute, not
    # EPS/2 relative; ``floor`` bounds what such roundings move g by.
    floor = TINY

    def error(self, x, gx: float, den: int = 1) -> float:
        """A bound on |value(x, den) - g(x / den)|, given gx = value(x, den)."""
        return self.ulps * EPS * abs(gx) + self.floor

    def check_domain(self, x, den: int = 1) -> tuple[int, int]:
        """The level x / den as ints, refused when outside the domain."""
        return _ints(x, den)

    def exact_scaled(self, den, numerators):
        raise DomainError(f"{self.kind} has no exact rational evaluation")


@dataclass(frozen=True)
class Identity(_Transform):
    kind = "identity"
    is_exact = True

    def exact(self, x: Fraction) -> Fraction:
        return x

    def exact_scaled(self, den, numerators):
        return den, numerators

    def value(self, x, den: int = 1) -> float:
        return _quotient(*_ints(x, den))


@dataclass(frozen=True)
class Sqrt(_Transform):
    kind = "sqrt"
    floor = 2.0**-537  # |sqrt(a) - sqrt(b)| <= sqrt(|a - b|); a subnormal level is off by 2**-1075

    def check_domain(self, x, den: int = 1) -> tuple[int, int]:
        a, den = _ints(x, den)
        if a < 0:
            raise DomainError(f"sqrt undefined for negative level {format_level(Fraction(a, den))}")
        return a, den

    def exact(self, x: Fraction) -> Fraction:
        raise DomainError("sqrt has no exact rational evaluation")

    def value(self, x, den: int = 1) -> float:
        return math.sqrt(_quotient(*self.check_domain(x, den)))


@dataclass(frozen=True)
class LogShifted(_Transform):
    """g(x) = log(x + shift), defined for x > -shift."""

    shift: Fraction
    kind = "log_shifted"
    config_fields = {"shift": LEVEL}
    config_defaults = {"shift": 1}

    def check_domain(self, x, den: int = 1) -> tuple[int, int]:
        a, den = _ints(x, den)
        if a * self.shift.denominator + self.shift.numerator * den <= 0:
            raise DomainError(
                f"log undefined at level {format_level(Fraction(a, den))} "
                f"with shift {format_level(self.shift)}"
            )
        return a, den

    def exact(self, x: Fraction) -> Fraction:
        raise DomainError("log has no exact rational evaluation")

    def value(self, x, den: int = 1) -> float:
        a, den = self.check_domain(x, den)
        s = _quotient(a, den) + _quotient(*self.shift.as_integer_ratio())
        if s <= 0:
            raise DomainError(
                f"level {format_level(Fraction(a, den))} is within float rounding of the "
                f"log's pole at {format_level(-self.shift)}"
            )
        return math.log(s)

    def error(self, x, gx: float, den: int = 1) -> float:
        """Absolute, as g's relative error is unbounded near log(1): a = float(x)
        + float(shift) is off by d = EPS (|float(x)| + |float(shift)| + a) + TINY
        or less (a subnormal level is off by 2**-1075), which moves log(a) by
        -log1p(-d / a) or less; log adds an ulp."""
        xf, shift = _quotient(*_ints(x, den)), _quotient(*self.shift.as_integer_ratio())
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
    ulps = 4  # three conversions, a division, expm1 and a product
    config_fields = {"cap": LEVEL, "scale": LEVEL}

    def __post_init__(self):
        super().__post_init__()
        if self.cap <= 0 or self.scale <= 0:
            raise ConfigError("saturating_exp needs cap > 0 and scale > 0")

    @_cached
    def _floats(self) -> tuple[float, float]:
        """cap and scale as floats, converted on the first value."""
        return _quotient(*self.cap.as_integer_ratio()), _quotient(*self.scale.as_integer_ratio())

    @_cached
    def floor(self) -> float:
        """In units of 2**-1075, half of TINY: a subnormal rounding of the level
        moves g by up to cap / scale units, of the product (x < 0) by 1 / scale,
        of the quotient (x >= 0) by cap, of expm1 (an ulp) by 2 cap, of g by 1."""
        cap, scale = self._floats
        return TINY * ((cap + 1) / scale + 2 * cap + 1)

    @property
    def upper_bound(self) -> Fraction:
        return self.cap

    def exact(self, x: Fraction) -> Fraction:
        raise DomainError("saturating_exp has no exact rational evaluation")

    def value(self, x, den: int = 1) -> float:
        xf, (cap, scale) = _quotient(*_ints(x, den)), self._floats
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
        # segment k's line s_k x + c_k, as ints (p_k, q_k) over one denominator m
        intercepts = [y - s * x for (x, y), s in zip(self.points, slopes)]
        m, ints = over_common_denominator(slopes + intercepts)
        lines = tuple(zip(ints, ints[len(slopes):]))
        object.__setattr__(self, "_table", (*over_common_denominator(xs), m, lines))

    @staticmethod
    def from_pairs(pairs) -> "PiecewiseLinear":
        return PiecewiseLinear(_POINTS[2](pairs))

    def exact_scaled(self, den, numerators):
        """The images of the levels a / den, as ints over m * den: (p_k a + q_k den) / (m den)
        on the first segment k whose right knot is at or above a / den."""
        xden, knots, m, lines = self._table
        segments = [(x * den, p, q * den) for x, (p, q) in zip(knots[1:], lines)]
        images = []
        for a in numerators:
            ax = a * xden
            for right, p, c in segments:
                if ax <= right:
                    break
            if not knots[0] * den <= ax <= right:
                raise DomainError(
                    f"level {format_level(Fraction(a, den))} outside table domain "
                    f"[{format_level(self.points[0][0])}, {format_level(self.points[-1][0])}]"
                )
            images.append(p * a + c)
        return m * den, tuple(images)

    def _image(self, x, den: int) -> tuple[int, int]:
        """The image of the level x / den, as an int over an int."""
        a, den = _ints(x, den)
        den, (y,) = self.exact_scaled(den, (a,))
        return y, den

    def check_domain(self, x, den: int = 1) -> tuple[int, int]:
        a, den = _ints(x, den)
        self.exact_scaled(den, (a,))
        return a, den

    def exact(self, x) -> Fraction:
        return Fraction(*self._image(x, 1))

    def value(self, x, den: int = 1) -> float:
        return _quotient(*self._image(x, den))


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
