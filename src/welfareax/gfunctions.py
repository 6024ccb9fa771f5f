"""Increasing concave transforms applied to well-being levels.

Each transform is a frozen dataclass that owns its rules:

* ``value`` evaluates it in floating point and ``exact`` in exact
  rational arithmetic, which identity and piecewise-linear tables
  support (``is_exact``) and square root, shifted log and the saturating
  exponential refuse;
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
from fractions import Fraction

from .codec import LEVEL, Record
from .errors import ConfigError, DomainError
from .profiles import as_level, format_level


class _Transform(Record):
    """Base of the transforms; ``kind`` is the tag of its config document."""

    kind = ""
    upper_bound = None

    def check_domain(self, x: Fraction) -> None:
        pass


@dataclass(frozen=True)
class Identity(_Transform):
    kind = "identity"
    is_exact = True

    def exact(self, x: Fraction) -> Fraction:
        return x

    def value(self, x) -> float:
        return float(x)


@dataclass(frozen=True)
class Sqrt(_Transform):
    kind = "sqrt"
    is_exact = False

    def check_domain(self, x: Fraction) -> None:
        if x < 0:
            raise DomainError(f"sqrt undefined for negative level {format_level(x)}")

    def exact(self, x: Fraction) -> Fraction:
        raise DomainError("sqrt has no exact rational evaluation")

    def value(self, x) -> float:
        self.check_domain(as_level(x) if not isinstance(x, float) else Fraction(x))
        return math.sqrt(float(x))


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
        xf = as_level(x) if not isinstance(x, float) else Fraction(x)
        self.check_domain(xf)
        return math.log(float(x) + float(self.shift))


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
    config_fields = {"cap": LEVEL, "scale": LEVEL}

    def __post_init__(self):
        super().__post_init__()
        if self.cap <= 0 or self.scale <= 0:
            raise ConfigError("saturating_exp needs cap > 0 and scale > 0")

    @property
    def upper_bound(self) -> Fraction:
        return self.cap

    def exact(self, x: Fraction) -> Fraction:
        raise DomainError("saturating_exp has no exact rational evaluation")

    def value(self, x) -> float:
        xf = float(x)
        cap, scale = float(self.cap), float(self.scale)
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
        return float(self.exact(as_level(x)))


GFunction = Identity | Sqrt | LogShifted | SaturatingExp | PiecewiseLinear


_TRANSFORMS = {
    cls.kind: cls for cls in (Identity, Sqrt, LogShifted, SaturatingExp, PiecewiseLinear)
}


def g_to_config(g: GFunction) -> dict:
    return g.encode_fields({"kind": g.kind})


def g_from_config(doc) -> GFunction:
    if isinstance(doc, str):
        doc = {"kind": doc}
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("transform config must be a mapping with a 'kind'")
    cls = _TRANSFORMS.get(str(doc["kind"]))
    if cls is None:
        raise ConfigError(f"unknown transform kind {doc['kind']!r}")
    return cls.from_fields(doc, "transform parameter")


#: the codec field of an ordering's transform
TRANSFORM = (_Transform, g_to_config, g_from_config)
