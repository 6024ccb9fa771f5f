"""One field codec for configuration documents and certificate lines.

A field is a ``(type, encode, decode)`` triple: ``encode`` writes a value
as plain YAML data or certificate text, ``decode`` reads it back, and a
value that already has the type passes through. Axiom instances
(``axioms._FIELDS``), orderings, weight schedules and transforms name
their fields once, in document key order. A field may also be a choice:
a mapping of document keys to fields, of which a document holds exactly
one (a weight schedule is written under ``lambda``, ``lambda_table`` or
``lambda_midpoint``).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .errors import ConfigError, WelfareaxError
from .profiles import (
    Profile,
    as_level,
    format_level,
    parse_profile_line,
    serialize_profile,
)


def _integer(value) -> int:
    level = as_level(value)
    if level.denominator != 1:
        raise ValueError(f"{value!r} is not an integer")
    return level.numerator


def _entries(doc):
    """The items of a document mapping; anything else is a ``TypeError``."""
    if not isinstance(doc, Mapping):
        raise TypeError(f"expected a mapping, got {doc!r}")
    return doc.items()


LEVEL = (Fraction, format_level, as_level)
INTEGER = (int, int, _integer)
PROFILE = (Profile, serialize_profile, lambda value: parse_profile_line(str(value)))
# no passthrough type: a tuple of ints or strings is normalized too
LEVELS = ((), lambda xs: [format_level(x) for x in xs], lambda xs: tuple(map(as_level, xs)))


def table(field) -> tuple:
    """Field of a {population size: value} table, held as ((n, value), ...).

    Always decoded, so rows given as pairs of plain values are normalized too.
    """
    _, encode, decode = field
    return (
        (),
        lambda rows: {str(n): encode(x) for n, x in rows},
        lambda doc: tuple(
            (int(n), decode(x)) for n, x in (doc if isinstance(doc, tuple) else _entries(doc))
        ),
    )


def decode(name: str, field, value):
    """``value`` read through ``field``; a failure is a ``ConfigError`` naming ``name``."""
    kind, _, read = field
    if isinstance(value, kind) and type(value) is not bool:  # a bool is decoded
        return value
    try:
        return read(value)
    except (WelfareaxError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from exc


def _alternative(name: str, choice: Mapping, value) -> tuple[str, tuple]:
    """(document key, field) of the alternative of a choice that holds ``value``."""
    for key, field in choice.items():
        if isinstance(value, field[0]):
            return key, field
    raise ConfigError(f"bad value for {name}: {value!r}")


class Record:
    """Base of the frozen dataclasses that a configuration document describes.

    ``config_fields`` maps field names to fields or choices, in document
    key order; ``config_defaults`` holds the value of a key a document may
    omit. Fields are normalized on construction.
    """

    config_fields: dict = {}
    config_defaults: dict = {}

    def __post_init__(self):
        for name, field in self.config_fields.items():
            value = getattr(self, name)
            if isinstance(field, Mapping):
                _alternative(name, field, value)
            elif value is not None:
                object.__setattr__(self, name, decode(name, field, value))

    def encode_fields(self, doc: dict) -> dict:
        """``doc`` with every field that is set appended."""
        for name, field in self.config_fields.items():
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(field, Mapping):
                name, field = _alternative(name, field, value)
            doc[name] = field[1](value)
        return doc

    @classmethod
    def from_fields(cls, doc, what: str):
        """The record whose fields a document mapping holds; other keys are ignored."""
        _entries(doc)  # refuses anything but a mapping
        values = {}
        for name, field in cls.config_fields.items():
            key = name
            if isinstance(field, Mapping):
                given = [k for k in field if k in doc]
                if len(given) != 1:
                    raise ConfigError("give exactly one of " + " / ".join(field))
                key = given[0]
                field = field[key]
            if key in doc:
                values[name] = decode(key, field, doc[key])
            elif key in cls.config_defaults:
                default = cls.config_defaults[key]
                values[name] = default if default is None else decode(key, field, default)
            else:
                raise ConfigError(f"missing {what} {key!r}")
        return cls(**values)
