"""Exact-rational well-being profiles with run-length block storage.

A profile is a finite vector of well-being levels. Levels are exact
rationals (``fractions.Fraction``), so rankings, axiom preconditions and
piecewise-linear social values are decided without rounding. Profiles
are stored as run-length blocks, which keeps million-entry constant runs
O(1) and mirrors the ``k*x`` text syntax, in one integer form: the least
common denominator of the levels, one int numerator per block, and the
block counts. The exact sums and the precondition walks run on that form.
Derived from it and cached are the size, the ``blocks`` as (Fraction
level, count) pairs, and ``ranked``, the distinct levels ascending with
their counts, which every reader of the profile's order uses.

Profile text format (consumed by the CLI, emitted by search and replay):
one profile per line; entries separated by commas; an entry is either a
single level or ``k*x`` for k copies of level x; a level is an integer,
an exact decimal (``-1.25``), or a ``p/q`` rational; ``#`` starts a
comment. Example::

    1000000*100             # constant million-entry profile
    90, 999*100, 999000*300
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, inf, lcm, log10
from numbers import Integral
from typing import Iterable, Iterator, Sequence

from .errors import InfeasibleParameters, MaterializeError, ProfileParseError, SizeMismatch

Level = Fraction

#: Most entries ``levels()`` / ``permute`` expand one by one; most blocks ``replicate`` builds.
MATERIALIZE_LIMIT = 2_000_000


# ---------------------------------------------------------------------------
# levels


def as_level(value) -> Fraction:
    """Coerce ints, Fractions, exact strings and floats to an exact level.

    Strings follow the profile text syntax (integer, exact decimal, or
    ``p/q``). Floats convert via their shortest decimal repr so that a
    literal like 0.2 means 1/5, not its binary approximation.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return parse_level(repr(value))
    if isinstance(value, str):
        return parse_level(value)
    raise InfeasibleParameters(f"cannot interpret {value!r} as a well-being level")


def parse_level(text: str) -> Fraction:
    text = text.strip()
    try:
        return Fraction(*_level_ints(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InfeasibleParameters(f"bad level literal {text!r}") from exc


def _level_ints(text: str) -> tuple[int, int]:
    """A level literal as an int numerator and denominator, neither reduced nor checked;
    only exact decimals and exponents (``-1.25``, ``1e3``) go through ``Fraction``'s parser,
    which builds 10**exponent in full: past ``int()``'s digit limit, a ``ValueError``."""
    if "/" in text:
        num, den = text.split("/")
        return int(num), int(den)
    try:
        return int(text), 1
    except ValueError:
        _, e, exponent = text.lower().partition("e")
        limit = sys.get_int_max_str_digits()
        if e and limit and abs(int(exponent)) > limit:
            raise ValueError(f"exponent beyond {limit} digits") from None
        x = Fraction(text)
        return x.numerator, x.denominator


def format_level(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# verdicts


class Verdict(Enum):
    STRICTLY_BETTER = "strictly-better"
    STRICTLY_WORSE = "strictly-worse"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"

    def flipped(self) -> "Verdict":
        if self is Verdict.STRICTLY_BETTER:
            return Verdict.STRICTLY_WORSE
        if self is Verdict.STRICTLY_WORSE:
            return Verdict.STRICTLY_BETTER
        return self


@dataclass(frozen=True, slots=True)
class CompareResult:
    """Outcome of one ordering comparison.

    ``margin`` is the signed float value difference for floating
    backends; ``numerically_tied`` marks verdicts where the difference
    fell inside the combined error bound and could not be resolved
    exactly.
    """

    verdict: Verdict
    margin: float | None = None
    numerically_tied: bool = False
    note: str | None = None


# ---------------------------------------------------------------------------
# profiles


def over_common_denominator(levels: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """``(den, numerators)``: each level as an int numerator over their least common denominator."""
    # star-args from a list: a generator's args tuple is resized, stranding free-list tuples
    den = lcm(*[x.denominator for x in levels])
    return den, tuple([x.numerator * (den // x.denominator) for x in levels])


def _normalize_blocks(blocks: Iterable[tuple]) -> tuple[list[Fraction], list[int]]:
    """The levels and the counts of (level, count) blocks, coerced to Fractions and ints."""
    levels, counts = [], []
    for value, count in blocks:
        if type(value) is not Fraction or type(count) is not int:
            try:  # an integral count in any form: 3, 3.0, "3", "6/2" (text is read as a level)
                exact = Fraction(*_level_ints(count)) if type(count) is str else Fraction(count)
            except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                exact = None  # "x", None, nan, inf, "1/0", "1e1000000"
            if exact is None or exact.denominator != 1:
                raise InfeasibleParameters(f"block count {count!r} is not an integer")
            value, count = as_level(value), exact.numerator
        if count < 0:
            raise InfeasibleParameters("negative block count")
        levels.append(value)
        counts.append(count)
    return levels, counts


class _cached:
    """``functools.cached_property`` without the lock Python 3.11 takes on each miss:
    the first read sets the value through ``object.__setattr__``, which a frozen class
    allows and which, unlike writing ``obj.__dict__``, builds no dict for the object."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.name, value)
        return value


@dataclass(frozen=True)
class Profile:
    """Positional vector of levels, stored as merged run-length blocks.

    Block i holds ``counts[i]`` entries of ``numerators[i] / den``, den the
    least common denominator. Every constructor ends in :meth:`from_numerators`,
    so the form is canonical and equality is positional (two profiles are
    equal iff they list the same levels in the same order); use
    :meth:`same_multiset` for anonymity-insensitive comparison.
    """

    den: int
    numerators: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts:
            raise InfeasibleParameters("profile must have at least one entry")
        if self.n > sys.maxsize:
            raise InfeasibleParameters(f"profile has more than {sys.maxsize} entries")

    @staticmethod
    def from_levels(levels: Iterable) -> "Profile":
        return Profile.from_numerators(*over_common_denominator([as_level(x) for x in levels]))

    @staticmethod
    def from_blocks(blocks: Iterable[tuple]) -> "Profile":
        levels, counts = _normalize_blocks(blocks)
        return Profile.from_numerators(*over_common_denominator(levels), counts)

    @staticmethod
    def constant(value, n: int) -> "Profile":
        return Profile.from_blocks([(value, n)])

    @staticmethod
    def from_numerators(den: int, numerators: Iterable[int], counts=None) -> "Profile":
        """Profile of the levels ``a / den``, each ``counts`` times (once if omitted).

        Adjacent equal numerators merge, zero counts drop, and the common
        factor of den and the numerators divides out. Built field by field, size preset.
        """
        merged, merged_counts = [], []
        last = None
        if counts is None:
            for a in numerators:
                if a == last:
                    merged_counts[-1] += 1
                else:
                    merged.append(a)
                    merged_counts.append(1)
                    last = a
        else:
            for a, c in zip(numerators, counts):
                if a == last:
                    merged_counts[-1] += c
                elif c:
                    merged.append(a)
                    merged_counts.append(c)
                    last = a
        g = gcd(den, *merged)
        if g != 1:
            den, merged = den // g, [a // g for a in merged]
        p, set_field = object.__new__(Profile), object.__setattr__
        set_field(p, "den", den)
        set_field(p, "numerators", tuple(merged))
        set_field(p, "counts", tuple(merged_counts))
        set_field(p, "n", sum(merged_counts))
        p.__post_init__()
        return p

    @_cached
    def n(self) -> int:
        return sum(self.counts)

    def __len__(self) -> int:
        return self.n

    @_cached
    def blocks(self) -> tuple[tuple[Fraction, int], ...]:
        """The (level, count) blocks, levels as Fractions."""
        return tuple([(Fraction(a, self.den), c) for a, c in zip(self.numerators, self.counts)])

    @_cached
    def ranked(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """``(den, numerators, counts)``: each level once, ascending.

        Two flat tuples, not one of (numerator, count) pairs, hold 48 bytes less a run."""
        counts: dict[int, int] = {}
        for a, c in zip(self.numerators, self.counts):
            counts[a] = counts[a] + c if a in counts else c
        keys = sorted(counts)
        return self.den, tuple(keys), tuple([counts[a] for a in keys])

    def iter_levels(self) -> Iterator[Fraction]:
        for value, count in self.blocks:
            yield from itertools.repeat(value, count)

    def levels(self) -> tuple[Fraction, ...]:
        _materializable(self)
        return tuple(self.iter_levels())

    def _block(self, index: int) -> tuple[int, int]:
        """(block, end position of the block) of the entry at ``index``."""
        end = 0
        for b, count in enumerate(self.counts):
            end += count
            if 0 <= index < end:
                return b, end
        raise IndexError(f"index {index} out of range for profile of size {self.n}")

    def numerator_at(self, index: int) -> int:
        """The numerator over den of the entry at ``index``."""
        return self.numerators[self._block(index)[0]]

    def value_at(self, index: int) -> Fraction:
        return Fraction(self.numerator_at(index), self.den)

    def total(self) -> Fraction:
        return self.mean() * self.n

    def mean(self) -> Fraction:
        return Fraction(*self.scaled_mean())

    def scaled_mean(self) -> tuple[int, int]:
        """The mean level as ``(numerator, denominator)``: ints over den times n."""
        return sum(a * c for a, c in zip(self.numerators, self.counts)), self.den * self.n

    def sorted_blocks(self) -> tuple[tuple[Fraction, int], ...]:
        """``ranked`` as (level, count) blocks."""
        den, numerators, counts = self.ranked
        return tuple([(Fraction(a, den), c) for a, c in zip(numerators, counts)])

    def same_multiset(self, other: "Profile") -> bool:
        """Whether both hold the same levels as often."""
        return len(self) == len(other) and self.ranked == other.ranked

    def with_value_at(self, index: int, value) -> "Profile":
        """Copy with one entry replaced (used by builders and shrinking)."""
        value = as_level(value)
        shift = value.numerator * self.den - self.numerator_at(index) * value.denominator
        return self.shifted({index: shift}, self.den * value.denominator)

    def shifted(self, shifts: dict[int, int], d: int = 1) -> "Profile":
        """Copy with ``shifts[index] / d`` added to the entry at each index, over the lcm of
        den and d: each block split around its indices, the last index first."""
        den = lcm(self.den, d)
        numerators, counts = [a * (den // self.den) for a in self.numerators], list(self.counts)
        for index in sorted(shifts, reverse=True):
            b, end = self._block(index)
            left, a = index - (end - self.counts[b]), numerators[b]  # a later split leaves these
            numerators[b:b + 1] = a, a + shifts[index] * (den // d), a
            counts[b:b + 1] = left, 1, counts[b] - left - 1  # from_numerators drops the empty sides
        return Profile.from_numerators(den, numerators, counts)

    def without(self, index: int) -> "Profile":
        """Copy with the entry at ``index`` dropped: one fewer in its block."""
        counts = list(self.counts)
        counts[self._block(index)[0]] -= 1
        return Profile.from_numerators(self.den, self.numerators, counts)

    def __str__(self) -> str:
        return serialize_profile(self)


# ---------------------------------------------------------------------------
# core operations


def _materializable(u: Profile) -> int:
    """The size of u, which must not exceed the materialization limit."""
    if u.n > MATERIALIZE_LIMIT:
        raise MaterializeError(f"profile with {u.n} entries exceeds the materialization limit")
    return u.n


def _count_text(x: int) -> str:
    """A positive count in full, or its power of ten from its bit length when it has
    more digits than Python writes an int in (``sys.get_int_max_str_digits()``)."""
    try:
        return str(x)
    except ValueError:
        return f"about 10^{round((x.bit_length() - 0.5) * log10(2))}"


def replicate(u: Profile, k: int) -> Profile:
    """Concatenate k copies of u; u's blocks are merged, so the copies merge only at the seams."""
    if not isinstance(k, Integral) or k < 1:
        raise InfeasibleParameters("replication factor must be a positive integer")
    if k == 1:
        return u
    den, numerators, counts = u.den, u.numerators, u.counts
    if len(counts) == 1:
        return Profile(den, numerators, (counts[0] * k,))
    seam = numerators[0] == numerators[-1]
    blocks = (len(counts) - seam) * k + seam
    if blocks > MATERIALIZE_LIMIT:
        raise MaterializeError(
            f"{_count_text(k)} copies make {_count_text(blocks)} blocks,"
            " beyond the materialization limit"
        )
    if not seam:
        return Profile(den, numerators * k, counts * k)
    counts = counts[:1] + (counts[1:-1] + (counts[-1] + counts[0],)) * (k - 1) + counts[1:]
    return Profile(den, numerators[:-1] * k + numerators[-1:], counts)


def check_permutation(pi: Sequence[int], n: int) -> None:
    """Raise ``InfeasibleParameters`` unless pi is a permutation of 0..n-1."""
    if len(pi) != n or sorted(pi) != list(range(n)):
        raise InfeasibleParameters("pi is not a permutation of 0..n-1")


def permute(u: Profile, pi: Sequence[int]) -> Profile:
    """Scatter permutation: result[pi[i]] = u[i]. Indices are 0-based."""
    n = _materializable(u)
    check_permutation(pi, n)
    out = [0] * n
    entries = (a for a, c in zip(u.numerators, u.counts) for _ in range(c))
    for target, a in zip(pi, entries):
        out[target] = a
    return Profile.from_numerators(u.den, out)


def argsort(u: Profile) -> tuple[int, ...]:
    """Stable ascending argsort: the index of the entry at each rank.

    It is also the scatter permutation pi with permute(ranked u, pi) == u.
    """
    _materializable(u)
    starts = list(itertools.accumulate(u.counts, initial=0))
    order = sorted(range(len(u.counts)), key=u.numerators.__getitem__)
    return tuple(i for b in order for i in range(starts[b], starts[b + 1]))


def sorting_permutation(u: Profile) -> tuple[int, ...]:
    """Scatter permutation pi with permute(u, pi) ranked ascending (stable)."""
    pi = [0] * len(u)
    for position, source in enumerate(argsort(u)):
        pi[source] = position
    return tuple(pi)


def ceil_ratio(lam: Fraction, n: int) -> int:
    """Smallest integer m with m >= lam * n, in exact arithmetic."""
    lam = as_level(lam)
    if not (0 < lam < 1):
        raise InfeasibleParameters("ratio must lie strictly between 0 and 1")
    if n < 1:
        raise InfeasibleParameters("population size must be positive")
    return -(-lam.numerator * n // lam.denominator)


# ---------------------------------------------------------------------------
# index sets (for axiom instances touching huge blocks)


@dataclass(frozen=True, slots=True)
class IndexSet:
    """Sorted union of half-open index ranges; text form uses closed ranges."""

    ranges: tuple[tuple[int, int], ...]

    @staticmethod
    def from_indices(indices: Iterable[int]) -> "IndexSet":
        out: list[tuple[int, int]] = []
        for i in sorted(set(indices)):
            if i < 0:
                raise InfeasibleParameters("negative index")
            if out and out[-1][1] == i:
                out[-1] = (out[-1][0], i + 1)
            else:
                out.append((i, i + 1))
        return IndexSet(tuple(out))

    @staticmethod
    def from_ranges(ranges: Iterable[tuple[int, int]]) -> "IndexSet":
        flat: list[tuple[int, int]] = []
        for start, stop in sorted(ranges):
            if start < 0 or stop <= start:
                raise InfeasibleParameters("empty or negative range")
            if flat and start <= flat[-1][1]:
                flat[-1] = (flat[-1][0], max(flat[-1][1], stop))
            else:
                flat.append((start, stop))
        return IndexSet(tuple(flat))

    def __len__(self) -> int:
        return sum(stop - start for start, stop in self.ranges)

    def __contains__(self, index: int) -> bool:
        return any(start <= index < stop for start, stop in self.ranges)

    def __iter__(self) -> Iterator[int]:
        if len(self) > MATERIALIZE_LIMIT:
            raise MaterializeError("index set too large to iterate")
        for start, stop in self.ranges:
            yield from range(start, stop)

    def tally(self, runs: Iterable[tuple]) -> Iterator[tuple[tuple, int]]:
        """Each (start, count, ...) run with its number of members, for runs that
        tile the positions from 0 in order: one cursor walks the ranges beside them."""
        ranges = iter(self.ranges)
        rstart, rstop = next(ranges, (inf, inf))
        for run in runs:
            start, stop, members = run[0], run[0] + run[1], 0
            while rstart < stop:
                members += min(stop, rstop) - max(start, rstart)
                if rstop > stop:
                    break
                rstart, rstop = next(ranges, (inf, inf))
            yield run, members

    def serialize(self) -> str:
        parts = []
        for start, stop in self.ranges:
            parts.append(str(start) if stop == start + 1 else f"{start}-{stop - 1}")
        return ",".join(parts)

    @staticmethod
    def parse(text: str) -> "IndexSet":
        ranges = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            lo, dash, hi = part.partition("-")
            try:
                ranges.append((int(lo), int(hi if dash else lo) + 1))
            except ValueError as exc:
                raise InfeasibleParameters(f"bad index range {part!r}") from exc
        if not ranges:
            raise InfeasibleParameters("empty index set")
        return IndexSet.from_ranges(ranges)


def aligned_runs(u: Profile, v: Profile) -> Iterator[tuple[int, int, Fraction, Fraction]]:
    """Walk two same-size profiles as maximal runs of constant value pairs.

    Yields (start, count, u_value, v_value). O(blocks), never materializes.
    """
    if len(u) != len(v):
        raise SizeMismatch(f"profiles have sizes {len(u)} and {len(v)}")
    yield from block_runs(u.blocks, v.blocks)


def block_runs(ublocks, vblocks) -> Iterator[tuple[int, int, object, object]]:
    """Maximal runs (start, count, u_value, v_value) of two block lists of equal size.

    The values are whatever the blocks hold: levels, or numerators over
    one common denominator.
    """
    iu, iv = iter(ublocks), iter(vblocks)
    uval, ucnt = next(iu)
    vval, vcnt = next(iv)
    position = 0
    while True:
        take = min(ucnt, vcnt)
        yield position, take, uval, vval
        position += take
        ucnt -= take
        vcnt -= take
        if ucnt == 0:
            nxt = next(iu, None)
            if nxt is None:
                return
            uval, ucnt = nxt
        if vcnt == 0:
            vval, vcnt = next(iv)


# ---------------------------------------------------------------------------
# profile text IO


def _parse_entry(entry: str, line_no: int, col: int) -> tuple[int, int, int]:
    """An entry ``x`` or ``k*x`` as (numerator, nonzero denominator, count) ints."""
    entry = entry.strip()
    if "*" in entry:
        count_text, _, value_text = entry.partition("*")
        try:
            count = int(count_text.strip())
        except ValueError:
            raise ProfileParseError(f"bad repeat count {count_text.strip()!r}", line_no, col)
        if count < 1:
            raise ProfileParseError("repeat count must be >= 1", line_no, col)
    else:
        count, value_text = 1, entry
    value_text = value_text.strip()
    try:
        num, den = _level_ints(value_text)
        if den:
            return num, den, count
    except ValueError:
        pass
    raise ProfileParseError(f"bad level literal {value_text!r}", line_no, col)


def parse_profile_line(line: str, line_no: int = 1) -> Profile:
    """One line of profile text, read as ints and built once over the lcm of its denominators."""
    body = line.split("#", 1)[0]
    entries = []
    col = 1
    for entry in body.split(","):
        if entry.strip() == "":
            raise ProfileParseError("empty profile entry", line_no, col)
        entries.append(_parse_entry(entry, line_no, col))
        col += len(entry) + 1
    numerators, dens, counts = zip(*entries)
    den = lcm(*dens)
    return Profile.from_numerators(den, [a * (den // b) for a, b in zip(numerators, dens)], counts)


def parse_profiles(text: str) -> list[Profile]:
    """Parse a whole profile file: one profile per non-blank, non-comment line."""
    profiles = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.split("#", 1)[0].strip() == "":
            continue
        profiles.append(parse_profile_line(line, line_no))
    return profiles


def serialize_profile(p: Profile) -> str:
    """The text form of p, each level written from its numerator over den in lowest terms."""
    den, parts = p.den, []
    for a, count in zip(p.numerators, p.counts):
        g = gcd(a, den)
        text = str(a // g) if g == den else f"{a // g}/{den // g}"
        parts.append(text if count == 1 else f"{count}*{text}")
    return ",".join(parts)
