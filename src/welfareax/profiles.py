"""Exact-rational well-being profiles with run-length block storage.

A profile is a finite vector of well-being levels. Levels are exact
rationals (``fractions.Fraction``), so rankings, axiom preconditions and
piecewise-linear social values are decided without rounding. Profiles
are stored as run-length blocks ``(value, count)``, which keeps
million-entry constant runs O(1) and mirrors the ``k*x`` text syntax.

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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import ceil
from typing import Iterable, Iterator, Sequence

from .errors import InfeasibleParameters, MaterializeError, ProfileParseError, SizeMismatch

Level = Fraction

#: Largest profile that ``levels()`` / ``permute`` will expand entry-by-entry.
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
        return Fraction(repr(value))
    if isinstance(value, str):
        return parse_level(value)
    raise TypeError(f"cannot interpret {value!r} as a well-being level")


def parse_level(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)  # handles integers and exact decimals
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad level literal {text!r}") from exc


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


@dataclass(frozen=True)
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

    def flipped(self) -> "CompareResult":
        return CompareResult(
            self.verdict.flipped(),
            None if self.margin is None else -self.margin,
            self.numerically_tied,
            self.note,
        )


# ---------------------------------------------------------------------------
# profiles


def _normalize_blocks(blocks: Iterable[tuple[Fraction, int]]) -> tuple[tuple[Fraction, int], ...]:
    out: list[tuple[Fraction, int]] = []
    for value, count in blocks:
        if count < 0:
            raise ValueError("negative block count")
        if count == 0:
            continue
        if out and out[-1][0] == value:
            out[-1] = (value, out[-1][1] + count)
        else:
            out.append((value, count))
    return tuple(out)


@dataclass(frozen=True)
class Profile:
    """Positional vector of levels, stored as merged run-length blocks.

    Equality is positional (two profiles are equal iff they list the
    same levels in the same order); use :meth:`same_multiset` for
    anonymity-insensitive comparison.
    """

    blocks: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("profile must have at least one entry")

    @staticmethod
    def from_levels(levels: Iterable) -> "Profile":
        blocks = [(as_level(x), 1) for x in levels]
        return Profile(_normalize_blocks(blocks))

    @staticmethod
    def from_blocks(blocks: Iterable[tuple]) -> "Profile":
        return Profile(_normalize_blocks((as_level(v), int(c)) for v, c in blocks))

    @staticmethod
    def constant(value, n: int) -> "Profile":
        return Profile.from_blocks([(value, n)])

    def __len__(self) -> int:
        return sum(c for _, c in self.blocks)

    @property
    def n(self) -> int:
        return len(self)

    def iter_levels(self) -> Iterator[Fraction]:
        for value, count in self.blocks:
            yield from itertools.repeat(value, count)

    def levels(self) -> tuple[Fraction, ...]:
        if len(self) > MATERIALIZE_LIMIT:
            raise MaterializeError(
                f"profile with {len(self)} entries exceeds the materialization limit"
            )
        return tuple(self.iter_levels())

    def value_at(self, index: int) -> Fraction:
        if index < 0:
            raise IndexError("negative profile index")
        offset = 0
        for value, count in self.blocks:
            if index < offset + count:
                return value
            offset += count
        raise IndexError(f"index {index} out of range for profile of size {len(self)}")

    def min_level(self) -> Fraction:
        return min(v for v, _ in self.blocks)

    def max_level(self) -> Fraction:
        return max(v for v, _ in self.blocks)

    def total(self) -> Fraction:
        return sum(v * c for v, c in self.blocks)

    def mean(self) -> Fraction:
        return self.total() / len(self)

    def sorted_blocks(self) -> tuple[tuple[Fraction, int], ...]:
        merged: dict[Fraction, int] = {}
        for value, count in self.blocks:
            merged[value] = merged.get(value, 0) + count
        return tuple(sorted(merged.items()))

    def same_multiset(self, other: "Profile") -> bool:
        return self.sorted_blocks() == other.sorted_blocks()

    def with_value_at(self, index: int, value) -> "Profile":
        """Copy with one entry replaced (used by builders and shrinking)."""
        value = as_level(value)
        out: list[tuple[Fraction, int]] = []
        offset = 0
        done = False
        for bval, count in self.blocks:
            if not done and offset <= index < offset + count:
                left = index - offset
                right = count - left - 1
                if left:
                    out.append((bval, left))
                out.append((value, 1))
                if right:
                    out.append((bval, right))
                done = True
            else:
                out.append((bval, count))
            offset += count
        if not done:
            raise IndexError(f"index {index} out of range")
        return Profile(_normalize_blocks(out))

    def __str__(self) -> str:
        return serialize_profile(self)


# ---------------------------------------------------------------------------
# core operations


def replicate(u: Profile, k: int) -> Profile:
    """Concatenate k copies of u."""
    if k < 1:
        raise ValueError("replication factor must be a positive integer")
    return Profile(_normalize_blocks(u.blocks * k))


def permute(u: Profile, pi: Sequence[int]) -> Profile:
    """Scatter permutation: result[pi[i]] = u[i]. Indices are 0-based."""
    levels = u.levels()
    n = len(levels)
    if len(pi) != n or sorted(pi) != list(range(n)):
        raise ValueError("pi is not a permutation of 0..n-1")
    out: list[Fraction | None] = [None] * n
    for i, target in enumerate(pi):
        out[target] = levels[i]
    return Profile.from_levels(out)


def argsort(u: Profile) -> tuple[int, ...]:
    """Stable ascending argsort: the index of the entry at each rank.

    It is also the scatter permutation pi with permute(ranked u, pi) == u.
    """
    if len(u) > MATERIALIZE_LIMIT:
        raise MaterializeError(
            f"profile with {len(u)} entries exceeds the materialization limit"
        )
    starts = list(itertools.accumulate((c for _, c in u.blocks), initial=0))
    order = sorted(range(len(u.blocks)), key=lambda b: u.blocks[b][0])
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
    return ceil(lam * n)


# ---------------------------------------------------------------------------
# index sets (for axiom instances touching huge blocks)


@dataclass(frozen=True)
class IndexSet:
    """Sorted union of half-open index ranges; text form uses closed ranges."""

    ranges: tuple[tuple[int, int], ...]

    @staticmethod
    def from_indices(indices: Iterable[int]) -> "IndexSet":
        out: list[tuple[int, int]] = []
        for i in sorted(set(indices)):
            if i < 0:
                raise ValueError("negative index")
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
                raise ValueError("empty or negative range")
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

    def overlap(self, start: int, stop: int) -> int:
        """Number of members in [start, stop)."""
        return sum(
            max(0, min(stop, rstop) - max(start, rstart))
            for rstart, rstop in self.ranges
        )

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
            if "-" in part:
                lo, hi = part.split("-", 1)
                ranges.append((int(lo), int(hi) + 1))
            else:
                i = int(part)
                ranges.append((i, i + 1))
        if not ranges:
            raise ValueError("empty index set")
        return IndexSet.from_ranges(ranges)


def aligned_runs(u: Profile, v: Profile) -> Iterator[tuple[int, int, Fraction, Fraction]]:
    """Walk two same-size profiles as maximal runs of constant value pairs.

    Yields (start, count, u_value, v_value). O(blocks), never materializes.
    """
    if len(u) != len(v):
        raise SizeMismatch(f"profiles have sizes {len(u)} and {len(v)}")
    iu, iv = iter(u.blocks), iter(v.blocks)
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


def _parse_entry(entry: str, line_no: int, col: int) -> tuple[Fraction, int]:
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
    try:
        value = parse_level(value_text)
    except ValueError:
        raise ProfileParseError(f"bad level literal {value_text.strip()!r}", line_no, col)
    return value, count


def parse_profile_line(line: str, line_no: int = 1) -> Profile:
    body = line.split("#", 1)[0]
    blocks: list[tuple[Fraction, int]] = []
    col = 1
    for entry in body.split(","):
        if entry.strip() == "":
            raise ProfileParseError("empty profile entry", line_no, col)
        blocks.append(_parse_entry(entry, line_no, col))
        col += len(entry) + 1
    return Profile.from_blocks(blocks)


def parse_profiles(text: str) -> list[Profile]:
    """Parse a whole profile file: one profile per non-blank, non-comment line."""
    profiles = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.split("#", 1)[0].strip() == "":
            continue
        profiles.append(parse_profile_line(line, line_no))
    return profiles


def serialize_profile(p: Profile) -> str:
    parts = []
    for value, count in p.blocks:
        text = format_level(value)
        parts.append(text if count == 1 else f"{count}*{text}")
    return ",".join(parts)
