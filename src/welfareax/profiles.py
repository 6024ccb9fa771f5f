"""Exact-rational well-being profiles with run-length block storage.

A profile is a finite vector of well-being levels. Levels are exact
rationals (``fractions.Fraction``), so rankings, axiom preconditions and
piecewise-linear social values are decided without rounding. Profiles
are stored as run-length blocks ``(value, count)``, which keeps
million-entry constant runs O(1) and mirrors the ``k*x`` text syntax.
Each profile also caches its size and two integer views over one common
denominator (``over_common_denominator``): ``scaled``, one numerator
per block, on which the exact sums and the precondition walks run, and
``ranked``, the distinct levels ascending with their counts, which
every reader of the profile's order uses.

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
from functools import cached_property, lru_cache
from math import ceil, lcm
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
        return parse_level(repr(value))
    if isinstance(value, str):
        return parse_level(value)
    raise InfeasibleParameters(f"cannot interpret {value!r} as a well-being level")


def parse_level(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)  # handles integers and exact decimals
    except (ValueError, ZeroDivisionError) as exc:
        raise InfeasibleParameters(f"bad level literal {text!r}") from exc


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


# Generated profiles repeat a few levels over one denominator; Fractions
# are immutable, so they share one object per level.
_fraction = lru_cache(maxsize=1024)(Fraction)


def _normalize_blocks(blocks: Iterable[tuple]) -> tuple[tuple[Fraction, int], ...]:
    """Merged (level, count) blocks; a (Fraction, int) tuple is kept, not copied."""
    out: list[tuple[Fraction, int]] = []
    for block in blocks:
        value, count = block
        if type(block) is not tuple or type(value) is not Fraction or type(count) is not int:
            value, count = block = as_level(value), int(count)
        if count < 0:
            raise InfeasibleParameters("negative block count")
        if count == 0:
            continue
        if out and out[-1][0] == value:
            out[-1] = (value, out[-1][1] + count)
        else:
            out.append(block)
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
            raise InfeasibleParameters("profile must have at least one entry")

    @staticmethod
    def from_levels(levels: Iterable) -> "Profile":
        return Profile(_normalize_blocks([(x, 1) for x in levels]))

    @staticmethod
    def from_blocks(blocks: Iterable[tuple]) -> "Profile":
        return Profile(_normalize_blocks(blocks))

    @staticmethod
    def constant(value, n: int) -> "Profile":
        return Profile.from_blocks([(value, n)])

    @staticmethod
    def from_numerators(den: int, numerators: Iterable[int]) -> "Profile":
        """Profile of the levels ``a / den``, merged into blocks on the integers."""
        runs = [(a, len(list(run))) for a, run in itertools.groupby(numerators)]
        # tuples built from lists are allocated at their final size; from a
        # generator they are resized, which strands memory in the tuple free lists
        profile = Profile(tuple([(_fraction(a, den), c) for a, c in runs]))
        # the cached values, known already
        profile.__dict__.update(n=sum(c for _, c in runs), scaled=(den, tuple([a for a, _ in runs])))
        return profile

    @cached_property
    def n(self) -> int:
        return sum(c for _, c in self.blocks)

    def __len__(self) -> int:
        return self.n

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """``(den, numerators)``: the level of each block as an int over one common denominator."""
        return over_common_denominator([v for v, _ in self.blocks])

    @cached_property
    def ranked(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """``(den, numerators, counts)``: each level once, ascending, over the least den.

        The int view is built afresh, not read from ``scaled``: it is then over
        the least denominator, which ``scaled`` of ``from_numerators`` need not
        be, and a profile that is only ranked keeps no ``scaled``. Two flat
        tuples, not one of (numerator, count) pairs, hold 48 bytes less a run."""
        den, numerators = over_common_denominator([v for v, _ in self.blocks])
        counts: dict[int, int] = {}
        for a, (_, c) in zip(numerators, self.blocks):
            counts[a] = counts[a] + c if a in counts else c  # once: the block's own int
        keys = sorted(counts)
        return den, tuple(keys), tuple([counts[a] for a in keys])

    def iter_levels(self) -> Iterator[Fraction]:
        for value, count in self.blocks:
            yield from itertools.repeat(value, count)

    def levels(self) -> tuple[Fraction, ...]:
        _materializable(self)
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
        return self.mean() * self.n

    def mean(self) -> Fraction:
        return Fraction(*self.scaled_mean())

    def scaled_mean(self) -> tuple[int, int]:
        """The mean level as ``(numerator, denominator)``: ints over ``scaled``'s den times n."""
        return sum(a * c for a, (_, c) in zip(self.scaled[1], self.blocks)), self.scaled[0] * self.n

    def sorted_blocks(self) -> tuple[tuple[Fraction, int], ...]:
        """``ranked`` as (level, count) blocks."""
        den, numerators, counts = self.ranked
        return tuple([(_fraction(a, den), c) for a, c in zip(numerators, counts)])

    def same_multiset(self, other: "Profile") -> bool:
        """Whether both hold the same levels as often."""
        return len(self) == len(other) and self.ranked == other.ranked

    def with_value_at(self, index: int, value) -> "Profile":
        """Copy with one entry replaced (used by builders and shrinking)."""
        value = as_level(value)
        out: list[tuple[Fraction, int]] = []
        offset = 0
        for bval, count in self.blocks:
            if offset <= index < offset + count:
                left = index - offset  # _normalize_blocks drops the empty sides
                out += [(bval, left), (value, 1), (bval, count - left - 1)]
            else:
                out.append((bval, count))
            offset += count
        if not 0 <= index < offset:
            raise IndexError(f"index {index} out of range")
        return Profile(_normalize_blocks(out))

    def __str__(self) -> str:
        return serialize_profile(self)


# ---------------------------------------------------------------------------
# core operations


def _materializable(u: Profile) -> int:
    """The size of u, which must not exceed the materialization limit."""
    if u.n > MATERIALIZE_LIMIT:
        raise MaterializeError(f"profile with {u.n} entries exceeds the materialization limit")
    return u.n


def replicate(u: Profile, k: int) -> Profile:
    """Concatenate k copies of u; u's blocks are merged, so the copies merge only at the seams."""
    if k < 1:
        raise InfeasibleParameters("replication factor must be a positive integer")
    if k == 1:
        return u
    blocks = u.blocks
    (first, head), (last, tail) = blocks[0], blocks[-1]
    if first != last:
        return Profile(blocks * k)
    if len(blocks) == 1:
        return Profile(((first, head * k),))
    return Profile(blocks[:1] + (blocks[1:-1] + ((first, head + tail),)) * (k - 1) + blocks[1:])


def check_permutation(pi: Sequence[int], n: int) -> None:
    """Raise ``InfeasibleParameters`` unless pi is a permutation of 0..n-1."""
    if len(pi) != n or sorted(pi) != list(range(n)):
        raise InfeasibleParameters("pi is not a permutation of 0..n-1")


def permute(u: Profile, pi: Sequence[int]) -> Profile:
    """Scatter permutation: result[pi[i]] = u[i]. Indices are 0-based."""
    n = _materializable(u)
    check_permutation(pi, n)
    den, numerators = u.scaled
    out = [0] * n
    entries = (a for a, (_, c) in zip(numerators, u.blocks) for _ in range(c))
    for target, a in zip(pi, entries):
        out[target] = a
    return Profile.from_numerators(den, out)


def argsort(u: Profile) -> tuple[int, ...]:
    """Stable ascending argsort: the index of the entry at each rank.

    It is also the scatter permutation pi with permute(ranked u, pi) == u.
    """
    _materializable(u)
    starts = list(itertools.accumulate((c for _, c in u.blocks), initial=0))
    order = sorted(range(len(u.blocks)), key=u.scaled[1].__getitem__)
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
