"""Aggregation and non-aggregation axioms as checkable instances.

Each axiom variant is a frozen dataclass holding two profiles plus the
parameters of one fully instantiated premise, and it is the one place
that knows the rules of its axiom:

* ``magnitude_clauses`` checks the premise's magnitudes (threshold,
  gain and loss orderings, m, lam); ``generate_instances`` runs the
  same clauses on its ``params`` before drawing anything;
* ``profile_clauses`` checks the clauses on the profiles in exact
  rational arithmetic (rank conditions, threshold caps, unaffected-agent
  equality);
* ``endpoints`` returns the (worse, better) profiles and the relation
  the conclusion asserts between them, which ``check_axiom`` and the
  derivation chains both read;
* ``generate`` draws one random valid instance, with deliberate boundary
  coverage.

``validate_preconditions`` runs both clause lists; ``check_axiom`` then
tests whether an ordering's verdict meets the conclusion. Fields are
normalized on construction and written to and read from documents by
one codec keyed on field names (``_FIELDS``), whose order is the key
order of instance documents and certificate lines.

Reading of the rank clauses in minimal non-aggregation: the recipient i
must be (tied for) worst-off before the change, end no higher than the
poverty threshold, and the donors in M must be (tied for) best-off both
before and after. Ties are permitted throughout. Requiring the recipient
to stay worst-off after the change would reject transitions where other
poor individuals remain behind, which the constructive impossibility
chains in :mod:`welfareax.propositions` rely on.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterator, Mapping

from .codec import INTEGER, LEVEL, PROFILE, decode
from .errors import ConfigError, InfeasibleParameters
from .orderings import DEFAULT_TOLERANCE, OrderingSpec, swo_compare
from .profiles import (
    IndexSet,
    Profile,
    Verdict,
    aligned_runs,
    as_level,
    ceil_ratio,
    format_level,
    permute,
    replicate,
)


class Relation(Enum):
    """What a conclusion asserts of its better profile against its worse one."""

    EQUIVALENT = "equivalent"
    WEAK = "weak"  # better >= worse
    STRICT = "strict"  # better > worse

    def combine(self, other: "Relation") -> "Relation":
        if Relation.STRICT in (self, other):
            return Relation.STRICT
        if Relation.WEAK in (self, other):
            return Relation.WEAK
        return Relation.EQUIVALENT

    def admits(self, verdict: Verdict) -> bool:
        """Whether the verdict of better against worse meets the relation."""
        return verdict in _ADMITTED[self]


_ADMITTED = {
    Relation.EQUIVALENT: (Verdict.EQUIVALENT,),
    Relation.WEAK: (Verdict.STRICTLY_BETTER, Verdict.EQUIVALENT),
    Relation.STRICT: (Verdict.STRICTLY_BETTER,),
}
_SYMBOLS = {Relation.EQUIVALENT: "~", Relation.WEAK: ">=", Relation.STRICT: ">"}


# ---------------------------------------------------------------------------
# field codec


def _index_set(value) -> IndexSet:
    if isinstance(value, str):
        return IndexSet.parse(value)
    return IndexSet.from_indices(value)


def _permutation(value) -> tuple[int, ...]:
    return tuple(int(x) for x in (value.split(",") if isinstance(value, str) else value))


# field name -> (type, encode, decode); this order is the key order of documents
_FIELDS = {
    "u": PROFILE,
    "pi": (tuple, list, _permutation),
    "v": PROFILE,
    "k": INTEGER,
    "i": INTEGER,
    "j": INTEGER,
    "epsilon": LEVEL,
    "M": (IndexSet, IndexSet.serialize, _index_set),
    "theta_p": LEVEL,
    "theta_r": LEVEL,
    "alpha": LEVEL,
    "beta": LEVEL,
    "gamma": LEVEL,
    "delta": LEVEL,
    "lam": LEVEL,
    "m": INTEGER,
}


def _decode_fields(doc: Mapping, names, what: str) -> dict:
    for name in names:
        if name not in doc:
            raise ConfigError(f"missing {what} {name!r}")
    return {name: decode(name, _FIELDS[name], doc[name]) for name in names}


# ---------------------------------------------------------------------------
# instance types


def _failed(*clauses: tuple[bool, str]) -> list[str]:
    """Texts of the (failed, text) clauses that failed."""
    return [text for failed, text in clauses if failed]


class _Axiom:
    """Rules shared by the axiom dataclasses; each overrides what differs."""

    tag = ""
    # fields holding the (worse, better) profiles of the conclusion
    endpoint_fields = ("u", "v")
    # the parameters magnitude_clauses reads; generation takes them from params
    magnitudes = ()
    # whether the conclusion ranks its two profiles, so that it can justify a chain step
    ranks_profiles = True

    def __post_init__(self):
        for name, value in list(vars(self).items()):
            object.__setattr__(self, name, decode(name, _FIELDS[name], value))

    @staticmethod
    def magnitude_clauses(p) -> list[str]:
        """Failed clauses on the magnitudes of ``p`` (an instance or decoded params)."""
        return []

    def profile_clauses(self) -> list[str]:
        raise NotImplementedError

    def relation(self) -> Relation:
        return Relation.WEAK

    def endpoints(self) -> tuple[Profile, Profile, Relation]:
        """(worse, better, relation) asserted by a validated instance."""
        worse, better = self.endpoint_fields
        return getattr(self, worse), getattr(self, better), self.relation()

    def conclusion(self, spec: OrderingSpec, tolerance: Fraction) -> tuple[bool, str, bool]:
        """(holds, failure detail, numerically tied) for the ordering's verdict."""
        worse, better, relation = self.endpoints()
        res = swo_compare(spec, better, worse, tolerance=tolerance)
        if relation.admits(res.verdict):
            return True, "", res.numerically_tied
        w, b = self.endpoint_fields
        detail = f"conclusion {b} {_SYMBOLS[relation]} {w} fails: ordering says {res.verdict.value}"
        return False, detail, res.numerically_tied

    @classmethod
    def generate(cls, ctx: "_GenContext") -> "_Axiom":
        raise NotImplementedError


@dataclass(frozen=True)
class Anonymity(_Axiom):
    u: Profile
    pi: tuple[int, ...]
    tag = "anonymity"

    @property
    def v(self) -> Profile:
        return permute(self.u, self.pi)

    def relation(self) -> Relation:
        return Relation.EQUIVALENT

    def profile_clauses(self) -> list[str]:
        try:
            self.v  # permutation validity is checked by permute()
        except ValueError as exc:
            return [str(exc)]
        return []

    @classmethod
    def generate(cls, ctx):
        n = ctx.size(1)
        pi = list(range(n))
        ctx.rng.shuffle(pi)
        return cls(_random_profile(ctx, n), tuple(pi))


class _Pareto(_Axiom):
    """u dominates v; ``strict`` requires it at every position."""

    endpoint_fields = ("v", "u")
    strict = False

    def profile_clauses(self) -> list[str]:
        if len(self.u) != len(self.v):
            return ["population sizes differ"]
        sign = "<=" if self.strict else "<"
        for start, count, uval, vval in aligned_runs(self.u, self.v):
            if uval < vval or (self.strict and uval == vval):
                return [f"u {sign} v at positions {start}..{start + count - 1}"]
        return []


@dataclass(frozen=True)
class StrongPareto(_Pareto):
    u: Profile  # the (weakly) dominating profile
    v: Profile
    tag = "strong_pareto"

    def relation(self) -> Relation:
        strict = any(uval > vval for _, _, uval, vval in aligned_runs(self.u, self.v))
        return Relation.STRICT if strict else Relation.WEAK

    @classmethod
    def generate(cls, ctx):
        n, rng = ctx.size(1), ctx.rng
        v = _random_profile(ctx, n)
        deltas = [
            Fraction(0) if rng.random() < 0.4 else _draw_level(rng, Fraction(0), Fraction(5))
            for _ in range(n)
        ]
        u = Profile.from_levels(x + d for x, d in zip(v.iter_levels(), deltas))
        return cls(u, v)


@dataclass(frozen=True)
class WeakPareto(_Pareto):
    u: Profile  # strictly dominating everywhere
    v: Profile
    tag = "weak_pareto"
    strict = True

    def relation(self) -> Relation:
        return Relation.STRICT

    @classmethod
    def generate(cls, ctx):
        n = ctx.size(1)
        v = _random_profile(ctx, n)
        u = Profile.from_levels(
            x + _draw_level(ctx.rng, Fraction(1, 2), Fraction(5)) for x in v.iter_levels()
        )
        return cls(u, v)


@dataclass(frozen=True)
class PigouDalton(_Axiom):
    """Transfer of epsilon from richer i to poorer j, order preserved."""

    u: Profile
    i: int
    j: int
    epsilon: Fraction
    tag = "pigou_dalton"

    @property
    def v(self) -> Profile:
        out = self.u.with_value_at(self.i, self.u.value_at(self.i) - self.epsilon)
        return out.with_value_at(self.j, self.u.value_at(self.j) + self.epsilon)

    def profile_clauses(self) -> list[str]:
        n = len(self.u)
        failures = [] if self.epsilon > 0 else ["epsilon must be positive"]
        if self.i == self.j or not (0 <= self.i < n and 0 <= self.j < n):
            failures.append("need two distinct in-range indices")
        elif self.u.value_at(self.i) - self.epsilon < self.u.value_at(self.j) + self.epsilon:
            failures.append("transfer would reverse the order: u_i - eps >= u_j + eps fails")
        return failures

    @classmethod
    def generate(cls, ctx):
        n = ctx.size(2)
        eps_max = as_level(ctx.params.get("epsilon_max", 3))
        epsilon = _draw_level(ctx.rng, Fraction(1, 2), eps_max)
        slack = Fraction(0) if ctx.boundary() else _draw_level(ctx.rng, Fraction(0), Fraction(4))
        u_j = _draw_level(ctx.rng, ctx.lo, ctx.hi - 2 * epsilon - slack)
        u_i = u_j + 2 * epsilon + slack
        i, j = ctx.rng.sample(range(n), 2)
        levels = [_draw_level(ctx.rng, ctx.lo, ctx.hi) for _ in range(n)]
        levels[i], levels[j] = u_i, u_j
        return cls(Profile.from_levels(levels), i, j, epsilon)


@dataclass(frozen=True)
class ReplicationInvariance(_Axiom):
    u: Profile
    v: Profile
    k: int
    tag = "replication_invariance"
    ranks_profiles = False  # it justifies the lift and descent steps themselves

    def profile_clauses(self) -> list[str]:
        return _failed(
            (len(self.u) != len(self.v), "population sizes differ"),
            (self.k < 1, "k must be a positive integer"),
        )

    def conclusion(self, spec, tolerance):
        base = swo_compare(spec, self.u, self.v, tolerance=tolerance)
        lifted = swo_compare(
            spec, replicate(self.u, self.k), replicate(self.v, self.k), tolerance=tolerance
        )
        ok = base.verdict is lifted.verdict
        detail = "" if ok else (
            f"verdict changes under {self.k}-replication: "
            f"{base.verdict.value} vs {lifted.verdict.value}"
        )
        return ok, detail, base.numerically_tied or lifted.numerically_tied

    @classmethod
    def generate(cls, ctx):
        n = ctx.size(1)
        k_max = int(ctx.params.get("k_max", 4))
        return cls(
            _random_profile(ctx, n), _random_profile(ctx, n), ctx.rng.randint(1, max(1, k_max))
        )


class _Donors(_Axiom):
    """One recipient i and a set M of donors (or gainers); everyone else unaffected."""

    def count_clauses(self) -> list[str]:
        """Clauses on the size of M, checked before the profiles are walked."""
        return []

    def donor_rule(self):
        """Function (u_j, v_j) -> failed clauses of one donor run."""
        raise NotImplementedError

    def recipient_clauses(self, u_i: Fraction, v_i: Fraction) -> list[str]:
        raise NotImplementedError

    def profile_clauses(self) -> list[str]:
        failures = self.count_clauses()
        n, i, M = len(self.u), self.i, self.M
        if len(self.v) != n:
            return failures + [f"population sizes differ ({n} vs {len(self.v)})"]
        if not 0 <= i < n:
            return failures + [f"index i={i} out of range"]
        if M.ranges and M.ranges[-1][1] > n:
            return failures + ["M contains out-of-range indices"]
        if i in M:
            return failures + ["i must not belong to M"]
        donor = self.donor_rule()
        for start, count, uval, vval in aligned_runs(self.u, self.v):
            stop = start + count
            m_cnt = M.overlap(start, stop)
            has_i = start <= i < stop
            if has_i:
                u_i, v_i = uval, vval
            if m_cnt:
                for clause in donor(uval, vval):
                    failures.append(f"{clause} (positions {start}..{stop - 1})")
            if count - m_cnt - has_i and uval != vval:
                failures.append(
                    f"unaffected agents change: {format_level(uval)} -> "
                    f"{format_level(vval)} (positions {start}..{stop - 1})"
                )
        return failures + self.recipient_clauses(u_i, v_i)


def _alpha_beta(p) -> list[str]:
    return [] if p.alpha > p.beta > 0 else ["need alpha > beta > 0"]


def _thresholds_alpha_beta(p) -> list[str]:
    return ([] if p.theta_r > p.theta_p > 0 else ["need theta_r > theta_p > 0"]) + _alpha_beta(p)


def _gamma_delta(p) -> list[str]:
    return [] if p.gamma > p.delta > 0 else ["need gamma > delta > 0"]


def _donor_pair(n: int, i: int, M, rest, recipient, donor, bystander) -> tuple:
    """(u, v, i, M) from the recipient's (u_i, v_i), then each donor's pair
    and each bystander's unchanged level, drawn in position order."""
    u_levels = [None] * n
    v_levels = [None] * n
    u_levels[i], v_levels[i] = recipient
    for q in M:
        u_levels[q], v_levels[q] = donor()
    for q in rest:
        u_levels[q] = v_levels[q] = bystander()
    return Profile.from_levels(u_levels), Profile.from_levels(v_levels), i, IndexSet.from_indices(M)


@dataclass(frozen=True)
class MinimalNonAggregation(_Donors):
    """Poorest below theta_p gains >= alpha; richest above theta_r each lose <= beta."""

    u: Profile
    v: Profile
    i: int
    M: IndexSet
    theta_p: Fraction
    theta_r: Fraction
    alpha: Fraction
    beta: Fraction
    tag = "minimal_non_aggregation"
    magnitudes = ("theta_p", "theta_r", "alpha", "beta")
    magnitude_clauses = staticmethod(_thresholds_alpha_beta)

    def donor_rule(self):
        u_max, v_max = self.u.max_level(), self.v.max_level()
        return lambda uj, vj: _failed(
            (uj != u_max, "u_j must be (tied for) best-off in u"),
            (uj < self.theta_r, "u_j >= theta_r fails"),
            (vj != v_max, "v_j must be (tied for) best-off in v"),
            (vj < uj - self.beta, "v_j >= u_j - beta fails"),
        )

    def recipient_clauses(self, u_i, v_i):
        return _failed(
            (u_i != self.u.min_level(), "u_i must be (tied for) worst-off in u"),
            (v_i < u_i + self.alpha, "v_i >= u_i + alpha fails"),
            (v_i > self.theta_p, "theta_p >= v_i fails"),
        )

    @classmethod
    def generate(cls, ctx):
        p, rng = ctx.p, ctx.rng
        n = ctx.size(2)
        i, M, rest = _positions(rng, n, rng.randint(1, n - 1))
        u_i = _draw_level(rng, min(ctx.lo, p.theta_p - p.alpha - 5), p.theta_p - p.alpha)
        if ctx.boundary():
            # the two binding shapes: gain exactly alpha, or landing on theta_p
            v_i = u_i + p.alpha if rng.random() < 0.5 else p.theta_p
        else:
            v_i = _draw_level(rng, u_i + p.alpha, p.theta_p)
        u_top = _draw_level(rng, p.theta_r, max(ctx.hi, p.theta_r + 5))
        loss_cap = min(p.beta, u_top - v_i)
        loss = loss_cap if ctx.boundary() else _draw_level(rng, Fraction(0), loss_cap)
        v_top = u_top - loss
        return cls(
            *_donor_pair(
                n, i, M, rest, (u_i, v_i),
                lambda: (u_top, v_top),
                lambda: _draw_level(rng, u_i, v_top),
            ),
            p.theta_p, p.theta_r, p.alpha, p.beta,
        )


@dataclass(frozen=True)
class StrongNonAggregation(_Donors):
    """One person gains exactly alpha; members of M each lose exactly beta
    and stay strictly above the recipient. No thresholds."""

    u: Profile
    v: Profile
    i: int
    M: IndexSet
    alpha: Fraction
    beta: Fraction
    tag = "strong_non_aggregation"
    magnitudes = ("alpha", "beta")
    magnitude_clauses = staticmethod(_alpha_beta)

    def donor_rule(self):
        v_i = self.u.value_at(self.i) + self.alpha
        return lambda uj, vj: _failed(
            (vj != uj - self.beta, "u_j - beta = v_j fails"),
            (vj <= v_i, "v_j > v_i fails"),
        )

    def recipient_clauses(self, u_i, v_i):
        return [] if v_i == u_i + self.alpha else ["v_i = u_i + alpha fails"]

    @classmethod
    def generate(cls, ctx):
        p, rng = ctx.p, ctx.rng
        n = ctx.size(2)
        i, M, rest = _positions(rng, n, rng.randint(1, n - 1))
        u_i = _draw_level(rng, ctx.lo, ctx.hi)
        floor = u_i + p.alpha + p.beta

        def donor():
            u_j = floor + _draw_level(rng, Fraction(1, 2), Fraction(6))
            return u_j, u_j - p.beta

        return cls(
            *_donor_pair(
                n, i, M, rest, (u_i, u_i + p.alpha), donor,
                lambda: _draw_level(rng, ctx.lo, ctx.hi),
            ),
            p.alpha, p.beta,
        )


@dataclass(frozen=True)
class StrongNonAggThreshold(_Donors):
    """Exact-magnitude strong non-aggregation with threshold constraints:
    the recipient ends at or below theta_p, donors end at or above theta_r."""

    u: Profile
    v: Profile
    i: int
    M: IndexSet
    theta_p: Fraction
    theta_r: Fraction
    alpha: Fraction
    beta: Fraction
    tag = "strong_non_aggregation_threshold"
    magnitudes = ("theta_p", "theta_r", "alpha", "beta")
    magnitude_clauses = staticmethod(_thresholds_alpha_beta)

    def donor_rule(self):
        return lambda uj, vj: _failed(
            (vj != uj - self.beta, "u_j - beta = v_j fails"),
            (vj < self.theta_r, "v_j >= theta_r fails"),
        )

    def recipient_clauses(self, u_i, v_i):
        return _failed(
            (v_i != u_i + self.alpha, "v_i = u_i + alpha fails"),
            (v_i > self.theta_p, "theta_p >= v_i fails"),
        )

    @classmethod
    def generate(cls, ctx):
        p, rng = ctx.p, ctx.rng
        n = ctx.size(2)
        i, M, rest = _positions(rng, n, rng.randint(1, n - 1))
        u_i = p.theta_p - p.alpha if ctx.boundary() else _draw_level(
            rng, min(ctx.lo, p.theta_p - p.alpha - 5), p.theta_p - p.alpha
        )

        def donor():
            u_j = _draw_level(rng, p.theta_r + p.beta, max(ctx.hi, p.theta_r + p.beta + 5))
            return u_j, u_j - p.beta

        return cls(
            *_donor_pair(
                n, i, M, rest, (u_i, u_i + p.alpha), donor,
                lambda: _draw_level(rng, ctx.lo, ctx.hi),
            ),
            p.theta_p, p.theta_r, p.alpha, p.beta,
        )


@dataclass(frozen=True)
class StrongerNonAggregation(_Donors):
    """Non-aggregation without rank clauses: any recipient ending at or
    below theta_p gains >= alpha while donors lose <= beta and stay at or
    above theta_p after paying."""

    u: Profile
    v: Profile
    i: int
    M: IndexSet
    theta_p: Fraction
    alpha: Fraction
    beta: Fraction
    tag = "stronger_non_aggregation"
    magnitudes = ("theta_p", "alpha", "beta")

    @staticmethod
    def magnitude_clauses(p):
        return ([] if p.theta_p > 0 else ["need theta_p > 0"]) + _alpha_beta(p)

    def donor_rule(self):
        return lambda uj, vj: _failed(
            (vj < uj - self.beta, "v_j >= u_j - beta fails"),
            (uj - self.beta < self.theta_p, "u_j - beta >= theta_p fails"),
        )

    def recipient_clauses(self, u_i, v_i):
        return _failed(
            (v_i < u_i + self.alpha, "v_i >= u_i + alpha fails"),
            (v_i > self.theta_p, "theta_p >= v_i fails"),
        )

    @classmethod
    def generate(cls, ctx):
        p, rng = ctx.p, ctx.rng
        n = ctx.size(2)
        i, M, rest = _positions(rng, n, rng.randint(1, n - 1))
        u_i = _draw_level(rng, min(ctx.lo, p.theta_p - p.alpha - 5), p.theta_p - p.alpha)
        if ctx.boundary():
            v_i = u_i + p.alpha if rng.random() < 0.5 else p.theta_p
        else:
            v_i = _draw_level(rng, u_i + p.alpha, p.theta_p)

        def donor():
            u_j = _draw_level(rng, p.theta_p + p.beta, max(ctx.hi, p.theta_p + p.beta + 5))
            loss = p.beta if ctx.boundary() else _draw_level(rng, Fraction(0), p.beta)
            return u_j, u_j - loss

        return cls(
            *_donor_pair(
                n, i, M, rest, (u_i, v_i), donor, lambda: _draw_level(rng, ctx.lo, ctx.hi)
            ),
            p.theta_p, p.alpha, p.beta,
        )


def _aggregation_pair(ctx: _GenContext, n: int, m_count: int, gamma, delta):
    i, M, rest = _positions(ctx.rng, n, m_count)
    u_levels = [_draw_level(ctx.rng, ctx.lo, ctx.hi) for _ in range(n)]
    v_levels = list(u_levels)
    loss = delta if ctx.boundary() else _draw_level(ctx.rng, Fraction(0), delta)
    v_levels[i] = u_levels[i] - loss
    for p in M:
        extra = Fraction(0) if ctx.boundary() else _draw_level(ctx.rng, Fraction(0), Fraction(4))
        v_levels[p] = u_levels[p] + gamma + extra
    return (
        Profile.from_levels(u_levels),
        Profile.from_levels(v_levels),
        i,
        IndexSet.from_indices(M),
    )


class _Aggregation(_Donors):
    """Members of M each gain >= gamma while i loses <= delta."""

    def donor_rule(self):
        return lambda uj, vj: [] if vj >= uj + self.gamma else ["v_j >= u_j + gamma fails"]

    def recipient_clauses(self, u_i, v_i):
        return [] if v_i >= u_i - self.delta else ["v_i >= u_i - delta fails"]


@dataclass(frozen=True)
class QuantitativeAggregation(_Aggregation):
    """At least m persons gain >= gamma while one person loses <= delta."""

    u: Profile
    v: Profile
    i: int
    M: IndexSet
    m: int
    gamma: Fraction
    delta: Fraction
    tag = "quantitative_aggregation"
    magnitudes = ("m", "gamma", "delta")

    @staticmethod
    def magnitude_clauses(p):
        return _gamma_delta(p) + ([] if p.m > 2 else ["need integer m > 2"])

    def count_clauses(self):
        n, m = len(self.u), self.m
        if m <= 2:
            return []  # reported by magnitude_clauses
        if n <= m:
            return [f"need population size n > m (n={n}, m={m})"]
        if len(self.M) < m:
            return [f"|M| >= m fails (|M|={len(self.M)}, m={m})"]
        return []

    @classmethod
    def generate(cls, ctx):
        p = ctx.p
        n = ctx.size(p.m + 1)
        m_count = p.m if ctx.boundary() else ctx.rng.randint(p.m, n - 1)
        u, v, i, M = _aggregation_pair(ctx, n, m_count, p.gamma, p.delta)
        return cls(u, v, i, M, p.m, p.gamma, p.delta)


@dataclass(frozen=True)
class RatioAggregation(_Aggregation):
    """At least ceil(lam * n) persons gain >= gamma while one loses <= delta."""

    u: Profile
    v: Profile
    i: int
    M: IndexSet
    lam: Fraction
    gamma: Fraction
    delta: Fraction
    tag = "ratio_aggregation"
    magnitudes = ("lam", "gamma", "delta")

    @staticmethod
    def magnitude_clauses(p):
        return _gamma_delta(p) + ([] if 0 < p.lam < 1 else ["need lam strictly between 0 and 1"])

    def count_clauses(self):
        if not 0 < self.lam < 1:
            return []  # reported by magnitude_clauses
        needed = ceil_ratio(self.lam, len(self.u))
        if len(self.M) < needed:
            return [f"|M| >= ceil(lam*n) fails (|M|={len(self.M)}, need {needed})"]
        return []

    @classmethod
    def generate(cls, ctx):
        p = ctx.p
        # ceil(lam * n) <= n - 1 holds exactly when n * (1 - lam) >= 1
        _require(
            ctx.p_hi * (1 - p.lam) >= 1,
            "no population size in range leaves room for the donor set",
        )
        while True:
            n = ctx.size(2)
            needed = ceil_ratio(p.lam, n)
            if needed <= n - 1:
                break
        m_count = needed if ctx.boundary() else ctx.rng.randint(needed, n - 1)
        u, v, i, M = _aggregation_pair(ctx, n, m_count, p.gamma, p.delta)
        return cls(u, v, i, M, p.lam, p.gamma, p.delta)


@dataclass(frozen=True)
class MinimalAggregation(_Axiom):
    """Everyone except i gains >= gamma while i loses <= delta."""

    u: Profile
    v: Profile
    i: int
    gamma: Fraction
    delta: Fraction
    tag = "minimal_aggregation"
    magnitudes = ("gamma", "delta")
    magnitude_clauses = staticmethod(_gamma_delta)

    def profile_clauses(self):
        n = len(self.u)
        if len(self.v) != n:
            return ["population sizes differ"]
        if not 0 <= self.i < n:
            return ["index i out of range"]
        failures = []
        for start, count, uval, vval in aligned_runs(self.u, self.v):
            has_i = start <= self.i < start + count
            if has_i and vval < uval - self.delta:
                failures.append("v_i >= u_i - delta fails")
            if count - has_i and vval < uval + self.gamma:
                failures.append(
                    f"v_j >= u_j + gamma fails (positions {start}..{start + count - 1})"
                )
        return failures

    @classmethod
    def generate(cls, ctx):
        p = ctx.p
        n = ctx.size(2)
        u, v, i, _ = _aggregation_pair(ctx, n, n - 1, p.gamma, p.delta)
        return cls(u, v, i, p.gamma, p.delta)


AxiomInstance = (
    Anonymity
    | StrongPareto
    | WeakPareto
    | PigouDalton
    | ReplicationInvariance
    | MinimalNonAggregation
    | StrongNonAggregation
    | StrongNonAggThreshold
    | StrongerNonAggregation
    | QuantitativeAggregation
    | RatioAggregation
    | MinimalAggregation
)

AXIOM_TAGS = {
    axiom.tag: axiom
    for axiom in (
        Anonymity,
        StrongPareto,
        WeakPareto,
        PigouDalton,
        ReplicationInvariance,
        MinimalNonAggregation,
        StrongNonAggregation,
        StrongNonAggThreshold,
        StrongerNonAggregation,
        QuantitativeAggregation,
        RatioAggregation,
        MinimalAggregation,
    )
}


def _axiom_type(tag: str) -> type[_Axiom]:
    if tag not in AXIOM_TAGS:
        raise ConfigError(f"unknown axiom tag {tag!r}")
    return AXIOM_TAGS[tag]


# ---------------------------------------------------------------------------
# precondition validation


@dataclass(frozen=True)
class PreconditionReport:
    ok: bool
    failures: tuple[str, ...] = ()

    @property
    def detail(self) -> str:
        return "; ".join(self.failures)


def validate_preconditions(inst: AxiomInstance) -> PreconditionReport:
    """Exact verification of every hypothesis clause of the instance."""
    failures = tuple(inst.magnitude_clauses(inst) + inst.profile_clauses())
    return PreconditionReport(not failures, failures)


# ---------------------------------------------------------------------------
# conclusion checking


class CheckStatus(Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    PRECONDITION_UNMET = "precondition-unmet"


@dataclass(frozen=True)
class CheckResult:
    status: CheckStatus
    instance: AxiomInstance
    detail: str = ""
    flagged: bool = False  # numeric-tie ambiguity in a floating backend

    @property
    def violated(self) -> bool:
        return self.status is CheckStatus.VIOLATED


def check_axiom(
    spec: OrderingSpec,
    inst: AxiomInstance,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> CheckResult:
    """Check one instance against one ordering.

    Violated only when every hypothesis clause held and the ordering's
    verdict contradicts the conclusion. Numeric ties are surfaced via
    ``flagged``, never silently satisfied.
    """
    report = validate_preconditions(inst)
    if not report.ok:
        return CheckResult(CheckStatus.PRECONDITION_UNMET, inst, report.detail)
    ok, detail, flagged = inst.conclusion(spec, tolerance)
    return CheckResult(
        CheckStatus.SATISFIED if ok else CheckStatus.VIOLATED, inst, detail, flagged
    )


# ---------------------------------------------------------------------------
# randomized instance generation


BOUNDARY_PROBABILITY = 0.25


def _draw_level(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """Uniform draw on a halves grid inside [lo, hi]."""
    if hi < lo:
        raise InfeasibleParameters(f"empty draw range [{lo}, {hi}]")
    den = 2 if rng.random() < 0.25 else 1
    if den == 1 and lo.denominator == 1 and hi.denominator == 1:
        return Fraction(rng.randint(lo.numerator, hi.numerator))
    lo_n = math.ceil(lo * den)
    hi_n = math.floor(hi * den)
    if hi_n < lo_n:
        return lo  # grid too coarse, fall back to the endpoint
    return Fraction(rng.randint(lo_n, hi_n), den)


def _positions(rng: random.Random, n: int, m_count: int, i_pos: int | None = None):
    if i_pos is None:
        i_pos = rng.randrange(n)
    rest = [p for p in range(n) if p != i_pos]
    rng.shuffle(rest)
    return i_pos, sorted(rest[:m_count]), sorted(rest[m_count:])


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InfeasibleParameters(message)


def generate_instances(
    axiom: str,
    params: Mapping[str, object],
    *,
    populations: tuple[int, int] = (2, 10),
    values: tuple = (-20, 20),
    seed: int = 0,
) -> Iterator[AxiomInstance]:
    """Deterministic infinite stream of valid instances of one axiom.

    ``params`` supplies the axiom's magnitudes (alpha, beta, gamma,
    delta, thresholds, m, lam as the axiom needs; epsilon_max and k_max
    optionally). They must pass the axiom's magnitude clauses. Boundary
    shapes (minimal donor sets, recipients landing exactly on the
    threshold, exact maximal losses) appear with fixed probability.
    """
    rng = random.Random(seed)
    lo, hi = as_level(values[0]), as_level(values[1])
    p_lo, p_hi = populations
    _require(1 <= p_lo <= p_hi, "empty population range")
    _require(lo < hi, "empty value range")
    cls = _axiom_type(axiom)
    magnitudes = SimpleNamespace(**_decode_fields(params, cls.magnitudes, "axiom parameter"))
    failures = cls.magnitude_clauses(magnitudes)
    _require(not failures, "; ".join(failures))

    ctx = _GenContext(rng, params, magnitudes, lo, hi, max(p_lo, 2), p_hi)
    while True:
        yield cls.generate(ctx)


@dataclass
class _GenContext:
    rng: random.Random
    params: Mapping
    p: SimpleNamespace  # the decoded magnitudes
    lo: Fraction
    hi: Fraction
    p_lo: int
    p_hi: int

    def boundary(self) -> bool:
        return self.rng.random() < BOUNDARY_PROBABILITY

    def size(self, minimum: int = 2) -> int:
        lo = max(self.p_lo, minimum)
        _require(lo <= self.p_hi, f"population range cannot reach size {minimum}")
        return self.rng.randint(lo, self.p_hi)


def _random_profile(ctx: _GenContext, n: int) -> Profile:
    return Profile.from_levels(_draw_level(ctx.rng, ctx.lo, ctx.hi) for _ in range(n))


# ---------------------------------------------------------------------------
# suites


@dataclass(frozen=True)
class SuiteResult:
    axiom: str
    checked: int
    satisfied: int
    violated: int
    unmet: int
    flagged: int
    first_violation: CheckResult | None

    @property
    def clean(self) -> bool:
        return self.violated == 0 and self.unmet == 0


def run_suite(
    spec: OrderingSpec,
    axiom: str,
    params: Mapping[str, object],
    count: int,
    *,
    populations: tuple[int, int] = (2, 10),
    values: tuple = (-20, 20),
    seed: int = 0,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> SuiteResult:
    """Run ``count`` generated instances of one axiom against an ordering."""
    satisfied = violated = unmet = flagged = 0
    first_violation = None
    stream = generate_instances(
        axiom, params, populations=populations, values=values, seed=seed
    )
    for inst in itertools.islice(stream, count):
        result = check_axiom(spec, inst, tolerance)
        if result.status is CheckStatus.SATISFIED:
            satisfied += 1
        elif result.status is CheckStatus.VIOLATED:
            violated += 1
            if first_violation is None:
                first_violation = result
        else:
            unmet += 1
        if result.flagged:
            flagged += 1
    return SuiteResult(axiom, count, satisfied, violated, unmet, flagged, first_violation)


# ---------------------------------------------------------------------------
# instance configuration documents


def instance_to_config(inst: AxiomInstance) -> dict:
    values = vars(inst)
    doc: dict = {"axiom": inst.tag}
    for name, (_, encode, _) in _FIELDS.items():
        if name in values:
            doc[name] = encode(values[name])
    return doc


def instance_from_config(doc: Mapping) -> AxiomInstance:
    """Instance from a document; keys the axiom does not use are ignored."""
    if "axiom" not in doc:
        raise ConfigError("instance config must carry an 'axiom' tag")
    cls = _axiom_type(doc["axiom"])
    return cls(**_decode_fields(doc, [f.name for f in fields(cls)], "instance field"))
