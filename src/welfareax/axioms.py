"""Aggregation and non-aggregation axioms as checkable instances.

Each axiom variant is a frozen dataclass holding two profiles plus the
parameters of one fully instantiated premise, and it is the one place
that knows the rules of its axiom:

* ``magnitude_clauses`` checks the premise's magnitudes (threshold,
  gain and loss orderings, m, lam); ``generate_instances`` reads its
  ``params`` through ``codec.read_fields`` (the magnitudes, and the
  type's ``options``, epsilon_max and k_max, typed in ``_FIELDS`` but
  fields of no instance) and runs the same clauses on them before it
  returns the stream, and the chain builders of
  :mod:`welfareax.propositions` run them on their arguments;
* ``profile_clauses`` checks the clauses on the profiles in exact
  arithmetic (rank conditions, threshold caps, unaffected-agent
  equality), on int numerators over one common denominator of the
  instance's profiles and magnitudes;
* ``endpoints`` returns the (worse, better) profiles and the relation
  the conclusion asserts between them, which ``check_axiom`` and the
  derivation chains both read;
* ``generate`` draws one random valid instance, with deliberate boundary
  coverage; levels are drawn and combined as int numerators over one
  denominator per stream, and each profile is built once from merged
  blocks. The four donor axioms share one template, ``_Donors.generate``:
  size, positions, then the type's ``roles`` (the recipient's pair, a
  donor draw, a bystander draw). Every ``generate`` ends in
  ``_GenContext.build``, which adds the stream's magnitudes;
* ``shrinks`` proposes the smaller instances counterexample search tries:
  each person dropped from every field ``config_fields`` names, each donor
  reverted (``_Donors.reverts``), each person's levels simplified; the types
  that derive v, built once on its first read, simplify u alone (``_DerivedV``).

``validate_preconditions`` runs both clause lists; ``check_axiom`` then
tests whether an ordering's verdict meets the conclusion. Each instance
type is a ``codec.Record`` whose ``config_fields`` are its own dataclass
fields, taken from ``_FIELDS``: one codec field per name, in the key
order of instance documents and certificate lines. A type's
``magnitudes`` are not declared but derived with them: those of its
fields that ``_MAGNITUDES`` names. ``instance_to_config`` and
``instance_from_config`` write and read them under the ``axiom`` tag.
``Record`` decodes the fields of documents, certificates and constructor
calls; generated instances, whose fields are typed as drawn, skip it.

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
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterator, Mapping

from .codec import INTEGER, LEVEL, PROFILE, Record, lookup_tag, read_fields, read_tagged
from .errors import InfeasibleParameters
from .orderings import OrderingSpec, swo_compare
from .profiles import (
    IndexSet,
    Profile,
    Verdict,
    _cached,
    as_level,
    block_runs,
    ceil_ratio,
    check_permutation,
    format_level,
    over_common_denominator,
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


# the magnitudes of the premises: what magnitude_clauses checks
_MAGNITUDES = {
    "theta_p": LEVEL,
    "theta_r": LEVEL,
    "alpha": LEVEL,
    "beta": LEVEL,
    "gamma": LEVEL,
    "delta": LEVEL,
    "lam": LEVEL,
    "m": INTEGER,
}

# field name -> (type, encode, decode); this order is the key order of documents
_FIELDS = {
    "u": PROFILE,
    "pi": ((), list, _permutation),  # no passthrough type: a tuple of strings is normalized too
    "v": PROFILE,
    "k": INTEGER,
    "i": INTEGER,
    "j": INTEGER,
    "epsilon": LEVEL,
    "M": (IndexSet, IndexSet.serialize, _index_set),
    **_MAGNITUDES,
    # options of generation: no instance type has them as fields
    "epsilon_max": LEVEL,
    "k_max": INTEGER,
}


# ---------------------------------------------------------------------------
# instance types


def _drop_index(index: int, p: int) -> int | None:
    if index == p:
        return None
    return index - 1 if index > p else index


def _drop_member(M: IndexSet, p: int) -> IndexSet | None:
    rest = IndexSet.from_indices(_drop_index(m, p) for m in M if m != p)
    return rest if len(rest) else None


def _drop_target(pi: tuple[int, ...], p: int) -> tuple[int, ...]:
    return tuple(t - 1 if t > pi[p] else t for t in pi[:p] + pi[p + 1:])


# field name -> its value once person p is dropped; None when the field needs p
_DROPS = {
    "u": Profile.without,
    "pi": _drop_target,
    "v": Profile.without,
    "i": _drop_index,
    "j": _drop_index,
    "M": _drop_member,
}


class _Scale:
    """An instance's levels as int numerators over one common denominator.

    The denominator covers both profiles (of one size, which each caller
    checks first) and every magnitude; ``s(x)`` is the numerator of the
    level x, ``s.u`` and ``s.v`` the numerators of the blocks of the profiles,
    a profile's own when its den is the common one.
    """

    def __init__(self, inst: "_Axiom"):
        self.profiles = u, v = inst.u, inst.v
        magnitudes = [getattr(inst, name).denominator for name in inst.magnitudes]
        self.den = den = math.lcm(u.den, v.den, *magnitudes)
        self.u = u.numerators if u.den == den else [a * (den // u.den) for a in u.numerators]
        self.v = v.numerators if v.den == den else [a * (den // v.den) for a in v.numerators]

    def __call__(self, x: Fraction) -> int:
        return x.numerator * (self.den // x.denominator)

    def runs(self):
        """Maximal runs (start, count, u numerator, v numerator)."""
        u, v = self.profiles
        return block_runs(zip(self.u, u.counts), zip(self.v, v.counts))


@dataclass(frozen=True)
class _Axiom(Record):
    """Rules shared by the axiom dataclasses; each overrides what differs."""

    u: Profile  # every instance's first field
    tag = ""
    # fields holding the (worse, better) profiles of the conclusion
    endpoint_fields = ("u", "v")
    # whether the conclusion ranks its two profiles, so that it can justify a chain step
    ranks_profiles = True
    # optional positive parameters of generation (_FIELDS keys), with their defaults
    options = {}

    @staticmethod
    def magnitude_clauses(p) -> list[str]:
        """Failed clauses on the magnitudes of ``p`` (an instance or decoded params)."""
        return []

    def relation(self) -> Relation:
        return Relation.WEAK

    def endpoints(self) -> tuple[Profile, Profile, Relation]:
        """(worse, better, relation) asserted by a validated instance."""
        worse, better = self.endpoint_fields
        return getattr(self, worse), getattr(self, better), self.relation()

    def conclusion(self, spec: OrderingSpec) -> tuple[bool, str, bool]:
        """(holds, failure detail, numerically tied) for the ordering's verdict."""
        worse, better, relation = self.endpoints()
        res = swo_compare(spec, better, worse)
        if relation.admits(res.verdict):
            return True, "", res.numerically_tied
        w, b = self.endpoint_fields
        detail = f"conclusion {b} {_SYMBOLS[relation]} {w} fails: ordering says {res.verdict.value}"
        return False, detail, res.numerically_tied

    def shrinks(self) -> Iterator["_Axiom"]:
        """Smaller instances to try in its place, unvalidated, in search order: each
        person dropped (not below three persons, nor one that a field needs), then
        each donor reverted, then each person's levels simplified."""
        n = len(self.u)
        for p in range(n if n > 2 else 0):
            changes = {name: _DROPS[name](getattr(self, name), p)
                       for name in self.config_fields if name in _DROPS}
            if None not in changes.values():
                yield replace(self, **changes)
        yield from self.reverts()
        for p in range(n):
            yield from self.simplified(p)

    def reverts(self) -> Iterator["_Axiom"]:
        """Each donor moved back among the bystanders: only ``_Donors`` have donors."""
        return iter(())

    def simplified(self, p: int) -> Iterator["_Axiom"]:
        """Person p's levels moved toward small integers: a tie to 0 and to its
        floor, an unequal pair to both floors."""
        u_p, v_p = self.u.value_at(p), self.v.value_at(p)
        floors = Fraction(u_p.__floor__()), Fraction(v_p.__floor__())
        pairs = [(Fraction(0), Fraction(0)), floors] if u_p == v_p else [floors]
        for cu, cv in pairs:
            if (cu, cv) != (u_p, v_p):
                yield replace(self, u=self.u.with_value_at(p, cu), v=self.v.with_value_at(p, cv))


class _DerivedV(_Axiom):
    """An axiom whose v follows from its fields: Anonymity and Pigou-Dalton. v is no
    field, so only u is simplified, and never at i or j where the type has them."""

    def simplified(self, p):
        if p in [getattr(self, name) for name in ("i", "j") if name in self.config_fields]:
            return
        u_p = self.u.value_at(p)
        for level in (Fraction(0), Fraction(u_p.__floor__())):
            if level != u_p:
                yield replace(self, u=self.u.with_value_at(p, level))


@dataclass(frozen=True)
class Anonymity(_DerivedV):
    pi: tuple[int, ...]
    tag = "anonymity"

    @_cached
    def v(self) -> Profile:
        return permute(self.u, self.pi)

    def relation(self) -> Relation:
        return Relation.EQUIVALENT

    def profile_clauses(self) -> list[str]:
        try:
            check_permutation(self.pi, len(self.u))
        except ValueError as exc:
            return [str(exc)]
        return []

    @classmethod
    def generate(cls, ctx):
        n = ctx.size(1)
        pi = list(range(n))
        ctx.rng.shuffle(pi)
        return ctx.build(cls, ctx.profile(ctx.draws(n)), tuple(pi))


@dataclass(frozen=True)
class _Pareto(_Axiom):
    """u dominates v; ``strict`` requires it at every position."""

    v: Profile
    endpoint_fields = ("v", "u")
    strict = False

    def profile_clauses(self) -> list[str]:
        if len(self.u) != len(self.v):
            return ["population sizes differ"]
        sign = "<=" if self.strict else "<"
        for start, count, uval, vval in _Scale(self).runs():
            if uval < vval or (self.strict and uval == vval):
                return [f"u {sign} v at positions {start}..{start + count - 1}"]
        return []


@dataclass(frozen=True)
class StrongPareto(_Pareto):
    tag = "strong_pareto"

    def relation(self) -> Relation:
        # validated, u >= v everywhere: u > v somewhere iff the canonical forms differ
        return Relation.STRICT if self.u != self.v else Relation.WEAK

    @classmethod
    def generate(cls, ctx):
        n, rng = ctx.size(1), ctx.rng
        v = ctx.draws(n)
        u = [x + (0 if rng.random() < 0.4 else ctx.draw(0, 5 * ctx.den)) for x in v]
        return ctx.build(cls, ctx.profile(u), ctx.profile(v))


@dataclass(frozen=True)
class WeakPareto(_Pareto):
    tag = "weak_pareto"
    strict = True

    def relation(self) -> Relation:
        return Relation.STRICT

    @classmethod
    def generate(cls, ctx):
        n = ctx.size(1)
        v = ctx.draws(n)
        u = [x + ctx.draw(ctx.den // 2, 5 * ctx.den) for x in v]
        return ctx.build(cls, ctx.profile(u), ctx.profile(v))


@dataclass(frozen=True)
class PigouDalton(_DerivedV):
    """Transfer of epsilon from richer i to poorer j, order preserved."""

    i: int
    j: int
    epsilon: Fraction
    tag = "pigou_dalton"
    options = {"epsilon_max": 3}

    @_cached
    def v(self) -> Profile:
        e, d = self.epsilon.as_integer_ratio()
        return self.u.shifted({self.i: -e, self.j: e}, d)

    def profile_clauses(self) -> list[str]:
        u, (e, d) = self.u, self.epsilon.as_integer_ratio()
        failures = [] if e > 0 else ["epsilon must be positive"]
        if self.i == self.j or not (0 <= self.i < u.n and 0 <= self.j < u.n):
            failures.append("need two distinct in-range indices")
        elif (u.numerator_at(self.i) - u.numerator_at(self.j)) * d < 2 * e * u.den:
            failures.append("transfer would reverse the order: u_i - eps >= u_j + eps fails")
        return failures

    @classmethod
    def generate(cls, ctx):
        n = ctx.size(2)
        epsilon = ctx.draw(ctx.den // 2, ctx.s.epsilon_max)
        slack = 0 if ctx.boundary() else ctx.draw(0, 4 * ctx.den)
        u_j = ctx.draw(ctx.lo, ctx.hi - 2 * epsilon - slack)
        u_i = u_j + 2 * epsilon + slack
        i, j = ctx.rng.sample(range(n), 2)
        levels = ctx.draws(n)
        levels[i], levels[j] = u_i, u_j
        return ctx.build(cls, ctx.profile(levels), i, j, Fraction(epsilon, ctx.den))


@dataclass(frozen=True)
class ReplicationInvariance(_Axiom):
    v: Profile
    k: int
    tag = "replication_invariance"
    options = {"k_max": 4}
    ranks_profiles = False  # it justifies the lift and descent steps themselves

    def profile_clauses(self) -> list[str]:
        failures = ["population sizes differ"] if len(self.u) != len(self.v) else []
        return failures + (["k must be a positive integer"] if self.k < 1 else [])

    def conclusion(self, spec):
        base = swo_compare(spec, self.u, self.v)
        lifted = swo_compare(spec, replicate(self.u, self.k), replicate(self.v, self.k))
        ok = base.verdict is lifted.verdict
        detail = "" if ok else (
            f"verdict changes under {self.k}-replication: "
            f"{base.verdict.value} vs {lifted.verdict.value}"
        )
        return ok, detail, base.numerically_tied or lifted.numerically_tied

    @classmethod
    def generate(cls, ctx):
        n = ctx.size(1)
        u, v = ctx.profile(ctx.draws(n)), ctx.profile(ctx.draws(n))
        return ctx.build(cls, u, v, ctx.between(1, ctx.p.k_max))


@dataclass(frozen=True)
class _Donors(_Axiom):
    """One recipient i and a set M of donors (or gainers); everyone else unaffected."""

    v: Profile
    i: int
    M: IndexSet

    def count_clauses(self) -> list[str]:
        """Clauses on the size of M, checked before the profiles are walked."""
        return []

    # each type's ``donor_rule(s)`` is a function (u_j, v_j) -> whether each of the
    # ``donor_texts`` clauses fails, in their order, and ``recipient_rule(s, u_i, v_i)``
    # whether each of the ``recipient_texts`` clauses does, on numerators over s
    donor_texts = recipient_texts = ()

    def reverts(self):
        """Each donor j moved out of M, its level in v back to its level in u;
        none when M would be empty."""
        if len(self.M) > 1:
            for j in self.M:
                M = IndexSet.from_indices(m for m in self.M if m != j)
                yield replace(self, v=self.v.with_value_at(j, self.u.value_at(j)), M=M)

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
        s = _Scale(self)
        donor = self.donor_rule(s)
        for (start, count, uval, vval), m_cnt in M.tally(s.runs()):
            stop = start + count
            has_i = start <= i < stop
            if has_i:
                u_i, v_i = uval, vval
            if m_cnt and True in (failed := donor(uval, vval)):
                failures += [f"{text} (positions {start}..{stop - 1})"
                             for text in itertools.compress(self.donor_texts, failed)]
            if count - m_cnt - has_i and uval != vval:
                failures.append(
                    f"unaffected agents change: {format_level(Fraction(uval, s.den))} -> "
                    f"{format_level(Fraction(vval, s.den))} (positions {start}..{stop - 1})"
                )
        if True in (failed := self.recipient_rule(s, u_i, v_i)):
            failures += itertools.compress(self.recipient_texts, failed)
        return failures

    @classmethod
    def generate(cls, ctx):
        """Size, positions, the type's ``roles(ctx)`` (the recipient's (u_i, v_i),
        donor() -> (u_j, v_j), bystander() -> level), then each donor's pair and
        each bystander's unchanged level, drawn in position order."""
        n = ctx.size(2)
        i, M, rest = _positions(ctx, n, ctx.between(1, n - 1))
        recipient, donor, bystander = cls.roles(ctx)
        u, v = [0] * n, [0] * n
        u[i], v[i] = recipient
        for q in M:
            u[q], v[q] = donor()
        for q in rest:
            u[q] = v[q] = bystander()
        return ctx.build(cls, ctx.profile(u), ctx.profile(v), i, IndexSet.from_indices(M))


def _alpha_beta(p) -> list[str]:
    return [] if p.alpha > p.beta > 0 else ["need alpha > beta > 0"]


def _thresholds_alpha_beta(p) -> list[str]:
    return ([] if p.theta_r > p.theta_p > 0 else ["need theta_r > theta_p > 0"]) + _alpha_beta(p)


def _gamma_delta(p) -> list[str]:
    return [] if p.gamma > p.delta > 0 else ["need gamma > delta > 0"]


def _poor_recipient(ctx) -> tuple[int, int]:
    """(u_i, v_i): a gain of at least alpha that ends at or below theta_p; on
    the boundary, one of the two binding shapes, a gain of exactly alpha or
    a landing on theta_p."""
    s = ctx.s
    u_i = ctx.at_most(s.theta_p - s.alpha)
    if ctx.boundary():
        return u_i, (u_i + s.alpha if ctx.rng.random() < 0.5 else s.theta_p)
    return u_i, ctx.draw(u_i + s.alpha, s.theta_p)


@dataclass(frozen=True)
class MinimalNonAggregation(_Donors):
    """Poorest below theta_p gains >= alpha; richest above theta_r each lose <= beta."""

    theta_p: Fraction
    theta_r: Fraction
    alpha: Fraction
    beta: Fraction
    tag = "minimal_non_aggregation"
    magnitude_clauses = staticmethod(_thresholds_alpha_beta)
    donor_texts = ("u_j must be (tied for) best-off in u", "u_j >= theta_r fails",
                   "v_j must be (tied for) best-off in v", "v_j >= u_j - beta fails")
    recipient_texts = ("u_i must be (tied for) worst-off in u", "v_i >= u_i + alpha fails",
                       "theta_p >= v_i fails")

    def donor_rule(self, s):
        u_max, v_max = max(s.u), max(s.v)
        theta_r, beta = s(self.theta_r), s(self.beta)
        return lambda uj, vj: (uj != u_max, uj < theta_r, vj != v_max, vj < uj - beta)

    def recipient_rule(self, s, u_i, v_i):
        return u_i != min(s.u), v_i < u_i + s(self.alpha), v_i > s(self.theta_p)

    @classmethod
    def roles(cls, ctx):
        s = ctx.s
        u_i, v_i = _poor_recipient(ctx)
        u_top = ctx.at_least(s.theta_r)
        loss_cap = min(s.beta, u_top - v_i)
        v_top = u_top - (loss_cap if ctx.boundary() else ctx.draw(0, loss_cap))
        return (u_i, v_i), lambda: (u_top, v_top), lambda: ctx.draw(u_i, v_top)


@dataclass(frozen=True)
class StrongNonAggregation(_Donors):
    """One person gains exactly alpha; members of M each lose exactly beta
    and stay strictly above the recipient. No thresholds."""

    alpha: Fraction
    beta: Fraction
    tag = "strong_non_aggregation"
    magnitude_clauses = staticmethod(_alpha_beta)
    donor_texts = ("u_j - beta = v_j fails", "v_j > v_i fails")
    recipient_texts = ("v_i = u_i + alpha fails",)

    def donor_rule(self, s):
        v_i = self.u.numerator_at(self.i) * (s.den // self.u.den) + s(self.alpha)
        beta = s(self.beta)
        return lambda uj, vj: (vj != uj - beta, vj <= v_i)

    def recipient_rule(self, s, u_i, v_i):
        return (v_i != u_i + s(self.alpha),)

    @classmethod
    def roles(cls, ctx):
        s = ctx.s
        u_i = ctx.draw(ctx.lo, ctx.hi)
        floor = u_i + s.alpha + s.beta

        def donor():
            u_j = floor + ctx.draw(ctx.den // 2, 6 * ctx.den)
            return u_j, u_j - s.beta

        return (u_i, u_i + s.alpha), donor, lambda: ctx.draw(ctx.lo, ctx.hi)


@dataclass(frozen=True)
class StrongNonAggThreshold(_Donors):
    """Exact-magnitude strong non-aggregation with threshold constraints:
    the recipient ends at or below theta_p, donors end at or above theta_r."""

    theta_p: Fraction
    theta_r: Fraction
    alpha: Fraction
    beta: Fraction
    tag = "strong_non_aggregation_threshold"
    magnitude_clauses = staticmethod(_thresholds_alpha_beta)
    donor_texts = ("u_j - beta = v_j fails", "v_j >= theta_r fails")
    recipient_texts = ("v_i = u_i + alpha fails", "theta_p >= v_i fails")

    def donor_rule(self, s):
        beta, theta_r = s(self.beta), s(self.theta_r)
        return lambda uj, vj: (vj != uj - beta, vj < theta_r)

    def recipient_rule(self, s, u_i, v_i):
        return v_i != u_i + s(self.alpha), v_i > s(self.theta_p)

    @classmethod
    def roles(cls, ctx):
        s = ctx.s
        top = s.theta_p - s.alpha
        u_i = top if ctx.boundary() else ctx.at_most(top)

        def donor():
            u_j = ctx.at_least(s.theta_r + s.beta)
            return u_j, u_j - s.beta

        return (u_i, u_i + s.alpha), donor, lambda: ctx.draw(ctx.lo, ctx.hi)


@dataclass(frozen=True)
class StrongerNonAggregation(_Donors):
    """Non-aggregation without rank clauses: any recipient ending at or
    below theta_p gains >= alpha while donors lose <= beta and stay at or
    above theta_p after paying."""

    theta_p: Fraction
    alpha: Fraction
    beta: Fraction
    tag = "stronger_non_aggregation"
    donor_texts = ("v_j >= u_j - beta fails", "u_j - beta >= theta_p fails")
    recipient_texts = ("v_i >= u_i + alpha fails", "theta_p >= v_i fails")

    @staticmethod
    def magnitude_clauses(p):
        return ([] if p.theta_p > 0 else ["need theta_p > 0"]) + _alpha_beta(p)

    def donor_rule(self, s):
        beta, theta_p = s(self.beta), s(self.theta_p)
        return lambda uj, vj: (vj < uj - beta, uj - beta < theta_p)

    def recipient_rule(self, s, u_i, v_i):
        return v_i < u_i + s(self.alpha), v_i > s(self.theta_p)

    @classmethod
    def roles(cls, ctx):
        s = ctx.s

        def donor():
            u_j = ctx.at_least(s.theta_p + s.beta)
            return u_j, u_j - (s.beta if ctx.boundary() else ctx.draw(0, s.beta))

        return _poor_recipient(ctx), donor, lambda: ctx.draw(ctx.lo, ctx.hi)


def _aggregation_pair(ctx: _GenContext, n: int, m_count: int):
    """(u, v, i, M): M gains gamma or more and i loses delta or less."""
    gamma, delta = ctx.s.gamma, ctx.s.delta
    i, M, rest = _positions(ctx, n, m_count)
    u_levels = ctx.draws(n)
    v_levels = list(u_levels)
    loss = delta if ctx.boundary() else ctx.draw(0, delta)
    v_levels[i] = u_levels[i] - loss
    for p in M:
        extra = 0 if ctx.boundary() else ctx.draw(0, 4 * ctx.den)
        v_levels[p] = u_levels[p] + gamma + extra
    return ctx.profile(u_levels), ctx.profile(v_levels), i, IndexSet.from_indices(M)


class _Aggregation(_Donors):
    """Members of M each gain >= gamma while i loses <= delta."""

    donor_texts = ("v_j >= u_j + gamma fails",)
    recipient_texts = ("v_i >= u_i - delta fails",)

    def donor_rule(self, s):
        gamma = s(self.gamma)
        return lambda uj, vj: (vj < uj + gamma,)

    def recipient_rule(self, s, u_i, v_i):
        return (v_i < u_i - s(self.delta),)


@dataclass(frozen=True)
class QuantitativeAggregation(_Aggregation):
    """At least m persons gain >= gamma while one person loses <= delta."""

    m: int
    gamma: Fraction
    delta: Fraction
    tag = "quantitative_aggregation"

    @staticmethod
    def magnitude_clauses(p):
        m_ok = isinstance(p.m, int) and p.m > 2  # a builder's m arrives undecoded
        return _gamma_delta(p) + ([] if m_ok else ["need integer m > 2"])

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
        m_count = p.m if ctx.boundary() else ctx.between(p.m, n - 1)
        return ctx.build(cls, *_aggregation_pair(ctx, n, m_count))


@dataclass(frozen=True)
class RatioAggregation(_Aggregation):
    """At least ceil(lam * n) persons gain >= gamma while one loses <= delta."""

    lam: Fraction
    gamma: Fraction
    delta: Fraction
    tag = "ratio_aggregation"

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
        m_count = needed if ctx.boundary() else ctx.between(needed, n - 1)
        return ctx.build(cls, *_aggregation_pair(ctx, n, m_count))


@dataclass(frozen=True)
class MinimalAggregation(_Axiom):
    """Everyone except i gains >= gamma while i loses <= delta."""

    v: Profile
    i: int
    gamma: Fraction
    delta: Fraction
    tag = "minimal_aggregation"
    magnitude_clauses = staticmethod(_gamma_delta)

    def profile_clauses(self):
        n = len(self.u)
        if len(self.v) != n:
            return ["population sizes differ"]
        if not 0 <= self.i < n:
            return ["index i out of range"]
        failures = []
        s = _Scale(self)
        gamma, delta = s(self.gamma), s(self.delta)
        for start, count, uval, vval in s.runs():
            has_i = start <= self.i < start + count
            if has_i and vval < uval - delta:
                failures.append("v_i >= u_i - delta fails")
            if count - has_i and vval < uval + gamma:
                failures.append(
                    f"v_j >= u_j + gamma fails (positions {start}..{start + count - 1})"
                )
        return failures

    @classmethod
    def generate(cls, ctx):
        n = ctx.size(2)
        return ctx.build(cls, *_aggregation_pair(ctx, n, n - 1)[:3])


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

AXIOM_TAGS = {cls.tag: cls for cls in AxiomInstance.__args__}

# each type's own fields, in document key order, and of them its magnitudes: the
# parameters magnitude_clauses reads, which generation takes from params
for _cls in AxiomInstance.__args__:
    _cls.config_fields = {k: f for k, f in _FIELDS.items() if k in _cls.__dataclass_fields__}
    _cls.magnitudes = tuple(k for k in _cls.config_fields if k in _MAGNITUDES)


# ---------------------------------------------------------------------------
# precondition validation


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class CheckResult:
    status: CheckStatus
    instance: AxiomInstance
    detail: str = ""
    flagged: bool = False  # numeric-tie ambiguity in a floating backend

    @property
    def violated(self) -> bool:
        return self.status is CheckStatus.VIOLATED


def check_axiom(spec: OrderingSpec, inst: AxiomInstance) -> CheckResult:
    """Check one instance against one ordering.

    Violated only when every hypothesis clause held and the ordering's
    verdict contradicts the conclusion. Numeric ties are surfaced via
    ``flagged``, never silently satisfied.
    """
    report = validate_preconditions(inst)
    if not report.ok:
        return CheckResult(CheckStatus.PRECONDITION_UNMET, inst, report.detail)
    ok, detail, flagged = inst.conclusion(spec)
    return CheckResult(
        CheckStatus.SATISFIED if ok else CheckStatus.VIOLATED, inst, detail, flagged
    )


# ---------------------------------------------------------------------------
# randomized instance generation


BOUNDARY_PROBABILITY = 0.25
# the default draw ranges of a stream: population sizes and levels, inclusive
POPULATIONS = (2, 10)
VALUES = (-20, 20)


def _positions(ctx: _GenContext, n: int, m_count: int):
    i_pos = ctx.between(0, n - 1)
    rest = [p for p in range(n) if p != i_pos]
    ctx.rng.shuffle(rest)
    return i_pos, sorted(rest[:m_count]), sorted(rest[m_count:])


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InfeasibleParameters(message)


def generate_instances(
    axiom: str,
    params: Mapping[str, object],
    *,
    populations: tuple[int, int] = POPULATIONS,
    values: tuple = VALUES,
    seed: int = 0,
) -> Iterator[AxiomInstance]:
    """Deterministic infinite stream of valid instances of one axiom.

    ``params`` supplies the axiom's magnitudes (alpha, beta, gamma,
    delta, thresholds, m, lam as the axiom needs) and may set its
    options (epsilon_max, k_max), all read through ``_FIELDS``. They must
    pass the axiom's magnitude clauses, and options must be positive;
    both are checked here, before anything is drawn. Boundary shapes
    (minimal donor sets, recipients landing exactly on the threshold,
    exact maximal losses) appear with fixed probability.
    """
    lo, hi = as_level(values[0]), as_level(values[1])
    p_lo, p_hi = populations
    _require(1 <= p_lo <= p_hi, "empty population range")
    _require(lo < hi, "empty value range")
    cls = lookup_tag(AXIOM_TAGS, axiom, "axiom")
    fields = {name: _FIELDS[name] for name in (*cls.magnitudes, *cls.options)}
    p = SimpleNamespace(**read_fields(params, fields, cls.options, "axiom parameter"))
    failures = cls.magnitude_clauses(p)
    failures += [f"need {name} > 0" for name in cls.options if getattr(p, name) <= 0]
    _require(not failures, "; ".join(failures))

    # every level of the stream is an int numerator over one even denominator
    levels = {name: x for name, x in vars(p).items() if _FIELDS[name] is LEVEL}
    den, (_, lo, hi, *s) = over_common_denominator([Fraction(1, 2), lo, hi, *levels.values()])
    s = SimpleNamespace(**dict(zip(levels, s)))
    ctx = _GenContext(random.Random(seed), p, s, den, lo, hi, max(p_lo, 2), p_hi)
    return map(cls.generate, itertools.repeat(ctx))


@dataclass
class _GenContext:
    rng: random.Random
    p: SimpleNamespace  # the decoded magnitudes and options
    s: SimpleNamespace  # the level magnitudes and level options as numerators over den
    den: int
    lo: int
    hi: int
    p_lo: int
    p_hi: int

    def build(self, cls, *drawn) -> AxiomInstance:
        """``cls`` of the drawn fields and the stream's magnitudes, typed already: not decoded."""
        inst = object.__new__(cls)
        for name, value in zip(cls.__dataclass_fields__, drawn):
            object.__setattr__(inst, name, value)
        for name in cls.magnitudes:
            object.__setattr__(inst, name, getattr(self.p, name))
        return inst

    def boundary(self) -> bool:
        return self.rng.random() < BOUNDARY_PROBABILITY

    def size(self, minimum: int = 2) -> int:
        lo = max(self.p_lo, minimum)
        _require(lo <= self.p_hi, f"population range cannot reach size {minimum}")
        return self.between(lo, self.p_hi)

    def draw(self, lo: int, hi: int) -> int:
        """Uniform draw on a halves grid inside [lo, hi] (numerators over den)."""
        if hi < lo:
            raise InfeasibleParameters(
                f"empty draw range [{Fraction(lo, self.den)}, {Fraction(hi, self.den)}]"
            )
        step = self.den // 2 if self.rng.random() < 0.25 else self.den
        lo_k, hi_k = -(-lo // step), hi // step
        if hi_k < lo_k:
            return lo  # grid too coarse, fall back to the endpoint
        return self.between(lo_k, hi_k) * step

    def between(self, lo: int, hi: int) -> int:
        """A uniform int in [lo, hi], hi >= lo: what ``Random.randint(lo, hi)`` draws, as
        ``randrange`` draws ``_randbelow`` of the width, without their argument checks."""
        return lo + self.rng._randbelow(hi - lo + 1)

    def at_most(self, top: int) -> int:
        """A draw at or below ``top``, the value range stretched to 5 units under it."""
        return self.draw(min(self.lo, top - 5 * self.den), top)

    def at_least(self, floor: int) -> int:
        """A draw at or above ``floor``, the value range stretched to 5 units over it."""
        return self.draw(floor, max(self.hi, floor + 5 * self.den))

    def draws(self, n: int) -> list[int]:
        """n draws from the stream's value range."""
        return [self.draw(self.lo, self.hi) for _ in range(n)]

    def profile(self, levels: list[int]) -> Profile:
        return Profile.from_numerators(self.den, levels)


# ---------------------------------------------------------------------------
# suites


@dataclass(frozen=True, slots=True)
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
    **draws,
) -> SuiteResult:
    """Run ``count`` generated instances of one axiom against an ordering; the
    ``draws`` keywords (populations, values, seed) go to ``generate_instances``."""
    _require(count >= 0, "instance count must be non-negative")
    satisfied = violated = unmet = flagged = 0
    first_violation = None
    for inst in itertools.islice(generate_instances(axiom, params, **draws), count):
        result = check_axiom(spec, inst)
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
    return inst.encode_fields({"axiom": inst.tag})


def instance_from_config(doc: Mapping) -> AxiomInstance:
    """Instance from a document; keys the axiom does not use are ignored."""
    return read_tagged(AXIOM_TAGS, doc, "axiom", "axiom")
