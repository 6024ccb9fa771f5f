"""Randomized counterexample search with greedy shrinking.

``find_counterexample`` draws seeded instances of one axiom, checks each
against an ordering, and returns the first violation after shrinking.
Shrinking first drops individuals (population), then reverts donors to
bystanders, then simplifies values toward small integers; every accepted
shrink re-validates the hypothesis clauses and re-checks the violation,
so a returned witness always reproduces. Deterministic throughout:
identical budgets yield identical witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Mapping

from .axioms import AxiomInstance, CheckResult, check_axiom, generate_instances
from .errors import InfeasibleParameters
from .orderings import OrderingSpec
from .profiles import IndexSet, Profile

_MAX_SHRINK_ROUNDS = 10_000


@dataclass(frozen=True)
class SearchBudget:
    max_instances: int
    seed: int = 0
    populations: tuple[int, int] = (2, 10)
    values: tuple = (-20, 20)

    def __post_init__(self):
        if self.max_instances < 1:
            raise InfeasibleParameters("budget must allow at least one instance")
        if self.populations[0] > self.populations[1]:
            raise InfeasibleParameters("empty population range")


@dataclass(frozen=True)
class Witness:
    instance: AxiomInstance
    result: CheckResult
    shrink_steps: int


def _metric(inst: AxiomInstance) -> tuple[int, Fraction]:
    """The population, then the sum of |level| over both profiles, one Fraction per profile."""
    total = Fraction(0)
    for u in (inst.u, inst.v):
        total += Fraction(sum(abs(a) * c for a, c in zip(u.numerators, u.counts)), u.den)
    return len(inst.u), total


def _reindex(index: int, dropped: int) -> int:
    return index - 1 if index > dropped else index


def _without(profile: Profile, p: int) -> Profile:
    """The profile with the entry at position p dropped: one fewer in its block."""
    counts = list(profile.counts)
    counts[profile._block(p)[0]] -= 1
    return Profile.from_numerators(profile.den, profile.numerators, counts)


# Shrink edits read an instance's fields by name: the profiles u and v
# (v is derived, not a field, for anonymity and transfers), the indices i
# and j, the donor set M and the permutation pi.


def _drop_position(inst: AxiomInstance, p: int) -> AxiomInstance | None:
    """Instance with person p removed, or None when p is structurally needed."""
    if len(inst.u) <= 2:
        return None
    fields = vars(inst)
    changes = {name: _without(fields[name], p) for name in ("u", "v") if name in fields}
    for name in ("i", "j"):
        if name in fields:
            if fields[name] == p:
                return None
            changes[name] = _reindex(fields[name], p)
    if "M" in fields:
        M = IndexSet.from_indices(_reindex(m, p) for m in fields["M"] if m != p)
        if len(M) == 0:
            return None
        changes["M"] = M
    if "pi" in fields:
        target = fields["pi"][p]
        changes["pi"] = tuple(
            t - 1 if t > target else t for idx, t in enumerate(fields["pi"]) if idx != p
        )
    return replace(inst, **changes)


def _revert_donor(inst: AxiomInstance, j: int) -> AxiomInstance | None:
    """Move donor j out of M, reverting its post-change level."""
    M = IndexSet.from_indices(m for m in vars(inst)["M"] if m != j)
    if len(M) == 0:
        return None
    v = inst.v.with_value_at(j, inst.u.value_at(j))
    return replace(inst, v=v, M=M)


def _simplify_values(inst: AxiomInstance, p: int) -> Iterator[AxiomInstance]:
    fields = vars(inst)
    u_p = inst.u.value_at(p)
    if "v" not in fields:  # v follows from u: only u moves, never at i or j
        if p in (fields.get("i"), fields.get("j")):
            return
        for candidate in (Fraction(0), Fraction(u_p.__floor__())):
            if candidate != u_p:
                yield replace(inst, u=inst.u.with_value_at(p, candidate))
        return
    v_p = inst.v.value_at(p)
    if u_p == v_p:
        pairs = [(Fraction(0), Fraction(0)), (Fraction(u_p.__floor__()),) * 2]
    else:
        pairs = [(Fraction(u_p.__floor__()), Fraction(v_p.__floor__()))]
    for cu, cv in pairs:
        if (cu, cv) != (u_p, v_p):
            yield replace(
                inst, u=inst.u.with_value_at(p, cu), v=inst.v.with_value_at(p, cv)
            )


def _candidates(inst: AxiomInstance) -> Iterator[AxiomInstance]:
    n = len(inst.u)
    for p in range(n):
        candidate = _drop_position(inst, p)
        if candidate is not None:
            yield candidate
    for j in vars(inst).get("M", ()):
        candidate = _revert_donor(inst, j)
        if candidate is not None:
            yield candidate
    for p in range(n):
        yield from _simplify_values(inst, p)


def _shrink(spec: OrderingSpec, inst: AxiomInstance) -> tuple[AxiomInstance, int]:
    steps = 0
    current = inst
    current_metric = _metric(inst)
    for _ in range(_MAX_SHRINK_ROUNDS):
        improved = False
        for candidate in _candidates(current):
            if _metric(candidate) >= current_metric:
                continue
            if not check_axiom(spec, candidate).violated:
                continue
            current = candidate
            current_metric = _metric(candidate)
            steps += 1
            improved = True
            break
        if not improved:
            break
    return current, steps


def shrink(witness: Witness, spec: OrderingSpec) -> Witness:
    """Greedy re-shrink; idempotent once the witness is at a fixpoint."""
    inst, steps = _shrink(spec, witness.instance)
    if steps == 0:
        return witness
    return Witness(inst, check_axiom(spec, inst), witness.shrink_steps + steps)


def find_counterexample(
    spec: OrderingSpec,
    axiom: str,
    params: Mapping[str, object],
    budget: SearchBudget,
) -> Witness | None:
    """First violating instance within the budget, shrunk; None if clean."""
    stream = generate_instances(
        axiom,
        params,
        populations=budget.populations,
        values=budget.values,
        seed=budget.seed,
    )
    for inst in itertools.islice(stream, budget.max_instances):
        result = check_axiom(spec, inst)
        if result.violated:
            shrunk, steps = _shrink(spec, inst)
            return Witness(shrunk, check_axiom(spec, shrunk), steps)
    return None
