"""Randomized counterexample search with greedy shrinking.

``find_counterexample`` draws seeded instances of one axiom, checks each
against an ordering, and returns the first violation after shrinking.
Each axiom type proposes its own smaller instances (``shrinks`` in
:mod:`welfareax.axioms`): it first drops individuals (population), then
reverts donors to bystanders, then simplifies values toward small
integers. Shrinking here is greedy: it takes the first proposal that
lowers the metric (population, then the sum of |level|) and still
violates. Deterministic throughout: identical budgets yield identical
witnesses.

Search asks the ordering first: an instance whose conclusion holds is no
violation whatever its clauses say, and is passed over unvalidated. Every
one whose conclusion fails is validated, and one whose conclusion raises
goes through ``check_axiom``, clauses first, so search finds the witnesses
that validating every instance finds, and a returned witness always reproduces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .axioms import (POPULATIONS, VALUES, AxiomInstance, CheckResult, check_axiom,
                     generate_instances, validate_preconditions)
from .errors import InfeasibleParameters
from .orderings import OrderingSpec

_MAX_SHRINK_ROUNDS = 10_000


@dataclass(frozen=True)
class SearchBudget:
    max_instances: int
    seed: int = 0
    populations: tuple[int, int] = POPULATIONS
    values: tuple = VALUES

    def __post_init__(self):
        if self.max_instances < 1:
            raise InfeasibleParameters("budget must allow at least one instance")
        if self.populations[0] > self.populations[1]:
            raise InfeasibleParameters("empty population range")


@dataclass(frozen=True, slots=True)
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


def _violated(spec: OrderingSpec, inst: AxiomInstance) -> bool:
    """Whether inst's clauses hold and its conclusion fails, validated only when the
    conclusion fails, and then with no second conclusion. An exception from the
    conclusion goes to ``check_axiom``, which reads a malformed instance as unmet
    and raises it again on a valid one."""
    try:
        if inst.conclusion(spec)[0]:
            return False
    except Exception:
        return check_axiom(spec, inst).violated
    return validate_preconditions(inst).ok


def _shrink(spec: OrderingSpec, inst: AxiomInstance) -> tuple[AxiomInstance, int]:
    steps = 0
    current = inst
    current_metric = _metric(inst)
    for _ in range(_MAX_SHRINK_ROUNDS):
        for candidate in current.shrinks():
            metric = _metric(candidate)
            if metric < current_metric and _violated(spec, candidate):
                current, current_metric = candidate, metric
                steps += 1
                break
        else:
            break  # no candidate is smaller and still violates: a fixpoint
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
        if _violated(spec, inst):
            # the result when no shrink step lands; perfbench times shrinking from this check
            result = check_axiom(spec, inst)
            shrunk, steps = _shrink(spec, inst)
            return Witness(shrunk, check_axiom(spec, shrunk) if steps else result, steps)
    return None
