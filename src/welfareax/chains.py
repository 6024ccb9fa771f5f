"""Derivation chains: axiom-by-axiom certificates of profile rankings.

A chain is a linear walk over profiles. Each step asserts that its
``to_profile`` is socially at least as good as its ``from_profile``
(strictly, or exactly as good, depending on the justifying axiom):

* ``AxiomStep``: one axiom instance whose hypothesis clauses hold
  exactly for (from, to);
* ``LiftStep``: a base-population axiom instance carried through
  k-replication (replication invariance, upward);
* ``DescentStep``: replication invariance downward; valid when the k-fold
  replications of its endpoints are exactly the accumulated segment's
  start and head.

A ``contradiction`` chain ends with a Pareto instance ranking the walk's
start strictly above its head, contradicting transitivity; a
``dominance`` chain simply establishes head > start. ``validate_chain``
re-verifies every hypothesis clause and the linkage, and, given an
ordering, locates every step whose asserted relation the ordering
denies.

Every step reads what it asserts from its axiom instance: ``endpoints``
gives the (worse, better) profiles and the relation between them, and
the instance's ``endpoint_fields`` say which of its fields the step's
from- and to-profiles fill when a certificate is parsed. Certificates
serialize one step per line, with the instance's other fields written
by the axiom field codec, and re-parse to identical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .axioms import (
    AXIOM_TAGS,
    AxiomInstance,
    Relation,
    StrongPareto,
    WeakPareto,
    instance_from_config,
    instance_to_config,
    validate_preconditions,
)
from .errors import CertificateError, ConfigError
from .orderings import DEFAULT_TOLERANCE, OrderingSpec, swo_compare
from .profiles import (
    Profile,
    Verdict,
    parse_profile_line,
    replicate,
    serialize_profile,
)


@dataclass(frozen=True)
class AxiomStep:
    from_profile: Profile
    to_profile: Profile
    instance: AxiomInstance


@dataclass(frozen=True)
class LiftStep:
    from_profile: Profile
    to_profile: Profile
    k: int
    base: AxiomInstance


@dataclass(frozen=True)
class DescentStep:
    from_profile: Profile
    to_profile: Profile
    k: int


DerivationStep = AxiomStep | LiftStep | DescentStep


class ChainKind(Enum):
    CONTRADICTION = "contradiction"
    DOMINANCE = "dominance"


@dataclass(frozen=True)
class DerivationChain:
    steps: tuple[DerivationStep, ...]
    terminal: WeakPareto | StrongPareto | None
    kind: ChainKind


@dataclass(frozen=True)
class StepVerdict:
    index: int  # step index; len(steps) denotes the terminal
    required: Relation
    verdict: Verdict
    denied: bool
    flagged: bool


@dataclass(frozen=True)
class ChainReport:
    step_count: int
    precondition_failures: tuple[tuple[int, str], ...]
    linkage_failures: tuple[tuple[int, str], ...]
    claim_start: Profile | None
    claim_head: Profile | None
    claim_relation: Relation | None
    step_verdicts: tuple[StepVerdict, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.precondition_failures and not self.linkage_failures

    @property
    def denied_steps(self) -> tuple[StepVerdict, ...]:
        return tuple(s for s in self.step_verdicts if s.denied)

    @property
    def first_denied(self) -> StepVerdict | None:
        denied = self.denied_steps
        return denied[0] if denied else None


def validate_chain(
    chain: DerivationChain,
    spec: OrderingSpec | None = None,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> ChainReport:
    """Re-validate all hypothesis clauses and the transitive linkage.

    With an ordering given, additionally evaluate each step's asserted
    relation (and the terminal) and record which ones the ordering
    denies; the first denial is the violation locator's answer.
    """
    pre_failures: list[tuple[int, str]] = []
    link_failures: list[tuple[int, str]] = []
    verdicts: list[StepVerdict] = []

    start: Profile | None = None
    head: Profile | None = None
    relation = Relation.EQUIVALENT

    def check_preconditions(idx: int, inst: AxiomInstance) -> None:
        if not inst.ranks_profiles:
            pre_failures.append((idx, f"{inst.tag} justifies only lift and descent steps"))
        report = validate_preconditions(inst)
        if not report.ok:
            pre_failures.append((idx, report.detail))

    def check_instance(idx: int, inst: AxiomInstance, frm: Profile, to: Profile) -> Relation:
        worse, better, rel = inst.endpoints()
        if worse != frm:
            pre_failures.append((idx, "instance does not describe the step's from-profile"))
        if better != to:
            pre_failures.append((idx, "instance does not describe the step's to-profile"))
        check_preconditions(idx, inst)
        return rel

    for idx, step in enumerate(chain.steps):
        if isinstance(step, AxiomStep):
            required = check_instance(idx, step.instance, step.from_profile, step.to_profile)
            if head is None:
                start = step.from_profile
            elif step.from_profile != head:
                link_failures.append((idx, "from-profile differs from the previous head"))
            head = step.to_profile
            relation = relation.combine(required)
        elif isinstance(step, LiftStep):
            if head is not None:
                link_failures.append((idx, "lift step must open the chain"))
            worse, better, required = step.base.endpoints()
            if replicate(worse, step.k) != step.from_profile:
                pre_failures.append((idx, "from-profile is not the k-replicated base"))
            if replicate(better, step.k) != step.to_profile:
                pre_failures.append((idx, "to-profile is not the k-replicated base"))
            check_preconditions(idx, step.base)
            start = step.from_profile
            head = step.to_profile
            relation = relation.combine(required)
        elif isinstance(step, DescentStep):
            required = relation
            if head is None or start is None:
                link_failures.append((idx, "descent without an established segment"))
            else:
                if replicate(step.from_profile, step.k) != start:
                    link_failures.append(
                        (idx, "k-replication of from-profile is not the segment start")
                    )
                if replicate(step.to_profile, step.k) != head:
                    link_failures.append(
                        (idx, "k-replication of to-profile is not the segment head")
                    )
            start, head = step.from_profile, step.to_profile
        else:
            raise CertificateError(f"unknown step {step!r}")

        if spec is not None:
            res = swo_compare(spec, step.to_profile, step.from_profile, tolerance=tolerance)
            verdicts.append(
                StepVerdict(
                    idx, required, res.verdict,
                    not required.admits(res.verdict), res.numerically_tied,
                )
            )

    n_steps = len(chain.steps)
    if chain.kind is ChainKind.CONTRADICTION:
        if chain.terminal is None:
            link_failures.append((n_steps, "contradiction chain needs a terminal Pareto step"))
        elif start is None:
            link_failures.append((n_steps, "empty chain"))
        else:
            worse, better, rel = chain.terminal.endpoints()
            if better != start:
                link_failures.append((n_steps, "terminal must dominate the segment start"))
            if worse != head:
                link_failures.append((n_steps, "terminal must rank against the segment head"))
            check_preconditions(n_steps, chain.terminal)
            if rel is not Relation.STRICT:
                pre_failures.append((n_steps, "terminal Pareto step must be strict"))
            if spec is not None:
                res = swo_compare(spec, better, worse, tolerance=tolerance)
                verdicts.append(
                    StepVerdict(
                        n_steps, Relation.STRICT, res.verdict,
                        not Relation.STRICT.admits(res.verdict), res.numerically_tied,
                    )
                )
    else:
        if chain.terminal is not None:
            link_failures.append((n_steps, "dominance chain carries no terminal"))
        if relation is not Relation.STRICT:
            link_failures.append((n_steps, "dominance chain fails to establish a strict ranking"))

    return ChainReport(
        n_steps,
        tuple(pre_failures),
        tuple(link_failures),
        start,
        head,
        relation,
        tuple(verdicts),
    )


# ---------------------------------------------------------------------------
# certificate serialization (line oriented, value-exact round trip)


_HEADER = "# welfareax certificate v1"


def _instance_fields(inst: AxiomInstance) -> dict:
    doc = instance_to_config(inst)
    doc.pop("axiom")
    doc.pop("u", None)
    doc.pop("v", None)
    return doc


def _format_fields(fields: dict) -> str:
    parts = []
    for key, value in fields.items():
        if isinstance(value, list):
            value = ",".join(str(x) for x in value)
        parts.append(f"{key}={value}")
    return " ".join(parts)


def serialize_chain(chain: DerivationChain) -> str:
    lines = [_HEADER, f"chain kind={chain.kind.value}"]
    for step in chain.steps:
        frm = serialize_profile(step.from_profile)
        to = serialize_profile(step.to_profile)
        if isinstance(step, AxiomStep):
            fields = _format_fields(_instance_fields(step.instance))
            line = f"step axiom={step.instance.tag} from={frm} to={to}"
            lines.append(f"{line} {fields}".rstrip())
        elif isinstance(step, LiftStep):
            base = step.base
            base_from, base_to, _ = base.endpoints()
            fields = _format_fields(_instance_fields(base))
            line = (
                f"lift k={step.k} axiom={base.tag} from={frm} to={to} "
                f"base_from={serialize_profile(base_from)} base_to={serialize_profile(base_to)}"
            )
            lines.append(f"{line} {fields}".rstrip())
        else:
            lines.append(f"descent k={step.k} from={frm} to={to}")
    if chain.terminal is not None:
        lines.append(
            f"terminal axiom={chain.terminal.tag} "
            f"u={serialize_profile(chain.terminal.u)} "
            f"v={serialize_profile(chain.terminal.v)}"
        )
    return "\n".join(lines) + "\n"


def _parse_tokens(line: str) -> dict:
    fields = {}
    for token in line.split()[1:]:
        if "=" not in token:
            raise CertificateError(f"malformed token {token!r}")
        key, _, value = token.partition("=")
        fields[key] = value
    return fields


def _step_instance(tag: str, frm: str, to: str, fields: dict) -> AxiomInstance:
    if tag not in AXIOM_TAGS:
        raise CertificateError(f"unknown axiom tag {tag!r}")
    doc = dict(fields, axiom=tag)
    # from is the worse endpoint; a derived endpoint (a property) is ignored
    doc.update(zip(AXIOM_TAGS[tag].endpoint_fields, (frm, to)))
    return instance_from_config(doc)


def parse_chain(text: str) -> DerivationChain:
    steps: list[DerivationStep] = []
    terminal: WeakPareto | StrongPareto | None = None
    kind: ChainKind | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word = line.split(None, 1)[0]
        fields = _parse_tokens(line)
        try:
            if word == "chain":
                kind = ChainKind(fields["kind"])
            elif word == "step":
                frm, to = fields.pop("from"), fields.pop("to")
                tag = fields.pop("axiom")
                steps.append(
                    AxiomStep(
                        parse_profile_line(frm),
                        parse_profile_line(to),
                        _step_instance(tag, frm, to, fields),
                    )
                )
            elif word == "lift":
                k = int(fields.pop("k"))
                frm, to = fields.pop("from"), fields.pop("to")
                base_from, base_to = fields.pop("base_from"), fields.pop("base_to")
                tag = fields.pop("axiom")
                steps.append(
                    LiftStep(
                        parse_profile_line(frm),
                        parse_profile_line(to),
                        k,
                        _step_instance(tag, base_from, base_to, fields),
                    )
                )
            elif word == "descent":
                steps.append(
                    DescentStep(
                        parse_profile_line(fields["from"]),
                        parse_profile_line(fields["to"]),
                        int(fields["k"]),
                    )
                )
            elif word == "terminal":
                if fields["axiom"] not in (WeakPareto.tag, StrongPareto.tag):
                    raise CertificateError("terminal must be a Pareto instance")
                terminal = instance_from_config(fields)
            else:
                raise CertificateError(f"unknown certificate line {word!r}")
        except KeyError as exc:
            raise CertificateError(f"missing field {exc} in line {line!r}") from exc
        except ConfigError as exc:
            raise CertificateError(f"{exc} in line {line!r}") from exc
    if kind is None:
        raise CertificateError("certificate lacks a chain header line")
    return DerivationChain(tuple(steps), terminal, kind)
