"""Derivation chains: axiom-by-axiom certificates of profile rankings.

A chain is a linear walk over profiles. Each step asserts that its
``to_profile`` is socially at least as good as its ``from_profile``
(strictly, or exactly as good, depending on the justifying axiom):

* ``AxiomStep``: one axiom instance whose hypothesis clauses hold
  exactly for (from, to); ``AxiomStep.of`` makes it from the instance;
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

Each step type owns its rules: ``check`` validates it against the
segment walked so far and returns the relation it asserts, ``line``
writes its certificate line and ``parse`` reads the line back. A bad
step is a failure in the report, never an exception: an instance's
``endpoints`` (worse, better, relation) are read only once its clauses
hold, and a step whose clauses fail asserts no relation. A certificate
line's fields, apart from the endpoints an instance's ``endpoint_fields``
name, are the instance's ``config_fields`` written by the field codec,
and re-parse to identical values; its ``axiom`` tag resolves through
``codec.lookup_tag``. A malformed line, one that repeats a key, carries
a key its type does not read or repeats the ``chain`` header, is a
``CertificateError`` naming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache

from .axioms import (
    AXIOM_TAGS,
    AxiomInstance,
    Relation,
    StrongPareto,
    WeakPareto,
    instance_to_config,
    validate_preconditions,
)
from .codec import INTEGER, PROFILE, decode, lookup_tag
from .errors import CertificateError, ConfigError
from .orderings import OrderingSpec, swo_compare
from .profiles import Profile, Verdict, replicate, serialize_profile


@dataclass(frozen=True)
class AxiomStep:
    from_profile: Profile
    to_profile: Profile
    instance: AxiomInstance
    word = "step"

    @classmethod
    def of(cls, inst: AxiomInstance) -> AxiomStep:
        """The step from the instance's worse profile to its better one."""
        worse, better, _ = inst.endpoints()
        return cls(worse, better, inst)

    def check(self, idx: int, walk: _Walk) -> Relation | None:
        if walk.head is None:
            walk.start = self.from_profile
        elif self.from_profile != walk.head:
            walk.link_failures.append((idx, "from-profile differs from the previous head"))
        walk.head = self.to_profile
        mismatch = "instance does not describe the step's {}-profile"
        return _check_instance(walk, idx, self.instance, self, 1, mismatch)

    def line(self) -> str:
        return _line(self.word, _instance_fields(self.instance, _ends(self)))

    @classmethod
    def parse(cls, fields: dict, profile: tuple) -> AxiomStep:
        frm, to = _read(fields, "from", profile), _read(fields, "to", profile)
        return cls(frm, to, _parse_instance(fields, (frm, to)))


@dataclass(frozen=True)
class LiftStep:
    from_profile: Profile
    to_profile: Profile
    k: int
    base: AxiomInstance
    word = "lift"

    @classmethod
    def of(cls, base: AxiomInstance, k: int) -> LiftStep:
        """The k-replication of the step from the base's worse profile to its better one."""
        worse, better, _ = base.endpoints()
        return cls(replicate(worse, k), replicate(better, k), k, base)

    def check(self, idx: int, walk: _Walk) -> Relation | None:
        if walk.head is not None:
            walk.link_failures.append((idx, "lift step must open the chain"))
        walk.start, walk.head = self.from_profile, self.to_profile
        mismatch = "{}-profile is not the k-replicated base"
        return _check_instance(walk, idx, self.base, self, self.k, mismatch)

    def line(self) -> str:
        base_from, base_to, _ = self.base.endpoints()
        ends = _ends(self)
        ends.update(base_from=serialize_profile(base_from), base_to=serialize_profile(base_to))
        return _line(self.word, {"k": self.k, **_instance_fields(self.base, ends)})

    @classmethod
    def parse(cls, fields: dict, profile: tuple) -> LiftStep:
        k = _read(fields, "k", INTEGER)
        frm, to = _read(fields, "from", profile), _read(fields, "to", profile)
        base_from, base_to = _read(fields, "base_from", profile), _read(fields, "base_to", profile)
        return cls(frm, to, k, _parse_instance(fields, (base_from, base_to)))


@dataclass(frozen=True)
class DescentStep:
    from_profile: Profile
    to_profile: Profile
    k: int
    word = "descent"

    def check(self, idx: int, walk: _Walk) -> Relation:
        if walk.head is None:
            walk.link_failures.append((idx, "descent without an established segment"))
        elif self.k < 1:
            walk.pre_failures.append((idx, "k must be a positive integer"))
        else:
            if replicate(self.from_profile, self.k) != walk.start:
                walk.link_failures.append(
                    (idx, "k-replication of from-profile is not the segment start")
                )
            if replicate(self.to_profile, self.k) != walk.head:
                walk.link_failures.append(
                    (idx, "k-replication of to-profile is not the segment head")
                )
        walk.start, walk.head = self.from_profile, self.to_profile
        return walk.relation

    def line(self) -> str:
        return _line(self.word, {"k": self.k, **_ends(self)})

    @classmethod
    def parse(cls, fields: dict, profile: tuple) -> DescentStep:
        k = _read(fields, "k", INTEGER)
        return cls(_read(fields, "from", profile), _read(fields, "to", profile), k)


DerivationStep = AxiomStep | LiftStep | DescentStep
_STEPS = {step.word: step for step in (AxiomStep, LiftStep, DescentStep)}


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


class _Walk:
    """The segment walked so far, and the failures and verdicts found on the way."""

    def __init__(self, spec: OrderingSpec | None):
        self.spec = spec
        self.start: Profile | None = None
        self.head: Profile | None = None
        self.relation = Relation.EQUIVALENT
        self.pre_failures: list[tuple[int, str]] = []
        self.link_failures: list[tuple[int, str]] = []
        self.verdicts: list[StepVerdict] = []

    def record(self, idx: int, required: Relation, worse: Profile, better: Profile) -> None:
        """Record the ordering's verdict of better against worse, when an ordering is given."""
        if self.spec is not None:
            res = swo_compare(self.spec, better, worse)
            denied = not required.admits(res.verdict)
            self.verdicts.append(
                StepVerdict(idx, required, res.verdict, denied, res.numerically_tied)
            )


def _check_instance(
    walk: _Walk, idx: int, inst: AxiomInstance, step: DerivationStep, k: int, mismatch: str
) -> Relation | None:
    """Record the failures of ``inst`` justifying ``step`` through k-replication.

    Returns the relation the instance asserts, or None when its clauses
    or k fail. ``mismatch`` words the failure of an endpoint, "from" or
    "to", that is not the k-replicated endpoint of the instance.
    """
    if not inst.ranks_profiles:
        walk.pre_failures.append((idx, f"{inst.tag} justifies only lift and descent steps"))
    report = validate_preconditions(inst)
    if not report.ok:
        walk.pre_failures.append((idx, report.detail))
        return None
    if k < 1:
        walk.pre_failures.append((idx, "k must be a positive integer"))
        return None
    worse, better, relation = inst.endpoints()
    if replicate(worse, k) != step.from_profile:
        walk.pre_failures.append((idx, mismatch.format("from")))
    if replicate(better, k) != step.to_profile:
        walk.pre_failures.append((idx, mismatch.format("to")))
    return relation


def validate_chain(chain: DerivationChain, spec: OrderingSpec | None = None) -> ChainReport:
    """Re-validate all hypothesis clauses and the transitive linkage.

    With an ordering given, additionally evaluate each step's asserted
    relation (and the terminal) and record which ones the ordering
    denies; the first denial is the violation locator's answer.
    """
    walk = _Walk(spec)
    for idx, step in enumerate(chain.steps):
        required = step.check(idx, walk)
        if required is not None:
            walk.relation = walk.relation.combine(required)
            walk.record(idx, required, step.from_profile, step.to_profile)

    n_steps, terminal = len(chain.steps), chain.terminal
    if chain.kind is ChainKind.CONTRADICTION:
        if terminal is None:
            walk.link_failures.append((n_steps, "contradiction chain needs a terminal Pareto step"))
        elif walk.start is None:
            walk.link_failures.append((n_steps, "empty chain"))
        elif not (report := validate_preconditions(terminal)).ok:
            walk.pre_failures.append((n_steps, report.detail))
        else:
            worse, better, relation = terminal.endpoints()
            if better != walk.start:
                walk.link_failures.append((n_steps, "terminal must dominate the segment start"))
            if worse != walk.head:
                walk.link_failures.append((n_steps, "terminal must rank against the segment head"))
            if relation is not Relation.STRICT:
                walk.pre_failures.append((n_steps, "terminal Pareto step must be strict"))
            walk.record(n_steps, Relation.STRICT, worse, better)
    else:
        if terminal is not None:
            walk.link_failures.append((n_steps, "dominance chain carries no terminal"))
        if walk.relation is not Relation.STRICT:
            walk.link_failures.append(
                (n_steps, "dominance chain fails to establish a strict ranking")
            )

    return ChainReport(
        n_steps,
        tuple(walk.pre_failures),
        tuple(walk.link_failures),
        walk.start,
        walk.head,
        walk.relation,
        tuple(walk.verdicts),
    )


# ---------------------------------------------------------------------------
# certificate serialization (line oriented, value-exact round trip)


_HEADER = "# welfareax certificate v1"
_KIND = (ChainKind, lambda kind: kind.value, ChainKind)


def _ends(step: DerivationStep) -> dict:
    return {"from": serialize_profile(step.from_profile), "to": serialize_profile(step.to_profile)}


def _instance_fields(inst: AxiomInstance, ends: dict) -> dict:
    """``axiom``, then ``ends``, then the instance's fields other than u and v."""
    doc = instance_to_config(inst)
    rest = {key: value for key, value in doc.items() if key not in ("axiom", "u", "v")}
    return {"axiom": inst.tag, **ends, **rest}


def _line(word: str, fields: dict) -> str:
    parts = [word]
    for key, value in fields.items():
        if isinstance(value, list):
            value = ",".join(str(x) for x in value)
        parts.append(f"{key}={value}")
    return " ".join(parts)


def serialize_chain(chain: DerivationChain) -> str:
    lines = [_HEADER, f"chain kind={chain.kind.value}"]
    lines.extend(step.line() for step in chain.steps)
    if chain.terminal is not None:
        lines.append(_line("terminal", instance_to_config(chain.terminal)))
    return "\n".join(lines) + "\n"


def _read(fields: dict, name: str, field):
    """The named value of a line, decoded; a missing one is a ``KeyError``."""
    return decode(name, field, fields.pop(name))


def _parse_instance(fields: dict, ends: tuple[Profile, ...] = ()) -> AxiomInstance:
    """The instance a line's ``axiom`` and its own fields describe; the keys read are removed.

    ``ends`` gives the (worse, better) endpoints when the line writes them
    under other names; a derived endpoint (a property, not a field) is ignored.
    """
    cls = lookup_tag(AXIOM_TAGS, fields.pop("axiom"), "axiom")
    doc = dict(zip(cls.endpoint_fields, ends))
    for name in cls.config_fields:
        if name not in doc and name in fields:
            doc[name] = fields.pop(name)
    return cls.from_fields(doc, "axiom field")


def _parse_tokens(line: str) -> dict:
    fields = {}
    for token in line.split()[1:]:
        if "=" not in token:
            raise ConfigError(f"malformed token {token!r}")
        key, _, value = token.partition("=")
        if key in fields:
            raise ConfigError(f"repeated key {key!r}")
        fields[key] = value
    return fields


def parse_chain(text: str) -> DerivationChain:
    steps: list[DerivationStep] = []
    terminal: WeakPareto | StrongPareto | None = None
    kind: ChainKind | None = None
    # PROFILE decoding each distinct token once in this call: step k's to is step k+1's from
    profile = (*PROFILE[:2], cache(PROFILE[2]))
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word = line.split(None, 1)[0]
        try:
            fields = _parse_tokens(line)
            if word == "chain":
                if kind is not None:
                    raise ConfigError("repeated chain header")
                kind = _read(fields, "kind", _KIND)
            elif word == "terminal":
                if fields["axiom"] not in (WeakPareto.tag, StrongPareto.tag):
                    raise ConfigError("terminal must be a Pareto instance")
                terminal = _parse_instance(fields)
            elif word in _STEPS:
                steps.append(_STEPS[word].parse(fields, profile))
            else:
                raise ConfigError(f"unknown certificate line {word!r}")
            if fields:
                raise ConfigError(f"unread key {next(iter(fields))!r}")
        except KeyError as exc:
            raise CertificateError(f"missing field {exc} in line {line!r}") from exc
        except ConfigError as exc:
            raise CertificateError(f"{exc} in line {line!r}") from exc
    if kind is None:
        raise CertificateError("certificate lacks a chain header line")
    return DerivationChain(tuple(steps), terminal, kind)
