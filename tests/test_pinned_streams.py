"""Pinned instance streams and precondition clause texts.

``data/instances/<name>.yaml`` holds the ``instance_to_config`` documents
of the first COUNT instances that ``generate_instances`` draws for each
entry of STREAMS; ``data/clauses.yaml`` holds seeded mutations of those
instances, each with the failure list ``validate_preconditions`` gives
for it. Both were written by ``python tests/test_pinned_streams.py``
before the generators and clause walks moved to integer numerators, and
the tests below require the current code to reproduce them exactly.
Regenerate them only together with a deliberate change of the instance
streams or of a clause text.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from welfareax.axioms import (
    AXIOM_TAGS,
    _Donors,
    _Scale,
    generate_instances,
    instance_from_config,
    instance_to_config,
    validate_preconditions,
)
from welfareax.errors import WelfareaxError
from welfareax.profiles import format_level, parse_profile_line, serialize_profile

DATA = Path(__file__).parent / "data"
INSTANCES = DATA / "instances"
CLAUSES = DATA / "clauses.yaml"
SEED = 2024
COUNT = 20
F = Fraction

MNA_4 = dict(theta_p=10, theta_r=12, alpha=10, beta=1)
# acceptance 5, rho = 4 and beta = 7/2: alpha = rho * beta / (rho - 1) = 14/3
MNA_5 = dict(theta_p=10, theta_r=F(29, 2), alpha=F(14, 3), beta=F(7, 2))

# fixture name -> (axiom, params, keywords of generate_instances)
STREAMS = {
    "anonymity": ("anonymity", {}, {}),
    "strong_pareto": ("strong_pareto", {}, {}),
    "strong_pareto_thirds": ("strong_pareto", {}, dict(values=(F(-7, 3), F(15, 2)))),
    "weak_pareto": ("weak_pareto", {}, {}),
    "pigou_dalton": ("pigou_dalton", {}, {}),
    "pigou_dalton_epsilon_max": ("pigou_dalton", dict(epsilon_max=F(7, 3)), {}),
    "replication_invariance": ("replication_invariance", {}, {}),
    "minimal_non_aggregation": ("minimal_non_aggregation", MNA_4, {}),
    "minimal_non_aggregation_rho_4": (
        "minimal_non_aggregation", MNA_5, dict(populations=(2, 8))
    ),
    "strong_non_aggregation": ("strong_non_aggregation", dict(alpha=2, beta=1), {}),
    "strong_non_aggregation_threshold": (
        "strong_non_aggregation_threshold", dict(MNA_5, theta_r=F(31, 3)), {}
    ),
    "stronger_non_aggregation": (
        "stronger_non_aggregation", dict(theta_p=10, alpha=10, beta=1), {}
    ),
    "quantitative_aggregation": (
        "quantitative_aggregation", dict(m=3, gamma=10, delta=1), {}
    ),
    "ratio_aggregation": ("ratio_aggregation", dict(lam=F(1, 2), gamma=10, delta=1), {}),
    "minimal_aggregation": ("minimal_aggregation", dict(gamma=F(5, 3), delta=F(2, 7)), {}),
}


def stream_documents(name: str) -> list[dict]:
    axiom, params, keywords = STREAMS[name]
    stream = generate_instances(axiom, params, seed=SEED, **keywords)
    return [instance_to_config(inst) for inst in itertools.islice(stream, COUNT)]


def _dump(docs) -> str:
    return yaml.safe_dump_all(docs, sort_keys=False)


# ---------------------------------------------------------------------------
# mutations


_DENOMINATORS = (1, 2, 3, 7)
_MAGNITUDES = ("epsilon", "theta_p", "theta_r", "alpha", "beta", "gamma", "delta", "lam")


def _level(rng: random.Random, old: Fraction | None = None) -> str:
    """A fresh level, or one a small step from ``old``, on a mixed grid."""
    den = rng.choice(_DENOMINATORS)
    if old is not None and rng.random() < 0.5:
        return format_level(old + F(rng.choice((-2, -1, 1, 2)), den))
    return format_level(F(rng.randint(-25 * den, 25 * den), den))


def _mutate_profile(rng, text: str) -> str:
    p = parse_profile_line(text)
    if rng.random() < 0.15:  # change the population size
        levels = list(p.levels())
        if len(levels) > 1 and rng.random() < 0.5:
            levels.pop(rng.randrange(len(levels)))
        else:
            levels.insert(rng.randrange(len(levels) + 1), F(_level(rng)))
        return ",".join(format_level(x) for x in levels)
    index = rng.randrange(len(p))
    return serialize_profile(p.with_value_at(index, _level(rng, p.value_at(index))))


def _mutate(rng: random.Random, doc: dict) -> dict:
    doc = dict(doc)
    n = len(parse_profile_line(doc["u"]))
    field = rng.choice([k for k in doc if k != "axiom"])
    if field in ("u", "v"):
        doc[field] = _mutate_profile(rng, doc[field])
    elif field in ("i", "j"):
        doc[field] = rng.choice((doc[field] - 1, doc[field] + 1, rng.randint(-1, n)))
    elif field == "k":
        doc[field] = rng.randint(0, 3)
    elif field == "m":
        doc[field] = rng.randint(1, n + 1)
    elif field == "M":
        members = set(int(x) for x in _indices(doc["M"]))
        members ^= {rng.randint(0, n)}
        if not members:
            members = {rng.randint(0, n)}
        doc["M"] = ",".join(str(x) for x in sorted(members))
    elif field == "pi":
        pi = list(doc["pi"])
        pi[rng.randrange(len(pi))] = rng.randrange(len(pi))
        doc["pi"] = pi
    elif field in _MAGNITUDES:
        doc[field] = _level(rng, F(doc[field]))
    return doc


def _indices(text: str):
    for part in str(text).split(","):
        lo, _, hi = part.partition("-")
        yield from range(int(lo), int(hi or lo) + 1)


def clause_cases() -> list[dict]:
    """Seeded one- and two-field mutations of every pinned stream's instances."""
    cases = []
    for name in STREAMS:
        rng = random.Random(f"{SEED}:{name}")
        for doc in stream_documents(name):
            for _ in range(2):
                mutated = _mutate(rng, doc)
                if rng.random() < 0.3:
                    mutated = _mutate(rng, mutated)
                try:
                    report = validate_preconditions(instance_from_config(mutated))
                except WelfareaxError:
                    continue
                cases.append({"instance": mutated, "failures": list(report.failures)})
    return cases


def write_fixtures() -> None:
    INSTANCES.mkdir(parents=True, exist_ok=True)
    for name in STREAMS:
        (INSTANCES / f"{name}.yaml").write_text(_dump(stream_documents(name)))
    CLAUSES.write_text(
        yaml.safe_dump(clause_cases(), sort_keys=False, width=200, default_flow_style=None)
    )


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("name", list(STREAMS))
def test_instance_stream_is_pinned(name):
    assert _dump(stream_documents(name)) == (INSTANCES / f"{name}.yaml").read_text()


@pytest.mark.parametrize("name", list(STREAMS))
def test_generated_instances_match_their_decoded_documents(name):
    # generation builds instances without the codec's decode, so each field
    # must already hold what decoding gives: a Fraction level (never an int),
    # an int index or count (never a bool), a Profile, an IndexSet, a tuple (the type
    # of pi, whose field has no passthrough type, so that decoding normalizes a tuple)
    axiom, params, keywords = STREAMS[name]
    stream = generate_instances(axiom, params, seed=SEED, **keywords)
    for inst in itertools.islice(stream, 500):
        decoded = instance_from_config(instance_to_config(inst))
        assert decoded == inst and hash(decoded) == hash(inst), inst
        assert vars(inst).keys() == inst.__dataclass_fields__.keys(), inst
        for field, (kind, _, _) in inst.config_fields.items():
            value = getattr(inst, field)
            assert type(value) is (kind or tuple) is type(getattr(decoded, field)), (field, value)
            if field in ("i", "j", "k", "m"):
                assert type(value) is int, (field, value)
            elif field in _MAGNITUDES:
                assert type(value) is Fraction, (field, value)
        assert all(type(x) is int for x in vars(inst).get("pi", ())), inst


def test_streams_cover_every_axiom():
    assert {axiom for axiom, _, _ in STREAMS.values()} == set(AXIOM_TAGS)


def _pinned_clauses() -> list[dict]:
    return yaml.safe_load(CLAUSES.read_text())


def test_clause_texts_are_pinned():
    cases = _pinned_clauses()
    got = [
        list(validate_preconditions(instance_from_config(case["instance"])).failures)
        for case in cases
    ]
    assert got == [case["failures"] for case in cases]


def test_clause_fixture_covers_every_axiom_and_fractional_levels():
    cases = _pinned_clauses()
    assert {case["instance"]["axiom"] for case in cases} == set(AXIOM_TAGS)
    texts = [text for case in cases for text in case["failures"]]
    changes = [t for t in texts if t.startswith("unaffected agents change: ")]
    assert any("/" in t.split("(")[0] for t in changes)
    assert sum(not case["failures"] for case in cases) > 0  # some mutations stay valid
    assert len(set(texts)) > 40


def _donor_family_instances(cls):
    """200 instances of each stream of ``cls``, then its instances in the clause fixture
    whose sizes and recipient index let the walk reach the rules."""
    for axiom, params, keywords in STREAMS.values():
        if AXIOM_TAGS[axiom] is cls:
            yield from itertools.islice(generate_instances(axiom, params, seed=SEED, **keywords), 200)
    for case in _pinned_clauses():
        if case["instance"]["axiom"] == cls.tag:
            inst = instance_from_config(case["instance"])
            if len(inst.u) == len(inst.v) and 0 <= inst.i < len(inst.u):
                yield inst


@pytest.mark.parametrize(
    "cls", [cls for cls in AXIOM_TAGS.values() if issubclass(cls, _Donors)], ids=lambda c: c.tag
)
def test_each_clause_rule_gives_one_bool_per_text(cls):
    # the walk pairs a rule's bools with their texts, and a pairing drops unseen a
    # clause whose text is missing
    checked = 0
    for inst in _donor_family_instances(cls):
        s = _Scale(inst)
        donor = inst.donor_rule(s)
        for _, _, uval, vval in s.runs():
            for failed, texts in ((donor(uval, vval), cls.donor_texts),
                                  (inst.recipient_rule(s, uval, vval), cls.recipient_texts)):
                assert len(failed) == len(texts) and {type(x) for x in failed} == {bool}
        checked += 1
    assert checked > 200, checked


if __name__ == "__main__":
    write_fixtures()
