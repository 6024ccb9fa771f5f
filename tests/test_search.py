import hashlib
import itertools
import random
from fractions import Fraction

import pytest
import yaml

from welfareax import (
    Anonymity,
    CheckStatus,
    Identity,
    Leximin,
    MidpointLambda,
    Profile,
    Rdu,
    Sqrt,
    SuffAvg,
    check_axiom,
    validate_preconditions,
)
from welfareax.axioms import generate_instances, instance_to_config
from welfareax.errors import InfeasibleParameters
from welfareax.search import SearchBudget, Witness, _violated, find_counterexample, shrink

from _oracles import search_reference
from test_pinned_streams import STREAMS

# strong discounting makes ratio-aggregation violations reachable at
# single-digit population sizes
RDU_STEEP = Rdu(Fraction(2), Identity())
RATIO_PARAMS = dict(lam="1/2", gamma=2, delta=1)
RATIO_BUDGET = SearchBudget(20_000, seed=1, populations=(6, 12))
# the profile edit of dropping a person, which shrinking applies to u and v
_without = Profile.without


def test_leximin_violates_quantitative_aggregation_quickly():
    witness = find_counterexample(
        Leximin(),
        "quantitative_aggregation",
        dict(m=3, gamma=2, delta=1),
        SearchBudget(2000, seed=0, populations=(4, 8)),
    )
    assert witness is not None
    assert witness.result.status is CheckStatus.VIOLATED


def test_rdu_ratio_aggregation_witness_found_and_rechecks():
    witness = find_counterexample(RDU_STEEP, "ratio_aggregation", RATIO_PARAMS, RATIO_BUDGET)
    assert witness is not None
    # soundness: exact revalidation and recheck reproduce the violation
    assert validate_preconditions(witness.instance).ok
    assert check_axiom(RDU_STEEP, witness.instance).status is CheckStatus.VIOLATED


def test_suffavg_minimal_non_aggregation_finds_nothing():
    spec = SuffAvg(
        10, MidpointLambda(Fraction(10), Fraction(1), Fraction(10), Fraction(1), Fraction(1, 2))
    )
    params = dict(theta_p=10, theta_r=12, alpha=10, beta=1)
    witness = find_counterexample(
        spec, "minimal_non_aggregation", params, SearchBudget(3000, seed=2)
    )
    assert witness is None


def test_determinism():
    a = find_counterexample(RDU_STEEP, "ratio_aggregation", RATIO_PARAMS, RATIO_BUDGET)
    b = find_counterexample(RDU_STEEP, "ratio_aggregation", RATIO_PARAMS, RATIO_BUDGET)
    assert a == b
    assert a is not None


def test_shrinking_contract():
    witness = find_counterexample(RDU_STEEP, "ratio_aggregation", RATIO_PARAMS, RATIO_BUDGET)
    assert witness is not None
    again = shrink(witness, RDU_STEEP)
    # idempotent at the fixpoint and never larger
    assert again.instance == witness.instance
    assert len(witness.instance.u) <= RATIO_BUDGET.populations[1]


def test_shrinking_an_unshrunk_witness_gives_the_search_witness():
    stream = generate_instances(
        "ratio_aggregation", RATIO_PARAMS, populations=RATIO_BUDGET.populations, seed=1
    )
    first = next(r for r in (check_axiom(RDU_STEEP, inst) for inst in stream) if r.violated)
    witness = find_counterexample(RDU_STEEP, "ratio_aggregation", RATIO_PARAMS, RATIO_BUDGET)
    assert witness.shrink_steps > 0
    assert shrink(Witness(first.instance, first, 0), RDU_STEEP) == witness


def test_shrunk_witness_is_small():
    # undiscounted RDU orders same-size profiles as the plain average does and
    # violates strong non-aggregation; shrinking should cut the witness down
    avg = Rdu(Fraction(1), Identity())
    witness = find_counterexample(
        avg,
        "strong_non_aggregation",
        dict(alpha=2, beta=1),
        SearchBudget(5000, seed=4, populations=(4, 10)),
    )
    assert witness is not None
    assert len(witness.instance.u) <= 4
    assert witness.shrink_steps > 0


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(0)
    with pytest.raises(ValueError):
        SearchBudget(10, populations=(5, 2))


def test_dropping_an_entry_matches_list_deletion():
    rng = random.Random(5)
    for _ in range(2000):
        size = rng.randint(2, 9)
        levels = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(size)]
        p = rng.randrange(len(levels))
        rest = levels[:p] + levels[p + 1:]
        assert _without(Profile.from_levels(levels), p) == Profile.from_levels(rest)


def test_dropping_an_entry_of_a_huge_profile():
    # 10^7 entries: past the materialization limit, which the stored counts never meet
    k = 4 * 10**6
    u = Profile.from_blocks([(1, k), (Fraction(1, 2), 1), (3, 6 * 10**6 - 1)])
    assert _without(u, k) == Profile.from_blocks([(1, k), (3, 6 * 10**6 - 1)])
    rest = Profile.from_blocks([(1, k - 1), (Fraction(1, 2), 1), (3, 6 * 10**6 - 1)])
    assert _without(u, 0) == rest


# sha256 of the instance documents of every shrink candidate, in order, of the
# first 60 instances at seed 7 of each pinned stream; recorded before the
# shrink edits moved onto the axiom types
CANDIDATE_DIGEST = "e786f7a6c6349a70841c6e633718c8718b682cd4ba6d6c43addfa5f9ef4b1f09"


def test_shrink_candidate_stream_is_pinned():
    digest, count = hashlib.sha256(), 0
    for axiom, params, keywords in STREAMS.values():
        stream = generate_instances(axiom, params, seed=7, **keywords)
        for inst in itertools.islice(stream, 60):
            for candidate in inst.shrinks():
                doc = instance_to_config(candidate)
                digest.update(yaml.safe_dump(doc, sort_keys=False).encode())
                count += 1
    assert (count, digest.hexdigest()) == (9459, CANDIDATE_DIGEST)


# The shapes of the search-shrink benchmark roster: minimal non-aggregation on
# undiscounted-enough RDU, below the criterion-5 bound alpha < beta / (rho - 1)
# (theta_p 10, theta_r = theta_p + beta + 1), and four configurations of other rules.
_FAILING_RHOS = (Fraction(11, 10), Fraction(6, 5), Fraction(5, 4), Fraction(4, 3), Fraction(3, 2))
_BETAS = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3), Fraction(7, 2))
_SHARES = (Fraction(1, 4), Fraction(3, 8), Fraction(1, 2))
_MIDPOINT = MidpointLambda(Fraction(10), Fraction(1), Fraction(10), Fraction(1), Fraction(1, 2))
_ROSTER = [
    (Rdu(rho, Identity()), "minimal_non_aggregation",
     dict(theta_p=10, theta_r=11 + beta, alpha=beta * (1 + (1 / (rho - 1) - 1) * f), beta=beta))
    for rho in _FAILING_RHOS for beta in _BETAS for f in _SHARES
] + [
    (Leximin(), "quantitative_aggregation", dict(m=3, gamma=2, delta=1)),
    (Leximin(), "ratio_aggregation", dict(lam=Fraction(1, 2), gamma=2, delta=1)),
    (Leximin(), "minimal_aggregation", dict(gamma=2, delta=1)),
    (SuffAvg(10, _MIDPOINT), "replication_invariance", {}),
]
_SEARCHES = [
    (spec, axiom, params, SearchBudget(100_000, seed=1000 * round_ + i, populations=(6, 16)))
    for round_ in range(3) for i, (spec, axiom, params) in enumerate(_ROSTER)
] + [
    # its conclusion raises on a drawn instance whose clauses hold
    (Rdu(Fraction(3, 2), Sqrt()), "strong_pareto", {}, SearchBudget(2000, seed=1)),
]


def _outcome(run):
    """A search's witness as comparable data, or the exception it raised."""
    try:
        found = run()
    except Exception as exc:
        return type(exc), str(exc)
    if found is None:
        return None
    inst, result, steps = found
    return (instance_to_config(inst), result.status, result.detail, result.flagged, steps,
            result.instance == inst)


def test_search_matches_the_validate_first_reference():
    assert len(_SEARCHES) >= 200
    raised = witnesses = 0
    for spec, axiom, params, budget in _SEARCHES:
        def found():
            w = find_counterexample(spec, axiom, params, budget)
            return w and (w.instance, w.result, w.shrink_steps)

        expected = _outcome(lambda: search_reference(spec, axiom, params, budget))
        assert _outcome(found) == expected, (spec, axiom, params, budget)
        raised += isinstance(expected[0], type)
        witnesses += isinstance(expected[0], dict)
    assert (witnesses, raised) == (len(_SEARCHES) - 1, 1)


def test_a_conclusion_that_raises_on_a_malformed_candidate_is_unmet():
    # pi is no permutation: the conclusion raises, and the clauses read it as unmet
    malformed = Anonymity(Profile.from_levels([1, 2]), (0, 0))
    with pytest.raises(InfeasibleParameters):
        malformed.conclusion(Leximin())
    assert check_axiom(Leximin(), malformed).status is CheckStatus.PRECONDITION_UNMET
    assert not _violated(Leximin(), malformed)
