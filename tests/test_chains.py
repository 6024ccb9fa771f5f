import itertools
import random
import re
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from welfareax import (
    Identity,
    InfeasibleParameters,
    Leximin,
    MidpointLambda,
    Profile,
    Rdu,
    Sqrt,
    SuffAvg,
    Verdict,
    leximin_compare,
)
from welfareax.axioms import (
    _MAGNITUDES,
    MinimalNonAggregation,
    PigouDalton,
    QuantitativeAggregation,
    RatioAggregation,
)
from welfareax.chains import (
    AxiomStep,
    ChainKind,
    DescentStep,
    LiftStep,
    Relation,
    parse_chain,
    serialize_chain,
    validate_chain,
)
from welfareax.propositions import (
    build_prop1_chain,
    build_prop2_chain,
    build_prop3_chain,
    build_prop4_chain,
    prop5_ratio_failure,
)

P = Profile.from_levels

PROP1_SETS = [
    dict(theta_p=10, theta_r=20, alpha=2, beta=1, gamma=2, delta=1, m=3),
    dict(theta_p=5, theta_r=9, alpha=3, beta=2, gamma=5, delta=2, m=4),
    dict(
        theta_p=100,
        theta_r=200,
        alpha=Fraction(7, 2),
        beta=Fraction(1, 2),
        gamma=3,
        delta=Fraction(1, 3),
        m=5,
    ),
]

PROP2_SETS = [
    dict(theta_p=10, theta_r=20, alpha=2, beta=1, gamma=2, delta=1, lam=Fraction(1, 2), n=4),
    dict(theta_p=5, theta_r=12, alpha=3, beta=2, gamma=4, delta=Fraction(3, 2), lam=Fraction(1, 3), n=5),
    dict(theta_p=8, theta_r=30, alpha=1, beta=Fraction(3, 4), gamma=2, delta=Fraction(1, 2), lam=Fraction(2, 3), n=7),
]

PROP3_SETS = [
    dict(theta_p=10, theta_r=20, alpha=3, beta=1, gamma=3, delta=2, lam=Fraction(1, 10), h=2, n=41),
    dict(theta_p=6, theta_r=15, alpha=2, beta=1, gamma=3, delta=1, lam=Fraction(1, 5), h=3, n=20),
    dict(theta_p=9, theta_r=18, alpha=5, beta=2, gamma=4, delta=3, lam=Fraction(1, 4), h=2, n=10),
]


class TestProp1:
    def test_reference_parameters_shape(self):
        chain = build_prop1_chain(**PROP1_SETS[0])
        assert len(chain.steps[0].from_profile) == 30  # h=3, l=3, m=3
        mna_steps = [s for s in chain.steps if isinstance(s.instance, MinimalNonAggregation)]
        qa_steps = [s for s in chain.steps if isinstance(s.instance, QuantitativeAggregation)]
        assert len(mna_steps) == 3
        assert len(qa_steps) == 9
        assert chain.kind is ChainKind.CONTRADICTION

    @pytest.mark.parametrize("params", PROP1_SETS)
    def test_validates_with_zero_failures(self, params):
        report = validate_chain(build_prop1_chain(**params))
        assert report.ok, (report.precondition_failures, report.linkage_failures)

    def test_terminal_profile_strictly_below_start(self):
        chain = build_prop1_chain(**PROP1_SETS[0])
        start, end = chain.terminal.u, chain.terminal.v
        assert all(
            a > b for (_, _, a, b) in __import__("welfareax").profiles.aligned_runs(start, end)
        )

    def test_deterministic(self):
        a = build_prop1_chain(**PROP1_SETS[1])
        b = build_prop1_chain(**PROP1_SETS[1])
        assert serialize_chain(a) == serialize_chain(b)

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(InfeasibleParameters):
            build_prop1_chain(20, 10, 2, 1, 2, 1, 3)  # theta_r < theta_p
        with pytest.raises(InfeasibleParameters):
            build_prop1_chain(10, 20, 1, 2, 2, 1, 3)  # alpha < beta
        with pytest.raises(InfeasibleParameters):
            build_prop1_chain(10, 20, 2, 1, 2, 1, 2)  # m too small


class TestProp2:
    @pytest.mark.parametrize("params", PROP2_SETS)
    def test_validates_with_zero_failures(self, params):
        report = validate_chain(build_prop2_chain(**params))
        assert report.ok, (report.precondition_failures, report.linkage_failures)

    def test_structure_lift_then_rounds(self):
        chain = build_prop2_chain(**PROP2_SETS[0])
        assert isinstance(chain.steps[0], LiftStep)
        assert isinstance(chain.steps[0].base, RatioAggregation)
        pd_steps = [
            s for s in chain.steps[1:] if isinstance(s, AxiomStep) and isinstance(s.instance, PigouDalton)
        ]
        assert pd_steps, "smoothing transfers expected"
        for step in pd_steps:
            assert step.from_profile.total() == step.to_profile.total()

    def test_minimal_counts_follow_inequalities(self):
        # alpha=2, beta=1, gamma=2, delta=1: l = 3 (l*beta > gamma),
        # k = 7 (l*alpha/k < delta)
        chain = build_prop2_chain(**PROP2_SETS[0])
        assert chain.steps[0].k == 7
        mna_rounds = [
            s for s in chain.steps[1:] if isinstance(s, AxiomStep) and isinstance(s.instance, MinimalNonAggregation)
        ]
        assert len(mna_rounds) == 3

    def test_default_population_picked(self):
        chain = build_prop2_chain(10, 20, 2, 1, 2, 1, Fraction(1, 2))
        assert validate_chain(chain).ok


class TestProp3:
    @pytest.mark.parametrize("params", PROP3_SETS)
    def test_validates_with_zero_failures(self, params):
        report = validate_chain(build_prop3_chain(**params))
        assert report.ok, (report.precondition_failures, report.linkage_failures)

    def test_hypothesis_guard(self):
        bad = dict(PROP3_SETS[0])
        bad.update(h=1, delta=1, alpha=3)  # h*delta <= alpha
        with pytest.raises(InfeasibleParameters):
            build_prop3_chain(**bad)
        crowded = dict(PROP3_SETS[0])
        crowded.update(n=10, lam=Fraction(1, 2), h=2)  # n <= h*ceil(lam n)
        with pytest.raises(InfeasibleParameters):
            build_prop3_chain(**crowded)

    def test_ratio_steps_use_exact_quota(self):
        from welfareax import ceil_ratio

        chain = build_prop3_chain(**PROP3_SETS[0])
        ratio_steps = [
            s for s in chain.steps if isinstance(s, AxiomStep) and isinstance(s.instance, RatioAggregation)
        ]
        assert ratio_steps
        for step in ratio_steps:
            assert len(step.instance.M) == ceil_ratio(step.instance.lam, len(step.instance.u))

    def test_descent_links_replications(self):
        chain = build_prop3_chain(**PROP3_SETS[0])
        descents = [s for s in chain.steps if isinstance(s, DescentStep)]
        assert len(descents) == 1


@pytest.mark.parametrize(
    "builder,params",
    [
        (build_prop2_chain, dict(PROP2_SETS[0], n=4.5)),
        (build_prop3_chain, dict(PROP3_SETS[0], n=41.5)),
    ],
    ids=["chain2", "chain3"],
)
def test_non_integer_population_refused_up_front(builder, params):
    # before, a Pigou-Dalton or ratio step refused it, naming j or i
    with pytest.raises(InfeasibleParameters, match="need integer population size n"):
        builder(**params)


# Each builder checks its magnitudes by the magnitude_clauses of the axiom
# types its chain instantiates: (builder, sound arguments, those types).
GUARDED = {
    "chain1": (build_prop1_chain, PROP1_SETS[0], (MinimalNonAggregation, QuantitativeAggregation)),
    "chain2": (build_prop2_chain, PROP2_SETS[0], (MinimalNonAggregation, RatioAggregation)),
    "chain3": (build_prop3_chain, PROP3_SETS[0], (MinimalNonAggregation, RatioAggregation)),
    "ratio-failure": (
        prop5_ratio_failure,
        dict(g=Identity(), rho=Fraction(101, 100), lam=Fraction(1, 2), gamma=2, delta=1, u1=10),
        (RatioAggregation,),
    ),
}
# one broken magnitude rule: the arguments that break it, and the text it had
# before the builders shared the axioms' clauses
BROKEN = {
    "thresholds": (dict(theta_r=5), "need theta_r > theta_p > 0"),
    "alpha-beta": (dict(beta=4), "need alpha > beta > 0"),
    "gamma-delta": (dict(delta=5), "need gamma > delta > 0"),
    "m": (dict(m=2), "need integer m > 2"),
    "m-not-an-integer": (dict(m=3.0), "need integer m > 2"),
    "lam": (dict(lam=1), "need lam strictly between 0 and 1"),
}


def _broken_cases():
    for chain, (_, sound, types) in GUARDED.items():
        rules = [rule for rule, (change, _) in BROKEN.items() if change.keys() <= sound.keys()]
        for rule in rules:
            yield pytest.param(chain, (rule,), id=f"{chain}-{rule}")
        for pair in itertools.combinations(rules, 2):
            if not BROKEN[pair[0]][0].keys() & BROKEN[pair[1]][0].keys():
                yield pytest.param(chain, pair, id=f"{chain}-{'+'.join(pair)}")


@pytest.mark.parametrize("chain,rules", list(_broken_cases()))
def test_magnitude_guards_are_the_axioms_clauses(chain, rules):
    builder, sound, types = GUARDED[chain]
    params = dict(sound)
    for rule in rules:
        params.update(BROKEN[rule][0])
    with pytest.raises(InfeasibleParameters) as exc:
        builder(**params)
    # the clauses read the magnitudes as the builder does: levels exact, m as given
    p = SimpleNamespace(
        **{k: x if k == "m" else Fraction(x) for k, x in params.items() if k in _MAGNITUDES}
    )
    clauses = [text for cls in types for text in cls.magnitude_clauses(p)]
    assert str(exc.value) == "; ".join(clauses)
    assert sorted(clauses) == sorted(BROKEN[rule][1] for rule in rules)


class TestProp4:
    def test_dominance_example(self):
        chain = build_prop4_chain(P([1, 2, 3]), P([1, 1, 5]))
        report = validate_chain(chain, Leximin())
        assert report.ok
        assert not report.denied_steps
        assert chain.kind is ChainKind.DOMINANCE
        assert report.claim_relation is Relation.STRICT

    def test_first_branch_pareto_certificate(self):
        # u_[1] exceeds v's maximum: no replication machinery needed
        chain = build_prop4_chain(P([9, 9]), P([1, 2]))
        assert len(chain.steps) == 3
        assert validate_chain(chain, Leximin()).ok

    def test_bottom_rank_branch(self):
        chain = build_prop4_chain(P([2, 2]), P([1, 9]))
        report = validate_chain(chain, Leximin())
        assert report.ok
        assert not report.denied_steps

    def test_rejects_non_dominating_pairs(self):
        with pytest.raises(InfeasibleParameters):
            build_prop4_chain(P([1, 2, 3]), P([3, 2, 1]))  # equivalent
        with pytest.raises(InfeasibleParameters):
            build_prop4_chain(P([0, 9]), P([1, 1]))  # strictly worse

    def test_random_pairs_validate_and_are_affirmed(self):
        rng = random.Random(12)
        done = 0
        while done < 30:
            n = rng.randint(2, 6)
            u = P([Fraction(rng.randint(-8, 8), rng.choice([1, 2])) for _ in range(n)])
            v = P([Fraction(rng.randint(-8, 8), rng.choice([1, 2])) for _ in range(n)])
            verdict = leximin_compare(u, v).verdict
            if verdict is Verdict.STRICTLY_WORSE:
                u, v = v, u
            elif verdict is not Verdict.STRICTLY_BETTER:
                continue
            chain = build_prop4_chain(u, v)
            report = validate_chain(chain, Leximin())
            assert report.ok, (u, v, report)
            assert not report.denied_steps, (u, v)
            done += 1


class TestLocator:
    def test_every_ordering_denies_some_prop1_step(self):
        chain = build_prop1_chain(**PROP1_SETS[0])
        specs = [
            Leximin(),
            Rdu(Fraction(101, 100), Sqrt()),
            SuffAvg(10, MidpointLambda(Fraction(2), Fraction(1), Fraction(2), Fraction(1), Fraction(1, 2))),
        ]
        for spec in specs:
            report = validate_chain(chain, spec)
            assert report.ok
            assert report.denied_steps, type(spec).__name__

    def test_leximin_denies_a_quantitative_step(self):
        chain = build_prop1_chain(**PROP1_SETS[0])
        report = validate_chain(chain, Leximin())
        first = report.first_denied
        assert isinstance(chain.steps[first.index].instance, QuantitativeAggregation)


class TestSerialization:
    @pytest.mark.parametrize(
        "builder,params",
        [(build_prop1_chain, PROP1_SETS[0]), (build_prop2_chain, PROP2_SETS[0]), (build_prop3_chain, PROP3_SETS[0])],
    )
    def test_roundtrip(self, builder, params):
        chain = builder(**params)
        text = serialize_chain(chain)
        assert parse_chain(text) == chain

    def test_prop4_roundtrip(self):
        chain = build_prop4_chain(P([1, 2, 3]), P([1, 1, 5]))
        assert parse_chain(serialize_chain(chain)) == chain

    def test_malformed_chains_reported(self):
        chain = build_prop1_chain(**PROP1_SETS[0])
        broken = serialize_chain(chain).replace("chain kind=contradiction\n", "")
        from welfareax import CertificateError

        with pytest.raises(CertificateError):
            parse_chain(broken)

    def test_tampered_profiles_fail_validation(self):
        chain = build_prop1_chain(**PROP1_SETS[0])
        text = serialize_chain(chain)
        lines = text.splitlines()
        assert "from=3*8," in lines[2]
        lines[2] = lines[2].replace("from=3*8,", "from=3*9,", 1)
        tampered = parse_chain("\n".join(lines) + "\n")
        report = validate_chain(tampered)
        assert not report.ok

    @pytest.mark.parametrize(
        "fixture,old,new,index,failure",
        [
            ("chain2_0", "i=0 j=4", "i=99 j=4", 2, "need two distinct in-range indices"),
            ("chain4_1", "pi=0,1", "pi=0,0", 0, "pi is not a permutation of 0..n-1"),
            ("chain4_1", "from=1,2 to=2*9", "from=1,2 to=3*9", 1, "population sizes differ"),
            ("chain2_0", "lift k=7", "lift k=0", 0, "k must be a positive integer"),
            ("chain3_0", "descent k=4", "descent k=0", 4, "k must be a positive integer"),
        ],
        ids=["pigou-dalton-index", "anonymity-pi", "strong-pareto-sizes", "lift-k", "descent-k"],
    )
    def test_tampered_instances_are_step_failures(self, fixture, old, new, index, failure):
        text = (CERTIFICATES / f"{fixture}.cert").read_text()
        assert old in text
        chain = parse_chain(text.replace(old, new, 1))
        for spec in (None, Leximin()):
            report = validate_chain(chain, spec)
            assert not report.ok
            assert report.precondition_failures == ((index, failure),)

    @pytest.mark.parametrize(
        "line",
        [
            "descent k=x from=1 to=2",
            "chain kind=bogus",
            "step axiom=strong_pareto from=1,,2 to=2,2",
        ],
    )
    def test_malformed_lines_are_named(self, line):
        from welfareax import CertificateError

        text = f"# welfareax certificate v1\nchain kind=dominance\n{line}\n"
        with pytest.raises(CertificateError, match=f"in line {line!r}"):
            parse_chain(text)

    def test_profile_tokens_decode_once_per_certificate(self):
        text = (CERTIFICATES / "chain1_0.cert").read_text()
        chain, again = parse_chain(text), parse_chain(text)
        assert again == chain
        # step k's to-profile is step k+1's from-profile: one decoded profile serves both
        for step, after in zip(chain.steps, chain.steps[1:]):
            assert step.to_profile is after.from_profile
        # the memo lives in one call: the two parses share no profile object
        decoded = [{id(p) for s in c.steps for p in (s.from_profile, s.to_profile)}
                   for c in (chain, again)]
        assert not decoded[0] & decoded[1]

    def test_a_bad_level_in_a_repeated_token_names_its_line(self):
        from welfareax import CertificateError

        lines = (CERTIFICATES / "chain1_0.cert").read_text().splitlines()
        to = next(token for token in lines[2].split() if token.startswith("to="))
        assert "from" + to[2:] in lines[3].split()  # the first step's to is the second's from
        for bad in ("x", "1/0", "0x10"):
            # line 2 decodes the token; line 3 carries it with a bad level
            broken = list(lines)
            broken[3] = broken[3].replace(" from=", f" from={bad},", 1)
            with pytest.raises(CertificateError, match=re.escape(f"in line {broken[3]!r}")):
                parse_chain("\n".join(broken) + "\n")
            # the bad token in both lines: the first is named
            broken[2] = broken[2].replace(" to=", f" to={bad},", 1)
            with pytest.raises(CertificateError, match=re.escape(f"in line {broken[2]!r}")):
                parse_chain("\n".join(broken) + "\n")

    def test_an_exponent_beyond_the_digit_limit_in_a_token_is_refused_at_once(self):
        from welfareax import CertificateError

        lines = (CERTIFICATES / "chain1_0.cert").read_text().splitlines()
        lines[2] = lines[2].replace(" to=", " to=1e10000000,", 1)
        start = time.perf_counter()
        with pytest.raises(CertificateError, match=re.escape(f"in line {lines[2]!r}")):
            parse_chain("\n".join(lines) + "\n")
        assert time.perf_counter() - start < 0.1

    def test_replication_invariance_cannot_justify_a_step(self):
        # a same-size pair meets the axiom's clauses, but its conclusion ranks
        # no pair of profiles: without the refusal this "proves" 0,1 > 5,5
        text = (
            "# welfareax certificate v1\n"
            "chain kind=dominance\n"
            "step axiom=replication_invariance from=5,5 to=0,0 k=1\n"
            "step axiom=strong_pareto from=0,0 to=0,1\n"
        )
        report = validate_chain(parse_chain(text))
        assert not report.ok
        assert report.precondition_failures == (
            (0, "replication_invariance justifies only lift and descent steps"),
        )


# Certificates written by the v1 serializer for the parameter sets above.
# They pin the format byte for byte: regenerate them only together with a
# deliberate change of the certificate format version.
CERTIFICATES = Path(__file__).parent / "data" / "certificates"
PROP4_PAIRS = [([1, 2, 3], [1, 1, 5]), ([9, 9], [1, 2]), ([2, 2], [1, 9])]
PINNED = (
    [(f"chain1_{k}", build_prop1_chain, params) for k, params in enumerate(PROP1_SETS)]
    + [(f"chain2_{k}", build_prop2_chain, params) for k, params in enumerate(PROP2_SETS)]
    + [(f"chain3_{k}", build_prop3_chain, params) for k, params in enumerate(PROP3_SETS)]
    + [
        (f"chain4_{k}", build_prop4_chain, dict(u=P(u), v=P(v)))
        for k, (u, v) in enumerate(PROP4_PAIRS)
    ]
)


class TestPinnedCertificates:
    @pytest.mark.parametrize("name,builder,params", PINNED, ids=[name for name, *_ in PINNED])
    def test_v1_bytes(self, name, builder, params):
        pinned = (CERTIFICATES / f"{name}.cert").read_bytes()
        assert serialize_chain(builder(**params)).encode() == pinned
        assert serialize_chain(parse_chain(pinned.decode())).encode() == pinned

    def test_fixtures_cover_every_field_kind(self):
        text = "".join(path.read_text() for path in sorted(CERTIFICATES.glob("*.cert")))
        tokens = (" m=", " lam=", " epsilon=", " pi=", " M=", " theta_r=", "\nlift ", "\ndescent ")
        for token in tokens:
            assert token in text, token
