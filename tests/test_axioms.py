import itertools
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

from welfareax import (
    Anonymity,
    CheckStatus,
    ConfigError,
    ConstantLambda,
    Identity,
    IndexSet,
    InfeasibleParameters,
    Leximin,
    MidpointLambda,
    MinimalAggregation,
    MinimalNonAggregation,
    PigouDalton,
    Profile,
    QuantitativeAggregation,
    RatioAggregation,
    Rdu,
    ReplicationInvariance,
    StrongNonAggThreshold,
    StrongNonAggregation,
    StrongPareto,
    Sqrt,
    StrongerNonAggregation,
    SuffAvg,
    WeakPareto,
    WelfareaxError,
    check_axiom,
    generate_instances,
    instance_from_config,
    instance_to_config,
    run_suite,
    validate_preconditions,
)

from welfareax import axioms
from welfareax.axioms import _GenContext

P = Profile.from_levels
CLAUSES = Path(__file__).parent / "data" / "clauses.yaml"


def mna(u, v, i, M, **kw):
    params = dict(theta_p=10, theta_r=20, alpha=5, beta=1)
    params.update(kw)
    return MinimalNonAggregation(P(u), P(v), i, IndexSet.from_indices(M), **params)


class TestValidatePreconditions:
    def test_minimal_non_aggregation_valid(self):
        inst = mna([0, 20, 20], [5, 19, 19], 0, [1, 2])
        report = validate_preconditions(inst)
        assert report.ok, report.detail

    def test_minimal_non_aggregation_gain_too_small(self):
        inst = mna([0, 20, 20], [4, 19, 19], 0, [1, 2])
        report = validate_preconditions(inst)
        assert not report.ok
        assert any("v_i >= u_i + alpha" in f for f in report.failures)

    def test_minimal_non_aggregation_recipient_above_threshold(self):
        inst = mna([7, 20, 20], [12, 19, 19], 0, [1, 2])
        report = validate_preconditions(inst)
        assert any("theta_p >= v_i" in f for f in report.failures)

    def test_minimal_non_aggregation_recipient_not_worst_off(self):
        inst = mna([0, -1, 20], [5, -1, 19], 0, [2])
        report = validate_preconditions(inst)
        assert any("worst-off" in f for f in report.failures)

    def test_minimal_non_aggregation_donor_rank_clauses(self):
        # donor not best-off in u
        inst = mna([0, 20, 25], [5, 19, 25], 0, [1])
        assert any(
            "best-off in u" in f for f in validate_preconditions(inst).failures
        )
        # donor falls below an unaffected agent in v
        inst = mna([0, 20, 18], [5, 17, 18], 0, [1], beta=3)
        assert any(
            "best-off in v" in f for f in validate_preconditions(inst).failures
        )

    def test_minimal_non_aggregation_loss_cap(self):
        inst = mna([0, 20, 20], [5, 18, 18], 0, [1, 2])
        assert any(
            "v_j >= u_j - beta" in f for f in validate_preconditions(inst).failures
        )

    def test_unaffected_agents_must_not_move(self):
        inst = mna([0, 3, 20], [5, 4, 19], 0, [2])
        assert any("unaffected" in f for f in validate_preconditions(inst).failures)

    def test_magnitude_ordering_enforced(self):
        inst = mna([0, 20], [5, 19], 0, [1], alpha=1, beta=2)
        assert any("alpha > beta" in f for f in validate_preconditions(inst).failures)

    def test_pigou_dalton_example(self):
        inst = PigouDalton(P([0, 4]), 1, 0, 1)
        assert validate_preconditions(inst).ok
        assert inst.v == P([1, 3])

    def test_pigou_dalton_rejects_rank_reversal(self):
        inst = PigouDalton(P([0, 4]), 1, 0, 3)
        assert not validate_preconditions(inst).ok

    def test_strong_pareto_weak_and_strict(self):
        assert validate_preconditions(StrongPareto(P([2, 2]), P([1, 2]))).ok
        assert validate_preconditions(StrongPareto(P([2, 2]), P([2, 2]))).ok
        assert not validate_preconditions(StrongPareto(P([2, 1]), P([1, 2]))).ok

    def test_weak_pareto_needs_strict_everywhere(self):
        assert validate_preconditions(WeakPareto(P([2, 3]), P([1, 2]))).ok
        assert not validate_preconditions(WeakPareto(P([2, 2]), P([1, 2]))).ok

    def test_ratio_aggregation_boundary_cardinality(self):
        inst = RatioAggregation(
            P([5, 0, 0, 0]), P([4, 2, 2, 0]), 0, IndexSet.from_indices([1, 2]),
            Fraction(1, 2), 2, 1,
        )
        assert validate_preconditions(inst).ok
        small = RatioAggregation(
            P([5, 0, 0, 0]), P([4, 2, 0, 0]), 0, IndexSet.from_indices([1]),
            Fraction(1, 2), 2, 1,
        )
        assert not validate_preconditions(small).ok

    def test_quantitative_aggregation_population_guard(self):
        inst = QuantitativeAggregation(
            P([5, 0, 0, 0]), P([4, 2, 2, 2]), 0, IndexSet.from_indices([1, 2, 3]),
            3, 2, 1,
        )
        assert validate_preconditions(inst).ok
        too_small = QuantitativeAggregation(
            P([5, 0, 0]), P([4, 2, 2]), 0, IndexSet.from_indices([1, 2]), 3, 2, 1
        )
        assert not validate_preconditions(too_small).ok

    def test_strong_non_aggregation_exact_magnitudes(self):
        good = StrongNonAggregation(
            P([0, 9, 9]), P([2, 8, 8]), 0, IndexSet.from_indices([1, 2]), 2, 1
        )
        assert validate_preconditions(good).ok
        drifted = StrongNonAggregation(
            P([0, 9, 9]), P([2, 8, 7]), 0, IndexSet.from_indices([1, 2]), 2, 1
        )
        assert not validate_preconditions(drifted).ok

    def test_stronger_non_aggregation_floor_clause(self):
        good = StrongerNonAggregation(
            P([3, 12, 0]), P([8, 11, 0]), 0, IndexSet.from_indices([1]), 10, 5, 1
        )
        assert validate_preconditions(good).ok
        # donor would dip below theta_p
        bad = StrongerNonAggregation(
            P([3, 10, 0]), P([8, 9, 0]), 0, IndexSet.from_indices([1]), 10, 5, 1
        )
        assert any(
            "u_j - beta >= theta_p" in f for f in validate_preconditions(bad).failures
        )

    def test_anonymity_and_replication(self):
        assert validate_preconditions(Anonymity(P([1, 2, 3]), (2, 0, 1))).ok
        assert not validate_preconditions(Anonymity(P([1, 2, 3]), (0, 0, 1))).ok
        assert validate_preconditions(ReplicationInvariance(P([1]), P([2]), 3)).ok
        assert not validate_preconditions(ReplicationInvariance(P([1]), P([2]), 0)).ok


class TestCheckAxiom:
    def test_leximin_satisfies_pigou_dalton(self):
        result = check_axiom(Leximin(), PigouDalton(P([1, 5]), 1, 0, 1))
        assert result.status is CheckStatus.SATISFIED

    def test_leximin_violates_quantitative_aggregation(self):
        m = 3
        u = P([0] + [5] * m)
        v = P([-1] + [7] * m)
        inst = QuantitativeAggregation(
            u, v, 0, IndexSet.from_indices(range(1, m + 1)), m, 2, 1
        )
        result = check_axiom(Leximin(), inst)
        assert result.status is CheckStatus.VIOLATED
        assert "v >= u" in result.detail

    def test_precondition_unmet_never_violated(self):
        inst = mna([0, 20], [4, 19], 0, [1])  # gain below alpha
        result = check_axiom(Leximin(), inst)
        assert result.status is CheckStatus.PRECONDITION_UNMET

    def test_anonymity_requires_equivalence(self):
        spec = SuffAvg(10, ConstantLambda(Fraction(1, 3)))
        result = check_axiom(spec, Anonymity(P([1, 2, 3]), (1, 2, 0)))
        assert result.status is CheckStatus.SATISFIED

    def test_anonymity_check_permutes_once(self, monkeypatch):
        from welfareax import axioms

        calls = []
        permute = axioms.permute

        def counting(u, pi):
            calls.append(pi)
            return permute(u, pi)

        monkeypatch.setattr(axioms, "permute", counting)
        assert check_axiom(Leximin(), Anonymity(P([1, 2, 3]), (1, 2, 0))).status is CheckStatus.SATISFIED
        assert len(calls) == 1
        # the clause is checked without building the permuted profile
        result = check_axiom(Leximin(), Anonymity(P([1, 2, 3]), (0, 0, 1)))
        assert result.status is CheckStatus.PRECONDITION_UNMET
        assert result.detail == "pi is not a permutation of 0..n-1"
        assert len(calls) == 1

    def test_derived_v_is_built_once(self):
        anonymity = Anonymity(P([1, 2, 3]), (1, 2, 0))
        transfer = PigouDalton(P([5, 1, 2]), 0, 1, Fraction(1))
        for inst in (anonymity, transfer):
            assert inst.v is inst.v
            # v is no field: equality, hashing and the document leave it out
            again = type(inst)(*(getattr(inst, name) for name in inst.config_fields))
            assert again == inst and hash(again) == hash(inst)
            assert "v" not in instance_to_config(inst)
        assert anonymity.v == P([3, 1, 2]) and transfer.v == P([4, 2, 2])

    def test_chain4_replay_then_validation_permutes_once_per_anonymity_step(
        self, monkeypatch, tmp_path
    ):
        from welfareax import axioms
        from welfareax.cli import main

        calls = []
        permute = axioms.permute

        def counting(u, pi):
            calls.append(pi)
            return permute(u, pi)

        monkeypatch.setattr(axioms, "permute", counting)
        pair, cert = tmp_path / "pair.txt", tmp_path / "chain4.cert"
        pair.write_text("1,2,3,7\n1,1,5,6\n")
        assert main(["replay", "--id", "4", "--profiles", str(pair), "--out", str(cert)]) == 0
        steps = cert.read_text().count("axiom=anonymity")
        assert steps > 0 and len(calls) == steps

    def test_replication_invariance_of_leximin(self):
        inst = ReplicationInvariance(P([1, 4]), P([2, 2]), 3)
        assert check_axiom(Leximin(), inst).status is CheckStatus.SATISFIED

    def test_rdu_violates_replication_invariance(self):
        # ranking flips under replication for a crafted pair
        spec = Rdu(Fraction(2), Identity())
        u, v = P([0, 10]), P([4, 1])
        found = False
        for k in (2, 3, 4, 5):
            inst = ReplicationInvariance(u, v, k)
            if check_axiom(spec, inst).status is CheckStatus.VIOLATED:
                found = True
                break
        assert found

    def test_suffavg_satisfies_minimal_non_aggregation_instance(self):
        spec = SuffAvg(10, MidpointLambda(*(Fraction(x) for x in (5, 1, 5, 1)), Fraction(1, 2)))
        inst = mna([0, 20, 20], [5, 19, 19], 0, [1, 2], alpha=5, beta=1)
        assert check_axiom(spec, inst).status is CheckStatus.SATISFIED


class TestGenerators:
    @pytest.mark.parametrize(
        "axiom,params",
        [
            ("anonymity", {}),
            ("strong_pareto", {}),
            ("weak_pareto", {}),
            ("pigou_dalton", {}),
            ("replication_invariance", {}),
            ("minimal_non_aggregation", dict(theta_p=10, theta_r=12, alpha=4, beta=1)),
            ("strong_non_aggregation", dict(alpha=2, beta=1)),
            (
                "strong_non_aggregation_threshold",
                dict(theta_p=10, theta_r=15, alpha=4, beta=1),
            ),
            ("stronger_non_aggregation", dict(theta_p=10, alpha=4, beta=1)),
            ("quantitative_aggregation", dict(m=3, gamma=2, delta=1)),
            ("ratio_aggregation", dict(lam="1/2", gamma=2, delta=1)),
            ("minimal_aggregation", dict(gamma=2, delta=1)),
        ],
    )
    def test_streams_validate(self, axiom, params):
        stream = generate_instances(axiom, params, seed=7)
        for inst in itertools.islice(stream, 300):
            report = validate_preconditions(inst)
            assert report.ok, (axiom, report.detail)

    def test_streams_are_deterministic(self):
        params = dict(theta_p=10, theta_r=12, alpha=4, beta=1)
        a = list(itertools.islice(generate_instances("minimal_non_aggregation", params, seed=3), 50))
        b = list(itertools.islice(generate_instances("minimal_non_aggregation", params, seed=3), 50))
        assert a == b
        c = list(itertools.islice(generate_instances("minimal_non_aggregation", params, seed=4), 50))
        assert a != c

    def test_boundary_coverage(self):
        params = dict(theta_p=10, theta_r=12, alpha=4, beta=1)
        hits = 0
        for inst in itertools.islice(
            generate_instances("minimal_non_aggregation", params, seed=5), 1000
        ):
            if inst.v.value_at(inst.i) == inst.theta_p:
                hits += 1
        assert hits > 50

    def test_ratio_boundary_cardinality_emitted(self):
        params = dict(lam="1/2", gamma=2, delta=1)
        from welfareax import ceil_ratio

        hits = 0
        for inst in itertools.islice(
            generate_instances("ratio_aggregation", params, seed=5), 500
        ):
            if len(inst.M) == ceil_ratio(inst.lam, len(inst.u)):
                hits += 1
        assert hits > 50

    def test_infeasible_params_rejected(self):
        with pytest.raises(InfeasibleParameters):
            next(
                generate_instances(
                    "minimal_non_aggregation",
                    dict(theta_p=12, theta_r=10, alpha=4, beta=1),
                )
            )
        with pytest.raises(InfeasibleParameters):
            next(
                generate_instances(
                    "quantitative_aggregation",
                    dict(m=3, gamma=2, delta=1),
                    populations=(2, 3),
                )
            )


    def test_bad_arguments_rejected_at_the_call(self):
        # generate_instances checks everything before it returns the stream
        for call in (
            lambda: generate_instances("bogus", {}),
            lambda: generate_instances("anonymity", {}, populations=(5, 2)),
            lambda: generate_instances("replication_invariance", {"k_max": 0}),
            lambda: generate_instances("pigou_dalton", {"epsilon_max": -1}),
        ):
            with pytest.raises(WelfareaxError):
                call()
        with pytest.raises(ConfigError, match="missing axiom parameter 'beta'"):
            generate_instances("strong_non_aggregation", {"alpha": 2})

    def test_options_bound_the_draws(self):
        stream = generate_instances("replication_invariance", {"k_max": 2}, seed=1)
        assert {inst.k for inst in itertools.islice(stream, 200)} == {1, 2}
        stream = generate_instances("pigou_dalton", {"epsilon_max": "1/2"}, seed=1)
        assert {inst.epsilon for inst in itertools.islice(stream, 50)} == {Fraction(1, 2)}


    @staticmethod
    def _context(seed):
        empty = SimpleNamespace()
        return _GenContext(random.Random(seed), empty, empty, 2, -40, 40, 2, 10)

    def test_empty_draw_range_is_refused(self):
        ctx = self._context(0)
        with pytest.raises(InfeasibleParameters, match=r"empty draw range \[5/2, 3/2\]"):
            ctx.draw(5, 3)

    def test_int_draws_are_randints(self):
        # the one int-draw helper keeps every stream: it draws what Random.randint draws
        ranges, ctx, reference = random.Random(11), self._context(5), random.Random(5)
        for _ in range(10_000):
            wide = ranges.random() < 0.1
            lo = ranges.randint(-(2**70), 2**70) if wide else ranges.randint(-50, 50)
            hi = lo + ranges.choice([0, 1, 2, ranges.randint(0, 100), ranges.randint(0, 2**80)])
            assert ctx.between(lo, hi) == reference.randint(lo, hi), (lo, hi)


class TestRunSuiteCounts:
    """run_suite's tallies, on a stream that puts known instances in the generator's place."""

    @staticmethod
    def _run(monkeypatch, spec, instances):
        monkeypatch.setattr(axioms, "generate_instances", lambda *args, **kw: iter(instances))
        return run_suite(spec, instances[0].tag, {}, len(instances))

    def test_unmet_counts_an_invalid_instance(self, monkeypatch):
        cases = yaml.safe_load(CLAUSES.read_text())
        anonymity = [c for c in cases if c["instance"]["axiom"] == "anonymity"]
        invalid = next(c["instance"] for c in anonymity if c["failures"])
        valid = next(c["instance"] for c in anonymity if not c["failures"])
        instances = [instance_from_config(doc) for doc in (valid, invalid, valid)]
        result = self._run(monkeypatch, Leximin(), instances)
        assert (result.checked, result.satisfied, result.unmet, result.violated) == (3, 2, 1, 0)
        assert not result.clean

    def test_flagged_counts_a_numerical_tie(self, monkeypatch):
        # 1, 2 + 10^-15, 3 - 10^-15 against 1, 2, 3: within the float bound under sqrt
        near = P([1, Fraction(2 * 10**15 + 1, 10**15), Fraction(3 * 10**15 - 1, 10**15)])
        tie = ReplicationInvariance(P([1, 2, 3]), near, 2)
        plain = ReplicationInvariance(P([1, 2, 3]), P([1, 2, 4]), 2)
        result = self._run(monkeypatch, Rdu(Fraction(101, 100), Sqrt()), [tie, plain, tie])
        assert (result.checked, result.satisfied, result.flagged) == (3, 3, 2)
        assert result.clean


class TestInvariantsFromSuites:
    def test_average_utilitarian_satisfies_quantitative_aggregation(self):
        # undiscounted RDU orders same-size profiles by their average, which
        # moves by at least (m*gamma - delta)/n > 0
        avg = Rdu(Fraction(1), Identity())
        result = run_suite(
            avg, "quantitative_aggregation", dict(m=3, gamma=2, delta=1), 2000, seed=2
        )
        assert result.clean

    def test_leximin_satisfies_strong_non_aggregation_and_replication(self):
        for axiom, params in (
            ("strong_non_aggregation", dict(alpha=2, beta=1)),
            ("replication_invariance", {}),
        ):
            result = run_suite(Leximin(), axiom, params, 2000, seed=9)
            assert result.clean, (axiom, result)

    def test_rdu_violates_ratio_aggregation_on_constructed_witness(self):
        from welfareax.propositions import prop5_ratio_failure

        report = prop5_ratio_failure(Identity(), Fraction(11, 10), Fraction(1, 2), 2, 1, 10)
        spec = Rdu(Fraction(11, 10), Identity())
        assert check_axiom(spec, report.witness).status is CheckStatus.VIOLATED
        assert validate_preconditions(report.witness).ok


class TestInstanceConfig:
    def test_roundtrip_all_variants(self):
        instances = [
            Anonymity(P([1, 2, 3]), (2, 0, 1)),
            StrongPareto(P([2, 2]), P([1, 2])),
            WeakPareto(P([2, 3]), P([1, 2])),
            PigouDalton(P([0, 4]), 1, 0, Fraction(1, 2)),
            ReplicationInvariance(P([1, 4]), P([2, 2]), 3),
            mna([0, 20, 20], [5, 19, 19], 0, [1, 2]),
            StrongNonAggregation(P([0, 9]), P([2, 8]), 0, IndexSet.from_indices([1]), 2, 1),
            StrongNonAggThreshold(
                P([0, 22]), P([4, 21]), 0, IndexSet.from_indices([1]), 10, 20, 4, 1
            ),
            StrongerNonAggregation(
                P([3, 12]), P([8, 11]), 0, IndexSet.from_indices([1]), 10, 5, 1
            ),
            QuantitativeAggregation(
                P([5, 0, 0, 0]), P([4, 2, 2, 2]), 0, IndexSet.from_indices([1, 2, 3]), 3, 2, 1
            ),
            RatioAggregation(
                P([5, 0, 0]), P([4, 2, 0]), 0, IndexSet.from_indices([1]), Fraction(1, 3), 2, 1
            ),
            MinimalAggregation(P([5, 0]), P([4, 2]), 0, 2, 1),
        ]
        for inst in instances:
            assert instance_from_config(instance_to_config(inst)) == inst
