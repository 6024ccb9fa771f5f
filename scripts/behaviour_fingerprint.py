"""Print one SHA-256 over the verdicts, witnesses and certificates of the paper's checks.

It hashes, in this order:

1. the ``run_suite`` results of the 6 acceptance-4 suites (the
   shortfall-average rule with matched-magnitude midpoint weights) and
   of the 25 acceptance-5 minimal non-aggregation suites (RDU with the
   identity transform on the holding grid): counts, ``flagged``, and the
   status, detail and instance YAML of the first violation;
2. the ``find_counterexample`` witnesses of the 75 failing acceptance-5
   tuples: instance YAML, shrink steps and detail;
3. the v1 certificate bytes of chains 1-4 for the parameter sets of the
   chain tests.

Two checkouts that print the same hash give the same verdicts, values
and certificates on all of these. Under the hash it prints one digest
per section (suites, witnesses, certificates), over that section's
records alone, so that a differing hash names the section that moved. The sources are imported from the
``src/`` directory next to this script. It takes about 30 seconds on
one core of a 2-core Intel Xeon host.

It exits 0 when the hash is ``EXPECTED`` and 1, printing both hashes,
when it differs. A change that alters this behaviour on purpose updates
``EXPECTED`` and says so in a CHANGES.md line.

Usage: python scripts/behaviour_fingerprint.py
"""

import hashlib
import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import yaml  # noqa: E402

from welfareax import Identity, MidpointLambda, Profile, Rdu, SuffAvg, run_suite  # noqa: E402
from welfareax.axioms import instance_to_config  # noqa: E402
from welfareax.chains import serialize_chain  # noqa: E402
from welfareax.propositions import (  # noqa: E402
    build_prop1_chain,
    build_prop2_chain,
    build_prop3_chain,
    build_prop4_chain,
)
from welfareax.search import SearchBudget, find_counterexample  # noqa: E402

EXPECTED = "d4c7d534b21bf600abc51addbdd49713bbfff2314a626baf82f602a9c288148f"

PROP6_SPEC = SuffAvg(10, MidpointLambda(F(10), F(1), F(10), F(1), F(1, 2)))
PROP6_SUITES = (
    ("anonymity", {}),
    ("strong_pareto", {}),
    ("pigou_dalton", {}),
    ("ratio_aggregation", dict(lam=F(1, 2), gamma=10, delta=1)),
    ("minimal_non_aggregation", dict(theta_p=10, theta_r=12, alpha=10, beta=1)),
    ("stronger_non_aggregation", dict(theta_p=10, alpha=10, beta=1)),
)
BETAS = (F(1, 2), F(1), F(2), F(3), F(7, 2))
HOLDING = [(rho, rho * b / (rho - 1), b) for rho in (F(3, 2), F(2), F(3), F(4), F(5)) for b in BETAS]
FAILING = [
    (rho, b * (1 + (1 / (rho - 1) - 1) * f), b)
    for rho in (F(11, 10), F(6, 5), F(5, 4), F(4, 3), F(3, 2))
    for b in BETAS
    for f in (F(1, 4), F(3, 8), F(1, 2))
]

CHAINS = (
    [(build_prop1_chain, p) for p in (
        dict(theta_p=10, theta_r=20, alpha=2, beta=1, gamma=2, delta=1, m=3),
        dict(theta_p=5, theta_r=9, alpha=3, beta=2, gamma=5, delta=2, m=4),
        dict(theta_p=100, theta_r=200, alpha=F(7, 2), beta=F(1, 2), gamma=3, delta=F(1, 3), m=5),
    )]
    + [(build_prop2_chain, p) for p in (
        dict(theta_p=10, theta_r=20, alpha=2, beta=1, gamma=2, delta=1, lam=F(1, 2), n=4),
        dict(theta_p=5, theta_r=12, alpha=3, beta=2, gamma=4, delta=F(3, 2), lam=F(1, 3), n=5),
        dict(theta_p=8, theta_r=30, alpha=1, beta=F(3, 4), gamma=2, delta=F(1, 2), lam=F(2, 3), n=7),
    )]
    + [(build_prop3_chain, p) for p in (
        dict(theta_p=10, theta_r=20, alpha=3, beta=1, gamma=3, delta=2, lam=F(1, 10), h=2, n=41),
        dict(theta_p=6, theta_r=15, alpha=2, beta=1, gamma=3, delta=1, lam=F(1, 5), h=3, n=20),
        dict(theta_p=9, theta_r=18, alpha=5, beta=2, gamma=4, delta=3, lam=F(1, 4), h=2, n=10),
    )]
    + [
        (build_prop4_chain, dict(u=Profile.from_levels(u), v=Profile.from_levels(v)))
        for u, v in (([1, 2, 3], [1, 1, 5]), ([9, 9], [1, 2]), ([2, 2], [1, 9]))
    ]
)


def mna_params(alpha, beta) -> dict:
    return dict(theta_p=F(10), theta_r=F(10) + beta + 1, alpha=alpha, beta=beta)


def instance_yaml(inst) -> str:
    return yaml.safe_dump(instance_to_config(inst), sort_keys=False)


def suite_record(result) -> str:
    record = (
        f"{result.axiom}|{result.checked}|{result.satisfied}|{result.violated}|"
        f"{result.unmet}|{result.flagged}|"
    )
    first = result.first_violation
    if first is not None:
        record += f"{first.status.value}|{first.detail}|{instance_yaml(first.instance)}"
    return record


def suites():
    for axiom, params in PROP6_SUITES:
        yield suite_record(run_suite(PROP6_SPEC, axiom, params, 10_000, seed=2024))
    for rho, alpha, beta in HOLDING:
        result = run_suite(
            Rdu(rho, Identity()), "minimal_non_aggregation", mna_params(alpha, beta), 10_000,
            populations=(2, 8), seed=55,
        )
        yield suite_record(result)


def witnesses():
    for rho, alpha, beta in FAILING:
        witness = find_counterexample(
            Rdu(rho, Identity()), "minimal_non_aggregation", mna_params(alpha, beta),
            SearchBudget(100_000, seed=77, populations=(2, 12)),
        )
        if witness is None:
            yield "no witness"
        else:
            yield f"{instance_yaml(witness.instance)}|{witness.shrink_steps}|{witness.result.detail}"


def certificates():
    for builder, params in CHAINS:
        yield serialize_chain(builder(**params))


SECTIONS = {"suites": suites, "witnesses": witnesses, "certificates": certificates}


def main() -> int:
    digest = hashlib.sha256()
    lines = []
    count = 0
    for name, section in SECTIONS.items():
        part = hashlib.sha256()
        for record in section():
            for h in (digest, part):
                h.update(record.encode())
                h.update(b"\0")
            count += 1
        lines.append(f"  {name}: {part.hexdigest()}")
    print(f"{digest.hexdigest()}  ({count} records)", *lines, sep="\n")
    if digest.hexdigest() != EXPECTED:
        print(f"differs from the expected {EXPECTED}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
