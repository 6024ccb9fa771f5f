"""Command-line interface.

Commands: compare, value, check-axiom, axiom-suite, replay, prop5,
search, plot-data. Ordering and axiom-instance documents are YAML;
profiles use the line-oriented profile syntax; replay emits certificate
files that ``validate`` re-checks bit-exactly. Indices in documents are
0-based.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from pathlib import Path

import yaml

from .axioms import (
    CheckStatus,
    check_axiom,
    instance_from_config,
    instance_to_config,
    run_suite,
)
from .chains import parse_chain, serialize_chain, validate_chain
from .codec import INTEGER, LEVEL, decode
from .errors import ConfigError, InfeasibleParameters, WelfareaxError
from .gfunctions import g_from_config
from .orderings import (
    evaluate,
    lambda_feasible_interval,
    lambda_midpoint,
    ordering_from_config,
    swo_compare,
)
from .profiles import as_level, format_level, parse_profiles
from .propositions import (
    build_prop1_chain,
    build_prop2_chain,
    build_prop3_chain,
    build_prop4_chain,
    prop5_nonagg_condition,
    prop5_ratio_failure,
    scan_ratio_coefficients,
)
from .search import SearchBudget, find_counterexample


def _parse_yaml(text: str, where: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{where}: " + " ".join(str(exc).split())) from exc


def _load_yaml(path: str) -> Mapping:
    """The YAML mapping in a file; an empty file is an empty mapping."""
    doc = _parse_yaml(Path(path).read_text(encoding="utf-8"), path)
    if doc is None:
        return {}
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{path}: expected a YAML mapping")
    return doc


def _instance_yaml(inst) -> str:
    return yaml.safe_dump(instance_to_config(inst), sort_keys=False)


def _load_ordering(path: str):
    return ordering_from_config(_load_yaml(path))


def _load_profiles(path: str):
    return parse_profiles(Path(path).read_text(encoding="utf-8"))


def _int_pair(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(",")
    return int(lo), int(hi)


def _level_pair(text: str) -> tuple[Fraction, Fraction]:
    lo, _, hi = text.partition(",")
    return as_level(lo), as_level(hi)


def cmd_compare(args) -> int:
    spec = _load_ordering(args.ordering)
    profiles = _load_profiles(args.profiles)
    if len(profiles) != 2:
        raise ConfigError(f"compare needs exactly two profiles, got {len(profiles)}")
    u, v = profiles
    result = swo_compare(spec, u, v, cross_size=args.cross_size)
    print(f"verdict: {result.verdict.value}")
    if result.numerically_tied:
        print("warning: numerically tied within the combined error bound")
    if result.note:
        print(f"note: {result.note}")
    try:
        print(f"value(u) = {evaluate(spec, u)}")
        print(f"value(v) = {evaluate(spec, v)}")
    except WelfareaxError:
        pass  # leximin, or a level outside the transform's domain
    return 0


def cmd_value(args) -> int:
    spec = _load_ordering(args.ordering)
    for idx, profile in enumerate(_load_profiles(args.profiles)):
        print(f"value[{idx}] = {evaluate(spec, profile)}")
    return 0


def cmd_check_axiom(args) -> int:
    spec = _load_ordering(args.ordering)
    inst = instance_from_config(_load_yaml(args.instance))
    result = check_axiom(spec, inst)
    print(f"status: {result.status.value}")
    if result.detail:
        print(f"detail: {result.detail}")
    if result.flagged:
        print("warning: floating comparison was numerically tied")
    return {
        CheckStatus.SATISFIED: 0,
        CheckStatus.VIOLATED: 1,
        CheckStatus.PRECONDITION_UNMET: 3,
    }[result.status]


def cmd_axiom_suite(args) -> int:
    spec = _load_ordering(args.ordering)
    params = _load_yaml(args.params) if args.params else {}
    exit_code = 0
    rows = []
    for axiom in args.axiom:
        result = run_suite(
            spec,
            axiom,
            params,
            args.count,
            populations=args.populations,
            values=args.values,
            seed=args.seed,
        )
        rows.append(result)
        if result.violated:
            exit_code = 1
    if args.format == "tsv":
        print("axiom\tchecked\tsatisfied\tviolated\tunmet\tflagged")
        for r in rows:
            print(f"{r.axiom}\t{r.checked}\t{r.satisfied}\t{r.violated}\t{r.unmet}\t{r.flagged}")
    else:
        for r in rows:
            print(
                f"{r.axiom}: checked={r.checked} satisfied={r.satisfied} "
                f"violated={r.violated} unmet={r.unmet} flagged={r.flagged}"
            )
    for r in rows:
        if r.first_violation is not None:
            print(f"first {r.axiom} violation:")
            print(_instance_yaml(r.first_violation.instance))
    return exit_code


_COMMON_PARAMS = ("theta_p", "theta_r", "alpha", "beta", "gamma", "delta")


def _builder_params(params, *names) -> list:
    """The named chain-builder parameters: the counts m, h and n as integers,
    the rest as levels."""
    try:
        return [
            decode(name, INTEGER if name in ("m", "h", "n") else LEVEL, params[name])
            for name in names
        ]
    except KeyError as exc:
        raise ConfigError(f"missing builder parameter {exc}") from exc


def cmd_replay(args) -> int:
    spec = _load_ordering(args.locate) if args.locate else None
    params = _load_yaml(args.params) if args.params else {}
    if args.id == 1:
        chain = build_prop1_chain(*_builder_params(params, *_COMMON_PARAMS, "m"))
    elif args.id == 2:
        n = _builder_params(params, "n")[0] if "n" in params else None
        chain = build_prop2_chain(*_builder_params(params, *_COMMON_PARAMS, "lam"), n)
    elif args.id == 3:
        chain = build_prop3_chain(*_builder_params(params, *_COMMON_PARAMS, "lam", "h", "n"))
    else:
        if not args.profiles:
            raise ConfigError("replay --id 4 needs --profiles")
        profiles = _load_profiles(args.profiles)
        if len(profiles) != 2:
            raise ConfigError("replay 4 needs a profile file with exactly two profiles")
        ratio = _builder_params(params, "beta_ratio") if "beta_ratio" in params else []
        chain = build_prop4_chain(*profiles, *ratio)

    text = serialize_chain(chain)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"certificate written to {args.out} ({len(chain.steps)} steps)")
    else:
        sys.stdout.write(text)

    report = validate_chain(chain, spec)
    print(
        f"validation: steps={report.step_count} "
        f"precondition_failures={len(report.precondition_failures)} "
        f"linkage_failures={len(report.linkage_failures)}"
    )
    if spec is not None:
        for sv in report.denied_steps:
            label = "terminal" if sv.index == len(chain.steps) else f"step {sv.index}"
            print(
                f"denied by ordering: {label} "
                f"(required {sv.required.value}, got {sv.verdict.value})"
            )
        if not report.denied_steps:
            print("ordering affirms every step")
    return 0 if report.ok else 1


def cmd_validate(args) -> int:
    chain = parse_chain(Path(args.certificate).read_text(encoding="utf-8"))
    spec = _load_ordering(args.locate) if args.locate else None
    report = validate_chain(chain, spec)
    print(
        f"steps={report.step_count} "
        f"precondition_failures={len(report.precondition_failures)} "
        f"linkage_failures={len(report.linkage_failures)}"
    )
    for idx, message in report.precondition_failures + report.linkage_failures:
        print(f"  step {idx}: {message}")
    if spec is not None:
        for sv in report.denied_steps:
            print(f"denied: step {sv.index} (required {sv.required.value}, got {sv.verdict.value})")
    return 0 if report.ok else 1


def cmd_prop5(args) -> int:
    g = g_from_config(_parse_yaml(args.g, "--g"))
    if args.mode == "condition":
        report = prop5_nonagg_condition(
            g, args.rho, args.theta_p, args.theta_r, args.alpha, args.beta
        )
        print(f"lhs = {report.lhs!r} (bound {report.lhs_bound:.3e})")
        print(f"rhs = {report.rhs!r} (bound {report.rhs_bound:.3e})")
        print(f"holds: {report.holds} (certain: {report.certain}, exact: {report.exact})")
        return 0
    report = prop5_ratio_failure(g, args.rho, args.lam, args.gamma, args.delta, args.base)
    print(f"first failing population (displayed coefficient): {report.n_star}")
    print(f"violated instance population: {report.witness_n}")
    print(f"check: {report.check.status.value}")
    print(f"note: {report.coefficient_note}")
    if args.out:
        Path(args.out).write_text(_instance_yaml(report.witness), encoding="utf-8")
        print(f"witness written to {args.out}")
    return 0


def cmd_search(args) -> int:
    spec = _load_ordering(args.ordering)
    params = _load_yaml(args.params) if args.params else {}
    budget = SearchBudget(
        max_instances=args.budget,
        seed=args.seed,
        populations=args.populations,
        values=args.values,
    )
    witness = find_counterexample(spec, args.axiom, params, budget)
    if witness is None:
        print(f"no violation found within {args.budget} instances")
        return 0
    print(f"violation found (shrunk in {witness.shrink_steps} steps):")
    print(_instance_yaml(witness.instance))
    print(f"detail: {witness.result.detail}")
    if args.out:
        Path(args.out).write_text(_instance_yaml(witness.instance), encoding="utf-8")
    return 0


def cmd_plot_data(args) -> int:
    if args.n_step < 1:
        raise InfeasibleParameters("need step >= 1")
    if args.kind == "ratio-coefficient":
        print("n\tcoefficient")
        for n, coeff in scan_ratio_coefficients(
            args.rho, args.lam, args.n_from, args.n_to, args.n_step
        ):
            print(f"{n}\t{float(coeff):.17e}")
        return 0
    print("n\tlower\tupper\tmidpoint\tfeasible")
    for n in range(max(2, args.n_from), args.n_to + 1, args.n_step):
        lower, upper, feasible = lambda_feasible_interval(
            n, args.alpha, args.beta, args.gamma, args.delta, args.ratio
        )
        print(
            f"{n}\t{format_level(lower)}\t{format_level(upper)}\t"
            f"{format_level(lambda_midpoint(lower, upper)) if feasible else '-'}\t{int(feasible)}"
        )
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="welfareax",
        description="Social welfare orderings, axiom checks, and ranking certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="compare two profiles")
    p.add_argument("--ordering", required=True)
    p.add_argument("--profiles", required=True)
    p.add_argument("--cross-size", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("value", help="evaluate profiles")
    p.add_argument("--ordering", required=True)
    p.add_argument("--profiles", required=True)
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("check-axiom", help="check one instance")
    p.add_argument("--ordering", required=True)
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_check_axiom)

    p = sub.add_parser("axiom-suite", help="randomized axiom suites")
    p.add_argument("--ordering", required=True)
    p.add_argument("--axiom", action="append", required=True, help="repeatable axiom tag")
    p.add_argument("--params", help="YAML file with axiom magnitudes")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--populations", type=_int_pair, default=(2, 10))
    p.add_argument("--values", type=_level_pair, default=(as_level(-20), as_level(20)))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("human", "tsv"), default="human")
    p.set_defaults(func=cmd_axiom_suite)

    p = sub.add_parser("replay", help="build and validate a chain")
    p.add_argument("--id", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--params", help="YAML file with builder parameters")
    p.add_argument("--profiles", help="two profiles (replay 4)")
    p.add_argument("--out", help="certificate output path")
    p.add_argument("--locate", help="ordering config; locate denied steps")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("validate", help="re-check a certificate file")
    p.add_argument("--certificate", required=True)
    p.add_argument("--locate", help="ordering config; locate denied steps")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("prop5", help="rank-discounting threshold reports")
    mode = p.add_subparsers(dest="mode", required=True)
    c = mode.add_parser("condition")
    c.add_argument("--g", default="identity")
    c.add_argument("--rho", type=as_level, required=True)
    c.add_argument("--theta-p", dest="theta_p", type=as_level, required=True)
    c.add_argument("--theta-r", dest="theta_r", type=as_level, required=True)
    c.add_argument("--alpha", type=as_level, required=True)
    c.add_argument("--beta", type=as_level, required=True)
    c.set_defaults(func=cmd_prop5, mode="condition")
    r = mode.add_parser("ratio-failure")
    r.add_argument("--g", default="identity")
    r.add_argument("--rho", type=as_level, required=True)
    r.add_argument("--lam", type=as_level, required=True)
    r.add_argument("--gamma", type=as_level, required=True)
    r.add_argument("--delta", type=as_level, required=True)
    r.add_argument("--base", type=as_level, default=as_level(10), help="flat profile level")
    r.add_argument("--out", help="write the witness instance to this path")
    r.set_defaults(func=cmd_prop5, mode="ratio-failure")

    p = sub.add_parser("search", help="counterexample search")
    p.add_argument("--ordering", required=True)
    p.add_argument("--axiom", required=True)
    p.add_argument("--params", help="YAML file with axiom magnitudes")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--populations", type=_int_pair, default=(2, 10))
    p.add_argument("--values", type=_level_pair, default=(as_level(-20), as_level(20)))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the witness instance to this path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("plot-data", help="tabular scan emission")
    p.add_argument("--kind", choices=("ratio-coefficient", "lambda-interval"), required=True)
    p.add_argument("--rho", type=as_level, default=as_level("101/100"))
    p.add_argument("--lam", type=as_level, default=as_level("1/2"))
    p.add_argument("--alpha", type=as_level, default=as_level(10))
    p.add_argument("--beta", type=as_level, default=as_level(1))
    p.add_argument("--gamma", type=as_level, default=as_level(10))
    p.add_argument("--delta", type=as_level, default=as_level(1))
    p.add_argument("--ratio", type=as_level, default=as_level("1/2"))
    p.add_argument("--n-from", type=int, default=2)
    p.add_argument("--n-to", type=int, default=100)
    p.add_argument("--n-step", type=int, default=1)
    p.set_defaults(func=cmd_plot_data)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WelfareaxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
