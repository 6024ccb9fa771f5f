import hashlib
import io
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

from welfareax import ConfigError
from welfareax.chains import serialize_chain
from welfareax.cli import _load_yaml, _parse_yaml, main
from welfareax.propositions import build_prop2_chain

RDU_CONFIG = "ordering: rdu\nrho: '101/100'\ng: {kind: sqrt}\n"
SUFFAVG_CONFIG = "ordering: suffavg\ntheta_p: 0\nlambda: '1/5'\n"
LEXIMIN_CONFIG = "ordering: leximin\n"
# rho = 1 + 10^-330: rho / (rho - 1) is beyond the float range
RHO_NEAR_ONE = f"{10**330 + 1}/{10**330}"
CERTIFICATES = Path(__file__).parent / "data" / "certificates"


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "rdu.yaml").write_text(RDU_CONFIG)
    (tmp_path / "suffavg.yaml").write_text(SUFFAVG_CONFIG)
    (tmp_path / "leximin.yaml").write_text(LEXIMIN_CONFIG)
    return tmp_path


def run(capsys, argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compare_large_profiles(workdir, capsys):
    profiles = workdir / "p.txt"
    profiles.write_text("1000000*100\n90, 999*100, 999000*300\n")
    code, out, _ = run(
        capsys, ["compare", "--ordering", workdir / "rdu.yaml", "--profiles", profiles]
    )
    assert code == 0
    assert "strictly-better" in out
    assert "value(u)" in out and "value(v)" in out


def test_compare_identical_profiles(workdir, capsys):
    profiles = workdir / "p.txt"
    profiles.write_text("1,2,3\n1,2,3\n")
    code, out, _ = run(
        capsys, ["compare", "--ordering", workdir / "leximin.yaml", "--profiles", profiles]
    )
    assert code == 0
    assert "equivalent" in out


@pytest.mark.parametrize("ordering", ["rdu.yaml", "suffavg.yaml", "leximin.yaml"])
@pytest.mark.parametrize("command", ["compare", "value"])
def test_profile_beyond_an_index_is_refused(workdir, capsys, command, ordering):
    profiles = workdir / "huge.txt"
    profiles.write_text(f"{10**30}*1\n2\n")
    code, _, err = run(
        capsys, [command, "--ordering", workdir / ordering, "--profiles", profiles]
    )
    assert code == 2
    assert err.count("error:") == 1 and "Traceback" not in err
    assert "profile has more than" in err


@pytest.mark.parametrize(
    "config",
    [
        "ordering: rdu\nrho: 101/100\ng: identity\n",
        "ordering: boundedg\ntheta_p: 0\nlambda: 1/2\ng: identity\n",
        "ordering: suffavg\ntheta_p: 0\nlambda: 1/2\n",
    ],
)
def test_compare_exact_difference_beyond_float_range(workdir, capsys, config):
    (workdir / "o.yaml").write_text(config)
    (workdir / "pair.txt").write_text("1e400,1\n1,2\n")
    code, out, _ = run(
        capsys, ["compare", "--ordering", workdir / "o.yaml", "--profiles", workdir / "pair.txt"]
    )
    assert code == 0
    assert out.splitlines()[0] == "verdict: strictly-better"


# compare and value print exact values in full, also one beyond the float range
PINNED = [
    pytest.param(
        "ordering: suffavg\ntheta_p: 0\nlambda: 1/5\n",
        [f"{2 * 10**400 + 2}/5 (exact)", "6/5 (exact)", "37/45 (exact)"],
        id="suffavg",
    ),
    pytest.param(
        "ordering: multithreshold\nthetas: [0, 2]\nweights: [1/2, 1/3, 1/6]\n",
        [f"{10**400 - 3}/12 (exact)", "-1/12 (exact)", "-28/27 (exact)"],
        id="multithreshold",
    ),
    pytest.param(
        "ordering: rankweighted\ntheta_p: 1\nlambda: 1/2\n"
        "weights_table: {2: [2/3, 1/3], 3: [1/2, 1/3, 1/6]}\n",
        [f"{(10**400 + 2) // 6} (exact)", "2/3 (exact)", "-25/72 (exact)"],
        id="rankweighted",
    ),
]


@pytest.mark.parametrize("config,values", PINNED)
def test_exact_compare_and_value_output_is_pinned(workdir, capsys, config, values):
    (workdir / "o.yaml").write_text(config)
    (workdir / "pair.txt").write_text("1e400,1\n1,2\n")
    (workdir / "p.txt").write_text("1e400,1\n1,2\n-1/3, 5/2, 7/6\n")
    argv = ["--ordering", workdir / "o.yaml", "--profiles"]
    assert run(capsys, ["compare", *argv, workdir / "pair.txt"]) == (
        0, f"verdict: strictly-better\nvalue(u) = {values[0]}\nvalue(v) = {values[1]}\n", ""
    )
    listed = "".join(f"value[{i}] = {value}\n" for i, value in enumerate(values))
    assert run(capsys, ["value", *argv, workdir / "p.txt"]) == (0, listed, "")


def test_rdu_identity_compare_and_value_output_is_pinned(workdir, capsys):
    (workdir / "o.yaml").write_text("ordering: rdu\nrho: 101/100\ng: identity\n")
    (workdir / "pair.txt").write_text("1e400,1\n1,2\n")
    (workdir / "p.txt").write_text("1,2\n-1/3, 5/2, 7/6\n")
    argv = ["--ordering", workdir / "o.yaml", "--profiles"]
    # the float values of the pair are beyond the float range; its exact verdict is not
    assert run(capsys, ["compare", *argv, workdir / "pair.txt"]) == (
        0, "verdict: strictly-better\n", ""
    )
    assert run(capsys, ["value", *argv, workdir / "pair.txt"]) == (
        2, "", "error: level 1e+400 is too large for a float\n"
    )
    values = (
        "value(u) = 2.98019801980198 (error bound 6.847e-15)\n"
        "value(v) = 3.272522301735124 (error bound 8.998e-15)\n"
    )
    assert run(capsys, ["compare", *argv, workdir / "p.txt"]) == (
        0, "verdict: strictly-worse\n" + values, ""
    )
    listed = values.replace("value(u)", "value[0]").replace("value(v)", "value[1]")
    assert run(capsys, ["value", *argv, workdir / "p.txt"]) == (0, listed, "")


def test_compare_size_mismatch_under_leximin(workdir, capsys):
    profiles = workdir / "p.txt"
    profiles.write_text("1,2\n1,2,3\n")
    code, out, _ = run(
        capsys, ["compare", "--ordering", workdir / "leximin.yaml", "--profiles", profiles]
    )
    assert code == 0
    assert "incomparable" in out


def test_parse_error_exits_nonzero(workdir, capsys):
    profiles = workdir / "p.txt"
    profiles.write_text("1,x\n2,3\n")
    code, _, err = run(
        capsys, ["compare", "--ordering", workdir / "leximin.yaml", "--profiles", profiles]
    )
    assert code == 2
    assert "line 1" in err


def test_value_command_exact(workdir, capsys):
    profiles = workdir / "p.txt"
    profiles.write_text("-100, 999999999*200\n")
    code, out, _ = run(
        capsys, ["value", "--ordering", workdir / "suffavg.yaml", "--profiles", profiles]
    )
    assert code == 0
    assert "1749999997/12500000" in out


def test_check_axiom_exit_codes(workdir, capsys):
    good = workdir / "inst.yaml"
    good.write_text(
        yaml.safe_dump(
            dict(axiom="pigou_dalton", u="1,5", i=1, j=0, epsilon="1")
        )
    )
    code, out, _ = run(
        capsys, ["check-axiom", "--ordering", workdir / "leximin.yaml", "--instance", good]
    )
    assert code == 0 and "satisfied" in out

    unmet = workdir / "unmet.yaml"
    unmet.write_text(
        yaml.safe_dump(dict(axiom="pigou_dalton", u="1,5", i=1, j=0, epsilon="3"))
    )
    code, out, _ = run(
        capsys, ["check-axiom", "--ordering", workdir / "leximin.yaml", "--instance", unmet]
    )
    assert code == 3 and "precondition" in out

    violated = workdir / "violated.yaml"
    violated.write_text(
        yaml.safe_dump(
            dict(
                axiom="quantitative_aggregation",
                u="0, 5, 5, 5",
                v="-1, 7, 7, 7",
                i=0,
                M="1-3",
                m=3,
                gamma="2",
                delta="1",
            )
        )
    )
    code, out, _ = run(
        capsys, ["check-axiom", "--ordering", workdir / "leximin.yaml", "--instance", violated]
    )
    assert code == 1 and "violated" in out


def test_axiom_suite_gating(workdir, capsys):
    params = workdir / "params.yaml"
    params.write_text(yaml.safe_dump(dict(m=3, gamma=2, delta=1)))
    code, out, _ = run(
        capsys,
        [
            "axiom-suite", "--ordering", workdir / "leximin.yaml",
            "--axiom", "quantitative_aggregation", "--params", params,
            "--count", 200, "--seed", 1, "--populations", "4,8", "--format", "tsv",
        ],
    )
    assert code == 1  # violations found: CI gate trips
    assert "quantitative_aggregation" in out

    code, out, _ = run(
        capsys,
        [
            "axiom-suite", "--ordering", workdir / "leximin.yaml",
            "--axiom", "strong_non_aggregation", "--params",
            _write(workdir, "sna.yaml", dict(alpha=2, beta=1)),
            "--count", 200, "--seed", 1,
        ],
    )
    assert code == 0


def _write(tmp, name, doc):
    path = tmp / name
    path.write_text(yaml.safe_dump(doc))
    return path


def test_replay_and_validate_roundtrip(workdir, capsys):
    params = _write(
        workdir, "p1.yaml",
        dict(theta_p=10, theta_r=20, alpha=2, beta=1, gamma=2, delta=1, m=3),
    )
    cert = workdir / "chain.cert"
    code, out, _ = run(
        capsys,
        ["replay", "--id", 1, "--params", params, "--out", cert,
         "--locate", workdir / "leximin.yaml"],
    )
    assert code == 0
    assert "precondition_failures=0" in out
    assert "denied by ordering" in out

    code, out, _ = run(capsys, ["validate", "--certificate", cert])
    assert code == 0

    # tampering is caught
    text = cert.read_text().replace("from=3*8,", "from=3*9,", 1)
    cert.write_text(text)
    code, out, _ = run(capsys, ["validate", "--certificate", cert])
    assert code == 1


def test_replay_guard_violation_reported(workdir, capsys):
    params = _write(
        workdir, "p3.yaml",
        dict(theta_p=10, theta_r=20, alpha=3, beta=1, gamma=3, delta=1, lam="1/10", h=1, n=41),
    )
    code, _, err = run(capsys, ["replay", "--id", 3, "--params", params])
    assert code == 2
    assert "hypothesis" in err


def test_replay_prop4(workdir, capsys):
    profiles = workdir / "pair.txt"
    profiles.write_text("1,2,3\n1,1,5\n")
    cert = workdir / "dom.cert"
    code, out, _ = run(
        capsys,
        ["replay", "--id", 4, "--profiles", profiles, "--out", cert,
         "--locate", workdir / "leximin.yaml"],
    )
    assert code == 0
    assert "affirms every step" in out


# the parameters of the fixtures chain{k}_0.cert; "note" is a key no chain reads
REPLAY_PARAMS = {
    1: dict(theta_p=10, theta_r=20, alpha=2, beta=1, gamma=2, delta=1, m=3),
    2: dict(theta_p=10, theta_r=20, alpha=2, beta=1, gamma=2, delta=1, lam="1/2", n=4),
    3: dict(theta_p=10, theta_r=20, alpha=3, beta=1, gamma=3, delta=2, lam="1/10", h=2, n=41),
    4: {},  # beta_ratio omitted: the builder's default
}


@pytest.mark.parametrize("chain", [1, 2, 3, 4])
def test_replay_writes_the_library_certificate(workdir, capsys, chain):
    params = _write(workdir, "p.yaml", dict(REPLAY_PARAMS[chain], note="ignored"))
    profiles = workdir / "pair.txt"
    profiles.write_text("1,2,3\n1,1,5\n")
    cert = workdir / "c.cert"
    code, _, _ = run(
        capsys,
        ["replay", "--id", chain, "--params", params, "--profiles", profiles, "--out", cert],
    )
    assert code == 0
    assert cert.read_bytes() == (CERTIFICATES / f"chain{chain}_0.cert").read_bytes()


def test_replay_2_without_n_uses_the_builder_default(workdir, capsys):
    given = {k: x for k, x in REPLAY_PARAMS[2].items() if k != "n"}
    cert = workdir / "c.cert"
    code, _, _ = run(
        capsys, ["replay", "--id", 2, "--params", _write(workdir, "p.yaml", given), "--out", cert]
    )
    assert code == 0
    assert cert.read_text() == serialize_chain(build_prop2_chain(**given))


def test_replay_reads_the_locate_ordering_before_writing(workdir, capsys):
    params = _write(
        workdir, "p.yaml",
        dict(theta_p=10, theta_r=20, alpha=2, beta=1, gamma=2, delta=1, m=3),
    )
    cert = workdir / "c.cert"
    code, out, err = run(
        capsys,
        ["replay", "--id", 1, "--params", params, "--out", cert,
         "--locate", workdir / "missing.yaml"],
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert not cert.exists()


def test_prop5_commands(workdir, capsys):
    code, out, _ = run(
        capsys,
        ["prop5", "condition", "--g", "sqrt", "--rho", "2", "--theta-p", "4",
         "--theta-r", "100", "--alpha", "3", "--beta", "1"],
    )
    assert code == 0
    assert "holds: True" in out

    # an exact side beyond the float range keeps its exact verdict
    code, out, _ = run(
        capsys,
        ["prop5", "condition", "--rho", RHO_NEAR_ONE, "--theta-p", "10", "--theta-r", "20",
         "--alpha", "3", "--beta", "1"],
    )
    assert code == 0
    assert "rhs = inf" in out and "holds: False (certain: True, exact: True)" in out

    code, out, _ = run(
        capsys,
        ["prop5", "ratio-failure", "--rho", "101/100", "--lam", "1/2",
         "--gamma", "2", "--delta", "1", "--base", "10"],
    )
    assert code == 0
    assert "1062" in out
    assert "violated" in out


def test_search_command(workdir, capsys):
    params = _write(workdir, "qa.yaml", dict(m=3, gamma=2, delta=1))
    out_path = workdir / "witness.yaml"
    code, out, _ = run(
        capsys,
        ["search", "--ordering", workdir / "leximin.yaml",
         "--axiom", "quantitative_aggregation", "--params", params,
         "--budget", 2000, "--populations", "4,8", "--out", out_path],
    )
    assert code == 0
    assert "violation found" in out
    assert out_path.exists()


def test_plot_data_lambda_interval(workdir, capsys):
    code, out, _ = run(
        capsys,
        ["plot-data", "--kind", "lambda-interval", "--alpha", "10", "--beta", "1",
         "--gamma", "10", "--delta", "1", "--ratio", "1/2",
         "--n-from", 2, "--n-to", 12],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n\t")
    assert len(lines) == 12
    assert all(line.endswith("\t1") for line in lines[1:])  # all feasible


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        pytest.param(
            ["--kind", "ratio-coefficient", "--rho", "101/100", "--lam", "1/2",
             "--n-from", 2, "--n-to", 2000, "--n-step", 2],
            1001,
            "9daa4258e620a9cbe08742958aa3ff803adc2dfbf12d60d6e8fcced346d89fd0",
            id="ratio-coefficient",
        ),
        pytest.param(
            ["--kind", "lambda-interval"],
            100,
            "96e4e929b9c0fb65cc6da2b889e31b8d47daacf19a5196f39174bc9783397e4d",
            id="lambda-interval-defaults",
        ),
        pytest.param(
            # feasible at n = 2 only; every later row prints '-' for its midpoint
            ["--kind", "lambda-interval", "--alpha", 3, "--beta", 2, "--gamma", 5,
             "--delta", 4, "--ratio", "1/3", "--n-from", 2, "--n-to", 30, "--n-step", 3],
            11,
            "cd024a36479319dcab07e80339bb0f75ac419921d92219a9d2d39d1ed08f81a9",
            id="lambda-interval-infeasible",
        ),
    ],
)
def test_plot_data_output_is_pinned(capsys, argv, lines, digest):
    # sha256 of known-good tables: the coefficients are exact reduced
    # fractions, and each midpoint is the weight MidpointLambda takes
    code, out, _ = run(capsys, ["plot-data", *argv])
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_shared_parser_keeps_calls_apart(workdir, capsys):
    # main builds its parser once per process; each call in this sequence
    # must print what the same call prints in a process of its own
    leximin = workdir / "leximin.yaml"
    calls = [
        ["axiom-suite", "--ordering", leximin, "--axiom", "anonymity", "--count", 20],
        ["axiom-suite", "--ordering", leximin, "--axiom", "strong_pareto", "--count", 20],
        ["axiom-suite", "--ordering", leximin],  # --axiom missing: argparse exits 2
        ["prop5", "condition", "--rho", "2", "--theta-p", "4", "--theta-r", "100",
         "--alpha", "3", "--beta", "1"],
        ["validate", "--certificate", CERTIFICATES / "chain1_0.cert"],
    ]
    for argv in calls:
        argv = [str(a) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        alone = subprocess.run(
            [sys.executable, "-m", "welfareax", *argv], capture_output=True, text=True
        )
        assert (code, out.out, out.err) == (alone.returncode, alone.stdout, alone.stderr), argv


QA_INSTANCE = (
    "axiom: quantitative_aggregation\nu: 0,5,5,5\nv: -1,7,7,7\ni: 0\nm: 3\ngamma: 2\ndelta: 1\n"
)


@pytest.mark.parametrize(
    "files,argv",
    [
        pytest.param(
            {},
            ["axiom-suite", "--ordering", "leximin.yaml", "--axiom", "quantitative_aggregation",
             "--count", "5"],
            id="axiom-suite-without-params",
        ),
        pytest.param(
            {"p1.yaml": "theta_p: 10\nalpha: 2\nbeta: 1\ngamma: 2\ndelta: 1\nm: 3\n"},
            ["replay", "--id", "1", "--params", "p1.yaml"],
            id="replay-parameter-missing",
        ),
        pytest.param(
            {"p1.yaml": "theta_p:\ntheta_r: 20\nalpha: 2\nbeta: 1\ngamma: 2\ndelta: 1\nm: 3\n"},
            ["replay", "--id", "1", "--params", "p1.yaml"],
            id="replay-parameter-empty",
        ),
        pytest.param(
            {"p1.yaml": "theta_p: [10\ntheta_r: 20\n"},
            ["replay", "--id", "1", "--params", "p1.yaml"],
            id="malformed-yaml",
        ),
        pytest.param(
            {"p1.yaml": "- 10\n- 20\n"},
            ["replay", "--id", "1", "--params", "p1.yaml"],
            id="yaml-not-a-mapping",
        ),
        pytest.param(
            {"inst.yaml": QA_INSTANCE + "M: x\n"},
            ["check-axiom", "--ordering", "leximin.yaml", "--instance", "inst.yaml"],
            id="bad-field-value",
        ),
        pytest.param(
            {"inst.yaml": "axiom: [x]\n"},
            ["check-axiom", "--ordering", "leximin.yaml", "--instance", "inst.yaml"],
            id="list-valued-axiom-tag",
        ),
        pytest.param(
            {},
            ["prop5", "condition", "--g", "sqrt", "--rho", RHO_NEAR_ONE, "--theta-p", "10",
             "--theta-r", "20", "--alpha", "3", "--beta", "1"],
            id="prop5-factor-beyond-float-range",
        ),
        *[
            pytest.param(
                {"bad.yaml": config, "pair.txt": "1,2\n2,1\n"},
                ["compare", "--ordering", "bad.yaml", "--profiles", "pair.txt"],
                id=name,
            )
            for name, config in [
                ("ordering-bad-level", "ordering: rdu\nrho: abc\n"),
                ("ordering-zero-denominator", "ordering: suffavg\ntheta_p: 0\nlambda: 1/0\n"),
                (
                    "ordering-table-not-a-mapping",
                    "ordering: multithreshold\nthetas: [0]\nweights_table: [1, 2]\n",
                ),
                (
                    "ordering-midpoint-not-a-mapping",
                    "ordering: suffavg\ntheta_p: 0\nlambda_midpoint: 3\n",
                ),
                (
                    "transform-bad-points",
                    "ordering: rdu\nrho: 2\ng: {kind: piecewise_linear, points: [[0]]}\n",
                ),
            ]
        ],
        pytest.param({}, ["replay", "--id", "4"], id="replay-4-without-profiles"),
        pytest.param(
            {"sqrt.yaml": "ordering: rdu\nrho: 101/100\ng: sqrt\n", "pair.txt": "1e400,1\n1,2\n"},
            ["compare", "--ordering", "sqrt.yaml", "--profiles", "pair.txt"],
            id="level-beyond-float-range",
        ),
        pytest.param(
            {"half.yaml": "ordering: rdu\nrho: 1/2\ng: sqrt\n", "pair.txt": "2500*1\n2500*2\n"},
            ["compare", "--ordering", "half.yaml", "--profiles", "pair.txt"],
            id="rdu-weights-beyond-float-range",
        ),
        pytest.param(
            {"tiny.yaml": f"ordering: rdu\nrho: '1/{10**400}'\ng: sqrt\n", "one.txt": "1,2\n"},
            ["value", "--ordering", "tiny.yaml", "--profiles", "one.txt"],
            id="rdu-rho-below-float-range",
        ),
        pytest.param(
            {},
            ["plot-data", "--kind", "ratio-coefficient", "--lam", "2"],
            id="plot-data-ratio-above-one",
        ),
        *[
            pytest.param(
                {"p.yaml": "theta_p: 10\ntheta_r: 20\nalpha: 3\nbeta: 1\ngamma: 3\ndelta: 2\n" + counts},
                ["replay", "--id", chain, "--params", "p.yaml"],
                id=f"replay-{name}",
            )
            for name, chain, counts in [
                ("m-not-an-integer", "1", "m: 3.5\n"),
                ("h-not-an-integer", "3", "lam: 1/10\nh: 2.9\nn: 41\n"),
                ("n-not-an-integer", "3", "lam: 1/10\nh: 2\nn: 41.7\n"),
            ]
        ],
        *[
            pytest.param(
                {"c.cert": "# welfareax certificate v1\n" + body},
                ["validate", "--certificate", "c.cert"],
                id=f"certificate-{name}",
            )
            for name, body in [
                ("k-not-an-integer", "chain kind=dominance\ndescent k=x from=1 to=2\n"),
                ("unknown-kind", "chain kind=bogus\n"),
                ("bad-profile", "chain kind=dominance\nstep axiom=strong_pareto from=1,,2 to=2,2\n"),
                (
                    "repeated-key",
                    "chain kind=dominance\nstep axiom=strong_pareto from=1,2 to=2,2 to=2,3\n",
                ),
                (
                    "unread-key",
                    "chain kind=dominance\n"
                    "step axiom=anonymity from=1,2 to=1,2 pi=0,1 epsilon=zz foo=1\n",
                ),
                ("repeated-header", "chain kind=contradiction\nchain kind=dominance\n"),
            ]
        ],
        pytest.param(
            {},
            ["plot-data", "--kind", "ratio-coefficient", "--n-from", "0"],
            id="plot-data-population-zero",
        ),
        pytest.param(
            {},
            ["plot-data", "--kind", "lambda-interval", "--n-step", "0"],
            id="plot-data-step-zero",
        ),
        pytest.param(
            {},
            ["axiom-suite", "--ordering", "leximin.yaml", "--axiom", "anonymity",
             "--count", "-1"],
            id="axiom-suite-negative-count",
        ),
        pytest.param(
            {},
            ["search", "--ordering", "leximin.yaml", "--axiom", "anonymity", "--budget", "-1"],
            id="search-negative-budget",
        ),
        pytest.param(
            {"one.txt": "1,2\n"},
            ["compare", "--ordering", "leximin.yaml", "--profiles", "one.txt"],
            id="compare-one-profile",
        ),
        pytest.param(
            {},
            ["axiom-suite", "--ordering", "leximin.yaml", "--axiom", "bogus"],
            id="axiom-suite-unknown-axiom",
        ),
        pytest.param(
            {"three.txt": "1,2\n2,1\n3,3\n"},
            ["replay", "--id", "4", "--profiles", "three.txt"],
            id="replay-4-three-profiles",
        ),
        *[
            pytest.param(
                {"p.yaml": f"beta_ratio: {ratio}\n", "pair.txt": "1,2,3\n1,1,5\n"},
                ["replay", "--id", "4", "--params", "p.yaml", "--profiles", "pair.txt"],
                id=f"replay-4-beta-ratio-{name}",
            )
            for name, ratio in [("not-a-level", "abc"), ("above-one", "2")]
        ],
        *[
            pytest.param(
                {"p.yaml": option},
                ["axiom-suite", "--ordering", "leximin.yaml", "--axiom", axiom,
                 "--params", "p.yaml", "--count", "3"],
                id=f"axiom-suite-{name}",
            )
            for name, axiom, option in [
                ("k-max-not-an-integer", "replication_invariance", "k_max: abc\n"),
                ("k-max-fractional", "replication_invariance", "k_max: 2.7\n"),
                ("k-max-zero", "replication_invariance", "k_max: 0\n"),
                ("epsilon-max-not-a-level", "pigou_dalton", "epsilon_max: abc\n"),
            ]
        ],
        *[
            pytest.param(
                {"log.yaml": "ordering: rdu\nrho: 3/2\ng: {kind: log_shifted, shift: 1}\n",
                 "pair.txt": f"{level},1\n1,2\n"},
                ["compare", "--ordering", "log.yaml", "--profiles", "pair.txt"],
                id=f"log-level-rounding-to-pole-{name}",
            )
            for name, level in [
                ("1e-20", f"{1 - 10**20}/{10**20}"),
                ("1e-400", f"{1 - 10**400}/{10**400}"),
            ]
        ],
        pytest.param(
            {"cp.yaml": "ordering: concavepoor\ntheta_p: 5\nlambda: 1/2\ng: sqrt\n",
             "p.txt": "1e400,1\n"},
            ["value", "--ordering", "cp.yaml", "--profiles", "p.txt"],
            id="concavepoor-mean-beyond-float-range",
        ),
        pytest.param(
            {"pair.txt": "1e10000000,1\n1,2\n"},
            ["compare", "--ordering", "leximin.yaml", "--profiles", "pair.txt"],
            id="exponent-beyond-the-digit-limit",
        ),
    ],
)
def test_malformed_input_exits_2_with_one_error_line(workdir, capsys, files, argv):
    for name, text in files.items():
        (workdir / name).write_text(text)
    code, _, err = run(capsys, [workdir / a if a.endswith(".yaml") or a in files else a for a in argv])
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize(
    "files, argv",
    [
        *[
            pytest.param(
                {"c.cert": (CERTIFICATES / fixture).read_text().replace(f"k={k} ", f"k={big} ", 1)},
                ["validate", "--certificate", "c.cert"],
                id=f"{word}-k-{big}",
            )
            for fixture, word, k in [("chain2_0.cert", "lift", 7), ("chain3_0.cert", "descent", 4)]
            for big in ("1000000000000", "1e400")
        ],
        pytest.param(
            {"inst.yaml": "axiom: replication_invariance\nu: 1,2\nv: 2,1\nk: 1000000000000\n"},
            ["check-axiom", "--ordering", "leximin.yaml", "--instance", "inst.yaml"],
            id="check-axiom",
        ),
        pytest.param(
            {"pair.txt": "1/10,1000000\n0,1000000\n"},
            ["replay", "--id", "4", "--profiles", "pair.txt"],
            id="replay-4",
        ),
    ],
)
def test_replication_past_the_block_limit_exits_2_at_once(workdir, capsys, files, argv):
    for name, text in files.items():
        (workdir / name).write_text(text)
    argv = [workdir / a if a in files or a.endswith(".yaml") else a for a in argv]
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        seconds.append(time.perf_counter() - start)
        assert code == 2 and not out
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert lines[0].endswith("blocks, beyond the materialization limit")
    assert min(seconds) < 0.1, seconds


def test_seed_and_format_only_where_honoured(workdir, capsys):
    profiles = workdir / "p.txt"
    profiles.write_text("1,2\n2,1\n")
    for flag in (["--seed", "1"], ["--format", "tsv"]):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--ordering", str(workdir / "leximin.yaml"),
                  "--profiles", str(profiles), *flag])
        assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["axiom-suite", "--ordering", str(workdir / "leximin.yaml"),
              "--axiom", "anonymity", "--format", "cert"])

    # the float slack is fixed, so no command takes --tolerance
    leximin = str(workdir / "leximin.yaml")
    pair = workdir / "pair.txt"
    pair.write_text("2,3\n1,1\n")
    instance = workdir / "inst.yaml"
    instance.write_text(QA_INSTANCE + "M: 1-3\n")
    cert = workdir / "c.cert"
    assert main(["replay", "--id", "4", "--profiles", str(pair), "--out", str(cert)]) == 0
    commands = [
        ["compare", "--ordering", leximin, "--profiles", pair],
        ["value", "--ordering", workdir / "suffavg.yaml", "--profiles", pair],
        ["check-axiom", "--ordering", leximin, "--instance", instance],
        ["axiom-suite", "--ordering", leximin, "--axiom", "anonymity", "--count", "1"],
        ["replay", "--id", "4", "--profiles", pair],
        ["validate", "--certificate", cert],
        ["prop5", "condition", "--rho", "2", "--theta-p", "4", "--theta-r", "100",
         "--alpha", "3", "--beta", "1"],
        ["prop5", "ratio-failure", "--rho", "3/2", "--lam", "1/2", "--gamma", "2",
         "--delta", "1"],
        ["search", "--ordering", leximin, "--axiom", "anonymity", "--budget", "1"],
        ["plot-data", "--kind", "lambda-interval", "--n-to", "3"],
    ]
    for argv in commands:
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv] + ["--tolerance", "1/10"])
        assert exc.value.code == 2, argv
    capsys.readouterr()


ROOT = Path(__file__).parent.parent
YAML_TEXTS = [
    *((path.relative_to(ROOT).as_posix(), path.read_text()) for path in sorted(
        (ROOT / "tests" / "data").rglob("*.yaml"))),
    *((f"README.md example {k}", text) for k, text in enumerate(
        re.findall(r"```yaml\n(.*?)```", (ROOT / "README.md").read_text(), re.S))),
]


@pytest.mark.parametrize("where,text", YAML_TEXTS, ids=[where for where, _ in YAML_TEXTS])
def test_yaml_loads_as_the_pure_python_loader_does(where, text):
    # the instance streams hold one document per instance, each read as one file would be
    got = [_parse_yaml(doc, where) for doc in re.split(r"^---\n", text, flags=re.M)]
    want = list(yaml.load_all(text, Loader=yaml.SafeLoader))
    assert got == want and repr(got) == repr(want)


def test_an_empty_yaml_file_is_an_empty_mapping(tmp_path):
    (tmp_path / "empty.yaml").write_text("")
    assert _load_yaml(str(tmp_path / "empty.yaml")) == {}


def test_donors_read_as_a_yaml_list(workdir, capsys):
    # M as a flow list is the same set as its range text 1-3
    results = []
    for members in ("[1, 2, 3]", "1-3"):
        (workdir / "inst.yaml").write_text(QA_INSTANCE + f"M: {members}\n")
        results.append(run(capsys, ["check-axiom", "--ordering", workdir / "leximin.yaml",
                                    "--instance", workdir / "inst.yaml"]))
    assert results[0] == results[1] and results[0][1].startswith("status: violated"), results


def test_yaml_loader_falls_back_without_libyaml(monkeypatch):
    used = []

    class Recording(yaml.SafeLoader):
        def __init__(self, stream):
            used.append(stream)
            super().__init__(stream)

    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    monkeypatch.setattr(yaml, "SafeLoader", Recording)
    assert _parse_yaml("ordering: leximin\n", "o.yaml") == {"ordering": "leximin"}
    assert used == ["ordering: leximin\n"]


@pytest.mark.parametrize("libyaml", [True, False], ids=["default-loader", "pure-python-loader"])
def test_malformed_yaml_names_its_file(monkeypatch, tmp_path, libyaml):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    bad = tmp_path / "bad.yaml"
    for text in ("theta_p: [10\ntheta_r: 20\n", "a: b: c\n", "x: 1\n\tbad: 2\n"):
        bad.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{bad}: ")):
            _load_yaml(str(bad))


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "welfareax", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "compare" in result.stdout


@pytest.mark.parametrize("big", ["1e400", "1e4300"])
def test_a_replication_refusal_names_a_long_count_by_its_size(workdir, capsys, big):
    # 1e4300 has more digits than Python converts an int to text
    text = (CERTIFICATES / "chain2_0.cert").read_text()
    (workdir / "c.cert").write_text(text.replace("lift k=7 ", f"lift k={big} ", 1))
    code, out, err = run(capsys, ["validate", "--certificate", workdir / "c.cert"])
    assert code == 2 and not out
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and len(lines[0]) < 200, err


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "ratio-coefficient", "--rho", "1"],
        ["--kind", "lambda-interval", "--alpha", "1", "--beta", "2"],
        ["--kind", "lambda-interval", "--gamma", "1", "--delta", "2"],
    ],
    ids=["ratio-coefficient", "lambda-interval", "lambda-interval-gamma-delta"],
)
def test_plot_data_prints_no_header_when_it_refuses(capsys, argv):
    code, out, err = run(capsys, ["plot-data", *argv])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: need "), err


# 1, 2 + 10^-15, 3 - 10^-15: within the float bound of 1, 2, 3 under sqrt, and not equal
NEAR_TIE = "1,2000000000000001/1000000000000000,2999999999999999/1000000000000000"


def test_compare_warns_of_a_numerical_tie(workdir, capsys):
    (workdir / "p.txt").write_text(f"1,2,3\n{NEAR_TIE}\n")
    code, out, _ = run(
        capsys, ["compare", "--ordering", workdir / "rdu.yaml", "--profiles", workdir / "p.txt"]
    )
    assert code == 0
    assert "warning: numerically tied within the combined error bound\n" in out


def test_check_axiom_warns_of_a_numerical_tie(workdir, capsys):
    instance = workdir / "inst.yaml"
    instance.write_text(f"axiom: replication_invariance\nu: 1,2,3\nv: {NEAR_TIE}\nk: 2\n")
    code, out, _ = run(
        capsys, ["check-axiom", "--ordering", workdir / "rdu.yaml", "--instance", instance]
    )
    assert code == 0
    assert out.splitlines() == [
        "status: satisfied", "warning: floating comparison was numerically tied"
    ]


def test_replay_without_out_writes_the_certificate_to_stdout(workdir, capsys):
    (workdir / "pair.txt").write_text("2,3\n1,1\n")
    cert = workdir / "c.cert"
    assert main(["replay", "--id", "4", "--profiles", str(workdir / "pair.txt"),
                 "--out", str(cert)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, ["replay", "--id", "4", "--profiles", workdir / "pair.txt"])
    assert code == 0
    validation = "validation: steps=3 precondition_failures=0 linkage_failures=0\n"
    assert out == cert.read_text() + validation


def test_prop5_ratio_failure_writes_its_witness(workdir, capsys):
    witness = workdir / "w.yaml"
    code, out, _ = run(
        capsys,
        ["prop5", "ratio-failure", "--rho", "3/2", "--lam", "1/2", "--gamma", "2",
         "--delta", "1", "--out", witness],
    )
    assert code == 0
    assert out.endswith(f"witness written to {witness}\n")
    doc = yaml.safe_load(witness.read_text())
    assert doc["axiom"] == "ratio_aggregation" and doc["u"] == "8*10"


def test_search_reports_when_it_finds_no_violation(workdir, capsys):
    code, out, _ = run(
        capsys,
        ["search", "--ordering", workdir / "leximin.yaml", "--axiom", "anonymity",
         "--budget", 5],
    )
    assert (code, out) == (0, "no violation found within 5 instances\n")


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has left: every write raises, and it has no file descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["plot-data", "--kind", "ratio-coefficient", "--n-to", "100000"],
    ["replay", "--id", "4", "--profiles", "pair.txt"],
])
def test_a_reader_that_leaves_early_is_no_refusal(workdir, capsys, monkeypatch, argv):
    (workdir / "pair.txt").write_text("2,3\n1,1\n")
    monkeypatch.chdir(workdir)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == 141  # 128 + SIGPIPE, as a shell reports for `yes | head`
    assert capsys.readouterr().err == ""
