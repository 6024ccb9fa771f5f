import subprocess
import sys

import pytest
import yaml

from welfareax.cli import main

RDU_CONFIG = "ordering: rdu\nrho: '101/100'\ng: {kind: sqrt}\n"
SUFFAVG_CONFIG = "ordering: suffavg\ntheta_p: 0\nlambda: '1/5'\n"
LEXIMIN_CONFIG = "ordering: leximin\n"


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


def test_prop5_commands(workdir, capsys):
    code, out, _ = run(
        capsys,
        ["prop5", "condition", "--g", "sqrt", "--rho", "2", "--theta-p", "4",
         "--theta-r", "100", "--alpha", "3", "--beta", "1"],
    )
    assert code == 0
    assert "holds: True" in out

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


def test_plot_data_ratio_coefficient_deterministic(workdir, capsys):
    argv = ["plot-data", "--kind", "ratio-coefficient", "--rho", "101/100",
            "--lam", "1/2", "--n-from", 2, "--n-to", 50, "--n-step", 2]
    code, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code == code2 == 0
    assert out1 == out2


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
            {},
            ["plot-data", "--kind", "ratio-coefficient", "--n-from", "0"],
            id="plot-data-population-zero",
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
    capsys.readouterr()


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "welfareax", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "compare" in result.stdout
