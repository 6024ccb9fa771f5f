"""``validate`` on hand-edited certificates: one row per refusal of the validator.

Each row edits one fixture under ``tests/data/certificates`` in memory and
names the exit code and the failure text. Exit 1 is a certificate that
parses but does not validate, with the failure on its step line; exit 2 is
one that does not parse, with one ``error:`` line.
"""

from pathlib import Path

import pytest

from welfareax.cli import main

CERTIFICATES = Path(__file__).parent / "data" / "certificates"


def _lines(name: str) -> list[str]:
    return (CERTIFICATES / name).read_text().splitlines()


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _edit(name: str, old: str, new: str) -> str:
    text = (CERTIFICATES / name).read_text()
    assert old in text
    return text.replace(old, new, 1)


CHAIN2 = _lines("chain2_0.cert")  # header, chain line, then a lift opens the chain
CHAIN3 = _lines("chain3_2.cert")  # 3 steps, a descent, 2 steps and a weak Pareto terminal
TERMINAL = CHAIN3[-1]
assert TERMINAL == "terminal axiom=weak_pareto u=4,9*25 v=3,6*23,3*19"

CASES = {
    "lift-not-first": (
        _text(CHAIN2[:3] + CHAIN2[2:]), 1, "step 1: lift step must open the chain",
    ),
    "descent-without-segment": (
        _text(CHAIN3[:2] + CHAIN3[5:]), 1, "step 0: descent without an established segment",
    ),
    "lift-not-replicated-base": (
        _edit("chain2_0.cert", "lift k=7 ", "lift k=6 "),
        1,
        "step 0: from-profile is not the k-replicated base",
    ),
    "contradiction-without-terminal": (
        _text(CHAIN3[:-1]), 1, "step 6: contradiction chain needs a terminal Pareto step",
    ),
    "empty-chain": (_text(CHAIN3[:2] + [TERMINAL]), 1, "step 0: empty chain"),
    "terminal-clauses-fail": (
        _edit("chain3_2.cert", "u=4,9*25 v=3,6*23,3*19", "u=3,6*23,3*19 v=4,9*25"),
        1,
        "step 6: u <= v at positions 0..0",
    ),
    "terminal-not-strict": (
        _edit("chain3_2.cert", TERMINAL, "terminal axiom=strong_pareto u=4,9*25 v=4,9*25"),
        1,
        "step 6: terminal Pareto step must be strict",
    ),
    "dominance-with-terminal": (
        _edit("chain4_1.cert", "pi=0,1\n", "pi=0,1\nterminal axiom=weak_pareto u=2*9 v=1,2\n"),
        1,
        "step 3: dominance chain carries no terminal",
    ),
    "malformed-token": (
        _edit("chain4_1.cert", "to=1,2 pi=0,1", "to=1,2 pi=0,1 bogus"),
        2,
        "error: malformed token 'bogus' in line",
    ),
    "terminal-not-pareto": (
        _edit("chain4_1.cert", "pi=0,1\n", "pi=0,1\nterminal axiom=anonymity u=1,2 v=1,2 pi=0,1\n"),
        2,
        "error: terminal must be a Pareto instance in line",
    ),
    "unknown-line-word": (
        _edit("chain4_1.cert", "step axiom=strong_pareto", "leap axiom=strong_pareto"),
        2,
        "error: unknown certificate line 'leap' in line",
    ),
    "missing-field": (
        _edit("chain4_1.cert", " to=2*9", ""),
        2,
        "error: missing field 'to' in line 'step axiom=strong_pareto from=1,2'",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_validate_refuses_a_bad_certificate(case, tmp_path, capsys):
    text, exit_code, failure = CASES[case]
    cert = tmp_path / "c.cert"
    cert.write_text(text)
    code = main(["validate", "--certificate", str(cert)])
    out, err = capsys.readouterr()
    assert code == exit_code
    if exit_code == 1:
        assert not err and f"  {failure}" in out.splitlines(), out
    else:
        assert not out and len(err.splitlines()) == 1 and err.startswith(failure), err
