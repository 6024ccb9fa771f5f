"""Seeded token mutations of the certificate fixtures, fed to ``validate`` in process.

Each case replaces the value of one ``key=value`` token on a step line with a
hostile literal: zero and negative values, counts beyond an index or the
block limit, exponents beyond the float range, malformed numbers and profile
syntax. Whatever the mutation, ``validate`` answers with exit 0, 1 or 2, and
an exit 2 prints exactly one ``error:`` line; no exception escapes. A
mutation that still validates is a non-canonical certificate, not a failure
here.
"""

import random
from pathlib import Path

import pytest

from welfareax.cli import main

FIXTURES = sorted((Path(__file__).parent / "data" / "certificates").glob("*.cert"))
VALUES = (
    "0", "-1", "1000000000000", "1e400", "1e-400", "x", "", "1/0", "3*", "0*5", "-2*5",
    "12345678901234567890*3", "1,,2", "2/4",
)
STEP_WORDS = ("step", "lift", "descent")


def _mutation(rng: random.Random, lines: list[str]) -> str:
    """The certificate with one value of one step line's tokens replaced."""
    row = rng.choice([r for r, line in enumerate(lines) if line.split(" ", 1)[0] in STEP_WORDS])
    tokens = lines[row].split(" ")
    column = rng.choice([c for c, token in enumerate(tokens) if "=" in token])
    key = tokens[column].split("=", 1)[0]
    tokens[column] = f"{key}={rng.choice(VALUES)}"
    return "".join(lines[:row] + [" ".join(tokens)] + lines[row + 1:])


@pytest.mark.parametrize("seed", range(1, 5))
def test_mutated_certificates_exit_cleanly(tmp_path, capsys, seed):
    rng = random.Random(seed)
    texts = [path.read_text(encoding="utf-8").splitlines(keepends=True) for path in FIXTURES]
    assert len(texts) == 12
    path = tmp_path / "mutated.cert"
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(500):
        text = _mutation(rng, rng.choice(texts))
        path.write_text(text, encoding="utf-8")
        code = main(["validate", "--certificate", str(path)])
        err = capsys.readouterr().err
        assert code in codes, (code, text)
        codes[code] += 1
        if code == 2:
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (err, text)
    assert codes[2] > 0, codes
