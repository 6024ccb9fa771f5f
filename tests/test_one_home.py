"""Each default and rule that several commands share is written once in the package.

A stdlib-``ast`` check: the default draw ranges are one tuple literal each,
every option that several CLI commands take is declared by one
``add_argument`` call, and the ``alpha > beta > 0`` refusal is written only
by the axiom type that owns it and by ``lambda_feasible_interval``, which
sits below the axioms in the import graph.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "welfareax"
TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))
}
# how many add_argument calls declare each shared option: replay's --params reads
# builder parameters, not axiom magnitudes, and is an option of its own
SHARED_OPTIONS = {
    "--ordering": 1, "--params": 2, "--populations": 1, "--values": 1, "--seed": 1, "--locate": 1
}


def _tuple_literals(tree) -> Counter:
    """How many times each tuple of numbers is written."""
    tuples = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple):
            try:
                value = ast.literal_eval(node)
            except ValueError:
                continue
            if all(isinstance(x, int | float) for x in value):
                tuples[value] += 1
    return tuples


def _declared_options(tree) -> Counter:
    """How many ``add_argument`` calls take each option as their first argument."""
    return Counter(
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    )


def test_the_checks_see_a_restated_default():
    tree = ast.parse(
        "p.add_argument('--seed', default=(2, 10))\n"
        "q.add_argument('--seed', type=int)\n"
        "def f(values=(-20, 20)): pass\n"
    )
    assert _tuple_literals(tree)[(2, 10)] == 1 and _tuple_literals(tree)[(-20, 20)] == 1
    assert _declared_options(tree)["--seed"] == 2


@pytest.mark.parametrize("draw_range", [(2, 10), (-20, 20)], ids=str)
def test_each_default_draw_range_is_written_once(draw_range):
    assert sum(_tuple_literals(tree)[draw_range] for tree in TREES.values()) == 1


@pytest.mark.parametrize("option", SHARED_OPTIONS)
def test_each_shared_cli_option_is_declared_once(option):
    assert _declared_options(TREES["cli.py"])[option] == SHARED_OPTIONS[option]


def test_no_command_reads_its_pairs_or_builder_defaults_its_own_way():
    cli = TREES["cli.py"]
    names = {node.name for node in ast.walk(cli) if isinstance(node, ast.FunctionDef)}
    assert not names & {"_int_pair", "_level_pair"}
    (replay,) = [
        node for node in ast.walk(cli)
        if isinstance(node, ast.FunctionDef) and node.name == "cmd_replay"
    ]
    # a builder's own default is passed as read, not filtered out as None
    filters = [
        ast.unparse(test)
        for node in ast.walk(replay)
        if isinstance(node, ast.comprehension)
        for test in node.ifs
    ]
    assert not [test for test in filters if test.endswith("is not None")], filters


def test_the_alpha_beta_refusal_has_one_home_above_the_orderings():
    writers = {
        name
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "need alpha > beta > 0"
    }
    assert writers == {"axioms.py", "orderings.py"}
