"""The valuation kernels and the certificate path read a profile's stored ints,
never its ``Fraction`` views.

``orderings.py`` and ``gfunctions.py`` evaluate levels given as an int
numerator over the profile's denominator (``den``, ``numerators``,
``counts`` and ``ranked``). ``chains.py`` and the profile text reader and
writer (``parse_profile_line`` with its ``_parse_entry``, and
``serialize_profile``) read and write certificate profiles on the same
ints. The ``Fraction`` views (``blocks``, ``sorted_blocks``, ``value_at``,
``levels`` and ``iter_levels``) serve the chain builders, shrinking and the
public API; a kernel or the certificate path that read them would build a
``Fraction`` per level again.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "welfareax"
KERNELS = [PACKAGE / "orderings.py", PACKAGE / "gfunctions.py", PACKAGE / "chains.py"]
TEXT_IO = ["parse_profile_line", "_parse_entry", "serialize_profile"]
FRACTION_VIEWS = {"blocks", "sorted_blocks", "value_at", "levels", "iter_levels"}


def fraction_view_reads(source: str) -> list[int]:
    """The lines that read an attribute named like a ``Fraction`` view of a profile."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in FRACTION_VIEWS
    )


def test_the_check_sees_a_fraction_view():
    source = "u.sorted_blocks()\nu.ranked\nfor x in p.blocks: pass\nu.value_at(0)\nblocks = 1\n"
    assert fraction_view_reads(source) == [1, 3, 4]


@pytest.mark.parametrize("path", KERNELS, ids=lambda path: path.name)
def test_kernels_read_the_stored_ints(path):
    assert fraction_view_reads(path.read_text(encoding="utf-8")) == []


def function_source(path: Path, name: str) -> str:
    """The source of the module-level function ``name`` in path."""
    source = path.read_text(encoding="utf-8")
    node = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == name
    )
    return ast.get_source_segment(source, node)


@pytest.mark.parametrize("name", TEXT_IO)
def test_profile_text_io_reads_the_stored_ints(name):
    assert fraction_view_reads(function_source(PACKAGE / "profiles.py", name)) == []
