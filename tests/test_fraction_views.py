"""The valuation kernels read a profile's stored ints, never its ``Fraction`` views.

``orderings.py`` and ``gfunctions.py`` evaluate levels given as an int
numerator over the profile's denominator (``den``, ``numerators``,
``counts`` and ``ranked``). The ``Fraction`` views (``blocks``,
``sorted_blocks``, ``value_at``, ``levels`` and ``iter_levels``) serve the
text form, the chain builders and the public API; a kernel that read them
would build a ``Fraction`` per level again.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "welfareax"
KERNELS = [PACKAGE / "orderings.py", PACKAGE / "gfunctions.py"]
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
