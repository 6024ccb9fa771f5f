"""Every profile the package builds goes through ``Profile``'s normalizing constructors.

Equality and hashing compare the stored int form, so a profile whose blocks
were not merged or whose denominator was not the least one would compare
unequal to the same levels. Only ``profiles.py``, which owns the form, may
call ``Profile(...)`` directly; every other module uses ``from_numerators``,
``from_blocks``, ``from_levels`` or ``constant``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "welfareax"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "profiles.py")


def direct_profile_calls(source: str) -> list[int]:
    """The lines that call ``Profile`` itself, by name or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "Profile"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "Profile"
        )
    )


def test_the_check_sees_a_direct_call():
    source = "Profile(1, (2,), (1,))\nProfile.from_blocks([])\nx = profiles.Profile(u)\n"
    assert direct_profile_calls(source) == [1, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_profiles_are_built_through_the_normalizer(path):
    assert direct_profile_calls(path.read_text(encoding="utf-8")) == []
