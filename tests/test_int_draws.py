"""Every uniform int draw of instance generation goes through one helper.

``_GenContext.between(lo, hi)`` draws what ``random.Random.randint(lo, hi)``
draws, from the same stream, without its argument checks; the sizes, the
halves-grid levels, the donor counts and the recipient's position all go
through it. A ``randint``, ``randrange`` or ``_randbelow`` call elsewhere in
``axioms.py`` would be a second home for the same draw.
"""

import ast
from pathlib import Path

AXIOMS = Path(__file__).parent.parent / "src" / "welfareax" / "axioms.py"
INT_DRAWS = {"randint", "randrange", "_randbelow"}
HELPER = ("_GenContext", "between")


def int_draws_outside_the_helper(source: str) -> list[int]:
    """The lines that call an int draw of ``random.Random`` outside ``_GenContext.between``."""
    tree = ast.parse(source)
    inside = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == HELPER[0]:
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == HELPER[1]:
                    inside.update(id(node) for node in ast.walk(fn))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in inside
        and (
            isinstance(node.func, ast.Attribute) and node.func.attr in INT_DRAWS
            or isinstance(node.func, ast.Name) and node.func.id in INT_DRAWS
        )
    )


def test_the_check_sees_an_int_draw():
    source = (
        "rng.randint(1, 2)\n"
        "class _GenContext:\n"
        "    def between(self, lo, hi):\n"
        "        return lo + self.rng._randbelow(hi - lo + 1)\n"
        "    def size(self):\n"
        "        return self.rng.randrange(3)\n"
        "randint(0, 1)\n"
        "ctx.between(1, 2)\n"
    )
    assert int_draws_outside_the_helper(source) == [1, 6, 7]


def test_int_draws_have_one_home():
    assert int_draws_outside_the_helper(AXIOMS.read_text(encoding="utf-8")) == []
