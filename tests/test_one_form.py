"""Each axiom and ordering type states its own rules, and no method is a stub.

The unions ``AxiomInstance`` and ``OrderingSpec`` are the one list of their
types. Every axiom type has ``profile_clauses`` and ``generate``, every
donor-family type its two clause rules and their texts (and ``roles``
where it draws through ``_Donors.generate``), and every ordering has
``value``, in its own class or in a package base it shares. A
stdlib-``ast`` pass refuses any function of the package whose body only
raises ``NotImplementedError``: such a stub states a contract that no path
runs.
"""

import ast
from pathlib import Path

import pytest

from welfareax.axioms import AxiomInstance, _Donors
from welfareax.orderings import OrderingSpec

PACKAGE = Path(__file__).parent.parent / "src" / "welfareax"
AXIOMS = AxiomInstance.__args__
DONOR_TYPES = [cls for cls in AXIOMS if issubclass(cls, _Donors)]


def _stubs(tree) -> list[str]:
    """Names of the functions whose body, past a docstring, is one ``raise NotImplementedError``."""
    stubs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if len(body) == 1 and isinstance(body[0], ast.Raise) and body[0].exc is not None:
                exc = body[0].exc.func if isinstance(body[0].exc, ast.Call) else body[0].exc
                if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                    stubs.append(node.name)
    return stubs


def test_the_check_sees_a_stub():
    tree = ast.parse(
        "class A:\n"
        "    def f(self):\n        raise NotImplementedError\n"
        "    def g(self):\n        '''Doc.'''\n        raise NotImplementedError('g')\n"
        "    def h(self):\n        raise ValueError\n"
        "    def k(self):\n        if self:\n            raise NotImplementedError\n        return 1\n"
    )
    assert _stubs(tree) == ["f", "g"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_function_is_a_stub(path):
    assert _stubs(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("cls", AXIOMS, ids=lambda cls: cls.tag)
def test_each_axiom_type_has_its_clauses_and_generator(cls):
    assert callable(getattr(cls, "profile_clauses", None))
    assert callable(getattr(cls, "generate", None))


@pytest.mark.parametrize("cls", DONOR_TYPES, ids=lambda cls: cls.tag)
def test_each_donor_type_has_its_rules_and_texts(cls):
    assert callable(getattr(cls, "donor_rule", None))
    assert callable(getattr(cls, "recipient_rule", None))
    for texts in (cls.donor_texts, cls.recipient_texts):
        assert texts and all(isinstance(text, str) for text in texts), texts
    if cls.generate.__func__ is _Donors.generate.__func__:
        assert callable(getattr(cls, "roles", None))


def test_the_donor_types_are_the_non_aggregation_and_aggregation_axioms():
    assert [cls.tag for cls in DONOR_TYPES] == [
        "minimal_non_aggregation", "strong_non_aggregation", "strong_non_aggregation_threshold",
        "stronger_non_aggregation", "quantitative_aggregation", "ratio_aggregation",
    ]


@pytest.mark.parametrize("cls", OrderingSpec.__args__, ids=lambda cls: cls.tag)
def test_each_ordering_has_its_value(cls):
    assert callable(getattr(cls, "value", None))
