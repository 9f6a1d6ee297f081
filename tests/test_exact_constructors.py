"""Exact values are built directly only where their representation is decided.

`exactnum` owns the Cyc and Scalar representations, and `products` decodes
its histogram kernel's sums into them.  Every other module builds exact
values through their arithmetic or named constructors (Scalar.phase,
Cyc.rational, ...), so each convention about orders, exponents and
radicands lives in one place.  A direct `Scalar(...)` or `Cyc(...)` call
in any other module of the package fails this test.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finiteweyl"
OWNERS = {"exactnum", "products"}
CLASSES = {"Scalar", "Cyc"}


def called_name(func):
    """The name a call goes to: `name` or the attribute of `module.name`."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def direct_constructions(tree):
    """(line, class) for each call of Scalar(...) or Cyc(...), bare or as module.Class."""
    return [(node.lineno, name) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and (name := called_name(node.func)) in CLASSES]


def test_only_owners_construct_exact_values():
    found = {p.name: direct_constructions(ast.parse(p.read_text(), filename=str(p)))
             for p in sorted(PACKAGE.glob("*.py")) if p.stem not in OWNERS}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_checker_flags_bare_and_qualified_calls_only():
    tree = ast.parse(
        "a = Scalar(1, c)\n"
        "b = Scalar.phase(t) * Cyc.rational(1)\n"
        "d = exactnum.Cyc(4, {1: one})\n"
        "e = Scalar.zero()\n"
        "f = build(Scalar, Cyc)\n"
        "g = [Cyc(2, {}) for _ in range(3)]\n"
    )
    assert sorted(direct_constructions(tree)) == [(1, "Scalar"), (3, "Cyc"), (6, "Cyc")]
