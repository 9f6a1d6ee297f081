"""Exact values are built and read apart only where their representation is decided.

`exactnum` owns the Scalar representation, and `products` decodes its
histogram kernel's sums into it.  Every other module builds exact values
through their arithmetic or named constructors (Scalar.phase,
Scalar.rational, ...), so each convention about orders, exponents and
radicands lives in one place.  A direct `Scalar(...)` or `Cyc(...)` call
in any other module of the package fails this test.  So does a read of
`.cyc`, the factor without the radical, anywhere in the package but
`exactnum`: other modules read `.order`, `.coeffs` and `.rad` directly.
Scaled powers of q are memoised by `repmod.PhaseTable` alone: a `dict`
subclass, or a lambda wrapped in `functools.cache`/`lru_cache`, in any
other module fails here too (a decorated def, a cache of a function of
its own arguments, does not count).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finiteweyl"
OWNERS = {"exactnum", "products"}
CLASSES = {"Scalar", "Cyc"}
MEMO_OWNER = "repmod"
CACHES = {"cache", "lru_cache"}


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


def cyc_reads(tree):
    """Lines that read an attribute named `cyc`."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "cyc" and isinstance(node.ctx, ast.Load))


def hand_rolled_memos(tree):
    """(line, kind) for each class deriving from dict and each call that wraps
    a lambda in cache(...) or lru_cache(...)(...), bare or as functools.name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(called_name(b) == "dict" for b in node.bases):
            out.append((node.lineno, "dict subclass"))
        elif isinstance(node, ast.Call) and any(isinstance(a, ast.Lambda) for a in node.args):
            func = node.func.func if isinstance(node.func, ast.Call) else node.func
            if called_name(func) in CACHES:
                out.append((node.lineno, "cached lambda"))
    return sorted(out)


def parsed_modules(skip):
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py")) if p.stem not in skip}


def test_only_owners_construct_exact_values():
    found = {name: direct_constructions(tree) for name, tree in parsed_modules(OWNERS).items()}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_only_exactnum_reads_cyc():
    found = {name: cyc_reads(tree) for name, tree in parsed_modules({"exactnum"}).items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_repmod_memoises_phases():
    found = {name: hand_rolled_memos(tree) for name, tree in parsed_modules({MEMO_OWNER}).items()}
    assert {name: memos for name, memos in found.items() if memos} == {}


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


def test_checker_flags_cyc_reads_only():
    # a read anywhere in an expression counts; a store, a name and another
    # attribute that merely contains "cyc" do not
    tree = ast.parse(
        "a = s.cyc.coeffs\n"
        "b = f(x.cyc)\n"
        "s.cyc = c\n"
        "cyc = s.coeffs\n"
        "d = s.cyclic + s.cyc_order\n"
        "e = [t.cyc for t in xs]\n"
    )
    assert cyc_reads(tree) == [1, 2, 6]


def test_checker_flags_dict_classes_and_cached_lambdas_only():
    # decorated defs, caches of named functions and other lambdas do not count
    tree = ast.parse(
        "class A(dict): pass\n"
        "class B(Base, builtins.dict): pass\n"
        "class C(Base): pass\n"
        "f = cache(lambda t: t)\n"
        "g = functools.lru_cache(maxsize=None)(lambda t: t)\n"
        "@lru_cache(maxsize=32)\n"
        "def h(t): return t\n"
        "k = cache(h)\n"
        "m = sorted(xs, key=lambda t: t)\n"
    )
    assert hand_rolled_memos(tree) == [(1, "dict subclass"), (2, "dict subclass"),
                                       (4, "cached lambda"), (5, "cached lambda")]
