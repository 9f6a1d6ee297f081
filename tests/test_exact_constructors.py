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
numpy is loaded only where an array pays for its import: `products` is the
one package module that imports it at load time, and the package imports
`products` at one site, inside `repmod.linear_combinations`, which decides
when the histogram kernel is worth that import.  Any other module-level
import of numpy, or any other import of `products`, fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finiteweyl"
OWNERS = {"exactnum", "products"}
CLASSES = {"Scalar", "Cyc"}
MEMO_OWNER = "repmod"
CACHES = {"cache", "lru_cache"}
NUMPY_OWNER = "products"
PRODUCTS_SITE = ("repmod.py", "linear_combinations")


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


def imported_names(node):
    """First component of each module an import statement loads, with the
    package prefix dropped: `numpy` for `import numpy.linalg as la`,
    `products` for `from . import products` or `from .products import f`."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif node.module in (None, "finiteweyl"):  # `from . import x`: x is a module
        names = [a.name for a in node.names]
    else:
        names = [node.module]
    return [n.removeprefix("finiteweyl.").split(".")[0] for n in names]


def import_sites(tree):
    """(line, enclosing function or None, module) for each module an import loads."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((node.lineno, func, name) for name in imported_names(node))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def numpy_at_load(tree):
    """Lines that import numpy outside every function body."""
    return [line for line, func, name in import_sites(tree) if name == "numpy" and func is None]


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


def test_only_products_imports_numpy_at_load():
    found = {name: numpy_at_load(tree) for name, tree in parsed_modules({NUMPY_OWNER}).items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_products_is_imported_at_one_lazy_site():
    found = [(name, func) for name, tree in parsed_modules(set()).items()
             for _, func, module in import_sites(tree) if module == "products"]
    assert found == [PRODUCTS_SITE]


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


def test_checker_finds_imports_and_their_functions():
    # imports in a class body, a try or an if run at load; those in a def do not
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy import arange\n"
        "import numpyro, numpy.linalg\n"
        "from . import products, repmod\n"
        "from .products import monomial_products\n"
        "import finiteweyl.products\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    pass\n"
        "class A:\n"
        "    from numpy import pi\n"
        "def f():\n"
        "    import numpy\n"
        "    def g():\n"
        "        from finiteweyl import products\n"
        "    return g\n"
        "from .exactnum import dot\n"
    )
    assert numpy_at_load(tree) == [1, 2, 3, 8, 12]
    assert [(line, func) for line, func, name in import_sites(tree) if name == "products"] == [
        (4, None), (5, None), (6, None), (16, "g")]
    assert [name for line, _, name in import_sites(tree) if line in (3, 4, 18)] == [
        "numpyro", "numpy", "products", "repmod", "exactnum"]
