"""The package's layers import only the layers below them.

Every CLI query runs in a fresh interpreter, and each subcommand imports
the layers it runs inside its `cmd_*` function, so at module level `cli`
imports no package module but `errors` and `lattice`.  The float layer
`dirac` stands on `errors` and `lattice` alone (the Gaussian and QHO
submodule rules and the numpy routing rule it shares with the exact layers
live in `lattice`), and no exact layer imports `dirac`, at any level.  The
bottom layers `lattice` and `exactnum` import no package module but
`errors`, and `exactnum` is exact arithmetic only: it imports neither
`cmath`, `sys` nor numpy.  This test parses each module under
src/finiteweyl with `ast`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finiteweyl"
EXACT = ("exactnum", "lattice", "repmod", "morphism", "transform", "products")

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _nodes(node, module_level):
    """The nodes under node; when module_level, none inside a function, whose
    body runs only when it is called (class bodies run at import)."""
    for child in ast.iter_child_nodes(node):
        if module_level and isinstance(child, FUNCTIONS):
            continue
        yield child
        yield from _nodes(child, module_level)


def package_imports(tree, module_level=True):
    """The package modules a module's import statements load: those that run
    when it is imported, or, with module_level False, every one."""
    found = set()
    for node in _nodes(tree, module_level):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level:  # absolute: only the package's own modules count
                if parts[0] != "finiteweyl":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x, from finiteweyl import x
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("finiteweyl."))
    return found


def other_imports(tree):
    """The top-level names of every module outside the package that a
    module's import statements load, at any level."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
    return found - {"finiteweyl"}


def parse(module):
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


def imports_of(module, module_level=True):
    return package_imports(parse(module), module_level)


def test_cli_loads_errors_and_lattice_alone():
    assert imports_of("cli") <= {"errors", "lattice"}


def test_dirac_stands_on_errors_and_lattice():
    assert imports_of("dirac", module_level=False) <= {"errors", "lattice"}


def test_bottom_layers_stand_on_errors_alone():
    assert {m: imports_of(m, module_level=False) - {"errors"} for m in ("lattice", "exactnum")} == {
        "lattice": set(), "exactnum": set()}


def test_exactnum_loads_no_float_modules():
    assert other_imports(parse("exactnum")) & {"cmath", "sys", "numpy"} == set()


def test_no_exact_layer_imports_dirac():
    assert {m for m in EXACT if "dirac" in imports_of(m, module_level=False)} == set()


def test_checker_finds_each_kind_of_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import json\n"
        "import finiteweyl\n"
        "from .errors import X\n"
        "from . import exactnum, repmod\n"
        "import finiteweyl.morphism as m\n"
        "from finiteweyl.transform import fourier\n"
        "if True:\n"
        "    from finiteweyl import products\n"
        "class C:\n"
        "    from .lattice import WeylDesc\n"
        "    def method(self):\n"
        "        from .dirac import auto_mu\n"
        "def cmd(args):\n"
        "    from . import dirac\n"
        "    f = lambda: __import__('x')\n"
    )
    module_level = {"errors", "exactnum", "repmod", "morphism", "transform", "products", "lattice"}
    assert package_imports(tree) == module_level
    assert package_imports(tree, module_level=False) == module_level | {"dirac"}
    assert other_imports(tree) == {"__future__", "json"}
