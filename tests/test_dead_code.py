"""Every top-level function and class in the package is reached by a runner.

A runner is the CLI (the pyproject entry point), the benchmark in bench/,
or the acceptance gate in tests/test_acceptance.py.  The roots are the
entry point, every name loaded at module level in src/ (imports, constants,
decorators) and every name loaded anywhere in the runners' files.  From the
roots, references are followed through the bodies of top-level functions
and classes, matched by name alone, so a name that several modules define
counts for all of them.  Strings do not count: `finiteweyl._EXPORTS` keys
re-export names, they do not run them.  Code that only unit tests reach
belongs in those tests.
"""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finiteweyl"
RUNNERS = (*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py")

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def loads(node):
    """Names that `node` loads: `x`, the `.x` of `obj.x`, and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def module_level_loads(tree):
    """Names a module loads when it is imported: its statements other than
    definitions, and the decorators of its definitions."""
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, DEFS):
            for dec in stmt.decorator_list:
                out |= loads(dec)
        else:
            out |= loads(stmt)
    return out


def dead_code(defined, roots):
    """`module.name` of each top-level definition in `defined` (module name ->
    tree) that no chain of references from `roots` reaches.  A dunder such as
    a module's `__getattr__` is a root too: the interpreter calls it."""
    defs = [(mod, stmt) for mod, tree in defined.items() for stmt in tree.body if isinstance(stmt, DEFS)]
    reached = set()
    todo = set(roots) | {stmt.name for _, stmt in defs if stmt.name.startswith("__") and stmt.name.endswith("__")}
    while todo:
        name = todo.pop()
        reached.add(name)
        for _, stmt in defs:
            if stmt.name == name:
                todo |= loads(stmt) - reached
    return [f"{mod}.{stmt.name}" for mod, stmt in defs if stmt.name not in reached]


def entry_points():
    """Function names of the pyproject console scripts, e.g. `main`."""
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    return {target.rpartition(":")[2] for target in scripts.values()}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_definition_is_reached_by_a_runner():
    defined = {p.stem: parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    roots = entry_points()
    for tree in defined.values():
        roots |= module_level_loads(tree)
    for path in RUNNERS:
        roots |= loads(parse(path))
    assert dead_code(defined, roots) == []


def test_checker_follows_chains_and_module_level_imports():
    tree = ast.parse(
        "from .other import g\n"
        "LIMIT = limit()\n"
        "def main(): return f()\n"
        "def f(): return obj.attr\n"
        "def attr(): pass\n"
        "def g(): pass\n"
        "def limit(): pass\n"
        "def h(): return k()\n"
        "def k(): return 'main'\n"
        "class C:\n"
        "    def method(self): return h()\n"
        "def __getattr__(name): return hook()\n"
        "def hook(): pass\n"
    )
    roots = {"main"} | module_level_loads(tree)
    # main -> f -> attr by chain, g by the import, limit by the constant, hook
    # through the dunder; the unreached chain h -> k is named in full, and a
    # string is not a reference
    assert dead_code({"m": tree}, roots) == ["m.h", "m.k", "m.C"]
    assert dead_code({"m": tree}, {"C"}) == ["m.main", "m.f", "m.attr", "m.g", "m.limit"]
