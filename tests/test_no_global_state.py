"""No module of the package rebinds a module-level name at run time.

Every decision the package makes follows from its arguments and from what
the process has loaded: a router that counted earlier sums made one call's
route depend on every call before it.  Caches of pure functions
(`functools.lru_cache`) and `repmod.PhaseTable` keep values, not decisions,
and need no `global` statement.  Any `global` statement in a module of the
package fails this test.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finiteweyl"


def global_statements(tree):
    """(line, name) for each name a `global` statement declares, at any depth."""
    return sorted((node.lineno, name) for node in ast.walk(tree)
                  if isinstance(node, ast.Global) for name in node.names)


def test_no_global_statements():
    found = {p.name: global_statements(ast.parse(p.read_text(), filename=str(p)))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_checker_finds_globals_at_any_depth_only():
    # nested defs and methods count; nonlocal, assignments and names merely
    # containing "global" do not
    tree = ast.parse(
        "count = 0\n"
        "def f():\n"
        "    global count\n"
        "    count += 1\n"
        "class A:\n"
        "    def g(self):\n"
        "        def h():\n"
        "            global x, y\n"
        "        return h\n"
        "def k():\n"
        "    total = 0\n"
        "    def m():\n"
        "        nonlocal total\n"
        "    global_total = total\n"
    )
    assert global_statements(tree) == [(3, "count"), (8, "x"), (8, "y")]
