"""Every parameter with a default in the package is passed by some call.

A default that no call in src/, tests/ or bench/ overrides is an option
nothing uses: the parameter and its docstring clause should go.  Calls are
matched by the called name alone (f(...) or obj.f(...)), so a name that
several functions share counts for all of them.  A call of a class is a
call of its __init__, and a call with *args or **kwargs passes every
parameter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finiteweyl"
CALLERS = (ROOT / "src", ROOT / "tests", ROOT / "bench")


def defaulted_parameters(trees):
    """(called name, parameter, position) for each parameter with a default.

    position is the number of positional arguments a call passes before the
    parameter (self or cls not counted), or None for a keyword-only one.
    """
    out = []
    for tree in trees:
        classes = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)}
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list)
            bound = id(f) in classes and not static
            name = classes[id(f)] if bound and f.name == "__init__" else f.name
            positional = f.args.posonlyargs + f.args.args
            first = len(positional) - len(f.args.defaults)
            out += [(name, a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
            out += [(name, a.arg, None) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults)
                    if d is not None]
    return out


def calls(trees):
    """called name -> (keywords passed, most positional arguments, any starred call)."""
    seen = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            kws, most, starred = seen.get(name, (frozenset(), 0, False))
            starred = (starred or any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            seen[name] = (kws | {k.arg for k in node.keywords}, max(most, len(node.args)), starred)
    return seen


def dead_parameters(defined, callers):
    passed = calls(callers)
    dead = []
    for name, param, position in defaulted_parameters(defined):
        kws, most, starred = passed.get(name, (frozenset(), 0, False))
        if not (starred or param in kws or (position is not None and most > position)):
            dead.append(f"{name}({param})")
    return dead


def parse(paths):
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def test_every_default_is_passed_somewhere():
    defined = parse(sorted(PACKAGE.glob("*.py")))
    callers = parse(p for root in CALLERS for p in sorted(root.rglob("*.py")))
    assert dead_parameters(defined, callers) == []


def test_checker_reads_positions_keywords_classes_and_stars():
    defined = [ast.parse(
        "def f(a, b=1, *, c=2): pass\n"
        "def g(d=0): pass\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0): pass\n"
        "    def m(self, z=1): pass\n"
        "    @staticmethod\n"
        "    def s(w=1): pass\n"
    )]
    callers = [ast.parse("f(1, 2)\nK(x=1)\nK(0)\nk.m(*args)\nK.s(1)\ng(**kw)\n")]
    assert dead_parameters(defined, callers) == ["f(c)", "K(y)"]
    assert dead_parameters(defined, []) == ["f(b)", "f(c)", "g(d)", "K(x)", "K(y)", "m(z)", "s(w)"]
