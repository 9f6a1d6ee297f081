"""Every parameter with a default in the package is passed by some call.

A default that no call in src/, tests/ or bench/ overrides is an option
nothing uses: the parameter and its docstring clause should go.  Calls are
matched by the called name alone (f(...) or obj.f(...)), so a name that
several functions share counts for all of them.  A call of a class is a
call of its __init__.  A starred name whose length its file shows (every
binding of it is a literal tuple or list, or a for target over a literal
list of equal-length ones) passes that many positional arguments; any other
*args or **kwargs passes every parameter.
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


def literal_length(node):
    """The length of a literal tuple or list without starred items, else None."""
    if isinstance(node, (ast.Tuple, ast.List)) and not any(isinstance(e, ast.Starred) for e in node.elts):
        return len(node.elts)
    return None


def starred_lengths(tree):
    """name -> length for each name that every binding in tree gives one known
    length: `name = literal` or `for name in [literal, ...]`."""
    lengths, targets = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            target, sizes = node.targets[0], {literal_length(node.value)}
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            elts = node.iter.elts if isinstance(node.iter, (ast.Tuple, ast.List)) else [None]
            target, sizes = node.target, {literal_length(e) for e in elts} or {None}
        else:
            continue
        targets.add(id(target))
        lengths.setdefault(target.id, set()).update(sizes)
    # any other binding of the name (an argument, a with or comprehension
    # target, a second assignment form) leaves its length unknown
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            lengths[node.arg] = {None}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and id(node) not in targets:
            lengths[node.id] = {None}
    return {name: n for name, (n, *more) in lengths.items() if n is not None and not more}


def calls(trees):
    """called name -> (keywords passed, most positional arguments, any starred call)."""
    seen = {}
    for tree in trees:
        lengths = starred_lengths(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            kws, most, starred = seen.get(name, (frozenset(), 0, False))
            count = 0
            for a in node.args:
                if not isinstance(a, ast.Starred):
                    count += 1
                elif isinstance(a.value, ast.Name) and a.value.id in lengths:
                    count += lengths[a.value.id]
                else:
                    starred = True
            starred = starred or any(k.arg is None for k in node.keywords)
            seen[name] = (kws | {k.arg for k in node.keywords}, max(most, count), starred)
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


def test_checker_counts_starred_names_of_known_length():
    defined = [ast.parse(
        "def qho(M, e, f, c, extra=None): pass\n"
        "def h(a, b, c=0): pass\n"
        "def r(a=0, b=0): pass\n"
        "def p(a=0, b=0): pass\n"
        "def z(a=0, b=0): pass\n"
    )]
    callers = [ast.parse(
        "for t in [(3, 4, 5), (4, 3, 5)]:\n"
        "    qho(M, *t)\n"
        "u = [1, 2]\n"
        "h(*u)\n"
        "v = (1,)\n"
        "v += (2,)\n"
        "r(*v)\n"
        "for w in [(1,), (1, 2)]:\n"
        "    p(*w)\n"
        "x = (1,)\n"
        "def run(x):\n"
        "    z(*x)\n"
    )]
    # t and u have one known length; v is rebound, w's items differ in length
    # and x is also a parameter, so those calls still pass everything
    assert dead_parameters(defined, callers) == ["qho(extra)", "h(c)"]
    callers = [ast.parse("t = (3, 4, 5)\nqho(M, *t)\nqho(M, *t, 0)\n")]
    assert "qho(extra)" not in dead_parameters(defined, callers)
