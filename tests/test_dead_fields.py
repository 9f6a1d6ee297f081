"""Every dataclass or NamedTuple field in the package is read somewhere.

A field that no code in src/, tests/ or bench/ reads as an attribute
(obj.field) is stored for nothing: the field and what fills it should go.
Reads are matched by the attribute name alone, so a name that several
classes share counts for all of them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finiteweyl"
READERS = (ROOT / "src", ROOT / "tests", ROOT / "bench")


def named(node, name):
    """True for `name` or `module.name`."""
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name)


def is_record(cls):
    """True for a class decorated with @dataclass (called or not) or deriving from NamedTuple."""
    return (any(named(d.func if isinstance(d, ast.Call) else d, "dataclass") for d in cls.decorator_list)
            or any(named(b, "NamedTuple") for b in cls.bases))


def fields(trees):
    """(class, field) for each annotated field of a dataclass or NamedTuple."""
    return [(cls.name, node.target.id) for tree in trees for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and is_record(cls)
            for node in cls.body if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def dead_fields(defined, readers):
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{cls}.{name}" for cls, name in fields(defined) if name not in read]


def parse(paths):
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def test_every_field_is_read_somewhere():
    defined = parse(sorted(PACKAGE.glob("*.py")))
    readers = parse(p for root in READERS for p in sorted(root.rglob("*.py")))
    assert dead_fields(defined, readers) == []


def test_checker_reads_dataclasses_namedtuples_and_loads_only():
    defined = [ast.parse(
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "class P(typing.NamedTuple):\n"
        "    u: int\n"
        "    v: int\n"
        "class Plain:\n"
        "    z: int\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class B:\n"
        "    w: int\n"
    )]
    # a store is not a read, and a class that is neither record kind is skipped
    readers = [ast.parse("a.x\np.v = 1\nprint(q.u)\nb.z\n")]
    assert dead_fields(defined, readers) == ["A.y", "P.v", "B.w"]
    assert dead_fields(defined, []) == ["A.x", "A.y", "P.u", "P.v", "B.w"]
