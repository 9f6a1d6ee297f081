"""`cli._emit` is the one writer of a report and the one source of its exit code.

Each `cmd_*` subcommand returns its (meta, results, checks, rows) and
`main` hands them to `_emit`, which writes JSON or CSV and returns 0 when
every check passed, 1 otherwise.  A subcommand that printed, opened a
file, dumped JSON, built a CSV writer, called `_emit` itself or returned
an exit code of its own would be a second writer; this test parses
`cli.py` and fails on any of them, and on `_emit` called from anywhere but
one place.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "finiteweyl" / "cli.py"

# names whose call writes output: plain names and attribute names
WRITERS = {"_emit", "print", "open", "dump", "writer"}


def called_name(call):
    """The name a call invokes: `f` for f(...), `attr` for obj.attr(...)."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def writes_in_commands(tree):
    """(function, line, what) for each writer call or int-literal return
    inside a top-level `cmd_*` function, nested functions included."""
    found = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and called_name(node) in WRITERS:
                found.append((fn.name, node.lineno, called_name(node)))
            elif (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                  and type(node.value.value) is int):
                found.append((fn.name, node.lineno, f"return {node.value.value}"))
    return sorted(found, key=lambda f: f[1])


def emit_call_sites(tree):
    """Names of the top-level functions that call `_emit`, once per call."""
    return [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Call) and called_name(node) == "_emit"]


def test_commands_write_nothing():
    assert writes_in_commands(ast.parse(CLI.read_text(), filename=str(CLI))) == []


def test_emit_is_called_from_main_alone():
    assert emit_call_sites(ast.parse(CLI.read_text(), filename=str(CLI))) == ["main"]


def test_checker_finds_each_kind_of_writer():
    tree = ast.parse(
        "def cmd_a(args):\n"
        "    print('x')\n"
        "    _emit({}, args)\n"
        "    return 0\n"
        "def cmd_b(args):\n"
        "    def inner():\n"
        "        with open(args.out, 'w') as f:\n"
        "            json.dump({}, f)\n"
        "        return csv.writer(f)\n"
        "    return {}, {}, [], None\n"
        "def helper(args):\n"
        "    print('not a command')\n"
        "    return 0\n"
        "def main(argv):\n"
        "    return _emit(args, *args.func(args))\n"
        "def other(args):\n"
        "    _emit(args, {}, {}, [], None)\n"
    )
    assert writes_in_commands(tree) == [
        ("cmd_a", 2, "print"), ("cmd_a", 3, "_emit"), ("cmd_a", 4, "return 0"),
        ("cmd_b", 7, "open"), ("cmd_b", 8, "dump"), ("cmd_b", 9, "writer"),
    ]
    assert emit_call_sites(tree) == ["cmd_a", "main", "other"]
