"""The exact CLI commands print the recorded stdout, byte for byte.

golden_cli.json holds, per command, its argv, exit code and stdout as
`finiteweyl <argv>` printed them before the product, word and QHO code
paths were merged.  Commands whose output is a numpy float sum
(`propagator`, `trace`, `converge`) are left out: their last bits may
differ between machines.  The N = 6 bases pin the order-dependent
`Cyc.canonical` strings (ζ₆ printed as `-1/6 + 1/6*z6^1`), so a change to
that form shows here as a deliberate update of the golden file.
"""

import json
from pathlib import Path

import pytest

from finiteweyl.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_stdout_matches_golden(capsys, case):
    code = main(list(case["argv"]))
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
