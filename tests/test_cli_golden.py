"""The exact CLI commands print the recorded stdout, byte for byte.

golden_cli.json holds, per command, its argv, exit code and stdout as
`finiteweyl <argv>` printed them before the product, word and QHO code
paths were merged.  Commands whose output is a numpy float sum
(`propagator`, `trace`, `converge`) are left out: their last bits may
differ between machines.  `basis` prints each amplitude in the one
canonical form of `Scalar.canonical` (the Zumbroich basis at the conductor),
which does not depend on how the value was built; the N = 6 bases were
re-recorded when that form replaced the power basis (ζ₆ had printed as
`1/6*z6^1`, and −1 − ζ₃ as `-1/6 + -1/6*z3^1`).  Every recorded `basis`
string is also read back as a value and compared with the library's
amplitude, so the golden file holds values as well as strings.
"""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from finiteweyl.cli import main, parse_desc
from finiteweyl.exactnum import Scalar
from finiteweyl.lattice import GenWord
from finiteweyl.repmod import SpecPoint, build_module, s_basis, u_basis, v_basis

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
BASES = [c for c in GOLDEN if c["argv"][0] == "basis"]


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_stdout_matches_golden(capsys, case):
    code = main(list(case["argv"]))
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


def value(text):
    """The Scalar that `Scalar(sqrt(r)*(terms))` or `Scalar(terms)` prints,
    each term `c` or `c*zM^k`."""
    m = re.fullmatch(r"Scalar\((?:sqrt\((\d+)\)\*\((.*)\)|(.*))\)", text)
    rad, terms = (int(m[1]), m[2]) if m[1] else (1, m[3])
    total = Scalar.zero()
    for term in terms.split(" + "):
        c, _, root = term.partition("*z")
        order, _, k = root.partition("^")
        total = total + Scalar(int(order or 1), {int(k or 0): Fraction(c)})
    return Scalar.exact(total, rad)


@pytest.mark.parametrize("case", BASES, ids=[" ".join(c["argv"]) for c in BASES])
def test_basis_strings_are_the_amplitudes(case):
    opts = dict(zip(case["argv"][1::2], case["argv"][2::2]))
    M = build_module(parse_desc(opts["--alg"], "--alg"), SpecPoint.principal_point())
    if opts["--which"] == "s":
        S, T = (GenWord(*map(Fraction, opts[k].split(","))) for k in ("--s-word", "--t-word"))
        basis = s_basis(M, S, T)
    else:
        basis = {"u": u_basis, "v": v_basis}[opts["--which"]](M)
    recorded = json.loads(case["stdout"])["results"]["basis"]
    assert len(recorded) == len(basis)
    for strings, vec in zip(recorded, basis):
        assert len(strings) == len(vec.amps)
        for text, amp in zip(strings, vec.amps):
            assert value(text) == amp, text
