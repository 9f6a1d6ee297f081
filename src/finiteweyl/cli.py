"""Command-line driver: lattice queries, basis dumps, transforms, propagators.

Each subcommand returns its report (meta, results, checks, rows), and
`_emit` alone writes it, as JSON or as CSV rows, and picks the exit code:
0 when all invoked checks pass tolerance, 1 on a tolerance failure.  `main`
exits 2 on precondition violations (the violated condition is named).
Rational inputs are strings "p/q" to avoid float parsing ambiguity.

Each subcommand imports the layers it runs when it runs, so a fresh
interpreter loads only these package modules besides `cli`, `errors` and
`lattice`:

    lattice                        nothing more
    basis                          exactnum, repmod
    pairing                        exactnum, repmod, morphism
    transform                      exactnum, repmod, morphism, transform
    propagator, trace, converge    dirac

numpy loads only for one sum large enough to pay for its import
(`lattice.numpy_pays`): an exact sum of PRODUCTS_IMPORT products in
`repmod.linear_combinations`, or a float sum of FLOAT_TERMS_IMPORT terms in
`dirac.quadratic_phase_sum` or `dirac.ccr_residual`.  `lattice`,
`basis`, `pairing`, small `transform` runs, `propagator qho` and every
`converge` but `free` start and finish without it, and so do `propagator
free`, `converge free` and `trace` while each of their sums stays below
FLOAT_TERMS_IMPORT terms (`propagator free --mu 240`, `trace qho --mu
auto`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from .errors import FiniteWeylError, OutOfRange
from .lattice import GenWord, WeylDesc, center, includes, join, maximal_commutative, q_order, up_functor

CSV_HEADER = ["mu", "N", "quantity", "x1", "x2", "re", "im", "closed_re", "closed_im", "abs_err"]


def parse_option(value: str, parse, option: str, form: str):
    """parse(value); a ValueError naming the option and its form when the
    conversion fails."""
    try:
        return parse(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{option} must be {form}, got {value!r}") from None


def parse_rat(s: str, option: str) -> Fraction:
    return parse_option(s, Fraction, option, 'a rational "p/q"')


def split_option(value: str, sep: str, parse: tuple, option: str, form: str) -> list:
    """value cut at sep, part i converted by parse[i]; a ValueError naming the
    option and its form when the number of parts or a conversion is wrong."""
    def convert(v):
        parts = v.split(sep)
        if len(parts) != len(parse):
            raise ValueError
        return [conv(x) for conv, x in zip(parse, parts)]

    return parse_option(value, convert, option, form)


def parse_time(s: str) -> Fraction:
    """--t, refused at 0 (no evolution) before gaussian_dim sees it."""
    t = parse_rat(s, "--t")
    if t == 0:
        raise ValueError(f"--t must be a nonzero rational, got {s!r}")
    return t


def parse_desc(s: str, option: str) -> WeylDesc:
    return WeylDesc(*split_option(s, ",", (Fraction, Fraction), option, '"a,b"'))


def _rat_pair(s: str) -> tuple[Fraction, Fraction]:
    a, b = s.split(",")  # a ValueError unless there are two parts
    return Fraction(a), Fraction(b)


def parse_desc_pair(s: str, option: str) -> tuple[WeylDesc, WeylDesc]:
    x, y = split_option(s, ";", (_rat_pair, _rat_pair), option, '"a,b;c,d"')
    return WeylDesc(*x), WeylDesc(*y)


def parse_triple(s: str) -> tuple[int, int, int]:
    return tuple(split_option(s, ",", (int, int, int), "--triple", '"e,f,c"'))


def fmt_rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _row(params, quantity: str, x1: float, x2: float, value: complex, closed: complex,
         err: float) -> list:
    """One CSV_HEADER row: a sampled value against its closed form."""
    return [params.mu, params.N, quantity, x1, x2, value.real, value.imag, closed.real, closed.imag, err]


def _emit(args, meta: dict, results: dict, checks: list[dict], rows: list | None) -> int:
    """Write the report: {meta, results, checks} as JSON, or under --format
    csv the rows of a command that has them, to stdout or --out.  The exit
    code: 0 when every check passed, 1 otherwise."""
    try:
        out = sys.stdout if args.out is None else open(args.out, "w")
    except OSError as exc:
        raise ValueError(f"cannot open --out {args.out!r}: {exc.strerror}") from exc
    try:
        if rows is not None and args.format == "csv":
            import csv  # only CSV output needs it

            w = csv.writer(out)
            w.writerow(CSV_HEADER)
            w.writerows(rows)
        else:
            json.dump({"meta": meta, "results": results, "checks": checks}, out, indent=2, default=str)
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0 if all(c["passed"] for c in checks) else 1


def _check_out(path) -> None:
    """Refuse an --out path whose directory is missing or not writable, or
    that is a directory, before any work and without creating the file."""
    if path is None:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(parent):
        reason = f"no directory {parent!r}"
    elif not os.access(parent, os.W_OK):
        reason = f"directory {parent!r} is not writable"
    else:
        return
    raise ValueError(f"cannot open --out {path!r}: {reason}")


def _tol(args) -> float:
    """--tol, refused unless nonnegative (NaN is a tolerance no error can
    meet), or when it is not given the command's default: 0.2 for `converge
    ccr`, whose check holds the fitted order within --tol of -1, and 1e-9
    for every other check."""
    if args.tol is None:
        return 0.2 if getattr(args, "quantity", None) == "ccr" else 1e-9
    if not args.tol >= 0:
        raise ValueError(f"--tol must be a nonnegative number, got {args.tol}")
    return args.tol


def _check(name: str, passed, value, tol) -> dict:
    """One entry of a payload's "checks" list."""
    return {"name": name, "passed": bool(passed), "value": value, "tol": tol}


def _check_positive(value: int, option: str) -> None:
    """Refuse an integer option below 1 (OutOfRange) before anything is built."""
    if value < 1:
        raise OutOfRange(f"{option} must be at least 1, got {value}")


def _resolve_mu(args, divisors: list[int], default_min: int) -> tuple[int, str]:
    """The mu of --mu, and the policy that chose it (reported as meta.mu_policy)."""
    min_mu = default_min if args.mu_min is None else args.mu_min
    _check_positive(min_mu, "--mu-min")
    if args.mu == "auto":
        from . import dirac

        return (dirac.auto_mu(parse_rat(args.h, "--h"), divisors, min_mu=min_mu),
                "auto: lcm of h parts and required indices, scaled to --mu-min")
    return parse_option(args.mu, int, "--mu", 'an integer or "auto"'), "explicit"


# ---------------------------------------------------------------------------
# subcommands: each returns (meta, results, checks, rows) for `_emit`, rows
# None when it has no CSV form
# ---------------------------------------------------------------------------

def cmd_lattice(args) -> tuple:
    results = {}
    if args.center:
        A = parse_desc(args.center, "--center")
        Z = center(A)
        results["center"] = f"{fmt_rat(Z.a)},{fmt_rat(Z.b)}"
        results["q_order"] = q_order(A)
    if args.up:
        C = parse_desc(args.up, "--up")
        U = up_functor(C)
        results["up"] = f"{fmt_rat(U.a)},{fmt_rat(U.b)}"
    if args.includes:
        results["includes"] = includes(*parse_desc_pair(args.includes, "--includes"))
    if args.join:
        J = join(*parse_desc_pair(args.join, "--join"))
        results["join"] = f"{fmt_rat(J.a)},{fmt_rat(J.b)}"
    if args.ocount:
        A = parse_desc(args.ocount, "--ocount")
        gens = maximal_commutative(A)
        results["ocount"] = len(gens)
        results["ogenerators"] = [f"U^{fmt_rat(g.u_exp)} V^{fmt_rat(g.v_exp)}" for g in gens]
    return {"command": "lattice"}, results, [], None


def cmd_basis(args) -> tuple:
    from .repmod import SpecPoint, build_module, s_basis, u_basis, v_basis

    A = parse_desc(args.alg, "--alg")
    M = build_module(A, SpecPoint.principal_point())
    if args.which == "u":
        basis = u_basis(M)
    elif args.which == "v":
        basis = v_basis(M)
    else:
        if not args.s_word or not args.t_word:
            raise ValueError("--which s requires --s-word and --t-word")
        form = '"u_exp,v_exp"'
        S = GenWord(*split_option(args.s_word, ",", (Fraction, Fraction), "--s-word", form))
        T = GenWord(*split_option(args.t_word, ",", (Fraction, Fraction), "--t-word", form))
        basis = s_basis(M, S, T)
    if args.mode == "float":
        dump = [[[z.real, z.imag] for z in (a.to_complex() for a in vec.amps)] for vec in basis]
    else:
        dump = [[str(a) for a in vec.amps] for vec in basis]
    meta = {"command": "basis", "alg": args.alg, "which": args.which, "mode": args.mode, "dim": M.dim}
    return meta, {"basis": dump}, [], None


def cmd_pairing(args) -> tuple:
    from .morphism import pairing
    from .repmod import SpecPoint, build_module, v_vector

    _check_positive(args.n, "--n")
    N = args.n
    M = build_module(WeylDesc(1, Fraction(1, N)), SpecPoint.principal_point())

    def vec_of(spec: str, option: str):
        kind, idx = split_option(spec, ":", (str, int), option, '"u:k" or "v:m"')
        if kind == "u":
            return M.basis_vector(idx)
        if kind == "v":
            return v_vector(M, idx)
        raise ValueError(f"unknown basis kind {kind!r}")

    res = pairing(vec_of(args.left, "--left"), vec_of(args.right, "--right"))
    value = res.value.to_complex().real
    meta = {"command": "pairing", "n": N, "left": args.left, "right": args.right}
    return meta, {"value": value, "compatible": res.compatible}, [], None


def cmd_transform(args) -> tuple:
    from .repmod import SpecPoint, build_module
    from .transform import (check_sample, diagonal, fourier, free_evolution, gaussian, qho_evolution,
                            verify_conjugation)

    _check_positive(args.n, "--n")
    check_sample(args.sample)
    N = args.n
    M = build_module(WeylDesc(1, Fraction(1, N)), SpecPoint.principal_point())
    if args.name == "fourier":
        L = fourier(M)
    elif args.name == "gaussian":
        L = gaussian(M, b=args.b, d=args.d)
    elif args.name == "diagonal":
        L = diagonal(M, args.m)
    elif args.name == "free":
        t = parse_time(args.t)
        L = free_evolution(M, t.numerator, t.denominator)
    elif args.name == "qho":
        L = qho_evolution(M, *parse_triple(args.triple))
    else:
        raise ValueError(f"unknown transform {args.name!r}")
    reports = verify_conjugation(L, sample=args.sample)
    checks = [_check(r.name, r.holds, r.residual, 0.0) for r in reports]
    sampled = {}
    for m in range(min(3, L.dim)):
        col = L.image(m)
        entries = {}
        for j, a in enumerate(col.amps):
            if not a.is_zero():
                z = a.to_complex()
                entries[j] = [z.real, z.imag]
            if len(entries) >= 8:
                break
        sampled[m] = entries
    meta = {"command": "transform", "name": L.name, "n": N,
            "gL": [[fmt_rat(x) for x in row] for row in L.gL], "dim": L.dim}
    return meta, {"sampled_columns": sampled}, checks, None


def _finite(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError  # parse_option names --grid and its form
    return x


def _grid(spec: str) -> list[float]:
    lo, hi, count = split_option(spec, ":", (_finite, _finite, int), "--grid", '"lo:hi:count"')
    if count < 1:
        raise ValueError(f"grid point count must be at least 1, got {count}")
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def cmd_propagator(args) -> tuple:
    from . import dirac

    h = parse_rat(args.h, "--h")
    xs = _grid(args.grid)
    if args.kind == "free":
        t = parse_time(args.t)
        mu, policy = _resolve_mu(args, [2 * t.numerator * t.denominator], 2520)
        quantity = f"free[t={args.t}]"

        def sample(x1, x2):
            return dirac.free_propagator(x1, x2, t, params)
    else:
        e, f, c = parse_triple(args.triple)
        mu, policy = _resolve_mu(args, [2 * c * e * (c - f), c * c * e], 4000)
        quantity = f"qho[{e},{f},{c}]"

        def sample(x1, x2):
            return dirac.qho_propagator(x1, x2, (e, f, c), params)

    params = dirac.ScaleParams(h, mu)
    samples = [sample(x1, x2) for x1 in xs for x2 in xs]
    worst = max(0.0, *(s.abs_err for s in samples))
    rows = [_row(params, quantity, s.x1, s.x2, s.value, s.closed_form, s.abs_err) for s in samples]
    tol = _tol(args)
    checks = [_check("kernel_matches_closed_form", worst <= tol, worst, tol)]
    meta = {"command": f"propagator {args.kind}", "h": args.h, "mu": params.mu, "mu_policy": policy,
            "N": params.N, "grid": args.grid, "t": args.t if args.kind == "free" else None,
            "triple": args.triple if args.kind == "qho" else None}
    return meta, {"max_abs_err": worst, "samples": len(samples)}, checks, rows


def cmd_trace(args) -> tuple:
    from . import dirac

    h = parse_rat(args.h, "--h")
    e, f, c = parse_triple(args.triple)
    mu, policy = _resolve_mu(args, [2 * c * e * (c - f)], 200)
    params = dirac.ScaleParams(h, mu)
    r = dirac.qho_trace((e, f, c), params)
    tol = _tol(args)
    checks = [_check("trace_matches_closed_form", r.abs_err <= tol, r.abs_err, tol)]
    rows = [_row(params, f"trace qho[{e},{f},{c}]", 0.0, 0.0, r.value, r.closed_form, r.abs_err)]
    meta = {"command": f"trace {args.kind}", "h": args.h, "mu": params.mu, "mu_policy": policy,
            "N": params.N, "triple": args.triple, "terms": r.terms}
    results = {"tr_re": r.value.real, "tr_im": r.value.imag, "tr_abs": abs(r.value),
               "closed_re": r.closed_form.real, "closed_im": r.closed_form.imag, "abs_err": r.abs_err}
    return meta, results, checks, rows


def cmd_converge(args) -> tuple:
    from . import dirac

    mus = parse_option(args.mu_list, lambda v: [int(x) for x in v.split(",")], "--mu",
                       'a comma list of integers')
    if args.quantity == "ccr" and len(mus) < 2:
        raise ValueError("converge ccr fits an order and needs at least two mu values")
    rep = dirac.converge_study(args.quantity, mus, h=parse_rat(args.h, "--h"), seed=args.seed)
    tol = _tol(args)
    if args.quantity == "ccr":
        checks = [_check("fitted_order_is_minus_one", -1 - tol <= rep.fitted_order <= -1 + tol,
                         rep.fitted_order, tol)]
    else:
        worst = max(rep.residuals)
        checks = [_check("residuals_within_tol", worst <= tol, worst, tol)]
    rows = [
        [mu, "", f"converge {args.quantity}", "", "", "", "", "", "", res]
        for mu, res in zip(rep.mus, rep.residuals)
    ]
    meta = {"command": f"converge {args.quantity}", "h": args.h, "mu_list": rep.mus, "seed": args.seed}
    return meta, {"residuals": rep.residuals, "fitted_order": rep.fitted_order}, checks, rows


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    # options of the float commands, whose checks have a tolerance and whose
    # samples can be written as CSV rows
    checked = argparse.ArgumentParser(add_help=False)
    checked.add_argument("--format", choices=["json", "csv"], default="json")
    checked.add_argument("--tol", type=float, default=None)  # None: the command's default, `_tol`
    # options of the commands that scale the module by h and mu: propagator and trace
    scaled = argparse.ArgumentParser(add_help=False)
    scaled.add_argument("--h", default="1")
    scaled.add_argument("--mu", default="auto",
                        help='integer, or "auto": smallest even mu divisible by the parts of h '
                             "and every index the computation needs, scaled up to --mu-min")
    scaled.add_argument("--mu-min", type=int, default=None)
    scaled.add_argument("--triple", default="3,4,5")

    p = argparse.ArgumentParser(
        prog="finiteweyl",
        description="Finite-N quantum mechanics over rational Weyl algebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, *parents, **kw):
        return sub.add_parser(name, parents=[common, *parents], **kw)

    lat = add_parser("lattice", help="inclusion/center/O(A) queries")
    lat.add_argument("--center", help='algebra "a,b"')
    lat.add_argument("--up", help='commutative algebra "c,d"')
    lat.add_argument("--includes", help='"B;A" with descs "a,b"')
    lat.add_argument("--join", help='"A;B"')
    lat.add_argument("--ocount", help='algebra "a,b": count maximal commutative subalgebras')
    lat.set_defaults(func=cmd_lattice)

    bas = add_parser("basis", help="dump u/v/s bases as scalar strings")
    bas.add_argument("--alg", required=True, help='algebra "a,b"')
    bas.add_argument("--which", choices=["u", "v", "s"], default="u")
    bas.add_argument("--s-word", help='"u_exp,v_exp" for the S generator')
    bas.add_argument("--t-word", help='"u_exp,v_exp" for the T generator')
    bas.add_argument("--mode", choices=["exact", "float"], default="exact",
                     help="exact: scalar strings; float: evaluated (re, im) pairs")
    bas.set_defaults(func=cmd_basis)

    par = add_parser("pairing", help="[e|f] of two basis vectors")
    par.add_argument("--n", type=int, required=True, help="module dimension")
    par.add_argument("--left", required=True, help='"u:k" or "v:m"')
    par.add_argument("--right", required=True, help='"u:k" or "v:m"')
    par.set_defaults(func=cmd_pairing)

    tr = add_parser("transform", help="build + verify a transformation")
    tr.add_argument("--name", required=True,
                    choices=["fourier", "gaussian", "diagonal", "free", "qho"])
    tr.add_argument("--n", type=int, required=True, help="module dimension")
    tr.add_argument("--b", type=int, default=1)
    tr.add_argument("--d", type=int, default=1)
    tr.add_argument("--m", type=int, default=2)
    tr.add_argument("--t", default="1/2", help='rational time "b/d"')
    tr.add_argument("--triple", default="3,4,5")
    tr.add_argument("--sample", type=int, default=None,
                    help="check about this many evenly spaced basis indices (at least 1)")
    tr.set_defaults(func=cmd_transform)

    prop_p = add_parser("propagator", checked, scaled, help="free/qho kernels vs closed forms")
    prop_p.add_argument("kind", choices=["free", "qho"])
    prop_p.add_argument("--t", default="1/2")
    prop_p.add_argument("--grid", default="-1:1:5")
    prop_p.set_defaults(func=cmd_propagator)

    trc = add_parser("trace", checked, scaled, help="QHO trace vs 1/(i|sin(t/2)|)")
    trc.add_argument("kind", choices=["qho"])
    trc.set_defaults(func=cmd_trace)

    cv = add_parser("converge", checked, help="residual sweeps over mu")
    cv.add_argument("quantity", choices=["ccr", "free", "qho", "weakring"])
    cv.add_argument("--mu", dest="mu_list", required=True, help="comma list of mu")
    cv.add_argument("--h", default="1")
    cv.add_argument("--seed", type=int, default=0, help="seed of the weak-ring samples")
    cv.set_defaults(func=cmd_converge)

    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a value such as "-1,0" or "-1/2" as an option: glue
    # every value that starts with "-" and a digit to the --option before it
    for i in reversed(range(len(argv) - 1)):
        if re.fullmatch(r"--[\w-]+", argv[i]) and re.match(r"-\d", argv[i + 1]):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = make_parser().parse_args(argv)
    try:
        _check_out(args.out)
        if "tol" in args:
            _tol(args)  # a bad --tol is refused before the work
        return _emit(args, *args.func(args))
    except FiniteWeylError as exc:
        print(f"precondition violated ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as exc:
        print(f"input too large ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
