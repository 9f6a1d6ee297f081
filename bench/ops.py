"""Benchmark operations: each one calls finiteweyl and checks its own output.

An operation kind is a pair of functions.  ``run(api, op)`` calls the
library through ``api`` (see ``tracing.make_api``) and returns whatever the
check needs; ``check(api, op, result)`` returns ``(ok, samples)``, where
``samples`` counts the identities or points actually compared.  An
operation passes only when ``ok`` holds, ``samples > 0`` and nothing raised:
a check over zero samples is a failure, never a vacuous pass.

Exact kinds compare with exact ``is_zero``; float kinds compare against the
continuum closed forms, evaluated here independently of the library, at
1e-9; CLI runs are judged on the exit code, the JSON ``checks`` and
results recomputed here.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
import traceback
from fractions import Fraction

from workloads import fmt_rat, trace_terms

KERNEL_TOL = 1e-9
HBAR = 2 * math.pi  # every float workload runs at h = 1, so hbar = 2 pi and N = mu^2


# ---------------------------------------------------------------------------
# exact-structure kinds
# ---------------------------------------------------------------------------

def principal(api, N):
    return api.build_module(api.WeylDesc(1, Fraction(1, N)), api.principal_point())


def inv_sqrt(api, N):
    return api.exact(api.cyc_rational(1), 1, N)


def basis_run(api, op):
    M = principal(api, op["N"])
    return M, api.v_basis(M)


def basis_check(api, op, result):
    """<u_k|v_m> = q^{km}/sqrt(N) exactly at the sampled (k, m)."""
    M, vb = result
    N = op["N"]
    c = inv_sqrt(api, N)
    ok = len(vb) == N
    for k, m in op["pairs"]:
        val = api.inner(api.basis_vector(M, k), vb[m])
        ok = api.is_zero(api.sub(val, api.mul(c, api.q_power(M, (k * m) % N)))) and ok
    return ok, len(op["pairs"])


def fourier_run(api, op):
    M = principal(api, op["N"])
    Phi = api.fourier(M)
    reports = api.verify_conjugation(Phi, sample=op["sample"])
    Phi2 = api.fourier(Phi.ambient_ran)
    if op["N"] <= 16:
        P = api.compose(Phi2, Phi)
        images = [P.image(m) for m in op["ms"]]
    else:
        images = [api.apply(Phi2, Phi.image(m)) for m in op["ms"]]
    return M, Phi, reports, images


def fourier_check(api, op, result):
    """gL = [[0,1],[-1,0]], every conjugation identity exact, Phi^2 = parity."""
    M, Phi, reports, images = result
    N = op["N"]
    ok = Phi.gL == ((0, 1), (-1, 0)) and bool(reports)
    ok = all(r.holds and r.residual == 0.0 for r in reports) and ok
    for m, img in zip(op["ms"], images):
        ok = api.vis_zero(api.vsub(img, api.basis_vector(M, (-m) % N))) and ok
    return ok, len(reports) + len(images)


def gaussian_run(api, op):
    M = principal(api, op["N"])
    G = api.gaussian(M)
    vb = api.v_basis(M)
    return M, vb, [api.apply(G, vb[n]) for n in op["ns"]]


def gaussian_check(api, op, result):
    """G v_n = q^{-n^2/2} v_n exactly at the sampled n."""
    M, vb, images = result
    ok = True
    for n, img in zip(op["ns"], images):
        target = api.vscale(vb[n], api.q_power(M, Fraction(-n * n, 2)))
        ok = api.vis_zero(api.vsub(img, target)) and ok
    return ok, len(images)


QHO_IDENTITIES = {"unitary", "KU", "mKU"}


def qho_run(api, op):
    M = principal(api, op["N"])
    K = api.qho_evolution(M, 3, 4, 5)
    return K, api.verify_conjugation(K, sample=op["sample"])


def qho_check(api, op, result):
    """sin t = 3/5: rotation matrix, and unitary/KU/mKU hold exactly."""
    K, reports = result
    g = ((Fraction(4, 5), Fraction(-3, 5)), (Fraction(3, 5), Fraction(4, 5)))
    ok = K.gL == g and {r.name for r in reports} == QHO_IDENTITIES
    ok = all(r.holds and r.residual == 0.0 for r in reports) and ok
    return ok, len(reports)


def gauss_sum_run(api, op):
    return api.gauss_sum(op["N"])


def gauss_sum_check(api, op, result):
    """G(N) = sqrt(N) zeta_8 for even N."""
    expect = api.exact(api.cyc_zeta(8, 1), op["N"], 1)
    return api.is_zero(api.sub(result, expect)), 1


def _element(api, L, terms):
    out = None
    for k, c in terms:
        t = api.mul(api.rational(c), api.root_of_unity(L, k))
        out = t if out is None else api.add(out, t)
    return out


def scalar_chain_run(api, op):
    a, b, c = (_element(api, op["L"], t) for t in op["terms"])
    lhs = api.mul(a, api.add(b, c))
    rhs = api.add(api.mul(a, b), api.mul(a, c))
    sq = api.mul(api.add(a, b), api.sub(a, b))
    diff = api.sub(api.mul(a, a), api.mul(b, b))
    return [(api.canonical(lhs.cyc), api.canonical(rhs.cyc)),
            (api.canonical(sq.cyc), api.canonical(diff.cyc))]


def scalar_chain_check(api, op, result):
    """a(b+c) = ab+ac and (a+b)(a-b) = a^2-b^2 give identical canonical forms."""
    ok = all(x.order == y.order and x.coeffs == y.coeffs for x, y in result)
    return ok, len(result)


# ---------------------------------------------------------------------------
# exact-morphism
# ---------------------------------------------------------------------------

def morphism_run(api, op):
    n, k, NB = op["n"], op["k"], op["NB"]
    NA = n * k * NB
    Mamb = principal(api, NA)
    B = api.WeylDesc(n * Mamb.alg.a, k * Mamb.alg.b)
    parts = api.decompose(Mamb, B)
    beta = parts[op["branch"] % len(parts)][0]
    Msub = api.build_module(B, beta)
    emb = api.embed_pbeta(Msub, Mamb, root=op["root"])
    pairs = []
    for w, j in zip((api.GenWord(n * Mamb.alg.a, 0), api.GenWord(0, k * Mamb.alg.b)), op["j"]):
        x = api.basis_vector(Msub, j)
        pairs.append((api.embed_apply(emb, api.apply_word(w, x)),
                      api.apply_word(w, api.embed_apply(emb, x))))
    i, j = op["ij"]
    e_i, e_j = api.basis_vector(Msub, i), api.basis_vector(Msub, j)
    inner_pair = (api.inner(api.embed_apply(emb, e_i), api.embed_apply(emb, e_j)),
                  api.inner(e_i, e_j))
    c = inv_sqrt(api, NA)
    f = api.StateVec(Mamb, [api.mul(c, api.root_of_unity(NA, r)) for r in op["unit_roots"]])
    row_sum = api.pairing_row_sum(B, f)
    u, m = op["uv"]
    pr = api.pairing(api.basis_vector(Msub, u), api.v_basis(Msub)[m])
    return parts, pairs, inner_pair, row_sum, pr


def morphism_check(api, op, result):
    """n k summands of dimension NB; intertwining; <pe|pf> = <e|f];
    row sum of [e|f] = 1; [u_i|v_m] = 1/NB."""
    parts, pairs, inner_pair, row_sum, pr = result
    n, k, NB = op["n"], op["k"], op["NB"]
    ok = len(parts) == n * k and all(len(basis) == NB for _, basis in parts)
    for lhs, rhs in pairs:
        ok = api.vis_zero(api.vsub(lhs, rhs)) and ok
    ok = api.is_zero(api.sub(*inner_pair)) and ok
    ok = api.is_zero(api.sub(row_sum, api.rational(1))) and ok
    ok = pr.compatible and api.is_zero(api.sub(pr.value, api.rational(Fraction(1, NB)))) and ok
    return ok, 1 + len(pairs) + 3


# ---------------------------------------------------------------------------
# float-continuum kinds
# ---------------------------------------------------------------------------

def free_closed(x1, x2, t, hbar):
    return cmath.exp(1j * (x1 - x2) ** 2 / (2 * t * hbar)) / cmath.sqrt(2j * math.pi * hbar * t)


def qho_closed(x1, x2, triple, hbar):
    e, f, c = triple
    sin_t, cos_t = e / c, f / c
    return cmath.exp(-1j * math.pi / 4) / math.sqrt(2 * math.pi * hbar * sin_t) * cmath.exp(
        1j * ((x1 * x1 + x2 * x2) * cos_t - 2 * x1 * x2) / (2 * hbar * sin_t))


def free_grid_run(api, op):
    params = api.ScaleParams(Fraction(1), op["mu"])
    t = Fraction(op["t"])
    return [api.free_propagator(x1, x2, t, params) for x1 in op["xs"] for x2 in op["xs"]]


def _grid_check(op, samples, closed, step):
    pts = [(x1, x2) for x1 in op["xs"] for x2 in op["xs"]]
    ok = len(samples) == len(pts)
    for (x1, x2), s in zip(pts, samples):
        on_lattice = abs(s.x1 - x1) <= step / 2 + 1e-12 and abs(s.x2 - x2) <= step / 2 + 1e-12
        ok = ok and on_lattice and abs(s.value - closed(s.x1, s.x2)) <= KERNEL_TOL
    return ok, len(samples)


def free_grid_check(api, op, samples):
    """Each kernel value within 1e-9 of (2 pi i hbar t)^{-1/2} e^{i dx^2/(2 t hbar)}."""
    t = Fraction(op["t"])
    step = t.numerator * HBAR / op["mu"]
    return _grid_check(op, samples, lambda a, b: free_closed(a, b, float(t), HBAR), step)


def qho_grid_run(api, op):
    params = api.ScaleParams(Fraction(1), op["mu"])
    triple = tuple(op["triple"])
    return [api.qho_propagator(x1, x2, triple, params) for x1 in op["xs"] for x2 in op["xs"]]


def qho_grid_check(api, op, samples):
    """Each kernel value within 1e-9 of the Mehler kernel at sin t = e/c."""
    e, f, c = op["triple"]
    step = c * e * HBAR / op["mu"]
    return _grid_check(op, samples, lambda a, b: qho_closed(a, b, op["triple"], HBAR), step)


def trace_closed(triple):
    e, f, c = triple
    return 1 / (1j * math.sqrt((1 - f / c) / 2))


def trace_run(api, op):
    return api.qho_trace(tuple(op["triple"]), api.ScaleParams(Fraction(1), op["mu"]))


def trace_check(api, op, r):
    """Tr K = 1/(i |sin(t/2)|) within 1e-9, over the expected number of terms."""
    ok = r.terms == trace_terms(op["triple"], op["mu"])
    ok = ok and abs(r.value - trace_closed(op["triple"])) <= KERNEL_TOL
    return ok, r.terms


def converge_run(api, op):
    return api.converge_study(op["quantity"], op["mus"], seed=op.get("seed", 0))


def converge_check(api, op, rep):
    """CCR: slope in [-1.2, -0.8], residuals falling; weak ring: phases within 1e-9."""
    res = rep.residuals
    ok = len(res) == len(op["mus"]) and all(math.isfinite(x) for x in res)
    if op["quantity"] == "ccr":
        ok = ok and -1.2 <= rep.fitted_order <= -0.8 and all(b < a for a, b in zip(res, res[1:]))
    else:
        ok = ok and max(res) <= KERNEL_TOL
    return ok, len(res)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def cli_run(api, op):
    return api.cli(op["argv"])


def _opt(argv, name):
    return argv[argv.index(name) + 1]


def _cli_results(argv, payload):
    """(ok, samples) for the results of one successful command, recomputed here."""
    sub, res = argv[0], payload["results"]
    if sub == "lattice":
        a, b = (Fraction(x) for x in _opt(argv, "--center").split(","))
        N = (a * b).denominator
        return res["center"] == f"{fmt_rat(N * a)},{fmt_rat(N * b)}" and res["q_order"] == N, 2
    if sub == "basis":
        N = Fraction(_opt(argv, "--alg").split(",")[1]).denominator
        basis = res["basis"]
        ok = len(basis) == N and all(len(v) == N for v in basis)
        for m, vec in enumerate(basis if ok else []):
            for k, (re, im) in enumerate(vec):
                z = cmath.exp(2j * math.pi * ((m * k) % N) / N) / math.sqrt(N)
                ok = ok and abs(complex(re, im) - z) <= 1e-12
        return ok, N * N if ok else len(basis)
    if sub == "pairing":
        N = int(_opt(argv, "--n"))
        (lk, li), (rk, ri) = (s.split(":") for s in (_opt(argv, "--left"), _opt(argv, "--right")))
        if lk == rk == "u":
            expect = 1.0 if int(li) % N == int(ri) % N else 0.0
        else:
            expect = 1 / N
        return res["compatible"] is True and abs(res["value"] - expect) <= 1e-12, 1
    if sub == "propagator":
        count = int(argv[-1].rsplit(":", 1)[1]) ** 2
        return res["samples"] == count and res["max_abs_err"] <= KERNEL_TOL, res["samples"]
    if sub == "trace":
        triple = tuple(int(x) for x in _opt(argv, "--triple").split(","))
        tr = complex(res["tr_re"], res["tr_im"])
        return abs(tr - trace_closed(triple)) <= KERNEL_TOL, 1
    if sub == "converge":
        mus = _opt(argv, "--mu").split(",")
        return len(res["residuals"]) == len(mus), len(res["residuals"])
    # transform: the identities are the JSON checks themselves
    return True, len(payload["checks"])


def cli_check(api, op, proc):
    """Exit code as expected; exit 2 names its precondition; exit 0 carries
    passing JSON checks and results that match values recomputed here."""
    if proc.returncode != op["expect"]:
        return False, 0
    if op["expect"] == 2:
        named = "precondition violated (" in proc.stderr or "invalid input:" in proc.stderr
        return named and not proc.stdout.strip(), 1
    payload = json.loads(proc.stdout)
    res_ok, samples = _cli_results(op["argv"], payload)
    return res_ok and all(c["passed"] for c in payload["checks"]), samples


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# kind -> (layer the operation targets, run, check)
KINDS = {
    "basis": ("repmod", basis_run, basis_check),
    "fourier": ("transform", fourier_run, fourier_check),
    "gaussian": ("transform", gaussian_run, gaussian_check),
    "qho": ("transform", qho_run, qho_check),
    "gauss_sum": ("exactnum", gauss_sum_run, gauss_sum_check),
    "scalar_chain": ("exactnum", scalar_chain_run, scalar_chain_check),
    "morphism": ("morphism", morphism_run, morphism_check),
    "free_grid": ("dirac", free_grid_run, free_grid_check),
    "qho_grid": ("dirac", qho_grid_run, qho_grid_check),
    "trace": ("dirac", trace_run, trace_check),
    "converge": ("dirac", converge_run, converge_check),
    "cli": ("cli", cli_run, cli_check),
}

_reported = 0


def execute(api, op) -> bool:
    """Run one operation and its check; True only for a checked pass."""
    global _reported
    _, run, check = KINDS[op["kind"]]
    try:
        ok, samples = check(api, op, run(api, op))
    except Exception:  # an unexpected exception fails the operation, and the run goes on
        if _reported < 3:
            _reported += 1
            print(f"operation {op['kind']} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        return False
    return bool(ok) and samples > 0
