"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import cmath
import math
import random
import time
from fractions import Fraction as F

import pytest

from finiteweyl.dirac import (
    ScaleParams,
    converge_study,
    free_propagator,
    gauss_sum_float,
    qho_propagator,
    qho_trace,
    weakring_max_phase_error,
)
from finiteweyl.exactnum import Scalar, gauss_sum, root_of_unity
from finiteweyl.lattice import GenWord, WeylDesc
from finiteweyl.morphism import decompose, embed_pbeta, pairing_row_sum
from finiteweyl.repmod import ModuleRep, SpecPoint, StateVec, apply_word, build_module, inner, v_basis
from finiteweyl.transform import (
    compose,
    diagonal,
    fourier,
    gaussian,
    mat_det,
    mat_mul,
    verify_conjugation,
)


def principal(N):
    return build_module(WeylDesc(1, F(1, N)), SpecPoint.principal_point())


def report(num, desc, passed, t0):
    dt = time.monotonic() - t0
    line = f"ACCEPTANCE {num:2d} [{'PASS' if passed else 'FAIL'}] ({dt:6.2f}s) {desc}"
    print(line)
    assert passed, line


class TestAcceptance:
    def test_01_exact_basis_identity(self):
        t0 = time.monotonic()
        ok = True
        for N in range(2, 65):
            M = principal(N)
            vb = v_basis(M)
            inv_sqrt = Scalar.exact(Scalar.rational(1), 1, N)
            for m in range(N):
                for k in range(N):
                    val = inner(M.basis_vector(k), vb[m])
                    expect = inv_sqrt * M.q_power((k * m) % N)
                    if not (val - expect).is_zero():
                        ok = False
        report(1, "<u_k|v_m> = q^{km}/sqrt(N) exactly, all k,m, N in 2..64", ok, t0)

    def test_02_gauss_constant(self):
        t0 = time.monotonic()
        ok = True
        for N in range(2, 65, 2):
            # G(N) = sqrt(N) e^{i pi/4} exactly, i.e. cc = sqrt(N)/G(N) = e^{-i pi/4}
            if not (gauss_sum(N) - Scalar.exact(Scalar.zeta(8, 1), N, 1)).is_zero():
                ok = False
        for N in (2, 16, 128, 510, 1024, 2050, 4096):
            cc = math.sqrt(N) / gauss_sum_float(N)
            if abs(cc - cmath.exp(-1j * math.pi / 4)) > 1e-12:
                ok = False
        report(2, "Gauss constant sqrt(N)/G(N) = e^{-i pi/4}: exact to 64, float to 4096", ok, t0)

    def test_03_fourier_structure(self):
        t0 = time.monotonic()
        ok = True
        for N in range(2, 65):
            M = principal(N)
            Phi = fourier(M)
            if Phi.gL != ((F(0), F(1)), (F(-1), F(0))):
                ok = False
            if N <= 16:
                for rep in verify_conjugation(Phi):
                    ok = ok and rep.holds and rep.residual == 0.0
                Phi2 = fourier(Phi.ambient_ran)
                P = compose(Phi2, Phi)
                for m in range(N):
                    if not (P.image(m) - M.basis_vector((-m) % N)).is_zero():
                        ok = False
            else:
                # sampled unitarity rows and parity columns, still exact
                for rep in verify_conjugation(Phi, sample=6):
                    ok = ok and rep.holds and rep.residual == 0.0
                Phi2 = fourier(Phi.ambient_ran)
                for m in (0, 1, N // 2, N - 1):
                    img = Phi2.apply(Phi.image(m))
                    if not (img - M.basis_vector((-m) % N)).is_zero():
                        ok = False
        report(3, "Fourier unitary, Phi^2 = parity, gL = [[0,1],[-1,0]], exact N <= 64", ok, t0)

    def test_04_gaussian_eigen_and_regularity(self):
        t0 = time.monotonic()
        ok = True
        for N in range(2, 65, 2):
            M = principal(N)
            G = gaussian(M)
            vb = v_basis(M)
            ns = range(N) if N <= 16 else (0, 1, 2, N // 2, N - 1)
            for n in ns:
                img = G.apply(vb[n])
                target = vb[n].scale(M.q_power(F(-n * n, 2)))
                if not (img - target).is_zero():
                    ok = False
        # regularity: parameter substitution changes the image basis by a
        # single root of unity zeta with zeta^{2N} = 1
        for N, d, n in [(8, 2, 1), (12, 2, 2), (16, 4, 3), (24, 3, 1)]:
            A = WeylDesc(1, F(1, N))
            M1 = build_module(A, SpecPoint.principal_point())
            M2 = ModuleRep(A, F(0), F(d * n, N))
            G1, G2 = gaussian(M1, b=1, d=d), gaussian(M2, b=1, d=d)
            ratios = []
            for m in range(G1.dim):
                r = None
                for a, b in zip(G2.image(m).amps, G1.image(m).amps):
                    if not b.is_zero():
                        r = a / b
                        break
                ratios.append(r)
            zeta = ratios[0]
            if not all((r - zeta).is_zero() for r in ratios):
                ok = False
            acc = Scalar.one()
            for _ in range(2 * N):
                acc = acc * zeta
            if not (acc - Scalar.one()).is_zero():
                ok = False
        report(4, "Gaussian eigen-relation exact (even N <= 64); zeta^{2N} = 1 regularity", ok, t0)

    def test_05_morphism_suite(self):
        t0 = time.monotonic()
        ok = True
        rng = random.Random(1234)
        done = 0
        while done < 50:
            n = rng.choice([1, 2, 2, 3, 4, 5])
            k = rng.choice([1, 1, 2, 3])
            NB = rng.choice([1, 2, 3, 4, 5, 6])
            NA = n * k * NB
            if NA > 120 or NA < 2:
                continue
            done += 1
            Mamb = principal(NA)
            B = WeylDesc(n * Mamb.alg.a, k * Mamb.alg.b)
            parts = decompose(Mamb, B)
            beta, _ = parts[rng.randrange(len(parts))]
            Msub = build_module(B, beta)
            emb = embed_pbeta(Msub, Mamb, root=rng.randrange(NB))
            Un = GenWord(n * Mamb.alg.a, 0)
            Vk = GenWord(0, k * Mamb.alg.b)
            for w in (Un, Vk):
                j = rng.randrange(NB)
                x = Msub.basis_vector(j)
                if not (emb.apply(apply_word(w, x)) - apply_word(w, emb.apply(x))).is_zero():
                    ok = False
            i, j = rng.randrange(NB), rng.randrange(NB)
            lhs = inner(emb.apply(Msub.basis_vector(i)), emb.apply(Msub.basis_vector(j)))
            rhs = inner(Msub.basis_vector(i), Msub.basis_vector(j))
            if not (lhs - rhs).is_zero():
                ok = False
            # exactly n_B embedding choices, differing by n_B-th roots of unity
            base = embed_pbeta(Msub, Mamb, root=0)
            seen = set()
            for r in range(NB):
                er = embed_pbeta(Msub, Mamb, root=r)
                g = Scalar.phase(F(r, NB))
                if not all(
                    (er.apply(e) - base.apply(e).scale(g)).is_zero()
                    for e in map(Msub.basis_vector, range(NB))
                ):
                    ok = False
                seen.add(r)
            if len(seen) != NB:
                ok = False
            # row sums equal 1 exactly for a random exact unit vector
            amps = [
                Scalar.exact(Scalar.rational(1), 1, NA) * root_of_unity(NA, rng.randrange(NA))
                for _ in range(NA)
            ]
            f = StateVec(Mamb, amps)
            if pairing_row_sum(B, f) != Scalar.one():
                ok = False
        report(5, "morphism suite: intertwining, n_B choices, row sums = 1 (50 pairs)", ok, t0)

    def test_06_sl2_bookkeeping(self):
        t0 = time.monotonic()
        ok = True
        M = principal(24)
        gens = {
            "fourier": lambda: fourier(M).gL,
            "gauss12": lambda: gaussian(M, 1, 2).gL,
            "gauss11": lambda: gaussian(M, 1, 1).gL,
            "gauss32": lambda: gaussian(M, 3, 2).gL,
            "diag2": lambda: diagonal(M, 2).gL,
            "diag3": lambda: diagonal(M, 3).gL,
        }
        # generator matrices realized
        ok = ok and gens["fourier"]() == ((F(0), F(1)), (F(-1), F(0)))
        ok = ok and gens["gauss32"]() == ((F(1), F(-3, 2)), (F(0), F(1)))
        ok = ok and gens["diag2"]() == ((F(2), F(0)), (F(0), F(1, 2)))
        rng = random.Random(99)
        names = list(gens)
        for _ in range(200):
            chain = [gens[rng.choice(names)]() for _ in range(rng.randrange(1, 7))]
            g = chain[0]
            for gl in chain[1:]:
                g = mat_mul(g, gl)
            if mat_det(g) != 1:
                ok = False
        # composed transformations on the module agree with the bookkeeping
        from finiteweyl.errors import NoCommonSubalgebra

        factories = [
            lambda: fourier(M),
            lambda: gaussian(M, 1, 2),
            lambda: gaussian(M, 1, 1),
            lambda: diagonal(M, 2),
        ]
        built = verified = 0
        for _ in range(12):
            L1 = rng.choice(factories)()
            L2 = rng.choice(factories)()
            try:
                C = compose(L2, L1)
            except NoCommonSubalgebra:
                continue
            built += 1
            if mat_det(C.gL) != 1:
                ok = False
            # sigma is derived from C.gL, so this checks the composite's matrix
            if C.materialized:
                verified += 1
                ok = ok and all(r.holds for r in verify_conjugation(C, sample=4))
        ok = ok and built >= 6 and verified >= 1
        report(6, f"SL(2,Q) bookkeeping: 200 chains, det 1, generators realized, "
                  f"{verified} composites verified", ok, t0)

    def test_07_ccr_at_scale(self):
        t0 = time.monotonic()
        rep = converge_study("ccr", [60, 120, 240, 480])
        ok = -1.2 <= rep.fitted_order <= -0.8
        ok = ok and all(b < a for a, b in zip(rep.residuals, rep.residuals[1:]))
        report(7, f"CCR residual O(1/mu): slope {rep.fitted_order:.3f} in [-1.2,-0.8]", ok, t0)

    def test_08_free_propagator(self):
        t0 = time.monotonic()
        ok = True
        params = ScaleParams(F(1), 2520)
        grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
        for t in (F(1, 2), F(1), F(3, 2)):
            samples = [free_propagator(x1, x2, t, params) for x1 in grid for x2 in grid]
            mod_target = 1 / math.sqrt(2 * math.pi * params.hbar * float(t))
            for s in samples:
                if abs(abs(s.value) - mod_target) > 1e-9 or s.abs_err > 1e-9:
                    ok = False
            # phase ratios, independent of the global phase convention
            s0 = samples[0]
            for s in samples[1:]:
                lhs = s.value / s0.value
                rhs = s.closed_form / s0.closed_form
                if abs(lhs - rhs) > 1e-9:
                    ok = False
        report(8, "free propagator matches (2 pi i hbar t)^{-1/2} e^{i dx^2/2t hbar} @1e-9", ok, t0)

    def test_09_qho_propagator(self):
        t0 = time.monotonic()
        ok = True
        grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
        for triple, mu in [((3, 4, 5), 4200), ((5, 12, 13), 4160)]:
            params = ScaleParams(F(1), mu)
            e, f, c = triple
            samples = [qho_propagator(x1, x2, triple, params) for x1 in grid for x2 in grid]
            mod_target = 1 / math.sqrt(2 * math.pi * params.hbar * e / c)
            for s in samples:
                if abs(abs(s.value) - mod_target) > 1e-9 or s.abs_err > 1e-9:
                    ok = False
            s0 = samples[0]
            for s in samples[1:]:
                if abs(s.value / s0.value - s.closed_form / s0.closed_form) > 1e-9:
                    ok = False
        report(9, "QHO propagator matches closed form @1e-9 for (3,4,5), (5,12,13)", ok, t0)

    def test_10_qho_trace(self):
        t0 = time.monotonic()
        ok = True
        for triple, mu in [((3, 4, 5), 210), ((5, 12, 13), 520), ((8, 15, 17), 1632)]:
            r = qho_trace(triple, ScaleParams(F(1), mu))
            if r.abs_err > 1e-9:
                ok = False
        r345 = qho_trace((3, 4, 5), ScaleParams(F(1), 210))
        if abs(abs(r345.value) - math.sqrt(10)) > 1e-8:
            ok = False
        report(10, "QHO trace = 1/(i|sin(t/2)|) @1e-9; |Tr(3,4,5)| = sqrt(10) @1e-8", ok, t0)

    def test_11_weak_ring(self):
        t0 = time.monotonic()
        params = ScaleParams(F(1), 10000)
        worst = weakring_max_phase_error(params, count=10000, seed=42)
        ok = worst <= 1e-6
        report(11, f"weak-ring coordinatization: max phase error {worst:.2e} <= 1e-6", ok, t0)
