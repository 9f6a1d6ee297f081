import cmath
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finiteweyl import dirac
from finiteweyl.dirac import (
    INT64_SQRT_MAX,
    PHASE_BLOCK,
    PHASE_GROUP,
    KernelSample,
    ScaleParams,
    _gauss_constant,
    _lattice_index,
    _slope,
    auto_mu,
    ccr_residual,
    converge_study,
    free_propagator,
    gauss_sum_float,
    q_operator_eigenvalue,
    qho_propagator,
    qho_trace,
    quadratic_phase_sum,
    st_mu,
    symmetric_phase_sum,
    weakring_max_phase_error,
)
from finiteweyl.errors import (
    DivisibilityViolation,
    ModuleMismatch,
    NotPythagorean,
    OutOfRange,
)
from finiteweyl.lattice import GenWord, WeylDesc
from finiteweyl.exactnum import gauss_sum
from finiteweyl.repmod import SpecPoint, build_module, inner, v_basis
from finiteweyl.transform import free_evolution, qho_evolution


# The general Dirac rescaling of a word pair, its rescaled inner product and
# the <x|p> kernel: the propagators in finiteweyl.dirac each use one fixed
# step, so these live here, where they are checked against it.

def algebra(p: ScaleParams) -> WeylDesc:
    """A(1/mu, h/mu), whose principal module the finite model uses."""
    return WeylDesc(F(1, p.mu), p.h / p.mu)


def word(p: ScaleParams, rho: int, tau: int) -> GenWord:
    """U^{rho/mu} V^{h tau/mu}."""
    return GenWord(F(rho, p.mu), p.h * tau / p.mu)


def cc(p: ScaleParams) -> float:
    """Dirac normalisation constant sqrt(2 pi hbar)."""
    return math.sqrt(2 * math.pi * p.hbar)


@dataclass
class RescaleCtx:
    b: int
    aR: int
    aS: int
    delta: float


def delta_k(r_word: GenWord, s_word: GenWord, params: ScaleParams) -> RescaleCtx:
    """Dirac rescaling step: Delta k = b cc/(aR aS sqrt N), or cc/sqrt(N) when b = 0.

    b is the minimal positive commutation exponent of the two words; aR, aS
    are the maximal root divisibilities R^{1/aR}, S^{1/aS} in the ambient
    algebra (words outside it raise NotInAlgebra).
    """
    A = algebra(params)
    rR, tR = A.word_coords(r_word)
    rS, tS = A.word_coords(s_word)
    b = abs(rR * tS - rS * tR)
    N = params.N
    if b == 0:
        return RescaleCtx(0, 1, 1, cc(params) * math.sqrt(1 / N))
    aR = gcd(abs(rR), abs(tR))
    aS = gcd(abs(rS), abs(tS))
    return RescaleCtx(b, aR, aS, b * cc(params) / (aR * aS * math.sqrt(N)))


def dirac_inner(e, f, ctx: RescaleCtx) -> complex:
    """<e|f>/Delta k in floats."""
    return inner(e, f).to_complex() / ctx.delta


def xp_kernel(x: float, p: float, params: ScaleParams) -> KernelSample:
    """<x|p>_Dir on the nearest lattice points: modulus 1/sqrt(2 pi hbar).

    The lattice phase is e^{i x p / hbar} (the exact value of q^{km}); the
    closed form is recorded with the same convention.
    """
    hbar, mu, N = params.hbar, params.mu, params.N
    k = round(x * mu / hbar)
    m = round(p * mu / hbar)
    if abs(k) > N // 2 or abs(m) > N // 2:
        raise OutOfRange("point outside the finite lattice window")
    xs, ps = k * hbar / mu, m * hbar / mu
    phase = 2 * math.pi * ((k * m) % N) / N
    value = cmath.exp(1j * phase) / cc(params)
    closed = cmath.exp(1j * xs * ps / hbar) / math.sqrt(2 * math.pi * hbar)
    return KernelSample(xs, ps, value, closed)


class TestScaleParams:
    def test_basic(self):
        p = ScaleParams(F(1), 60)
        assert p.N == 3600
        assert abs(p.hbar - 2 * math.pi) < 1e-15

    def test_fractional_h(self):
        p = ScaleParams(F(1, 2), 60)
        assert p.N == 7200

    def test_divisibility_enforced(self):
        with pytest.raises(DivisibilityViolation):
            ScaleParams(F(7), 60)
        with pytest.raises(DivisibilityViolation):
            ScaleParams(F(1, 7), 60)
        with pytest.raises(DivisibilityViolation):
            ScaleParams(F(1), 0)

    def test_odd_n_rejected(self):
        with pytest.raises(DivisibilityViolation):
            ScaleParams(F(1), 5)

    @pytest.mark.parametrize("h", [F(1), F(2), F(1, 2), F(2, 3), F(3, 2)], ids=str)
    def test_n_is_mu_squared_over_h(self, h):
        for mu in (6, 12, 60, 210, 2520, 10_002):
            p = ScaleParams(h, mu)
            assert p.N == int(F(mu * mu) / h) and type(p.N) is int

    def test_frozen_comparable_hashable(self):
        p = ScaleParams(F(1, 2), 60)
        with pytest.raises(AttributeError):
            p.mu = 120
        with pytest.raises(AttributeError):
            p.N = 2
        assert p == ScaleParams(F(1, 2), 60) != ScaleParams(F(1), 60)
        assert len({p, ScaleParams(F(1, 2), 60), ScaleParams(F(1), 60)}) == 2
        assert repr(p) == "ScaleParams(h=Fraction(1, 2), mu=60)"

    def test_auto_mu(self):
        mu = auto_mu(F(1), [3, 5, 2], min_mu=2520)
        assert mu % 3 == 0 and mu % 5 == 0 and mu % 2 == 0 and mu >= 2520


class TestDeltaK:
    def test_fourier_setting(self):
        p = ScaleParams(F(1), 60)
        ctx = delta_k(word(p, 1, 0), word(p, 0, 1), p)
        assert ctx.b == 1 and ctx.aR == 1 and ctx.aS == 1
        assert abs(ctx.delta - cc(p) / math.sqrt(p.N)) < 1e-15

    def test_free_particle_setting(self):
        # R = U^d, S = q^{-1/2} U^d V^{-b}: Delta x = b hbar / mu
        p = ScaleParams(F(1), 60)
        b, d = 1, 2
        ctx = delta_k(word(p, d, 0), word(p, d, -b), p)
        assert abs(ctx.delta - b * p.hbar / p.mu) < 1e-14

    def test_qho_setting(self):
        # R = U^c, S = S_t: Delta x = e hbar / mu
        p = ScaleParams(F(1), 60)
        e, f, c = 3, 4, 5
        ctx = delta_k(word(p, c, 0), word(p, f, -e), p)
        assert abs(ctx.delta - e * p.hbar / p.mu) < 1e-14

    def test_refinement_invariance_of_delta(self):
        # b' = e^2 b, aR' = e aR, aS' = e aS leave Delta unchanged
        p = ScaleParams(F(1), 120)
        base = delta_k(word(p, 1, 0), word(p, 0, 1), p)
        for e in (2, 3):
            ref = delta_k(word(p, e, 0), word(p, 0, e), p)
            assert abs(ref.delta - base.delta) < 1e-15


class TestDiracInner:
    def test_u_v_modulus(self):
        p = ScaleParams(F(1), 12)
        M = build_module(algebra(p), SpecPoint.principal_point())
        ctx = delta_k(word(p, 1, 0), word(p, 0, 1), p)
        val = dirac_inner(M.basis_vector(2), v_basis(M)[5], ctx)
        assert abs(abs(val) - 1 / math.sqrt(2 * math.pi * p.hbar)) < 1e-12

    def test_orthogonal_vectors(self):
        p = ScaleParams(F(1), 12)
        M = build_module(algebra(p), SpecPoint.principal_point())
        ctx = delta_k(word(p, 1, 0), word(p, 0, 1), p)
        assert dirac_inner(M.basis_vector(0), M.basis_vector(3), ctx) == 0

    def test_module_mismatch(self):
        p = ScaleParams(F(1), 12)
        M1 = build_module(algebra(p), SpecPoint.principal_point())
        M2 = build_module(WeylDesc(1, F(1, 4)), SpecPoint.principal_point())
        ctx = delta_k(word(p, 1, 0), word(p, 0, 1), p)
        with pytest.raises(ModuleMismatch):
            dirac_inner(M1.basis_vector(0), M2.basis_vector(0), ctx)

    def test_refinement_invariance_of_dirac_value(self):
        # shift-side refinements <U, V^f> keep the Dirac values on the f-grid
        # (the refined bases are subsets of the original ones), and the
        # rescaling Delta is invariant for every (e,f) pair
        p = ScaleParams(F(1), 12)
        M = build_module(algebra(p), SpecPoint.principal_point())
        N = M.dim
        vb = v_basis(M)
        ctx = delta_k(word(p, 1, 0), word(p, 0, 1), p)
        for f in (1, 2, 3):
            ctx_f = delta_k(word(p, 1, 0), word(p, 0, f), p)
            assert abs(ctx_f.delta - ctx.delta) < 1e-15
            for j in range(N // f):
                for m in range(0, N, f):
                    lhs = dirac_inner(M.basis_vector(f * j), vb[m], ctx_f)
                    rhs = dirac_inner(M.basis_vector(f * j), vb[m], ctx)
                    assert abs(lhs - rhs) < 1e-12
        for e in (1, 2, 3):
            for f in (1, 2, 3):
                sub = delta_k(word(p, e, 0), word(p, 0, f), p)
                # b' = ef, aR' = e, aS' = f: Delta is unchanged
                assert abs(sub.delta - ctx.delta) < 1e-15


class TestXPKernel:
    def test_origin(self):
        p = ScaleParams(F(1), 1000)
        s = xp_kernel(0.0, 0.0, p)
        assert abs(s.value - 1 / math.sqrt(2 * math.pi * p.hbar)) < 1e-14

    def test_modulus_independent_of_point(self):
        p = ScaleParams(F(1), 1000)
        target = 1 / math.sqrt(2 * math.pi * p.hbar)
        for x, pp in [(0.3, -0.7), (1.2, 2.5), (-3.0, 0.1)]:
            assert abs(abs(xp_kernel(x, pp, p).value) - target) < 1e-13

    def test_phase_ratio_law(self):
        # K(x,p)/K(x,p') = e^{i x (p - p')/hbar} on lattice points
        p = ScaleParams(F(1), 1000)
        hbar = p.hbar
        x = 40 * hbar / p.mu
        p1, p2 = 300 * hbar / p.mu, -200 * hbar / p.mu
        k1, k2 = xp_kernel(x, p1, p), xp_kernel(x, p2, p)
        ratio = k1.value / k2.value
        expect = cmath.exp(1j * x * (p1 - p2) / hbar)
        assert abs(ratio - expect) < 1e-9

    def test_out_of_range(self):
        p = ScaleParams(F(1), 10)
        with pytest.raises(OutOfRange):
            xp_kernel(1e9, 0.0, p)


class TestFreePropagator:
    def test_modulus_matches_closed_form(self):
        p = ScaleParams(F(1), 2520)
        for t in (F(1, 2), F(1), F(3, 2)):
            for x1, x2 in [(0.0, 0.0), (1.0, -1.0), (0.5, 0.25)]:
                s = free_propagator(x1, x2, t, p)
                assert abs(abs(s.value) - 1 / math.sqrt(2 * math.pi * p.hbar * float(t))) < 1e-10
                assert s.abs_err < 1e-9

    def test_t1_h1_modulus(self):
        p = ScaleParams(F(1), 2520)
        s = free_propagator(0.7, -0.3, F(1), p)
        assert abs(abs(s.value) - 1 / (2 * math.pi)) < 1e-12

    def test_negative_time_conjugate(self):
        p = ScaleParams(F(1), 240)
        s_pos = free_propagator(0.5, 0.0, F(1, 2), p)
        s_neg = free_propagator(0.5, 0.0, F(-1, 2), p)
        assert abs(s_neg.value - s_pos.value.conjugate()) < 1e-10
        assert s_neg.abs_err < 1e-9

    def test_snapping(self):
        p = ScaleParams(F(1), 240)
        s = free_propagator(0.5001 * p.hbar / p.mu, 0.0, F(1), p)
        # snapped onto the nearest lattice multiple of b hbar / mu
        assert abs(s.x1 - round(0.5001) * p.hbar / p.mu) < 1e-15

    @pytest.mark.parametrize("sign", [1, -1])
    def test_gauss_constant_by_summation(self, sign):
        # sqrt(Nb)/G(Nb) = e^{-i sign pi/4} for even Nb; summed over Nb/2 + 1 terms
        assert abs(_gauss_constant(451584, sign) - cmath.exp(-sign * 1j * math.pi / 4)) < 1e-11
        assert _gauss_constant.cache_info().maxsize == 32

    def test_divisibility_errors(self):
        with pytest.raises(DivisibilityViolation):
            free_propagator(0, 0, F(1, 7), ScaleParams(F(1), 10))
        with pytest.raises(DivisibilityViolation):
            free_propagator(0, 0, F(0), ScaleParams(F(1), 10))


class TestQHOPropagator:
    def test_closed_form_345(self):
        p = ScaleParams(F(1), 4200)
        for x1 in (-1.0, 0.0, 1.0):
            for x2 in (-0.5, 0.5):
                s = qho_propagator(x1, x2, (3, 4, 5), p)
                assert s.abs_err < 1e-9

    def test_modulus_345(self):
        p = ScaleParams(F(1), 4200)
        s = qho_propagator(0.3, 0.4, (3, 4, 5), p)
        assert abs(abs(s.value) - 1 / math.sqrt(2 * math.pi * p.hbar * 0.6)) < 1e-10

    def test_origin_value(self):
        p = ScaleParams(F(1), 4200)
        s = qho_propagator(0.0, 0.0, (3, 4, 5), p)
        expect = cmath.exp(-1j * math.pi / 4) / math.sqrt(2 * math.pi * p.hbar * 0.6)
        assert abs(s.value - expect) < 1e-10

    def test_5_12_13(self):
        p = ScaleParams(F(1), 4160)
        s = qho_propagator(1.0, -1.0, (5, 12, 13), p)
        assert s.abs_err < 1e-9

    def test_errors(self):
        with pytest.raises(NotPythagorean):
            qho_propagator(0, 0, (2, 3, 4), ScaleParams(F(1), 60))
        with pytest.raises(DivisibilityViolation):
            qho_propagator(0, 0, (3, 4, 5), ScaleParams(F(1), 16))


def round_then_check(x: float, step: float, half: int) -> int:
    """The lattice-point rule as the propagators once wrote it, the oracle of
    _lattice_index: round first, so a NaN or infinite x/step raises from round."""
    n = round(x / step)
    if abs(n) > half:
        raise OutOfRange("grid point outside the submodule window")
    return n


class TestLatticeIndex:
    @pytest.mark.parametrize("step", [1.0, 0.25, 2 * math.pi / 240, 15 * 2 * math.pi / 300])
    @pytest.mark.parametrize("half", [0, 1, 2, 7, 1024])
    def test_agrees_with_round_then_check(self, step, half):
        # quarters of a step through both edges of the window: exact .5 ties
        # (exact quotients for the power-of-two steps), +-half, +-(half + 1/2)
        # and +-(half + 1), each with its float neighbours
        qs = [k / 4 for k in range(-4 * half - 8, 4 * half + 9)]
        edges = [e for q in (half, half + 0.5, half + 1) for e in (q, -q)]
        qs += [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)]
        xs = [q * step for q in qs] + [math.nan, math.inf, -math.inf, 1e308, -1e308]
        for x in xs:
            try:
                want = round_then_check(x, step, half)
            except (OutOfRange, ValueError, OverflowError):
                with pytest.raises(OutOfRange, match="grid point outside the submodule window"):
                    _lattice_index(x, step, half)
            else:
                got = _lattice_index(x, step, half)
                assert got == want and type(got) is int, (x, step, half)

    def test_nan_and_infinite_quotients_never_reach_round(self, monkeypatch):
        def fail(x):
            raise AssertionError(f"round({x}) ran")

        monkeypatch.setattr(dirac, "round", fail, raising=False)  # shadows the builtin in dirac
        for x in (math.nan, math.inf, -math.inf, 1e308, -1e308):
            with pytest.raises(OutOfRange):
                _lattice_index(x, 0.25, 7)


class TestExactKernels:
    """The float kernels are the exact transforms' matrix elements, Dirac-rescaled."""

    @pytest.mark.parametrize("t", [F(1, 2), F(1), F(3, 2), F(-1, 2)])
    def test_free_propagator_is_free_evolution(self, t):
        p = ScaleParams(F(1), 12)
        G = free_evolution(build_module(algebra(p), SpecPoint.principal_point()),
                           t.numerator, t.denominator)
        Nb = G.dim
        dx = abs(t.numerator) * p.hbar / p.mu
        for l in range(-(Nb // 2), Nb // 2 + 1):
            for m in range(-(Nb // 2), Nb // 2 + 1):
                exact = inner(G.dom(l % Nb), G.image(m % Nb)).to_complex() / dx
                assert abs(free_propagator(l * dx, m * dx, t, p).value - exact) < 1e-12

    @pytest.mark.parametrize("mu", [30, 60])
    def test_qho_propagator_is_qho_evolution(self, mu):
        p = ScaleParams(F(1), mu)
        K = qho_evolution(build_module(algebra(p), SpecPoint.principal_point()), 3, 4, 5)
        dim = K.dim
        step, dx = 15 * p.hbar / mu, 3 * p.hbar / mu
        for n in range(-(dim // 2), dim // 2 + 1):
            for m in range(-(dim // 2), dim // 2 + 1):
                exact = inner(K.dom(n % dim), K.image(m % dim)).to_complex()
                assert abs(qho_propagator(n * step, m * step, (3, 4, 5), p).value * dx - exact) < 1e-12

    # N = 36: Nb = 9 is odd; N = 100: 7 does not divide it; t = 0
    @pytest.mark.parametrize("mu,t", [(6, F(1, 4)), (10, F(1, 7)), (6, F(0))])
    def test_refusals_agree(self, mu, t):
        p = ScaleParams(F(1), mu)
        with pytest.raises(DivisibilityViolation) as exact:
            free_evolution(build_module(algebra(p), SpecPoint.principal_point()),
                           t.numerator, t.denominator)
        with pytest.raises(DivisibilityViolation) as flt:
            free_propagator(0.0, 0.0, t, p)
        assert type(exact.value) is type(flt.value)
        assert str(exact.value) == str(flt.value)


class TestQHOTrace:
    @pytest.mark.parametrize(
        "triple,mu",
        [((3, 4, 5), 210), ((5, 12, 13), 520), ((8, 15, 17), 1632)],
    )
    def test_matches_closed_form(self, triple, mu):
        r = qho_trace(triple, ScaleParams(F(1), mu))
        assert r.abs_err < 1e-9

    def test_345_modulus_sqrt10(self):
        r = qho_trace((3, 4, 5), ScaleParams(F(1), 210))
        assert abs(abs(r.value) - math.sqrt(10)) < 1e-8
        assert abs(r.closed_form - (-1j * math.sqrt(10))) < 1e-12

    @pytest.mark.parametrize(
        "triple,mu",
        [((3, 4, 5), 210), ((3, 4, 5), 1200), ((5, 12, 13), 520), ((8, 15, 17), 1632)],
    )
    def test_matches_full_diagonal_sum(self, triple, mu):
        # the whole diagonal, every term, as one array: checks the one-period
        # and half-period reductions instead of assuming them
        e, f, c = triple
        params = ScaleParams(F(1), mu)
        N = params.N
        r = qho_trace(triple, params)
        assert r.terms == N // (e * c * (c - f))
        n = np.arange(r.terms, dtype=np.int64)
        expo = (e * c * c * (c - f) * ((n * n) % N)) % N
        total = complex(np.exp(-2j * np.pi * expo / N).sum())
        direct = cmath.exp(-1j * math.pi / 4) * math.sqrt(e * c / N) * total
        assert abs(r.value - direct) < 1e-11

    def test_bounded_memory(self):
        # a whole-array sum at this size peaks near 250 MB
        tracemalloc.start()
        try:
            r = qho_trace((3, 4, 5), ScaleParams(F(1), 8370))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.abs_err < 1e-9
        assert peak < 16 * 2**20

    def test_int64_limit_refused_before_allocating(self):
        # L = mu^2/75 = 1.08e10: n = L/2 would overflow int64 in n^2
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRange, match="int64"):
                qho_trace((3, 4, 5), ScaleParams(F(1), 900000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_divisibility(self):
        with pytest.raises(DivisibilityViolation):
            qho_trace((3, 4, 5), ScaleParams(F(1), 16))
        # c = f would make sin(t/2) = 0: rejected by the triple validation
        with pytest.raises(NotPythagorean):
            qho_trace((0, 5, 5), ScaleParams(F(1), 210))


class TestStMu:
    def test_basics(self):
        p = ScaleParams(F(1), 100)
        assert st_mu(0, p) == 0
        assert st_mu(100, p) == 1
        assert st_mu(-250, p) == -2.5

    def test_window_reduction(self):
        p = ScaleParams(F(1), 10)  # N = 100
        assert st_mu(60, p) == st_mu(-40, p)

    def test_order_preserved_on_window(self):
        p = ScaleParams(F(1), 100)
        xs = [st_mu(m, p) for m in range(-300, 300, 7)]
        assert xs == sorted(xs)

    def test_additive_on_finite_window(self):
        p = ScaleParams(F(1), 100)
        assert st_mu(130, p) + st_mu(70, p) == st_mu(200, p)


class TestWeakRing:
    def test_phase_coherence_at_scale(self):
        p = ScaleParams(F(1), 10000)
        assert weakring_max_phase_error(p, count=1000, seed=3) <= 1e-6


class TestCCR:
    def test_residual_positive(self):
        p = ScaleParams(F(1), 60)
        assert ccr_residual(p) > 0

    def test_halving_ratio(self):
        rs = {mu: ccr_residual(ScaleParams(F(1), mu)) for mu in (60, 120, 240)}
        for mu in (60, 120):
            ratio = rs[2 * mu] / rs[mu]
            assert 0.45 <= ratio <= 0.55

    def test_monotone_decreasing(self):
        rs = [ccr_residual(ScaleParams(F(1), mu)) for mu in (60, 120, 240, 480)]
        assert all(b < a for a, b in zip(rs, rs[1:]))

    def test_kinds(self):
        p = ScaleParams(F(1), 120)
        assert 0 < ccr_residual(p) < 1

    def test_q_eigenvalue_exact_form(self):
        # lattice eigenstates are exact Q-eigenvectors with eigenvalue
        # mu sin(x/mu); the eigenvalue approaches x at rate x^3/(6 mu^2)
        p = ScaleParams(F(1), 240)
        for k in (0, 1, 10, 50):
            x = p.hbar * k / p.mu
            lam = q_operator_eigenvalue(k, p)
            assert abs(lam - x) <= abs(x) ** 3 / (6 * p.mu ** 2) + 1e-12

    def test_q_p_self_adjoint(self):
        # dense check on a small module: Q diag real, P antisymmetric/2i
        mu = 4
        p = ScaleParams(F(1), mu)
        N = p.N
        Q = np.zeros((N, N), complex)
        P = np.zeros((N, N), complex)
        for k in range(N):
            Q[k, k] = mu * math.sin(p.hbar * k / mu ** 2)
            P[(k - 1) % N, k] += mu / 2j
            P[(k + 1) % N, k] -= mu / 2j
        assert np.allclose(Q, Q.conj().T)
        assert np.allclose(P, P.conj().T)


def two_route_ccr_residual(params: ScaleParams, numpy_route: bool) -> float:
    """The former ccr_residual, kept as the oracle: complex numpy algebra
    with a shift operator, or real list algebra with a shift helper, on the
    normalized Gaussian."""
    hbar, mu = params.hbar, params.mu
    sigma = math.sqrt(mu / float(params.h))
    W = max(8, int(10 * sigma))
    if numpy_route:
        k = np.arange(-W, W + 1, dtype=np.int64)
        psi = np.exp(-(k.astype(float) ** 2) / (4 * sigma * sigma)).astype(complex)
        psi /= np.linalg.norm(psi)
        diag = mu * np.sin(hbar * k / mu ** 2)

        def apply_shift(v):
            # mu (T_down - T_up)/2i with T_down v|_j = v_{j+1} (V-action)
            vp = np.empty_like(v)
            vm = np.empty_like(v)
            vp[:-1] = v[1:]
            vp[-1] = 0
            vm[1:] = v[:-1]
            vm[0] = 0
            return mu * (vp - vm) / 2j

        r = diag * apply_shift(psi) - apply_shift(diag * psi) - 1j * hbar * psi
        return float(np.linalg.norm(r) / hbar)

    ks = range(-W, W + 1)
    psi = [math.exp(-(k * k) / (4 * sigma * sigma)) for k in ks]
    norm = math.sqrt(math.fsum(x * x for x in psi))
    psi = [x / norm for x in psi]
    diag = [q_operator_eigenvalue(k, params) for k in ks]

    def shift(v):
        # P v = -i shift(v): mu (v_{j+1} - v_{j-1})/2, zero past the window
        ext = [0.0, *v, 0.0]
        return [mu * (b - a) / 2 for a, b in zip(ext, ext[2:])]

    r = [d * x - y + hbar * p
         for d, x, y, p in zip(diag, shift(psi), shift([d * p for d, p in zip(diag, psi)]), psi)]
    return math.sqrt(math.fsum(x * x for x in r)) / hbar


def mpmath_ccr_residual(params: ScaleParams) -> float:
    """The residual of ccr_residual's formula over the same window, at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        mu, h = params.mu, params.h
        hbar = 2 * mpmath.pi * h.numerator / h.denominator
        W = max(8, int(10 * math.sqrt(mu / float(h))))
        e = [mpmath.exp(-mpmath.mpf(k * k) * h.numerator / (4 * mu * h.denominator)) if abs(k) <= W else 0
             for k in range(-W - 1, W + 2)]
        d = [mu * mpmath.sin(hbar * k / mu ** 2) for k in range(-W - 1, W + 2)]
        r = [mpmath.mpf(mu) / 2 * ((d[i] - d[i + 1]) * e[i + 1] - (d[i] - d[i - 1]) * e[i - 1]) + hbar * e[i]
             for i in range(1, 2 * W + 2)]
        return float(mpmath.norm(r) / (hbar * mpmath.norm(e)))


class TestCCRFormula:
    """ccr_residual's one formula on both routes, and its scale bound."""

    # every (mu, h) of mu in {30, 60, 120, 240, 480, 10^4}, h in {1/4, 1}
    # that is a scale: h = 1/4 needs 4 | mu, which 30 is not
    SCALES = [(mu, h) for h in (F(1, 4), F(1)) for mu in (30, 60, 120, 240, 480, 10**4) if mu % h.denominator == 0]

    @pytest.fixture(params=[True, False], ids=["numpy", "lists"])
    def numpy_route(self, request, monkeypatch):
        monkeypatch.setattr(dirac, "numpy_pays", lambda size, import_size: request.param)
        return request.param

    @pytest.mark.parametrize("mu, h", SCALES, ids=str)
    def test_matches_two_route_oracle(self, numpy_route, mu, h):
        p = ScaleParams(h, mu)
        old = two_route_ccr_residual(p, numpy_route)
        assert abs(ccr_residual(p) - old) <= 1e-12 * old

    @pytest.mark.parametrize("mu, h", [(30, F(1)), (120, F(1, 4)), (480, F(1)), (1920, F(4)), (10**4, F(1))], ids=str)
    def test_matches_40_digit_reference(self, numpy_route, mu, h):
        # mu/h in {30, 480, 10^4}
        p = ScaleParams(h, mu)
        ref = mpmath_ccr_residual(p)
        assert abs(ccr_residual(p) - ref) <= 1e-9 * ref

    @pytest.mark.parametrize("mu, h", [(dirac.CCR_SCALE_MAX + 2, F(1)), (dirac.CCR_SCALE_MAX // 4 + 4, F(1, 4)),
                                       (10**9, F(1)), (10**12, F(1))], ids=str)
    def test_refused_above_the_bound_before_any_work(self, monkeypatch, mu, h):
        p = ScaleParams(h, mu)
        assert p.mu / p.h > dirac.CCR_SCALE_MAX

        def fail(*args):
            raise AssertionError("work began before the refusal")

        for name in ("exp", "sin", "sqrt"):
            monkeypatch.setattr(math, name, fail)
        monkeypatch.setitem(sys.modules, "numpy", None)  # `import numpy` raises
        with pytest.raises(OutOfRange, match=f"CCR_SCALE_MAX = {dirac.CCR_SCALE_MAX}"):
            ccr_residual(p)

    def test_bound_itself_is_accepted(self, numpy_route):
        # the largest window: W = 40960, 2W + 3 entries
        assert 1e-8 < ccr_residual(ScaleParams(F(1, 4), dirac.CCR_SCALE_MAX // 4)) < 2e-8


def approx_eq(z, w, tol=1e-10):
    return abs(z - w) <= tol


def eval_complex(s):
    """(re, im) of an exact Scalar's float value."""
    z = s.to_complex()
    return (z.real, z.imag)


# Terms per chunk of the former quadratic_phase_sum.
PHASE_CHUNK = 1 << 16


def direct_phase_sum(P, sign, stop):
    """The former kernel, kept as the oracle: one cos and one sin per term,
    PHASE_CHUNK terms at a time, the chunk partials combined by math.fsum."""
    w = 2 * np.pi * sign / P
    re, im = [], []
    for lo in range(0, stop, PHASE_CHUNK):
        n = np.arange(lo, min(lo + PHASE_CHUNK, stop), dtype=np.int64)
        theta = w * ((n * n) % P)
        re.append(float(np.cos(theta).sum()))
        im.append(float(np.sin(theta).sum()))
    return complex(math.fsum(re), math.fsum(im))


def fsum_phase_sum(P, sign, stop):
    """Reference: each term e^{2 pi i sign (n^2 mod P)/P} from Python ints,
    the real and imaginary parts summed by math.fsum."""
    def terms():
        return (cmath.exp(2j * math.pi * sign * (n * n % P) / P) for n in range(stop))
    return complex(math.fsum(z.real for z in terms()), math.fsum(z.imag for z in terms()))


B, G = PHASE_BLOCK, PHASE_GROUP


class TestQuadraticPhaseSum:
    # odd and even P on both sides of the block, the former chunk (16 blocks)
    # and the block-group boundaries
    SIZES = [B - 1, B, B + 1, 16 * B - 1, 16 * B, 16 * B + 1,
             B * G - 1, B * G, B * G + 1, B * G + 3, 2 * B * G + 3]

    @pytest.mark.parametrize("P", SIZES)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_full_period_matches_direct_sum(self, P, sign):
        assert approx_eq(quadratic_phase_sum(P, sign, P), direct_phase_sum(P, sign, P), 1e-9)

    @pytest.mark.parametrize("P", SIZES)
    def test_partial_period_matches_direct_sum(self, P):
        stop = P // 2 + 12345
        assert approx_eq(quadratic_phase_sum(P, -1, stop), direct_phase_sum(P, -1, stop), 1e-9)

    @pytest.mark.parametrize("P", [7, 1000, B + 1, 2 * B])
    @pytest.mark.parametrize("stop", [1, 2, B // 2 + 3, B - 1])
    def test_shorter_than_one_block(self, P, stop):
        assert approx_eq(quadratic_phase_sum(P, 1, stop), direct_phase_sum(P, 1, stop), 1e-11)

    @pytest.mark.parametrize("P", [3 * B + 1, 3 * B + 2, 10**6 + 3, 10**6 + 4])
    @pytest.mark.parametrize("stop", [B, 3 * B, B * G, 2 * B * G])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_whole_blocks_without_tail(self, P, stop, sign):
        assert approx_eq(quadratic_phase_sum(P, sign, stop), direct_phase_sum(P, sign, stop), 1e-9)

    # P above INT64_SQRT_MAX and up to 2^62: the exponents are bounded by the
    # index range, not by P, so int64 stays exact
    @pytest.mark.parametrize("P", [INT64_SQRT_MAX + 2, 8 * 10**9 + 4, 2**61 - 1, 2**62 + 2])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_modulus_beyond_int64_squares(self, P, sign):
        stop = 3 * B + 17
        assert approx_eq(quadratic_phase_sum(P, sign, stop), direct_phase_sum(P, sign, stop), 1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10**12), st.integers(0, 4 * B + 100), st.sampled_from([1, -1]))
    def test_any_modulus_and_length(self, P, stop, sign):
        assert approx_eq(quadratic_phase_sum(P, sign, stop), direct_phase_sum(P, sign, stop), 1e-10)

    @pytest.mark.parametrize("L", [200_000, 811_200])
    def test_error_no_larger_than_direct_sum(self, L):
        # the half period qho_trace sums, against an fsum of exact phases
        stop = L // 2 + 1
        ref = fsum_phase_sum(L, -1, stop)
        assert abs(quadratic_phase_sum(L, -1, stop) - ref) <= abs(direct_phase_sum(L, -1, stop) - ref)

    def test_bounded_memory_over_several_groups(self):
        tracemalloc.start()
        try:
            z = quadratic_phase_sum(10**6 + 3, 1, 5 * B * G + 17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert approx_eq(z, direct_phase_sum(10**6 + 3, 1, 5 * B * G + 17), 1e-9)
        assert peak < 1 << 20

    def test_empty_range(self):
        assert quadratic_phase_sum(7, 1, 0) == 0

    @pytest.mark.parametrize("P", [B, 16 * B, B * G + 2, B * G + 4])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_half_period_identity(self, P, sign):
        # n and P - n give the same n^2 mod P
        assert approx_eq(symmetric_phase_sum(P, sign, P), direct_phase_sum(P, sign, P), 1e-9)

    @pytest.mark.parametrize("K", [B, 16 * B, B * G + 2])
    def test_half_period_identity_gauss(self, K):
        # m and K - m agree mod 2K in m^2 when K is even
        assert approx_eq(symmetric_phase_sum(2 * K, 1, K), direct_phase_sum(2 * K, 1, K), 1e-9)

    @pytest.mark.parametrize("P,K", [(7, 7), (10, 6), (12, 4)])
    def test_half_period_rejects_non_symmetry(self, P, K):
        with pytest.raises(ValueError):
            symmetric_phase_sum(P, 1, K)

    def test_int64_limit_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRange, match="int64"):
                quadratic_phase_sum(2**61 - 1, 1, INT64_SQRT_MAX + 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestGaussSumFloat:
    def test_float_backend_matches_exact(self):
        for N in (3, 5, 7, 9, 12):
            assert approx_eq(complex(*eval_complex(gauss_sum(N))), gauss_sum_float(N), 1e-10)


    @pytest.mark.parametrize("N", [3, 12, 70001, 451584])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_float_backend_matches_direct_sum(self, N, sign):
        # odd N sums the whole range, even N half of it
        assert approx_eq(gauss_sum_float(N, sign), direct_phase_sum(2 * N, sign, N), 1e-9)

    @pytest.mark.parametrize("gauss", [gauss_sum, gauss_sum_float], ids=["exact", "float"])
    @pytest.mark.parametrize("N", [0, -2, -3])
    def test_nonpositive_n_refused(self, gauss, N):
        with pytest.raises(ValueError, match="N must be positive"):
            gauss(N)


# Run in a fresh interpreter that never loads numpy: the plain-Python sums.
PLAIN_ROUTE_SCRIPT = """
import json, sys
from fractions import Fraction
from finiteweyl import dirac
cases = json.loads(sys.argv[1])
out = {"phase": [[z.real, z.imag] for z in (dirac.quadratic_phase_sum(*a) for a in cases["phase"])],
       "gauss": [[z.real, z.imag] for z in (dirac.gauss_sum_float(*a) for a in cases["gauss"])],
       "ccr": [dirac.ccr_residual(dirac.ScaleParams(Fraction(1), mu)) for mu in cases["ccr"]],
       "numpy": "numpy" in sys.modules}
print(json.dumps(out))
"""


class TestRoutesAgree:
    """The float sums without numpy (plain Python, below FLOAT_TERMS_IMPORT)
    against the numpy route that this process takes."""

    # (P, sign, stop): shorter than one block, whole blocks with and without
    # a tail, a modulus beyond int64 squares, and the empty sum
    PHASE = [(7, 1, 5), (1000, 1, B // 2 + 3), (B + 1, -1, B - 1), (3 * B + 1, 1, 3 * B + 17),
             (10**6 + 3, -1, 5 * B + 100), (3 * B + 2, 1, 2 * B), (2**61 - 1, 1, 2 * B + 5),
             (811_200, -1, 105_601), (7, 1, 0)]
    # (N, sign) at odd N (all N terms) and even N (half of them)
    GAUSS = [(4801, 1), (9999, 1), (12345, -1), (9600, 1), (57600, -1)]
    CCR_MU = [30, 60, 120, 240, 480]

    @pytest.fixture(scope="class")
    def plain(self):
        src = str(Path(dirac.__file__).resolve().parents[1])
        cases = {"phase": self.PHASE, "gauss": self.GAUSS, "ccr": self.CCR_MU}
        proc = subprocess.run([sys.executable, "-c", PLAIN_ROUTE_SCRIPT, json.dumps(cases)],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                              timeout=120, check=True)
        out = json.loads(proc.stdout)
        assert not out["numpy"]  # so every sum there took the plain-Python route
        assert "numpy" in sys.modules  # so this process takes the numpy route
        return out

    @staticmethod
    def agree(plain, loaded, terms):
        # 1e-12 of the sum's scale: its modulus, or sqrt(terms) where the
        # unit terms cancel below that (an odd-N Gauss sum has modulus 1)
        return abs(complex(*plain) - loaded) <= 1e-12 * max(abs(loaded), math.sqrt(terms))

    @pytest.mark.parametrize("i", range(len(PHASE)))
    def test_quadratic_phase_sum(self, plain, i):
        P, sign, stop = self.PHASE[i]
        assert self.agree(plain["phase"][i], quadratic_phase_sum(P, sign, stop), stop)

    @pytest.mark.parametrize("i", range(len(GAUSS)))
    def test_gauss_sum_float(self, plain, i):
        N, sign = self.GAUSS[i]
        assert self.agree(plain["gauss"][i], gauss_sum_float(N, sign), N)

    @pytest.mark.parametrize("i", range(len(CCR_MU)))
    def test_ccr_residual(self, plain, i):
        loaded = ccr_residual(ScaleParams(F(1), self.CCR_MU[i]))
        assert abs(plain["ccr"][i] - loaded) <= 1e-12 * loaded


class TestConvergeStudy:
    def test_ccr_order(self):
        rep = converge_study("ccr", [60, 120, 240, 480])
        assert -1.2 <= rep.fitted_order <= -0.8

    def test_ccr_order_is_the_least_squares_slope(self):
        # np.polyfit, the former fit, is the oracle
        mus = [30, 60, 120, 240]
        rep = converge_study("ccr", mus)
        fit = np.polyfit(np.log(mus), np.log(rep.residuals), 1)[0]
        assert abs(rep.fitted_order - fit) <= 1e-12 * abs(fit)

    @pytest.mark.parametrize("points", [2, 3, 4])
    def test_slope_matches_polyfit(self, points):
        rng = random.Random(points)
        for _ in range(50):
            xs = sorted(rng.sample(range(1, 10**4), points))
            xs = [math.log(x) for x in xs]
            ys = [rng.uniform(-40, 5) for _ in xs]
            fit = np.polyfit(xs, ys, 1)[0]
            assert abs(_slope(xs, ys) - fit) <= 1e-12 * max(abs(fit), 1)

    def test_single_mu_fits_no_order(self):
        # one point has no slope: None, as for the quantities that fit none
        rep = converge_study("ccr", [60])
        assert rep.fitted_order is None and len(rep.residuals) == 1

    def test_free_exact_identity(self):
        rep = converge_study("free", [120, 240])
        assert all(r <= 1e-9 for r in rep.residuals)

    def test_weakring_quantity(self):
        rep = converge_study("weakring", [100, 200])
        assert all(r <= 1e-6 for r in rep.residuals)

    def test_empty_list_error(self):
        with pytest.raises(ValueError):
            converge_study("ccr", [])

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            converge_study("ccr", [120, 60])
