import cmath
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finiteweyl
from finiteweyl.errors import OutOfRange
from finiteweyl.exactnum import (
    INT64_SQRT_MAX,
    PHASE_CHUNK,
    Cyc,
    _reduce_mod_cyclotomic,
    Scalar,
    conjugate,
    cyclotomic_poly,
    dot,
    eval_complex,
    gauss_sum,
    gauss_sum_float,
    quadratic_phase_sum,
    root_of_unity,
    split_square,
    sqrt_as_cyc,
    symmetric_phase_sum,
)


def approx_eq(z, w, tol=1e-10):
    return abs(z - w) <= tol


class TestCyclotomicPoly:
    def test_small_orders(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(3) == (1, 1, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)
        assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)

    def test_degree_is_totient(self):
        from math import gcd

        for M in range(1, 40):
            phi = sum(1 for k in range(1, M + 1) if gcd(k, M) == 1)
            assert len(cyclotomic_poly(M)) - 1 == phi


class TestRootOfUnity:
    def test_identity(self):
        assert root_of_unity(1, 0) == Scalar.one()

    def test_i(self):
        z = root_of_unity(4, 1)
        re, im = eval_complex(z)
        assert approx_eq(complex(re, im), 1j, 1e-14)

    def test_product_of_eighth_roots(self):
        z = root_of_unity(8, 2) * root_of_unity(8, 2)
        assert z == root_of_unity(8, 4)
        assert z == Scalar.rational(-1)
        # numeric cross-check of the derived value
        assert approx_eq(complex(*eval_complex(z)), -1.0, 1e-14)

    def test_exponent_reduced_mod_m(self):
        assert root_of_unity(6, 7) == root_of_unity(6, 1)
        assert root_of_unity(5, -1) == root_of_unity(5, 4)


class TestConjugate:
    def test_identity(self):
        assert conjugate(Scalar.one()) == Scalar.one()

    def test_root_inversion(self):
        for M, k in [(5, 2), (8, 3), (12, 7)]:
            assert conjugate(root_of_unity(M, k)) == root_of_unity(M, -k)

    def test_radical_fixed(self):
        # (1/sqrt 2)(1+i) -> (1/sqrt 2)(1-i), checked exactly and in floats
        s = Scalar.exact(Cyc.rational(1), 1, 2) * (Scalar.one() + root_of_unity(4, 1))
        c = conjugate(s)
        expect = Scalar.exact(Cyc.rational(1), 1, 2) * (Scalar.one() + root_of_unity(4, 3))
        assert c == expect
        assert approx_eq(complex(*eval_complex(c)), (1 - 1j) / cmath.sqrt(2), 1e-12)

    def test_involution(self):
        rng = random.Random(7)
        for _ in range(20):
            s = root_of_unity(24, rng.randrange(24)) * Scalar.exact(
                Cyc.rational(Fraction(rng.randrange(1, 5), rng.randrange(1, 5))), rng.choice([1, 2, 3, 5]), 1
            )
            assert conjugate(conjugate(s)) == s

    def test_ring_automorphism(self):
        rng = random.Random(11)
        for _ in range(10):
            a = root_of_unity(12, rng.randrange(12)) + root_of_unity(8, rng.randrange(8))
            b = root_of_unity(6, rng.randrange(6)) + Scalar.rational(rng.randrange(-3, 4))
            assert conjugate(a * b) == conjugate(a) * conjugate(b)
            assert conjugate(a + b) == conjugate(a) + conjugate(b)


class TestGaussSum:
    def test_n1(self):
        assert gauss_sum(1) == Scalar.one()

    def test_n2_direct(self):
        # two-term summation: 1 + e^{i pi /2} = 1 + i
        assert gauss_sum(2) == Scalar.one() + root_of_unity(4, 1)

    def test_n4_float(self):
        re, im = eval_complex(gauss_sum(4))
        assert approx_eq(complex(re, im), complex(1.41421356237, 1.41421356237), 1e-9)

    @pytest.mark.parametrize("N", list(range(2, 129, 2)))
    def test_modulus_squared_exact(self, N):
        g = gauss_sum(N)
        assert g * conjugate(g) == Scalar.rational(N)

    @pytest.mark.parametrize("N", [2, 4, 6, 12, 18, 30, 64])
    def test_even_closed_form_exact(self, N):
        # G(N) = sqrt(N) e^{i pi/4} for even N
        target = Scalar.exact(Cyc.zeta(8, 1), N, 1)
        assert gauss_sum(N) == target

    def test_float_backend_matches_exact(self):
        for N in (3, 5, 7, 9, 12):
            assert approx_eq(complex(*eval_complex(gauss_sum(N))), gauss_sum_float(N), 1e-10)

    def test_matches_per_term_sum(self):
        # every N <= 200, odd and even: counting residues as ints gives the
        # same element as adding one Fraction per term
        for N in range(1, 201):
            g, o = gauss_sum(N), gauss_sum_per_term(N)
            assert (g.rad, g.cyc.order, g.cyc.coeffs) == (o.rad, o.cyc.order, o.cyc.coeffs)

    @pytest.mark.parametrize("N", [3, 12, 70001, 451584])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_float_backend_matches_direct_sum(self, N, sign):
        # odd N sums the whole range, even N half of it
        assert approx_eq(gauss_sum_float(N, sign), direct_phase_sum(2 * N, sign, N), 1e-9)


def gauss_sum_per_term(N):
    """Oracle: G(N) with one Fraction addition per term m."""
    acc = {}
    M = 2 * N
    for m in range(N):
        k = (m * m) % M
        acc[k] = acc.get(k, Fraction(0)) + 1
    return Scalar(1, Cyc(M, acc))


def direct_phase_sum(P, sign, stop):
    """The whole range as one numpy array: the reference for the chunked kernel."""
    n = np.arange(stop, dtype=np.int64)
    return complex(np.exp(2j * np.pi * sign * ((n * n) % P) / P).sum())


class TestQuadraticPhaseSum:
    # odd and even P on both sides of each chunk boundary
    SIZES = [PHASE_CHUNK - 1, PHASE_CHUNK, PHASE_CHUNK + 1, 2 * PHASE_CHUNK + 3]

    @pytest.mark.parametrize("P", SIZES)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_full_period_matches_direct_sum(self, P, sign):
        assert approx_eq(quadratic_phase_sum(P, sign, P), direct_phase_sum(P, sign, P), 1e-9)

    @pytest.mark.parametrize("P", SIZES)
    def test_partial_period_matches_direct_sum(self, P):
        stop = P // 2 + 12345
        assert approx_eq(quadratic_phase_sum(P, -1, stop), direct_phase_sum(P, -1, stop), 1e-9)

    def test_empty_range(self):
        assert quadratic_phase_sum(7, 1, 0) == 0

    @pytest.mark.parametrize("P", [PHASE_CHUNK, 2 * PHASE_CHUNK + 2, 2 * PHASE_CHUNK + 4])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_half_period_identity(self, P, sign):
        # n and P - n give the same n^2 mod P
        assert approx_eq(symmetric_phase_sum(P, sign, P), direct_phase_sum(P, sign, P), 1e-9)

    @pytest.mark.parametrize("K", [PHASE_CHUNK, 2 * PHASE_CHUNK + 2])
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


class TestCycConstruction:
    def test_colliding_keys_add(self):
        a = Cyc(4, {0: 1, 4: 1})
        assert a.coeffs == {0: 2}
        assert a == Cyc.rational(2)
        assert approx_eq(a.eval(), 2)

    def test_colliding_keys_cancel(self):
        a = Cyc(4, {1: 1, 5: -1, 2: 3})
        assert a.coeffs == {2: 3}

    def test_zero_coefficients_dropped(self):
        assert Cyc(6, {1: 0, 7: 0}).coeffs == {}


class TestScalarAlgebra:
    def test_split_square(self):
        assert split_square(1) == (1, 1)
        assert split_square(4) == (2, 1)
        assert split_square(18) == (3, 2)
        assert split_square(360) == (6, 10)

    def test_radical_merging(self):
        a = Scalar.exact(Cyc.rational(1), 2, 1)
        b = Scalar.exact(Cyc.rational(1), 8, 1)
        assert a * b == Scalar.rational(4)

    def test_sqrt_as_cyc_values(self):
        import math

        for n in (2, 3, 5, 6, 7, 10, 13):
            assert approx_eq(sqrt_as_cyc(n).eval(), math.sqrt(n), 1e-10)

    def test_mixed_radicand_addition(self):
        import math

        s = Scalar.exact(Cyc.rational(1), 2, 1) + Scalar.exact(Cyc.rational(1), 3, 1)
        assert approx_eq(complex(*eval_complex(s)), math.sqrt(2) + math.sqrt(3), 1e-10)

    def test_division(self):
        a = root_of_unity(12, 5) * Scalar.exact(Cyc.rational(3), 2, 1)
        b = root_of_unity(8, 3) * Scalar.rational(Fraction(2, 7))
        assert (a / b) * b == a

    def test_inverse_of_sum(self):
        a = Scalar.one() + root_of_unity(5, 1)
        assert a * a.inv() == Scalar.one()

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            Scalar.one() * 0.5
        with pytest.raises(TypeError):
            0.5 * Scalar.one()
        with pytest.raises(TypeError):
            Scalar.one() + 1j
        assert Scalar.one() != 1.0
        # the exact constructors refuse floats instead of rounding them
        for build in (
            lambda: Scalar.rational(0.1),
            lambda: Cyc.rational(0.5),
            lambda: Cyc(4, {1: 0.5}),
            lambda: Cyc(4, {0: 1, 1: 0.0}),
            lambda: Cyc(4, {1: 1j}),
            lambda: Scalar.rational(np.float64(2.0)),
            # construction only: a canonical form of zeta_{2^55} is never built
            lambda: Scalar.phase(0.1),
            lambda: Cyc.zeta(8, 1).scale(0.5),
            lambda: Scalar.exact(Cyc.rational(1), 0.5),
            lambda: Scalar.exact(Cyc.rational(1), 1, 2.0),
        ):
            with pytest.raises(TypeError):
                build()
        assert Cyc(4, {1: Fraction(1, 2), 2: 3, 3: "1/3"}).coeffs == {
            1: Fraction(1, 2), 2: 3, 3: Fraction(1, 3)
        }
        assert Scalar.rational(Fraction(1, 10)) == Scalar.one() / 10

    def test_exact_rational_radicands(self):
        # sqrt(1/2) = sqrt(2)/2 whether the radicand comes as a Fraction or
        # as numerator and denominator; a float is refused by name
        half = Scalar.exact(Cyc.rational(1), Fraction(1, 2), 1)
        assert (half.rad, half.cyc.coeffs) == (2, {0: Fraction(1, 2)})
        assert half == Scalar.exact(Cyc.rational(1), 1, 2)
        assert approx_eq(half.to_complex(), math.sqrt(0.5), 1e-15)
        assert Scalar.exact(Cyc.rational(3), Fraction(8, 3), Fraction(2, 3)) == Scalar.rational(6)
        assert Scalar.exact(Cyc.rational(1), 2, 4) == half
        with pytest.raises(TypeError, match="0.5"):
            Scalar.exact(Cyc.rational(1), 0.5)
        for bad in ((0, 1), (1, 0), (Fraction(-1, 2), 1)):
            with pytest.raises(ValueError):
                Scalar.exact(Cyc.rational(1), *bad)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 23),
        st.integers(0, 23),
        st.fractions(min_value=-3, max_value=3),
        st.fractions(min_value=-3, max_value=3),
    )
    def test_product_evaluation_homomorphism(self, k1, k2, c1, c2):
        # eval(x*y) == eval(x)*eval(y) for Q(zeta_24) elements
        if c1 == 0 or c2 == 0:
            return
        x = Cyc.zeta(24, k1).scale(c1) + Cyc.rational(1)
        y = Cyc.zeta(24, k2).scale(c2)
        assert approx_eq((x * y).eval(), x.eval() * y.eval(), 1e-12)

    def test_canonical_equality_random_products(self):
        # canonical-form equality cross-validated against float evaluation
        rng = random.Random(3)
        for _ in range(40):
            factors = [
                root_of_unity(rng.choice([3, 4, 8, 12]), rng.randrange(12))
                for _ in range(rng.randrange(1, 8))
            ]
            s = Scalar.one()
            for f in factors:
                s = s * f
            t = Scalar.one()
            for f in reversed(factors):
                t = t * f
            assert s == t
            assert approx_eq(complex(*eval_complex(s)), complex(*eval_complex(t)), 1e-10)

    def test_unequal_scalars_detected(self):
        assert root_of_unity(7, 1) != root_of_unity(7, 2)
        assert Scalar.exact(Cyc.rational(1), 2, 1) != Scalar.rational(1)


class TestEvalPrecision:
    def test_high_precision_eval(self):
        z = root_of_unity(360, 77)
        re, im = eval_complex(z)
        expect = cmath.exp(2j * cmath.pi * 77 / 360)
        assert approx_eq(complex(re, im), expect, 1e-13)

    @pytest.mark.parametrize("M", [8, 360, 1024, 2520])
    def test_roots_of_unity_sum_to_zero(self, M):
        # the unreduced sum of every M-th root of unity: M terms, value 0
        assert approx_eq(Cyc(M, {k: 1 for k in range(M)}).eval(), 0, 1e-12)

    def test_gauss_sum_closed_form(self):
        # every even N up to 128, then a stride through 4096
        for N in list(range(2, 130, 2)) + list(range(130, 4097, 126)) + [4096]:
            expect = math.sqrt(N) * cmath.exp(1j * math.pi / 4)
            assert approx_eq(gauss_sum(N).to_complex(), expect, 1e-12), N

    def test_import_leaves_mpmath_out(self):
        src = str(Path(finiteweyl.__file__).resolve().parents[1])
        code = "import sys, finiteweyl; print('mpmath' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# the fused dot kernel against Scalar * and + as the oracle
# ---------------------------------------------------------------------------

def naive_dot(xs, ys, conj=False):
    total = Scalar.zero()
    for a, b in zip(xs, ys):
        total = total + (a.conj() if conj else a) * b
    return total


def random_amplitude(rng, N):
    """A random exact amplitude: radicand 1/2/3/6, order 1/4/8/12/24/2N, up
    to three terms with raw exponents past the order, or zero."""
    if rng.randrange(5) == 0:
        return Scalar.zero()
    order = rng.choice([1, 4, 8, 12, 24, 2 * N])
    terms = {rng.randrange(2 * order + 1): Fraction(rng.randint(-36, 36), rng.randint(1, 12))
             for _ in range(rng.randrange(4))}
    return Scalar(rng.choice([1, 2, 3, 6]), Cyc(order, terms))


class TestDot:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_matches_sum_of_products(self, rng, conj):
        N, n = rng.randint(1, 30), rng.randint(0, 8)
        xs = [random_amplitude(rng, N) for _ in range(n)]
        ys = [random_amplitude(rng, N) for _ in range(n)]
        got = dot(xs, ys, conj=conj)
        assert (got - naive_dot(xs, ys, conj)).is_zero()
        assert all(type(c) is Fraction for c in got.cyc.coeffs.values())

    def test_lifted_exponents_collide_and_cancel(self):
        # zeta_4 and zeta_8^2 are the same root: lifted to order 8 they share
        # an exponent, so i*1 + 1*(-zeta_8^2) must cancel exactly
        i, z82 = root_of_unity(4, 1), root_of_unity(8, 2)
        assert dot([i, Scalar.one()], [Scalar.one(), -z82]).is_zero()
        # conj(zeta_12) zeta_12 + conj(zeta_3) zeta_3 = 2 across orders 12 and 3
        z12, z3 = root_of_unity(12, 1), root_of_unity(3, 1)
        assert dot([z12, z3], [z12, z3], conj=True) == Scalar.rational(2)

    def test_radicands_merge(self):
        # sqrt2*sqrt2 + sqrt3*sqrt3 + sqrt6*sqrt(3/2): radicands square out
        r2, r3 = Scalar.exact(Cyc.rational(1), 2), Scalar.exact(Cyc.rational(1), 3)
        r6 = Scalar.exact(Cyc.rational(1), 6)
        r32 = Scalar.exact(Cyc.rational(1), 3, 2)
        assert dot([r2, r3, r6], [r2, r3, r32]) == Scalar.rational(8)
        # mixed radicands that survive: sqrt2 + sqrt3
        assert dot([r2, r3], [Scalar.one(), Scalar.one()]) == r2 + r3

    def test_empty_and_zero(self):
        assert dot([], []).is_zero()
        assert dot([Scalar.zero(), root_of_unity(8, 3)], [Scalar.one(), Scalar.zero()]).is_zero()



# ---------------------------------------------------------------------------
# reduction mod Phi_M on integer numerators against Fraction long division
# ---------------------------------------------------------------------------

def reduce_oracle(coeffs, M):
    """Oracle: long division by Phi_M with one Fraction operation per entry."""
    phi = cyclotomic_poly(M)
    deg = len(phi) - 1
    poly = [Fraction(0)] * max(M, deg)
    for k, c in coeffs.items():
        poly[k % M] += c
    for i in range(len(poly) - 1, deg - 1, -1):
        c = poly[i]
        if c:
            for j, p in enumerate(phi):
                poly[i - deg + j] -= c * p
    return {j: c for j, c in enumerate(poly[:deg]) if c}


class TestReduceModCyclotomic:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from([1, 2, 8, 12, 120, 240, 600, 1024]),
           st.randoms(use_true_random=False), st.booleans())
    def test_matches_fraction_oracle(self, M, rng, cancel):
        coeffs = {rng.randrange(2 * M): Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 7, 12, 360]))
                  for _ in range(rng.randint(1, 12))}
        if cancel:
            # times Phi_M, mod x^M - 1: every such element is zero
            prod = {}
            for k, c in coeffs.items():
                for j, p in enumerate(cyclotomic_poly(M)):
                    prod[(k + j) % M] = prod.get((k + j) % M, 0) + c * p
            coeffs = {k: c for k, c in prod.items() if c} or {0: Fraction(0)}
        got = _reduce_mod_cyclotomic(coeffs, M)
        assert got == reduce_oracle(coeffs, M)
        assert all(type(c) is Fraction for c in got.values())
        if cancel:
            assert got == {}
            assert Cyc(M, coeffs).is_zero()

    @pytest.mark.parametrize("M", [3, 97, 105, 210])
    def test_dense_rows(self, M):
        # Phi_p is dense and Phi_105 has a coefficient -2: every exponent at once
        coeffs = {k: Fraction(k + 1, 1 + k % 5) for k in range(M)}
        assert _reduce_mod_cyclotomic(coeffs, M) == reduce_oracle(coeffs, M)
