import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finiteweyl
from finiteweyl import exactnum
from finiteweyl.errors import ExactnessLost
from finiteweyl.exactnum import (
    Scalar,
    _monomial_rows,
    _on_basis,
    cyclotomic_poly,
    dot,
    gauss_sum,
    root_of_unity,
    split_square,
    sqrt_as_cyc,
    sum_abs2,
)


def approx_eq(z, w, tol=1e-10):
    return abs(z - w) <= tol


def eval_complex(s):
    """(re, im) of an exact Scalar's float value."""
    z = s.to_complex()
    return (z.real, z.imag)


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

    @pytest.mark.parametrize("M", [0, -4])
    @pytest.mark.parametrize("build", [Scalar.zeta, root_of_unity, lambda M, k: Scalar(M, {k: 1}),
                                       lambda M, k: Scalar(M, {0: k})],
                             ids=["zeta", "root_of_unity", "Scalar", "Scalar-rational"])
    def test_order_below_one_refused(self, build, M):
        # every name and the constructor refuse alike, before any value is
        # built: Scalar(-4, {1: 1}) once printed by an IndexError and
        # Scalar(0, {0: 1}) raised ZeroDivisionError
        with pytest.raises(ValueError, match="order must be positive"):
            build(M, 1)


class TestConjugate:
    def test_identity(self):
        assert Scalar.one().conj() == Scalar.one()

    def test_root_inversion(self):
        for M, k in [(5, 2), (8, 3), (12, 7)]:
            assert root_of_unity(M, k).conj() == root_of_unity(M, -k)

    def test_radical_fixed(self):
        # (1/sqrt 2)(1+i) -> (1/sqrt 2)(1-i), checked exactly and in floats
        s = Scalar.exact(Scalar.rational(1), 1, 2) * (Scalar.one() + root_of_unity(4, 1))
        c = s.conj()
        expect = Scalar.exact(Scalar.rational(1), 1, 2) * (Scalar.one() + root_of_unity(4, 3))
        assert c == expect
        assert approx_eq(complex(*eval_complex(c)), (1 - 1j) / cmath.sqrt(2), 1e-12)

    def test_involution(self):
        rng = random.Random(7)
        for _ in range(20):
            s = root_of_unity(24, rng.randrange(24)) * Scalar.exact(
                Scalar.rational(Fraction(rng.randrange(1, 5), rng.randrange(1, 5))), rng.choice([1, 2, 3, 5]), 1
            )
            assert s.conj().conj() == s

    def test_ring_automorphism(self):
        rng = random.Random(11)
        for _ in range(10):
            a = root_of_unity(12, rng.randrange(12)) + root_of_unity(8, rng.randrange(8))
            b = root_of_unity(6, rng.randrange(6)) + Scalar.rational(rng.randrange(-3, 4))
            assert (a * b).conj() == a.conj() * b.conj()
            assert (a + b).conj() == a.conj() + b.conj()


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
        assert g * g.conj() == Scalar.rational(N)

    @pytest.mark.parametrize("N", [2, 4, 6, 12, 18, 30, 64])
    def test_even_closed_form_exact(self, N):
        # G(N) = sqrt(N) e^{i pi/4} for even N
        target = Scalar.exact(Scalar.zeta(8, 1), N, 1)
        assert gauss_sum(N) == target

    def test_matches_per_term_sum(self):
        # every N <= 200, odd and even: counting residues as ints gives the
        # same element as adding one Fraction per term
        for N in range(1, 201):
            g, o = gauss_sum(N), gauss_sum_per_term(N)
            assert (g.rad, g.order, g.coeffs) == (o.rad, o.order, o.coeffs)


def gauss_sum_per_term(N):
    """Oracle: G(N) with one Fraction addition per term m."""
    acc = {}
    M = 2 * N
    for m in range(N):
        k = (m * m) % M
        acc[k] = acc.get(k, Fraction(0)) + 1
    return Scalar(M, acc)


class TestCycConstruction:
    def test_colliding_keys_add(self):
        a = Scalar(4, {0: 1, 4: 1})
        assert a.coeffs == {0: 2}
        assert a == Scalar.rational(2)
        assert approx_eq(a.to_complex(), 2)

    def test_colliding_keys_cancel(self):
        a = Scalar(4, {1: 1, 5: -1, 2: 3})
        assert a.coeffs == {2: 3}

    def test_zero_coefficients_dropped(self):
        assert Scalar(6, {1: 0, 7: 0}).coeffs == {}

    # a radicand that is not a squarefree int >= 1: 4 once printed sqrt(4)
    # and raised from sqrt_as_cyc on == 2, 0 built a nonzero-looking value,
    # -3 raised a math domain error in to_complex
    @pytest.mark.parametrize("rad", [4, 12, 0, -3, 2.0, 1.0, Fraction(2), Fraction(1)])
    def test_radicand_must_be_squarefree_int(self, rad):
        with pytest.raises(ValueError, match="radicand must be a squarefree integer >= 1"):
            Scalar(1, {0: 1}, rad)

    @pytest.mark.parametrize("rad", [1, 2, 3, 6, 30])
    def test_squarefree_radicand_accepted(self, rad):
        a = Scalar(1, {0: 1}, rad)
        assert a.rad == rad
        assert approx_eq(a.to_complex(), math.sqrt(rad), 1e-12)
        assert a * a == rad


class TestScalarAlgebra:
    def test_split_square(self):
        assert split_square(1) == (1, 1)
        assert split_square(4) == (2, 1)
        assert split_square(18) == (3, 2)
        assert split_square(360) == (6, 10)

    def test_radical_merging(self):
        a = Scalar.exact(Scalar.rational(1), 2, 1)
        b = Scalar.exact(Scalar.rational(1), 8, 1)
        assert a * b == Scalar.rational(4)

    def test_sqrt_as_cyc_values(self):
        import math

        for n in (2, 3, 5, 6, 7, 10, 13):
            assert approx_eq(sqrt_as_cyc(n).to_complex(), math.sqrt(n), 1e-10)

    def test_sqrt_as_cyc_squares_to_its_argument(self):
        squarefree = [n for n in range(1, 201) if split_square(n)[0] == 1]
        for n in squarefree:
            root = sqrt_as_cyc(n)
            assert root * root == n
            assert (root.order, root.coeffs, root.rad) == sqrt_oracle(n)

    @pytest.mark.parametrize("n", [0, -1, -3, 4, 8, 12, 18, 2.0, Fraction(2)])
    def test_sqrt_as_cyc_refuses_non_squarefree(self, n):
        # once sqrt_as_cyc(4) was sqrt(2), sqrt_as_cyc(0) was 1 and
        # sqrt_as_cyc(-3) was sqrt(3); 2.0 must not reach the cached sqrt(2)
        sqrt_as_cyc(2)
        with pytest.raises(ValueError, match="squarefree"):
            sqrt_as_cyc(n)

    def test_mixed_radicand_addition(self):
        import math

        s = Scalar.exact(Scalar.rational(1), 2, 1) + Scalar.exact(Scalar.rational(1), 3, 1)
        assert approx_eq(complex(*eval_complex(s)), math.sqrt(2) + math.sqrt(3), 1e-10)

    def test_division(self):
        a = root_of_unity(12, 5) * Scalar.exact(Scalar.rational(3), 2, 1)
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
            lambda: Scalar.rational(0.5),
            lambda: Scalar(4, {1: 0.5}),
            lambda: Scalar(4, {0: 1, 1: 0.0}),
            lambda: Scalar(4, {1: 1j}),
            lambda: Scalar.rational(np.float64(2.0)),
            # construction only: a canonical form of zeta_{2^55} is never built
            lambda: Scalar.phase(0.1),
            lambda: Scalar.exact(Scalar.rational(1), 0.5),
            lambda: Scalar.exact(Scalar.rational(1), 1, 2.0),
        ):
            with pytest.raises(TypeError):
                build()
        assert Scalar(4, {1: Fraction(1, 2), 2: 3, 3: "1/3"}).coeffs == {
            1: Fraction(1, 2), 2: 3, 3: Fraction(1, 3)
        }
        assert Scalar.rational(Fraction(1, 10)) == Scalar.one() / 10

    def test_exact_rational_radicands(self):
        # sqrt(1/2) = sqrt(2)/2 whether the radicand comes as a Fraction or
        # as numerator and denominator; a float is refused by name
        half = Scalar.exact(Scalar.rational(1), Fraction(1, 2), 1)
        assert (half.rad, half.coeffs) == (2, {0: Fraction(1, 2)})
        assert half == Scalar.exact(Scalar.rational(1), 1, 2)
        assert approx_eq(half.to_complex(), math.sqrt(0.5), 1e-15)
        assert Scalar.exact(Scalar.rational(3), Fraction(8, 3), Fraction(2, 3)) == Scalar.rational(6)
        assert Scalar.exact(Scalar.rational(1), 2, 4) == half
        with pytest.raises(TypeError, match="0.5"):
            Scalar.exact(Scalar.rational(1), 0.5)
        for bad in ((0, 1), (1, 0), (Fraction(-1, 2), 1)):
            with pytest.raises(ValueError):
                Scalar.exact(Scalar.rational(1), *bad)

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
        x = Scalar.zeta(24, k1) * c1 + Scalar.rational(1)
        y = Scalar.zeta(24, k2) * c2
        assert approx_eq((x * y).to_complex(), x.to_complex() * y.to_complex(), 1e-12)

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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_monomial_product_representation(self, rng):
        # a coefficient of 1 on either side is reused, not multiplied: the
        # product keeps the order and terms of the plain Fraction product
        def monomial():
            order = rng.choice([1, 2, 3, 4, 5, 8, 12, 24])
            coeff = rng.choice([Fraction(1), Fraction(1), Fraction(-1), Fraction(3), Fraction(2, 5),
                                Fraction(-7, 3)])
            return rng.choice([1, 2, 3, 6]), Scalar(order, {rng.randrange(order): coeff})

        (r1, x), (r2, y) = monomial(), monomial()
        L = math.lcm(x.order, y.order)
        (k1, c1), = x.coeffs.items()
        (k2, c2), = y.coeffs.items()
        expect = (L, {(k1 * (L // x.order) + k2 * (L // y.order)) % L: c1 * c2})
        got = x * y
        assert (got.order, got.coeffs) == expect
        assert all(type(c) is Fraction for c in got.coeffs.values())
        s, r = split_square(r1 * r2)
        prod = Scalar(x.order, x.coeffs, r1) * Scalar(y.order, y.coeffs, r2)
        assert (prod.rad, prod.order, prod.coeffs) == (r, L, {k: c * s for k, c in expect[1].items()})

    def test_monomial_product_cases(self):
        one, half = Fraction(1), Fraction(1, 2)
        for x, y, expect in [
            (Scalar(4, {1: one}), Scalar(6, {1: Fraction(-2, 3)}), (12, {5: Fraction(-2, 3)})),  # 1 on the left
            (Scalar(6, {5: Fraction(5, 7)}), Scalar(4, {3: one}), (12, {7: Fraction(5, 7)})),  # 1 on the right
            (Scalar(8, {3: one}), Scalar(8, {6: one}), (8, {1: one})),  # 1 on both sides
            (Scalar(3, {2: -one}), Scalar(1, {0: half}), (3, {2: -half})),
            (Scalar(5, {1: Fraction(-3, 4)}), Scalar(2, {1: Fraction(-2, 9)}), (10, {7: Fraction(1, 6)})),
        ]:
            got = x * y
            assert (got.order, got.coeffs) == expect

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_product_matches_the_term_loop(self, rng):
        # mixed orders, radicands 1/2/3/6 and zero operands; y is sometimes
        # x with flipped signs, so that products cancel term for term
        x = random_amplitude(rng, rng.randint(1, 12))
        if x.coeffs and rng.random() < 0.3:
            y = Scalar(x.order, {k: rng.choice([1, -1]) * c for k, c in x.coeffs.items()},
                       rng.choice([1, 2, 3, 6]))
        else:
            y = random_amplitude(rng, rng.randint(1, 12))
        got = x * y
        order, terms, rad = mul_oracle(x, y)
        assert got.coeffs == terms
        assert all(type(c) is Fraction for c in got.coeffs.values())
        if terms:
            assert (got.order, got.rad) == (order, rad)

    def test_product_cancelling_to_zero(self):
        # (1 + i^2)(1 - i^2): every term cancels; (1 + i)(1 - i) = 2 keeps two
        for x, y, expect in [
            (Scalar(4, {0: 1, 2: 1}), Scalar(4, {0: 1, 2: -1}), {}),
            (Scalar(4, {0: 1, 2: 1}, 2), Scalar(4, {0: Fraction(1, 3), 2: Fraction(-1, 3)}, 2), {}),
            (Scalar(4, {0: 1, 1: 1}), Scalar(4, {0: 1, 1: -1}), {0: 1, 2: -1}),
        ]:
            got = x * y
            assert got.coeffs == expect == mul_oracle(x, y)[1]
            assert got == (0 if not expect else 2)

    def test_unequal_scalars_detected(self):
        assert root_of_unity(7, 1) != root_of_unity(7, 2)
        assert Scalar.exact(Scalar.rational(1), 2, 1) != Scalar.rational(1)


# each operator with a plain number on either side, against the same
# operation on Scalars and on the complex values
PLAIN_OPERANDS = {
    "1 + x": (lambda x: 1 + x, lambda x: Scalar.one() + x, lambda z: 1 + z),
    "x + 1": (lambda x: x + 1, lambda x: x + Scalar.one(), lambda z: z + 1),
    "1 - x": (lambda x: 1 - x, lambda x: Scalar.one() - x, lambda z: 1 - z),
    "x - 1": (lambda x: x - 1, lambda x: x - Scalar.one(), lambda z: z - 1),
    "3 * x": (lambda x: 3 * x, lambda x: Scalar.rational(3) * x, lambda z: 3 * z),
    "x * 3": (lambda x: x * 3, lambda x: x * Scalar.rational(3), lambda z: z * 3),
    "2/3 / x": (lambda x: Fraction(2, 3) / x, lambda x: Scalar.rational(Fraction(2, 3)) / x,
                lambda z: (2 / 3) / z),
    "1 / x": (lambda x: 1 / x, lambda x: x.inv(), lambda z: 1 / z),
    "x / 2": (lambda x: x / 2, lambda x: x * Scalar.rational(Fraction(1, 2)), lambda z: z / 2),
}


class TestPlainNumberOperands:
    VALUES = {
        "rational": Scalar.rational(2),
        "sum": root_of_unity(5, 1) + Scalar.rational(Fraction(1, 3)),
        "radicand": Scalar.exact(Scalar.zeta(8, 3), 3),
        "sum with radicand": Scalar.exact(root_of_unity(5, 1) + Scalar.rational(2), 3),
    }

    @pytest.mark.parametrize("form", list(PLAIN_OPERANDS))
    @pytest.mark.parametrize("name", list(VALUES))
    def test_either_side(self, form, name):
        x = self.VALUES[name]
        plain, scalars, floats = PLAIN_OPERANDS[form]
        got = plain(x)
        assert isinstance(got, Scalar)
        assert got == scalars(x)
        assert approx_eq(got.to_complex(), floats(x.to_complex()), 1e-12)


class TestZeroAndEquality:
    def test_zero_with_a_radicand_is_rational(self):
        z = Scalar(4, {0: 1, 2: 1}, 2)  # sqrt(2) (1 + i^2)
        assert z.is_zero() and z == 0
        assert z.is_rational() and z.rational_value() == 0

    def test_rational_value_through_a_radicand(self):
        # sqrt(2) (zeta_8 + zeta_8^7) = sqrt(2) sqrt(2), kept at radicand 2
        v = Scalar.exact(sqrt_as_cyc(2), 2)
        assert v.rad == 2
        assert v.is_rational() and v.rational_value() == 2 and v == 2
        w = Scalar.exact(Scalar.one(), 2)
        assert not w.is_rational()
        with pytest.raises(ExactnessLost):
            w.rational_value()

    def test_sqrt_of_rational(self):
        assert Scalar.zero().sqrt_of_rational() == 0
        assert Scalar.zero().sqrt_of_rational().is_zero()
        assert Scalar.rational(Fraction(9, 4)).sqrt_of_rational() == Fraction(3, 2)
        assert Scalar.rational(2).sqrt_of_rational() == Scalar.exact(Scalar.one(), 2)
        with pytest.raises(ExactnessLost):
            Scalar.rational(-1).sqrt_of_rational()

    def test_equal_to_plain_numbers(self):
        assert Scalar.rational(1) == 1 and 1 == Scalar.rational(1)
        assert Scalar.one() == 1
        assert Scalar(4, {2: 1}) == -1
        assert Scalar.rational(Fraction(1, 2)) == Fraction(1, 2)
        assert Scalar.rational(2) != 3
        assert Scalar.zero() == 0

    def test_one_class(self):
        # Cyc, the former name of the cyclotomic part, is the same class, and
        # .cyc is the factor without sqrt(rad)
        assert exactnum.Cyc is Scalar
        x = Scalar.exact(Scalar(12, {1: 2, 5: Fraction(-1, 3)}), 2)
        assert x.rad == 2
        c = x.cyc
        assert (c.rad, c.order, c.coeffs) == (1, x.order, x.coeffs)
        assert c.cyc is c


def one_term(rng):
    """sqrt(r) c zeta_M^k with r in {1, 2, 3, 6} and c = +-1, +-2 or +-1/2."""
    M = rng.choice([1, 2, 3, 4, 6, 8, 12])
    c = rng.choice([1, 2, Fraction(1, 2)]) * rng.choice([1, -1])
    return Scalar(M, {rng.randrange(M): c}, rng.choice([1, 2, 3, 6]))


def equal_forms(x, f):
    """x at order f M, and x with its sign flipped and half a turn added at 2 f M."""
    (k, c), = x.coeffs.items()
    M = x.order
    return [Scalar(f * M, {f * k: c}, x.rad), Scalar(2 * f * M, {2 * f * k + f * M: -c}, x.rad)]


class TestOneTermEquality:
    """The one-term rule of Scalar.__eq__ against (x - y).is_zero()."""

    def test_random_pairs_agree_with_the_difference(self):
        rng = random.Random(61)
        equal = 0
        for _ in range(600):
            x = one_term(rng)
            ys = [one_term(rng)]
            for f in range(2, 6):
                ys += equal_forms(x, f)
                y = one_term(rng)
                ys += equal_forms(y, f)
            for y in ys:
                assert (x == y) is (x - y).is_zero() is not (x != y)
                assert (y == x) is (x == y)
                equal += x == y
        assert equal >= 600 * 8

    def test_int_and_fraction_operands(self):
        rng = random.Random(62)
        for _ in range(300):
            v = rng.choice([1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 4)])
            x = Scalar(rng.choice([1, 2, 4, 6]), {rng.choice([0, 1, 2, 3]): rng.choice([v, -v, 1])},
                       rng.choice([1, 1, 2]))
            for y in (v, -v, Scalar.rational(v)):
                assert (x == y) is (x - y).is_zero()
        assert Scalar(2, {1: 1}) == -1 and Scalar(4, {2: Fraction(1, 2)}) == Fraction(-1, 2)
        assert Scalar(4, {1: 1}) != 1 and Scalar(1, {0: 1}, 2) != 1

    def test_zero_and_multi_term_operands_take_the_difference(self, monkeypatch):
        calls = []
        sub = Scalar.__sub__

        def counted(self, other):
            calls.append(1)
            return sub(self, other)

        monkeypatch.setattr(Scalar, "__sub__", counted)
        zeta2 = Scalar(2, {1: 1})  # -1
        root2 = Scalar(8, {1: 1, 3: -1})  # zeta_8 - zeta_8^3 = sqrt(2)
        cases = [(zeta2, -1, True), (zeta2, Scalar(4, {2: 1}), True), (zeta2, 1, False),
                 (Scalar.exact(Scalar.one(), 2), root2, True), (root2, Scalar.exact(Scalar.one(), 2), True),
                 (root2, Scalar(8, {1: 1, 7: 1}), True), (root2, Scalar(8, {1: 1}), False),
                 (Scalar.zero(), 0, True), (Scalar.zero(), zeta2, False), (Scalar(6, {}, 2), Scalar.zero(), True),
                 (Scalar(4, {0: 1, 2: 1}), 0, True), (zeta2, Scalar(4, {0: 1, 2: 1}), False)]
        for x, y, want in cases:
            one_term_pair = len(x.coeffs) == 1 and len(Scalar._coerce(y).coeffs) == 1
            calls.clear()
            assert (x == y) is want
            assert len(calls) == (0 if one_term_pair else 1)


class TestEvalPrecision:
    def test_high_precision_eval(self):
        z = root_of_unity(360, 77)
        re, im = eval_complex(z)
        expect = cmath.exp(2j * cmath.pi * 77 / 360)
        assert approx_eq(complex(re, im), expect, 1e-13)

    @pytest.mark.parametrize("M", [8, 360, 1024, 2520])
    def test_roots_of_unity_sum_to_zero(self, M):
        # the unreduced sum of every M-th root of unity: M terms, value 0
        assert approx_eq(Scalar(M, {k: 1 for k in range(M)}).to_complex(), 0, 1e-12)

    def test_gauss_sum_closed_form(self):
        # every even N up to 128, then a stride through 4096
        for N in list(range(2, 130, 2)) + list(range(130, 4097, 126)) + [4096]:
            expect = math.sqrt(N) * cmath.exp(1j * math.pi / 4)
            assert approx_eq(gauss_sum(N).to_complex(), expect, 1e-12), N

    def test_import_leaves_mpmath_out(self):
        src = str(Path(finiteweyl.__file__).resolve().parents[1])
        code = "import sys, finiteweyl; print('mpmath' in sys.modules, 'numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert proc.stdout.strip() == "False False"


# ---------------------------------------------------------------------------
# the fused dot kernel against Scalar * and + as the oracle
# ---------------------------------------------------------------------------

def mul_oracle(x, y):
    """Oracle: (order, terms, radicand) of x * y as the product loop formed
    them before `_accumulate`, one Fraction product per pair of terms."""
    s, r = split_square(x.rad * y.rad)
    L = math.lcm(x.order, y.order)
    out = {}
    for k1, c1 in x.lift(L).coeffs.items():
        for k2, c2 in y.lift(L).coeffs.items():
            k = (k1 + k2) % L
            t = out.get(k, 0) + c1 * s * c2
            if t:
                out[k] = t
            else:
                out.pop(k, None)
    return L, out, r


def sqrt_oracle(n):
    """Oracle: (order, terms, radicand) of sqrt_as_cyc(n) as it summed each
    Gauss sum, one root of unity at a time."""
    out = Scalar.one()
    for p in exactnum._factorize(n):
        if p == 2:
            root = Scalar(8, {1: 1, 7: 1})
        else:
            g = Scalar(p, {})
            for k in range(p):
                g = g + Scalar.zeta(p, k * k % p)
            root = g if p % 4 == 1 else Scalar.zeta(4, 3) * g
        out = out * root
    return out.order, out.coeffs, out.rad


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
    return Scalar(order, terms, rng.choice([1, 2, 3, 6]))


class TestDot:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_matches_sum_of_products(self, rng, conj):
        N, n = rng.randint(1, 30), rng.randint(0, 8)
        xs = [random_amplitude(rng, N) for _ in range(n)]
        ys = [random_amplitude(rng, N) for _ in range(n)]
        got = dot(xs, ys, conj=conj)
        assert (got - naive_dot(xs, ys, conj)).is_zero()
        assert all(type(c) is Fraction for c in got.coeffs.values())

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
        r2, r3 = Scalar.exact(Scalar.rational(1), 2), Scalar.exact(Scalar.rational(1), 3)
        r6 = Scalar.exact(Scalar.rational(1), 6)
        r32 = Scalar.exact(Scalar.rational(1), 3, 2)
        assert dot([r2, r3, r6], [r2, r3, r32]) == Scalar.rational(8)
        # mixed radicands that survive: sqrt2 + sqrt3
        assert dot([r2, r3], [Scalar.one(), Scalar.one()]) == r2 + r3

    def test_empty_and_zero(self):
        assert dot([], []).is_zero()
        assert dot([Scalar.zero(), root_of_unity(8, 3)], [Scalar.one(), Scalar.zero()]).is_zero()


def sum_abs2_oracle(forms):
    """Oracle: one `dot` per form, |s|^2 = conj(s) s summed one Scalar at a time."""
    total = Scalar.zero()
    for xs, ys in forms:
        s = dot(xs, ys, conj=True)
        total = total + s.conj() * s
    return total


class TestSumAbs2:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_matches_one_dot_per_form(self, rng):
        # multi-term and zero entries, radicands 1/2/3/6 mixed within and
        # across forms, orders 1 to 2N, empty forms and no forms at all
        N = rng.randint(1, 30)
        forms = []
        for _ in range(rng.randrange(6)):
            n = rng.randrange(6)
            forms.append(([random_amplitude(rng, N) for _ in range(n)],
                          [random_amplitude(rng, N) for _ in range(n)]))
        got = sum_abs2(forms)
        assert (got - sum_abs2_oracle(forms)).is_zero()
        assert all(type(c) is Fraction for c in got.coeffs.values())

    def test_order_one(self):
        # rationals and radicals only: (1/2 + 3 sqrt2)^2 + (sqrt3 - sqrt6/3)^2
        r2, r3, r6 = (Scalar.exact(Scalar.rational(1), r) for r in (2, 3, 6))
        half, one, third = Scalar.rational(Fraction(1, 2)), Scalar.one(), Scalar.rational(Fraction(1, 3))
        forms = [([half, r2], [one, Scalar.rational(3)]), ([r3, r6], [one, -third])]
        got = sum_abs2(forms)
        assert got == sum_abs2_oracle(forms)
        assert got == Scalar.rational(Fraction(1, 4) + 18 + 3 + Fraction(2, 3)) + r2 * 3 - r2 * 2

    def test_conjugation_counts(self):
        # s = conj(1) 1 + conj(i) i = 2; without the conjugation 1 + i^2 = 0
        i = root_of_unity(4, 1)
        forms = [([Scalar.one(), i], [Scalar.one(), i])]
        assert sum_abs2(forms) == Scalar.rational(4)
        assert sum_abs2(forms) == sum_abs2_oracle(forms)
        assert dot(*forms[0]).is_zero()

    def test_empty_and_zero(self):
        assert sum_abs2([]).is_zero()
        assert sum_abs2([([], []), ([Scalar.zero()], [root_of_unity(8, 3)])]).is_zero()
        # the terms of s cancel: zeta_4 against -zeta_8^2
        i, z82 = root_of_unity(4, 1), root_of_unity(8, 2)
        assert sum_abs2([([Scalar.one(), Scalar.one()], [i, -z82])]).is_zero()



# ---------------------------------------------------------------------------
# the Zumbroich basis against Fraction long division by Phi_M
# ---------------------------------------------------------------------------

def reduce_oracle(coeffs, M):
    """Oracle: the power-basis form, by long division by Phi_M with one
    Fraction operation per entry."""
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
    """`_on_basis` and `Scalar.canonical` against the power basis, as values."""

    def check(self, coeffs, M):
        got = _on_basis(Scalar(M, coeffs).coeffs, M)
        assert set(got) <= set(_monomial_rows(M)[0])
        assert reduce_oracle(got, M) == reduce_oracle(coeffs, M)
        assert all(type(c) is Fraction for c in got.values())
        canon = Scalar(M, coeffs).canonical()
        assert M % canon.order == 0
        assert set(canon.coeffs) <= set(_monomial_rows(canon.order)[0])
        assert reduce_oracle(canon.lift(M).coeffs, M) == reduce_oracle(coeffs, M)
        return got

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
        got = self.check(coeffs, M)
        if cancel:
            assert got == {}
            assert Scalar(M, coeffs).is_zero()

    @pytest.mark.parametrize("M", [3, 97, 105, 210])
    def test_dense_rows(self, M):
        # Phi_p is dense and Phi_105 has a coefficient -2: every exponent at once
        self.check({k: Fraction(k + 1, 1 + k % 5) for k in range(M)}, M)

    def test_basis(self):
        # phi(M) exponents: for M = 12, zeta_4^{0,1} times zeta_3^{1,2}
        assert _monomial_rows(12)[0] == (4, 7, 8, 11)
        for M in range(1, 200):
            assert len(_monomial_rows(M)[0]) == len(cyclotomic_poly(M)) - 1


class TestOneNormalForm:
    """Equal values print identically, whatever order and route built them."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.integers(1, 2048), st.randoms(use_true_random=False))
    def test_routes_print_alike(self, L, rng):
        divisors = [d for d in range(1, L + 1) if L % d == 0]

        def terms(order, count):
            return {rng.randrange(order): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                    for _ in range(count)}

        d, e = rng.choice(divisors), rng.choice(divisors)
        x, y = Scalar(d, terms(d, rng.randint(1, 5))), Scalar(e, terms(e, rng.randint(1, 4)))
        w = Scalar.zeta(e, rng.randrange(e))
        # x term by term, each term lifted to its own divisor of L that d divides
        parts = [Scalar(d, {k: c}).lift(rng.choice([m for m in divisors if m % d == 0]))
                 for k, c in x.coeffs.items()]
        routes = {"built": x, "lifted": x.lift(L), "difference": (x - y) + y,
                  "product": (x * w) * w.conj(), "sum": sum(parts, Scalar.zero())}
        printed = {name: repr(v) for name, v in routes.items()}
        assert len(set(printed.values())) == 1, printed
        canon = x.canonical()
        assert set(canon.coeffs) <= set(_monomial_rows(canon.order)[0])
        assert abs(canon.to_complex() - x.to_complex()) <= 1e-9 * (1 + abs(x.to_complex()))

    @pytest.mark.parametrize("routes, form", [
        ([Scalar(6, {1: 1}), Scalar(3, {2: -1})], "-1*z3^2"),
        ([Scalar.zeta(15, 9), Scalar.zeta(5, 3)], "1*z5^3"),
        ([Scalar.zeta(5, 4), Scalar.zeta(20, 16)], "1*z5^4"),
        ([sqrt_as_cyc(2), Scalar(8, {1: 1, 7: 1}), Scalar(16, {2: 1, 14: 1}),
          Scalar(4, {0: 1, 1: 1}) * Scalar.zeta(8, 7)], "1*z8^1 + -1*z8^3"),
        ([Scalar(12, {0: 1}), Scalar(5, {1: -1, 2: -1, 3: -1, 4: -1})], "1"),
    ], ids=["zeta6", "zeta5^3 at 15", "zeta5^4", "sqrt2", "one"])
    def test_cases(self, routes, form):
        assert {repr(x) for x in routes} == {f"Scalar({form})"}


# ---------------------------------------------------------------------------
# Scalar.inv by the Galois norm against the extended Euclid it replaces
# ---------------------------------------------------------------------------

def _poly_xgcd(a, b):
    """Return (g, s) with s*a = g mod b and g a constant gcd (a invertible mod b)."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def divmod_(num, den):
        num = list(num)
        q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
        inv = 1 / den[-1]
        for i in range(len(num) - len(den), -1, -1):
            c = num[i + len(den) - 1] * inv
            q[i] = c
            if c:
                for j, dj in enumerate(den):
                    num[i + j] -= c * dj
        return q, trim(num)

    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], [Fraction(0)]
    trim(r0), trim(r1)
    while r1:
        q, r = divmod_(r0, r1)
        r0, r1 = r1, r
        qs = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    qs[i + j] += qi * sj
        s0, s1 = s1, [x - y for x, y in zip(s0 + [Fraction(0)] * len(qs), qs + [Fraction(0)] * len(s0))]
        trim(s1)
    return r0, s0


def inverse_oracle(x):
    """Oracle: 1/x by extended Euclid of x's canonical form, mapped to the
    power basis, against Phi_M."""
    a = x.canonical()
    if not a.coeffs:
        raise ZeroDivisionError("inverse of zero cyclotomic element")
    M = a.order
    deg = len(cyclotomic_poly(M)) - 1
    dense = [Fraction(0)] * deg
    for k, c in reduce_oracle(a.coeffs, M).items():  # Zumbroich exponents to the power basis
        dense[k] = c
    phi = [Fraction(c) for c in cyclotomic_poly(M)]
    g, s = _poly_xgcd(dense, phi)
    if len(g) != 1:
        raise ZeroDivisionError("element not invertible (unexpected)")
    inv = [c / g[0] for c in s]
    return Scalar(M, {k: c for k, c in enumerate(inv) if c})


class TestCycInverse:
    # primes, prime powers, M = 2 mod 4 and composites up to 60
    ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 24, 25, 27, 30, 32, 36,
              42, 45, 49, 50, 54, 58, 60]

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(st.sampled_from(ORDERS), st.randoms(use_true_random=False))
    def test_matches_euclid_oracle(self, M, rng):
        x = Scalar(M, {rng.randrange(M): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                    for _ in range(rng.randint(2, 6))})
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inv()
            return
        inv = x.inv()
        assert inv == inverse_oracle(x)
        assert x * inv == Scalar.rational(1)

    def test_one_term_takes_no_canonical_form(self, monkeypatch):
        def fail(self):
            raise AssertionError("canonical form taken for a one-term inverse")

        for x, k, c in [(Scalar(24, {20: Fraction(3)}), 4, Fraction(1, 3)),
                        (Scalar(12, {0: -2}, _trusted=True), 0, Fraction(-1, 2)),
                        (Scalar(10, {5: Fraction(-7, 4)}), 5, Fraction(-4, 7))]:
            monkeypatch.setattr(Scalar, "canonical", fail)
            inv = x.inv()
            monkeypatch.undo()
            assert (inv.order, inv.coeffs) == (x.order, {k: c})
            assert type(inv.coeffs[k]) is Fraction
            assert x * inv == Scalar.rational(1)

    @pytest.mark.parametrize("x", [Scalar(6, {}), Scalar(3, {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)})],
                             ids=["empty", "1+z3+z3^2"])
    def test_zero_refused(self, x):
        with pytest.raises(ZeroDivisionError):
            x.inv()
