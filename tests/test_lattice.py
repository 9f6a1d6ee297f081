import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finiteweyl.errors import BadMatrix, NotCommutative, NotIncluded
from finiteweyl.lattice import (
    AutDesc,
    GenWord,
    WeylDesc,
    apply_automorphism,
    center,
    includes,
    join,
    lattice_intersect,
    maximal_commutative,
    q_order,
    rat_gcd,
    relative_indices,
    spectrum_project,
    up_functor,
)
from finiteweyl.repmod import SpecPoint


def intersect_centers(A: WeylDesc, B: WeylDesc) -> WeylDesc:
    """Oracle: Z(A) n Z(B), the lcm of the central exponent lattices."""
    ZA, ZB = center(A), center(B)
    return WeylDesc(rat_lcm(ZA.a, ZB.a), rat_lcm(ZA.b, ZB.b))


def rat_lcm(x, y):
    return x * y / rat_gcd(x, y)


def join_via_centers(A: WeylDesc, B: WeylDesc) -> WeylDesc:
    """Oracle: (Z(A) n Z(B))^up; agrees with `join` on numerator-1 algebras."""
    return up_functor(intersect_centers(A, B))


def count_cyclic_subgroups_bruteforce(N: int) -> int:
    """Oracle: enumerate order-N cyclic subgroups of (Z/N)^2 as element sets."""
    if N == 1:
        return 1
    groups = set()
    for g1 in range(N):
        for g2 in range(N):
            if N // gcd(gcd(g1, g2), N) != N:
                continue
            elems = frozenset(((k * g1) % N, (k * g2) % N) for k in range(N))
            groups.add(elems)
    return len(groups)


def rand_desc(rng, max_den=60, numerator_one=False):
    while True:
        if numerator_one:
            a = F(1, rng.randrange(1, max_den))
            b = F(1, rng.randrange(1, max_den))
            # scale to keep ab numerator 1 after reduction: 1/(m n) always has numerator 1
        else:
            a = F(rng.randrange(1, 12), rng.randrange(1, max_den))
            b = F(rng.randrange(1, 12), rng.randrange(1, max_den))
        if a and b:
            return WeylDesc(a, b)


class TestQOrder:
    def test_integer_product(self):
        assert q_order(WeylDesc(1, 1)) == 1
        assert q_order(WeylDesc(3, 2)) == 1

    def test_half_half(self):
        assert q_order(WeylDesc(F(1, 2), F(1, 2))) == 4

    @pytest.mark.parametrize("m,h", [(6, 1), (6, 2), (6, 3), (10, 5), (12, 4)])
    def test_scaled_heisenberg(self, m, h):
        # A(1/m, h/m) has N = m^2/h when h | m^2
        assert q_order(WeylDesc(F(1, m), F(h, m))) == m * m // h


class TestCenterAndUp:
    def test_commutative_is_own_center(self):
        A = WeylDesc(1, 1)
        assert center(A) == A

    def test_half_half_center(self):
        assert center(WeylDesc(F(1, 2), F(1, 2))) == WeylDesc(2, 2)

    def test_up_examples(self):
        assert up_functor(WeylDesc(1, 1)) == WeylDesc(1, 1)
        assert up_functor(WeylDesc(2, 2)) == WeylDesc(F(1, 2), F(1, 2))
        assert up_functor(WeylDesc(3, 1)) == WeylDesc(1, F(1, 3))

    def test_up_requires_commutative(self):
        with pytest.raises(NotCommutative):
            up_functor(WeylDesc(F(1, 2), F(1, 2)))

    def test_center_after_up_is_identity(self):
        # center(up(C)) == C for every commutative C
        rng = random.Random(5)
        for _ in range(100):
            a = F(rng.randrange(1, 9), rng.randrange(1, 9))
            b = F(rng.randrange(1, 60), 1) / a  # make ab an integer
            b = b * rng.randrange(1, 4)
            C = WeylDesc(a, b)
            assert C.is_commutative()
            assert center(up_functor(C)) == C

    def test_up_after_center_on_numerator_one(self):
        # inverse on the image of up: algebras with reduced ab of numerator 1
        rng = random.Random(6)
        count = 0
        while count < 100:
            m = rng.randrange(1, 60)
            n = rng.randrange(1, 60)
            A = WeylDesc(F(rng.choice([1, 2, 3]), m), F(1, n))
            if (A.a * A.b).numerator != 1:
                continue
            count += 1
            assert up_functor(center(A)) == A


class TestIncludesJoin:
    def test_includes_examples(self):
        assert includes(WeylDesc(1, 1), WeylDesc(F(1, 2), F(1, 2)))
        assert not includes(WeylDesc(F(1, 2), F(1, 2)), WeylDesc(1, 1))
        assert includes(WeylDesc(F(1, 2), 1), WeylDesc(F(1, 6), F(1, 2)))

    def test_join_examples(self):
        A = WeylDesc(1, F(1, 2))
        B = WeylDesc(F(1, 2), 1)
        assert join(A, B) == WeylDesc(F(1, 2), F(1, 2))
        assert join(A, A) == A

    def test_join_upper_bound_random(self):
        rng = random.Random(2)
        for _ in range(50):
            A, B = rand_desc(rng), rand_desc(rng)
            J = join(A, B)
            assert includes(A, J) and includes(B, J)

    def test_join_properties(self):
        rng = random.Random(3)
        for _ in range(30):
            A, B, C = rand_desc(rng), rand_desc(rng), rand_desc(rng)
            assert join(A, B) == join(B, A)
            assert join(join(A, B), C) == join(A, join(B, C))
            assert join(A, A) == A

    def test_join_agrees_with_center_route(self):
        # on numerator-1 algebras the lattice join equals (Z(A) n Z(B))^up
        rng = random.Random(4)
        done = 0
        while done < 40:
            A = WeylDesc(F(1, rng.randrange(1, 20)), F(1, rng.randrange(1, 20)))
            B = WeylDesc(F(1, rng.randrange(1, 20)), F(1, rng.randrange(1, 20)))
            J = join(A, B)
            if (J.a * J.b).numerator != 1:
                continue
            done += 1
            assert join_via_centers(A, B) == J

    def test_intersect_centers_is_commutative_algebra(self):
        A = WeylDesc(1, F(1, 2))
        B = WeylDesc(F(1, 2), 1)
        C = intersect_centers(A, B)
        assert C.is_commutative()
        assert C == WeylDesc(2, 2)


class TestMaximalCommutative:
    def test_trivial(self):
        A = WeylDesc(1, 1)
        gens = maximal_commutative(A)
        assert len(gens) == 1
        assert gens[0].u_exp == 1 and gens[0].v_exp == 1

    def test_n2(self):
        A = WeylDesc(F(1, 2), 1)  # N = 2
        gens = maximal_commutative(A)
        assert len(gens) == 3
        coords = {(g.u_exp / A.a, g.v_exp / A.b) for g in gens}
        assert coords == {(0, 1), (1, 0), (1, 1)}

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_prime_count(self, p):
        A = WeylDesc(F(1, p), 1)
        assert len(maximal_commutative(A)) == p + 1

    @pytest.mark.parametrize("N", list(range(1, 25)))
    def test_count_matches_bruteforce(self, N):
        A = WeylDesc(F(1, N), 1)
        assert q_order(A) == N
        assert len(maximal_commutative(A)) == count_cyclic_subgroups_bruteforce(N)

    def test_generators_have_order_n(self):
        A = WeylDesc(F(1, 12), 1)
        N = q_order(A)
        for g in maximal_commutative(A):
            g1, g2 = int(g.u_exp / A.a) % N, int(g.v_exp / A.b) % N
            order = N // gcd(gcd(g1, g2), N)
            assert order == N


class TestSpectrumProject:
    def test_identity(self):
        A = WeylDesc(F(1, 3), F(1, 3))
        beta = SpecPoint(F(1, 5), F(2, 5))
        assert spectrum_project(A, A, beta) == beta

    def test_principal_to_principal(self):
        A = WeylDesc(F(1, 6), F(1, 6))
        B = WeylDesc(F(1, 2), F(1, 3))
        assert includes(B, A)
        assert spectrum_project(B, A, SpecPoint.principal_point()).principal

    def test_requires_inclusion(self):
        with pytest.raises(NotIncluded):
            spectrum_project(WeylDesc(F(1, 2), 1), WeylDesc(1, 1), SpecPoint.principal_point())

    def test_fiber_size_is_index(self):
        # B = <U^{2a}, V^{2b}> inside A, N_A = 4: fiber over generic point has 4 elements
        A = WeylDesc(F(1, 2), F(1, 2))
        B = WeylDesc(1, 1)
        NB = q_order(B)
        n, k = relative_indices(B, A)
        alpha = SpecPoint(F(1, 3), F(1, 7))
        fiber = []
        # enumerate candidate beta phases: the fiber consists of points whose
        # relative powers hit alpha
        ru = q_order(A) // (n * NB)
        rv = q_order(A) // (k * NB)
        for i in range(ru):
            for j in range(rv):
                beta = SpecPoint(
                    (alpha.u_phase + i) / ru,
                    (alpha.v_phase + j) / rv,
                )
                if spectrum_project(B, A, beta) == alpha:
                    fiber.append(beta)
        assert len(fiber) == q_order(A) // q_order(B)

    def test_composes_along_chains(self):
        A = WeylDesc(F(1, 12), F(1, 12))
        C = WeylDesc(F(1, 6), F(1, 12))
        B = WeylDesc(F(1, 2), F(1, 4))
        assert includes(B, C) and includes(C, A)
        beta = SpecPoint(F(3, 7), F(1, 11))
        direct = spectrum_project(B, A, beta)
        via = spectrum_project(C, A, spectrum_project(B, C, beta))
        assert direct == via


class TestGenWord:
    def test_commutation_rule(self):
        U = GenWord(F(1, 2), 0)
        V = GenWord(0, F(1, 2))
        # U V U^-1 V^-1 = q = e^{2 pi i /4}
        assert U.commutator_phase(V) == F(1, 4)

    def test_group_ops(self):
        rng = random.Random(9)
        for _ in range(30):
            w = GenWord(F(rng.randrange(-4, 5), 3), F(rng.randrange(-4, 5), 3),
                        F(rng.randrange(8), 8))
            assert (w * w.inv()).u_exp == 0
            assert (w * w.inv()).v_exp == 0
            assert (w * w.inv()).phase == 0
            assert (w ** 3) == w * w * w

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
    def test_pow_consistent(self, a, b, c, d):
        w = GenWord(F(a, 4), F(b, 4), F(c % 8, 8))
        n = abs(d) % 5
        acc = GenWord(0, 0)
        for _ in range(n):
            acc = acc * w
        assert w ** n == acc


class TestAutomorphisms:
    def test_identity_fixes(self):
        A = WeylDesc(F(1, 2), F(1, 2))
        xi = AutDesc(((1, 0), (0, 1)))
        w = GenWord(F(3, 2), F(1, 2), F(1, 8))
        assert apply_automorphism(xi, w, A) == w

    def test_fourier_matrix_on_u(self):
        A = WeylDesc(F(1, 2), F(1, 2))
        xi = AutDesc(((0, 1), (-1, 0)))
        img = apply_automorphism(xi, GenWord(A.a, 0), A)
        assert img.u_exp == 0 and img.v_exp == A.b

    def test_bad_matrix(self):
        A = WeylDesc(F(1, 2), F(1, 2))
        with pytest.raises(BadMatrix):
            apply_automorphism(AutDesc(((2, 0), (0, 1))), GenWord(A.a, 0), A)

    def test_commutator_preserved(self):
        A = WeylDesc(F(1, 3), F(1, 4))
        N = q_order(A)
        rng = random.Random(13)
        for _ in range(20):
            # random SL(2,Z) matrix via row operations
            g = [[1, 0], [0, 1]]
            for _ in range(4):
                k = rng.randrange(-3, 4)
                if rng.random() < 0.5:
                    g = [[g[0][0] + k * g[1][0], g[0][1] + k * g[1][1]], g[1]]
                else:
                    g = [g[0], [g[1][0] + k * g[0][0], g[1][1] + k * g[0][1]]]
            xi = AutDesc((tuple(g[0]), tuple(g[1])), rng.randrange(N), rng.randrange(N))
            U, V = GenWord(A.a, 0), GenWord(0, A.b)
            iu, iv = apply_automorphism(xi, U, A), apply_automorphism(xi, V, A)
            assert iu.commutator_phase(iv) == U.commutator_phase(V)


class TestLatticeIntersect:
    def test_simple(self):
        L = lattice_intersect([(1, 0), (0, 1)], [(2, 0), (0, 3)])
        # intersection of Z^2 with 2Z x 3Z
        dets = abs(L[0][0] * L[1][1] - L[0][1] * L[1][0])
        assert dets == 6

    def test_contains_and_minimal(self):
        rng = random.Random(21)
        for _ in range(20):
            A = [(rng.randrange(1, 5), rng.randrange(0, 4)), (0, rng.randrange(1, 5))]
            B = [(rng.randrange(1, 5), 0), (rng.randrange(0, 4), rng.randrange(1, 5))]
            L = lattice_intersect(A, B)

            def in_lattice(v, rows):
                (a, b), (c, d) = rows
                det = a * d - b * c
                x = (v[0] * d - v[1] * c) / det
                y = (-v[0] * b + v[1] * a) / det
                return x.denominator == 1 and y.denominator == 1

            for row in L:
                assert in_lattice(row, [[F(x) for x in r] for r in A])
                assert in_lattice(row, [[F(x) for x in r] for r in B])
