import random
from dataclasses import replace
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finiteweyl.errors import BadMatrix, NotCommutative, NotDividing, NotIncluded
from finiteweyl.lattice import (
    GenWord,
    SpecPoint,
    WeylDesc,
    center,
    includes,
    join,
    _row_basis,
    lattice_intersect,
    mat_inv,
    mat_mul,
    maximal_commutative,
    q_order,
    rat_gcd,
    relative_indices,
    spectrum_project,
    up_functor,
    word_image,
)
from finiteweyl.morphism import embed_pbeta, pairing
from finiteweyl.repmod import build_module
from finiteweyl.transform import fourier


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
        assert spectrum_project(B, A, SpecPoint.principal_point()) == SpecPoint.principal_point()

    def test_requires_inclusion(self):
        with pytest.raises(NotIncluded):
            spectrum_project(WeylDesc(F(1, 2), 1), WeylDesc(1, 1), SpecPoint.principal_point())

    def test_indices_not_dividing(self):
        # B = A(3, 1/4) lies in A = A(1, 1/4), both of order 4, but n = 3 does
        # not divide 4: the pairing and the embedding refuse it alike
        B, A = WeylDesc(3, F(1, 4)), WeylDesc(1, F(1, 4))
        M_B = build_module(B, SpecPoint.principal_point())
        M_A = build_module(A, SpecPoint.principal_point())
        message = r"^indices \(3,1\) do not divide the dimension 4$"
        with pytest.raises(NotDividing, match=message):
            spectrum_project(B, A, M_B.point)
        with pytest.raises(NotDividing, match=message):
            pairing(M_B.basis_vector(0), M_A.basis_vector(0))
        with pytest.raises(NotDividing, match=message):
            embed_pbeta(M_B, M_A)

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


def random_sl2z(rng):
    """A random SL(2,Z) matrix, as a product of elementary row operations."""
    g = ((1, 0), (0, 1))
    for _ in range(4):
        k = rng.randrange(-3, 4)
        g = mat_mul(((1, k), (0, 1)) if rng.random() < 0.5 else ((1, 0), (k, 1)), g)
    return g


def random_word(rng, A):
    """e^{2 pi i phase} U^{ja} V^{kb} with random j, k and phase."""
    return GenWord(rng.randrange(-5, 6) * A.a, rng.randrange(-5, 6) * A.b, F(rng.randrange(24), 24))


# A(3, 5/12) has ab = 5/4, so its reduced q phase 1/4 differs from ab
WORD_IMAGE_ALGEBRAS = [WeylDesc(F(1, 3), F(1, 4)), WeylDesc(3, F(5, 12)), WeylDesc(1, F(1, 12))]


class TestAutomorphisms:
    def test_identity_fixes(self):
        A = WeylDesc(F(1, 2), F(1, 2))
        w = GenWord(F(3, 2), F(1, 2), F(1, 8))
        assert word_image(w, ((1, 0), (0, 1)), A) == w

    def test_fourier_matrix_on_u(self):
        A = WeylDesc(F(1, 2), F(1, 2))
        img = word_image(GenWord(A.a, 0), ((0, 1), (-1, 0)), A)
        assert img.u_exp == 0 and img.v_exp == A.b

    def test_bad_matrix(self):
        # the package's SL(2) check: a transform's matrix must have det 1
        L = fourier(build_module(WeylDesc(1, F(1, 4)), SpecPoint.principal_point()))
        with pytest.raises(BadMatrix):
            replace(L, gL=((F(2), F(0)), (F(0), F(1))))

    def test_commutator_preserved(self):
        A = WeylDesc(F(1, 3), F(1, 4))
        N = q_order(A)
        rng = random.Random(13)
        for _ in range(20):
            g = random_sl2z(rng)
            U, V = GenWord(A.a, 0, F(rng.randrange(N), N)), GenWord(0, A.b, F(rng.randrange(N), N))
            iu, iv = word_image(U, g, A), word_image(V, g, A)
            assert iu.commutator_phase(iv) == U.commutator_phase(V)

    @pytest.mark.parametrize("A", WORD_IMAGE_ALGEBRAS, ids=str)
    def test_word_image_composition_law(self, A):
        rng = random.Random(31)
        for _ in range(50):
            g1, g2, w = random_sl2z(rng), random_sl2z(rng), random_word(rng, A)
            assert word_image(word_image(w, g1, A), g2, A) == word_image(w, mat_mul(g1, g2), A)

    @pytest.mark.parametrize("A", WORD_IMAGE_ALGEBRAS, ids=str)
    def test_word_image_preserves_commutators(self, A):
        rng = random.Random(37)
        for _ in range(50):
            g, w1, w2 = random_sl2z(rng), random_word(rng, A), random_word(rng, A)
            assert (word_image(w1, g, A).commutator_phase(word_image(w2, g, A))
                    == w1.commutator_phase(w2))

    @pytest.mark.parametrize("A", WORD_IMAGE_ALGEBRAS, ids=str)
    def test_word_image_is_a_homomorphism(self, A):
        # fixes the half in the phase (jk)' q/2, which the two laws above do not see
        rng = random.Random(41)
        for _ in range(50):
            g, w1, w2 = random_sl2z(rng), random_word(rng, A), random_word(rng, A)
            assert word_image(w1 * w2, g, A) == word_image(w1, g, A) * word_image(w2, g, A)


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


# ---------------------------------------------------------------------------
# the one-pass row basis against the general row reduction it replaced, kept
# as the oracle
# ---------------------------------------------------------------------------

def row_hnf_oracle(rows):
    """Oracle: Hermite-style basis of the row lattice of integer 2-vectors,
    with the cases of no nonzero row and of a zero first column."""
    rows = [(int(x), int(y)) for x, y in rows if x or y]
    if not rows:
        return []
    piv = None
    rest = []
    for r in rows:
        if piv is None:
            piv = r
            continue
        a, b = piv, r
        while b[0]:
            q, (a, b) = a[0] // b[0], (b, a)
            b = (b[0] - q * a[0], b[1] - q * a[1])
        piv = a
        if b[1]:
            rest.append(b)
    if piv is not None and piv[0] == 0:
        if piv[1]:
            rest.append(piv)
        piv = None
    g2 = 0
    for _, y in rest:
        g2 = gcd(g2, abs(y))
    out = []
    if piv is not None:
        x, y = piv
        if x < 0:
            x, y = -x, -y
        if g2:
            y %= g2
        out.append((x, y))
    if g2:
        out.append((0, g2))
    return out


def intersect_oracle(rows1, rows2):
    """Oracle: `lattice_intersect` through `row_hnf_oracle`, the common
    denominator built pairwise."""
    stacked = mat_inv(tuple(zip(*rows1))) + mat_inv(tuple(zip(*rows2)))
    den = 1
    for r in stacked:
        for x in r:
            den = den * x.denominator // gcd(den, x.denominator)
    H = row_hnf_oracle([(int(x * den), int(y * den)) for x, y in stacked])
    if len(H) != 2:
        raise ValueError("dual sum is not full rank")
    return list(mat_inv(tuple(zip(*[[F(x, den) for x in r] for r in H]))))


def random_full_rank(rng, bound=12):
    """Two rows of entries p/q, |p|, q <= bound, with nonzero determinant."""
    while True:
        rows = [tuple(F(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(2))
                for _ in range(2)]
        if rows[0][0] * rows[1][1] != rows[0][1] * rows[1][0]:
            return rows


class TestRowBasisAgainstOracle:
    def test_intersections_equal_oracle(self):
        rng = random.Random(2029)
        for _ in range(10_000):
            rows1, rows2 = random_full_rank(rng), random_full_rank(rng)
            assert lattice_intersect(rows1, rows2) == intersect_oracle(rows1, rows2)

    def test_row_bases_equal_oracle(self):
        # full-rank sets of two to five rows, zero entries and zero rows included
        rng = random.Random(29)
        for _ in range(3000):
            rows = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(2, 5))]
            if len(row_hnf_oracle(rows)) != 2:
                continue
            basis = _row_basis(rows)
            assert basis == row_hnf_oracle(rows)
            (x, y), (zero, g) = basis
            assert x > 0 and zero == 0 and 0 <= y < g
