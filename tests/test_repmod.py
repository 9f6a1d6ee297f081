import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finiteweyl.errors import ModuleMismatch, NotGenerating, NotInAlgebra
from finiteweyl.exactnum import Cyc, Scalar, dot, root_of_unity
from finiteweyl.lattice import GenWord, WeylDesc
from finiteweyl.repmod import (
    BasisLabel,
    StateVec,
    SpecPoint,
    apply_word,
    build_module,
    gamma_generator,
    inner,
    linear_combination,
    linear_combinations,
    quadratic_phase_exponent,
    relate_canonical_bases,
    root_of_unity_turns,
    s_basis,
    u_basis,
    v_basis,
)


def principal_module(N, h=1):
    # A(1/N, 1/N) has q-order N^2/1... use A(1, 1/N): ab = 1/N, order N
    A = WeylDesc(F(1, 1), F(1, N))
    M = build_module(A, SpecPoint.principal_point())
    assert M.dim == N
    return M


def word_U(M, j=1):
    return GenWord(j * M.alg.a, 0)


def word_V(M, k=1):
    return GenWord(0, k * M.alg.b)


def as_matrix(M, word):
    cols = []
    for k in range(M.dim):
        cols.append(apply_word(word, M.basis_vector(k)).amps)
    return cols  # cols[k][j] = <e_j| w e_k>


class TestBuildModule:
    def test_dim_one(self):
        A = WeylDesc(1, 1)
        M = build_module(A, SpecPoint(F(1, 3), F(1, 5)))
        assert M.dim == 1
        vec = M.basis_vector(0)
        assert apply_word(word_U(M), vec).amps[0] == Scalar.phase(F(1, 3))
        assert apply_word(word_V(M), vec).amps[0] == Scalar.phase(F(1, 5))

    def test_principal_n4_clock_shift(self):
        M = principal_module(4)
        i = root_of_unity(4, 1)
        for k in range(4):
            uek = apply_word(word_U(M), M.basis_vector(k))
            assert uek.amps[k] == root_of_unity(4, k)  # diag(1, i, -1, -i)
            vek = apply_word(word_V(M), M.basis_vector(k))
            assert vek.amps[(k - 1) % 4] == Scalar.one()

    @pytest.mark.parametrize("N", [2, 3, 4, 6, 8, 12, 16, 32, 64])
    def test_uv_commutation(self, N):
        # the clock/shift model realises the Weyl relation as VU = q UV
        M = principal_module(N)
        rng = random.Random(N)
        for _ in range(3):
            k = rng.randrange(N)
            vec = M.basis_vector(k)
            vu = apply_word(word_V(M), apply_word(word_U(M), vec))
            uv = apply_word(word_U(M), apply_word(word_V(M), vec))
            quv = uv.scale(M.q_power(1))
            assert all((a - b).is_zero() for a, b in zip(vu.amps, quv.amps))

    def test_nonprincipal_roots(self):
        A = WeylDesc(F(1, 1), F(1, 3))
        pt = SpecPoint(F(1, 2), F(1, 4))
        M = build_module(A, pt)
        # U^{aN} acts as the point value
        w = word_U(M) ** 3
        vec = apply_word(w, M.basis_vector(0))
        assert vec.amps[0] == Scalar.phase(F(1, 2))


class TestVBasis:
    def test_m0_uniform(self):
        M = principal_module(5)
        v0 = v_basis(M)[0]
        expect = Scalar.exact(Cyc.rational(1), 1, 5)
        assert all(a == expect for a in v0.amps)

    @pytest.mark.parametrize("N", [2, 3, 4, 8, 16, 64])
    def test_vu1_eigen_and_shift(self, N):
        M = principal_module(N)
        vb = v_basis(M)
        for m in (0, 1, N // 2, N - 1):
            vm = vb[m]
            # V v_m = q^m v v_m
            lhs = apply_word(word_V(M), vm)
            rhs = vm.scale(M.q_power(m) * Scalar.phase(M.v_phase))
            assert all((a - b).is_zero() for a, b in zip(lhs.amps, rhs.amps))
            # U v_m = u v_{m+1}
            lhs = apply_word(word_U(M), vm)
            rhs = vb[(m + 1) % N].scale(Scalar.phase(M.u_phase))
            assert all((a - b).is_zero() for a, b in zip(lhs.amps, rhs.amps))

    def test_pairing_n4(self):
        # <u_1 | v_1> = q^{1*1}/sqrt 4 = i/2
        M = principal_module(4)
        val = inner(M.basis_vector(1), v_basis(M)[1])
        assert val == root_of_unity(4, 1) * Scalar.rational(F(1, 2))


    def test_shared_amplitudes_stay_per_vector(self):
        # v_basis shares one Scalar per value q^r/sqrt(N) between vectors;
        # replacing an entry of one vector must not reach any other
        N = 12
        M = principal_module(N)
        vb, fresh = v_basis(M), v_basis(M)
        u3 = M.basis_vector(3)
        before = inner(u3, vb[5])
        vb[5].amps[3] = -vb[5].amps[3]
        for m in range(N):
            for k in range(N):
                expect = -fresh[m].amps[k] if (m, k) == (5, 3) else fresh[m].amps[k]
                assert (vb[m].amps[k] - expect).is_zero()
        assert inner(u3, vb[5]) == -before
        assert inner(u3, vb[1]) == inner(u3, fresh[1])  # vb[1].amps[3] is the same value


class TestInner:
    def test_orthonormal_reference(self):
        M = principal_module(6)
        for k in range(6):
            for j in range(6):
                val = inner(M.basis_vector(k), M.basis_vector(j))
                assert val == (Scalar.one() if k == j else Scalar.zero())

    def test_sesquilinear(self):
        M = principal_module(5)
        tau = root_of_unity(5, 2)
        x, y = v_basis(M)[1], v_basis(M)[3]
        assert inner(x, y.scale(tau)) == tau * inner(x, y)
        assert inner(x.scale(tau), y) == tau.conj() * inner(x, y)

    def test_module_mismatch(self):
        M1, M2 = principal_module(4), principal_module(5)
        with pytest.raises(ModuleMismatch):
            inner(M1.basis_vector(0), M2.basis_vector(0))


class TestApplyWord:
    def test_identity_word(self):
        M = principal_module(6)
        vec = v_basis(M)[2]
        out = apply_word(GenWord(0, 0), vec)
        assert all((a - b).is_zero() for a, b in zip(out.amps, vec.amps))

    def test_not_in_algebra(self):
        M = principal_module(4)
        with pytest.raises(NotInAlgebra):
            apply_word(GenWord(F(1, 2), 0), M.basis_vector(0))

    def test_word_product_is_operator_composition(self):
        M = principal_module(9)
        rng = random.Random(1)
        from finiteweyl.repmod import StateVec

        amps = [root_of_unity(9, rng.randrange(9)) for _ in range(9)]
        x = StateVec(M, amps)
        for w1, w2 in [
            (word_U(M), word_V(M)),
            (word_V(M), word_U(M)),
            (word_U(M, 2) * word_V(M, 1), word_V(M, 2)),
        ]:
            prod = apply_word(w1 * w2, x)
            comp = apply_word(w1, apply_word(w2, x))
            assert all((a - b).is_zero() for a, b in zip(prod.amps, comp.amps))
        # word-level commutation: V U = q U V
        vu = word_V(M) * word_U(M)
        quv = word_U(M) * word_V(M)
        assert vu.u_exp == quv.u_exp and vu.v_exp == quv.v_exp
        assert vu.phase - quv.phase == M.q_phase

    def test_pseudo_unitary_preserves_norm(self):
        M = principal_module(8)
        rng = random.Random(2)
        from finiteweyl.repmod import StateVec

        amps = [root_of_unity(8, rng.randrange(8)) * Scalar.rational(rng.randrange(1, 3)) for _ in range(8)]
        x = StateVec(M, amps)
        w = GenWord(2 * M.alg.a, 3 * M.alg.b, F(1, 16))
        assert (apply_word(w, x).norm2() - x.norm2()).is_zero()


class TestSBasis:
    def test_s_equals_u(self):
        M = principal_module(6)
        sb = s_basis(M, word_U(M), word_V(M))
        # reference basis up to phase: here the convention makes it exactly e_k
        for k in range(6):
            diff = sb[k] - M.basis_vector(k)
            assert diff.is_zero()

    def test_s_equals_v(self):
        # S = V, T = U^{-1}: (st) holds with the v-basis up to a Gamma transform
        M = principal_module(5)
        sb = s_basis(M, word_V(M), word_U(M).inv())
        vb = v_basis(M)
        # both are canonical V-eigenbases; sb[k] must be  c * vb[sigma(k)] with
        # a fixed index shift; check sb[0] is proportional to some vb[m]
        matched = 0
        for m in range(5):
            try:
                relate_canonical_bases([vb[m]], [sb[0]])
                matched += 1
            except ValueError:
                pass
        assert matched == 1

    def test_st_relations_general(self):
        M = principal_module(8)
        S = word_U(M) * word_V(M).inv()  # U V^{-1}, paired with T = V
        T = word_V(M)
        assert S.commutator_phase(T) == M.q_phase
        sb = s_basis(M, S, T)
        # find the eigenvalue of sb[0], then check the ladder structure
        s_img = apply_word(S, sb[0])
        lam = None
        for a, b in zip(s_img.amps, sb[0].amps):
            if not b.is_zero():
                lam = a / b
                break
        for k in range(8):
            # S sb[k] = lam q^k sb[k]
            img = apply_word(S, sb[k])
            expect = sb[k].scale(lam * M.q_power(k))
            assert all((x - y).is_zero() for x, y in zip(img.amps, expect.amps))
            # T sb[k] = t sb[k-1] with |t| = 1: check proportionality and norm
            img_t = apply_word(T, sb[k])
            c = relate_canonical_bases([sb[(k - 1) % 8]], [img_t])
            assert (c * c.conj()) == Scalar.one()

    def test_orthonormal_and_unitary_transition(self):
        M = principal_module(6)
        S = word_U(M) * word_V(M)
        T = word_V(M)
        assert S.commutator_phase(T) == M.q_phase
        sb = s_basis(M, S, T)
        for i in range(6):
            for j in range(6):
                val = inner(sb[i], sb[j])
                assert val == (Scalar.one() if i == j else Scalar.zero())

    def test_two_seeds_differ_by_scalar(self):
        # canonical bases built from genuinely different seed eigenvectors of
        # the same eigenvalue differ by one overall scalar
        from finiteweyl.repmod import StateVec

        M = principal_module(6)
        S = word_V(M)
        T = word_U(M).inv()
        b1 = s_basis(M, S, T)

        def ladder_basis(seed):
            basis = [seed] + [None] * 5
            cur = seed
            for k in range(1, 6):
                cur = apply_word(T, cur)  # T^6-scalar is 1 here, t0 = 1
                basis[6 - k] = cur
            return basis

        # project a different reference vector onto the same S-eigenvalue
        lam = None
        for a, b in zip(apply_word(S, b1[0]).amps, b1[0].amps):
            if not b.is_zero():
                lam = a / b
                break
        seed2 = M.zero_vector()
        vec = M.basis_vector(1)
        acc = vec
        for _ in range(5):
            vec = apply_word(S, vec).scale(lam.inv())
            acc = acc + vec
        n2 = acc.norm2()
        seed2 = acc.scale(n2.sqrt_of_rational().inv())
        b2 = ladder_basis(seed2)
        c = relate_canonical_bases(b1, b2)
        assert (c * c.conj() - Scalar.one()).is_zero()  # unit scalar

        # and an explicitly rotated copy reproduces the rotation scalar
        b3 = [v.scale(root_of_unity(6, 1)) for v in b1]
        assert relate_canonical_bases(b1, b3) == root_of_unity(6, 1)

    def test_not_generating(self):
        M = principal_module(4)
        with pytest.raises(NotGenerating):
            s_basis(M, word_U(M), word_U(M))

    def test_basis_label_validation(self):
        M = principal_module(4)
        BasisLabel(word_U(M), word_V(M), 0).validate(M.alg)
        with pytest.raises(NotGenerating):
            BasisLabel(word_U(M), word_U(M), 0).validate(M.alg)


class TestGamma:
    @pytest.mark.parametrize("N", [2, 3, 4, 8, 16, 64])
    def test_mu_order(self, N):
        M = principal_module(N)
        mu = gamma_generator(M, "mu")
        vec = v_basis(M)[1 % N]
        out = vec
        for _ in range(N):
            out = mu.apply(out)
        assert all((a - b).is_zero() for a, b in zip(out.amps, vec.amps))

    def test_mu_conjugation(self):
        # U^mu = q U, V^mu = V
        M = principal_module(6)
        mu = gamma_generator(M, "mu")
        for k in (0, 2, 5):
            vec = M.basis_vector(k)
            lhs = mu.apply(apply_word(word_U(M), mu.inverse_apply(vec)))
            rhs = apply_word(word_U(M), vec).scale(M.q_power(1))
            assert all((a - b).is_zero() for a, b in zip(lhs.amps, rhs.amps))
            lhs_v = mu.apply(apply_word(word_V(M), mu.inverse_apply(vec)))
            rhs_v = apply_word(word_V(M), vec)
            assert all((a - b).is_zero() for a, b in zip(lhs_v.amps, rhs_v.amps))

    def test_nu_conjugation(self):
        # V^nu = q V, U^nu = U
        M = principal_module(5)
        nu = gamma_generator(M, "nu")
        for k in (0, 1, 4):
            vec = M.basis_vector(k)
            lhs = nu.apply(apply_word(word_V(M), nu.inverse_apply(vec)))
            rhs = apply_word(word_V(M), vec).scale(M.q_power(1))
            assert all((a - b).is_zero() for a, b in zip(lhs.amps, rhs.amps))
            lhs_u = nu.apply(apply_word(word_U(M), nu.inverse_apply(vec)))
            rhs_u = apply_word(word_U(M), vec)
            assert all((a - b).is_zero() for a, b in zip(lhs_u.amps, rhs_u.amps))

    def test_unitary(self):
        M = principal_module(7)
        for kind in ("mu", "nu"):
            g = gamma_generator(M, kind)
            x, y = v_basis(M)[2], v_basis(M)[4]
            assert (inner(g.apply(x), g.apply(y)) - inner(x, y)).is_zero()


class TestBaseRelations:
    def test_quadratic_phase_between_hatted_bases(self):
        # hat V = V U^n gives a canonical U-basis differing from the reference
        # one by c q^{-n k(k+1)/2}; the computed instance n is recorded
        M = principal_module(6)
        base = u_basis(M)
        Vhat = word_V(M) * word_U(M)  # n = 1
        assert word_U(M).commutator_phase(Vhat) == M.q_phase
        hat = s_basis(M, word_U(M), Vhat)
        c, n, j = quadratic_phase_exponent(hat, base, M)
        assert (2 * n).denominator == 1
        assert n != 0  # VU genuinely twists the basis

    def test_root_of_unity_turns(self):
        assert root_of_unity_turns(root_of_unity(5, 4)) == F(4, 5)
        assert root_of_unity_turns(Scalar.rational(-1)) == F(1, 2)
        assert root_of_unity_turns(root_of_unity(12, 7)) == F(7, 12)


# ---------------------------------------------------------------------------
# inner and linear_combination against per-amplitude Scalar arithmetic
# ---------------------------------------------------------------------------

def naive_inner(x, y):
    total = Scalar.zero()
    for a, b in zip(x.amps, y.amps):
        total = total + a.conj() * b
    return total


def naive_linear_combination(M, coeffs, vecs):
    out = []
    for j in range(M.dim):
        total = Scalar.zero()
        for c, v in zip(coeffs, vecs):
            total = total + c * v.amps[j]
        out.append(total)
    return out


def random_amplitude(rng, N, density):
    """Zero with probability 1 - density, else a one- or two-term sum of
    radicand 1/2/3/6 times roots of order 4, 8, N or 2N."""
    if rng.random() >= density:
        return Scalar.zero()
    order = rng.choice([4, 8, N, 2 * N])
    terms = {rng.randrange(order): F(rng.randint(-12, 12), rng.randint(1, 6))
             for _ in range(rng.randint(1, 2))}
    return Scalar(rng.choice([1, 2, 3, 6]), Cyc(order, terms))


def random_vectors(rng, M, count):
    density = rng.choice([0.15, 1.0])  # sparse or dense
    return [StateVec(M, [random_amplitude(rng, M.dim, density) for _ in range(M.dim)])
            for _ in range(count)]


class TestExactKernels:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_inner_matches_naive(self, rng):
        M = principal_module(rng.choice([3, 4, 6, 8, 12]))
        x, y = random_vectors(rng, M, 2)
        assert (inner(x, y) - naive_inner(x, y)).is_zero()
        assert (x.norm2() - naive_inner(x, x)).is_zero()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_linear_combination_matches_naive(self, rng):
        M = principal_module(rng.choice([3, 4, 6, 8, 12]))
        count = rng.randint(0, 5)
        coeffs = [random_amplitude(rng, M.dim, 0.8) for _ in range(count)]
        vecs = random_vectors(rng, M, count)
        got = linear_combination(M, coeffs, vecs)
        expect = naive_linear_combination(M, coeffs, vecs)
        assert all((a - b).is_zero() for a, b in zip(got.amps, expect))


def linear_combination_oracle(M, coeffs, vecs):
    """Oracle: the one-row kernel, which scans the vectors again for every row."""
    cs = [[] for _ in range(M.dim)]
    amps = [[] for _ in range(M.dim)]
    for c, v in zip(coeffs, vecs):
        if c.cyc.coeffs:
            for j, a in enumerate(v.amps):
                if a.cyc.coeffs:
                    cs[j].append(c)
                    amps[j].append(a)
    return StateVec(M, [dot(c, a) for c, a in zip(cs, amps)])


def terms(vec):
    return [(a.rad, a.cyc.order, a.cyc.coeffs) for a in vec.amps]


class TestLinearCombinations:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_matches_per_row_oracle(self, rng):
        M = principal_module(rng.choice([3, 4, 6, 8, 12]))
        count = rng.randint(0, 6)
        vecs = random_vectors(rng, M, count)
        # shared coefficient objects, zero entries, whole zero rows, and a
        # vector whose coefficient is zero in every row
        pool = [random_amplitude(rng, M.dim, 0.7) for _ in range(3)] + [Scalar.zero()]
        rows = [[rng.choice(pool) for _ in range(count)] for _ in range(rng.randint(0, 4))]
        rows.append([Scalar.zero()] * count)
        if count:
            for r in rows:
                r[0] = Scalar.zero()
        got = linear_combinations(M, rows, vecs)
        assert len(got) == len(rows)
        for r, vec in zip(rows, got):
            assert terms(vec) == terms(linear_combination_oracle(M, r, vecs))
            assert terms(linear_combination(M, r, vecs)) == terms(vec)

    def test_shared_products_on_one_term_coordinates(self):
        # the u-basis gives every coordinate one term: each row's amplitudes
        # are its own coefficients times one
        M = principal_module(6)
        w = [root_of_unity(12, t) for t in range(6)]
        rows = [[w[abs(l - m)] for l in range(6)] for m in range(6)]
        for r, vec in zip(rows, linear_combinations(M, rows, u_basis(M))):
            assert terms(vec) == terms(linear_combination_oracle(M, r, u_basis(M)))
            assert all((a - c).is_zero() for a, c in zip(vec.amps, r))

    def test_lengths_as_zip(self):
        # entries past the shorter of coefficients and vectors are ignored
        M = principal_module(4)
        one = Scalar.one()
        got = linear_combination(M, [one, one], u_basis(M))
        assert [a == one for a in got.amps] == [True, True, False, False]
        assert all(a == one for a in linear_combination(M, [one] * 6, u_basis(M)).amps)
        assert linear_combinations(M, [], u_basis(M)) == []
