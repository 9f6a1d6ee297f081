import random
from fractions import Fraction as F

import pytest

from finiteweyl.errors import (
    DivisibilityViolation,
    NoCommonSubalgebra,
    NotDividing,
    NotPythagorean,
    OddOrder,
)
from finiteweyl.exactnum import Cyc, Scalar
from finiteweyl.lattice import WeylDesc, _mod1
from finiteweyl.repmod import (
    SpecPoint,
    apply_word,
    build_module,
    inner,
    v_basis,
)
from finiteweyl.transform import (
    RegUnitary,
    compose,
    diagonal,
    fourier,
    free_evolution,
    gaussian,
    mat_det,
    mat_mul,
    qho_evolution,
    verify_conjugation,
)


def principal_module(N):
    return build_module(WeylDesc(1, F(1, N)), SpecPoint.principal_point())


def sub_v_basis(L):
    """Canonical V-eigenbasis of L's domain submodule."""
    Nb = L.dim
    # infer the domain clock step from the ambient module: q^(N/Nb)
    M = L.ambient_dom
    step = M.dim // Nb
    inv_sqrt = Scalar.exact(Cyc.rational(1), 1, Nb)
    out = []
    for p in range(Nb):
        vec = M.zero_vector()
        for m in range(Nb):
            vec = vec + L.dom(m).scale(inv_sqrt * M.q_power(step * p * m))
        out.append(vec)
    return out


class TestFourier:
    def test_dim_one_identity(self):
        M = build_module(WeylDesc(1, 1), SpecPoint.principal_point())
        Phi = fourier(M)
        assert Phi.dim == 1
        assert (Phi.image(0) - Phi.ambient_ran.basis_vector(0)).is_zero()

    def test_associated_matrix(self):
        Phi = fourier(principal_module(8))
        assert Phi.gL == ((F(0), F(1)), (F(-1), F(0)))
        assert mat_det(Phi.gL) == 1

    @pytest.mark.parametrize("N", [2, 3, 4, 6, 8, 12])
    def test_unitary_and_sigma_exact(self, N):
        Phi = fourier(principal_module(N))
        for rep in verify_conjugation(Phi):
            assert rep.holds and rep.residual == 0.0

    @pytest.mark.parametrize("N", [2, 4, 6, 8, 16])
    def test_phi_squared_is_parity(self, N):
        M = principal_module(N)
        Phi1 = fourier(M)
        Phi2 = fourier(Phi1.ambient_ran)
        P = compose(Phi2, Phi1)
        assert P.gL == ((F(-1), F(0)), (F(0), F(-1)))
        for m in range(N):
            assert (P.image(m) - M.basis_vector((-m) % N)).is_zero()

    def test_pairing_with_target_u_basis(self):
        # <u'_k | Phi u_m> = q^{km}/sqrt N
        M = principal_module(8)
        Phi = fourier(M)
        for m in (0, 3, 5):
            for k in (0, 1, 7):
                val = inner(Phi.ambient_ran.basis_vector(k), Phi.image(m))
                expect = Scalar.exact(Cyc.rational(1), 1, 8) * M.q_power(k * m)
                assert (val - expect).is_zero()


class TestGaussian:
    @pytest.mark.parametrize("N", [2, 4, 6, 8, 10, 16])
    def test_eigen_relation_on_v_basis(self, N):
        # G v_n = q^{-n^2/2} v_n in reference coordinates
        M = principal_module(N)
        G = gaussian(M)
        vb = v_basis(M)
        for n in range(N):
            img = G.apply(vb[n])
            target = vb[n].scale(M.q_power(F(-n * n, 2)))
            assert (img - target).is_zero()

    def test_wrong_constant_breaks_eigen_relation(self):
        # the eigen-relation pins the constant sqrt(N)/G(N); perturbing by q fails
        M = principal_module(8)
        G = gaussian(M, phase_const=Scalar.phase(F(-1, 8)) * M.q_power(1))
        vb = v_basis(M)
        img = G.apply(vb[1])
        target = vb[1].scale(M.q_power(F(-1, 2)))
        assert not (img - target).is_zero()

    def test_conjugation_invariant_under_global_constant(self):
        # a global unit constant cancels in K X K^{-1}: the verifier must
        # still pass, which is why the eigen-relation is the sharp test
        M = principal_module(8)
        G = gaussian(M, phase_const=Scalar.phase(F(-1, 8)) * M.q_power(1))
        for rep in verify_conjugation(G, names=["Sv2", "w2"]):
            assert rep.holds

    def test_corrupted_images_detected(self):
        M = principal_module(8)
        G = gaussian(M)
        bad_images = list(G.images)
        bad_images[3] = bad_images[3].scale(M.q_power(1))
        bad = RegUnitary(
            name="corrupt",
            ambient_dom=G.ambient_dom,
            ambient_ran=G.ambient_ran,
            dom_words=G.dom_words,
            sigma=G.sigma,
            gL=G.gL,
            phase_const=G.phase_const,
            dim=G.dim,
            dom_basis=G.dom_basis,
            images=bad_images,
        )
        # scaling one image breaks the shift identity w2 (Sv2 pairs
        # eigenvectors index-by-index, so it is blind to per-index phases)
        reports = {r.name: r for r in verify_conjugation(bad)}
        assert not reports["w2"].holds
        assert reports["Sv2"].holds

    @pytest.mark.parametrize("N,b,d", [(8, 1, 2), (12, 1, 3), (24, 3, 2), (12, -1, 2)])
    def test_submodule_gaussian_identities(self, N, b, d):
        M = principal_module(N)
        G = gaussian(M, b=b, d=d)
        for rep in verify_conjugation(G):
            assert rep.holds and rep.residual == 0.0
        assert G.gL == ((F(1), F(-b, d)), (F(0), F(1)))

    def test_odd_order_rejected(self):
        with pytest.raises(OddOrder):
            gaussian(principal_module(9))

    def test_regularity_phase_under_substitution(self):
        # replacing the module roots u -> u q^j, v -> v q^{dn} changes the
        # Gaussian image basis by one scalar zeta with zeta^{2N} = 1
        N, d = 8, 2
        A = WeylDesc(1, F(1, N))
        for n in (1, 2, 3):
            M1 = build_module(A, SpecPoint.principal_point())
            M2 = ModuleRep = build_module(
                A, SpecPoint(F(0), F(0)), u_phase=F(0), v_phase=F(d * n, N)
            )
            G1, G2 = gaussian(M1, b=1, d=d), gaussian(M2, b=1, d=d)
            # compare image coordinates: both live in reference coordinates of
            # modules that share the same coordinate space
            ratios = []
            for m in range(G1.dim):
                r = None
                for a, bamp in zip(G2.image(m).amps, G1.image(m).amps):
                    if not bamp.is_zero():
                        r = a / bamp
                        break
                ratios.append(r)
            zeta = ratios[0]
            assert all((r - zeta).is_zero() for r in ratios)
            acc = Scalar.one()
            for _ in range(2 * N):
                acc = acc * zeta
            assert (acc - Scalar.one()).is_zero()


class TestDiagonal:
    def test_m1_identity(self):
        M = principal_module(6)
        D = diagonal(M, 1)
        for k in range(6):
            assert (D.image(k) - M.basis_vector(k)).is_zero()

    def test_m2_n4_averages(self):
        M = principal_module(4)
        D = diagonal(M, 2)
        half = Scalar.exact(Cyc.rational(1), 1, 2)
        for k in range(2):
            expect = (M.basis_vector(k) + M.basis_vector(k + 2)).scale(half)
            assert (D.image(k) - expect).is_zero()
        # domain basis is e_{2k}
        for k in range(2):
            assert (D.dom(k) - M.basis_vector(2 * k)).is_zero()

    def test_gl_and_conjugation(self):
        M = principal_module(12)
        D = diagonal(M, 3)
        assert mat_det(D.gL) == 1
        for rep in verify_conjugation(D):
            assert rep.holds and rep.residual == 0.0

    def test_not_dividing(self):
        with pytest.raises(NotDividing):
            diagonal(principal_module(4), 3)


class TestCompose:
    def test_gl_products_random_chains(self):
        M = principal_module(24)
        factories = [
            lambda: fourier(M),
            lambda: gaussian(M, 1, 2),
            lambda: gaussian(M, 1, 1),
            lambda: diagonal(M, 2),
            lambda: diagonal(M, 3),
        ]
        rng = random.Random(5)
        for _ in range(30):
            chain = [rng.choice(factories)() for _ in range(rng.randrange(2, 5))]
            g = chain[0].gL
            for L in chain[1:]:
                g = mat_mul(g, L.gL)
            assert mat_det(g) == 1

    def test_inverse_free_evolution(self):
        # K^t then K^{-t} is the identity on the common submodule
        M = principal_module(16)
        K = free_evolution(M, 1, 2)
        Kinv = free_evolution(M, -1, 2)
        C = compose(Kinv, K)
        assert C.materialized
        for m in range(C.dim):
            assert (C.image(m) - C.dom(m)).is_zero()

    def test_semigroup_law_exact(self):
        # K^{1/2} K^{1/2} = K^1 on the common submodule, up to a root of
        # unity of order dividing 2N (here it comes out exactly 1)
        M = principal_module(16)
        Kh = free_evolution(M, 1, 2)
        K1 = free_evolution(M, 1, 1)
        C = compose(Kh, Kh)
        assert C.gL == K1.gL
        ratios = []
        for m in range(C.dim):
            lhs, rhs = C.image(m), K1.apply(Kh.dom(m))
            r = None
            for a, b in zip(lhs.amps, rhs.amps):
                if not b.is_zero():
                    r = a / b
                    break
            assert (lhs - rhs.scale(r)).is_zero()
            ratios.append(r)
        zeta = ratios[0]
        assert all((r - zeta).is_zero() for r in ratios)
        acc = Scalar.one()
        for _ in range(2 * 16):
            acc = acc * zeta
        assert (acc - Scalar.one()).is_zero()

    def test_no_common_subalgebra(self):
        M = principal_module(4)
        D = diagonal(M, 2)
        C1 = compose(D, D)
        with pytest.raises(NoCommonSubalgebra):
            compose(D, C1)

    def test_sl2q_generators_realized(self):
        # Fourier, Gaussian and diagonal realize the standard generators
        M = principal_module(24)
        assert fourier(M).gL == ((F(0), F(1)), (F(-1), F(0)))
        assert gaussian(M, 2, 3).gL == ((F(1), F(-2, 3)), (F(0), F(1)))
        assert diagonal(M, 2).gL == ((F(2), F(0)), (F(0), F(1, 2)))


class TestFreeEvolution:
    def test_momentum_eigenstates(self):
        # K v_p = qb^{-p^2/2} v_p on the submodule V-eigenbasis
        M = principal_module(16)
        K = free_evolution(M, 1, 2)
        vb = sub_v_basis(K)
        qb_half = F(1, 2) * F(2) * M.q_phase  # (bd) q / 2... step = bd
        for p in range(K.dim):
            img = K.apply(vb[p])
            phase = Scalar.phase(F(-p * p, 1) * qb_half - int(F(-p * p, 1) * qb_half))
            target = vb[p].scale(phase)
            assert (img - target).is_zero()

    def test_divisibility(self):
        with pytest.raises(DivisibilityViolation):
            free_evolution(principal_module(8), 1, 0)
        with pytest.raises(NotDividing):
            free_evolution(principal_module(8), 3, 1)


class TestQHO:
    def test_triple_validation(self):
        M = principal_module(225)
        with pytest.raises(NotPythagorean):
            qho_evolution(M, 2, 3, 4)
        with pytest.raises(DivisibilityViolation):
            qho_evolution(principal_module(16), 3, 4, 5)

    def test_st_eigen_relation(self):
        M = principal_module(225)
        K = qho_evolution(M, 3, 4, 5)
        St = K.sigma[0][2]
        q = M.q_phase
        for m in range(K.dim):
            img = apply_word(St, K.image(m))
            target = K.image(m).scale(M.q_power(25 * 3 * m))
            assert (img - target).is_zero()

    def test_raw_kernel_matches_closed_form(self):
        # brute-force inner products equal the closed form with exponent
        # e c^2 ((n^2+m^2) f - 2 c n m)/2, exactly
        M = principal_module(225)
        e, f, c = 3, 4, 5
        K = qho_evolution(M, e, f, c)
        C0 = Scalar.phase(F(-1, 8))
        for n in range(K.dim):
            for m in range(K.dim):
                lhs = inner(K.dom(n), K.image(m))
                expo = F(e * c * c * ((n * n + m * m) * f - 2 * c * n * m), 2) * M.q_phase
                rhs = C0 * Scalar.exact(Cyc.rational(1), e * c, 225) * Scalar.phase(expo - int(expo))
                assert (lhs - rhs).is_zero()

    def test_unitary_and_conjugations(self):
        M = principal_module(225)
        K = qho_evolution(M, 3, 4, 5)
        for rep in verify_conjugation(K):
            assert rep.holds and rep.residual == 0.0


def qho_images_oracle(M, e, f, c):
    """Oracle: the QHO images built by adding each term to a zero amplitude."""
    N = M.dim
    pref = Scalar.phase(F(-1, 8)) * Scalar.exact(Cyc.rational(1), e, N)
    images = []
    for m in range(N // (c * c * e)):
        amps = [Scalar.zero()] * N
        for l in range(N // e):
            expo = F(e * f * (l * l - e * e * m * m), 2) - e ** 3 * m * l
            idx = (e * (l + m * f)) % N
            amps[idx] = amps[idx] + pref * Scalar.phase(_mod1(expo * M.q_phase))
        images.append(amps)
    return images


class TestQHOAgainstOracle:
    @pytest.mark.parametrize("N,triple", [(225, (3, 4, 5)), (450, (3, 4, 5)), (200, (4, 3, 5))])
    def test_images_equal_add_to_zero_build(self, N, triple):
        M = principal_module(N)
        K = qho_evolution(M, *triple)
        oracle = qho_images_oracle(M, *triple)
        assert len(K.images) == len(oracle)
        for img, amps in zip(K.images, oracle):
            assert all((a - b).is_zero() for a, b in zip(img.amps, amps))

    def test_images_are_monomials_times_sqrt3(self):
        # C0 sqrt(3/225) = zeta_8^{-1} sqrt(3)/15: each image amplitude is one
        # root of unity times sqrt(3), not sqrt(3) folded into a 4-term sum
        K = qho_evolution(principal_module(225), 3, 4, 5)
        nonzero = [a for img in K.images for a in img.amps if a.cyc.coeffs]
        assert len(nonzero) == K.dim * 225 // 3
        assert all(a.rad == 3 and len(a.cyc.coeffs) == 1 for a in nonzero)
