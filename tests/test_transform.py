import random
from dataclasses import replace
from functools import cache
from fractions import Fraction as F

import pytest

from finiteweyl import repmod, transform
from finiteweyl.dirac import ScaleParams, qho_propagator, qho_trace
from finiteweyl.errors import (
    DivisibilityViolation,
    ModuleMismatch,
    NoCommonSubalgebra,
    NotDividing,
    NotIncluded,
    NotPythagorean,
    OddOrder,
    OutOfRange,
)
from finiteweyl.exactnum import Scalar, dot
from finiteweyl.lattice import GenWord, WeylDesc, _mod1, check_triple, mat_inv
from finiteweyl.morphism import decompose, summand
from finiteweyl.repmod import (
    ModuleRep,
    SpecPoint,
    StateVec,
    apply_word,
    build_module,
    inner,
    linear_combination,
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
    inv_sqrt = Scalar.exact(Scalar.rational(1), 1, Nb)
    out = []
    for p in range(Nb):
        vec = StateVec(M, [Scalar.zero()] * M.dim)
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
                expect = Scalar.exact(Scalar.rational(1), 1, 8) * M.q_power(k * m)
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
        G = gaussian(M)
        G = replace(G, images=[img.scale(M.q_power(1)) for img in G.images])
        vb = v_basis(M)
        img = G.apply(vb[1])
        target = vb[1].scale(M.q_power(F(-1, 2)))
        assert not (img - target).is_zero()

    def test_conjugation_invariant_under_global_constant(self):
        # a global unit constant cancels in K X K^{-1}: the verifier must
        # still pass, which is why the eigen-relation is the sharp test
        M = principal_module(8)
        G = gaussian(M)
        G = replace(G, images=[img.scale(M.q_power(1)) for img in G.images])
        for rep in verify_conjugation(G):
            if rep.name in ("Sv2", "w2"):
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
            sigma_names=G.sigma_names,
            gL=G.gL,
            domain=G.domain,
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

    @pytest.mark.parametrize("d", [-2, -1, 0])
    def test_non_positive_d_rejected(self, d):
        # t = b/d carries its sign in b; a d below 1 is refused before any
        # summand is taken
        with pytest.raises(DivisibilityViolation, match="sign of t = b/d goes in b"):
            gaussian(principal_module(12), b=1, d=d)

    def test_range_roots_under_substitution(self):
        # on the module with roots u = 0, v = d n/N, sigma moves the centre's
        # character: the images live on the module with roots
        # gL^{-1} (u, v)^T = (u + b v/d, v) = (n/N, d n/N), not on M
        N, b, d = 8, 1, 2
        A = WeylDesc(1, F(1, N))
        for n in (1, 2, 3):
            M = ModuleRep(A, F(0), F(d * n, N))
            G = gaussian(M, b=b, d=d)
            assert (G.ambient_ran.u_phase, G.ambient_ran.v_phase) == (F(n, N), F(d * n, N))
            assert all(rep.holds for rep in verify_conjugation(G))


class TestDiagonal:
    def test_m1_identity(self):
        M = principal_module(6)
        D = diagonal(M, 1)
        for k in range(6):
            assert (D.image(k) - M.basis_vector(k)).is_zero()

    def test_m2_n4_averages(self):
        M = principal_module(4)
        D = diagonal(M, 2)
        half = Scalar.exact(Scalar.rational(1), 1, 2)
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

    def test_bookkeeping_composite_has_no_dim(self):
        # N/covol(C) = 4/3: no basis map, so no dimension to report
        D = diagonal(principal_module(12), 3)
        C = compose(D, D)
        assert not C.materialized and C.dim is None
        assert C.gL == mat_mul(D.gL, D.gL)

    @pytest.mark.parametrize("materialized", [True, False])
    def test_mismatched_modules_refused(self, materialized, monkeypatch):
        # Fourier moves the point (1/3, 2/5) of A(1/2, 1/6), so a second
        # Fourier on the same module does not start where the first ends
        M = build_module(WeylDesc(F(1, 2), F(1, 6)), SpecPoint(F(1, 3), F(2, 5)))
        L = fourier(M)
        assert not L.ambient_dom.compatible(L.ambient_ran)
        if not materialized:
            L = replace(L, domain=None, images=None)

        def fail(*args):
            raise AssertionError("composite built from mismatched factors")

        monkeypatch.setattr(RegUnitary, "apply", fail)
        with pytest.raises(ModuleMismatch):
            compose(L, L)

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

    @pytest.mark.parametrize("mu,h", [(10, 1), (30, 3)])
    def test_kernel_not_periodic_refused(self, mu, h):
        # N = 100 and 300 make f N/e odd for (4,3,5): the kernel has no period N,
        # so no transform on these summands has this matrix
        params = ScaleParams(F(h), mu)
        msg = f"need f N/e = {3 * params.N // 4} even"
        with pytest.raises(DivisibilityViolation, match=msg):
            qho_evolution(principal_module(params.N), 4, 3, 5)
        with pytest.raises(DivisibilityViolation, match=msg):
            qho_propagator(0.0, 0.0, (4, 3, 5), params)

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
                rhs = C0 * Scalar.exact(Scalar.rational(1), e * c, 225) * Scalar.phase(expo - int(expo))
                assert (lhs - rhs).is_zero()

    def test_unitary_and_conjugations(self):
        M = principal_module(225)
        K = qho_evolution(M, 3, 4, 5)
        for rep in verify_conjugation(K):
            assert rep.holds and rep.residual == 0.0

    @pytest.mark.parametrize("triple", [(3, 4, 6), (0, 5, 5), (-3, 4, 5), (3, -4, 5), (3, 4, -5)])
    def test_every_qho_entry_refuses_a_bad_triple(self, triple):
        with pytest.raises(NotPythagorean):
            check_triple(*triple)
        with pytest.raises(NotPythagorean):
            qho_evolution(principal_module(225), *triple)
        with pytest.raises(NotPythagorean):
            qho_propagator(0.0, 0.0, triple, ScaleParams(F(1), 60))
        with pytest.raises(NotPythagorean):
            qho_trace(triple, ScaleParams(F(1), 60))

    def test_float_propagator_sums_the_exact_kernel(self):
        # qho_propagator times its grid step is <dom n|K dom m> of the exact
        # transform on the same module (N = mu^2 = 900), indices taken mod dim
        e, f, c = 3, 4, 5
        params = ScaleParams(F(1), 30)
        K = qho_evolution(principal_module(params.N), e, f, c)
        step, dx = c * e * params.hbar / params.mu, e * params.hbar / params.mu
        for n in range(-K.dim // 2, K.dim // 2 + 1):
            for m in range(-K.dim // 2, K.dim // 2 + 1):
                s = qho_propagator(n * step, m * step, (e, f, c), params)
                assert abs(s.value * dx - inner(K.dom(n), K.image(m)).to_complex()) < 1e-12


def qho_images_oracle(M, e, f, c):
    """Oracle: the QHO images built by adding each term to a zero amplitude."""
    N = M.dim
    pref = Scalar.phase(F(-1, 8)) * Scalar.exact(Scalar.rational(1), e, N)
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
        nonzero = [a for img in K.images for a in img.amps if a.coeffs]
        assert len(nonzero) == K.dim * 225 // 3
        assert all(a.rad == 3 and len(a.coeffs) == 1 for a in nonzero)


def qho_diagonal_sum(K):
    """S = sum_m <dom m|K dom m>, one dot over each domain vector's support pairs."""
    S = Scalar.zero()
    for m, g in enumerate(K.domain):
        img = K.image(m).amps
        S = S + dot([a for _, a in g], [img[j] for j, _ in g], conj=True)
    return S


class TestQHOTrace:
    """The QHO's diagonal sum S at N = e c^2 (c-f) L is a quadratic Gauss sum
    in closed form, and `qho_trace` is c/(c-f) S."""

    @pytest.mark.parametrize("triple", [(3, 4, 5), (4, 3, 5)])
    @pytest.mark.parametrize("L", range(1, 13))
    def test_diagonal_sum_closed_form(self, triple, L):
        e, f, c = triple
        K = qho_evolution(principal_module(e * c * c * (c - f) * L), e, f, c)
        root = Scalar.exact(Scalar.rational(1), 2 * (c - f), c)  # sqrt(2(c-f)/c)
        minus_i = Scalar.phase(F(3, 4))
        if L % 4 == 0:
            expect = minus_i * root
        elif L % 4 == 2:
            expect = Scalar.zero()
        else:  # (1 - i)/2 root for L = 1 mod 4, (-1 - i)/2 root for L = 3 mod 4
            expect = (Scalar.rational(2 - L % 4) + minus_i) * root * Scalar.rational(F(1, 2))
        assert (qho_diagonal_sum(K) - expect).is_zero()

    @pytest.mark.parametrize("triple,mu", [((3, 4, 5), 30), ((3, 4, 5), 60), ((4, 3, 5), 40)])
    def test_float_trace_is_the_scaled_diagonal_sum(self, triple, mu):
        # N = 900, 3600 and 1600: L = 12, 48 and 8
        e, f, c = triple
        params = ScaleParams(F(1), mu)
        S = qho_diagonal_sum(qho_evolution(principal_module(params.N), e, f, c))
        assert abs(qho_trace(triple, params).value - c / (c - f) * S.to_complex()) < 1e-12


def gaussian_images_oracle(M, b, d):
    """Oracle: the images as one gather of the weight rows over the dense
    principal summand basis, the build before the pairs were read."""
    Nb = M.dim // abs(b * d)
    _, h = decompose(M, WeylDesc(d * M.alg.a, abs(b) * M.alg.b))[0]
    half_qb = F(b * d) * M.q_phase / 2
    cc = Scalar.phase(F(-1 if b * d > 0 else 1, 8))
    inv_sqrt = Scalar.exact(Scalar.rational(1), 1, Nb)
    weight = [cc * inv_sqrt * Scalar.phase(_mod1(t * t * half_qb)) for t in range(Nb)]
    rows = [[weight[abs(l - m)] for l in range(Nb)] for m in range(Nb)]
    return repmod.linear_combinations(rows, [v.amps for v in h], M.dim)


def terms(amps):
    """Amplitudes as (radicand, order, coefficients): equal only when built
    the same way, not merely equal in value."""
    return [(a.rad, a.order, a.coeffs) for a in amps]


def builder_images_oracle(kind, M, *params):
    """Oracle: the images as each builder wrote them before they came from its
    matrix (dense amplitude lists)."""
    A, N = M.alg, M.dim
    if kind == "fourier":
        return [v.amps for v in v_basis(M)]
    if kind in ("gaussian", "free"):
        b, d = params
        Nb = N // abs(b * d)
        _, h = summand(M, WeylDesc(d * A.a, abs(b) * A.b))
        half_qb = F(b * d) * M.q_phase / 2
        cc = Scalar.phase(F(-1 if b * d > 0 else 1, 8))
        inv_sqrt = Scalar.exact(Scalar.rational(1), 1, Nb)
        row = [cc * inv_sqrt * Scalar.phase(_mod1(t * t * half_qb)) * h[0][0][1] for t in range(Nb)]
        images = []
        for m in range(Nb):
            amps = [Scalar.zero()] * N
            for l, g in enumerate(h):
                for idx, _ in g:
                    amps[idx] = row[abs(l - m)]
            images.append(amps)
        return images
    if kind == "diagonal":
        m, = params
        _, ran = summand(M, WeylDesc(m * A.a, A.b))
        return [StateVec.from_pairs(M, g).amps for g in ran]
    e, f, c = params
    pref = Scalar.phase(F(-1, 8)) * Scalar.exact(Scalar.rational(1), e, N)
    table, images = {}, []
    for m in range(N // (c * c * e)):
        amps = [Scalar.zero()] * N
        for l in range(N // e):
            t = e * (f * (l * l - e * e * m * m) - 2 * e * e * m * l) % (2 * N)
            if t not in table:
                table[t] = pref * M.q_power(F(t, 2))
            amps[(e * (l + m * f)) % N] = table[t]
        images.append(amps)
    return images


def compose_images_oracle(L2, L1):
    """Oracle: L2 o L1's images by one dense apply per image, None when one
    leaves L2's domain or a factor has none (the composite then carries
    bookkeeping only)."""
    if not (L1.materialized and L2.materialized):
        return None
    try:
        return [L2.apply(L1.image(m)).amps for m in range(L1.dim)]
    except NotIncluded:
        return None


def same_images(images, oracle):
    return len(images) == len(oracle) and all(
        (a - b).is_zero() for img, amps in zip(images, oracle) for a, b in zip(img.amps, amps))


class TestGaussianAgainstOracle:
    @pytest.mark.parametrize("N,b,d", [(8, 1, 1), (24, 1, 2), (24, 3, 2), (24, -1, 2),
                                       (12, 1, 3), (104, 1, 1)])
    def test_images_equal_dense_gather(self, N, b, d):
        M = principal_module(N)
        G = gaussian(M, b, d)
        oracle = gaussian_images_oracle(M, b, d)
        assert len(G.images) == len(oracle) == G.dim
        for img, amps in zip(G.images, oracle):
            assert terms(img.amps) == terms(amps)

    def test_builders_sum_no_products(self, monkeypatch):
        # a composite the matrix formula covers takes one dense apply, not one
        # per image, Phi o Phi at N = 12 included
        calls = []
        apply = RegUnitary.apply
        monkeypatch.setattr(RegUnitary, "apply", lambda L, x: calls.append(L.name) or apply(L, x))
        M12, M16, M24 = principal_module(12), principal_module(16), principal_module(24)
        Phi = fourier(M12)
        covered = [(fourier(Phi.ambient_ran), Phi),
                   (free_evolution(M16, -1, 2), free_evolution(M16, 1, 2)),
                   (diagonal(M24, 3), gaussian(M24, 3, 2)),
                   (diagonal(M24, 2), gaussian(M24, 2, 1)),
                   (fourier(M24), diagonal(M24, 2)),
                   (fourier(Phi.ambient_ran), compose(fourier(M12), diagonal(M12, 2)))]
        for L2, L1 in covered:
            calls.clear()
            assert compose(L2, L1).materialized and len(calls) <= 1
        monkeypatch.setattr(RegUnitary, "apply", apply)

        # every image entry of gaussian, diagonal and qho is one product or
        # one amplitude; gaussian and qho read the summand's pairs without a
        # dense domain vector
        def refuse(*args, **kwargs):
            raise AssertionError("builder routed through a sum of products or a dense summand")

        monkeypatch.setattr(repmod, "linear_combinations", refuse)
        monkeypatch.setattr(transform, "linear_combinations", refuse)
        assert diagonal(principal_module(24), 3).materialized
        monkeypatch.setattr(StateVec, "from_pairs", refuse)
        for b, d in [(1, 1), (3, 2), (-1, 2)]:
            assert gaussian(principal_module(24), b, d).materialized
        assert qho_evolution(principal_module(225), 3, 4, 5).materialized


def apply_oracle(L, x):
    """Oracle: the expansion by one inner product per domain basis vector,
    refused when the whole residual x - sum c_m dom_m is nonzero."""
    dom_basis = [L.dom(m) for m in range(L.dim)]
    coeffs = [inner(b, x) for b in dom_basis]
    residual = x - linear_combination(L.ambient_dom, coeffs, dom_basis)
    if not residual.is_zero():
        raise NotIncluded("vector does not lie in the transformation domain")
    return linear_combination(L.ambient_ran, coeffs, L.images)


def verify_oracle(L, sample=None):
    """Oracle: the sigma pairs compared through a whole difference vector."""
    idx = range(L.dim) if sample is None or L.dim <= sample else range(0, L.dim, max(1, L.dim // sample))
    reports = []
    for nm, W, Wimg in L.sigma:
        worst, ok = 0.0, True
        for m in idx:
            diff = apply_oracle(L, apply_word(W, L.dom(m))) - apply_word(Wimg, L.image(m))
            if not diff.is_zero():
                ok = False
                worst = max(worst, max(abs(a.to_complex()) for a in diff.amps))
        reports.append((nm, ok, worst))
    return reports


def same_vector(x, y):
    return x.module.compatible(y.module) and all((a - b).is_zero() for a, b in zip(x.amps, y.amps))


def same_terms(x, y):
    """x and y printed alike and built alike, entry by entry."""
    return (x.module.compatible(y.module) and [repr(a) for a in x.amps] == [repr(b) for b in y.amps]
            and terms(x.amps) == terms(y.amps))


def hand_sigma(kind, M, *params):
    """Oracle: the sigma images each builder stated by hand before sigma was
    derived from gL, as (identity name, W, W')."""
    A, q = M.alg, M.q_phase
    U, V = GenWord(A.a, 0), GenWord(0, A.b)
    if kind == "fourier":
        return (("sigma-U", U, V), ("sigma-V", V, U.inv()))
    if kind in ("gaussian", "free"):
        b, d = params
        Ud, Vb = GenWord(d * A.a, 0), GenWord(0, b * A.b)
        S = GenWord(d * A.a, -b * A.b, -F(b * d) * q / 2)  # qb^{-1/2} U^d V^{-b}
        return (("Sv2", Ud, S), ("w2", Vb, Vb))
    if kind == "diagonal":
        m, = params
        return (("sigma-U", U, GenWord(m * A.a, 0)), ("sigma-V", GenWord(0, m * A.b), V))
    e, f, c = params
    S_t = GenWord(f * A.a, -e * A.b, -F(e * f) * q / 2)
    R_t_e = GenWord(e * e * A.a, e * f * A.b, F(e ** 3 * f) * q / 2)
    return (("KU", GenWord(c * A.a, 0), S_t), ("mKU", GenWord(0, c * e * A.b), R_t_e))


def sigma_word_image(sigma, A, w):
    """Oracle: sigma(w) extended from the generator images as a homomorphism.

    w is expanded as phase * W1^j W2^k; the image is phase * W1'^j W2'^k.
    """
    (_, W1, img1), (_, W2, img2) = sigma
    rows = [(W.u_exp / A.a, W.v_exp / A.b) for W in (W1, W2)]
    rw = (w.u_exp / A.a, w.v_exp / A.b)
    j, k = (rw[0] * c0 + rw[1] * c1 for c0, c1 in zip(*mat_inv(rows)))
    assert j.denominator == 1 and k.denominator == 1, "word is not in the domain subalgebra"
    base = (img1 ** int(j)) * (img2 ** int(k))
    lead = (W1 ** int(j)) * (W2 ** int(k))
    return GenWord(base.u_exp, base.v_exp, base.phase + w.phase - lead.phase)


BUILD = {"fourier": fourier, "gaussian": gaussian, "free": free_evolution,
         "diagonal": diagonal, "qho": qho_evolution}


def built(kind, M, *params):
    """(L, its hand-written sigma)."""
    return BUILD[kind](M, *params), hand_sigma(kind, M, *params)


def composed(second, first):
    """(L2 o L1, its sigma through L1's and then L2's images by the oracle)."""
    (L2, s2), (L1, s1) = second, first
    C = compose(L2, L1)
    A = L1.ambient_dom.alg
    return C, tuple((nm, W, sigma_word_image(s2, A, sigma_word_image(s1, A, W)))
                    for nm, W in zip(("sigma-C1", "sigma-C2"), C.dom_words))


def _builders():
    M24, M16 = principal_module(24), principal_module(16)
    Phi = built("fourier", principal_module(12))
    Kh = built("free", M16, 1, 2)
    yield built("fourier", M24)
    for b, d in [(1, 1), (1, 2), (3, 2), (-1, 2)]:
        yield built("gaussian", M24, b, d)
    yield built("diagonal", M24, 2)
    yield built("diagonal", M24, 3)
    yield Kh
    yield built("qho", principal_module(225), 3, 4, 5)
    yield built("qho", principal_module(450), 3, 4, 5)
    yield built("qho", principal_module(200), 4, 3, 5)
    yield composed(built("fourier", Phi[0].ambient_ran), Phi)
    yield composed(built("free", M16, -1, 2), Kh)
    yield composed(Kh, Kh)


BUILT = list(_builders())
BUILDERS = [L for L, _ in BUILT]

SPECS = ([("fourier",)]
         + [("gaussian", b, d) for b, d in [(1, 1), (1, 2), (3, 2), (-1, 2), (2, 1), (1, 3), (-3, 1)]]
         + [("diagonal", m) for m in (2, 3, 4)]
         + [("qho", *t) for t in [(3, 4, 5), (4, 3, 5)]])


def sweep_modules():
    """Principal modules, and principal and non-principal modules of algebras
    with a*b other than 1/N; A(3,5/12) has a*b = 5/4 and reduced q = 1/4."""
    yield from (principal_module(N) for N in (4, 6, 8, 12, 16, 24))
    for a, b in [(F(1, 2), F(1, 6)), (F(2, 3), F(1, 4)), (3, F(5, 12)), (F(1, 3), F(7, 4)), (F(5, 2), F(3, 8))]:
        A = WeylDesc(a, b)
        yield build_module(A, SpecPoint.principal_point())
        yield build_module(A, SpecPoint(F(1, 3), F(2, 5)))


_INSTANCES = {}


def instances(M):
    """(spec, L, hand-written sigma) for every entry of SPECS that M admits,
    built once per module up to `compatible` (ModuleRep has no hash)."""
    key = (M.alg, M.point, M.u_phase, M.v_phase)
    if key not in _INSTANCES:
        out = []
        for kind, *params in SPECS:
            try:
                out.append(((kind, *params), *built(kind, M, *params)))
            except (NotDividing, OddOrder, DivisibilityViolation):
                pass
        _INSTANCES[key] = out
    return _INSTANCES[key]


MODULES = list(sweep_modules())


@cache
def instance_set(M):
    """M's builders as (spec, L, hand), and as (L2, L1, L2 o L1, hand) the
    two-factor composites over every pair whose modules line up and a sample
    of three-factor ones."""
    first = instances(M)
    pairs = []
    for _, *f1 in first:
        for _, *f2 in instances(f1[0].ambient_ran):
            try:
                pairs.append((f2[0], f1[0], *composed(f2, f1)))
            except NoCommonSubalgebra:
                pass
    rng = random.Random(repr(M))
    triples = []
    for _, _, *f12 in rng.sample(pairs, 12):
        _, *f3 = rng.choice(instances(f12[0].ambient_ran))
        try:
            triples.append((f3[0], f12[0], *composed(f3, f12)))
        except NoCommonSubalgebra:
            pass
    return first, pairs, triples


class TestSigmaAgainstOracle:
    @pytest.mark.parametrize("L,hand", BUILT, ids=[f"{L.name}-N{L.ambient_dom.dim}" for L in BUILDERS])
    def test_builders(self, L, hand):
        assert L.sigma == hand

    @pytest.mark.parametrize("M", MODULES, ids=repr)
    def test_every_builder_and_composite(self, M):
        first, pairs, triples = instance_set(M)
        assert len(first) >= 6
        assert all(L.sigma == hand for _, L, hand in first)
        assert len(pairs) >= 20
        assert all(C.sigma == hand for _, _, C, hand in pairs)
        assert len(triples) >= 3
        assert all(C.sigma == hand for _, _, C, hand in triples)

    def test_qho_triple_5_12_13(self):
        L, hand = built("qho", principal_module(845), 5, 12, 13)
        assert L.sigma == hand


class TestImagesAgainstOracle:
    """The images built from gL equal the builders' and the dense compose's."""

    @pytest.mark.parametrize("M", MODULES, ids=repr)
    def test_builders_and_composites(self, M):
        first, pairs, triples = instance_set(M)
        for (kind, *params), L, _ in first:
            assert same_images(L.images, builder_images_oracle(kind, M, *params))
        for L2, L1, C, _ in pairs + triples:
            oracle = compose_images_oracle(L2, L1)
            assert C.materialized == (oracle is not None)
            if oracle is not None:
                assert C.domain is L1.domain and same_images(C.images, oracle)

    @pytest.mark.parametrize("N,triple", [(225, (3, 4, 5)), (450, (3, 4, 5)), (200, (4, 3, 5)),
                                          (845, (5, 12, 13))])
    def test_qho(self, N, triple):
        M = principal_module(N)
        assert same_images(qho_evolution(M, *triple).images, builder_images_oracle("qho", M, *triple))

    def test_named_composites(self):
        # Phi o Phi (the parity), K^{-1/2} o K^{1/2} and K^{1/2} o K^{1/2}
        M16 = principal_module(16)
        Phi, Kh = fourier(principal_module(12)), free_evolution(M16, 1, 2)
        for L2, L1 in [(fourier(Phi.ambient_ran), Phi), (free_evolution(M16, -1, 2), Kh), (Kh, Kh)]:
            assert same_images(compose(L2, L1).images, compose_images_oracle(L2, L1))

    @pytest.mark.parametrize("kind,N,params", [("fourier", 12, ()), ("gaussian", 12, (1, 1)), ("diagonal", 12, (2,)),
                                               ("free", 12, (1, 2)), ("qho", 225, (3, 4, 5))])
    def test_terms_at_cli_sizes(self, kind, N, params):
        M = principal_module(N)
        L = BUILD[kind](M, *params)
        oracle = builder_images_oracle(kind, M, *params)
        assert len(L.images) == len(oracle)
        for img, amps in zip(L.images, oracle):
            assert terms(img.amps) == terms(amps)


class TestRangeModule:
    """Each builder lands on the module with roots gL^{-1} (u, v)^T."""

    @pytest.mark.parametrize("M", MODULES, ids=repr)
    def test_every_builder_and_composite_verifies(self, M):
        first, pairs, triples = instance_set(M)
        for _, L, _ in first:
            assert all(rep.holds for rep in verify_conjugation(L)), L.name
        for _, _, C, _ in pairs + triples:
            if C.materialized:
                assert all(rep.holds for rep in verify_conjugation(C, sample=3)), C.name

    @pytest.mark.parametrize("M", MODULES, ids=repr)
    def test_fourier_roots_match_the_hand_written_rule(self, M):
        # the rule fourier wrote out by hand: u' = v^{-1}, v' = u
        N, u, v = M.dim, M.u_phase, M.v_phase
        Phi = next(L for spec, L, _ in instance_set(M)[0] if spec == ("fourier",))
        assert Phi.ambient_ran.compatible(ModuleRep(M.alg, -v, u))

    @pytest.mark.parametrize("M", [M for M in MODULES if not (M.u_phase or M.v_phase)], ids=repr)
    def test_principal_module_is_its_own_range(self, M):
        first, pairs, triples = instance_set(M)
        assert all(L.ambient_ran is M for _, L, _ in first)
        assert all(C.ambient_ran is M for _, _, C, _ in pairs + triples)


SWAPPED_REFUSED = [(("fourier",), ("diagonal", 2)), (("diagonal", 2), ("gaussian", 1, 2)),
                   (("gaussian", 1, 1), ("diagonal", 3)), (("free", 1, 2), ("fourier",))]


class TestWrongMatrix:
    """A wrong associated matrix is seen: sigma follows from gL alone."""

    @pytest.mark.parametrize("b,d", [(1, 1), (1, 2), (3, 2), (-1, 2)])
    def test_gaussian_sign_of_b_over_d(self, b, d):
        G = gaussian(principal_module(24), b, d)
        bad = replace(G, gL=((F(1), F(b, d)), (F(0), F(1))))
        assert {r.name: r.holds for r in verify_conjugation(bad)} == {"unitary": True, "Sv2": False, "w2": True}

    @pytest.mark.parametrize("N,triple", [(225, (3, 4, 5)), (200, (4, 3, 5))])
    def test_qho_inverse_rotation(self, N, triple):
        e, f, c = triple
        K = qho_evolution(principal_module(N), e, f, c)
        bad = replace(K, gL=((F(f, c), F(e, c)), (F(-e, c), F(f, c))))
        assert {r.name: r.holds for r in verify_conjugation(bad)} == {"unitary": True, "KU": False, "mKU": False}

    @pytest.mark.parametrize("second,first", SWAPPED_REFUSED)
    def test_composite_with_swapped_product_refused(self, second, first):
        M = principal_module(24)
        L2, L1 = (BUILD[kind](M, *params) for kind, *params in (second, first))
        C = compose(L2, L1)
        with pytest.raises(ValueError, match="outside the target algebra"):
            replace(C, gL=mat_mul(L2.gL, L1.gL))

    @pytest.mark.parametrize("second,first", [(("diagonal", 3), ("gaussian", 3, 2))] + SWAPPED_REFUSED)
    def test_composite_matrix_is_first_times_second(self, second, first):
        # for D_3 o G[3,2] the swapped matrix passes verify_conjugation (it differs
        # by a word acting trivially on the images), but it has no kernel, so
        # compose cannot build images from it (test_swapped_product_gives_other_images);
        # the order is pinned on gL here too
        M = principal_module(24)
        L2, L1 = (BUILD[kind](M, *params) for kind, *params in (second, first))
        assert compose(L2, L1).gL == mat_mul(L1.gL, L2.gL) != mat_mul(L2.gL, L1.gL)

    def test_swapped_product_gives_other_images(self):
        # the images built from g(L1) g(L2), with the constant fitted to the first
        # dense image, are the dense compose's; g(L2) g(L1) has no kernel on G[3,2]'s
        # domain <U^2, V^3> (it is not periodic there), so it gives no images
        M = principal_module(24)
        L2, L1 = diagonal(M, 3), gaussian(M, 3, 2)
        dense = compose_images_oracle(L2, L1)
        images = transform._kernel_images(M, 2, 3, L1.dim, mat_mul(L1.gL, L2.gL), Scalar.one())
        i = next(i for i, a in enumerate(images[0].amps) if a.coeffs)
        c = dense[0][i] / images[0].amps[i]
        assert same_images([img.scale(c) for img in images], dense)
        assert transform._kernel_images(M, 2, 3, L1.dim, mat_mul(L2.gL, L1.gL), Scalar.one()) is None

    def test_composite_with_swapped_product_fails_sigma(self):
        # here the swapped matrix keeps the domain words in the algebra
        M = principal_module(24)
        L2, L1 = fourier(M), gaussian(M, 1, 1)
        bad = replace(compose(L2, L1), gL=mat_mul(L2.gL, L1.gL))
        assert {r.name: r.holds for r in verify_conjugation(bad)} == {
            "unitary": True, "sigma-C1": False, "sigma-C2": False}


def corrupted(L, m, zero=False):
    """L with image m multiplied by q, or by 0."""
    images = list(L.images)
    images[m] = images[m].scale(Scalar.zero() if zero else L.ambient_ran.q_power(1))
    return replace(L, name="corrupt", images=images)


# image 3 of fourier and gaussian[b=1,d=1] at N = 24, image 0 of qho at N = 225
CORRUPTED = [corrupted(BUILDERS[0], 3), corrupted(BUILDERS[0], 3, zero=True),
             corrupted(BUILDERS[1], 3), corrupted(BUILDERS[8], 0)]


class TestApplyAgainstOracle:
    @pytest.mark.parametrize("L", BUILDERS, ids=lambda L: f"{L.name}-N{L.ambient_dom.dim}")
    def test_domain_vectors_and_dense_combinations(self, L):
        assert L.materialized
        rng = random.Random(L.dim)
        picks = sorted(rng.sample(range(L.dim), min(L.dim, 4)))
        xs = [L.dom(m) for m in picks]
        for density in (0.5, 1.0):
            coeffs = [Scalar.phase(F(rng.randrange(8), 8)) * Scalar.rational(rng.randrange(1, 4))
                      if rng.random() < density else Scalar.zero() for _ in range(L.dim)]
            xs.append(linear_combination(L.ambient_dom, coeffs, [L.dom(m) for m in range(L.dim)]))
        for x in xs:
            assert same_vector(L.apply(x), apply_oracle(L, x))

    @pytest.mark.parametrize("L", BUILDERS + CORRUPTED, ids=lambda L: f"{L.name}-N{L.ambient_dom.dim}")
    def test_words_on_domain_vectors(self, L):
        # the sigma checks' inputs take the one-group route; the residuals read
        # the terms, so the result must be built as the oracle builds it
        for _, W, _ in L.sigma:
            for m in range(L.dim):
                x = apply_word(W, L.dom(m))
                assert same_terms(L.apply(x), apply_oracle(L, x))

    @pytest.mark.parametrize("M", MODULES, ids=repr)
    def test_words_on_composite_domain_vectors(self, M):
        _, pairs, triples = instance_set(M)
        for _, _, C, _ in pairs + triples:
            if C.materialized:
                for _, W, _ in C.sigma:
                    for m in range(C.dim):
                        x = apply_word(W, C.dom(m))
                        assert same_terms(C.apply(x), apply_oracle(C, x)), C.name

    def test_unreduced_zero_coordinates(self):
        # Phi2 Phi u_4 = u_8 at N = 12 comes back with 11 coordinates that are
        # zero only after reduction, on and off the supports of D_2's domain
        M = principal_module(12)
        Phi = fourier(M)
        x = fourier(Phi.ambient_ran).apply(Phi.image(4))
        assert sum(1 for a in x.amps if a.coeffs and a.is_zero()) == 11
        D = diagonal(M, 2)
        assert same_vector(D.apply(x), apply_oracle(D, x))
        assert same_vector(D.apply(x), D.image(4))

    def test_refusals(self):
        D = diagonal(principal_module(24), 2)
        K = qho_evolution(principal_module(225), 3, 4, 5)
        amps = list(K.dom(1).amps)
        j = next(j for j, a in enumerate(amps) if a.coeffs)
        amps[j] = amps[j] * K.ambient_dom.q_power(1)
        refused = [
            (D, principal_module(24).basis_vector(1), NotIncluded),  # off the support
            (K, StateVec(K.ambient_dom, amps), NotIncluded),  # not proportional on a support
            (D, principal_module(12).basis_vector(0), ModuleMismatch),
        ]
        for L, x, exc in refused:
            with pytest.raises(exc):
                L.apply(x)
            with pytest.raises(exc):
                apply_oracle(L, x)

    def test_overlapping_supports_rejected(self):
        G = gaussian(principal_module(8))
        overlapping = [[(j, a) for j, a in enumerate(img.amps) if a.coeffs] for img in G.images]
        with pytest.raises(ValueError, match="disjoint"):
            replace(G, domain=overlapping)


class TestVerifyAgainstOracle:
    @pytest.mark.parametrize("L", BUILDERS + CORRUPTED, ids=lambda L: f"{L.name}-N{L.ambient_dom.dim}")
    def test_reports_equal_oracle(self, L):
        # sample 6 at N = 24 checks m = 4 but not m = 3: a zeroed image 3 then
        # shows only where the left side is empty and the right side is not
        for sample in (3,) if L.ambient_dom.dim > 100 else (None, 6):
            got = [(r.name, r.holds, r.residual) for r in verify_conjugation(L, sample=sample)
                   if r.name != "unitary"]
            assert got == verify_oracle(L, sample)
            if L in CORRUPTED:
                assert any(not ok and worst > 0 for _, ok, worst in got)

    @pytest.mark.parametrize("kind,N,params,sample", [("fourier", 120, (), 4), ("qho", 450, (3, 4, 5), 3)])
    def test_gram_is_the_one_linear_combination(self, kind, N, params, sample, monkeypatch):
        # the sigma checks map each W dom(m) as one image times a coefficient
        calls = []

        def counted(f):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return f(*args, **kwargs)
            return wrapper

        L = BUILD[kind](principal_module(N), *params)
        monkeypatch.setattr(transform, "linear_combinations", counted(transform.linear_combinations))
        monkeypatch.setattr(repmod, "linear_combinations", counted(repmod.linear_combinations))
        assert all(r.holds for r in verify_conjugation(L, sample=sample))
        assert len(calls) == 1

    @pytest.mark.parametrize("sample", [0, -2])
    def test_sample_below_one(self, sample):
        with pytest.raises(OutOfRange, match="sample must be at least 1"):
            verify_conjugation(fourier(principal_module(8)), sample=sample)


def unitary_oracle(L, sample=None):
    """Oracle: the unitary check with both Gram matrices taken in full."""
    idx = range(L.dim) if sample is None or L.dim <= sample else range(0, L.dim, max(1, L.dim // sample))
    worst, ok = 0.0, True
    for i in idx:
        for j in idx:
            diff = inner(L.image(i), L.image(j)) - inner(L.dom(i), L.dom(j))
            if not diff.is_zero():
                ok = False
                worst = max(worst, abs(diff.to_complex()))
    return ("unitary", ok, worst)


def corrupted_domain(L, m):
    """L with domain basis vector m doubled: same support, norm 4."""
    domain = list(L.domain)
    domain[m] = [(j, Scalar.rational(2) * a) for j, a in domain[m]]
    return replace(L, name="corrupt-dom", domain=domain)


# a zeroed image 3 (seen only unsampled) and doubled domain vectors 0; an
# image times q keeps every inner product
NOT_UNITARY = [CORRUPTED[1], corrupted_domain(BUILDERS[0], 0), corrupted_domain(BUILDERS[8], 0)]


class TestUnitaryAgainstOracle:
    @pytest.mark.parametrize("L", BUILDERS + CORRUPTED + NOT_UNITARY[1:],
                             ids=lambda L: f"{L.name}-N{L.ambient_dom.dim}")
    def test_reports_equal_oracle(self, L):
        # the domain Gram matrix is read off the disjoint supports: 0 off the
        # diagonal without a product, norm2 over the support on it
        for sample in (None, 3):
            got, = [(r.name, r.holds, r.residual) for r in verify_conjugation(L, sample)
                    if r.name == "unitary"]
            assert got == unitary_oracle(L, sample)
            if L in NOT_UNITARY and (sample is None or L.name == "corrupt-dom"):
                assert not got[1] and got[2] > 0

    def test_broken_domain_fails_the_identities(self):
        # with u_0 doubled, U u_0 and V u_1 are no longer read off the domain
        # basis: the identities fail instead of raising NotIncluded
        reports = {r.name: (r.holds, r.residual) for r in verify_conjugation(NOT_UNITARY[1])}
        assert reports["sigma-U"] == reports["sigma-V"] == (False, float("inf"))
