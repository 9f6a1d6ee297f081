import random
from fractions import Fraction as F

import pytest

from finiteweyl.errors import BadBranch, NotDividing, NotIncluded
from finiteweyl.exactnum import Cyc, Scalar, root_of_unity
from finiteweyl.lattice import GenWord, WeylDesc, _mod1, q_order, relative_indices
from finiteweyl.morphism import decompose, embed_pbeta, pairing, pairing_row_sum, summand
from finiteweyl.repmod import (
    SpecPoint,
    StateVec,
    apply_word,
    build_module,
    inner,
    v_basis,
)


def module_of_dim(N, point=None):
    A = WeylDesc(F(1, 1), F(1, N))
    return build_module(A, point or SpecPoint.principal_point())


def sub_desc(M, n, k):
    return WeylDesc(n * M.alg.a, k * M.alg.b)


class TestDecompose:
    def test_b_equals_a(self):
        M = module_of_dim(6)
        parts = decompose(M, M.alg)
        assert len(parts) == 1
        beta, basis = parts[0]
        assert beta == M.point
        for k, vec in enumerate(basis):
            diff = vec - M.basis_vector(k)
            assert diff.is_zero()

    def test_spec_example_n4(self):
        # A of dimension 4, B = <U^2, V>: two submodules of dimension 2
        M = module_of_dim(4)
        B = sub_desc(M, 2, 1)
        parts = decompose(M, B)
        assert len(parts) == 2
        for beta, basis in parts:
            assert len(basis) == 2

    def test_half_half_algebra_example(self):
        # A(1/2,1/2) has N = 4; B = <U^{1/2}, V> splits it into 2 x dim 2
        A = WeylDesc(F(1, 2), F(1, 2))
        M = build_module(A, SpecPoint.principal_point())
        assert M.dim == 4
        B = WeylDesc(F(1, 2), F(1))
        parts = decompose(M, B)
        assert len(parts) == 2
        assert all(len(basis) == 2 for _, basis in parts)
        # orthonormal direct sum
        vecs = [v for _, basis in parts for v in basis]
        for i, x in enumerate(vecs):
            for j, y in enumerate(vecs):
                assert inner(x, y) == (Scalar.one() if i == j else Scalar.zero())

    def test_direct_sum_spans_and_orthonormal(self):
        M = module_of_dim(12)
        B = sub_desc(M, 3, 2)
        parts = decompose(M, B)
        assert len(parts) == 6
        vecs = [v for _, basis in parts for v in basis]
        assert len(vecs) == 12
        for i, x in enumerate(vecs):
            for j, y in enumerate(vecs):
                val = inner(x, y)
                assert val == (Scalar.one() if i == j else Scalar.zero())

    def test_submodules_invariant_under_b(self):
        M = module_of_dim(8)
        B = sub_desc(M, 2, 2)
        Un = GenWord(2 * M.alg.a, 0)
        Vk = GenWord(0, 2 * M.alg.b)
        for beta, basis in decompose(M, B):
            for vec in basis:
                for w in (Un, Vk):
                    img = apply_word(w, vec)
                    # image must stay in the span of the summand
                    residual = img
                    for bvec in basis:
                        c = inner(bvec, img)
                        residual = residual - bvec.scale(c)
                    assert residual.is_zero()

    def test_counts_random_nested_pairs(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.choice([1, 2, 3, 4])
            k = rng.choice([1, 2, 3])
            NB = rng.choice([1, 2, 3, 4])
            N = n * k * NB
            M = module_of_dim(N)
            B = sub_desc(M, n, k)
            parts = decompose(M, B)
            assert len(parts) == n * k == q_order(M.alg) // q_order(B)
            betas = [beta for beta, _ in parts]
            assert len(set(betas)) == len(betas)  # distinct spectral points

    def test_requires_divisibility(self):
        M = module_of_dim(4)
        with pytest.raises(NotDividing):
            decompose(M, sub_desc(M, 3, 1))

    def test_requires_inclusion(self):
        M = module_of_dim(4)
        with pytest.raises(NotIncluded):
            decompose(M, WeylDesc(M.alg.a / 2, M.alg.b))


class TestEmbedding:
    def test_identity_embedding(self):
        M = module_of_dim(5)
        emb = embed_pbeta(M, M.alg)
        for k in range(5):
            assert (emb.apply(M.basis_vector(k)) - emb.amb.basis_vector(k)).is_zero()

    def test_intertwines_and_preserves_inner(self):
        rng = random.Random(23)
        for _ in range(10):
            n, k, NB = rng.choice([2, 3]), rng.choice([1, 2]), rng.choice([2, 3])
            N = n * k * NB
            Mamb = module_of_dim(N)
            B = sub_desc(Mamb, n, k)
            beta, _ = decompose(Mamb, B)[rng.randrange(n * k)]
            Msub = build_module(B, beta)
            emb = embed_pbeta(Msub, Mamb)
            Un = GenWord(n * Mamb.alg.a, 0)
            Vk = GenWord(0, k * Mamb.alg.b)
            for w in (Un, Vk, Un * Vk):
                for j in (0, NB - 1):
                    x = Msub.basis_vector(j)
                    lhs = emb.apply(apply_word(w, x))
                    rhs = apply_word(w, emb.apply(x))
                    assert (lhs - rhs).is_zero()
            for i in range(NB):
                for j in range(NB):
                    lhs = inner(emb.apply(Msub.basis_vector(i)), emb.apply(Msub.basis_vector(j)))
                    rhs = inner(Msub.basis_vector(i), Msub.basis_vector(j))
                    assert (lhs - rhs).is_zero()

    def test_root_choices_differ_by_scalar(self):
        Mamb = module_of_dim(6)
        B = sub_desc(Mamb, 2, 1)
        beta, _ = decompose(Mamb, B)[1]
        Msub = build_module(B, beta)
        NB = Msub.dim
        e0 = embed_pbeta(Msub, Mamb, root=0)
        e1 = embed_pbeta(Msub, Mamb, root=1)
        g = Scalar.phase(F(1, NB))
        for j in range(NB):
            diff = e1.columns[j] - e0.columns[j].scale(g)
            assert diff.is_zero()

    def test_bad_branch(self):
        Mamb = module_of_dim(6)
        B = sub_desc(Mamb, 2, 1)
        parts = decompose(Mamb, B)
        beta0 = parts[0][0]
        Msub = build_module(B, beta0)
        with pytest.raises(BadBranch):
            embed_pbeta(Msub, Mamb, branch=1)

    def test_matrix_columns_orthonormal(self):
        Mamb = module_of_dim(12)
        B = sub_desc(Mamb, 2, 3)
        beta, _ = decompose(Mamb, B)[3]
        Msub = build_module(B, beta)
        emb = embed_pbeta(Msub, Mamb)
        for i, ci in enumerate(emb.columns):
            for j, cj in enumerate(emb.columns):
                val = inner(ci, cj)
                assert val == (Scalar.one() if i == j else Scalar.zero())


class TestPairing:
    def test_u_vs_v_same_algebra(self):
        M = module_of_dim(8)
        res = pairing(M.basis_vector(3), v_basis(M)[5])
        assert res.compatible
        assert res.value == Scalar.rational(F(1, 8))

    def test_incompatible_spectra(self):
        # same algebra, different central characters
        A = WeylDesc(F(1, 1), F(1, 4))
        M1 = build_module(A, SpecPoint(F(0), F(0)))
        M2 = build_module(A, SpecPoint(F(1, 3), F(0)))
        res = pairing(M1.basis_vector(0), M2.basis_vector(0))
        assert not res.compatible
        assert res.value.is_zero()

    def test_scalar_multiple_invariance(self):
        M = module_of_dim(6)
        e, f = M.basis_vector(2), v_basis(M)[1]
        s = root_of_unity(6, 1)
        assert pairing(e.scale(s), f).value == pairing(e, f).value

    def test_symmetry(self):
        M = module_of_dim(6)
        B = sub_desc(M, 2, 1)
        beta, basis = decompose(M, B)[1]
        Msub = build_module(B, beta)
        e = Msub.basis_vector(0)
        f = v_basis(M)[2]
        assert pairing(e, f).value == pairing(f, e).value

    def test_independent_of_embedding_choice(self):
        # the pairing uses |.|^2 precisely so the root choice cancels
        Mamb = module_of_dim(6)
        B = sub_desc(Mamb, 3, 1)
        beta, _ = decompose(Mamb, B)[1]
        Msub = build_module(B, beta)
        f = v_basis(Mamb)[4]
        vals = set()
        for root in range(Msub.dim):
            pe = embed_pbeta(Msub, Mamb, root=root).apply(Msub.basis_vector(1))
            s = inner(pe, embed_pbeta(Mamb, Mamb).apply(f))
            vals.add(str((s.conj() * s).rational_value()))
        assert len(vals) == 1

    def test_cross_algebra_pairing(self):
        # B = <U^2, V>, D = <U, V^2> inside an 8-dimensional ambient module
        Mamb = module_of_dim(8)
        B, D = sub_desc(Mamb, 2, 1), sub_desc(Mamb, 1, 2)
        betaB, _ = decompose(Mamb, B)[0]
        betaD, _ = decompose(Mamb, D)[0]
        MB, MD = build_module(B, betaB), build_module(D, betaD)
        res = pairing(MB.basis_vector(0), MD.basis_vector(0))
        assert res.compatible
        # exact value is |<p(e)|p(f)>|^2 with unit vectors; bounded by 1
        val = res.value.rational_value()
        assert 0 <= val <= 1


class TestRowSums:
    def test_same_algebra_uniform(self):
        M = module_of_dim(7)
        f = v_basis(M)[0]
        assert pairing_row_sum(M.alg, f) == Scalar.one()

    def test_nested_exact_one(self):
        M = module_of_dim(8)
        B = sub_desc(M, 2, 1)
        f = M.basis_vector(3)
        assert pairing_row_sum(B, f) == Scalar.one()

    def test_random_exact_unit_vectors(self):
        rng = random.Random(31)
        M = module_of_dim(9)
        B = sub_desc(M, 3, 1)
        # random unit vector with root-of-unity amplitudes / sqrt(N)
        from finiteweyl.exactnum import Cyc

        amps = [
            Scalar.exact(Cyc.rational(1), 1, 9) * root_of_unity(9, rng.randrange(9))
            for _ in range(9)
        ]
        f = StateVec(M, amps)
        assert (f.norm2() - Scalar.one()).is_zero()
        assert pairing_row_sum(B, f) == Scalar.one()


# ---------------------------------------------------------------------------
# one summand at a time against the full decomposition, kept as the oracle
# ---------------------------------------------------------------------------

def decompose_oracle(M, B):
    """Oracle: every summand, each amplitude built as its own phase / sqrt(n)."""
    n, k = relative_indices(B, M.alg)
    N = M.dim
    NB = N // (n * k)
    q = M.q_phase
    inv_sqrt_n = Scalar.exact(Cyc.rational(1), 1, n)
    out = []
    for ell_u in range(n):
        for ell_v in range(k):
            basis = []
            for mp in range(NB):
                m = k * mp + ell_v
                amps = [Scalar.zero()] * N
                for r in range(n):
                    ph = _mod1(F(m * ell_u + r * ell_u * N // n) * q)
                    amps[(m + r * N // n) % N] = inv_sqrt_n * Scalar.phase(ph)
                basis.append(StateVec(M, amps))
            u_sub = _mod1(n * M.u_phase + n * ell_v * q)
            v_sub = _mod1(k * (M.v_phase + ell_u * q))
            out.append((SpecPoint(_mod1(NB * u_sub), _mod1(NB * v_sub)), basis))
    return out


def embed_oracle(Msub, Mamb, parts, root=0):
    """Oracle: (branch, columns) of p^beta, the branch found by searching
    every summand of parts = decompose_oracle(Mamb, B) for the submodule's point."""
    n, k = relative_indices(Msub.alg, Mamb.alg)
    NB = Msub.dim
    idx, basis = next((i, basis) for i, (beta, basis) in enumerate(parts) if beta == Msub.point)
    ell_u, ell_v = divmod(idx, k)
    q = Mamb.q_phase
    qB = _mod1(F(n * k) * q)
    u_sub = _mod1(n * Mamb.u_phase + n * ell_v * q)
    v_sub = _mod1(k * (Mamb.v_phase + ell_u * q))
    sigma = next(s for s in range(NB) if _mod1(u_sub + s * qB) == Msub.u_phase)
    tau = next(t for t in range(NB) if _mod1(v_sub + t * qB) == Msub.v_phase)
    return idx, [basis[(j + sigma) % NB].scale(Scalar.phase(_mod1(F(tau * j) * qB + F(root % NB, NB))))
                 for j in range(NB)]


def terms(vec):
    """A vector's amplitudes as (radicand, order, coefficients): equal only
    when built the same way, not merely equal in value."""
    return [(a.rad, a.cyc.order, a.cyc.coeffs) for a in vec.amps]


# (N, n, k, ambient point, extra u/v root steps): qho's B = <U^5, V^15> at
# N = 225, Gaussian and diagonal shapes, non-principal points and roots
SUMMAND_CASES = [
    (225, 5, 15, (0, 0), (0, 0)),
    (24, 3, 2, (0, 0), (0, 0)),
    (12, 1, 3, (0, 0), (0, 0)),
    (12, 3, 1, (0, 0), (0, 0)),
    (12, 2, 3, (F(1, 3), F(2, 5)), (0, 0)),
    (18, 3, 2, (F(1, 2), F(1, 6)), (1, 2)),
    (16, 4, 4, (F(3, 4), 0), (0, 5)),
]


def ambient(N, point, steps):
    A = WeylDesc(F(1), F(1, N))
    pt = SpecPoint(*point)
    return build_module(A, pt, pt.u_phase / N + F(steps[0], N), pt.v_phase / N + F(steps[1], N))


class TestSummandAgainstOracle:
    @pytest.mark.parametrize("N,n,k,point,steps", SUMMAND_CASES)
    def test_every_branch_equals_oracle(self, N, n, k, point, steps):
        M = ambient(N, point, steps)
        B = sub_desc(M, n, k)
        oracle = decompose_oracle(M, B)
        parts = decompose(M, B)
        assert len(parts) == len(oracle) == n * k
        for ell, (beta, basis) in enumerate(oracle):
            for got in (summand(M, B, *divmod(ell, k)), parts[ell]):
                assert got[0] == beta
                assert [terms(v) for v in got[1]] == [terms(v) for v in basis]

    def test_default_is_principal_branch(self):
        M = module_of_dim(225)
        B = sub_desc(M, 5, 15)
        beta, basis = summand(M, B)
        assert beta == decompose_oracle(M, B)[0][0]
        assert len(basis) == 3

    def test_branch_outside_range(self):
        M = module_of_dim(12)
        B = sub_desc(M, 2, 3)
        for ell_u, ell_v in ((2, 0), (0, 3), (-1, 0)):
            with pytest.raises(BadBranch):
                summand(M, B, ell_u, ell_v)
        with pytest.raises(NotDividing):
            summand(M, sub_desc(M, 5, 1))

    @pytest.mark.parametrize("N,n,k,point,steps", SUMMAND_CASES)
    def test_embedding_branch_and_columns_equal_oracle(self, N, n, k, point, steps):
        Mamb = ambient(N, point, steps)
        B = sub_desc(Mamb, n, k)
        parts = decompose_oracle(Mamb, B)
        for ell, (beta, _) in enumerate(parts):
            Msub = build_module(B, beta)
            for root in (0, 1):
                emb = embed_pbeta(Msub, Mamb, root=root)
                idx, cols = embed_oracle(Msub, Mamb, parts, root)
                assert emb.ell == idx == ell
                assert [terms(c) for c in emb.columns] == [terms(c) for c in cols]
