import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finiteweyl import morphism, repmod
from finiteweyl.errors import BadBranch, ModuleMismatch, NotDividing, NotIncluded
from finiteweyl.exactnum import Scalar, dot, root_of_unity, sum_abs2
from finiteweyl.lattice import (
    GenWord,
    WeylDesc,
    _mod1,
    join,
    q_order,
    relative_indices,
    spectrum_project,
)
from finiteweyl.morphism import decompose, embed_pbeta, pairing, pairing_row_sum, summand
from finiteweyl.repmod import (
    ModuleRep,
    PhaseTable,
    SpecPoint,
    StateVec,
    apply_word,
    build_module,
    inner,
    linear_combination,
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


def columns(emb):
    """The embedding's columns as vectors: column j is the image of e_j."""
    return [emb.apply(emb.sub.basis_vector(j)) for j in range(emb.sub.dim)]


class TestEmbedding:
    def test_identity_embedding(self):
        M = module_of_dim(5)
        emb = embed_pbeta(M, M)
        for k in range(5):
            assert (emb.apply(M.basis_vector(k)) - emb.amb.basis_vector(k)).is_zero()

    def test_applies_own_their_amps(self):
        # the self-embedding's columns are the summand supports, unscaled, yet
        # each apply returns its own vector: editing one changes no other
        M = module_of_dim(12)
        emb = embed_pbeta(M, M)
        x = M.basis_vector(0)
        first, second = emb.apply(x), emb.apply(x)
        assert first.amps is not second.amps
        first.amps[0] = -first.amps[0]
        assert second.amps[0] == Scalar.one()
        assert emb.apply(x).amps[0] == Scalar.one()

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
        for c1, c0 in zip(columns(e1), columns(e0)):
            assert (c1 - c0.scale(g)).is_zero()

    def test_refuses_subalgebra_not_included(self):
        Mamb = module_of_dim(4)
        Msub = build_module(WeylDesc(Mamb.alg.a / 2, Mamb.alg.b), SpecPoint.principal_point())
        with pytest.raises(NotIncluded):
            embed_pbeta(Msub, Mamb)

    def test_not_included_has_one_message(self):
        # the one inclusion check is lattice.relative_indices'
        Mamb = module_of_dim(4)
        Msub = build_module(WeylDesc(F(1, 2), F(1, 4)), SpecPoint.principal_point())
        with pytest.raises(NotIncluded) as exc:
            embed_pbeta(Msub, Mamb)
        assert type(exc.value) is NotIncluded
        assert str(exc.value) == "A(1/2,1/4) is not included in A(1,1/4)"

    def test_bad_branch(self):
        # beta lies over the point (1/3, 0), not over the principal ambient point
        B = sub_desc(module_of_dim(6), 2, 1)
        beta, _ = decompose(module_of_dim(6, SpecPoint(F(1, 3), F(0))), B)[0]
        with pytest.raises(BadBranch):
            embed_pbeta(build_module(B, beta), module_of_dim(6))

    def test_refuses_vector_of_another_module(self):
        Mamb = module_of_dim(6)
        B = sub_desc(Mamb, 2, 1)
        (beta0, _), (beta1, _) = decompose(Mamb, B)
        emb = embed_pbeta(build_module(B, beta0), Mamb)
        for x in (build_module(B, beta1).basis_vector(0), Mamb.basis_vector(0)):
            with pytest.raises(ModuleMismatch):
                emb.apply(x)

    def test_matrix_columns_orthonormal(self):
        Mamb = module_of_dim(12)
        B = sub_desc(Mamb, 2, 3)
        beta, _ = decompose(Mamb, B)[3]
        Msub = build_module(B, beta)
        cols = columns(embed_pbeta(Msub, Mamb))
        for i, ci in enumerate(cols):
            for j, cj in enumerate(cols):
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

        amps = [
            Scalar.exact(Scalar.rational(1), 1, 9) * root_of_unity(9, rng.randrange(9))
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
    inv_sqrt_n = Scalar.exact(Scalar.rational(1), 1, n)
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
    return [(a.rad, a.order, a.coeffs) for a in vec.amps]


def values(vec):
    """A vector's amplitudes as (radicand, repr): equal for equal values at
    equal radicands, whatever order the terms were built at."""
    return [(a.rad, repr(a)) for a in vec.amps]


def pair_terms(pairs):
    """(index, radicand, order, coefficients) of each (index, amplitude) pair."""
    return [(j, a.rad, a.order, a.coeffs) for j, a in pairs]


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
    return ModuleRep(A, pt.u_phase / N + F(steps[0], N), pt.v_phase / N + F(steps[1], N))


class TestSummandAgainstOracle:
    @pytest.mark.parametrize("N,n,k,point,steps", SUMMAND_CASES)
    def test_every_branch_equals_oracle(self, N, n, k, point, steps):
        M = ambient(N, point, steps)
        B = sub_desc(M, n, k)
        oracle = decompose_oracle(M, B)
        parts = decompose(M, B)
        assert len(parts) == len(oracle) == n * k
        for ell, (beta, basis) in enumerate(oracle):
            got_beta, pairs = summand(M, B, *divmod(ell, k))
            assert got_beta == parts[ell][0] == beta
            support = [[(j, a) for j, a in enumerate(v.amps) if a.coeffs] for v in basis]
            assert [pair_terms(g) for g in pairs] == [pair_terms(g) for g in support]
            assert [terms(v) for v in parts[ell][1]] == [terms(v) for v in basis]

    def test_summands_share_one_amplitude_per_phase(self):
        # every amplitude is q^t/sqrt(n) with t = ell_u idx mod N: decompose
        # builds one Scalar per t for all summands, summand one per t
        M = module_of_dim(24)
        B = sub_desc(M, 3, 2)
        ids = {}
        for ell, (_, basis) in enumerate(decompose(M, B)):
            ell_u = ell // 2
            for v in basis:
                for idx, a in enumerate(v.amps):
                    if a.coeffs:
                        ids.setdefault(ell_u * idx % 24, set()).add(id(a))
        assert len(ids) == 24 and all(len(group) == 1 for group in ids.values())
        _, pairs = summand(M, B, 2, 1)
        amps = [(2 * idx % 24, a) for g in pairs for idx, a in g]
        assert len({t for t, _ in amps}) == len({id(a) for _, a in amps}) < len(amps)

    def test_default_is_principal_branch(self):
        M = module_of_dim(225)
        B = sub_desc(M, 5, 15)
        beta, pairs = summand(M, B)
        assert beta == decompose_oracle(M, B)[0][0]
        assert len(pairs) == 3 and all(len(g) == 5 for g in pairs)

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
        # every basis vector, and one dense vector of multi-term entries with
        # radicands, maps as the dense oracle columns map it, value for value
        # at equal radicands (the columns fold each entry's phases into one
        # power of q, so an entry may sit at a smaller order than the oracle's)
        Mamb = ambient(N, point, steps)
        B = sub_desc(Mamb, n, k)
        parts = decompose_oracle(Mamb, B)
        for ell, (beta, _) in enumerate(parts):
            Msub = build_module(B, beta)
            NB = Msub.dim
            dense = StateVec(Msub, [Scalar(12, {j: F(1, j + 1), j + 5: F(-3)}, (1, 2, 3, 6)[j % 4])
                                    for j in range(NB)])
            for root in (0, 1):
                emb = embed_pbeta(Msub, Mamb, root=root)
                idx, cols = embed_oracle(Msub, Mamb, parts, root)
                assert emb.ell == idx == ell
                for x in [Msub.basis_vector(j) for j in range(NB)] + [dense]:
                    assert values(emb.apply(x)) == values(linear_combination(Mamb, x.amps, cols))

    def test_embedding_sums_no_products(self, monkeypatch):
        # each image entry is one product: neither sum-of-products entry
        # point may run for an embedding, a pairing or a row sum
        def refuse(*args, **kwargs):
            raise AssertionError("embedding routed through a sum of products")

        monkeypatch.setattr(repmod, "linear_combinations", refuse)
        monkeypatch.setattr(repmod, "linear_combination", refuse)
        Mamb = module_of_dim(24)
        B = sub_desc(Mamb, 3, 2)
        beta, _ = decompose(Mamb, B)[4]
        Msub = build_module(B, beta)
        e, f = Msub.basis_vector(1), v_basis(Mamb)[3]
        s = inner(embed_pbeta(Msub, Mamb, root=1).apply(e), f)
        assert (pairing(e, f).value - s.conj() * s).is_zero()
        assert pairing(e, v_basis(Msub)[2]).value == Scalar.rational(F(1, 4))
        assert pairing_row_sum(B, unit_vector(Mamb, random.Random(5))) == Scalar.one()


# ---------------------------------------------------------------------------
# the solved branch and alignment against the search they replaced, kept as
# the oracle
# ---------------------------------------------------------------------------

def embed_search_oracle(Msub, Mamb, root=0):
    """Oracle: (ell, columns) of p^beta, found by search: the projection
    pre-check, a scan of the n k summand points for Msub's point, and scans
    of N_B steps for the alignment sigma and tau.  BadBranch when none fits."""
    B, A = Msub.alg, Mamb.alg
    if spectrum_project(B, A, Msub.point) != Mamb.point:
        raise BadBranch("submodule point does not project onto the ambient point")
    n, k = relative_indices(B, A)
    N, NB, q = Mamb.dim, Msub.dim, Mamb.q_phase

    def params(ell):
        ell_u, ell_v = divmod(ell, k)
        u_sub = _mod1(n * Mamb.u_phase + n * ell_v * q)
        v_sub = _mod1(k * (Mamb.v_phase + ell_u * q))
        return u_sub, v_sub, SpecPoint(_mod1(NB * u_sub), _mod1(NB * v_sub))

    found = next(((ell, p) for ell, p in enumerate(map(params, range(n * k))) if p[2] == Msub.point), None)
    if found is None:
        raise BadBranch("no summand carries the requested spectral point")
    ell, (u_sub, v_sub, _) = found
    qB = _mod1(F(n * k) * q)
    sigma = next((s for s in range(NB) if _mod1(u_sub + s * qB) == Msub.u_phase), None)
    tau = next((t for t in range(NB) if _mod1(v_sub + t * qB) == Msub.v_phase), None)
    if sigma is None or tau is None:
        raise BadBranch("submodule roots are incompatible with the summand")
    ell_u, ell_v = divmod(ell, k)
    idxs = [[(k * mp + ell_v + r * N // n) % N for r in range(n)] for mp in range(NB)]
    amp = PhaseTable(q, 1, Scalar.exact(Scalar.phase(F(root, NB)), 1, n))
    return ell, [[(idx, amp[(n * k * tau * j + ell_u * idx) % N]) for idx in idxs[(j + sigma) % NB]]
                 for j in range(NB)]


def random_fraction(rng, den):
    return F(rng.randrange(den), den)


def random_embedding_case(rng):
    """(Msub, Mamb, root): A = A(a, c/(N a)) with N <= 36 and c a unit, B =
    <U^{na}, V^{kb}> with nk | N, ambient roots with denominators up to N^2.
    Msub sits on the roots of a random aligned summand, or about three times
    in ten on random roots, which mostly fit no summand."""
    N = rng.randint(1, 36)
    c = rng.choice([c for c in range(-N, N + 1) if c and gcd(c, N) == 1])
    a = F(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 4))
    A = WeylDesc(a, F(c, N) / a)
    n = rng.choice([d for d in range(1, N + 1) if N % d == 0])
    k = rng.choice([d for d in range(1, N // n + 1) if (N // n) % d == 0])
    B = WeylDesc(n * A.a, k * A.b)
    Mamb = ModuleRep(A, random_fraction(rng, rng.randint(1, N * N)), random_fraction(rng, rng.randint(1, N * N)))
    if rng.random() < 0.3:
        u, v = random_fraction(rng, rng.randint(1, N * N)), random_fraction(rng, rng.randint(1, N * N))
    else:
        q = Mamb.q_phase
        u = n * (Mamb.u_phase + q * rng.randrange(N // n))
        v = k * (Mamb.v_phase + q * rng.randrange(N // k))
    return ModuleRep(B, u, v), Mamb, rng.randrange(2 * N)


def column_reprs(cols):
    return [[(idx, repr(a)) for idx, a in col] for col in cols]


class TestEmbeddingAgainstSearch:
    def test_equals_search_oracle(self):
        # both refuse, or both give the same branch and the same columns
        rng = random.Random(2029)
        refused = 0
        for _ in range(2000):
            Msub, Mamb, root = random_embedding_case(rng)
            try:
                want = embed_search_oracle(Msub, Mamb, root)
            except BadBranch:
                refused += 1
                with pytest.raises(BadBranch):
                    embed_pbeta(Msub, Mamb, root)
                continue
            emb = embed_pbeta(Msub, Mamb, root)
            assert (emb.ell, column_reprs(emb.columns)) == (want[0], column_reprs(want[1]))
        assert 400 < refused < 1000

    def test_bad_branch_names_the_roots(self):
        Mamb = module_of_dim(6)
        B = sub_desc(Mamb, 2, 1)
        with pytest.raises(BadBranch, match="submodule roots are not those of any summand"):
            embed_pbeta(ModuleRep(B, F(1, 7), F(0)), Mamb)

    def test_branch_is_solved_not_searched(self, monkeypatch):
        # the branch is solved, not searched: no summand point is computed
        monkeypatch.setattr(morphism, "_point", None)
        Mamb = module_of_dim(24)
        B = sub_desc(Mamb, 3, 2)
        for ell, (beta, _) in enumerate(decompose_oracle(Mamb, B)):
            assert embed_pbeta(build_module(B, beta), Mamb).ell == ell


# ---------------------------------------------------------------------------
# row sums against the dense loop, kept as the oracle
# ---------------------------------------------------------------------------

def row_sum_oracle(B, f):
    """Oracle: p(f) from the oracle embedding, then one `inner` per dense
    basis vector of every oracle summand, |s|^2 summed one Scalar at a time."""
    D = f.module.alg
    A = join(B, D)
    Mamb = build_module(A, spectrum_project(D, A, f.module.point))
    _, cols = embed_oracle(f.module, Mamb, decompose_oracle(Mamb, D))
    pf = linear_combination(Mamb, f.amps, cols)
    total = Scalar.zero()
    for _beta, basis in decompose_oracle(Mamb, B):
        for g in basis:
            s = inner(g, pf)
            if not s.is_zero():
                total = total + s.conj() * s
    return total


# (N, B's (n, k), D's (n, k), point of join(B, D)) inside A(1, 1/N): B = D = A
# (n = k = 1), B inside D, B not inside D (join(B, D) = A or a proper
# subalgebra), principal and non-principal points
ROW_SUM_CASES = [
    (6, (1, 1), (1, 1), (0, 0)),
    (8, (2, 1), (1, 1), (F(1, 4), 0)),
    (8, (2, 1), (1, 2), (0, 0)),
    (12, (2, 3), (3, 1), (F(1, 3), F(2, 5))),
    (12, (1, 2), (2, 2), (F(1, 2), F(1, 6))),
    (12, (2, 2), (2, 1), (0, F(1, 2))),
    (18, (3, 2), (1, 3), (F(3, 4), 0)),
]


def random_amplitude(rng):
    """Zero, or 1 to 3 roots of unity with rational coefficients times sqrt(1, 2, 3 or 6)."""
    if rng.random() < 0.2:
        return Scalar.zero()
    order = rng.choice([4, 6, 8, 12])
    terms = {rng.randrange(order): F(rng.randint(-3, 3) or 1, rng.randint(1, 4))
             for _ in range(rng.randint(1, 3))}
    return Scalar(order, terms, rng.choice([1, 2, 3, 6]))


def unit_vector(M, rng):
    c = Scalar.exact(Scalar.rational(1), 1, M.dim)
    return StateVec(M, [c * root_of_unity(M.dim, rng.randrange(M.dim)) for _ in range(M.dim)])


class TestRowSumAgainstOracle:
    @pytest.mark.parametrize("case", ROW_SUM_CASES)
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(rng=st.randoms(use_true_random=False))
    def test_equals_dense_loop(self, case, rng):
        # f lives over a random summand of join(B, D), with random roots
        N, (nB, kB), (nD, kD), point = case
        A0 = WeylDesc(F(1), F(1, N))
        B, D = WeylDesc(nB * A0.a, kB * A0.b), WeylDesc(nD * A0.a, kD * A0.b)
        parts = decompose(build_module(join(B, D), SpecPoint(*point)), D)
        beta = rng.choice(parts)[0]
        ND = build_module(D, beta).dim
        MD = ModuleRep(D, beta.u_phase / ND + F(rng.randrange(ND), ND),
                       beta.v_phase / ND + F(rng.randrange(ND), ND))
        f = StateVec(MD, [random_amplitude(rng) for _ in range(ND)])
        assert (pairing_row_sum(B, f) - row_sum_oracle(B, f)).is_zero()

    @pytest.mark.parametrize("case", ROW_SUM_CASES)
    def test_each_summed_product_is_the_inner_product(self, case, monkeypatch):
        # the row sum cannot see a dropped conjugation, since the |s|^2 of
        # s = <conj g|p(f)> also sum to <p(f)|p(f)>: each form it sums is
        # compared, as <g|p(f)>, with the dense g of `decompose`
        N, (nB, kB), (nD, kD), point = case
        rng = random.Random(N)
        A0 = WeylDesc(F(1), F(1, N))
        B, D = WeylDesc(nB * A0.a, kB * A0.b), WeylDesc(nD * A0.a, kD * A0.b)
        Mamb = build_module(join(B, D), SpecPoint(*point))
        MD = build_module(D, rng.choice(decompose(Mamb, D))[0])
        f = StateVec(MD, [random_amplitude(rng) for _ in range(MD.dim)])
        forms = []

        def recording(pairs):
            forms.extend((list(xs), list(ys)) for xs, ys in pairs)
            return sum_abs2(forms)

        monkeypatch.setattr(morphism, "sum_abs2", recording)
        pairing_row_sum(B, f)
        pf = embed_pbeta(MD, Mamb).apply(f)
        want = [inner(g, pf) for _, basis in decompose(Mamb, B) for g in basis]
        # one form per summand basis vector, each summing to <g|p(f)>
        assert len(forms) == len(want)
        assert all((dot(xs, ys, conj=True) - w).is_zero() for (xs, ys), w in zip(forms, want))

    def test_largest_benchmark_shape_is_exactly_one(self):
        # (n, k, NB) = (5, 2, 12): N_A = 120, ten summands of dimension 12
        M = module_of_dim(120)
        B = sub_desc(M, 5, 2)
        f = unit_vector(M, random.Random(12))
        got = pairing_row_sum(B, f)
        assert got == Scalar.one()
        assert (got - row_sum_oracle(B, f)).is_zero()

    def test_builds_no_dense_basis(self, monkeypatch):
        # the row sum reads the summands' supports: neither the dense
        # decomposition nor a full-length inner product may run
        def refuse(*args, **kwargs):
            raise AssertionError("dense row-sum path")

        monkeypatch.setattr(morphism, "decompose", refuse)
        monkeypatch.setattr(morphism, "inner", refuse)
        monkeypatch.setattr(repmod, "inner", refuse)
        M = module_of_dim(24)
        f = unit_vector(M, random.Random(3))
        assert pairing_row_sum(sub_desc(M, 3, 2), f) == Scalar.one()
        assert pairing_row_sum(sub_desc(M, 2, 1), M.basis_vector(5)) == Scalar.one()
