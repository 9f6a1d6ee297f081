"""Submodule decomposition, local embeddings p^beta, and the pairing [e|f].

A subalgebra B = <U^{na}, V^{kb}> of A = A(a,b) splits V_A(alpha) into
n*k irreducible B-submodules, reached in two steps (first the U-power,
then the V-power).  Local embeddings V_B(beta) -> V_A(alpha) intertwine
the B-action and preserve inner products; they are unique up to an
n_B-th root of unity, which is why only |<.|.>|^2 survives globally.
Every amplitude is read from one `repmod.PhaseTable` of scaled powers of q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadBranch, ModuleMismatch, NotDividing, NotIncluded
from .exactnum import Scalar, sum_abs2
from .lattice import WeylDesc, _mod1, includes, join, relative_indices, spectrum_project
from .repmod import ModuleRep, PhaseTable, SpecPoint, StateVec, build_module, inner


@dataclass
class Embedding:
    """B-module isomorphism V_B(beta) -> V_AB(beta) inside V_A(alpha).

    columns[j] holds the (ambient index, amplitude) pairs of the image of the
    j-th reference basis vector, one phased summand basis vector.  The
    columns have disjoint supports, so each image entry is one product.
    """

    sub: ModuleRep
    amb: ModuleRep
    ell: int
    columns: list

    def apply(self, x: StateVec) -> StateVec:
        if not self.sub.compatible(x.module):
            raise ModuleMismatch("vector does not live in the embedded module")
        return StateVec.from_pairs(self.amb, [(idx, c * b) for c, col in zip(x.amps, self.columns)
                                              if c.coeffs for idx, b in col])


@dataclass
class PairingResult:
    value: Scalar
    compatible: bool


def _indices(M: ModuleRep, B: WeylDesc) -> tuple[int, int]:
    """(n, k) of B inside M's algebra; nk must divide the dimension."""
    n, k = relative_indices(B, M.alg)  # raises NotIncluded
    if n * k == 0 or M.dim % (n * k) != 0:
        raise NotDividing(f"indices ({n},{k}) do not divide the dimension {M.dim}")
    return n, k


def decompose(M: ModuleRep, B: WeylDesc):
    """Split V_A(alpha) into B-submodules with canonical bases.

    Returns [(beta, basis)], basis as dense vectors, ordered by increasing branch
    index ell = ell_u * k + ell_v.  Requires nk | N.  The summands share one amplitude table.
    """
    n, k = _indices(M, B)
    amp = _amplitudes(M, n)
    parts = (_summand(M, n, k, ell_u, ell_v, amp) for ell_u in range(n) for ell_v in range(k))
    return [(beta, [StateVec.from_pairs(M, g) for g in pairs]) for beta, pairs in parts]


def summand(M: ModuleRep, B: WeylDesc, ell_u: int = 0, ell_v: int = 0):
    """The branch (ell_u, ell_v) B-submodule of V_A(alpha): (beta, pairs),
    pairs[m'] the (ambient index, amplitude) pairs of basis vector g_m'.

    Step 1 takes the <U^n, V> branch ell_u, of dimension N/n:
    g_m = (q^{m ell_u}/sqrt n) sum_r q^{r ell_u N/n} e_{m + r N/n}.
    Step 2 keeps the indices m = k m' + ell_v.  Every amplitude is
    q^{ell_u idx}/sqrt(n) at its index idx, so equal ones are built once.
    """
    n, k = _indices(M, B)
    if not (0 <= ell_u < n and 0 <= ell_v < k):
        raise BadBranch(f"branch ({ell_u},{ell_v}) is outside {n} x {k}")
    return _summand(M, n, k, ell_u, ell_v, _amplitudes(M, n))


def _amplitudes(M: ModuleRep, n: int, c: Scalar = Scalar.one()) -> PhaseTable:
    """t -> c q^t/sqrt(n)."""
    return PhaseTable(M.q_phase, 1, Scalar.exact(c, 1, n))


def _support_indices(M: ModuleRep, n: int, k: int, ell_v: int) -> list[list[int]]:
    """The n support indices (k m' + ell_v + r N/n) mod N of each g_m' of a branch ell_v summand."""
    N = M.dim
    return [[(k * mp + ell_v + r * N // n) % N for r in range(n)] for mp in range(N // (n * k))]


def _supports(M: ModuleRep, n: int, k: int, ell_u: int, ell_v: int, amp: PhaseTable):
    """For each basis vector g_m' of the branch (ell_u, ell_v) summand, its n
    support pairs (idx, amp[ell_u idx mod N])."""
    N = M.dim
    return [[(idx, amp[ell_u * idx % N]) for idx in idxs] for idxs in _support_indices(M, n, k, ell_v)]


def _summand(M: ModuleRep, n: int, k: int, ell_u: int, ell_v: int, amp):
    return _summand_params(M, n, k, ell_u, ell_v)[2], _supports(M, n, k, ell_u, ell_v, amp)


def _summand_params(M: ModuleRep, n: int, k: int, ell_u: int, ell_v: int):
    """(u_sub, v_sub, beta): phases and spectral point of the branch (ell_u, ell_v) summand."""
    q = M.q_phase
    u_sub = _mod1(n * M.u_phase + n * ell_v * q)
    v_sub = _mod1(k * (M.v_phase + ell_u * q))
    NB = M.dim // (n * k)
    return u_sub, v_sub, SpecPoint(_mod1(NB * u_sub), _mod1(NB * v_sub))


def embed_pbeta(Msub: ModuleRep, Mamb: ModuleRep, root: int = 0) -> Embedding:
    """Local embedding p^beta of V_B(beta) onto its copy inside V_A(alpha).

    There are exactly n_B embeddings; `root` selects the n_B-th root of
    unity multiplying the canonical one.
    """
    B, A = Msub.alg, Mamb.alg
    if not includes(B, A):
        raise NotIncluded(f"{B} is not a subalgebra of {A}")
    if spectrum_project(B, A, Msub.point) != Mamb.point:
        raise BadBranch("submodule point does not project onto the ambient point")

    n, k = _indices(Mamb, B)
    NB = Msub.dim
    # the branch is found from the summands' spectral points alone
    params = (_summand_params(Mamb, n, k, *divmod(ell, k)) for ell in range(n * k))
    found = next(((ell, p) for ell, p in enumerate(params) if p[2] == Msub.point), None)
    if found is None:
        raise BadBranch("no summand carries the requested spectral point")
    ell, (u_sub, v_sub, _) = found

    qB = _mod1(Fraction(n * k) * Mamb.q_phase)
    # align eigenvalues: u_dom = u_sub * qB^sigma, v_dom = v_sub * qB^tau
    sigma = next((s for s in range(NB) if _mod1(u_sub + s * qB) == Msub.u_phase), None)
    tau = next((t for t in range(NB) if _mod1(v_sub + t * qB) == Msub.v_phase), None)
    if sigma is None or tau is None:
        raise BadBranch("submodule roots are incompatible with the summand")

    # column j is summand vector (j + sigma) mod NB times the alignment phase
    # qB^{tau j} = q^{nk tau j} and the root's phase: at its index idx each
    # entry is zeta_NB^root q^{nk tau j + ell_u idx}/sqrt(n)
    N = Mamb.dim
    ell_u, ell_v = divmod(ell, k)
    idxs = _support_indices(Mamb, n, k, ell_v)
    amp = _amplitudes(Mamb, n, Scalar.phase(Fraction(root, NB)))
    cols = [[(idx, amp[(n * k * tau * j + ell_u * idx) % N]) for idx in idxs[(j + sigma) % NB]]
            for j in range(NB)]
    return Embedding(Msub, Mamb, ell, cols)


def pairing(e: StateVec, f: StateVec) -> PairingResult:
    """[e|f]: squared modulus of the inner product of embedded images.

    The ambient algebra is join(B, D); if the spectra do not meet over a
    common point the pairing is 0 with compatible=False.
    """
    B, D = e.module.alg, f.module.alg
    A = join(B, D)
    aB = spectrum_project(B, A, e.module.point)
    aD = spectrum_project(D, A, f.module.point)
    if aB != aD:
        return PairingResult(Scalar.zero(), False)
    Mamb = build_module(A, aB)
    pe = embed_pbeta(e.module, Mamb).apply(e)
    pf = embed_pbeta(f.module, Mamb).apply(f)
    s = inner(pe, pf)
    return PairingResult(s.conj() * s, True)


def pairing_row_sum(B: WeylDesc, f: StateVec) -> Scalar:
    """Sum of [e|f] over a canonical orthonormal basis of the B-bundle slice.

    The basis runs over all summands of the ambient decomposition lying over
    f's fiber, so the sum is exactly <p(f)|p(f)> = 1 for unit f.  Each
    s_g = <g|p(f)> is one form over g's n support pairs (g's amplitudes
    against p(f)'s entries at g's indices), and `sum_abs2` sums the |s_g|^2
    in integer accumulators; no dense basis vector and no s_g Scalar is built.
    """
    D = f.module.alg
    A = join(B, D)
    alpha = spectrum_project(D, A, f.module.point)
    Mamb = build_module(A, alpha)
    pf = embed_pbeta(f.module, Mamb).apply(f).amps
    n, k = _indices(Mamb, B)
    amp = _amplitudes(Mamb, n)
    return sum_abs2(([a for _, a in g], [pf[idx] for idx, _ in g])
                    for ell in range(n * k) for g in _supports(Mamb, n, k, *divmod(ell, k), amp))
