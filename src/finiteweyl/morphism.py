"""Submodule decomposition, local embeddings p^beta, and the pairing [e|f].

A subalgebra B = <U^{na}, V^{kb}> of A = A(a,b) splits V_A(alpha) into
n*k irreducible B-submodules, reached in two steps (first the U-power,
then the V-power).  Local embeddings V_B(beta) -> V_A(alpha) intertwine
the B-action and preserve inner products; they are unique up to an
n_B-th root of unity, which is why only |<.|.>|^2 survives globally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadBranch, ModuleMismatch, NotDividing, NotIncluded
from .exactnum import Cyc, Scalar
from .lattice import WeylDesc, _mod1, includes, join, relative_indices, spectrum_project
from .repmod import ModuleRep, SpecPoint, StateVec, build_module, inner, linear_combination


@dataclass
class Embedding:
    """B-module isomorphism V_B(beta) -> V_AB(beta) inside V_A(alpha)."""

    sub: ModuleRep
    amb: ModuleRep
    beta: SpecPoint
    ell: int
    columns: list  # columns[j] = image of the j-th reference basis vector

    def apply(self, x: StateVec) -> StateVec:
        if not self.sub.compatible(x.module):
            raise ModuleMismatch("vector does not live in the embedded module")
        return linear_combination(self.amb, x.amps, self.columns)


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

    Returns [(beta, basis)], ordered by increasing branch index
    ell = ell_u * k + ell_v.  Requires nk | N.
    """
    n, k = _indices(M, B)
    return [summand(M, B, ell_u, ell_v) for ell_u in range(n) for ell_v in range(k)]


def summand(M: ModuleRep, B: WeylDesc, ell_u: int = 0, ell_v: int = 0):
    """The branch (ell_u, ell_v) B-submodule of V_A(alpha): (beta, basis).

    Step 1 takes the <U^n, V> branch ell_u, of dimension N/n:
    g_m = (q^{m ell_u}/sqrt n) sum_r q^{r ell_u N/n} e_{m + r N/n}.
    Step 2 keeps the indices m = k m' + ell_v.  Every amplitude is
    q^{ell_u idx}/sqrt(n) at its index idx, so equal ones are built once.
    """
    n, k = _indices(M, B)
    if not (0 <= ell_u < n and 0 <= ell_v < k):
        raise BadBranch(f"branch ({ell_u},{ell_v}) is outside {n} x {k}")
    N = M.dim
    NB = N // (n * k)
    inv_sqrt_n = Scalar.exact(Cyc.rational(1), 1, n)
    table: dict[int, Scalar] = {}
    basis = []
    for mp in range(NB):
        amps = [Scalar.zero()] * N
        for r in range(n):
            idx = (k * mp + ell_v + r * N // n) % N
            t = ell_u * idx % N
            if t not in table:
                table[t] = inv_sqrt_n * M.q_power(t)
            amps[idx] = table[t]
        basis.append(StateVec(M, amps))
    return _summand_params(M, B, ell_u, ell_v)[2], basis


def _summand_params(M: ModuleRep, B: WeylDesc, ell_u: int, ell_v: int):
    """(u_sub, v_sub, beta): phases and spectral point of the branch (ell_u, ell_v) summand."""
    n, k = relative_indices(B, M.alg)
    q = M.q_phase
    u_sub = _mod1(n * M.u_phase + n * ell_v * q)
    v_sub = _mod1(k * (M.v_phase + ell_u * q))
    NB = M.dim // (n * k)
    return u_sub, v_sub, SpecPoint(_mod1(NB * u_sub), _mod1(NB * v_sub))


def embed_pbeta(Msub: ModuleRep, ambient, branch: int | None = None, root: int = 0) -> Embedding:
    """Local embedding p^beta of V_B(beta) onto its copy inside V_A(alpha).

    `ambient` is the ambient algebra (WeylDesc) or a prebuilt ambient module.
    There are exactly n_B embeddings; `root` selects the n_B-th root of
    unity multiplying the canonical one.
    """
    B = Msub.alg
    if isinstance(ambient, ModuleRep):
        Mamb = ambient
        A = Mamb.alg
    else:
        A = ambient
        Mamb = build_module(A, spectrum_project(B, A, Msub.point))
    if not includes(B, A):
        raise NotIncluded(f"{B} is not a subalgebra of {A}")
    if spectrum_project(B, A, Msub.point) != Mamb.point:
        raise BadBranch("submodule point does not project onto the ambient point")

    n, k = _indices(Mamb, B)
    NB = Msub.dim
    # the branch is found from the summands' spectral points alone
    betas = (_summand_params(Mamb, B, *divmod(i, k))[2] for i in range(n * k))
    idx = next((i for i, beta in enumerate(betas) if beta == Msub.point), None)
    if idx is None:
        raise BadBranch("no summand carries the requested spectral point")
    if branch is not None and branch != idx:
        raise BadBranch(f"point lives on branch {idx}, not {branch}")
    ell_u, ell_v = divmod(idx, k)
    _, basis = summand(Mamb, B, ell_u, ell_v)

    qB = _mod1(Fraction(n * k) * Mamb.q_phase)
    u_sub, v_sub, _ = _summand_params(Mamb, B, ell_u, ell_v)
    # align eigenvalues: u_dom = u_sub * qB^sigma, v_dom = v_sub * qB^tau
    sigma = tau = None
    for s in range(NB):
        if _mod1(u_sub + s * qB) == Msub.u_phase:
            sigma = s
            break
    for t in range(NB):
        if _mod1(v_sub + t * qB) == Msub.v_phase:
            tau = t
            break
    if sigma is None or tau is None:
        raise BadBranch("submodule roots are incompatible with the summand")

    # column j carries the alignment phase qB^{tau j} times the root's phase
    root_turns = Fraction(root % NB, NB)
    cols = [
        basis[(j + sigma) % NB].scale(Scalar.phase(_mod1(Fraction(tau * j) * qB + root_turns)))
        for j in range(NB)
    ]
    return Embedding(Msub, Mamb, Msub.point, idx, cols)


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
    f's fiber, so the sum is exactly <p(f)|p(f)> = 1 for unit f.
    """
    D = f.module.alg
    A = join(B, D)
    alpha = spectrum_project(D, A, f.module.point)
    Mamb = build_module(A, alpha)
    pf = embed_pbeta(f.module, Mamb).apply(f)
    total = Scalar.zero()
    for _beta, basis in decompose(Mamb, B):
        for g in basis:
            s = inner(g, pf)
            if not s.is_zero():
                total = total + s.conj() * s
    return total
