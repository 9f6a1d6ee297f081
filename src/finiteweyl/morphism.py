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

from .errors import BadBranch, ModuleMismatch, NotDividing
from .exactnum import Scalar, sum_abs2
from .lattice import SpecPoint, WeylDesc, join, relative_indices, spectrum_project
from .repmod import ModuleRep, PhaseTable, StateVec, build_module, inner


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
    return [(_point(M, n, k, ell_u, ell_v),
             [StateVec.from_pairs(M, g) for g in _columns(M, n, k, ell_u, ell_v, amp)])
            for ell_u in range(n) for ell_v in range(k)]


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
    return _point(M, n, k, ell_u, ell_v), _columns(M, n, k, ell_u, ell_v, _amplitudes(M, n))


def _amplitudes(M: ModuleRep, n: int, c: Scalar = Scalar.one()) -> PhaseTable:
    """t -> c q^t/sqrt(n)."""
    return PhaseTable(M.q_phase, 1, Scalar.exact(c, 1, n))


def _columns(M: ModuleRep, n: int, k: int, ell_u: int, ell_v: int, amp: PhaseTable,
             sigma: int = 0, tau: int = 0) -> list[list]:
    """For each j < N_B, the n support pairs (idx, amp[t]) of q^{nk tau j} g_{(j + sigma) mod N_B},
    g_m' the branch (ell_u, ell_v) summand vector: idx = k m' + ell_v + r N/n for r < n, each
    below N since k m' + ell_v < N/n, and t = nk tau j + ell_u idx mod N."""
    N = M.dim
    NB = N // (n * k)
    return [[(idx, amp[(n * k * tau * j + ell_u * idx) % N])
             for idx in range(k * ((j + sigma) % NB) + ell_v, N, N // n)]
            for j in range(NB)]


def _point(M: ModuleRep, n: int, k: int, ell_u: int, ell_v: int) -> SpecPoint:
    """Spectral point of the branch (ell_u, ell_v) summand, whose roots are
    n (u + ell_v q) and k (v + ell_u q)."""
    q, NB = M.q_phase, M.dim // (n * k)
    return SpecPoint(NB * n * (M.u_phase + ell_v * q), NB * k * (M.v_phase + ell_u * q))


def _solve(a: Fraction, b: Fraction) -> int | None:
    """The x in [0, D) with a x = b mod 1, D the denominator of a (a = c/D with c
    a unit mod D); None when no x solves it, that is when b D is not an integer."""
    D = a.denominator
    t = b * D
    return t.numerator * pow(a.numerator, -1, D) % D if t.denominator == 1 else None


def embed_pbeta(Msub: ModuleRep, Mamb: ModuleRep, root: int = 0) -> Embedding:
    """Local embedding p^beta of V_B(beta) onto its copy inside V_A(alpha).

    There are exactly n_B embeddings; `root` selects the n_B-th root of
    unity multiplying the canonical one.  The branch and the alignment are
    solved for: Msub's roots are n (u + q x) and k (v + q y) with
    x = ell_v + k sigma and y = ell_u + n tau, and column j is the summand
    vector (j + sigma) mod n_B times q^{nk tau j} and the root's phase.
    Raises NotIncluded (`lattice.relative_indices`) when B is not in A.
    """
    n, k = _indices(Mamb, Msub.alg)
    q = Mamb.q_phase
    x = _solve(n * q, Msub.u_phase - n * Mamb.u_phase)
    y = _solve(k * q, Msub.v_phase - k * Mamb.v_phase)
    if x is None or y is None:
        raise BadBranch("submodule roots are not those of any summand of the ambient module")
    sigma, ell_v = divmod(x, k)
    tau, ell_u = divmod(y, n)
    amp = _amplitudes(Mamb, n, Scalar.phase(Fraction(root, Msub.dim)))
    return Embedding(Msub, Mamb, ell_u * k + ell_v, _columns(Mamb, n, k, ell_u, ell_v, amp, sigma, tau))


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
                    for ell in range(n * k) for g in _columns(Mamb, n, k, *divmod(ell, k), amp))
