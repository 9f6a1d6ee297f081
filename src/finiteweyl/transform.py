"""Regular unitary transformations: Fourier, Gaussian, diagonal, evolutions.

Each transformation is a basis-to-basis partial isometry between
submodules of a fixed module, intertwining an algebra isomorphism sigma
and carrying an associated SL(2,Q) matrix.  Matrices act on generator
exponent rows, so composing maps multiplies the matrices in map order:
g(L2 o L1) = g(L1) g(L2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    DivisibilityViolation,
    NoCommonSubalgebra,
    NotDividing,
    NotIncluded,
    NotPythagorean,
    OddOrder,
)
from .exactnum import Cyc, Scalar
from .lattice import GenWord, WeylDesc, _mod1, lattice_intersect
from .morphism import summand
from .repmod import (ModuleRep, SpecPoint, StateVec, apply_word, inner, linear_combination,
                     linear_combinations, u_basis, v_basis)


Mat2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


def mat_mul(g1: Mat2, g2: Mat2) -> Mat2:
    return (
        (g1[0][0] * g2[0][0] + g1[0][1] * g2[1][0], g1[0][0] * g2[0][1] + g1[0][1] * g2[1][1]),
        (g1[1][0] * g2[0][0] + g1[1][1] * g2[1][0], g1[1][0] * g2[0][1] + g1[1][1] * g2[1][1]),
    )


def mat_det(g: Mat2) -> Fraction:
    return g[0][0] * g[1][1] - g[0][1] * g[1][0]


def mat_inv(g: Mat2) -> Mat2:
    d = mat_det(g)
    return ((g[1][1] / d, -g[0][1] / d), (-g[1][0] / d, g[0][0] / d))


def _frac_mat(rows) -> Mat2:
    return tuple(tuple(Fraction(x) for x in r) for r in rows)


@dataclass
class ConjugationReport:
    name: str
    holds: bool
    residual: float


@dataclass
class RegUnitary:
    """A regular unitary transformation with its bookkeeping data.

    dom_basis/images are canonical bases of the domain/range submodules in
    ambient coordinates; they may be None for bookkeeping-only composites.
    """

    name: str
    ambient_dom: ModuleRep
    ambient_ran: ModuleRep
    dom_words: tuple[GenWord, GenWord]
    sigma: tuple[tuple[str, GenWord, GenWord], ...]  # (identity name, W, W^sigma)
    gL: Mat2
    phase_const: Scalar
    dim: int
    dom_basis: list[StateVec] | None = None
    images: list[StateVec] | None = None
    ambiguity_order: int = 0

    def __post_init__(self):
        if self.ambiguity_order == 0:
            self.ambiguity_order = 2 * self.ambient_dom.dim
        if mat_det(self.gL) != 1:
            raise ValueError("associated matrix must have determinant 1")

    # -- basis access ---------------------------------------------------------
    def dom(self, m: int) -> StateVec:
        return self.dom_basis[m % self.dim]

    def image(self, m: int) -> StateVec:
        return self.images[m % self.dim]

    @property
    def materialized(self) -> bool:
        return self.dom_basis is not None and self.images is not None

    def apply(self, x: StateVec) -> StateVec:
        """Map a vector of the domain submodule; exact expansion in dom_basis."""
        coeffs = [inner(b, x) for b in self.dom_basis]
        residual = x - linear_combination(self.ambient_dom, coeffs, self.dom_basis)
        if not residual.is_zero():
            raise NotIncluded("vector does not lie in the transformation domain")
        return linear_combination(self.ambient_ran, coeffs, self.images)


# ---------------------------------------------------------------------------
# generator transformations
# ---------------------------------------------------------------------------

def fourier(M: ModuleRep) -> RegUnitary:
    """Phi: u_m -> (1/sqrt N) sum_k q^{mk} u'_k, associated with [[0,1],[-1,0]].

    The target module carries roots u' = v^{-1}, v' = u, so that
    sigma: U -> V, V -> U^{-1} intertwines exactly.
    """
    A = M.alg
    N = M.dim
    target = ModuleRep(
        A,
        SpecPoint(_mod1(-N * M.v_phase), _mod1(N * M.u_phase)),
        _mod1(-M.v_phase),
        M.u_phase,
    )
    images = [StateVec(target, v.amps) for v in v_basis(M)]
    U, V = GenWord(A.a, 0), GenWord(0, A.b)
    return RegUnitary(
        name="fourier",
        ambient_dom=M,
        ambient_ran=target,
        dom_words=(U, V),
        sigma=(("sigma-U", U, V), ("sigma-V", V, U.inv())),
        gL=_frac_mat([[0, 1], [-1, 0]]),
        phase_const=Scalar.one(),
        dim=N,
        dom_basis=u_basis(M),
        images=images,
    )


def gaussian(M: ModuleRep, b: int = 1, d: int = 1, phase_const: Scalar | None = None) -> RegUnitary:
    """Gaussian transformation on the <U^d, V^b>-submodule.

    G: u_m -> (c/sqrt(Nb)) sum_l qb^{(l-m)^2/2} u_l on the canonical basis of
    the principal branch, with qb = q^{bd}, Nb = N/(bd) and
    c = sqrt(Nb)/G(Nb) = e^{-i pi/4} for even Nb.  Associated matrix
    [[1, -b/d], [0, 1]]; the image is the canonical S-basis for
    S = qb^{-1/2} U^d V^{-b}.
    """
    A = M.alg
    N = M.dim
    if b == 0 or d == 0:
        raise DivisibilityViolation("b and d must be nonzero")
    bd = abs(b * d)
    if N % bd != 0:
        raise NotDividing(f"bd = {bd} must divide N = {N}")
    Nb = N // bd
    if Nb % 2 != 0:
        raise OddOrder(f"submodule dimension {Nb} is odd; the constant needs even order")
    B = WeylDesc(d * A.a, abs(b) * A.b)
    _, h = summand(M, B)
    half_qb = Fraction(b * d) * M.q_phase / 2
    # sqrt(Nb)/G(Nb) for the clock qb = q^{bd}: e^{-i pi/4} when bd > 0,
    # conjugate for reversed time
    sign = 1 if b * d > 0 else -1
    cc = phase_const if phase_const is not None else Scalar.phase(Fraction(-sign, 8))
    inv_sqrt = Scalar.exact(Cyc.rational(1), 1, Nb)
    # the weight of u_l in the image of u_m depends only on |l - m|
    weight = [cc * inv_sqrt * Scalar.phase(_mod1(t * t * half_qb)) for t in range(Nb)]
    images = linear_combinations(M, [[weight[abs(l - m)] for l in range(Nb)] for m in range(Nb)], h)
    Ud = GenWord(d * A.a, 0)
    Vb = GenWord(0, b * A.b)
    S = GenWord(d * A.a, -b * A.b, -half_qb)  # qb^{-1/2} U^d V^{-b}
    return RegUnitary(
        name=f"gaussian[b={b},d={d}]",
        ambient_dom=M,
        ambient_ran=M,
        dom_words=(Ud, Vb),
        sigma=(("Sv2", Ud, S), ("w2", Vb, Vb)),
        gL=_frac_mat([[1, Fraction(-b, d)], [0, 1]]),
        phase_const=cc,
        dim=Nb,
        dom_basis=h,
        images=images,
    )


def diagonal(M: ModuleRep, m: int) -> RegUnitary:
    """Diagonal transformation D_m: <U, V^m>-basis -> <U^m, V>-basis."""
    A = M.alg
    N = M.dim
    if m <= 0 or N % m != 0:
        raise NotDividing(f"m = {m} must divide N = {N}")
    Bdom = WeylDesc(A.a, m * A.b)
    Bran = WeylDesc(m * A.a, A.b)
    _, dom = summand(M, Bdom)
    _, ran = summand(M, Bran)
    U, Vm = GenWord(A.a, 0), GenWord(0, m * A.b)
    return RegUnitary(
        name=f"diagonal[{m}]",
        ambient_dom=M,
        ambient_ran=M,
        dom_words=(U, Vm),
        sigma=(("sigma-U", U, GenWord(m * A.a, 0)), ("sigma-V", Vm, GenWord(0, A.b))),
        gL=_frac_mat([[m, 0], [0, Fraction(1, m)]]),
        phase_const=Scalar.one(),
        dim=N // m,
        dom_basis=dom,
        images=ran,
    )


def free_evolution(M: ModuleRep, b: int, d: int) -> RegUnitary:
    """Free-particle evolution for t = b/d: the Gaussian on <U^d, V^b>.

    Satisfies K U^d K^{-1} = qb^{-1/2} U^d V^{-b} and K V^b K^{-1} = V^b.
    """
    if b == 0 or d == 0:
        raise DivisibilityViolation("t = b/d needs nonzero b, d")
    return replace(gaussian(M, b=b, d=d), name=f"free[t={b}/{d}]")


def qho_evolution(M: ModuleRep, e: int, f: int, c: int,
                  phase_const: Scalar | None = None) -> RegUnitary:
    """Harmonic-oscillator evolution at Pythagorean time sin t = e/c.

    Maps the <U^c, V^{ce}>-submodule basis into the ambient module by

        u^{c,ce}(q^{c^2 e m}) -> C0 sqrt(e/N) sum_l q^{ef(l^2-e^2m^2)/2 - e^3 m l}
                                 u(q^{e(l+mf)}),

    with C0 = e^{-i pi/4}.  Satisfies K U^c K^{-1} = q^{-ef/2} U^f V^{-e}
    and K V^{ce} K^{-1} = q^{e^3 f/2} U^{e^2} V^{ef}.
    """
    if e * e + f * f != c * c:
        raise NotPythagorean(f"({e},{f},{c}) is not a Pythagorean triple")
    if e <= 0 or f <= 0 or c <= 0:
        raise NotPythagorean("triple entries must be positive")
    A = M.alg
    N = M.dim
    if N % (c * c * e) != 0 or N % e != 0:
        raise DivisibilityViolation(f"need c^2 e = {c * c * e} | N = {N}")
    B = WeylDesc(c * A.a, c * e * A.b)
    _, dom = summand(M, B)
    dim = N // (c * c * e)
    C0 = phase_const if phase_const is not None else Scalar.phase(Fraction(-1, 8))
    pref = C0 * Scalar.exact(Cyc.rational(1), e, N)
    q = M.q_phase
    images = []
    for m in range(dim):
        amps = [Scalar.zero()] * N
        # l -> e(l + mf) mod N is injective on 0 <= l < N/e: one term per index
        for l in range(N // e):
            expo = Fraction(e * f * (l * l - e * e * m * m), 2) - e ** 3 * m * l
            amps[(e * (l + m * f)) % N] = pref * Scalar.phase(_mod1(expo * q))
        images.append(StateVec(M, amps))
    Uc = GenWord(c * A.a, 0)
    Vce = GenWord(0, c * e * A.b)
    S_t = GenWord(f * A.a, -e * A.b, -Fraction(e * f) * q / 2)
    R_t_e = GenWord(e * e * A.a, e * f * A.b, Fraction(e ** 3 * f) * q / 2)
    return RegUnitary(
        name=f"qho[{e},{f},{c}]",
        ambient_dom=M,
        ambient_ran=M,
        dom_words=(Uc, Vce),
        sigma=(("KU", Uc, S_t), ("mKU", Vce, R_t_e)),
        gL=_frac_mat([[Fraction(f, c), Fraction(-e, c)], [Fraction(e, c), Fraction(f, c)]]),
        phase_const=C0,
        dim=dim,
        dom_basis=dom,
        images=images,
    )


# ---------------------------------------------------------------------------
# composition and verification
# ---------------------------------------------------------------------------

def _dom_lattice_rows(L: RegUnitary):
    A = L.ambient_dom.alg
    rows = []
    for w in L.dom_words:
        rows.append((w.u_exp / A.a, w.v_exp / A.b))
    return rows


def _sigma_exponent_image(L: RegUnitary, row):
    """Image of an exponent row under the associated matrix."""
    g = L.gL
    return (
        row[0] * g[0][0] + row[1] * g[1][0],
        row[0] * g[0][1] + row[1] * g[1][1],
    )


def sigma_word_image(L: RegUnitary, w: GenWord) -> GenWord:
    """sigma(w) for w in the domain algebra, via the generator images.

    w is expanded as phase * W1^j W2^k; the image is phase * W1'^j W2'^k.
    Defined up to the ambiguity class of roots of unity.
    """
    A = L.ambient_dom.alg
    W1, W2 = L.dom_words
    r1 = (W1.u_exp / A.a, W1.v_exp / A.b)
    r2 = (W2.u_exp / A.a, W2.v_exp / A.b)
    rw = (w.u_exp / A.a, w.v_exp / A.b)
    det = r1[0] * r2[1] - r1[1] * r2[0]
    j = (rw[0] * r2[1] - rw[1] * r2[0]) / det
    k = (-rw[0] * r1[1] + rw[1] * r1[0]) / det
    if j.denominator != 1 or k.denominator != 1:
        raise NotIncluded("word is not in the domain subalgebra")
    img1, img2 = L.sigma[0][2], L.sigma[1][2]
    base = (img1 ** int(j)) * (img2 ** int(k))
    lead = (W1 ** int(j)) * (W2 ** int(k))
    return GenWord(base.u_exp, base.v_exp, base.phase + w.phase - lead.phase)


def compose(L2: RegUnitary, L1: RegUnitary) -> RegUnitary:
    """Composite L2 o L1 on a maximal common subalgebra C.

    C = dom(L1) n sigma1^{-1}(dom(L2)) via the exponent lattices;
    g(L2 o L1) = g(L1) g(L2) (matrices act on exponent rows, so the product
    order is reversed relative to map order).  The basis map is materialized
    when the factors' bases align; otherwise the composite carries
    bookkeeping only.
    """
    A = L1.ambient_dom.alg
    rows1 = _dom_lattice_rows(L1)
    rows2 = _dom_lattice_rows(L2)
    g1inv = mat_inv(L1.gL)
    pre2 = [
        (
            r[0] * g1inv[0][0] + r[1] * g1inv[1][0],
            r[0] * g1inv[0][1] + r[1] * g1inv[1][1],
        )
        for r in rows2
    ]
    C_rows = lattice_intersect(rows1, pre2)
    N = L1.ambient_dom.dim
    covol = abs(C_rows[0][0] * C_rows[1][1] - C_rows[0][1] * C_rows[1][0])
    dim_c = Fraction(N, 1) / covol
    if dim_c < 1:
        raise NoCommonSubalgebra("common subalgebra has no room in the module")

    W1 = GenWord(C_rows[0][0] * A.a, C_rows[0][1] * A.b)
    W2 = GenWord(C_rows[1][0] * A.a, C_rows[1][1] * A.b)
    sig1 = (sigma_word_image(L1, W1), sigma_word_image(L1, W2))
    sig = tuple(
        ("sigma-" + nm, w, sigma_word_image(L2, s1))
        for nm, w, s1 in (("C1", W1, sig1[0]), ("C2", W2, sig1[1]))
    )
    gL = mat_mul(L1.gL, L2.gL)

    dom_basis = images = None
    if L1.materialized and L2.materialized:
        try:
            images = [L2.apply(L1.image(m)) for m in range(L1.dim)]
            dom_basis = L1.dom_basis
        except NotIncluded:
            dom_basis = images = None
    dim = L1.dim if dom_basis is not None else int(dim_c) if dim_c.denominator == 1 else 1
    return RegUnitary(
        name=f"({L2.name} o {L1.name})",
        ambient_dom=L1.ambient_dom,
        ambient_ran=L2.ambient_ran,
        dom_words=(W1, W2),
        sigma=sig,
        gL=gL,
        phase_const=L2.phase_const * L1.phase_const,
        dim=dim,
        dom_basis=dom_basis,
        images=images,
        ambiguity_order=2 * N,
    )


def verify_conjugation(L: RegUnitary, names: list[str] | None = None,
                       sample: int | None = None) -> list[ConjugationReport]:
    """Check each operator identity of L by exact computation on its bases.

    Always checks inner-product preservation ("unitary"); each sigma pair
    (W, W') is checked as L(W x) = W' L(x) on the domain basis.
    """
    if not L.materialized:
        raise NoCommonSubalgebra("transformation carries no materialized bases")
    reports = []
    idx = range(L.dim) if sample is None or L.dim <= sample else range(0, L.dim, max(1, L.dim // sample))

    if names is None or "unitary" in names:
        worst = 0.0
        ok = True
        for i in idx:
            for j in idx:
                lhs = inner(L.image(i), L.image(j))
                rhs = inner(L.dom(i), L.dom(j))
                diff = lhs - rhs
                if not diff.is_zero():
                    ok = False
                    worst = max(worst, abs(diff.to_complex()))
        reports.append(ConjugationReport("unitary", ok, worst))

    for nm, W, Wimg in L.sigma:
        if names is not None and nm not in names:
            continue
        worst = 0.0
        ok = True
        for m in idx:
            lhs = L.apply(apply_word(W, L.dom(m)))
            rhs = apply_word(Wimg, L.image(m))
            diff = lhs - rhs
            if not diff.is_zero():
                ok = False
                worst = max(worst, max(abs(a.to_complex()) for a in diff.amps))
        reports.append(ConjugationReport(nm, ok, worst))
    return reports
