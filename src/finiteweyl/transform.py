"""Regular unitary transformations: Fourier, Gaussian, diagonal, evolutions.

Each transformation is a basis-to-basis partial isometry between
submodules of a fixed module, intertwining an algebra isomorphism sigma
and carrying an associated SL(2,Q) matrix.  Matrices act on generator
exponent rows, so composing maps multiplies the matrices in map order:
g(L2 o L1) = g(L1) g(L2).  sigma is derived from the matrix alone, by
`lattice.word_image`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    DivisibilityViolation,
    ModuleMismatch,
    NoCommonSubalgebra,
    NotDividing,
    NotIncluded,
    NotPythagorean,
    OddOrder,
    OutOfRange,
)
from .exactnum import Cyc, Scalar, dot
from .lattice import (GenWord, Mat2, WeylDesc, _mod1, lattice_intersect, mat_det, mat_inv, mat_mul,
                      word_image)
from .morphism import summand
from .repmod import ModuleRep, SpecPoint, StateVec, apply_word, linear_combination, v_basis


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

    domain[m] lists the (ambient index, amplitude) pairs of the m-th domain basis
    vector as `morphism.summand` gives them, so the supports are disjoint;
    images[m] is its dense image.  Both may be None for bookkeeping-only composites.
    sigma_names names the conjugation identities of the two domain words.
    """

    name: str
    ambient_dom: ModuleRep
    ambient_ran: ModuleRep
    dom_words: tuple[GenWord, GenWord]
    sigma_names: tuple[str, str]
    gL: Mat2
    domain: list[list[tuple[int, Scalar]]] | None = None
    images: list[StateVec] | None = None

    def __post_init__(self):
        if mat_det(self.gL) != 1:
            raise ValueError("associated matrix must have determinant 1")
        if not all(self.ambient_ran.alg.contains_word(w) for _, _, w in self.sigma):
            raise ValueError("associated matrix maps a domain word outside the target algebra")
        if self.domain is not None:
            covered = {j for g in self.domain for j, _ in g}
            if len(covered) < sum(map(len, self.domain)):
                raise ValueError("domain basis vectors must have disjoint supports")
            self._off = [j for j in range(self.ambient_dom.dim) if j not in covered]

    @property
    def sigma(self) -> tuple[tuple[str, GenWord, GenWord], ...]:
        """(identity name, W, W^sigma) for each domain word W, W^sigma = W(x gL)."""
        A = self.ambient_dom.alg
        return tuple((nm, w, word_image(w, self.gL, A)) for nm, w in zip(self.sigma_names, self.dom_words))

    @property
    def dim(self) -> int | None:
        """Number of domain basis vectors; None for a bookkeeping-only composite."""
        return None if self.domain is None else len(self.domain)

    # -- basis access ---------------------------------------------------------
    def dom(self, m: int) -> StateVec:
        return StateVec.from_pairs(self.ambient_dom, self.domain[m % self.dim])

    def image(self, m: int) -> StateVec:
        return self.images[m % self.dim]

    @property
    def materialized(self) -> bool:
        return self.domain is not None and self.images is not None

    def apply(self, x: StateVec) -> StateVec:
        """Map a vector of the domain submodule; exact expansion in the domain basis.

        Each coefficient is read off x on its basis vector's support; x must
        vanish off the supports and be proportional to the basis on each.
        """
        if not self.ambient_dom.compatible(x.module):
            raise ModuleMismatch("vectors live in different modules")
        amps = x.amps
        if not all(amps[j].is_zero() for j in self._off):
            raise NotIncluded("vector does not lie in the transformation domain")
        coeffs = []
        for g in self.domain:
            xs = [amps[j] for j, _ in g]
            c = Scalar.zero()
            if any(a.cyc.coeffs for a in xs):
                bs = [b for _, b in g]
                c = dot(bs, xs, conj=True)
                if not all((a - c * bj).is_zero() for a, bj in zip(xs, bs)):
                    raise NotIncluded("vector does not lie in the transformation domain")
            coeffs.append(c)
        return linear_combination(self.ambient_ran, coeffs, self.images)


# ---------------------------------------------------------------------------
# generator transformations
# ---------------------------------------------------------------------------

def fourier(M: ModuleRep) -> RegUnitary:
    """Phi: u_m -> (1/sqrt N) sum_k q^{mk} u'_k, associated with [[0,1],[-1,0]].

    The target module carries roots u' = v^{-1}, v' = u, so that the
    matrix's sigma: U -> V, V -> U^{-1} intertwines exactly.
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
        sigma_names=("sigma-U", "sigma-V"),
        gL=_frac_mat([[0, 1], [-1, 0]]),
        domain=[[(m, Scalar.one())] for m in range(N)],
        images=images,
    )


def gaussian_dim(N: int, b: int, d: int) -> int:
    """Nb = N/|bd| for the Gaussian's <U^d, V^b>-submodule; refuses b or d = 0,
    bd not dividing N (NotDividing) and odd Nb (OddOrder: sqrt(Nb)/G(Nb) needs
    even order).  `gaussian` and `dirac.free_propagator` both check here."""
    if b == 0 or d == 0:
        raise DivisibilityViolation("b and d must be nonzero")
    bd = abs(b * d)
    if N % bd != 0:
        raise NotDividing(f"bd = {bd} must divide N = {N}")
    Nb = N // bd
    if Nb % 2 != 0:
        raise OddOrder(f"submodule dimension {Nb} is odd; the constant needs even order")
    return Nb


def gaussian(M: ModuleRep, b: int = 1, d: int = 1) -> RegUnitary:
    """Gaussian transformation on the <U^d, V^b>-submodule.

    G: u_m -> (c/sqrt(Nb)) sum_l qb^{(l-m)^2/2} u_l on the canonical basis of
    the principal branch, with qb = q^{bd}, Nb = N/(bd) and
    c = sqrt(Nb)/G(Nb) = e^{-i pi/4} for even Nb.  Associated matrix
    [[1, -b/d], [0, 1]]; the image is the canonical S-basis for
    S = qb^{-1/2} U^d V^{-b}.
    """
    A = M.alg
    N = M.dim
    Nb = gaussian_dim(N, b, d)
    B = WeylDesc(d * A.a, abs(b) * A.b)
    _, h = summand(M, B)
    half_qb = Fraction(b * d) * M.q_phase / 2
    # sqrt(Nb)/G(Nb) for the clock qb = q^{bd}: e^{-i pi/4} when bd > 0,
    # conjugate for reversed time
    sign = 1 if b * d > 0 else -1
    cc = Scalar.phase(Fraction(-sign, 8))
    inv_sqrt = Scalar.exact(Cyc.rational(1), 1, Nb)
    # the weight of u_l in the image of u_m depends only on |l - m|
    weight = [cc * inv_sqrt * Scalar.phase(_mod1(t * t * half_qb)) for t in range(Nb)]
    # the h_l have disjoint supports, and on the branch ell_u = 0 every amplitude
    # is the one object a = 1/sqrt(d): entry idx of image m is weight[|l - m|] * a
    # for each index idx of h_l
    a = h[0][0][1]
    row = [w * a for w in weight]
    images = []
    for m in range(Nb):
        amps = [Scalar.zero()] * N
        for l, g in enumerate(h):
            p = row[abs(l - m)]
            for idx, _ in g:
                amps[idx] = p
        images.append(StateVec(M, amps))
    return RegUnitary(
        name=f"gaussian[b={b},d={d}]",
        ambient_dom=M,
        ambient_ran=M,
        dom_words=(GenWord(d * A.a, 0), GenWord(0, b * A.b)),
        sigma_names=("Sv2", "w2"),
        gL=_frac_mat([[1, Fraction(-b, d)], [0, 1]]),
        domain=h,
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
    return RegUnitary(
        name=f"diagonal[{m}]",
        ambient_dom=M,
        ambient_ran=M,
        dom_words=(GenWord(A.a, 0), GenWord(0, m * A.b)),
        sigma_names=("sigma-U", "sigma-V"),
        gL=_frac_mat([[m, 0], [0, Fraction(1, m)]]),
        domain=dom,
        images=[StateVec.from_pairs(M, g) for g in ran],
    )


def free_evolution(M: ModuleRep, b: int, d: int) -> RegUnitary:
    """Free-particle evolution for t = b/d: the Gaussian on <U^d, V^b>.

    Satisfies K U^d K^{-1} = qb^{-1/2} U^d V^{-b} and K V^b K^{-1} = V^b.
    """
    return replace(gaussian(M, b=b, d=d), name=f"free[t={b}/{d}]")


def check_triple(e: int, f: int, c: int) -> None:
    """Refuse (e, f, c) unless it is a Pythagorean triple of positive
    integers, sin t = e/c and cos t = f/c (NotPythagorean)."""
    if e <= 0 or f <= 0 or c <= 0 or e * e + f * f != c * c:
        raise NotPythagorean(f"({e},{f},{c}) is not a Pythagorean triple of positive integers")


def qho_dim(N: int, e: int, f: int, c: int) -> int:
    """N/(c^2 e) for the QHO's <U^c, V^{ce}>-submodule; refuses a triple that
    `check_triple` refuses and c^2 e not dividing N.  `qho_evolution` and
    `dirac.qho_propagator` both check here."""
    check_triple(e, f, c)
    if N % (c * c * e):
        raise DivisibilityViolation(f"need c^2 e = {c * c * e} | N = {N}")
    return N // (c * c * e)


def qho_exponent(e: int, f: int, m: int, l: int, N: int) -> int:
    """t = e f (l^2 - e^2 m^2) - 2 e^3 m l mod 2N: the QHO kernel carries
    q^{t/2} from the m-th domain vector to u(q^{e(l+mf)})."""
    return e * (f * (l * l - e * e * m * m) - 2 * e * e * m * l) % (2 * N)


def qho_evolution(M: ModuleRep, e: int, f: int, c: int) -> RegUnitary:
    """Harmonic-oscillator evolution at Pythagorean time sin t = e/c.

    Maps the <U^c, V^{ce}>-submodule basis into the ambient module by

        u^{c,ce}(q^{c^2 e m}) -> C0 sqrt(e/N) sum_l q^{ef(l^2-e^2m^2)/2 - e^3 m l}
                                 u(q^{e(l+mf)}),

    with C0 = e^{-i pi/4}.  Satisfies K U^c K^{-1} = q^{-ef/2} U^f V^{-e}
    and K V^{ce} K^{-1} = q^{e^3 f/2} U^{e^2} V^{ef}.
    """
    A = M.alg
    N = M.dim
    dim = qho_dim(N, e, f, c)
    B = WeylDesc(c * A.a, c * e * A.b)
    _, dom = summand(M, B)
    C0 = Scalar.phase(Fraction(-1, 8))
    pref = C0 * Scalar.exact(Cyc.rational(1), e, N)
    # pref q^{t/2} for t = qho_exponent (q^N = 1), each built on first use
    table: dict[int, Scalar] = {}
    images = []
    for m in range(dim):
        amps = [Scalar.zero()] * N
        # l -> e(l + mf) mod N is injective on 0 <= l < N/e: one term per index
        for l in range(N // e):
            t = qho_exponent(e, f, m, l, N)
            if t not in table:
                table[t] = pref * M.q_power(Fraction(t, 2))
            amps[(e * (l + m * f)) % N] = table[t]
        images.append(StateVec(M, amps))
    return RegUnitary(
        name=f"qho[{e},{f},{c}]",
        ambient_dom=M,
        ambient_ran=M,
        dom_words=(GenWord(c * A.a, 0), GenWord(0, c * e * A.b)),
        sigma_names=("KU", "mKU"),
        gL=_frac_mat([[Fraction(f, c), Fraction(-e, c)], [Fraction(e, c), Fraction(f, c)]]),
        domain=dom,
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


def compose(L2: RegUnitary, L1: RegUnitary) -> RegUnitary:
    """Composite L2 o L1 on a maximal common subalgebra C.

    C = dom(L1) n sigma1^{-1}(dom(L2)) via the exponent lattices;
    g(L2 o L1) = g(L1) g(L2) (matrices act on exponent rows, so the product
    order is reversed relative to map order).  The basis map is materialized
    when the factors' bases align; otherwise the composite carries
    bookkeeping only.  Raises ModuleMismatch when L2 does not start on the
    module where L1 ends.
    """
    if not L2.ambient_dom.compatible(L1.ambient_ran):
        raise ModuleMismatch("L2's domain module is not L1's range module")
    A = L1.ambient_dom.alg
    rows1 = _dom_lattice_rows(L1)
    rows2 = _dom_lattice_rows(L2)
    C_rows = lattice_intersect(rows1, mat_mul(rows2, mat_inv(L1.gL)))
    N = L1.ambient_dom.dim
    covol = abs(mat_det(C_rows))
    dim_c = Fraction(N, 1) / covol
    if dim_c < 1:
        raise NoCommonSubalgebra("common subalgebra has no room in the module")

    W1 = GenWord(C_rows[0][0] * A.a, C_rows[0][1] * A.b)
    W2 = GenWord(C_rows[1][0] * A.a, C_rows[1][1] * A.b)

    domain = images = None
    if L1.materialized and L2.materialized:
        try:
            images = [L2.apply(L1.image(m)) for m in range(L1.dim)]
            domain = L1.domain
        except NotIncluded:
            domain = images = None
    return RegUnitary(
        name=f"({L2.name} o {L1.name})",
        ambient_dom=L1.ambient_dom,
        ambient_ran=L2.ambient_ran,
        dom_words=(W1, W2),
        sigma_names=("sigma-C1", "sigma-C2"),
        gL=mat_mul(L1.gL, L2.gL),
        domain=domain,
        images=images,
    )


def check_sample(sample: int | None) -> None:
    """Refuse a verification sample below one index (OutOfRange)."""
    if sample is not None and sample < 1:
        raise OutOfRange(f"sample must be at least 1, got {sample}")


def verify_conjugation(L: RegUnitary, sample: int | None = None) -> list[ConjugationReport]:
    """Check each operator identity of L by exact computation on its bases.

    Checks inner-product preservation ("unitary"), then each sigma pair
    (W, W(x gL)) as L(W x) = W(x gL) L(x), so the associated matrix itself
    is checked; on the domain basis, or on about `sample` evenly spaced
    basis indices when sample (at least 1) is given.
    """
    check_sample(sample)
    if not L.materialized:
        raise NoCommonSubalgebra("transformation carries no materialized bases")
    reports = []
    idx = range(L.dim) if sample is None or L.dim <= sample else range(0, L.dim, max(1, L.dim // sample))

    from . import products  # compiled on first use only

    worst = 0.0
    ok = True
    # the images' Gram matrix as one product
    imgs = [L.image(i).amps for i in idx]
    gram = products.linear_combinations(imgs, list(zip(*imgs)), len(imgs), conj=True)
    for a, i in enumerate(idx):
        # distinct domain vectors have disjoint supports: <dom i|dom j> = 0
        supp = [b for _, b in L.domain[i]]
        norm2 = dot(supp, supp, conj=True)
        for c, j in enumerate(idx):
            diff = gram[a][c] - (norm2 if i == j else Scalar.zero())
            if not diff.is_zero():
                ok = False
                worst = max(worst, abs(diff.to_complex()))
    reports.append(ConjugationReport("unitary", ok, worst))

    for nm, W, Wimg in L.sigma:
        worst = 0.0
        ok = True
        for m in idx:
            try:
                lhs = L.apply(apply_word(W, L.dom(m)))
            except NotIncluded:  # the domain basis is not an orthonormal basis of a submodule
                ok, worst = False, float("inf")
                continue
            rhs = apply_word(Wimg, L.image(m))
            for a, b in zip(lhs.amps, rhs.amps):
                if a.cyc.coeffs or b.cyc.coeffs:
                    d = a - b
                    if not d.is_zero():
                        ok = False
                        worst = max(worst, abs(d.to_complex()))
        reports.append(ConjugationReport(nm, ok, worst))
    return reports
