"""Regular unitary transformations: Fourier, Gaussian, diagonal, evolutions.

Each transformation is a basis-to-basis partial isometry between
submodules of a fixed module, intertwining an algebra isomorphism sigma
and carrying an associated SL(2,Q) matrix.  Matrices act on generator
exponent rows, so composing maps multiplies the matrices in map order:
g(L2 o L1) = g(L1) g(L2).  sigma is derived from the matrix alone, by
`lattice.word_image`.

By Schur's lemma g = [[alpha, beta], [gamma, delta]] fixes the images up to
one constant, and `_kernel_images` writes them from g.  For beta != 0 the
domain vector at position y (U e_y = q^y e_y) goes to the range vectors at
x with the kernel q^{(2xy - alpha x^2 - delta y^2)/(2 beta)}, if that is
periodic in x on the range summand, each distinct phase read from one
`repmod.PhaseTable`; for beta = gamma = 0 it goes to the one range vector at
x = y/alpha.  The builders fix the constant as 1/sqrt(dim) times 1 (Fourier)
or the Gauss constant e^{-i pi/4} (Gaussian, conjugate for t < 0, and QHO),
and as 1 for the diagonal.  `compose` fixes it with one dense
L2.apply(L1.image(0)); it applies L2 to every image for a kernel that is not
periodic (G o G) or has beta = 0 but not gamma = 0, and when the common
subalgebra misses V^k of the domain <U^n, V^k>.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from operator import add

from .errors import BadMatrix, ModuleMismatch, NoCommonSubalgebra, NotDividing, NotIncluded, OutOfRange
from .exactnum import Scalar, dot
from .lattice import (GenWord, Mat2, WeylDesc, gaussian_dim, lattice_intersect, mat_det, mat_inv, mat_mul,
                      qho_dim, rat_gcd, word_image)
from .morphism import summand
from .repmod import ModuleRep, PhaseTable, StateVec, apply_word, linear_combination, linear_combinations

NO_BASES = "transformation carries no materialized bases"  # what a bookkeeping-only composite refuses


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
            raise BadMatrix("associated matrix must have determinant 1")
        if not all(self.ambient_ran.alg.contains_word(w) for _, _, w in self.sigma):
            raise ValueError("associated matrix maps a domain word outside the target algebra")
        if self.domain is not None:
            self._group = {j: m for m, g in enumerate(self.domain) for j, _ in g}
            if len(self._group) < sum(map(len, self.domain)):
                raise ValueError("domain basis vectors must have disjoint supports")

    @property
    def sigma(self) -> tuple[tuple[str, GenWord, GenWord], ...]:
        """(identity name, W, W^sigma) for each domain word W, W^sigma = W(x gL)."""
        A = self.ambient_dom.alg
        return tuple((nm, w, word_image(w, self.gL, A)) for nm, w in zip(self.sigma_names, self.dom_words))

    @property
    def dim(self) -> int | None:
        """Number of domain basis vectors; None for a bookkeeping-only composite."""
        return None if self.domain is None else len(self.domain)

    # -- basis access: NoCommonSubalgebra for a bookkeeping-only composite ------
    def dom(self, m: int) -> StateVec:
        if self.domain is None:
            raise NoCommonSubalgebra(NO_BASES)
        return StateVec.from_pairs(self.ambient_dom, self.domain[m % self.dim])

    def image(self, m: int) -> StateVec:
        if self.images is None:
            raise NoCommonSubalgebra(NO_BASES)
        return self.images[m % self.dim]

    @property
    def materialized(self) -> bool:
        return self.domain is not None and self.images is not None

    def apply(self, x: StateVec) -> StateVec:
        """Map a vector of the domain submodule; exact expansion in the domain basis.

        Only the basis vectors whose supports hold a nonzero entry of x are
        visited: each coefficient is read off x on its basis vector's
        support, and x must vanish off the supports and be proportional to
        the basis on each.  When one basis vector is touched, as for a word
        applied to a domain basis vector, the result is the coefficient
        times its image, O(N) one-term products; otherwise the images are
        combined by `linear_combination`.
        """
        if self.domain is None:
            raise NoCommonSubalgebra(NO_BASES)
        if not self.ambient_dom.compatible(x.module):
            raise ModuleMismatch("vectors live in different modules")
        amps, group = x.amps, self._group
        touched = set()
        for j, a in enumerate(amps):
            if a.coeffs:
                m = group.get(j)
                if m is not None:
                    touched.add(m)
                elif not a.is_zero():
                    raise NotIncluded("vector does not lie in the transformation domain")
        coeffs = [Scalar.zero()] * self.dim
        for m in touched:
            xs, bs = [amps[j] for j, _ in self.domain[m]], [b for _, b in self.domain[m]]
            c = coeffs[m] = dot(bs, xs, conj=True)
            if not all(a == c * bj for a, bj in zip(xs, bs)):
                raise NotIncluded("vector does not lie in the transformation domain")
        if len(touched) == 1 and c.coeffs:
            # linear_combination's one-term sums, without the gather: c * a, and Scalar.zero()
            zero = Scalar.zero()
            return StateVec(self.ambient_ran, [c * a if a.coeffs else zero for a in self.images[m].amps])
        return linear_combination(self.ambient_ran, coeffs, self.images)


# ---------------------------------------------------------------------------
# the kernel of an SL(2,Q) matrix
# ---------------------------------------------------------------------------

def _kernel_images(M: ModuleRep, n: int, k: int, dim: int, g: Mat2, const: Scalar) -> list[StateVec] | None:
    """Images in M of the first `dim` principal <U^n, V^k>-summand vectors under
    the transform of g (the module docstring's kernel times const/sqrt(dim'),
    const for beta = 0), or None where that does not hold.  Vector m sits at
    y = k m, range vector h_j of the principal <U^n', V^k'>-summand, the smallest
    holding the images of U^n and V^k, at x = k' j.  The scaled phases come from
    one PhaseTable with den = 2 beta, keyed by their integer exponent mod 2|beta|N;
    each image is one slice store.
    """
    N = M.dim
    (a, b), (c, e) = g
    nr, kr = rat_gcd(n * a, k * c), rat_gcd(n * b, k * e)
    if nr.denominator != 1 or kr.denominator != 1 or N % (nr * kr):
        return None
    nr, kr = int(nr), int(kr)
    period, dim_r = N // nr, N // (nr * kr)
    D = lcm(a.denominator, b.denominator, c.denominator, e.denominator)
    A, B, C, E = (int(x * D) for x in (a, b, c, e))
    amp = Scalar.exact(Scalar.one(), 1, nr)  # every amplitude of a principal summand vector
    zero = Scalar.zero()
    rows = []
    if B == 0:
        # gamma = 0 too: g_m goes to h_m, or to h_{-m} when alpha < 0
        if C:
            return None
        for m in range(dim):
            rows.append([zero] * dim_r)
            rows[m][m if A > 0 else -m] = const * amp
    else:
        P = 2 * abs(B) * N
        if (2 * D * period * k) % P or (2 * A * period * kr) % P or (A * period * period) % P:
            return None
        phases = PhaseTable(M.q_phase, 2 * B, const * Scalar.exact(Scalar.one(), 1, dim_r) * amp)
        # the exponent at (m, j) is lin m j + quad[j] - E k^2 m^2
        lin = 2 * D * k * kr
        quad = [-A * (kr * j) ** 2 % P for j in range(dim_r)]
        if A == E == D and (n, k) == (nr, kr):
            # alpha = delta = 1 on one layout: the kernel depends on j - m mod dim' only
            row = [phases[t] for t in quad]
            rows = [row[-m:] + row[:-m] for m in range(dim)]
        else:
            for m in range(dim):
                c0 = -E * k * k * m * m
                steps = range(c0, c0 + lin * m * dim_r, lin * m) if m else [c0] * dim_r
                rows.append([phases[u % P] for u in (map(add, steps, quad) if A else steps)])
    images = []
    for row in rows:
        amps = [zero] * N
        amps[::kr] = row * nr
        images.append(StateVec(M, amps))
    return images


def _build(name: str, M: ModuleRep, n: int, k: int, gL: Mat2, sigma_names: tuple[str, str],
           const: Scalar) -> RegUnitary:
    """RegUnitary's fields in order: the transform of gL from the principal
    <U^n, V^|k|>-summand of M, domain words U^n and V^k, into the module with
    roots (u', v') = gL^{-1} (u, v)^T, on which sigma intertwines exactly:
    M itself when those are M's roots, as on every principal module."""
    A = M.alg
    (a, b), (c, d) = mat_inv(gL)
    u, v = a * M.u_phase + b * M.v_phase, c * M.u_phase + d * M.v_phase
    ran = ModuleRep(A, u, v)
    ran = M if ran.compatible(M) else ran
    _, domain = summand(M, WeylDesc(n * A.a, abs(k) * A.b))
    return RegUnitary(name, M, ran, (GenWord(n * A.a, 0), GenWord(0, k * A.b)), sigma_names, gL,
                      domain, _kernel_images(ran, n, abs(k), len(domain), gL, const))


# ---------------------------------------------------------------------------
# generator transformations
# ---------------------------------------------------------------------------

def fourier(M: ModuleRep) -> RegUnitary:
    """Phi: u_m -> (1/sqrt N) sum_k q^{mk} u'_k, associated with [[0,1],[-1,0]],
    into the module with roots u' = v^{-1}, v' = u (`_build`'s rule)."""
    return _build("fourier", M, 1, 1, _frac_mat([[0, 1], [-1, 0]]), ("sigma-U", "sigma-V"), Scalar.one())


def gaussian(M: ModuleRep, b: int = 1, d: int = 1) -> RegUnitary:
    """Gaussian transformation on the <U^d, V^b>-submodule, associated with
    [[1, -b/d], [0, 1]]: u_m -> (c/sqrt(Nb)) sum_l qb^{(l-m)^2/2} u_l on the
    principal branch, qb = q^{bd}, Nb = N/(bd), c = sqrt(Nb)/G(Nb) =
    e^{-i pi/4} for even Nb.  The image is the canonical S-basis for
    S = qb^{-1/2} U^d V^{-b}.
    """
    gaussian_dim(M.dim, b, d)
    return _build(f"gaussian[b={b},d={d}]", M, d, b, _frac_mat([[1, Fraction(-b, d)], [0, 1]]),
                  ("Sv2", "w2"), Scalar.phase(Fraction(-1 if b * d > 0 else 1, 8)))


def diagonal(M: ModuleRep, m: int) -> RegUnitary:
    """Diagonal transformation D_m: <U, V^m>-basis -> <U^m, V>-basis."""
    if m <= 0 or M.dim % m != 0:
        raise NotDividing(f"m = {m} must divide N = {M.dim}")
    return _build(f"diagonal[{m}]", M, 1, m, _frac_mat([[m, 0], [0, Fraction(1, m)]]),
                  ("sigma-U", "sigma-V"), Scalar.one())


def free_evolution(M: ModuleRep, b: int, d: int) -> RegUnitary:
    """Free-particle evolution for t = b/d: the Gaussian on <U^d, V^b>.

    Satisfies K U^d K^{-1} = qb^{-1/2} U^d V^{-b} and K V^b K^{-1} = V^b.
    """
    return replace(gaussian(M, b=b, d=d), name=f"free[t={b}/{d}]")


def qho_evolution(M: ModuleRep, e: int, f: int, c: int) -> RegUnitary:
    """Harmonic-oscillator evolution at Pythagorean time sin t = e/c, the
    rotation [[f, -e], [e, f]]/c from the <U^c, V^{ce}>-submodule into the
    ambient module, constant C0 sqrt(e/N), C0 = e^{-i pi/4}.  Satisfies
    K U^c K^{-1} = q^{-ef/2} U^f V^{-e} and K V^{ce} K^{-1} = q^{e^3 f/2} U^{e^2} V^{ef}.
    """
    qho_dim(M.dim, e, f, c)
    gL = _frac_mat([[Fraction(f, c), Fraction(-e, c)], [Fraction(e, c), Fraction(f, c)]])
    return _build(f"qho[{e},{f},{c}]", M, c, c * e, gL, ("KU", "mKU"), Scalar.phase(Fraction(-1, 8)))


# ---------------------------------------------------------------------------
# composition and verification
# ---------------------------------------------------------------------------

def _composite_images(L2: RegUnitary, L1: RegUnitary, g: Mat2, C_rows, first: StateVec) -> list[StateVec] | None:
    """L2 o L1's images from its matrix g, the constant fixed by the dense
    first = L2.apply(L1.image(0)), or None where the module docstring says.
    V^k in C makes image m follow from image 0 by the image of V^k."""
    M, Mr = L1.ambient_dom, L2.ambient_ran
    n = len(L1.domain[0])
    k, rem = divmod(M.dim, n * L1.dim)
    if (rem or any((k * x).denominator != 1 for x in mat_inv(C_rows)[1])  # (0, k) C^{-1} integral
            or summand(M, WeylDesc(n * M.alg.a, k * M.alg.b))[1] != L1.domain):
        return None
    images = _kernel_images(Mr, n, k, L1.dim, g, Scalar.one())
    if images is None:
        return None
    i, t = next((i, a) for i, a in enumerate(images[0].amps) if a.coeffs)
    c = first.amps[i] / t
    images = [img.scale(c.canonical()) for img in images]
    return images if all(a == b for a, b in zip(images[0].amps, first.amps)) else None


def compose(L2: RegUnitary, L1: RegUnitary) -> RegUnitary:
    """Composite L2 o L1 on a maximal common subalgebra C.

    C = dom(L1) n sigma1^{-1}(dom(L2)) via the exponent lattices;
    g(L2 o L1) = g(L1) g(L2) (matrices act on exponent rows, so the product
    order is reversed relative to map order).  The basis map is materialized
    when the factors' bases align, from g where `_composite_images` covers
    the composite; otherwise the composite carries bookkeeping only.  Raises
    ModuleMismatch when L2 does not start on the module where L1 ends.
    """
    if not L2.ambient_dom.compatible(L1.ambient_ran):
        raise ModuleMismatch("L2's domain module is not L1's range module")
    A = L1.ambient_dom.alg
    rows1, rows2 = ([(w.u_exp / A.a, w.v_exp / A.b) for w in L.dom_words] for L in (L1, L2))
    C_rows = lattice_intersect(rows1, mat_mul(rows2, mat_inv(L1.gL)))
    if abs(mat_det(C_rows)) > L1.ambient_dom.dim:
        raise NoCommonSubalgebra("common subalgebra has no room in the module")
    gL = mat_mul(L1.gL, L2.gL)

    domain = images = None
    if L1.materialized and L2.materialized:
        try:
            first = L2.apply(L1.image(0))
            images = (_composite_images(L2, L1, gL, C_rows, first)
                      or [first] + [L2.apply(L1.image(m)) for m in range(1, L1.dim)])
            domain = L1.domain
        except NotIncluded:
            domain = images = None
    return RegUnitary(
        name=f"({L2.name} o {L1.name})",
        ambient_dom=L1.ambient_dom,
        ambient_ran=L2.ambient_ran,
        dom_words=tuple(GenWord(x * A.a, y * A.b) for x, y in C_rows),
        sigma_names=("sigma-C1", "sigma-C2"),
        gL=gL,
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
    basis indices when sample (at least 1) is given.  W x is a phase times
    one domain basis vector, so `RegUnitary.apply` maps it without a
    linear combination: one sampled sigma identity costs O(N) one-term
    products and comparisons, and entries are compared with `==`, a
    difference being formed only for the residual of entries that differ.
    """
    check_sample(sample)
    if not L.materialized:
        raise NoCommonSubalgebra(NO_BASES)
    reports = []
    idx = range(L.dim) if sample is None or L.dim <= sample else range(0, L.dim, max(1, L.dim // sample))

    worst = 0.0
    ok = True
    zero = Scalar.zero()
    # the images' Gram matrix as one product
    imgs = [L.image(i).amps for i in idx]
    gram = linear_combinations(imgs, list(zip(*imgs)), len(imgs), conj=True)
    for a, i in enumerate(idx):
        # distinct domain vectors have disjoint supports: <dom i|dom j> = 0
        supp = [b for _, b in L.domain[i]]
        norm2 = dot(supp, supp, conj=True)
        for c, j in enumerate(idx):
            want = norm2 if i == j else zero
            if gram[a][c] != want:
                ok = False
                worst = max(worst, abs((gram[a][c] - want).to_complex()))
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
                if (a.coeffs or b.coeffs) and a != b:
                    ok = False
                    worst = max(worst, abs((a - b).to_complex()))
        reports.append(ConjugationReport(nm, ok, worst))
    return reports
