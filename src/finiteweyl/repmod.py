"""Irreducible modules of rational Weyl algebras in the clock/shift model.

The reference model fixes V_A(alpha) as the coordinate space F^N with

    U e_k = u q^k e_k,          V e_k = v e_{k-1 mod N},

for chosen N-th roots u, v of the spectral parameters.  All canonical
bases (V-basis, general S-bases) are explicit vectors in this model, so
every operator identity becomes a finite matrix identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ExactnessLost, ModuleMismatch, NotGenerating, NotInAlgebra
from .exactnum import Cyc, Scalar, dot
from .lattice import GenWord, WeylDesc, _mod1


@dataclass(frozen=True)
class SpecPoint:
    """Maximal ideal of the center: values of U^{aN} and V^{bN}.

    Spectra are restricted to the unit-modulus (root of unity) part, so a
    point is stored as two phases e^{2 pi i u_phase}, e^{2 pi i v_phase}.
    """

    u_phase: Fraction = Fraction(0)
    v_phase: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "u_phase", _mod1(self.u_phase))
        object.__setattr__(self, "v_phase", _mod1(self.v_phase))

    @property
    def principal(self) -> bool:
        return self.u_phase == 0 and self.v_phase == 0

    @property
    def uN(self) -> Scalar:
        return Scalar.phase(self.u_phase)

    @property
    def vN(self) -> Scalar:
        return Scalar.phase(self.v_phase)

    @staticmethod
    def principal_point() -> "SpecPoint":
        return SpecPoint(Fraction(0), Fraction(0))


class ModuleRep:
    """Concrete irreducible module V_A(alpha) with a fixed reference U-basis."""

    __slots__ = ("alg", "point", "dim", "u_phase", "v_phase", "q_phase", "_qpow")

    def __init__(self, alg: WeylDesc, point: SpecPoint, u_phase: Fraction, v_phase: Fraction):
        N = alg.N
        if _mod1(N * u_phase) != point.u_phase or _mod1(N * v_phase) != point.v_phase:
            raise ValueError("chosen roots do not match the spectral point")
        self.alg = alg
        self.point = point
        self.dim = N
        self.u_phase = _mod1(u_phase)
        self.v_phase = _mod1(v_phase)
        self.q_phase = alg.q_phase
        self._qpow: dict = {}

    # -- scalars of the action ------------------------------------------------
    def u_eigen_phase(self, k: int) -> Fraction:
        return _mod1(self.u_phase + k * self.q_phase)

    def u_eigenvalue(self, k: int) -> Scalar:
        return Scalar.phase(self.u_eigen_phase(k))

    def q_power(self, k) -> Scalar:
        out = self._qpow.get(k)
        if out is None:
            out = Scalar.phase(_mod1(Fraction(k) * self.q_phase))
            self._qpow[k] = out
        return out

    # -- vectors ---------------------------------------------------------------
    def zero_vector(self) -> "StateVec":
        return StateVec(self, [Scalar.zero()] * self.dim)

    def basis_vector(self, k: int) -> "StateVec":
        amps = [Scalar.zero()] * self.dim
        amps[k % self.dim] = Scalar.one()
        return StateVec(self, amps)

    def compatible(self, other: "ModuleRep") -> bool:
        return (
            self.alg == other.alg
            and self.point == other.point
            and self.u_phase == other.u_phase
            and self.v_phase == other.v_phase
        )

    def __repr__(self):
        return f"ModuleRep({self.alg}, dim={self.dim}, u={self.u_phase}, v={self.v_phase})"


class StateVec:
    """Module element as amplitudes over the reference U-basis."""

    __slots__ = ("module", "amps")

    def __init__(self, module: ModuleRep, amps):
        if len(amps) != module.dim:
            raise ValueError("amplitude count must equal the module dimension")
        self.module = module
        self.amps = list(amps)

    def __add__(self, other: "StateVec") -> "StateVec":
        self._check(other)
        return StateVec(self.module, [a + b for a, b in zip(self.amps, other.amps)])

    def __sub__(self, other: "StateVec") -> "StateVec":
        self._check(other)
        return StateVec(self.module, [a - b for a, b in zip(self.amps, other.amps)])

    def scale(self, s) -> "StateVec":
        s = Scalar._coerce(s)
        return StateVec(self.module, [s * a if a.cyc.coeffs else a for a in self.amps])

    def _check(self, other: "StateVec"):
        if not self.module.compatible(other.module):
            raise ModuleMismatch("vectors live in different modules")

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.amps)

    def norm2(self) -> Scalar:
        return dot(self.amps, self.amps, conj=True)

    def to_complex(self):
        return [a.to_complex() for a in self.amps]

    def __repr__(self):
        return f"StateVec({self.amps!r})"


@dataclass(frozen=True)
class BasisLabel:
    """Names one vector of a canonical S-basis: (S word, T word, index mod N)."""

    sWord: GenWord
    tWord: GenWord
    index: int

    def validate(self, alg: WeylDesc) -> None:
        if not (alg.contains_word(self.sWord) and alg.contains_word(self.tWord)):
            raise NotInAlgebra("basis label words must lie in the algebra")
        if self.sWord.commutator_phase(self.tWord) != alg.q_phase:
            raise NotGenerating("label words do not have commutator q")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def build_module(A: WeylDesc, point: SpecPoint, u_phase: Fraction | None = None,
                 v_phase: Fraction | None = None) -> ModuleRep:
    """Instantiate V_A(alpha); roots default to principal values."""
    N = A.N
    if u_phase is None:
        u_phase = point.u_phase / N
    if v_phase is None:
        v_phase = point.v_phase / N
    return ModuleRep(A, point, u_phase, v_phase)


def apply_word(w: GenWord, x: StateVec) -> StateVec:
    """Linear action of a pseudo-unitary word, with commutation phases."""
    M = x.module
    m, n = M.alg.word_coords(w)  # raises NotInAlgebra
    N = M.dim
    phase_kernel = _mod1(w.phase + m * M.u_phase + n * M.v_phase)
    out = [Scalar.zero()] * N
    for j in range(N):
        src = x.amps[(j + n) % N]
        if src.is_zero():
            continue
        out[j] = Scalar.phase(_mod1(phase_kernel + Fraction(j * m) * M.q_phase)) * src
    return StateVec(M, out)


def u_basis(M: ModuleRep) -> list[StateVec]:
    return [M.basis_vector(k) for k in range(M.dim)]


def v_basis(M: ModuleRep) -> list[StateVec]:
    """Canonical V-basis: v_m = (1/sqrt N) sum_k q^{mk} u_k.

    Satisfies V v_m = q^m v v_m and U v_m = u v_{m+1}; the pairing with the
    U-basis is <u_k | v_m> = q^{km}/sqrt(N).
    """
    N = M.dim
    inv_sqrt = Scalar.exact(Cyc.rational(1), 1, N)
    # q^N = 1, so the N^2 amplitudes take only the N values q^r/sqrt(N)
    amp = [inv_sqrt * M.q_power(r) for r in range(N)]
    return [StateVec(M, [amp[(m * k) % N] for k in range(N)]) for m in range(N)]


def linear_combinations(module: ModuleRep, rows, vecs) -> list[StateVec]:
    """[sum_i row[i] * vecs[i] for row in rows].

    One scan of the vectors' nonzero entries, skipping a vector whose
    coefficient is zero in every row, gathers the terms of each coordinate;
    `dot` sums each coordinate of each row.
    """
    n = min((len(r) for r in rows), default=0)  # as zip: extra entries are ignored
    idx: list[list[int]] = [[] for _ in range(module.dim)]
    amps: list[list[Scalar]] = [[] for _ in range(module.dim)]
    for i, v in enumerate(vecs[:n]):
        if any(r[i].cyc.coeffs for r in rows):
            for j, a in enumerate(v.amps):
                if a.cyc.coeffs:
                    idx[j].append(i)
                    amps[j].append(a)
    # a one-term coordinate is a product; rows and vectors often share their
    # Scalars, so each product of two objects is built once (keyed by identity)
    products: dict[tuple[int, int], Scalar] = {}
    out = []
    for r in rows:
        coords = []
        for ix, am in zip(idx, amps):
            if len(ix) == 1:
                key = (id(r[ix[0]]), id(am[0]))
                if key not in products:
                    products[key] = dot([r[ix[0]]], am)
                coords.append(products[key])
            else:
                coords.append(dot([r[i] for i in ix], am))
        out.append(StateVec(module, coords))
    return out


def linear_combination(module: ModuleRep, coeffs, vecs) -> StateVec:
    """sum_i coeffs[i] * vecs[i]."""
    return linear_combinations(module, [coeffs], vecs)[0]


def inner(x: StateVec, y: StateVec) -> Scalar:
    """Inner product, conjugate-linear in the first argument."""
    x._check(y)
    return dot(x.amps, y.amps, conj=True)


def _word_scalar_on_module(w: GenWord, M: ModuleRep) -> Scalar:
    """Value of a central word (acts as a scalar); read off from e_0."""
    vec = apply_word(w, M.basis_vector(0))
    return vec.amps[0]


def root_of_unity_turns(s: Scalar) -> Fraction:
    """Turns t with s = e^{2 pi i t} for a unit-modulus exact scalar.

    A float-guided guess is verified exactly; on failure the group of
    roots of unity of Q(zeta_M) (order lcm(2, M)) is searched exhaustively.
    """
    import cmath
    import math

    # fast path: sparse monomial with coefficient +-1 and no radical
    if s.rad == 1 and len(s.cyc.coeffs) == 1:
        (k, coeff), = s.cyc.coeffs.items()
        if coeff == 1:
            return Fraction(k, s.cyc.order)
        if coeff == -1:
            return _mod1(Fraction(k, s.cyc.order) + Fraction(1, 2))
    M = s.cyc.order
    order = M if M % 2 == 0 else 2 * M
    theta = cmath.phase(s.to_complex()) / (2 * math.pi)
    guess = Fraction(theta).limit_denominator(order)
    if (s - Scalar.phase(guess)).is_zero():
        return _mod1(guess)
    for k in range(order):
        cand = Fraction(k, order)
        if (s - Scalar.phase(cand)).is_zero():
            return cand
    raise ExactnessLost("scalar is not a root of unity")


def _principal_root_turns(s: Scalar, N: int) -> Fraction:
    """For a root of unity e^{2 pi i t}, return t/N (principal N-th root)."""
    return root_of_unity_turns(s) / N


def s_basis(M: ModuleRep, S: GenWord, T: GenWord) -> list[StateVec]:
    """Canonical S-basis: S-eigenvectors on which T acts by index decrement.

    Built by projecting a reference vector onto an S-eigenspace
    (sum_k s^{-k} S^k, exact and O(N^2)), normalising the seed so its first
    nonzero amplitude is a positive real multiple of 1, then generating the
    rest of the basis with T.
    """
    alg = M.alg
    if not (alg.contains_word(S) and alg.contains_word(T)):
        raise NotInAlgebra("S, T must lie in the module algebra")
    if S.commutator_phase(T) != M.q_phase:
        raise NotGenerating("[S,T] must equal q")
    N = M.dim

    sN = _word_scalar_on_module(S ** N, M)
    s0_turns = _principal_root_turns(sN, N)
    tN = _word_scalar_on_module(T ** N, M)
    t0_turns = _principal_root_turns(tN, N)
    s0_inv = Scalar.phase(_mod1(-s0_turns))
    t_inv = Scalar.phase(_mod1(-t0_turns))

    seed = None
    for start in range(N):
        acc = M.basis_vector(start)
        vec = acc
        for _ in range(N - 1):
            vec = apply_word(S, vec).scale(s0_inv)
            acc = acc + vec
        if not acc.is_zero():
            seed = acc
            break
    if seed is None:
        raise NotGenerating("no S-eigenvector found (S does not act cyclically)")

    # phase convention: first nonzero amplitude positive-real
    for a in seed.amps:
        if not a.is_zero():
            seed = seed.scale(_unit_phase_inverse(a))
            break
    n2 = seed.norm2()
    if not n2.is_rational():
        raise ExactnessLost("seed norm is not rational")
    seed = seed.scale(n2.sqrt_of_rational().inv())

    basis = [seed] + [None] * (N - 1)
    cur = seed
    for k in range(1, N):
        cur = apply_word(T, cur).scale(t_inv)
        basis[N - k] = cur
    return basis


def _unit_phase_inverse(a: Scalar) -> Scalar:
    """Inverse of the unit-phase part of a scalar (makes it positive real)."""
    mag2 = (a.conj() * a).rational_value()
    mag = Scalar.exact(Cyc.rational(1), mag2.numerator, mag2.denominator)
    unit = a * mag.inv()
    t = root_of_unity_turns(unit)
    return Scalar.phase(_mod1(-t))


class GammaMap:
    """Unitary generator of Gamma_A(alpha) in the reference basis."""

    def __init__(self, kind: str, module: ModuleRep):
        if kind not in ("mu", "nu"):
            raise ValueError("kind must be 'mu' or 'nu'")
        self.kind = kind
        self.module = module

    def apply(self, x: StateVec) -> StateVec:
        N = self.module.dim
        if self.kind == "mu":
            # index decrement: coefficient moves from e_m to e_{m-1}
            return StateVec(self.module, [x.amps[(j + 1) % N] for j in range(N)])
        return StateVec(
            self.module,
            [self.module.q_power(-j) * x.amps[j] for j in range(N)],
        )

    def inverse_apply(self, x: StateVec) -> StateVec:
        N = self.module.dim
        if self.kind == "mu":
            return StateVec(self.module, [x.amps[(j - 1) % N] for j in range(N)])
        return StateVec(
            self.module,
            [self.module.q_power(j) * x.amps[j] for j in range(N)],
        )


def gamma_generator(M: ModuleRep, which: str) -> GammaMap:
    """mu: u-basis index decrement; nu: u_m -> q^{-m} u_m."""
    return GammaMap(which, M)


def relate_canonical_bases(b1: list[StateVec], b2: list[StateVec]) -> Scalar:
    """The single scalar c with b2[k] = c b1[k] for all k; raises if not constant."""
    c = None
    for x, y in zip(b1, b2):
        for ax, ay in zip(x.amps, y.amps):
            if ax.is_zero() != ay.is_zero():
                raise ValueError("bases have different supports")
            if not ax.is_zero():
                r = ay / ax
                if c is None:
                    c = r
                elif not (r - c).is_zero():
                    raise ValueError("bases do not differ by a single scalar")
    if c is None:
        raise ValueError("zero bases")
    return c


def quadratic_phase_exponent(hat: list[StateVec], base: list[StateVec],
                             M: ModuleRep) -> tuple[Scalar, Fraction, Fraction]:
    """Fit hat[k] = c q^{j k - n k(k+1)/2} base[k]; returns (c, n, j).

    The quadratic coefficient n is the invariant of interest; the linear
    term j absorbs the principal-root choice of the T-multiplier, and the
    sign/normalisation of n is not fixed by the theory, so the computed
    instance values are returned.
    """
    N = M.dim
    ratios = [relate_canonical_bases([base[k]], [hat[k]]) for k in range(N)]
    c = ratios[0]
    if N == 1:
        return c, Fraction(0), Fraction(0)

    def find_q_power(s: Scalar) -> Fraction:
        # exponents may be half-integers (2N-th roots of unity)
        for twice in range(2 * N):
            cand = Fraction(twice, 2)
            if (s - M.q_power(cand)).is_zero():
                return cand
        raise ValueError("relation is not of quadratic-phase form")

    d1 = [ratios[k] / ratios[k - 1] for k in range(1, N)]
    if len(d1) >= 2:
        n = -find_q_power(d1[1] / d1[0])
        n = n if n != 0 else Fraction(0)
    else:
        n = Fraction(0)
    j = find_q_power(d1[0]) + n
    for k in range(N):
        expect = c * M.q_power(j * k - n * Fraction(k * (k + 1), 2))
        if not (ratios[k] - expect).is_zero():
            raise ValueError("relation is not of quadratic-phase form")
    return c, n, j
