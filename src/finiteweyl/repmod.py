"""Irreducible modules of rational Weyl algebras in the clock/shift model.

The reference model fixes V_A(alpha) as the coordinate space F^N with

    U e_k = u q^k e_k,          V e_k = v e_{k-1 mod N},

for chosen N-th roots u, v of the spectral parameters.  All canonical
bases (V-basis, general S-bases) are explicit vectors in this model, so
every operator identity becomes a finite matrix identity.  Every amplitude
of the action is a scaled power of q, and `PhaseTable` is the one memo of
them: the module's own q_powers, and each scaled table a caller builds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ExactnessLost, ModuleMismatch, NotGenerating, NotInAlgebra
from .exactnum import Scalar, _phase_cached, dot
from .lattice import GenWord, SpecPoint, WeylDesc, _mod1, numpy_pays


class PhaseTable(dict):
    """k -> scale * q^{k/den} for integer or rational k, each value built once,
    on first use, from the lowest-terms exponent of q^{k/den}."""

    def __init__(self, q: Fraction, den: int = 1, scale: Scalar | None = None):
        super().__init__()
        self.num = q.numerator if den > 0 else -q.numerator  # q^{k/den} = q^{-k/|den|}
        self.den, self.scale = q.denominator * abs(den), scale

    def __missing__(self, k) -> Scalar:
        D = k.denominator * self.den  # t/D = k q/den mod 1, put in lowest terms without a Fraction
        t = k.numerator * self.num % D
        g = gcd(t, D)
        out = _phase_cached(t // g, D // g)
        out = self[k] = out if self.scale is None else self.scale * out
        return out


class ModuleRep:
    """Concrete irreducible module V_A(alpha) with a fixed reference U-basis."""

    __slots__ = ("alg", "point", "dim", "u_phase", "v_phase", "q_phase", "q_powers")

    def __init__(self, alg: WeylDesc, u_phase: Fraction, v_phase: Fraction):
        N = alg.N
        self.alg = alg
        self.point = SpecPoint(N * u_phase, N * v_phase)  # U^{aN} acts as u^N, V^{bN} as v^N
        self.dim = N
        self.u_phase = _mod1(u_phase)
        self.v_phase = _mod1(v_phase)
        self.q_phase = alg.q_phase
        self.q_powers = PhaseTable(self.q_phase)

    # -- scalars of the action ------------------------------------------------
    def q_power(self, k) -> Scalar:
        return self.q_powers[k]

    # -- vectors ---------------------------------------------------------------
    def basis_vector(self, k: int) -> "StateVec":
        return StateVec.from_pairs(self, [(k % self.dim, Scalar.one())])

    def compatible(self, other: "ModuleRep") -> bool:
        return self.alg == other.alg and self.u_phase == other.u_phase and self.v_phase == other.v_phase

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

    @classmethod
    def from_pairs(cls, module: ModuleRep, pairs) -> "StateVec":
        """The vector with amplitude a at each (index, a) of pairs, zero elsewhere."""
        amps = [Scalar.zero()] * module.dim
        for idx, a in pairs:
            amps[idx] = a
        return cls(module, amps)

    def __add__(self, other: "StateVec") -> "StateVec":
        self._check(other)
        return StateVec(self.module, [a + b for a, b in zip(self.amps, other.amps)])

    def __sub__(self, other: "StateVec") -> "StateVec":
        self._check(other)
        return StateVec(self.module, [a - b for a, b in zip(self.amps, other.amps)])

    def scale(self, s) -> "StateVec":
        s = Scalar._coerce(s)
        return StateVec(self.module, [s * a if a.coeffs else a for a in self.amps])

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


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def build_module(A: WeylDesc, point: SpecPoint) -> ModuleRep:
    """Instantiate V_A(alpha) with the principal roots; `ModuleRep` takes others."""
    return ModuleRep(A, point.u_phase / A.N, point.v_phase / A.N)


def _kernel_turns(w: GenWord, M: ModuleRep) -> Fraction:
    """Turns t of the phase e^{2 pi i t} that w = phase U^{ma} V^{nb} puts on
    every entry on M besides q^{jm}: phase + m u + n v mod 1.  Raises
    NotInAlgebra."""
    m, n = M.alg.word_coords(w)
    return _mod1(w.phase + m * M.u_phase + n * M.v_phase)


def _word_factor(w: GenWord, M: ModuleRep) -> PhaseTable:
    """t -> kernel * q^t, the factor w puts on entry j of M at t = j m mod N
    (q^N = 1).  With no kernel phase that is M.q_powers itself, shared by
    every call: 1 * q^t is q^t, term for term."""
    turns = _kernel_turns(w, M)
    return PhaseTable(M.q_phase, 1, Scalar.phase(turns)) if turns else M.q_powers


def apply_word(w: GenWord, x: StateVec) -> StateVec:
    """Linear action of a pseudo-unitary word, with commutation phases.

    out[j] = kernel * q^{jm} * x[j + n]: each nonzero entry is one Scalar
    product, the factor kernel * q^{jm} (built once per jm mod N) times
    x[j + n].
    """
    M = x.module
    m, n = M.alg.word_coords(w)  # raises NotInAlgebra
    N = M.dim
    factor = _word_factor(w, M)
    out = [Scalar.zero()] * N
    amps = x.amps
    for j in range(N):
        src = amps[(j + n) % N]
        if src.coeffs and not src.is_zero():
            out[j] = factor[j * m % N] * src
    return StateVec(M, out)


def u_basis(M: ModuleRep) -> list[StateVec]:
    return [M.basis_vector(k) for k in range(M.dim)]


def _v_amplitudes(M: ModuleRep) -> list[Scalar]:
    """q^r/sqrt(N) for r mod N: since q^N = 1, every amplitude of the V-basis."""
    inv_sqrt = Scalar.exact(Scalar.one(), 1, M.dim)
    return [inv_sqrt * M.q_powers[r] for r in range(M.dim)]


def v_vector(M: ModuleRep, m: int) -> StateVec:
    """The V-basis vector v_m = (1/sqrt N) sum_k q^{mk} u_k alone, in O(N)."""
    N = M.dim
    amp = _v_amplitudes(M)
    return StateVec(M, [amp[(m * k) % N] for k in range(N)])


def v_basis(M: ModuleRep) -> list[StateVec]:
    """Canonical V-basis: v_m = (1/sqrt N) sum_k q^{mk} u_k.

    Satisfies V v_m = q^m v v_m and U v_m = u v_{m+1}; the pairing with the
    U-basis is <u_k | v_m> = q^{km}/sqrt(N).
    """
    N = M.dim
    amp = _v_amplitudes(M)
    return [StateVec(M, [amp[(m * k) % N] for k in range(N)]) for m in range(N)]


# Fewest products (rows x live columns x dim) worth the histogram kernel of
# `products` once numpy is loaded.  Measured against `dot` (2-vCPU host,
# Python 3.11, numpy 2.4): the N = 12 Fourier Gram (1728 products) takes
# 2.0-2.5 ms with the kernel and 3.8-5.3 ms without, a dense apply at N = 16
# (256 products) 0.32-0.50 ms and 0.56-0.97 ms; at N = 12 (144) they tie.
PRODUCTS_MIN = 256
# Fewest products of one sum worth importing numpy for (`lattice.numpy_pays`,
# the rule the float sums share): the kernel saves 1.4-3 us per product on
# Grams of N = 12-36, so 2^15 products save about one numpy import (60-140
# ms there).
PRODUCTS_IMPORT = 1 << 15


def _probe_terms(cols) -> int:
    """Nonzero entries at the first nonzero coordinate of the first nonzero column."""
    for col in cols:
        j = next((j for j, a in enumerate(col) if a.coeffs), None)
        if j is not None:
            return sum(1 for c in cols if c[j].coeffs)
    return 0


def _take_kernel(size: int, cols) -> bool:
    """Whether a sum of `size` products over `cols` goes to the histogram kernel.

    It takes sums of at least PRODUCTS_MIN products whose first nonzero
    coordinate has two terms or more (else there is no sum to share), once
    numpy is loaded; before, only a sum of PRODUCTS_IMPORT products or
    more, which imports numpy with the kernel.  Nothing is kept between
    calls: the same sum routes alike in any process with numpy in the same
    state.
    """
    return (size >= PRODUCTS_MIN and _probe_terms(cols) >= 2
            and numpy_pays(size, PRODUCTS_IMPORT))


def linear_combinations(rows, cols, dim: int, conj: bool = False) -> list[list[Scalar]]:
    """[[sum_i row[i] * cols[i][j] for j < dim] for row in rows], with
    conj(row[i]) in place of row[i] when conj is set.

    As with zip, entries past the shortest row are ignored, and columns
    whose entry is zero in every row are skipped.  Sums the router
    (`_take_kernel`) gives to the histogram kernel go to
    `products.monomial_products`.  Otherwise, or when that kernel declines,
    one scan of the columns' nonzero entries gathers the terms of each
    coordinate and `dot` sums each coordinate of each row, one term or many.
    """
    n = min((len(r) for r in rows), default=0)
    live = [i for i in range(min(n, len(cols))) if any(r[i].coeffs for r in rows)]
    cols = [cols[i] for i in live]
    if _take_kernel(len(rows) * len(live) * dim, cols):
        from . import products  # the one import site: it loads numpy

        sub = rows if len(live) == n else [[r[i] for i in live] for r in rows]
        out = products.monomial_products(sub, cols, dim, conj)
        if out is not None:
            return out
    idx: list[list[int]] = [[] for _ in range(dim)]
    amps: list[list[Scalar]] = [[] for _ in range(dim)]
    for i, col in zip(live, cols):
        for j, a in enumerate(col):
            if a.coeffs:
                idx[j].append(i)
                amps[j].append(a)
    zero = Scalar.zero()
    return [[dot([r[i] for i in ix], am, conj=conj) if ix else zero
             for ix, am in zip(idx, amps)] for r in rows]


def linear_combination(module: ModuleRep, coeffs, vecs) -> StateVec:
    """sum_i coeffs[i] * vecs[i], by `linear_combinations`."""
    sums, = linear_combinations([coeffs], [v.amps for v in vecs], module.dim)
    return StateVec(module, sums)


def inner(x: StateVec, y: StateVec) -> Scalar:
    """Inner product, conjugate-linear in the first argument."""
    x._check(y)
    return dot(x.amps, y.amps, conj=True)


def s_basis(M: ModuleRep, S: GenWord, T: GenWord) -> list[StateVec]:
    """Canonical S-basis: S-eigenvectors on which T acts by index decrement.

    Built by projecting a reference vector onto an S-eigenspace
    (sum_k s^{-k} S^k, exact), normalising the seed, then generating the
    rest of the basis with T.  S = phase U^m V^n moves e_i to a multiple of
    e_{i-n}, so the projection of e_start is one walk of N steps along the
    orbit of start, O(N) per start.
    """
    alg = M.alg
    if not (alg.contains_word(S) and alg.contains_word(T)):
        raise NotInAlgebra("S, T must lie in the module algebra")
    if S.commutator_phase(T) != M.q_phase:
        raise NotGenerating("[S,T] must equal q")
    N = M.dim

    # S^N and T^N are central: scalars e^{2 pi i t}; divide by their
    # principal N-th roots e^{2 pi i t/N}, for S by walking S e^{-2 pi i t/N}
    t_inv = Scalar.phase(_mod1(-_kernel_turns(T ** N, M) / N))

    m, n = alg.word_coords(S)
    factor = _word_factor(S * GenWord(0, 0, -_kernel_turns(S ** N, M) / N), M)
    seed = None
    for start in range(N):
        acc = M.basis_vector(start)
        i, c = start, acc.amps[start]
        for _ in range(N - 1):
            # the entry apply_word of the walked word would give
            i = (i - n) % N
            c = factor[i * m % N] * c
            acc.amps[i] = acc.amps[i] + c
        if not acc.is_zero():
            seed = acc
            break
    if seed is None:
        raise NotGenerating("no S-eigenvector found (S does not act cyclically)")

    # no phase to fix: the first start with a nonzero projection is the smallest
    # index of its S-orbit, so the first nonzero amplitude is N/L > 0 (orbit length L)
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
