"""Divisibility lattice of rational Weyl algebras A(a,b) = <U^a, V^b>.

Everything here is exact rational/integer arithmetic on generator
exponents: words and their group law, inclusion, centers, the up functor
inverse to the center, joins, maximal commutative subalgebras and spectra
projections of their points (`SpecPoint`).  A matrix g of SL(2,Q) acts on
words by `word_image`, the one statement of that action (every transform's
sigma is derived from it), and `lattice_intersect` finds the common
subalgebra when transforms compose.  The Gaussian and harmonic-oscillator
submodule rules (`gaussian_dim`, `check_triple`, `qho_dim`) and the numpy
routing rule (`numpy_pays`) are written here once, where the exact layers
and the float `dirac` both read them without loading each other.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (DivisibilityViolation, NotCommutative, NotDividing, NotIncluded, NotInAlgebra,
                     NotPythagorean, OddOrder)


def _mod1(x) -> Fraction:
    """x reduced to [0, 1): a phase as a fraction of a full turn."""
    x = Fraction(x)
    return x - (x.numerator // x.denominator)


def rat_gcd(x: Fraction, y: Fraction) -> Fraction:
    """gcd on Q: generator of the group xZ + yZ."""
    return Fraction(gcd(x.numerator * y.denominator, y.numerator * x.denominator),
                    x.denominator * y.denominator)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylDesc:
    """Rational Weyl algebra A(a,b), the group algebra of <U^a, V^b>."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a == 0 or self.b == 0:
            raise ValueError("generator exponents must be nonzero")

    @property
    def N(self) -> int:
        return q_order(self)

    @property
    def q_phase(self) -> Fraction:
        """q = e^{2 pi i ab} as a fraction of a full turn, reduced mod 1."""
        return _mod1(self.a * self.b)

    def is_commutative(self) -> bool:
        return q_order(self) == 1

    def contains_word(self, w: "GenWord") -> bool:
        return (w.u_exp / self.a).denominator == 1 and (w.v_exp / self.b).denominator == 1

    def word_coords(self, w: "GenWord") -> tuple[int, int]:
        """Integer coordinates (j,k) with w = phase * (U^a)^j (V^b)^k."""
        ju, kv = w.u_exp / self.a, w.v_exp / self.b
        if ju.denominator != 1 or kv.denominator != 1:
            raise NotInAlgebra(f"word {w} is not in A({self.a},{self.b})")
        return int(ju), int(kv)

    def __repr__(self):
        return f"A({self.a},{self.b})"


@dataclass(frozen=True)
class GenWord:
    """Pseudo-unitary group element e^{2 pi i phase} U^{u_exp} V^{v_exp}.

    The group law matches the clock/shift realization (U diagonal with
    ascending eigenvalues, V an index-decrement shift), in which moving V
    past U costs V^y U^x = e^{2 pi i xy} U^x V^y.
    """

    u_exp: Fraction
    v_exp: Fraction
    phase: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "u_exp", Fraction(self.u_exp))
        object.__setattr__(self, "v_exp", Fraction(self.v_exp))
        object.__setattr__(self, "phase", _mod1(self.phase))

    def __mul__(self, other: "GenWord") -> "GenWord":
        return GenWord(
            self.u_exp + other.u_exp,
            self.v_exp + other.v_exp,
            self.phase + other.phase + other.u_exp * self.v_exp,
        )

    def inv(self) -> "GenWord":
        return GenWord(-self.u_exp, -self.v_exp, -self.phase + self.u_exp * self.v_exp)

    def __pow__(self, n: int) -> "GenWord":
        """w^n for every integer n: phase n p plus u v once per pair of factors, n(n-1)/2 times."""
        u, v = self.u_exp, self.v_exp
        return GenWord(n * u, n * v, n * self.phase + n * (n - 1) // 2 * u * v)

    def commutator_phase(self, other: "GenWord") -> Fraction:
        """Symplectic pairing t with (other)(self) = e^{2 pi i t} (self)(other).

        For the standard generators this is [U, V] = q: the phase by which
        the shift moves past the clock.
        """
        return _mod1(self.u_exp * other.v_exp - other.u_exp * self.v_exp)

    def __repr__(self):
        return f"GenWord(U^{self.u_exp} V^{self.v_exp}, e2pi({self.phase}))"


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

    @staticmethod
    def principal_point() -> "SpecPoint":
        return SpecPoint(Fraction(0), Fraction(0))


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------

def q_order(A: WeylDesc) -> int:
    """Order N of q = e^{2 pi i ab}: the denominator of the reduced product."""
    return (A.a * A.b).denominator


def center(A: WeylDesc) -> WeylDesc:
    N = q_order(A)
    return WeylDesc(N * A.a, N * A.b)


def up_functor(C: WeylDesc) -> WeylDesc:
    """Smallest Weyl algebra whose center is C (inverse of `center`)."""
    if not C.is_commutative():
        raise NotCommutative(f"{C} is not commutative")
    W = C.a * C.b
    assert W.denominator == 1
    return WeylDesc(C.a / W, C.b / W)


def includes(B: WeylDesc, A: WeylDesc) -> bool:
    """True iff B is a subalgebra of A (exponents are integer multiples)."""
    return (B.a / A.a).denominator == 1 and (B.b / A.b).denominator == 1


def relative_indices(B: WeylDesc, A: WeylDesc) -> tuple[int, int]:
    """(n, k) with B = <U^{na}, V^{kb}> inside A = A(a, b)."""
    if not includes(B, A):
        raise NotIncluded(f"{B} is not included in {A}")
    return int(B.a / A.a), int(B.b / A.b)


def join(A: WeylDesc, B: WeylDesc) -> WeylDesc:
    """Smallest rational Weyl algebra containing both (gcd of exponent lattices)."""
    return WeylDesc(rat_gcd(A.a, B.a), rat_gcd(A.b, B.b))


def _cyclic_subgroups_order_n(N: int) -> list[tuple[int, int]]:
    """Canonical generators of the cyclic subgroups of order N in (Z/N)^2."""
    if N == 1:
        return [(0, 0)]
    units = [u for u in range(1, N) if gcd(u, N) == 1]
    seen = set()
    out = []
    for g1 in range(N):
        for g2 in range(N):
            order = N // gcd(gcd(g1, g2), N)
            if order != N:
                continue
            canon = min(((u * g1) % N, (u * g2) % N) for u in units)
            if canon not in seen:
                seen.add(canon)
                out.append(canon)
    out.sort()
    return out


def maximal_commutative(A: WeylDesc) -> list[GenWord]:
    """Generators over Z(A) of the maximal commutative subalgebras O(A).

    Each C in O(A) is generated over the center by one pseudo-unitary
    W = U^{g1 a} V^{g2 b}; (g1, g2) ranges over canonical generators of
    the order-N cyclic subgroups of (Z/N)^2.
    """
    N = q_order(A)
    if N == 1:
        return [GenWord(A.a, A.b)]
    return [GenWord(g1 * A.a, g2 * A.b) for g1, g2 in _cyclic_subgroups_order_n(N)]


def spectrum_project(B: WeylDesc, A: WeylDesc, beta: SpecPoint) -> SpecPoint:
    """pi_BA: spectra of B map onto spectra of A by raising to relative powers.

    Z(A) = <U^{Na a}, V^{Na b}> sits inside Z(B); its generators are the
    (Na/(n Nb))-th and (Na/(k Nb))-th powers of Z(B)'s generators.
    """
    n, k = relative_indices(B, A)
    NA, NB = q_order(A), q_order(B)
    ru = Fraction(NA, n * NB)
    rv = Fraction(NA, k * NB)
    if ru.denominator != 1 or rv.denominator != 1:
        raise NotDividing(f"indices ({n},{k}) do not divide the dimension {NA}")
    return SpecPoint(beta.u_phase * int(ru), beta.v_phase * int(rv))


# ---------------------------------------------------------------------------
# rules both the exact and float layers read: submodules, numpy routing
# ---------------------------------------------------------------------------

def gaussian_dim(N: int, b: int, d: int) -> int:
    """Nb = N/|bd| for the Gaussian's <U^d, V^b>-submodule; refuses b = 0 or
    d < 1 (the sign of t = b/d is b's), bd not dividing N (NotDividing) and
    odd Nb (OddOrder: sqrt(Nb)/G(Nb) needs even order).  `transform.gaussian`
    and `dirac.free_propagator` both check here."""
    if b == 0:
        raise DivisibilityViolation("b must be nonzero")
    if d < 1:
        raise DivisibilityViolation(f"d must be a positive integer, got {d}: the sign of t = b/d goes in b")
    bd = abs(b * d)
    if N % bd != 0:
        raise NotDividing(f"bd = {bd} must divide N = {N}")
    Nb = N // bd
    if Nb % 2 != 0:
        raise OddOrder(f"submodule dimension {Nb} is odd; the constant needs even order")
    return Nb


def check_triple(e: int, f: int, c: int) -> None:
    """Refuse (e, f, c) unless it is a Pythagorean triple of positive
    integers, sin t = e/c and cos t = f/c (NotPythagorean).  `qho_dim`, for
    the exact and float evolutions, and `dirac.qho_trace` both check here."""
    if e <= 0 or f <= 0 or c <= 0 or e * e + f * f != c * c:
        raise NotPythagorean(f"({e},{f},{c}) is not a Pythagorean triple of positive integers")


def qho_dim(N: int, e: int, f: int, c: int) -> int:
    """N/(c^2 e) for the QHO's <U^c, V^{ce}>-submodule; refuses a triple that
    `check_triple` refuses, c^2 e not dividing N and odd f N/e, where the
    kernel is not periodic on the module, so no transform has this matrix.
    `transform.qho_evolution` and `dirac.qho_propagator` both check here."""
    check_triple(e, f, c)
    if N % (c * c * e):
        raise DivisibilityViolation(f"need c^2 e = {c * c * e} | N = {N}")
    if f * N // e % 2:
        raise DivisibilityViolation(f"need f N/e = {f * N // e} even")
    return N // (c * c * e)


def numpy_pays(size: int, import_size: int) -> bool:
    """Whether a sum of `size` terms is evaluated with numpy: always once
    numpy is loaded, and before that only a sum of `import_size` terms or
    more, whose plain-Python time would exceed the import.  The rule reads
    only its input and the process: the same sum routes alike in any process
    with numpy in the same state."""
    return "numpy" in sys.modules or size >= import_size


# ---------------------------------------------------------------------------
# 2x2 rational matrices and rank-2 rational lattices (used for composing
# transformations)
# ---------------------------------------------------------------------------

def _row_basis(rows: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Basis (x, y), (0, g) with x > 0 and 0 <= y < g of the full-rank lattice
    that integer 2-vectors span: one Euclid pass on the first column, each row
    carried along, and g the gcd of the second entries left over."""
    piv, g = rows[0], 0
    for r in rows[1:]:
        while r[0]:
            f = piv[0] // r[0]
            piv, r = r, (piv[0] - f * r[0], piv[1] - f * r[1])
        g = gcd(g, r[1])
    x, y = piv if piv[0] > 0 else (-piv[0], -piv[1])
    return [(x, y % g), (0, g)]


Mat2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


def mat_mul(g1: Mat2, g2: Mat2) -> Mat2:
    return (
        (g1[0][0] * g2[0][0] + g1[0][1] * g2[1][0], g1[0][0] * g2[0][1] + g1[0][1] * g2[1][1]),
        (g1[1][0] * g2[0][0] + g1[1][1] * g2[1][0], g1[1][0] * g2[0][1] + g1[1][1] * g2[1][1]),
    )


def mat_det(g: Mat2) -> Fraction:
    return g[0][0] * g[1][1] - g[0][1] * g[1][0]


def mat_inv(g: Mat2) -> Mat2:
    d = Fraction(mat_det(g))
    return ((g[1][1] / d, -g[0][1] / d), (-g[1][0] / d, g[0][0] / d))


def word_image(w: GenWord, g: Mat2, A: WeylDesc) -> GenWord:
    """Image of w under the automorphism W(x) -> W(x g) of g in SL(2,Q).

    Words are written symmetrically, W(j, k) = q^{jk/2} U^{ja} V^{kb} with
    q = A.q_phase reduced mod 1: w = e^{2 pi i phi} W(j, k) goes to
    e^{2 pi i (phi + (j'k' - jk) q/2)} U^{j'a} V^{k'b}, (j', k') = (j, k) g.
    The image may leave A when g is not integral.  Raises NotInAlgebra
    when w is not in A.
    """
    j, k = A.word_coords(w)
    jg = j * g[0][0] + k * g[1][0]
    kg = j * g[0][1] + k * g[1][1]
    return GenWord(jg * A.a, kg * A.b, w.phase + (jg * kg - j * k) * A.q_phase / 2)


def lattice_intersect(rows1, rows2):
    """Intersection of two full-rank rational lattices in Q^2 (rows generate).

    Computed through duals: (L1 n L2)* = L1* + L2*, where the dual of the
    lattice with basis rows M has basis rows (M^T)^{-1}.
    """
    stacked = mat_inv(tuple(zip(*rows1))) + mat_inv(tuple(zip(*rows2)))
    den = lcm(*(x.denominator for r in stacked for x in r))
    H = _row_basis([(int(x * den), int(y * den)) for x, y in stacked])
    sum_basis = [[Fraction(x, den) for x in r] for r in H]
    return list(mat_inv(tuple(zip(*sum_basis))))
