"""Divisibility lattice of rational Weyl algebras A(a,b) = <U^a, V^b>.

Everything here is exact rational/integer arithmetic on generator
exponents: inclusion, centers, the up functor inverse to the center,
joins, maximal commutative subalgebras, Heisenberg automorphisms and
spectra projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import BadMatrix, NotCommutative, NotIncluded, NotInAlgebra

Rat = Fraction


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
        if n < 0:
            return self.inv() ** (-n)
        out = GenWord(Fraction(0), Fraction(0))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def commutator_phase(self, other: "GenWord") -> Fraction:
        """Symplectic pairing t with (other)(self) = e^{2 pi i t} (self)(other).

        For the standard generators this is [U, V] = q: the phase by which
        the shift moves past the clock.
        """
        return _mod1(self.u_exp * other.v_exp - other.u_exp * self.v_exp)

    def __repr__(self):
        return f"GenWord(U^{self.u_exp} V^{self.v_exp}, e2pi({self.phase}))"


IDENTITY_WORD = GenWord(Fraction(0), Fraction(0))


@dataclass(frozen=True)
class AutDesc:
    """Heisenberg automorphism data: 2x2 integer matrix plus two q-powers."""

    g: tuple[tuple[int, int], tuple[int, int]]
    n: int = 0
    m: int = 0

    def det(self) -> int:
        return self.g[0][0] * self.g[1][1] - self.g[0][1] * self.g[1][0]


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


def spectrum_project(B: WeylDesc, A: WeylDesc, beta):
    """pi_BA: spectra of B map onto spectra of A by raising to relative powers.

    Z(A) = <U^{Na a}, V^{Na b}> sits inside Z(B); its generators are the
    (Na/(n Nb))-th and (Na/(k Nb))-th powers of Z(B)'s generators.
    """
    from .repmod import SpecPoint

    n, k = relative_indices(B, A)
    NA, NB = q_order(A), q_order(B)
    ru = Fraction(NA, n * NB)
    rv = Fraction(NA, k * NB)
    if ru.denominator != 1 or rv.denominator != 1:
        raise NotIncluded("central generators do not align (unexpected)")
    return SpecPoint(beta.u_phase * int(ru), beta.v_phase * int(rv))


def apply_automorphism(xi: AutDesc, w: GenWord, A: WeylDesc) -> GenWord:
    """Image of w under xi_{g,n,m}: U^a -> q^n U^{g11 a} V^{g12 b}, etc."""
    N = q_order(A)
    if xi.det() % N != 1 % N:
        raise BadMatrix(f"det {xi.det()} != 1 mod {N}")
    j, k = A.word_coords(w)
    q = A.q_phase
    img_u = GenWord(xi.g[0][0] * A.a, xi.g[0][1] * A.b, xi.n * q)
    img_v = GenWord(xi.g[1][0] * A.a, xi.g[1][1] * A.b, xi.m * q)
    return GenWord(Fraction(0), Fraction(0), w.phase) * (img_u ** j) * (img_v ** k)


# ---------------------------------------------------------------------------
# rank-2 rational lattices (used for composing transformations)
# ---------------------------------------------------------------------------

def _row_hnf_2col(rows: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Hermite-style basis of the row lattice generated by integer 2-vectors."""
    rows = [(int(x), int(y)) for x, y in rows if x or y]
    if not rows:
        return []
    piv = None
    rest = []
    for r in rows:
        if piv is None:
            piv = r
            continue
        a, b = piv, r
        while b[0]:
            q, (a, b) = a[0] // b[0], (b, a)
            b = (b[0] - q * a[0], b[1] - q * a[1])
        piv = a
        if b[1]:
            rest.append(b)
    if piv is not None and piv[0] == 0:
        if piv[1]:
            rest.append(piv)
        piv = None
    g2 = 0
    for _, y in rest:
        g2 = gcd(g2, abs(y))
    out = []
    if piv is not None:
        x, y = piv
        if x < 0:
            x, y = -x, -y
        if g2:
            y %= g2
        out.append((x, y))
    if g2:
        out.append((0, g2))
    return out


def _mat_inv_t(rows):
    """(M^{-1})^T for a 2x2 full-rank matrix given as two rows."""
    (a, b), (c, d) = rows
    det = a * d - b * c
    if det == 0:
        raise ValueError("lattice basis is singular")
    return [(Fraction(d, 1) / det, Fraction(-c, 1) / det),
            (Fraction(-b, 1) / det, Fraction(a, 1) / det)]


def lattice_intersect(rows1, rows2):
    """Intersection of two full-rank rational lattices in Q^2 (rows generate).

    Computed through duals: (L1 n L2)* = L1* + L2*.
    """
    d1 = _mat_inv_t([[Fraction(x) for x in r] for r in rows1])
    d2 = _mat_inv_t([[Fraction(x) for x in r] for r in rows2])
    stacked = list(d1) + list(d2)
    den = 1
    for r in stacked:
        for x in r:
            den = den * x.denominator // gcd(den, x.denominator)
    int_rows = [(int(x * den), int(y * den)) for x, y in stacked]
    H = _row_hnf_2col(int_rows)
    if len(H) != 2:
        raise ValueError("dual sum is not full rank")
    sum_basis = [[Fraction(x, den) for x in r] for r in H]
    back = _mat_inv_t(sum_basis)
    return [tuple(r) for r in back]
