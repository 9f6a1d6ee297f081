"""Exact arithmetic over roots of unity with radical scale factors.

Values are elements of Q(zeta_M) scaled by a square root of a positive
rational, i.e. r * sqrt(s) * (cyclotomic element).  This covers every
constant the algebraic layers produce: q^(k/2) phases, 1/sqrt(N) basis
normalisations, quadratic Gauss sums and the constant e^{-i pi/4}.
Floats appear only where a value leaves the exact layer: `Cyc.eval`
embeds zeta_M -> e^{2 pi i/M}, and the quadratic phase sums at the end of
this module serve the float kernels in `dirac`.  Those sums form every
term e^{2 pi i (n^2 mod P)/P} as a product of three phases with exactly
reduced integer exponents, two of them shared by a block of 64 x 64 terms
and one from a table built once per sum, so a block costs one real matrix
product instead of a cos and a sin per term (about 1.3 ns per term against
44 ns on a 2-vCPU x86-64 box, Python 3.11, numpy 2.4, OpenBLAS 0.3.31).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import ExactnessLost, OutOfRange


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------

def _factorize(n: int) -> dict[int, int]:
    """Trial-division factorization; inputs here stay small (lattice sizes)."""
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=4096)
def split_square(n: int) -> tuple[int, int]:
    """Return (s, r) with n = s^2 * r and r squarefree, for n >= 1."""
    s, r = 1, 1
    for p, e in _factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            r *= p
    return s, r


def _rat(x) -> Fraction:
    """Fraction(x), refusing floats: an exact constructor never rounds."""
    if isinstance(x, (float, complex)):
        raise TypeError(f"cannot take {x!r} as an exact rational")
    return Fraction(x)


# ---------------------------------------------------------------------------
# the Zumbroich basis of Q(zeta_M)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_poly(M: int) -> tuple[int, ...]:
    """Coefficients (low to high) of Phi_M: x^M - 1 divided by Phi_d for
    every proper divisor d.  No reduction uses it: the tests' power-basis
    oracles do, and bench/run.py reports its cache."""
    poly = [-1] + [0] * (M - 1) + [1]
    for d in range(1, M):
        if M % d == 0:
            den, quo = cyclotomic_poly(d), []
            for i in range(len(poly) - len(den), -1, -1):  # long division by the monic Phi_d
                c = poly[i + len(den) - 1]
                quo.append(c)
                for j, dj in enumerate(den):
                    poly[i + j] -= c * dj
            poly = quo[::-1]
    return tuple(poly)


@lru_cache(maxsize=None)
def _monomial_rows(M: int) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """The Zumbroich basis of Q(zeta_M) and every zeta_M^e, e < M, on it.

    Returns (basis, rows): the basis exponents in increasing order, and
    rows[e], the (basis exponent, +-1) terms of zeta_M^e: ((e, 1),) when e
    is in the basis, else led by another exponent.  By CRT zeta_M^e is the
    product over the prime powers Q || M of zeta_Q^f, f = e (M/Q)^-1 mod Q.
    With f = j + k Q/p and j < Q/p, zeta_Q^f is a basis factor when k >= 1
    (p odd) or k = 0 (p = 2); otherwise it is -zeta_Q^j (p = 2) or
    -sum_{k'=1..p-1} zeta_Q^(j + k' Q/p) (p odd), as the p-th roots of
    unity sum to zero.
    """
    rows = {0: ((0, 1),)}
    for p, nu in _factorize(M).items():
        Q = p ** nu
        s, t = M // Q, Q // p
        factors = [((f * s, 1),) if (f < t) == (p == 2)
                   else tuple(((f % t + i * t) * s, -1) for i in (range(1, p) if p > 2 else (0,)))
                   for f in range(Q)]
        rows = {(e + f * s) % M: tuple(((a + b) % M, x * y) for a, x in row for b, y in factor)
                for e, row in rows.items() for f, factor in enumerate(factors)}
    return tuple(e for e in range(M) if rows[e][0][0] == e), tuple(rows[e] for e in range(M))


def _on_basis(coeffs: dict, M: int) -> dict:
    """An exponent -> rational map at order M on the Zumbroich basis: copied
    when already on it, else its integer numerators over one denominator
    summed row by row, one Fraction per surviving term."""
    rows = _monomial_rows(M)[1]
    if all(rows[k][0][0] == k for k in coeffs):
        return {k: c for k, c in coeffs.items() if c}
    den = lcm(*[c.denominator for c in coeffs.values()])
    acc = [0] * M
    for k, c in coeffs.items():
        n = c.numerator * (den // c.denominator)
        for b, sign in rows[k]:
            acc[b] += sign * n
    return {b: Fraction(n, den) for b, n in enumerate(acc) if n}


def _subfield(coeffs: dict, M: int):
    """(m, the value on the basis at m) for a proper divisor m of M whose
    field holds the value, given on the Zumbroich basis at M; None when M
    is its conductor."""
    # no basis exponent is a multiple of an odd p || M, so g | M has only primes
    # p = 2 or p^2 | M, where the basis at M/g is the basis at M on multiples of g
    g = gcd(M, *coeffs)
    if g > 1:
        return M // g, {k // g: c for k, c in coeffs.items()}
    for p, nu in _factorize(M).items():
        if p == 2 or nu > 1:
            continue
        # p || M, p odd: terms that differ only in their zeta_p factor f = 1..p-1
        # and share one c sum to -c zeta_{M/p}^((e - (M/p) f)/p); each term's
        # group is complete when every term finds the next one, f + 1 or f = 1
        m, u = M // p, pow(M // p, -1, p)
        if all(coeffs.get((k + m if k * u % p < p - 1 else k - (p - 2) * m) % M) == c
               for k, c in coeffs.items()):
            return m, {(k - m) % M // p: -c for k, c in coeffs.items() if k * u % p == 1}


# ---------------------------------------------------------------------------
# Cyc: elements of Q(zeta_M)
# ---------------------------------------------------------------------------

class Cyc:
    """Element of Q(zeta_M), stored sparsely as exponent -> rational coefficient.

    Terms are kept as built, at any order M that holds the value; they go
    to the canonical form (`canonical`: the Zumbroich basis at the
    conductor) only when one is required (equality, zero tests, printing),
    keeping products of monomials cheap.
    """

    __slots__ = ("order", "coeffs", "_canon")

    def __init__(self, order: int, coeffs: dict[int, Fraction], _trusted: bool = False):
        self.order = order
        if _trusted:
            self.coeffs = coeffs
        else:
            coeffs = {k: _rat(c) for k, c in coeffs.items()}
            reduced = {k % order: c for k, c in coeffs.items() if c}
            if len(reduced) < len(coeffs):
                # keys that collide mod order must add up, not overwrite
                reduced = {}
                for k, c in coeffs.items():
                    k %= order
                    reduced[k] = reduced.get(k, 0) + c
                reduced = {k: c for k, c in reduced.items() if c}
            self.coeffs = reduced
        self._canon = None

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero() -> "Cyc":
        return Cyc(1, {}, _trusted=True)

    @staticmethod
    def rational(r) -> "Cyc":
        return Cyc(1, {0: _rat(r)})

    @staticmethod
    def zeta(M: int, k: int = 1) -> "Cyc":
        return Cyc(M, {k % M: Fraction(1)})

    # -- conversions ---------------------------------------------------------
    def lift(self, order: int) -> "Cyc":
        if order == self.order:
            return self
        step = order // self.order
        return Cyc(order, {k * step: c for k, c in self.coeffs.items()}, _trusted=True)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "Cyc") -> "Cyc":
        L = lcm(self.order, other.order)
        a, b = self.lift(L), other.lift(L)
        out = dict(a.coeffs)
        for k, c in b.coeffs.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Cyc(L, out, _trusted=True)

    def __neg__(self) -> "Cyc":
        return Cyc(self.order, {k: -c for k, c in self.coeffs.items()}, _trusted=True)

    def __sub__(self, other: "Cyc") -> "Cyc":
        return self + (-other)

    def __mul__(self, other: "Cyc") -> "Cyc":
        L = lcm(self.order, other.order)
        if not self.coeffs or not other.coeffs:
            return Cyc(L, {}, _trusted=True)
        if len(self.coeffs) == 1 and len(other.coeffs) == 1:
            (k1, c1), = self.coeffs.items()
            (k2, c2), = other.coeffs.items()
            k = k1 * (L // self.order) + k2 * (L // other.order)
            # a phase times a monomial: reuse the other coefficient, no Fraction product
            c = c2 if c1 == 1 else c1 if c2 == 1 else c1 * c2
            return Cyc(L, {k % L: c}, _trusted=True)
        a, b = self.lift(L), other.lift(L)
        out: dict[int, Fraction] = {}
        for k1, c1 in a.coeffs.items():
            for k2, c2 in b.coeffs.items():
                k = (k1 + k2) % L
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return Cyc(L, out, _trusted=True)

    def scale(self, r) -> "Cyc":
        r = _rat(r)
        if not r:
            return Cyc(self.order, {}, _trusted=True)
        return Cyc(self.order, {k: c * r for k, c in self.coeffs.items()}, _trusted=True)

    def conj(self) -> "Cyc":
        return Cyc(
            self.order,
            {(self.order - k) % self.order: c for k, c in self.coeffs.items()},
            _trusted=True,
        )

    def inverse(self) -> "Cyc":
        """1/x.  One term c zeta^k inverts to c^-1 zeta^-k at the same order.
        Otherwise x^-1 = prod_{j != 1} sigma_j(x) / N(x), where sigma_j sends
        zeta_M to zeta_M^j for each j coprime to the conductor M and the
        norm N(x) = x prod_{j != 1} sigma_j(x) is rational (Washington,
        Introduction to Cyclotomic Fields).  Zero raises ZeroDivisionError."""
        if len(self.coeffs) == 1:
            (k, c), = self.coeffs.items()
            return Cyc(self.order, {-k % self.order: 1 / Fraction(c)}, _trusted=True)
        a = self.canonical()
        if not a.coeffs:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        M = a.order
        rest = Cyc.rational(1)
        for j in range(2, M):
            if gcd(j, M) == 1:
                rest = rest * Cyc(M, {k * j % M: c for k, c in a.coeffs.items()}, _trusted=True)
        return rest.scale(1 / (a * rest).rational_value())

    # -- canonical form ------------------------------------------------------
    def canonical(self) -> "Cyc":
        """The value on the Zumbroich basis of Q(zeta_M) at its conductor M,
        the least order whose field holds it: one form per value, whatever
        the order and route it was built by.  The terms are rewritten on the
        basis, then the order steps down (`_subfield`) while a smaller field
        holds the value; each step lands on the smaller basis."""
        if self._canon is not None:
            return self._canon
        M, coeffs = self.order, _on_basis(self.coeffs, self.order)
        while (step := _subfield(coeffs, M)) is not None:
            M, coeffs = step
        red = Cyc(M, coeffs, _trusted=True)
        red._canon = red
        self._canon = red
        return red

    def is_zero(self) -> bool:
        if not self.coeffs:
            return True
        if len(self.coeffs) == 1:
            return False  # a single monomial is never zero
        return not self.canonical().coeffs

    def is_rational(self) -> bool:
        return self.canonical().order == 1

    def rational_value(self) -> Fraction:
        c = self.canonical()
        if c.order != 1:
            raise ExactnessLost("cyclotomic element is not rational")
        return c.coeffs.get(0, Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cyc):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self) -> str:
        c = self.canonical()
        if not c.coeffs:
            return "0"
        terms = [f"{v}*z{c.order}^{k}" if k else f"{v}" for k, v in sorted(c.coeffs.items())]
        return " + ".join(terms)

    def eval(self) -> complex:
        """Value under zeta_M -> e^{2 pi i/M}, the terms summed by math.fsum.

        Each root is taken from its nearest quarter turn: with 4k = qM + n and
        |n| <= M/2, zeta_M^k = i^q e^{i pi n/(2M)}, whose angle stays within
        pi/4 and is computed from the exact integer n.
        """
        M = self.order
        re, im = [], []
        for k, c in self.coeffs.items():
            q, r = divmod(4 * k + M // 2, M)
            t = math.pi * (r - M // 2) / (2 * M)
            x, y = math.cos(t), math.sin(t)
            for _ in range(q % 4):
                x, y = -y, x
            c = float(c)
            re.append(c * x)
            im.append(c * y)
        return complex(math.fsum(re), math.fsum(im))


# ---------------------------------------------------------------------------
# square roots of squarefree integers as cyclotomic elements
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def sqrt_as_cyc(n: int) -> Cyc:
    """sqrt(n) for squarefree n >= 1 as an element of Q(zeta_{4n})."""
    if n == 1:
        return Cyc.rational(1)
    out = Cyc.rational(1)
    for p in _factorize(n):
        if p == 2:
            root = Cyc(8, {1: Fraction(1), 7: Fraction(1)})
        else:
            g = Cyc(p, {})
            for k in range(p):
                g = g + Cyc.zeta(p, (k * k) % p)
            if p % 4 == 1:
                root = g
            else:
                root = Cyc.zeta(4, 3) * g  # sqrt(p) = -i * (i sqrt(p))
        out = out * root
    return out


# ---------------------------------------------------------------------------
# Scalar: exact sqrt(rad) * cyc
# ---------------------------------------------------------------------------

class Scalar:
    """Amplitude value sqrt(rad) * cyc, rad a positive squarefree integer."""

    __slots__ = ("rad", "cyc")

    def __init__(self, rad: int, cyc: Cyc):
        self.rad = rad
        self.cyc = cyc

    # -- constructors --------------------------------------------------------
    @staticmethod
    def exact(cyc: Cyc, rad_num: int | Fraction = 1, rad_den: int | Fraction = 1) -> "Scalar":
        """sqrt(rad_num/rad_den) * cyc for rationals, normalised to an integer radicand."""
        num, den = _rat(rad_num), _rat(rad_den)
        if num <= 0 or den <= 0:
            raise ValueError("radicand must be positive")
        x = num / den
        # sqrt(p/q) = sqrt(p*q)/q
        s, r = split_square(x.numerator * x.denominator)
        return Scalar(r, cyc.scale(Fraction(s, x.denominator)))

    @staticmethod
    def rational(x) -> "Scalar":
        return Scalar(1, Cyc.rational(x))

    @staticmethod
    def zero() -> "Scalar":
        return Scalar(1, Cyc.zero())

    @staticmethod
    def one() -> "Scalar":
        return Scalar.rational(1)

    @staticmethod
    def phase(turns: Fraction) -> "Scalar":
        """e^{2 pi i turns} for rational turns."""
        t = _rat(turns)
        return _phase_cached(t.numerator % t.denominator, t.denominator)

    # -- radical handling ----------------------------------------------------
    def lift_radical(self) -> "Scalar":
        """Fold sqrt(rad) into the cyclotomic part (rad becomes 1)."""
        if self.rad == 1:
            return self
        return Scalar(1, self.cyc * sqrt_as_cyc(self.rad))

    # -- arithmetic ----------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Scalar":
        """Scalars pass through and ints or Fractions become rational scalars."""
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.rational(other)
        raise TypeError(f"cannot coerce {other!r} to an exact Scalar")

    def __mul__(self, other) -> "Scalar":
        if not isinstance(other, Scalar):
            other = self._coerce(other)
        if self.rad == 1 and other.rad == 1:
            return Scalar(1, self.cyc * other.cyc)
        s, r = split_square(self.rad * other.rad)
        cyc = self.cyc * other.cyc
        return Scalar(r, cyc if s == 1 else cyc.scale(s))

    __rmul__ = __mul__

    def __add__(self, other) -> "Scalar":
        other = self._coerce(other)
        if self.rad == other.rad:
            return Scalar(self.rad, self.cyc + other.cyc)
        a, b = self.lift_radical(), other.lift_radical()
        return Scalar(1, a.cyc + b.cyc)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(self.rad, -self.cyc)

    def __sub__(self, other) -> "Scalar":
        other = self._coerce(other)
        if (
            self.rad == other.rad
            and self.cyc.order == other.cyc.order
            and self.cyc.coeffs == other.cyc.coeffs
        ):
            return Scalar(1, Cyc.zero())
        return self + (-other)

    def inv(self) -> "Scalar":
        # 1/(sqrt(r) c) = sqrt(r) c^{-1} / r
        return Scalar(self.rad, self.cyc.inverse().scale(Fraction(1, self.rad)))

    def __truediv__(self, other) -> "Scalar":
        return self * self._coerce(other).inv()

    def conj(self) -> "Scalar":
        return Scalar(self.rad, self.cyc.conj())

    def __eq__(self, other) -> bool:
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return (self - other).is_zero()

    def is_zero(self) -> bool:
        return self.cyc.is_zero()

    def canonical(self) -> "Scalar":
        """The same value with its cyclotomic part in canonical form."""
        return Scalar(self.rad, self.cyc.canonical())

    def is_rational(self) -> bool:
        return self.rad == 1 and self.cyc.is_rational()

    def rational_value(self) -> Fraction:
        if self.rad != 1:
            if self.cyc.is_zero():
                return Fraction(0)
            raise ExactnessLost("scalar carries a radical factor")
        return self.cyc.rational_value()

    def sqrt_of_rational(self) -> "Scalar":
        """sqrt of a nonnegative rational scalar (norms)."""
        v = self.rational_value()
        if v < 0:
            raise ExactnessLost("negative radicand")
        return Scalar.exact(Cyc.rational(1), v.numerator, v.denominator)

    # -- numerics ------------------------------------------------------------
    def to_complex(self) -> complex:
        return self.cyc.eval() * math.sqrt(self.rad)

    def __repr__(self) -> str:
        if self.rad == 1:
            return f"Scalar({self.cyc!r})"
        return f"Scalar(sqrt({self.rad})*({self.cyc!r}))"


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=20000)
def _phase_cached(num: int, den: int) -> Scalar:
    return Scalar(1, Cyc.zeta(den, num))


def root_of_unity(M: int, k: int) -> Scalar:
    """Exact zeta_M^k."""
    if M < 1:
        raise ValueError("order must be positive")
    return Scalar(1, Cyc.zeta(M, k % M))


def gauss_sum(N: int) -> Scalar:
    """Exact quadratic Gauss sum G(N) = sum_m e^{i pi m^2 / N}."""
    if N < 1:
        raise ValueError("N must be positive")
    M = 2 * N
    counts: dict[int, int] = {}
    for m in range(N):
        k = (m * m) % M
        counts[k] = counts.get(k, 0) + 1
    return Scalar(1, Cyc(M, {k: Fraction(c) for k, c in counts.items()}, _trusted=True))


# quadratic_phase_sum writes n = a B + b1 S + b0 with S = PHASE_SIDE and a block
# of B = S^2 terms; a shared S x S table holds the phases of b = b1 S + b0.
PHASE_SIDE = 64
PHASE_BLOCK = PHASE_SIDE * PHASE_SIDE
# Blocks summed by one float64 product of shape (PHASE_GROUP, 2S) @ (2S, 2S).
# At this size OpenBLAS runs it on the calling thread: a product handed to a
# second thread stalled for 8-30 ms at a time on a shared 2-vCPU host.
PHASE_GROUP = 32
# Largest n whose square int64 holds (3037000499).
INT64_SQRT_MAX = math.isqrt(2**63 - 1)


def quadratic_phase_sum(P: int, sign: int, stop: int) -> complex:
    """sum_{0 <= n < stop} e^{2 pi i sign (n^2 mod P)/P}, in bounded memory.

    Every term is formed and summed; only the cos and sin are shared.  With
    e(x) = e^{2 pi i sign x}, n = a B + b, b = b1 S + b0 (B = S^2 =
    PHASE_BLOCK), c_a = (a B)^2 mod P and g_a = 2 a B mod P, the term is the
    product of three phases

        e((c_a + g_a S b1 mod P)/P) * R[b1, b0] * e((g_a b0 mod P)/P),

    with R[b1, b0] = e((b^2 mod P)/P) built once per call, each exponent
    reduced mod P exactly in int64.  A block is then u_a^T R v_a:
    PHASE_GROUP blocks take one real matrix product and 2 S cos/sin pairs
    per block, against one pair per term when evaluated directly.  A range
    shorter than one block builds no table, and it and the tail after the
    last whole block are evaluated directly with int64 squares.  Memory is
    R plus one group of u and v, whatever the range.  The group partials
    and the tail are combined by math.fsum.  Raises OutOfRange, before
    anything is allocated, when (stop - 1)^2 would overflow int64.
    """
    if stop - 1 > INT64_SQRT_MAX:
        raise OutOfRange(
            f"largest index n = {stop - 1} would overflow int64 in n^2 "
            f"(need n <= {INT64_SQRT_MAX})"
        )
    import numpy as np

    S, B = PHASE_SIDE, PHASE_BLOCK
    w = 2 * np.pi * sign / P
    blocks = max(stop, 0) // B
    re, im = [], []
    if blocks:
        b = np.arange(B, dtype=np.int64)
        t = w * (b * b % P).reshape(S, S)
        R = np.empty((2 * S, 2 * S))  # [[Re R, Im R], [-Im R, Re R]]
        np.cos(t, out=R[:S, :S])
        np.sin(t, out=R[:S, S:])
        R[S:, S:] = R[:S, :S]
        np.negative(R[:S, S:], out=R[S:, :S])
        k = np.arange(S, dtype=np.int64)
        for a0 in range(0, blocks, PHASE_GROUP):
            a = np.arange(a0, min(a0 + PHASE_GROUP, blocks), dtype=np.int64)[:, None]
            # r = a B mod P <= stop - B, so c_a <= r^2 and g_a S b1 <= 2 r (B - S)
            # keep every exponent below (stop - S)^2: exact in int64 under the
            # guard above, whatever P
            r = a * B % P
            g = 2 * r % P
            tu = w * ((r * r % P + g * S * k) % P)
            tv = w * (g * k % P)
            U = np.empty((len(a), 2 * S))  # [Re u | Im u], one row per block
            np.cos(tu, out=U[:, :S])
            np.sin(tu, out=U[:, S:])
            W = U @ R  # [Re u^T R | Im u^T R]
            cv, sv = np.cos(tv), np.sin(tv)
            re.append(float((W[:, :S] * cv - W[:, S:] * sv).sum()))
            im.append(float((W[:, :S] * sv + W[:, S:] * cv).sum()))
    n = np.arange(blocks * B, stop, dtype=np.int64)
    theta = w * ((n * n) % P)
    re.append(float(np.cos(theta).sum()))
    im.append(float(np.sin(theta).sum()))
    return complex(math.fsum(re), math.fsum(im))


def symmetric_phase_sum(P: int, sign: int, K: int) -> complex:
    """sum_{0 <= n < K} e^{2 pi i sign (n^2 mod P)/P} from half the terms.

    Requires K even with P | 2K and P | K^2, so that n and K - n give the
    same n^2 mod P: the sum is twice the terms n = 0..K/2 less the two
    unpaired ones, n = 0 and n = K/2.
    """
    if K % 2 or (2 * K) % P or (K * K) % P:
        raise ValueError(f"n -> K - n is not a symmetry of n^2 mod {P} for K = {K}")
    half = K // 2
    middle = cmath.exp(2j * math.pi * sign * (half * half % P) / P)
    return 2 * quadratic_phase_sum(P, sign, half + 1) - 1 - middle


def gauss_sum_float(N: int, sign: int = 1) -> complex:
    """G(N) = sum_{m<N} e^{i pi sign m^2/N} by direct summation in floats.

    For even N, m and N - m agree mod 2N in m^2, so half the terms suffice.
    """
    if N % 2:
        return quadratic_phase_sum(2 * N, sign, N)
    return symmetric_phase_sum(2 * N, sign, N)


def _accumulate(acc: dict, pairs, L: int, sign: int) -> None:
    """Add every product of the pairs of Scalars into acc.

    The product of c zeta_oa^ka sqrt(ra) and c' zeta_ob^kb sqrt(rb) adds the
    integer s num(c) num(c') at the key (r, den(c) den(c'), sign ka L/oa +
    kb L/ob mod L), where (s, r) = split_square(ra rb) and L is a multiple
    of every order; sign = -1 conjugates the first Scalar.  Coefficients
    may be Fractions or ints.
    """
    get = acc.get
    for a, b in pairs:
        s, r = split_square(a.rad * b.rad)
        sa, sb = sign * (L // a.cyc.order), L // b.cyc.order
        for ka, fa in a.cyc.coeffs.items():
            ka, na, da = ka * sa, fa.numerator * s, fa.denominator
            for kb, fb in b.cyc.coeffs.items():
                key = (r, da * fb.denominator, (ka + kb * sb) % L)
                acc[key] = get(key, 0) + na * fb.numerator


def _scalar_of(acc: dict, L: int, scale: int) -> Scalar:
    """The sum over acc's entries (r, d, k) -> n of n/(d scale) sqrt(r) zeta_L^k.

    Per radicand the numerators go over one common denominator and each
    term becomes one Fraction; the radicands' Scalars are added in order
    of first use.
    """
    dens: dict[int, int] = {}
    for r, d, _ in acc:
        dens[r] = lcm(dens.get(r, 1), d)
    nums: dict[int, dict[int, int]] = {r: {} for r in dens}
    for (r, d, k), n in acc.items():
        part = nums[r]
        part[k] = part.get(k, 0) + n * (dens[r] // d)
    total = None
    for r, part in nums.items():
        den = dens[r] * scale
        coeffs = {k: Fraction(n, den) for k, n in part.items() if n}
        if coeffs:
            term = Scalar(r, Cyc(L, coeffs, _trusted=True))
            total = term if total is None else total + term
    return Scalar.zero() if total is None else total


def dot(xs, ys, conj: bool = False) -> Scalar:
    """Exact sum_i xs[i] * ys[i], or sum_i conj(xs[i]) * ys[i] when conj is set.

    Beyond a lone pair, no product is built as a Scalar: `_accumulate` sums
    the products' integer numerators keyed by radicand, denominator and
    exponent at L, the lcm of the orders, and each term of the result
    becomes one Fraction at the end.
    """
    pairs = [(a, b) for a, b in zip(xs, ys) if a.cyc.coeffs and b.cyc.coeffs]
    if not pairs:
        return Scalar.zero()
    if len(pairs) == 1:  # a single product: no accumulation to share
        a, b = pairs[0]
        return (a.conj() if conj else a) * b
    L = lcm(*{s.cyc.order for pair in pairs for s in pair})
    acc: dict[tuple[int, int, int], int] = {}
    _accumulate(acc, pairs, L, -1 if conj else 1)
    return _scalar_of(acc, L, 1)


def sum_abs2(forms) -> Scalar:
    """Exact sum over forms (xs, ys) of |s|^2, s = sum_i conj(xs[i]) * ys[i].

    No s is built as a Scalar.  `_accumulate` sums each s, which is then
    held as integer numerators over D^2 (D the lcm of every coefficient
    denominator), keyed by radicand and by exponent at one order L common
    to all forms.  |s|^2 = conj(s) s goes into one accumulator by the same
    rule, and each term of the result becomes one Fraction at the end.
    """
    forms = [[(a, b) for a, b in zip(xs, ys) if a.cyc.coeffs and b.cyc.coeffs]
             for xs, ys in forms]
    cycs = {id(s): s.cyc for form in forms for pair in form for s in pair}.values()
    if not cycs:
        return Scalar.zero()
    L = lcm(*{c.order for c in cycs})
    D2 = lcm(*{f.denominator for c in cycs for f in c.coeffs.values()}) ** 2
    acc: dict[tuple[int, int, int], int] = {}
    for form in forms:
        terms: dict[tuple[int, int, int], int] = {}
        _accumulate(terms, form, L, -1)
        parts: dict[int, dict[int, int]] = {}  # s over D^2: radicand -> exponent -> numerator
        for (r, d, k), n in terms.items():
            part = parts.setdefault(r, {})
            part[k] = part.get(k, 0) + n * (D2 // d)
        ops = [Scalar(r, Cyc(L, {k: n for k, n in part.items() if n}, _trusted=True))
               for r, part in parts.items()]
        _accumulate(acc, [(x, y) for x in ops for y in ops], L, -1)
    return _scalar_of(acc, L, D2 * D2)
