"""Exact arithmetic over roots of unity with radical scale factors.

Values are elements of Q(zeta_M) scaled by a square root of a positive
rational, i.e. r * sqrt(s) * (cyclotomic element).  This covers every
constant the algebraic layers produce: q^(k/2) phases, 1/sqrt(N) basis
normalisations, quadratic Gauss sums and the constant e^{-i pi/4}.
Floats appear only where a value leaves the exact layer: `Cyc.eval`
embeds zeta_M -> e^{2 pi i/M}, and the chunked phase sums at the end of
this module serve the float kernels in `dirac`.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import ExactnessLost, OutOfRange

Rat = Fraction


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
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic, divides num)."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    out = [0] * (dn - dd + 1)
    for i in range(dn - dd, -1, -1):
        c = num[i + dd]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(M: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the M-th cyclotomic polynomial.

    Computed by dividing x^M - 1 by the cyclotomic polynomials of the
    proper divisors of M.
    """
    if M == 1:
        return (-1, 1)
    poly = [-1] + [0] * (M - 1) + [1]
    for d in range(1, M):
        if M % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _monomial_rows(M: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Rows of x^e mod Phi_M for e = deg..M-1, each as its nonzero
    (j, integer coefficient) pairs."""
    phi = cyclotomic_poly(M)
    deg = len(phi) - 1
    rows = []
    cur = [-c for c in phi[:deg]]  # x^deg mod Phi (monic)
    for _ in range(deg, M):
        rows.append(tuple((j, c) for j, c in enumerate(cur) if c))
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            for j in range(deg):
                cur[j] -= lead * phi[j]
    return tuple(rows)


def _reduce_mod_cyclotomic(coeffs: dict[int, Fraction], M: int) -> dict[int, Fraction]:
    """Reduce a sparse exponent->coefficient map modulo Phi_M.

    The coefficients go over one common denominator, their integer
    numerators are reduced in a list of length phi(M), and each surviving
    term becomes one Fraction.
    """
    deg = len(cyclotomic_poly(M)) - 1
    if all(k < deg for k in coeffs):
        return {k: c for k, c in coeffs.items() if c}
    rows = _monomial_rows(M)
    den = lcm(*[c.denominator for c in coeffs.values()])
    acc = [0] * deg
    for k, c in coeffs.items():
        n = c.numerator * (den // c.denominator)
        k %= M
        if k < deg:
            acc[k] += n
        else:
            for j, r in rows[k - deg]:
                acc[j] += n * r
    return {j: Fraction(n, den) for j, n in enumerate(acc) if n}


def _poly_xgcd(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Return (g, s) with s*a = g mod b and g a constant gcd (a invertible mod b)."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def divmod_(num, den):
        num = list(num)
        q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
        inv = 1 / den[-1]
        for i in range(len(num) - len(den), -1, -1):
            c = num[i + len(den) - 1] * inv
            q[i] = c
            if c:
                for j, dj in enumerate(den):
                    num[i + j] -= c * dj
        return q, trim(num)

    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], [Fraction(0)]
    trim(r0), trim(r1)
    while r1:
        q, r = divmod_(r0, r1)
        r0, r1 = r1, r
        qs = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    qs[i + j] += qi * sj
        s0, s1 = s1, [x - y for x, y in zip(s0 + [Fraction(0)] * len(qs), qs + [Fraction(0)] * len(s0))]
        trim(s1)
    return r0, s0


# ---------------------------------------------------------------------------
# Cyc: elements of Q(zeta_M)
# ---------------------------------------------------------------------------

class Cyc:
    """Element of Q(zeta_M), stored sparsely as exponent -> rational coefficient.

    The representation is reduced modulo Phi_M only when a canonical form is
    required (equality, zero tests), keeping products of monomials cheap.
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
    def zero(order: int = 1) -> "Cyc":
        return Cyc(order, {})

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

    def _shrink(self) -> "Cyc":
        """Reduce the order when every exponent shares a factor with it."""
        if not self.coeffs:
            return Cyc(1, {}) if self.order != 1 else self
        g = self.order
        for k in self.coeffs:
            g = gcd(g, k)
            if g == 1:
                return self
        return Cyc(self.order // g, {k // g: c for k, c in self.coeffs.items()}, _trusted=True)

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
            return Cyc(L, {k % L: c1 * c2}, _trusted=True)
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
        a = self.canonical()
        if not a.coeffs:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        M = a.order
        deg = len(cyclotomic_poly(M)) - 1
        dense = [Fraction(0)] * deg
        for k, c in a.coeffs.items():
            dense[k] = c
        phi = [Fraction(c) for c in cyclotomic_poly(M)]
        g, s = _poly_xgcd(dense, phi)
        if len(g) != 1:
            raise ZeroDivisionError("element not invertible (unexpected)")
        inv = [c / g[0] for c in s]
        return Cyc(M, {k: c for k, c in enumerate(inv) if c})

    # -- canonical form ------------------------------------------------------
    def canonical(self) -> "Cyc":
        """Representative reduced modulo Phi_M with minimal order."""
        if self._canon is not None:
            return self._canon
        red = Cyc(self.order, _reduce_mod_cyclotomic(self.coeffs, self.order), _trusted=True)
        red = red._shrink()
        if red.order != self.order:
            red = red.canonical()
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
        c = self.canonical()
        return all(k == 0 for k in c.coeffs)

    def rational_value(self) -> Fraction:
        c = self.canonical()
        if not c.coeffs:
            return Fraction(0)
        if not c.is_rational():
            raise ExactnessLost("cyclotomic element is not rational")
        return c.coeffs[0]

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


def conjugate(s: Scalar) -> Scalar:
    """Formal complex conjugation: roots of unity inverted, radicals fixed."""
    return s.conj()


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


# Terms per chunk of quadratic_phase_sum: a few MiB of temporaries at most.
PHASE_CHUNK = 1 << 16
# Largest n whose square int64 holds (3037000499).
INT64_SQRT_MAX = math.isqrt(2**63 - 1)


def quadratic_phase_sum(P: int, sign: int, stop: int) -> complex:
    """sum_{0 <= n < stop} e^{2 pi i sign (n^2 mod P)/P}, in bounded memory.

    Terms are evaluated PHASE_CHUNK at a time with int64 squares, so memory
    stays fixed whatever the range.  numpy sums each chunk pairwise and
    math.fsum combines the chunk partials without further rounding.  Raises
    OutOfRange, before anything is summed, when (stop - 1)^2 would overflow
    int64.
    """
    import numpy as np

    if stop - 1 > INT64_SQRT_MAX:
        raise OutOfRange(
            f"largest index n = {stop - 1} would overflow int64 in n^2 "
            f"(need n <= {INT64_SQRT_MAX})"
        )
    w = 2 * np.pi * sign / P
    re, im = [], []
    for lo in range(0, stop, PHASE_CHUNK):
        n = np.arange(lo, min(lo + PHASE_CHUNK, stop), dtype=np.int64)
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


def eval_complex(s: Scalar) -> tuple[float, float]:
    """Numerical embedding zeta_M -> e^{2 pi i / M}, returned as (re, im)."""
    z = s.to_complex()
    return (z.real, z.imag)


def dot(xs, ys, conj: bool = False) -> Scalar:
    """Exact sum_i xs[i] * ys[i], or sum_i conj(xs[i]) * ys[i] when conj is set.

    Beyond a lone pair, no product is built as a Scalar.  Every exponent is
    lifted once to L, the lcm of the orders involved, and the products'
    integer numerators are summed keyed by radicand (split_square of the
    two radicands), denominator and exponent; each term of the result
    becomes one Fraction at the end.
    """
    pairs = [(a, b) for a, b in zip(xs, ys) if a.cyc.coeffs and b.cyc.coeffs]
    if not pairs:
        return Scalar.zero()
    if len(pairs) == 1:  # a single product: no accumulation to share
        a, b = pairs[0]
        return (a.conj() if conj else a) * b
    L = lcm(*{s.cyc.order for pair in pairs for s in pair})
    sign = -1 if conj else 1
    acc: dict[tuple[int, int, int], int] = {}
    get = acc.get
    for a, b in pairs:
        s, r = split_square(a.rad * b.rad)
        sa, sb = sign * (L // a.cyc.order), L // b.cyc.order
        for ka, fa in a.cyc.coeffs.items():
            ka, na, da = ka * sa, fa.numerator * s, fa.denominator
            for kb, fb in b.cyc.coeffs.items():
                key = (r, da * fb.denominator, (ka + kb * sb) % L)
                acc[key] = get(key, 0) + na * fb.numerator
    # per radicand: a common denominator, then one Fraction per exponent
    dens: dict[int, int] = {}
    for r, d, _ in acc:
        dens[r] = lcm(dens.get(r, 1), d)
    nums: dict[int, dict[int, int]] = {r: {} for r in dens}
    for (r, d, k), n in acc.items():
        part = nums[r]
        part[k] = part.get(k, 0) + n * (dens[r] // d)
    total = None
    for r, part in nums.items():
        coeffs = {k: Fraction(n, dens[r]) for k, n in part.items() if n}
        if coeffs:
            term = Scalar(r, Cyc(L, coeffs, _trusted=True))
            total = term if total is None else total + term
    return Scalar.zero() if total is None else total
