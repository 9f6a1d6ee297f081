"""Exact arithmetic over roots of unity with radical scale factors.

Every exact value is one `Scalar`: an element of Q(zeta_M) scaled by the
square root of a squarefree integer, sqrt(rad) * sum_k c_k zeta_M^k.
This covers every constant the algebraic layers produce: q^(k/2) phases,
1/sqrt(N) basis normalisations, quadratic Gauss sums and the constant
e^{-i pi/4}.  Floats appear only where a value leaves the exact layer:
`Scalar.to_complex` embeds zeta_M -> e^{2 pi i/M}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import ExactnessLost


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


def _is_radicand(n) -> bool:
    """Whether n is a squarefree int >= 1, the radicands a Scalar may carry."""
    return isinstance(n, int) and n >= 1 and split_square(n)[0] == 1


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
# Scalar: exact values sqrt(rad) * (element of Q(zeta_M))
# ---------------------------------------------------------------------------

class Scalar:
    """Exact value sqrt(rad) * sum_k coeffs[k] zeta_order^k.

    rad is a positive squarefree integer and coeffs a sparse exponent ->
    rational map.  Terms are kept as built, at any order that holds the
    value; they go to the canonical form (`canonical`: the Zumbroich basis
    at the conductor) only when one is required (equality, zero tests,
    printing), keeping products of monomials cheap.  Every operator takes
    an int or a Fraction on either side; a float is refused.
    """

    __slots__ = ("order", "coeffs", "rad", "_canon")

    def __init__(self, order: int, coeffs: dict, rad: int = 1, _trusted: bool = False):
        self.order = order
        self.rad = rad
        if not _trusted:
            if order < 1:
                raise ValueError("order must be positive")
            if (rad != 1 or type(rad) is not int) and not _is_radicand(rad):
                raise ValueError(f"radicand must be a squarefree integer >= 1, got {rad!r}")
            reduced: dict[int, Fraction] = {}
            for k, c in coeffs.items():  # keys that collide mod order add up
                k %= order
                c = _rat(c)
                if k in reduced:  # no 0 + c: an int plus a Fraction costs a Fraction sum
                    c += reduced[k]
                if c:
                    reduced[k] = c
                else:
                    reduced.pop(k, None)
            coeffs = reduced
        self.coeffs = coeffs
        self._canon = None

    # -- constructors --------------------------------------------------------
    @staticmethod
    def zero() -> "Scalar":
        return Scalar(1, {}, _trusted=True)

    @staticmethod
    def rational(x) -> "Scalar":
        x = _rat(x)
        return Scalar(1, {0: x} if x else {}, _trusted=True)

    @staticmethod
    def one() -> "Scalar":
        return Scalar.rational(1)

    @staticmethod
    def zeta(M: int, k: int = 1) -> "Scalar":
        return Scalar(M, {k: 1})

    @staticmethod
    def exact(c: "Scalar", rad_num: int | Fraction = 1, rad_den: int | Fraction = 1) -> "Scalar":
        """sqrt(rad_num/rad_den) * c for rationals, normalised to an integer radicand."""
        num, den = _rat(rad_num), _rat(rad_den)
        if num <= 0 or den <= 0:
            raise ValueError("radicand must be positive")
        x = num / den
        # sqrt(p/q) = sqrt(p*q)/q
        s, r = split_square(x.numerator * x.denominator)
        return c * Scalar(1, {0: Fraction(s, x.denominator)}, r, _trusted=True)

    @staticmethod
    def phase(turns: Fraction) -> "Scalar":
        """e^{2 pi i turns} for rational turns."""
        t = _rat(turns)
        return _phase_cached(t.numerator % t.denominator, t.denominator)

    # -- conversions ---------------------------------------------------------
    @property
    def cyc(self) -> "Scalar":
        """The factor without sqrt(rad): the same terms at radicand 1."""
        return self if self.rad == 1 else Scalar(self.order, self.coeffs, _trusted=True)

    def lift(self, order: int) -> "Scalar":
        """The same terms at a multiple of the order."""
        if order == self.order:
            return self
        step = order // self.order
        return Scalar(order, {k * step: c for k, c in self.coeffs.items()}, self.rad, _trusted=True)

    def lift_radical(self) -> "Scalar":
        """The same value with sqrt(rad) folded into the terms (rad becomes 1)."""
        if self.rad == 1:
            return self
        return self.cyc * sqrt_as_cyc(self.rad)

    # -- arithmetic ----------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "Scalar":
        """Scalars pass through and ints or Fractions become rational scalars."""
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.rational(other)
        raise TypeError(f"cannot coerce {other!r} to an exact Scalar")

    def __add__(self, other) -> "Scalar":
        a, b = self, self._coerce(other)
        if a.rad != b.rad:
            a, b = a.lift_radical(), b.lift_radical()
        L = lcm(a.order, b.order)
        out = dict(a.lift(L).coeffs)
        for k, c in b.lift(L).coeffs.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Scalar(L, out, a.rad, _trusted=True)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(self.order, {k: -c for k, c in self.coeffs.items()}, self.rad, _trusted=True)

    def __sub__(self, other) -> "Scalar":
        other = self._coerce(other)
        # identical forms give zero without -other and the sum: without this
        # test the exact-structure benchmark ran at 132-136 ops/s against
        # 157-168, op_p90_ms 14.9-15.4 against 11.6-12.5 (10 alternated
        # pairs, 2-vCPU x86-64, Python 3.11)
        if self.rad == other.rad and self.order == other.order and self.coeffs == other.coeffs:
            return Scalar.zero()
        return self + (-other)

    def __rsub__(self, other) -> "Scalar":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Scalar":
        if not isinstance(other, Scalar):
            other = self._coerce(other)
        s, r = (1, 1) if self.rad == 1 and other.rad == 1 else split_square(self.rad * other.rad)
        L = lcm(self.order, other.order)
        if not self.coeffs or not other.coeffs:
            return Scalar(L, {}, r, _trusted=True)
        if len(self.coeffs) == 1 and len(other.coeffs) == 1:
            (k1, c1), = self.coeffs.items()
            (k2, c2), = other.coeffs.items()
            k = k1 * (L // self.order) + k2 * (L // other.order)
            # a phase times a monomial: reuse the other coefficient, no Fraction product
            c = c2 if c1 == 1 else c1 if c2 == 1 else c1 * c2
            return Scalar(L, {k % L: c if s == 1 else c * s}, r, _trusted=True)
        # several terms: `dot`'s rule, integer numerators and one Fraction per term
        acc: dict[tuple[int, int, int], int] = {}
        _accumulate(acc, ((self, other),), L, 1)
        return _scalar_of(acc, L, 1)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        """1/x.  For x = sqrt(r) y, 1/x = sqrt(r) y^-1 / r.  One term c zeta^k
        inverts to c^-1 zeta^-k at the same order.  Otherwise y^-1 =
        prod_{j != 1} sigma_j(y) / N(y), where sigma_j sends zeta_M to zeta_M^j
        for each j coprime to the conductor M and the norm N(y) = y
        prod_{j != 1} sigma_j(y) is rational (Washington, Introduction to
        Cyclotomic Fields).  Zero raises ZeroDivisionError."""
        if len(self.coeffs) == 1:
            (k, c), = self.coeffs.items()
            return Scalar(self.order, {-k % self.order: Fraction(1) / (c * self.rad)}, self.rad,
                          _trusted=True)
        a = self.canonical().cyc
        if not a.coeffs:
            raise ZeroDivisionError("inverse of zero")
        M = a.order
        rest = Scalar.one()
        for j in range(2, M):
            if gcd(j, M) == 1:
                rest = rest * Scalar(M, {k * j % M: c for k, c in a.coeffs.items()}, _trusted=True)
        norm = (a * rest).rational_value() * self.rad
        return Scalar(rest.order, {k: c / norm for k, c in rest.coeffs.items()}, self.rad,
                      _trusted=True)

    def __truediv__(self, other) -> "Scalar":
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other) -> "Scalar":
        return self._coerce(other) * self.inv()

    def conj(self) -> "Scalar":
        M = self.order
        return Scalar(M, {-k % M: c for k, c in self.coeffs.items()}, self.rad, _trusted=True)

    # -- canonical form and tests ---------------------------------------------
    def canonical(self) -> "Scalar":
        """The value with its terms on the Zumbroich basis of Q(zeta_M) at
        their conductor M, the least order whose field holds them: one form
        per value and radicand, whatever the order and route it was built by.
        The terms are rewritten on the basis, then the order steps down
        (`_subfield`) while a smaller field holds them; each step lands on
        the smaller basis."""
        if self._canon is not None:
            return self._canon
        M, coeffs = self.order, _on_basis(self.coeffs, self.order)
        while (step := _subfield(coeffs, M)) is not None:
            M, coeffs = step
        red = Scalar(M, coeffs, self.rad, _trusted=True)
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
        return self.lift_radical().canonical().order == 1

    def rational_value(self) -> Fraction:
        """The value as a Fraction; ExactnessLost when it is not rational."""
        c = self.lift_radical().canonical()
        if c.order != 1:
            raise ExactnessLost("value is not rational")
        return c.coeffs.get(0, Fraction(0))

    def sqrt_of_rational(self) -> "Scalar":
        """sqrt of a nonnegative rational scalar (norms)."""
        v = self.rational_value()
        if v < 0:
            raise ExactnessLost("negative radicand")
        return Scalar.exact(Scalar.one(), v.numerator, v.denominator) if v else Scalar.zero()

    def __eq__(self, other) -> bool:
        """Exact equality.  Two one-term values sqrt(r) c zeta_M^k and
        sqrt(r') c' zeta_M'^k' compare by integer arithmetic alone: they are
        equal iff r = r' and either c = c' with k/M = k'/M' mod 1, or c = -c'
        with the turns half a turn apart, i.e. (k M' - k' M) mod M M' is 0 or
        M M'/2.  Different radicands never agree: if sqrt(r/r') = x zeta for
        a rational x and a root of unity zeta, then zeta^2 = r/(r' x^2) is a
        positive rational root of unity, so zeta^2 = 1 and r r' = (r' x)^2
        is a square, which for squarefree r, r' means r = r'.  Zero and
        multi-term operands are compared by (self - other).is_zero()."""
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.rational(other)
        if len(self.coeffs) != 1 or len(other.coeffs) != 1:
            return (self - other).is_zero()
        if self.rad != other.rad:
            return False
        (k1, c1), = self.coeffs.items()
        (k2, c2), = other.coeffs.items()
        M1, M2 = self.order, other.order
        turns = (k1 * M2 - k2 * M1) % (M1 * M2)
        return turns == 0 if c1 == c2 else c1 == -c2 and 2 * turns == M1 * M2

    # -- numerics ------------------------------------------------------------
    def to_complex(self) -> complex:
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
        return complex(math.fsum(re), math.fsum(im)) * math.sqrt(self.rad)

    # the name bench/run.py's known-defect probe calls
    eval = to_complex

    def __repr__(self) -> str:
        c = self.canonical()
        terms = " + ".join(f"{v}*z{c.order}^{k}" if k else f"{v}"
                           for k, v in sorted(c.coeffs.items())) or "0"
        return f"Scalar({terms})" if self.rad == 1 else f"Scalar(sqrt({self.rad})*({terms}))"


# The former name of the Q(zeta_M) part, now the same class: bench/ builds
# values as Cyc(order, coeffs), Cyc.rational and Cyc.zeta.
Cyc = Scalar


# ---------------------------------------------------------------------------
# square roots of squarefree integers as cyclotomic elements
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None, typed=True)
def sqrt_as_cyc(n: int) -> Scalar:
    """sqrt(n) for squarefree n >= 1 as an element of Q(zeta_{4n}) (radicand 1);
    ValueError for any other n.  An odd prime p gives the Gauss sum
    sum_k zeta_p^{k^2}: 1, plus 2 at each quadratic residue."""
    if not _is_radicand(n):
        raise ValueError(f"sqrt_as_cyc needs a squarefree integer >= 1, got {n!r}")
    out = Scalar.one()
    for p in _factorize(n):
        if p == 2:
            root = Scalar(8, {1: Fraction(1), 7: Fraction(1)}, _trusted=True)
        else:
            g = Scalar(p, {0: Fraction(1), **{k * k % p: Fraction(2) for k in range(1, (p + 1) // 2)}},
                       _trusted=True)
            if p % 4 == 1:
                root = g
            else:
                root = Scalar.zeta(4, 3) * g  # sqrt(p) = -i * (i sqrt(p))
        out = out * root
    return out

# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=20000)
def _phase_cached(num: int, den: int) -> Scalar:
    return Scalar.zeta(den, num)


def root_of_unity(M: int, k: int) -> Scalar:
    """Exact zeta_M^k."""
    return Scalar.zeta(M, k)


def gauss_sum(N: int) -> Scalar:
    """Exact quadratic Gauss sum G(N) = sum_m e^{i pi m^2 / N}."""
    if N < 1:
        raise ValueError("N must be positive")
    M = 2 * N
    counts: dict[int, int] = {}
    for m in range(N):
        k = (m * m) % M
        counts[k] = counts.get(k, 0) + 1
    return Scalar(M, {k: Fraction(c) for k, c in counts.items()}, _trusted=True)


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
        sa, sb = sign * (L // a.order), L // b.order
        for ka, fa in a.coeffs.items():
            ka, na, da = ka * sa, fa.numerator * s, fa.denominator
            for kb, fb in b.coeffs.items():
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
            term = Scalar(L, coeffs, r, _trusted=True)
            total = term if total is None else total + term
    return Scalar.zero() if total is None else total


def dot(xs, ys, conj: bool = False) -> Scalar:
    """Exact sum_i xs[i] * ys[i], or sum_i conj(xs[i]) * ys[i] when conj is set.

    Beyond a lone pair, no product is built as a Scalar: `_accumulate` sums
    the products' integer numerators keyed by radicand, denominator and
    exponent at L, the lcm of the orders, and each term of the result
    becomes one Fraction at the end.
    """
    pairs = [(a, b) for a, b in zip(xs, ys) if a.coeffs and b.coeffs]
    if not pairs:
        return Scalar.zero()
    if len(pairs) == 1:  # a single product: no accumulation to share
        a, b = pairs[0]
        return (a.conj() if conj else a) * b
    L = lcm(*{s.order for pair in pairs for s in pair})
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
    forms = [[(a, b) for a, b in zip(xs, ys) if a.coeffs and b.coeffs]
             for xs, ys in forms]
    values = {id(s): s for form in forms for pair in form for s in pair}.values()
    if not values:
        return Scalar.zero()
    L = lcm(*{s.order for s in values})
    D2 = lcm(*{f.denominator for s in values for f in s.coeffs.values()}) ** 2
    acc: dict[tuple[int, int, int], int] = {}
    for form in forms:
        terms: dict[tuple[int, int, int], int] = {}
        _accumulate(terms, form, L, -1)
        parts: dict[int, dict[int, int]] = {}  # s over D^2: radicand -> exponent -> numerator
        for (r, d, k), n in terms.items():
            part = parts.setdefault(r, {})
            part[k] = part.get(k, 0) + n * (D2 // d)
        ops = [Scalar(L, {k: n for k, n in part.items() if n}, r, _trusted=True)
               for r, part in parts.items()]
        _accumulate(acc, [(x, y) for x in ops for y in ops], L, -1)
    return _scalar_of(acc, L, D2 * D2)
