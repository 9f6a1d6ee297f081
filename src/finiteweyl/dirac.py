"""Dirac rescaling and finite-N physics: propagators, traces, CCR, sweeps.

The finite stand-in for the limit model is the principal module of
A(1/mu, h/mu) with N = mu^2/h.  A propagator is a Dirac-rescaled matrix
element: the finite inner product divided by Delta k, so that it acquires
a finite continuum limit.  Each propagator's step is its Delta k: |b| hbar/mu
for the free evolution at t = b/d, e hbar/mu for the harmonic oscillator
with triple (e, f, c).  Closed continuum formulas are evaluated alongside
for comparison.

The quadratic phase sums behind the Gauss constants and the QHO trace form
every term e^{2 pi i (n^2 mod P)/P} as a product of three phases with
exactly reduced integer exponents, two of them shared by a block of 64 x 64
terms and one from a table built once per sum, so a block costs one real
matrix product instead of a cos and a sin per term (about 1.3 ns per term
against 44 ns on a 2-vCPU x86-64 box, Python 3.11, numpy 2.4, OpenBLAS
0.3.31).  A sum too short to pay for importing numpy is summed in plain
Python instead (`lattice.numpy_pays`, FLOAT_TERMS_IMPORT).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import DivisibilityViolation, NotPythagorean, OutOfRange
from .lattice import check_triple, gaussian_dim, numpy_pays, qho_dim


# ---------------------------------------------------------------------------
# quadratic phase sums
# ---------------------------------------------------------------------------

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
# Fewest terms of one float sum worth importing numpy for: the plain-Python
# sum costs about 0.22 us a term (2-vCPU x86-64, Python 3.11), so 2^18
# terms take about 57 ms, under the 70-90 ms a numpy import adds to a fresh
# interpreter there.
FLOAT_TERMS_IMPORT = 1 << 18
# Largest mu/h = sigma^2 at which ccr_residual runs: the largest power of two
# at which its float64 rounding error stays below 1e-10 relative.  Against a
# 40-digit mpmath evaluation of the same sum (h = 1/4, 1, 4, numpy and list
# routes) the error is at most 4.2e-11 at 2^24, where the residual is
# 1.29e-8, and 6.6e-10 at 2^25; it grows about 16-fold per doubling.
CCR_SCALE_MAX = 1 << 24
# e^{-i pi/4} = sqrt(N)/G(N) for even N: the phase of the QHO kernel and trace
EIGHTH_TURN = cmath.exp(-1j * math.pi / 4)


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

    A sum of fewer than FLOAT_TERMS_IMPORT terms in a process that has not
    loaded numpy (`numpy_pays`) is summed in plain Python instead: one cos
    and one sin of w (n^2 mod P) per term, PHASE_BLOCK terms at a time, all
    partials combined by math.fsum.  That costs about 0.22 us per term
    (2-vCPU x86-64, Python 3.11: 6.3 ms at 28 801 terms, 57 ms at 2^18)
    and never imports numpy.
    """
    if stop - 1 > INT64_SQRT_MAX:
        raise OutOfRange(
            f"largest index n = {stop - 1} would overflow int64 in n^2 "
            f"(need n <= {INT64_SQRT_MAX})"
        )
    if not numpy_pays(stop, FLOAT_TERMS_IMPORT):
        w = 2 * math.pi * sign / P
        re, im = [], []
        for lo in range(0, stop, PHASE_BLOCK):
            t = [w * (n * n % P) for n in range(lo, min(lo + PHASE_BLOCK, stop))]
            re.append(math.fsum(map(math.cos, t)))
            im.append(math.fsum(map(math.sin, t)))
        return complex(math.fsum(re), math.fsum(im))
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
    if N < 1:
        raise ValueError("N must be positive")
    if N % 2:
        return quadratic_phase_sum(2 * N, sign, N)
    return symmetric_phase_sum(2 * N, sign, N)


# ---------------------------------------------------------------------------
# scale parameters
# ---------------------------------------------------------------------------

def _positive_h(h) -> Fraction:
    """h as a Fraction, refused unless positive."""
    h = Fraction(h)
    if h <= 0:
        raise DivisibilityViolation("h must be a positive rational")
    return h


@dataclass(frozen=True)
class ScaleParams:
    """Planck fraction h and lattice scale mu; N = mu^2/h must be even."""

    h: Fraction
    mu: int
    N: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "h", _positive_h(self.h))
        if self.mu <= 0:
            raise DivisibilityViolation("mu must be a positive integer")
        if self.mu % self.h.numerator or self.mu % self.h.denominator:
            raise DivisibilityViolation(
                f"numerator and denominator of h = {self.h} must divide mu = {self.mu}"
            )
        # exact: h's numerator divides mu
        object.__setattr__(self, "N", self.mu * self.mu * self.h.denominator // self.h.numerator)
        if self.N % 2:
            raise DivisibilityViolation(f"N = {self.N} must be even (choose even mu)")

    @property
    def hbar(self) -> float:
        return 2 * math.pi * float(self.h)


def auto_mu(h: Fraction, divisors: list[int], min_mu: int = 2) -> int:
    """Smallest even mu divisible by h's parts and all required indices."""
    h = _positive_h(h)
    base = math.lcm(2, h.numerator, h.denominator, *(d for d in divisors if d))
    k = (min_mu + base - 1) // base
    return base * max(1, k)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class KernelSample:
    x1: float
    x2: float
    value: complex
    closed_form: complex

    @property
    def abs_err(self) -> float:
        return abs(self.value - self.closed_form)


@dataclass
class TraceResult:
    value: complex
    closed_form: complex
    terms: int

    @property
    def abs_err(self) -> float:
        return abs(self.value - self.closed_form)


@dataclass
class ConvergenceReport:
    mus: list[int]
    residuals: list[float]
    fitted_order: float | None  # the log-log slope, fitted for "ccr" over two or more mu only


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _gauss_constant(Nb: int, sign: int) -> complex:
    """sqrt(Nb)/G(Nb) for the clock e^{2 pi i sign/Nb}, by direct summation."""
    return math.sqrt(Nb) / gauss_sum_float(Nb, sign)


def _lattice_index(x: float, step: float, half: int) -> int:
    """round(x/step) within half of 0, else OutOfRange; a NaN or infinite x/step never reaches round."""
    q = x / step
    if not abs(q) < half + 1 or abs(n := round(q)) > half:
        raise OutOfRange("grid point outside the submodule window")
    return n


def free_propagator(x1: float, x2: float, t: Fraction, params: ScaleParams) -> KernelSample:
    """Finite-N free-particle kernel vs (2 pi i hbar t)^{-1/2} e^{i(x1-x2)^2/(2 t hbar)}.

    The finite value is the Dirac-rescaled Gaussian matrix element on the
    <U^d, V^b>-submodule with qb = q^{bd}, with the constant computed from
    the actual quadratic Gauss sum (not the closed form).  The submodule's
    rules are the exact Gaussian's (`lattice.gaussian_dim`).
    """
    t = Fraction(t)
    b, d = t.numerator, t.denominator
    Nb = gaussian_dim(params.N, b, d)
    hbar, mu = params.hbar, params.mu
    dx = abs(b) * hbar / mu
    l, m = _lattice_index(x1, dx, Nb // 2), _lattice_index(x2, dx, Nb // 2)
    xs1, xs2 = l * dx, m * dx
    sign = 1 if b * d > 0 else -1
    cc_hat = _gauss_constant(Nb, sign)
    r = ((l - m) * (l - m)) % (2 * Nb)
    value = cc_hat / math.sqrt(Nb) * cmath.exp(1j * math.pi * sign * r / Nb) / dx
    closed = cmath.exp(1j * (xs1 - xs2) ** 2 / (2 * float(t) * hbar)) / cmath.sqrt(
        2j * math.pi * hbar * float(t)
    )
    return KernelSample(xs1, xs2, value, closed)


def _qho_exponent(e: int, f: int, m: int, l: int, N: int) -> int:
    """t = e f (l^2 - e^2 m^2) - 2 e^3 m l mod 2N: `transform.qho_evolution`
    carries q^{t/2} from its m-th domain vector to u(q^{e(l+mf)}), the kernel
    q^{(2xy - alpha x^2 - delta y^2)/(2 beta)} of its matrix at x = e(l + mf),
    y = c e m, in integers."""
    return e * (f * (l * l - e * e * m * m) - 2 * e * e * m * l) % (2 * N)


def qho_propagator(x1: float, x2: float, triple: tuple[int, int, int],
                   params: ScaleParams) -> KernelSample:
    """Finite-N harmonic-oscillator kernel vs the continuum closed form.

    sin t = e/c, cos t = f/c for the Pythagorean triple (e,f,c).  The finite
    value is the Dirac-rescaled inner product <u^{c,ce}(n)|K u^{c,ce}(m)>,
    evaluated by summing the c lattice contributions directly.  The triple
    and submodule rules are the exact evolution's (`lattice.qho_dim`).
    """
    e, f, c = triple
    N = params.N
    dim = qho_dim(N, e, f, c)
    if gcd(e, f) != 1:
        raise NotPythagorean("triple must be primitive for the x-rescaling")
    hbar, mu = params.hbar, params.mu
    dx = e * hbar / mu
    step = c * e * hbar / mu  # index spacing of the domain basis
    n, m = _lattice_index(x1, step, dim // 2), _lattice_index(x2, step, dim // 2)
    xs1, xs2 = n * step, m * step

    # sum over the c overlapping lattice sites: l_k = cn - mf + k N/(ce), at
    # the phases of the exact transform's kernel
    total = 0.0 + 0.0j
    for k in range(c):
        lk = c * n - m * f + k * N // (c * e)
        total += cmath.exp(1j * math.pi * _qho_exponent(e, f, m, lk, N) / N)
    value = EIGHTH_TURN * math.sqrt(e / N) / math.sqrt(c) * total / dx

    sin_t, cos_t = e / c, f / c
    closed = EIGHTH_TURN / math.sqrt(2 * math.pi * hbar * sin_t) * cmath.exp(
        1j * ((xs1 * xs1 + xs2 * xs2) * cos_t - 2 * xs1 * xs2) / (2 * hbar * sin_t)
    )
    return KernelSample(xs1, xs2, value, closed)


def qho_trace(triple: tuple[int, int, int], params: ScaleParams) -> TraceResult:
    """Brute-force diagonal sum of the raw kernels vs 1/(i |sin(t/2)|).

    The diagonal has N/(e c (c-f)) = c L terms (reported as `terms`) with
    phases e^{-2 pi i M (n^2 mod N)/N}, M = e c^2 (c-f), N = M L.  Since
    M (n^2 mod N) = M (n^2 mod L) mod N, they repeat with period L, and n,
    L - n give the same n^2 mod L: the actual Gauss sum is evaluated from
    L/2 + 1 terms in fixed-size blocks (symmetric_phase_sum), never
    replaced by its closed form.  The value is c/(c-f) times the exact
    S = sum_m <dom m|K dom m> of `transform.qho_evolution`, a quadratic Gauss
    sum: -i sqrt(2(c-f)/c) when 4 | L, (+-1 - i) sqrt(2(c-f)/c)/2 for odd L,
    and 0 when L = 2 mod 4.  That is why L = 2 mod 4 is refused: the finite
    trace there is 0, not the continuum value.  Raises OutOfRange when (L/2)^2 would
    overflow int64, before anything is summed.  Time is linear in L: about
    1.3 ns per summed term (2-vCPU x86-64, Python 3.11, numpy 2.4 with
    OpenBLAS 0.3.31: 0.027 s at L = 4.0e7), so a trace at the int64 cap,
    L ~ 6.07e9, takes about 5 s.  Below FLOAT_TERMS_IMPORT summed terms
    (L < 2^19) in a process without numpy the sum is plain Python, about
    0.22 us per term (1.5 ms at L = 13 872, mu = 1020), and numpy is never
    imported.
    """
    e, f, c = triple
    check_triple(e, f, c)  # so c > f: sin(t/2) != 0
    N = params.N
    M = e * c * c * (c - f)
    if N % M:
        raise DivisibilityViolation(f"need e c^2 (c-f) = {M} | N = {N}")
    L = N // M
    if L % 4:
        raise DivisibilityViolation(f"need 4 | L = {L} (pick mu with more factors of 2)")
    total = c * symmetric_phase_sum(L, -1, L)
    value = EIGHTH_TURN * math.sqrt(e * c / N) * total
    sin_half = math.sqrt((1 - f / c) / 2)
    closed = 1 / (1j * sin_half)
    return TraceResult(value, closed, c * L)


# ---------------------------------------------------------------------------
# coordinatization and CCR
# ---------------------------------------------------------------------------

# Half-width of the standard-part window the weak-ring samples are drawn from.
WEAKRING_WINDOW = 8.0


def st_mu(m: int, params: ScaleParams) -> float:
    """Standard-part coordinate m/mu on the window [-N/2, N/2)."""
    N = params.N
    m = (m + N // 2) % N - N // 2
    return m / params.mu


def weakring_samples(params: ScaleParams, count: int, seed: int = 0):
    """Quadruples (m1,n1,m2,n2) with m1 n1 = m2 n2 (mod mu^2) on the window
    [-WEAKRING_WINDOW, WEAKRING_WINDOW) of standard parts.

    Patterns: swapped factors, mu-divisor shifts, and (a mu + c)-block pairs;
    the congruence holds by construction.
    """
    import random as _random

    rng = _random.Random(seed)
    mu = params.mu
    Wm = int(WEAKRING_WINDOW * mu)
    out = []
    while len(out) < count:
        pat = rng.randrange(3)
        if pat == 0:
            m1 = rng.randrange(-Wm, Wm)
            n1 = rng.randrange(-Wm, Wm)
            out.append((m1, n1, n1, m1))
        elif pat == 1:
            j = rng.randrange(1, int(WEAKRING_WINDOW))
            s = rng.randrange(1, int(WEAKRING_WINDOW))
            m1 = rng.randrange(-Wm // 2, Wm // 2)
            # n = j mu fixed; shifting m by s mu changes the product by s j mu^2
            out.append((m1, j * mu, m1 + s * mu, j * mu))
        else:
            a, bb = rng.randrange(1, 4), rng.randrange(1, 4)
            cval = rng.randrange(mu)
            # swapped block factors: (a mu + c)(b mu) = (b mu)(a mu + c)
            out.append((a * mu + cval, bb * mu, bb * mu, a * mu + cval))
    return out[:count]


def weakring_max_phase_error(params: ScaleParams, count: int = 1000, seed: int = 0) -> float:
    """max |e^{2 pi i x1 y1} - e^{2 pi i x2 y2}| over congruent quadruples."""
    worst = 0.0
    for m1, n1, m2, n2 in weakring_samples(params, count, seed):
        x1, y1 = st_mu(m1, params), st_mu(n1, params)
        x2, y2 = st_mu(m2, params), st_mu(n2, params)
        p1 = cmath.exp(2j * math.pi * x1 * y1)
        p2 = cmath.exp(2j * math.pi * x2 * y2)
        worst = max(worst, abs(p1 - p2))
    return worst


def ccr_residual(params: ScaleParams) -> float:
    """||(QP - PQ) e - i hbar e|| / (hbar ||e||) for the regularized eigenstate e.

    Q = mu (U - U^{-1})/2i acts diagonally with eigenvalues d_k = mu sin(hbar k/mu^2);
    P = mu (V - V^{-1})/2i is the symmetric difference; e is the x=0
    regularization in the U-basis: the discrete Gaussian e^{-k^2/(4 sigma^2)}
    of lattice width sigma = sqrt(mu/h) on |k| <= W.  A basis
    eigenstate has a Theta(1) CCR residual (the commutator has zero diagonal
    in any Q-eigenbasis), and a fixed-width packet gives O(1/mu^2): the
    geometric-mean width is the scaling at which the residual decays at the
    advertised O(1/mu) rate.  e is real, so the residual vector is -i r with

        r_k = (mu/2) ((d_k - d_{k+1}) e_{k+1} - (d_k - d_{k-1}) e_{k-1}) + hbar e_k

    and e_{+-(W+1)} = 0, one expression over numpy arrays where numpy pays
    (`lattice.numpy_pays`) and over zipped lists otherwise.  Raises
    OutOfRange, before anything is built, when mu/h exceeds CCR_SCALE_MAX.
    """
    if params.mu / params.h > CCR_SCALE_MAX:
        raise OutOfRange(f"ccr_residual needs mu/h <= CCR_SCALE_MAX = {CCR_SCALE_MAX}, beyond which "
                         f"float64 cannot resolve the residual; got mu/h = {params.mu / params.h}")
    hbar, mu = params.hbar, params.mu
    sigma = math.sqrt(mu / float(params.h))
    W = max(8, int(10 * sigma))
    if numpy_pays(2 * W + 3, FLOAT_TERMS_IMPORT):
        import numpy as np

        k = np.arange(-W - 1, W + 2)
        e = np.exp(-(k * k) / (4 * sigma * sigma))
        e[0] = e[-1] = 0
        d = mu * np.sin(hbar * k / mu ** 2)  # q_operator_eigenvalue at every k
        r = mu / 2 * ((d[1:-1] - d[2:]) * e[2:] - (d[1:-1] - d[:-2]) * e[:-2]) + hbar * e[1:-1]
        return float(np.linalg.norm(r) / (hbar * np.linalg.norm(e)))
    ks = range(-W - 1, W + 2)
    e = [0.0, *(math.exp(-(k * k) / (4 * sigma * sigma)) for k in ks[1:-1]), 0.0]
    d = [q_operator_eigenvalue(k, params) for k in ks]
    r = [mu / 2 * ((dk - dn) * en - (dk - dp) * ep) + hbar * ek
         for dp, dk, dn, ep, ek, en in zip(d, d[1:], d[2:], e, e[1:], e[2:])]
    return math.hypot(*r) / (hbar * math.hypot(*e))


def q_operator_eigenvalue(k: int, params: ScaleParams) -> float:
    """Exact eigenvalue of Q = mu(U - U^{-1})/2i on the lattice state u(q^k)."""
    return params.mu * math.sin(params.hbar * k / params.mu ** 2)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

def converge_study(quantity: str, mus: list[int], h: Fraction = Fraction(1),
                   seed: int = 0) -> ConvergenceReport:
    """Residual of a finite-N quantity against its continuum target per mu."""
    if not mus:
        raise ValueError("mu list must be nonempty")
    if any(m2 <= m1 for m1, m2 in zip(mus, mus[1:])):
        raise ValueError("mu list must be strictly increasing")
    residuals = []
    for mu in mus:
        params = ScaleParams(Fraction(h), mu)
        if quantity == "ccr":
            residuals.append(ccr_residual(params))
        elif quantity == "free":
            residuals.append(max(free_propagator(x1, x2, t, params).abs_err
                                 for t in (Fraction(1, 2), Fraction(1)) for x1 in (-1.0, 0.0, 1.0)
                                 for x2 in (-1.0, 0.5, 1.0)))
        elif quantity == "qho":
            residuals.append(max(qho_propagator(x1, x2, (3, 4, 5), params).abs_err
                                 for x1 in (-1.0, 0.0, 1.0) for x2 in (-1.0, 0.5, 1.0)))
        elif quantity == "weakring":
            residuals.append(weakring_max_phase_error(params, count=500, seed=seed))
        else:
            raise ValueError(f"unknown quantity {quantity!r}")
    order = None
    if quantity == "ccr" and len(mus) > 1:
        order = _slope([math.log(mu) for mu in mus], [math.log(r) for r in residuals])
    return ConvergenceReport(list(mus), residuals, order)


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ys against xs, in closed form:
    sum (x - xbar)(y - ybar) / sum (x - xbar)^2."""
    xbar, ybar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx = [x - xbar for x in xs]
    return math.fsum(d * (y - ybar) for d, y in zip(dx, ys)) / math.fsum(d * d for d in dx)
