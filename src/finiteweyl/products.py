"""The histogram kernel for exact sums of products, and the one module that
imports numpy at load time.

`repmod.linear_combinations` decides which sums come here, by their size
alone (its PRODUCTS_MIN and PRODUCTS_IMPORT), and imports this module on
first use.  The kernel takes sums of one-term entries
zeta_M^k c sqrt(r): each output coordinate is one numpy exponent
histogram, and the histograms are reduced to the Zumbroich basis of
Q(zeta_L) together, from the table `Scalar.canonical` reads.  Integer
counts are held in float64 only while they stay below 2^53, and the
one-term forms guessed from float values are verified exactly.  Where the
kernel declines, the caller sums by `dot`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple

import numpy as np

from .exactnum import Scalar, _factorize, _monomial_rows, split_square, sqrt_as_cyc


# Bytes of numpy temporaries one chunk of the histogram kernel may hold; the
# operands add a 4-byte index and a 1-byte mask per entry on top.
PRODUCTS_CHUNK_BYTES = 8 << 20
# Elements per temporary array: about eight 8-byte arrays are alive at once.
_CHUNK_ELEMS = PRODUCTS_CHUNK_BYTES // 64
# float64 holds every integer of magnitude below 2^53 exactly.
_FLOAT_EXACT = 1 << 53


class _Reduction(NamedTuple):
    """The Zumbroich table of L (`exactnum._monomial_rows`) as numpy arrays.

    Histogram column basis[i] is basis position i, and pair p sends column
    src[p], an exponent off the basis (there is one, as L >= 2), to coef[p]
    (+-1) times position dst[p].  growth bounds how much rewriting a
    histogram on the basis can enlarge its largest entry: the most pairs
    landing on one position, plus that position's own count.  cos and sin
    hold the embedding of zeta_L^e, e < L, for the float guesses.
    """

    basis: object
    src: object
    dst: object
    coef: object
    growth: int
    cos: object
    sin: object


@lru_cache(maxsize=None)
def _reduction(L: int) -> _Reduction:
    """The reduction to the Zumbroich basis of Q(zeta_L), built once per L."""
    basis, rows = _monomial_rows(L)
    pos = {b: i for i, b in enumerate(basis)}
    src, dst, coef = map(np.array, zip(*[(e, pos[b], c) for e, row in enumerate(rows)
                                         if row[0][0] != e for b, c in row]))
    angle = 2 * np.pi * np.arange(L) / L
    return _Reduction(np.array(basis), src, dst, coef, 1 + int(np.bincount(dst).max()),
                      np.cos(angle), np.sin(angle))


def _reduce_rows(H, red):
    """Rows of exponent counts (float64, rows x L) on the Zumbroich basis:
    rows x len(red.basis)."""
    out = H[:, red.basis]
    w, deg = out.shape
    keys = (np.arange(w)[:, None] * deg + red.dst).ravel()
    out += np.bincount(keys, (H[:, red.src] * red.coef).ravel(), minlength=w * deg).reshape(w, deg)
    return out


def _intern(vectors, width):
    """Index the first `width` entries of sequences of Scalars by identity.

    Returns (slots, objs): slots[i, j] (int32) is the position of
    vectors[i][j] in objs, the distinct objects in order of first appearance,
    so that each object is read once however often it is shared.  Ids are
    sorted a block of vectors at a time, keeping temporaries within a chunk.
    """
    slots = np.empty((len(vectors), width), dtype=np.int32)
    seen: dict[int, int] = {}
    objs: list = []
    per = max(1, _CHUNK_ELEMS // max(1, width))
    for b0 in range(0, len(vectors), per):
        block = [v if len(v) == width else v[:width] for v in vectors[b0:b0 + per]]
        ids = np.fromiter(map(id, chain.from_iterable(block)), dtype=np.uint64,
                          count=len(block) * width)
        uniq, first, inv = np.unique(ids, return_index=True, return_inverse=True)
        lut = []
        for u, f in zip(uniq.tolist(), first.tolist()):
            slot = seen.get(u)
            if slot is None:
                slot = seen[u] = len(objs)
                objs.append(block[f // width][f % width])
            lut.append(slot)
        slots[b0:b0 + len(block)] = np.array(lut, dtype=np.int32)[inv].reshape(len(block), width)
    return slots, objs


def _monomial_side(objs):
    """(rad, [(order, k, coeff)]) for one-term or zero entries (zeros as
    (1, 0, 0)), or None when an entry has several terms or two nonzero
    entries differ in radicand."""
    rad = None
    out = []
    for s in objs:
        coeffs = s.coeffs
        if not coeffs:
            out.append((1, 0, 0))
            continue
        if len(coeffs) > 1 or (rad is not None and s.rad != rad):
            return None
        rad = s.rad
        (k, c), = coeffs.items()
        out.append((s.order, k, c))
    return (1 if rad is None else rad), out


def _exact_arrays(entries, L: int):
    """Exponents at order L (int64), integer numerators over a common
    denominator (float64, exact while below 2^53), the largest |numerator|
    and the denominator."""
    den = lcm(*[c.denominator for _, _, c in entries])
    nums = [c.numerator * (den // c.denominator) for _, _, c in entries]
    exps = np.array([k * (L // o) for o, k, _ in entries], dtype=np.int64)
    big = max(map(abs, nums))
    if big >= _FLOAT_EXACT:
        return exps, None, big, den
    return exps, np.array(nums, dtype=np.float64), big, den


def _split_square_over(m: int, primes) -> tuple[int, int] | None:
    """(t, r) with m = t^2 r, r a product of the given primes and squarefree;
    None when m has a square-free part outside them."""
    t, r = 1, 1
    for p in primes:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        t *= p ** (e // 2)
        if e % 2:
            r *= p
    root = math.isqrt(m)
    return (t * root, r) if root * root == m else None


@lru_cache(maxsize=256)
def _sqrt_at(r: int, L: int):
    """sqrt_as_cyc(r) at order L: (exponents, integer coefficients as
    float64, the largest |coefficient|), or None when its order does not
    divide L."""
    s = sqrt_as_cyc(r)
    if L % s.order or any(c.denominator != 1 for c in s.coeffs.values()):
        return None
    return (np.array([k * (L // s.order) for k in s.coeffs], dtype=np.int64),
            np.array([float(c) for c in s.coeffs.values()]),
            max(abs(c.numerator) for c in s.coeffs.values()))


def _monomials(H, reduced, L: int, red: _Reduction):
    """[(t, r, j) or None] for the rows Y of H (reduced counts `reduced`)
    that are t zeta_L^j sqrt(r), t a positive integer.

    A row's float value gives |Y|^2 = t^2 r, an integer, and the angle
    2 pi j/L.  The guess is kept only when the reduced counts of
    t zeta^j sqrt_as_cyc(r) equal the row's exactly.
    """
    re, im = H @ red.cos, H @ red.sin
    m = np.rint(re * re + im * im)
    j = np.rint(np.arctan2(im, re) * (L / (2 * np.pi))).astype(np.int64) % L
    rows = np.flatnonzero(reduced.any(axis=1) & (m >= 1) & (m < _FLOAT_EXACT))
    primes = list(_factorize(L))
    out = [None] * len(H)
    for mi in set(m[rows].tolist()):
        split = _split_square_over(int(mi), primes)
        root = split and _sqrt_at(split[1], L)
        if not root or split[0] * root[2] * red.growth >= _FLOAT_EXACT:
            continue
        (t, r), (exps, coefs, _) = split, root
        sel = rows[m[rows] == mi]
        keys = (np.arange(len(sel))[:, None] * L + (j[sel][:, None] + exps) % L).ravel()
        C = np.bincount(keys, np.tile(t * coefs, len(sel)), minlength=len(sel) * L)
        match = (_reduce_rows(C.reshape(len(sel), L), red) == reduced[sel]).all(axis=1)
        for row in sel[match].tolist():
            out[row] = (t, r, int(j[row]))
    return out


def monomial_products(rows, cols, dim: int, conj: bool):
    """[[sum_i row[i] * cols[i][j] for j < dim] for row in rows] as lists of
    Scalars, with conj(row[i]) in place of row[i] when conj is set, or None
    where this kernel does not apply.

    Takes rows of at least n entries (later ones are ignored) and n columns
    of length dim, all entries zero or one term zeta_M^k * c * sqrt(r)
    with one radicand per side.  Operands are read by object identity, each
    distinct Scalar once, and nothing is kept between calls.  Every output
    coordinate is one np.bincount histogram of exponents at L, the lcm of 2
    and the orders, weighted by integer numerators over a common
    denominator; the histograms are reduced to the Zumbroich basis of
    Q(zeta_L) together, a chunk of coordinates at a time
    (PRODUCTS_CHUNK_BYTES).  A coordinate whose value is t zeta^j sqrt(r')
    comes back as that one-term Scalar at minimal order; others as their
    terms on that basis.

    Returns None, for the caller's per-coordinate path, where only the
    entries show the kernel cannot serve: when an entry has several terms
    or a side mixes radicands, and when the float64 sums could pass 2^53
    (the largest numerators' product times n times the reduction's
    growth).  How large a sum must be is the caller's decision.
    """
    n = len(cols)
    xslots, xobjs = _intern(cols, dim)
    xside = _monomial_side(xobjs)
    rslots, robjs = _intern(rows, n)
    rside = _monomial_side(robjs)
    if xside is None or rside is None:
        return None
    nzr = np.array([c != 0 for _, _, c in rside[1]])[rslots]

    L = lcm(2, *{o for o, _, _ in rside[1]}, *{o for o, _, _ in xside[1]})
    red = _reduction(L)
    rexp, rnum, rbig, rden = _exact_arrays(rside[1], L)
    if conj:  # conjugation inverts roots of unity and fixes radicals
        rexp = -rexp % L
    xexp, xnum, xbig, xden = _exact_arrays(xside[1], L)
    if rnum is None or xnum is None or rbig * xbig * n * red.growth >= _FLOAT_EXACT:
        return None

    s, r = split_square(rside[0] * xside[0])
    den = rden * xden
    zero = Scalar.zero()
    shared: dict[tuple[int, int, int], Scalar] = {}

    def to_scalar(counts, found):
        if found is None:
            nz = np.flatnonzero(counts)
            if not len(nz):
                return zero
            return Scalar(L, {b: Fraction(int(n) * s, den) for b, n
                              in zip(red.basis[nz].tolist(), counts[nz].tolist())}, r, _trusted=True)
        out = shared.get(found)
        if out is None:
            t, r2, j = found
            s2, rr = split_square(r * r2)
            g = gcd(j, L)
            out = Scalar(L // g, {j // g: Fraction(s * s2 * t, den)}, rr, _trusted=True)
            shared[found] = out
        return out

    result = []
    for row in range(len(rows)):
        live = np.flatnonzero(nzr[row])
        if not len(live):
            result.append([zero] * dim)
            continue
        er = rexp[rslots[row, live]][:, None]
        nr = rnum[rslots[row, live]][:, None]
        width = max(1, _CHUNK_ELEMS // max(L, len(live), len(red.src)))
        coords = []
        for j0 in range(0, dim, width):
            sl = xslots[live, j0:j0 + width]
            w = sl.shape[1]
            E = er + xexp[sl]
            E %= L
            E += np.arange(w) * L
            H = np.bincount(E.ravel(), (nr * xnum[sl]).ravel(), minlength=w * L).reshape(w, L)
            reduced = _reduce_rows(H, red)
            coords.extend(map(to_scalar, reduced, _monomials(H, reduced, L, red)))
        result.append(coords)
    return result

