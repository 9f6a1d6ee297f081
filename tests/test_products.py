"""repmod.linear_combinations and the histogram kernel of `products` against oracles.

The kernel's oracle is linear_combinations as it stood before the kernel:
one scan of the vectors' nonzero entries per call and one `dot` per
coordinate and row.  The entry point's oracle is the naive
sum_i row[i] * cols[i][j] in Scalar arithmetic.  Results are compared term
for term after reducing both sides mod Phi_L at a common order L, by the
power-basis reduction the library used before the Zumbroich basis.
"""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from functools import cache
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finiteweyl import products, repmod
from finiteweyl.exactnum import Scalar, cyclotomic_poly, dot
from finiteweyl.products import PRODUCTS_CHUNK_BYTES
from finiteweyl.lattice import WeylDesc
from finiteweyl.repmod import SpecPoint, StateVec, build_module, linear_combination, v_basis
from finiteweyl.transform import fourier, gaussian


def monomial_products(rows, cols, conj=False):
    """The histogram kernel alone: None where it declines."""
    return products.monomial_products(rows, cols, len(cols[0]), conj)


def linear_combinations_oracle(module, rows, vecs):
    """Oracle: the per-coordinate path, products shared by identity."""
    n = min((len(r) for r in rows), default=0)
    idx = [[] for _ in range(module.dim)]
    amps = [[] for _ in range(module.dim)]
    for i, v in enumerate(vecs[:n]):
        if any(r[i].coeffs for r in rows):
            for j, a in enumerate(v.amps):
                if a.coeffs:
                    idx[j].append(i)
                    amps[j].append(a)
    shared = {}
    out = []
    for r in rows:
        coords = []
        for ix, am in zip(idx, amps):
            if len(ix) == 1:
                key = (id(r[ix[0]]), id(am[0]))
                if key not in shared:
                    shared[key] = dot([r[ix[0]]], am)
                coords.append(shared[key])
            else:
                coords.append(dot([r[i] for i in ix], am))
        out.append(StateVec(module, coords))
    return out


@cache
def power_rows(M):
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


def reduce_mod_cyclotomic(coeffs, M):
    """A sparse exponent -> coefficient map reduced mod Phi_M, on the power
    basis 1, x, ..., x^(deg - 1), with integer numerators over one
    common denominator."""
    deg = len(cyclotomic_poly(M)) - 1
    rows = power_rows(M)
    den = lcm(1, *[c.denominator for c in coeffs.values()])
    acc = [0] * deg
    for k, c in coeffs.items():
        n = c.numerator * (den // c.denominator)
        k %= M
        if k < deg:
            acc[k] += n
        else:
            for j, r in rows[k - deg]:
                acc[j] += n * r
    return {j: F(n, den) for j, n in enumerate(acc) if n}


def same(a, b):
    """a = b, term for term after reduction mod Phi_L at a common order L.

    Values with different radicands are compared through their squares,
    which carry none, and then by sign; folding sqrt(26) into a conductor
    1800 value would need Phi_23400.
    """
    if a.rad != b.rad:
        za, zb = a.to_complex(), b.to_complex()
        return same(a * a, b * b) and abs(za - zb) <= 1e-9 * (1 + abs(za))
    L = lcm(a.order, b.order)
    return (reduce_mod_cyclotomic(a.lift(L).coeffs, L)
            == reduce_mod_cyclotomic(b.lift(L).coeffs, L))


def module(N):
    return build_module(WeylDesc(1, F(1, N)), SpecPoint.principal_point())


@contextmanager
def products_min(value):
    saved = repmod.PRODUCTS_MIN
    repmod.PRODUCTS_MIN = value
    try:
        yield
    finally:
        repmod.PRODUCTS_MIN = saved


@pytest.fixture
def kernel_calls(monkeypatch):
    """Whether each sum the router sent to the histogram kernel came back
    (True) or was declined (False), in call order."""
    calls = []
    kernel = products.monomial_products

    def record(*args):
        out = kernel(*args)
        calls.append(out is not None)
        return out

    monkeypatch.setattr(products, "monomial_products", record)
    return calls


@pytest.fixture
def no_kernel(monkeypatch):
    """Fail any sum routed to the histogram kernel."""
    def refuse(*args):
        raise AssertionError("routed to the histogram kernel")

    monkeypatch.setattr(products, "monomial_products", refuse)


def monomial(rng, conductor, rad, density=0.8, big=12):
    """Zero, or zeta_d^k * (a/b) * sqrt(rad) for a divisor d of the conductor."""
    if rng.random() >= density:
        return Scalar.zero()
    d = rng.choice([x for x in (1, 2, 4, 8, conductor // 2, conductor) if conductor % x == 0])
    a = rng.choice([-1, 1]) * rng.randint(1, big)
    return Scalar(d, {rng.randrange(d): F(a, rng.randint(1, 6))}, rad)


def random_operands(rng, conductor, nrows, n, dim, rads=(1, 1), density=0.8):
    rows = [[monomial(rng, conductor, rads[0], density) for _ in range(n)] for _ in range(nrows)]
    # one entry of full order on each side, and a dense first column so that
    # the kernel's probe finds a coordinate with two terms
    rows[0][0] = Scalar(conductor, {1: F(1)}, rads[0])
    cols = [[monomial(rng, conductor, rads[1], density) for _ in range(dim)] for _ in range(n)]
    for c in cols:
        c[0] = Scalar(conductor, {rng.randrange(conductor): F(rng.randint(1, 5))}, rads[1])
    return rows, cols


def check_against_oracle(rows, cols, expect_kernel=True):
    dim = len(cols[0])
    M = module(dim)
    vecs = [StateVec(M, c) for c in cols]
    got = monomial_products(rows, cols)
    assert (got is not None) == expect_kernel
    expect = linear_combinations_oracle(M, rows, vecs)
    routed = repmod.linear_combinations(rows, cols, dim)
    for g, r, e in zip(got or routed, routed, expect):
        assert len(g) == dim
        assert all(same(a, b) for a, b in zip(g, e.amps))
        assert all(same(a, b) for a, b in zip(r, e.amps))
    return got


CONDUCTORS = (8, 120, 208, 240, 1800, 2048)
RADICANDS = ((1, 1), (2, 1), (1, 3), (6, 6), (26, 2), (3, 26))


class TestAgainstOracle:
    @pytest.mark.parametrize("conductor", CONDUCTORS)
    @pytest.mark.parametrize("rads", RADICANDS)
    def test_conductors_and_radicands(self, conductor, rads):
        rng = random.Random(conductor * 100 + rads[0] * 10 + rads[1])
        with products_min(0):
            check_against_oracle(*random_operands(rng, conductor, 2, 5, 7, rads))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_random_shapes(self, rng):
        conductor = rng.choice(CONDUCTORS)
        rads = rng.choice(RADICANDS)
        shape = (rng.randint(1, 3), rng.randint(2, 9), rng.randint(1, 9))
        with products_min(0):
            check_against_oracle(*random_operands(rng, conductor, *shape, rads,
                                                  density=rng.choice([0.3, 1.0])))

    @pytest.mark.parametrize("conductor", CONDUCTORS)
    def test_conjugated_rows(self, conductor):
        # conj(zeta^k c sqrt(r)) = zeta^-k c sqrt(r): the Gram matrices of
        # verify_conjugation's unitary check
        rng = random.Random(conductor)
        rows, cols = random_operands(rng, conductor, 3, 6, 5, rads=(6, 2))
        M = module(5)
        with products_min(0):
            got = monomial_products(rows, cols, conj=True)
        expect = linear_combinations_oracle(M, [[a.conj() for a in r] for r in rows],
                                            [StateVec(M, c) for c in cols])
        for g, e in zip(got, expect):
            assert all(same(a, b) for a, b in zip(g, e.amps))

    def test_zero_rows_and_zero_coordinates(self):
        rng = random.Random(5)
        rows, cols = random_operands(rng, 120, 3, 6, 8)
        rows[1] = [Scalar.zero()] * 6
        for c in cols:
            c[3] = Scalar.zero()
        with products_min(0):
            got = check_against_oracle(rows, cols)
        assert all(not a.coeffs for a in got[1])
        assert all(not row[3].coeffs for row in got)

    def test_multi_term_entries_fall_back(self):
        rng = random.Random(6)
        rows, cols = random_operands(rng, 240, 2, 5, 6)
        cols[2][1] = Scalar(240, {1: F(1), 7: F(-2, 3)})
        with products_min(0):
            check_against_oracle(rows, cols, expect_kernel=False)
            rows, cols = random_operands(rng, 240, 2, 5, 6)
            rows[1][3] = Scalar(8, {1: F(1), 3: F(1)})
            check_against_oracle(rows, cols, expect_kernel=False)

    def test_mixed_radicands_fall_back(self):
        rng = random.Random(7)
        rows, cols = random_operands(rng, 208, 2, 5, 6, rads=(2, 3))
        cols[4][2] = Scalar(8, {1: F(1)}, 6)
        with products_min(0):
            check_against_oracle(rows, cols, expect_kernel=False)

    def test_exactness_bound(self):
        # the largest numerators' product times the terms per coordinate times
        # the reduction's growth must stay below 2^53 for float64 sums
        def operands(num):
            rows = [[Scalar(8, {k: F(num)}) for k in range(4)]]
            cols = [[Scalar(8, {(k + j) % 8: F(num)}) for j in range(5)] for k in range(4)]
            return rows, cols

        growth = products._reduction(8).growth
        fits = int((2**53 // (4 * growth)) ** 0.5) - 1
        with products_min(0):
            check_against_oracle(*operands(fits))
            check_against_oracle(*operands(2**26), expect_kernel=False)
            check_against_oracle(*operands(2**60), expect_kernel=False)


class TestDispatch:
    def test_both_sides_of_the_threshold(self, kernel_calls):
        # the size rule is the router's alone: the kernel serves either sum,
        # and the router sends it the one of PRODUCTS_MIN products only
        rng = random.Random(8)
        n_min = repmod.PRODUCTS_MIN
        # one dense row: n * dim nonzero products
        for n, dim, used in ((16, n_min // 16, True), (16, n_min // 16 - 1, False)):
            rows = [[monomial(rng, 48, 1, density=1.0) for _ in range(n)]]
            cols = [[monomial(rng, 48, 2, density=1.0) for _ in range(dim)] for _ in range(n)]
            assert repmod._take_kernel(n * dim, cols) == used
            kernel_calls.clear()
            check_against_oracle(rows, cols)
            # the direct call, then the routed one when the router takes the kernel
            assert kernel_calls == ([True, True] if used else [True])

    def test_one_term_coordinates_stay_on_dot(self, no_kernel):
        # a basis with one nonzero entry per coordinate: nothing to sum
        M = module(32)
        rows = [[Scalar(64, {k: F(1)}) for k in range(32)] for _ in range(32)]
        cols = [M.basis_vector(k).amps for k in range(32)]
        assert repmod.linear_combinations(rows, cols, 32) == rows


def naive_combinations(rows, cols, dim, conj=False):
    """Oracle: sum_i row[i] * cols[i][j] in Scalar arithmetic, as zip pairs them."""
    out = []
    for r in rows:
        coords = []
        for j in range(dim):
            acc = Scalar.zero()
            for a, col in zip(r, cols):
                acc = acc + (a.conj() if conj else a) * col[j]
            coords.append(acc)
        out.append(coords)
    return out


def check_entry_point(rows, cols, dim, conj):
    got = repmod.linear_combinations(rows, cols, dim, conj=conj)
    expect = naive_combinations(rows, cols, dim, conj)
    assert len(got) == len(rows)
    for g, e in zip(got, expect):
        assert len(g) == dim
        assert all((a - b).is_zero() for a, b in zip(g, e))
    return got


@pytest.mark.parametrize("conj", [False, True], ids=["plain", "conj"])
@pytest.mark.parametrize("threshold", [0, 10**9], ids=["kernel-allowed", "below-threshold"])
class TestEntryPointAgainstNaive:
    """repmod.linear_combinations on both sides of PRODUCTS_MIN, against
    sum_i row[i] * cols[i][j]."""

    def test_dense_one_term_entries(self, conj, threshold, kernel_calls):
        rng = random.Random(11)
        rows, cols = random_operands(rng, 120, 3, 6, 7, rads=(2, 3))
        with products_min(threshold):
            check_entry_point(rows, cols, 7, conj)
        # the router declines below its threshold; the kernel serves these entries
        assert kernel_calls == ([True] if threshold == 0 else [])
        assert monomial_products(rows, cols, conj) is not None

    def test_block_sparse_one_term_coordinates(self, conj, threshold, no_kernel):
        # a summand basis: column i is nonzero on block i only, so every
        # coordinate is one product, which goes to `dot` like any other
        rng = random.Random(12)
        block, n = 3, 4
        cols = [[monomial(rng, 24, 1, density=1.0) if j // block == i else Scalar.zero()
                 for j in range(block * n)] for i in range(n)]
        shared = [Scalar(24, {5: F(3, 2)}, 2), Scalar(8, {3: F(-1)}, 2)]
        rows = [[shared[(i + k) % 2] for i in range(n)] for k in range(3)]
        with products_min(threshold):
            check_entry_point(rows, cols, block * n, conj)

    def test_multi_term_entries_and_mixed_radicands(self, conj, threshold):
        rng = random.Random(13)
        rows, cols = random_operands(rng, 240, 2, 5, 6)
        cols[2][1] = Scalar(240, {1: F(1), 7: F(-2, 3)})
        rows[1][3] = Scalar(8, {1: F(1)}, 6)
        with products_min(threshold):
            assert monomial_products(rows, cols, conj) is None
            check_entry_point(rows, cols, 6, conj)

    def test_all_zero_rows_and_ragged_rows(self, conj, threshold):
        rng = random.Random(14)
        rows, cols = random_operands(rng, 48, 3, 5, 4)
        rows[1] = [Scalar.zero()] * 5
        rows[2] = rows[2] + [Scalar.one()]  # entries past the columns are ignored
        with products_min(threshold):
            got = check_entry_point(rows, cols, 4, conj)
        assert all(not a.coeffs for a in got[1])

    def test_empty_column_list(self, conj, threshold):
        with products_min(threshold):
            got = check_entry_point([[Scalar.one()], []], [], 5, conj)
        assert all(not a.coeffs for row in got for a in row)
        M = module(5)
        with products_min(threshold):
            vec = linear_combination(M, [Scalar.one()], [])
        assert len(vec.amps) == 5 and vec.is_zero()


class TestRecognition:
    @pytest.mark.parametrize("N", [24, 52, 104])
    def test_gaussian_eigenvectors(self, N):
        M = module(N)
        G, vb = gaussian(M), v_basis(M)
        for n in (0, 3, N // 2 + 1):
            img = G.apply(vb[n])
            target = vb[n].scale(M.q_power(F(-n * n, 2)))
            assert all(len(a.coeffs) == 1 for a in img.amps)
            assert all(same(a, b) for a, b in zip(img.amps, target.amps))
            assert (img - target).is_zero()

    @pytest.mark.parametrize("N", [24, 120])
    def test_fourier_squared(self, N):
        M = module(N)
        Phi = fourier(M)
        Phi2 = fourier(Phi.ambient_ran)
        for m in (1, 5):
            img = Phi2.apply(Phi.image(m))
            for j, a in enumerate(img.amps):
                if j == (-m) % N:
                    assert a.rad == 1 and a.order == 1 and a.coeffs == {0: 1}
                else:
                    assert not a.coeffs

    def test_minimal_order(self):
        # zeta_8 zeta_8 + zeta_8 zeta_8 = 2 zeta_4 comes back at order 4
        z8 = Scalar(8, {1: F(1)})
        with products_min(0):
            got = monomial_products([[z8, z8]], [[z8] * 2, [z8] * 2])
        assert all(a.order == 4 and a.coeffs == {1: 2} for a in got[0])

    def test_two_root_sum_is_not_a_monomial(self):
        # 1 + zeta_8 has no one-term form: it comes back reduced, two terms
        one, z8 = Scalar.one(), Scalar(8, {1: F(1)})
        rows = [[one, one]]
        cols = [[one] * 3, [z8] * 3]
        with products_min(0):
            got = check_against_oracle(rows, cols)
        assert all(len(a.coeffs) == 2 for a in got[0])

    def test_radicand_from_the_sum(self):
        # zeta_8 + zeta_8^7 = sqrt(2): rational products, radicand 2 result
        z = [Scalar(8, {k: F(1)}) for k in (1, 7)]
        rows = [[Scalar.rational(3), Scalar.rational(3)]]
        with products_min(0):
            got = check_against_oracle(rows, [[z[0]] * 2, [z[1]] * 2])
        assert all(a.rad == 2 and a.order == 1 and a.coeffs == {0: 3} for a in got[0])
        # with sqrt(2) on the row side too, sqrt(2) sqrt(2) = 2: rational
        rows = [[Scalar(1, {0: F(3)}, 2)] * 2]
        with products_min(0):
            got = check_against_oracle(rows, [[z[0]] * 2, [z[1]] * 2])
        assert all(a.rad == 1 and a.order == 1 and a.coeffs == {0: 6} for a in got[0])


class TestAmplitudesStayPlainLists:
    def test_flip_after_a_kernel_call_is_seen(self):
        M = module(52)
        G, vb = gaussian(M), v_basis(M)
        x = vb[3]
        first = G.apply(x)
        assert (first - x.scale(M.q_power(F(-9, 2)))).is_zero()
        x.amps[7] = -x.amps[7]
        second = G.apply(x)
        expect = linear_combinations_oracle(M, [[x.amps[j] for j in range(52)]], G.images)[0]
        assert all(same(a, b) for a, b in zip(second.amps, expect.amps))
        assert not (second - first).is_zero()
        first.amps[0] = -first.amps[0]
        assert not (first - x.scale(M.q_power(F(-9, 2)))).is_zero()


class TestLargeN:
    def test_bounded_memory_at_1024(self):
        N = 1024
        M = module(N)
        G, vb = gaussian(M), v_basis(M)
        tracemalloc.start()
        try:
            img = G.apply(vb[5])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # chunk temporaries, a 4-byte slot and a 1-byte mask per operand
        # entry, and the N output Scalars
        assert peak < PRODUCTS_CHUNK_BYTES + 5 * (N * N + N) + (1 << 20)
        assert all(len(a.coeffs) == 1 for a in img.amps)
        assert (img - vb[5].scale(M.q_power(F(-25, 2)))).is_zero()


# Runs SUMS through repmod.linear_combinations in a fresh interpreter, numpy
# imported first when argv[1] is "numpy", and prints per sum its product
# count, whether numpy was loaded after it, and the repr of every coordinate.
ROUTE_SCRIPT = """
import json, random, sys
from fractions import Fraction as F
if sys.argv[1] == "numpy":
    import numpy
from finiteweyl import repmod
from finiteweyl.exactnum import Scalar
from finiteweyl.lattice import WeylDesc
from finiteweyl.repmod import SpecPoint, build_module
from finiteweyl.transform import fourier, gaussian

def operands(kind, *shape):
    if kind == "gram":
        name, N = shape
        M = build_module(WeylDesc(1, F(1, N)), SpecPoint.principal_point())
        imgs = [v.amps for v in (fourier if name == "fourier" else gaussian)(M).images]
        return imgs, list(zip(*imgs)), N, True
    rng = random.Random(sum(shape))
    def mono():
        return Scalar.zeta(24, rng.randrange(24)) * Scalar.rational(F(rng.randint(-5, 5), rng.randint(1, 4)))
    nrows, n, dim = shape
    return ([[mono() for _ in range(n)] for _ in range(nrows)],
            [[mono() for _ in range(dim)] for _ in range(n)], dim, kind == "conj")

out = []
for spec in json.loads(sys.argv[2]):
    rows, cols, dim, conj = operands(*spec)
    got = repmod.linear_combinations(rows, cols, dim, conj)
    out.append([len(rows) * len(cols) * dim, "numpy" in sys.modules, [[repr(a) for a in r] for r in got]])
print(json.dumps(out))
"""


class TestRoutesAgree:
    """The same sums without numpy and with numpy loaded: equal coordinates,
    and numpy imported exactly when the routing rule says."""

    # below PRODUCTS_MIN, between it and PRODUCTS_IMPORT, then past
    # PRODUCTS_IMPORT in one sum, then between again
    SUMS = [("gram", "fourier", 6), ("plain", 1, 8, 16),
            ("gram", "gaussian", 12), ("conj", 2, 16, 16), ("gram", "fourier", 16),
            ("plain", 32, 32, 32), ("conj", 3, 16, 24), ("gram", "gaussian", 16)]
    # two sums of about 20 000 products each: together past PRODUCTS_IMPORT
    BELOW_IMPORT = [("plain", 20, 32, 32), ("conj", 20, 32, 32)]

    def run(self, mode, sums):
        src = str(Path(repmod.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", ROUTE_SCRIPT, mode, json.dumps(sums)],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                              timeout=300, check=True)
        return json.loads(proc.stdout)

    def test_without_and_with_numpy(self):
        plain, loaded = self.run("plain", self.SUMS), self.run("numpy", self.SUMS)
        counts = [count for count, _, _ in plain]
        assert counts == [count for count, _, _ in loaded]
        # every regime is present, and no sum past the first large one
        # loads numpy on its own
        assert counts[0] < repmod.PRODUCTS_MIN and counts[1] < repmod.PRODUCTS_MIN
        assert counts[5] >= repmod.PRODUCTS_IMPORT
        assert all(repmod.PRODUCTS_MIN <= c < repmod.PRODUCTS_IMPORT for c in counts[2:5] + counts[6:])
        # the rule: numpy loads with the first sum of PRODUCTS_IMPORT products
        expect = [any(c >= repmod.PRODUCTS_IMPORT for c in counts[:i + 1]) for i in range(len(counts))]
        assert [flag for _, flag, _ in plain] == expect == [False] * 5 + [True] * 3
        assert all(flag for _, flag, _ in loaded)
        assert [coords for _, _, coords in plain] == [coords for _, _, coords in loaded]

    def test_sums_below_the_import_stay_on_dot(self):
        # each sum routes by its own size: the second does not import numpy
        # for the products of the first
        plain, loaded = self.run("plain", self.BELOW_IMPORT), self.run("numpy", self.BELOW_IMPORT)
        counts = [count for count, _, _ in plain]
        assert all(repmod.PRODUCTS_MIN <= c < repmod.PRODUCTS_IMPORT <= sum(counts) for c in counts)
        assert [flag for _, flag, _ in plain] == [False, False]
        assert [coords for _, _, coords in plain] == [coords for _, _, coords in loaded]


@pytest.mark.xfail(strict=True, reason="a sum that is t zeta^j sqrt(r) prints its radicand apart "
                   "from the kernel and folded from `dot` (one normal form per Scalar, radicand part)")
def test_recognised_monomials_print_alike():
    M = module(24)
    rows, cols = [v_basis(M)[3].amps], [v.amps for v in gaussian(M).images]
    kernel = repmod.linear_combinations(rows, cols, 24)
    with products_min(10**9):
        per_coordinate = repmod.linear_combinations(rows, cols, 24)
    assert all((a - b).is_zero() for a, b in zip(kernel[0], per_coordinate[0]))
    assert list(map(repr, kernel[0])) == list(map(repr, per_coordinate[0]))
