"""Tests of the benchmark itself: seeded inputs, checkers, memory budget.

    python3 -m pytest -q bench/selftest.py

Each checker must reject a corrupted result: a flipped sign in one exact
amplitude, a kernel value off by 1e-6, a CLI run that exits 0 where 2 is
expected, or a result with zero samples.
"""

import copy
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import ops  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

API = tracing.make_api(tracing.api_table(run_cli=None))


def first(workload, kind, seed=3, **match):
    for rnd in workloads.make_inputs(workload, seed):
        for op in rnd:
            if op["kind"] == kind and all(op.get(k) == v for k, v in match.items()):
                return op
    raise LookupError(kind)


def passes(op, result):
    ok, samples = ops.KINDS[op["kind"]][2](API, op, result)
    return bool(ok) and samples > 0


def run(op):
    return ops.KINDS[op["kind"]][1](API, op)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    a = workloads.make_inputs(workload, 7)
    assert a == workloads.make_inputs(workload, 7)
    assert a != workloads.make_inputs(workload, 8)
    assert len(a) == workloads.ROUNDS[workload] and all(a)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_the_seed_does_not_change_the_kinds_or_sizes_of_a_round(workload):
    a, b = workloads.make_inputs(workload, 1), workloads.make_inputs(workload, 2)
    mix = sorted(map(workloads.op_type, a[0]))
    assert all(sorted(map(workloads.op_type, rnd)) == mix for rnd in a + b)


def test_every_fresh_free_grid_misses_the_gauss_constant_cache():
    from finiteweyl import dirac

    rounds = workloads.make_inputs("float-continuum", 5)
    keys = set()
    for rnd in rounds:
        for op in rnd:
            if op["kind"] == "free_grid":
                t = Fraction(op["t"])
                keys.add(op["mu"] ** 2 // (t.numerator * t.denominator))
    fresh = len(range(workloads.FREE_FRESH_MU[0], workloads.FREE_FRESH_MU[1] + 1, 12))
    assert len(keys) == 2 * len(workloads.TIMES) + fresh * len(workloads.TIMES)
    assert fresh * len(workloads.TIMES) > dirac._gauss_constant.cache_info().maxsize


def test_float_memory_budget_holds_before_anything_runs():
    for seed in range(20):
        rounds = workloads.make_inputs("float-continuum", seed)
        assert workloads.check_memory_budget(rounds) <= workloads.FLOAT_MEMORY_BUDGET
    # the largest trace is the one the issue names: N about 7e7
    assert 6e7 < workloads.TRACE_MU_TOP ** 2 < 8e7
    too_big = [[{"kind": "trace", "triple": (3, 4, 5), "mu": 30000}]]  # N = 9e8
    with pytest.raises(MemoryError):
        workloads.check_memory_budget(too_big)


# ---------------------------------------------------------------------------
# exact checkers
# ---------------------------------------------------------------------------

def small(op, **sizes):
    op = copy.deepcopy(op)
    op.update(sizes)
    return op


def test_basis_checker_rejects_a_flipped_amplitude():
    op = small(first("exact-structure", "basis"), N=12, pairs=[(3, 5), (0, 7)])
    M, vb = run(op)
    assert passes(op, (M, vb))
    vb[5].amps[3] = -vb[5].amps[3]
    assert not passes(op, (M, vb))


@pytest.mark.parametrize("N, ms", [(8, list(range(8))), (24, [5])])
def test_fourier_checker_rejects_a_flipped_amplitude(N, ms):
    op = small(first("exact-structure", "fourier"), N=N, ms=ms)
    M, Phi, reports, images = run(op)
    assert passes(op, (M, Phi, reports, images))
    img = images[-1]
    j = next(i for i, a in enumerate(img.amps) if not a.is_zero())
    img.amps[j] = -img.amps[j]
    assert not passes(op, (M, Phi, reports, images))


def test_gaussian_checker_rejects_a_flipped_amplitude():
    op = small(first("exact-structure", "gaussian"), N=8, ns=[3])
    M, vb, images = run(op)
    assert passes(op, (M, vb, images))
    images[0].amps[2] = -images[0].amps[2]
    assert not passes(op, (M, vb, images))


def test_qho_checker_rejects_a_failed_identity():
    op = first("exact-structure", "qho")
    K, reports = run(op)
    assert passes(op, (K, reports))
    col = K.images[0]
    j = next(i for i, a in enumerate(col.amps) if not a.is_zero())
    col.amps[j] = -col.amps[j]
    assert not passes(op, (K, API.verify_conjugation(K, sample=op["sample"])))
    assert not passes(op, (K, []))  # no identities checked is a failure


def test_gauss_sum_and_scalar_checkers_reject_wrong_values():
    op = small(first("exact-structure", "gauss_sum"), N=24)
    g = run(op)
    assert passes(op, g)
    assert not passes(op, API.mul(g, API.rational(-1)))
    op = first("exact-structure", "scalar_chain")
    pairs = run(op)
    assert passes(op, pairs)
    (x, y), rest = pairs[0], pairs[1:]
    assert not passes(op, [(x, API.canonical(API.mul(API.rational(-1), API.rational(1)).cyc))] + rest)


def test_morphism_checker_rejects_a_flipped_amplitude_and_a_wrong_row_sum():
    op = next(o for rnd in workloads.make_inputs("exact-morphism", 3) for o in rnd
              if 12 <= o["n"] * o["k"] * o["NB"] <= 30 and o["n"] * o["k"] > 1)
    parts, pairs, inner_pair, row_sum, pr = run(op)
    assert passes(op, (parts, pairs, inner_pair, row_sum, pr))
    lhs = pairs[0][0]
    j = next(i for i, a in enumerate(lhs.amps) if not a.is_zero())
    lhs.amps[j] = -lhs.amps[j]
    assert not passes(op, (parts, pairs, inner_pair, row_sum, pr))
    lhs.amps[j] = -lhs.amps[j]
    assert not passes(op, (parts, pairs, inner_pair, API.add(row_sum, row_sum), pr))


# ---------------------------------------------------------------------------
# float checkers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["free_grid", "qho_grid"])
def test_kernel_checker_rejects_a_value_off_by_1e_6(kind):
    op = first("float-continuum", kind)
    samples = run(op)
    assert passes(op, samples)
    samples[7].value += 1e-6
    assert not passes(op, samples)
    assert not passes(small(op, xs=[]), [])  # an empty grid is a failure, not a pass


def test_trace_and_converge_checkers_reject_wrong_values():
    op = small(first("float-continuum", "trace"), triple=(3, 4, 5), mu=210)
    r = run(op)
    assert passes(op, r)
    r.value += 1e-6
    assert not passes(op, r)
    op = {"kind": "converge", "quantity": "ccr", "mus": [60, 120, 240, 480]}
    rep = run(op)
    assert passes(op, rep)
    rep.fitted_order = -0.5
    assert not passes(op, rep)


# ---------------------------------------------------------------------------
# cli checker
# ---------------------------------------------------------------------------

def proc(argv, code, payload=None, stderr=""):
    return subprocess.CompletedProcess(argv, code, json.dumps(payload) if payload else "", stderr)


def test_cli_checker_rejects_exit_0_where_2_is_expected():
    argv = ["trace", "qho", "--mu", "7"]
    op = {"kind": "cli", "argv": argv, "expect": 2}
    refused = proc(argv, 2, stderr="precondition violated (DivisibilityViolation): N = 49 must be even")
    assert passes(op, refused)
    assert not passes(op, proc(argv, 0, {"meta": {}, "results": {}, "checks": []}))
    assert not passes(op, proc(argv, 2, stderr="Traceback (most recent call last):"))


def test_cli_checker_rejects_an_empty_grid_and_a_failed_check():
    argv = ["propagator", "free", "--mu", "120", "--grid=-1:1:0"]
    op = {"kind": "cli", "argv": argv, "expect": 0}
    check = {"name": "kernel_matches_closed_form", "passed": True, "value": 0.0, "tol": 1e-9}
    vacuous = {"meta": {}, "results": {"max_abs_err": 0.0, "samples": 0}, "checks": [check]}
    assert not passes(op, proc(argv, 0, vacuous))
    argv = ["propagator", "free", "--mu", "120", "--grid=-1:1:3"]
    op = {"kind": "cli", "argv": argv, "expect": 0}
    good = {"meta": {}, "results": {"max_abs_err": 1e-15, "samples": 9}, "checks": [check]}
    assert passes(op, proc(argv, 0, good))
    bad = copy.deepcopy(good)
    bad["checks"][0]["passed"] = False
    assert not passes(op, proc(argv, 0, bad))


def test_cli_checker_recomputes_lattice_results():
    argv = ["lattice", "--center", "1/2,1/2"]
    op = {"kind": "cli", "argv": argv, "expect": 0}
    assert passes(op, proc(argv, 0, {"results": {"center": "2,2", "q_order": 4}, "checks": []}))
    assert not passes(op, proc(argv, 0, {"results": {"center": "1,2", "q_order": 4}, "checks": []}))


def test_execute_counts_zero_samples_and_exceptions_as_failures():
    op = small(first("exact-structure", "basis"), N=6, pairs=[])
    assert not ops.execute(API, op)
    assert not ops.execute(API, small(op, N=0))  # raises: no module of dimension 0
    assert ops.execute(API, small(op, pairs=[(1, 2)]))


def test_timing_metrics_follow_the_program_and_not_the_host():
    import run

    timed = [("a", 0.012, 0.003), ("b", 0.024, 0.003), ("a", 0.016, 0.004), ("b", 0.036, 0.004)]
    res = {"mix": ["a", "b", "b"], "timed": timed, "refs": [0.003, 0.004], "nominal": 0.002}
    # at reference speed a runs in 0.008 twice and b in 0.016 and 0.018
    assert run.latency_stats(res) == pytest.approx((3 / 0.042, 0.017, 0.017))
    slow_host = dict(res, timed=[(k, 2 * t, 2 * r) for k, t, r in timed])
    assert run.latency_stats(slow_host) == pytest.approx(run.latency_stats(res))
    slow_program = dict(res, timed=[(k, 2 * t, r) for k, t, r in timed])
    assert run.latency_stats(slow_program) == pytest.approx((3 / 0.084, 0.034, 0.034))


def test_traced_api_records_spans_per_layer():
    tracer = tracing.Tracer({})
    api = tracing.make_api(tracing.api_table(run_cli=None), tracer)
    op = small(first("exact-structure", "basis"), N=6, pairs=[(1, 2)])
    tracer.begin_op()
    assert ops.execute(api, op)
    tracer.end_op("basis", "repmod", 0.0, 1.0, True)
    layers = {s[0] for s in tracer.spans}
    assert {"op", "lattice", "repmod", "exactnum"} <= layers
    assert all(s[4] == 0 for s in tracer.spans[1:])
