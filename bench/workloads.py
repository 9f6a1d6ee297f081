"""Seeded inputs for the four benchmark workloads.

Each workload is a list of rounds; a round is a list of operations, each a
plain dict (``kind`` plus parameters).  Every round holds the same kinds at
the same sizes, for every seed: costs grow as N^2 to N^3, so a size drawn
from the seed would move the work of a run by more than the benchmark's
bounds.  The order inside a round is fixed too, because an operation's
cost depends on what ran before it (a large trace leaves the CPU caches
cold for the kernel grid after it).  The seed draws everything that leaves
the cost alone: the sampled indices, roots, coefficients and rationals, the
pooled mu of the cached free-propagator grids, and the CLI's lattice
rationals and pairing indices.  The program under test receives only these
generated inputs.

Nothing here imports finiteweyl: generating inputs is plain arithmetic on
integers and fractions.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

WORKLOADS = ("exact-structure", "exact-morphism", "float-continuum", "cli")

# Enough rounds for the longest run at the fastest measured round time, with
# a wide margin; a run that uses them all starts again at round 0.
ROUNDS = {"exact-structure": 40, "exact-morphism": 120, "float-continuum": 400, "cli": 60}

# Peak memory the float workload may plan for its largest single kernel call,
# checked before anything runs.  qho_trace and the Gauss constant build a few
# int64 and complex128 arrays of the summation length at once; 56 bytes per
# term covers n, n*n mod N, the exponent, the phase and its exponential.
FLOAT_MEMORY_BUDGET = 512 * 2**20
BYTES_PER_TERM = 56

# Even N whose squarefree part is 1 or 2: G(N) lives at conductor 2N and
# sqrt(N) zeta_8 at conductor 8, so the Gauss-sum checks stay at the
# conductors 64..1024 that the scalar chains use.
STRUCTURE_GAUSS_SUM_N = (32, 200, 512)
STRUCTURE_SCALAR_L = (128, 384, 1024)

def make_inputs(workload: str, seed: int) -> list[list[dict]]:
    """All rounds of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    make = {
        "exact-structure": _structure_round,
        "exact-morphism": _morphism_round,
        "float-continuum": _float_round,
        "cli": _cli_round,
    }[workload]
    if workload == "float-continuum":
        # Two mu values per run that the free-propagator grids keep returning
        # to, so their Gauss constants are cache hits after the first use;
        # and a cycle of fresh (mu, t) keys longer than the library's cache,
        # so that the one fresh grid of each round always misses it.
        pool = rng.sample(range(FREE_POOL_MU[0], FREE_POOL_MU[1] + 1, 12), 2)
        fresh = [(mu, t) for mu in range(FREE_FRESH_MU[0], FREE_FRESH_MU[1] + 1, 12) for t in TIMES]
        rng.shuffle(fresh)
        make = functools.partial(make, pool=pool, fresh=fresh)
    rounds = [make(rng, r) for r in range(ROUNDS[workload])]
    if workload == "float-continuum":
        check_memory_budget(rounds)
    return rounds


# ---------------------------------------------------------------------------
# exact-structure: the acceptance gate's exact checks, as a stream
# ---------------------------------------------------------------------------

def _pairs(rng, N, count):
    return [(rng.randrange(N), rng.randrange(N)) for _ in range(count)]


def _basis(rng, N):
    return {"kind": "basis", "N": N, "pairs": _pairs(rng, N, 8)}


def _fourier(rng, N):
    # Phi^2 = parity: composed in full up to N = 16, applied to one sampled
    # column above, as the acceptance gate does.
    ms = list(range(N)) if N <= 16 else [rng.randrange(N)]
    return {"kind": "fourier", "N": N, "sample": 4, "ms": ms}


def _gaussian(rng, N, count):
    return {"kind": "gaussian", "N": N, "ns": [rng.randrange(N) for _ in range(count)]}


def _qho(rng, N):
    return {"kind": "qho", "N": N, "sample": 4 if N <= 225 else 3}


def _structure_round(rng, r):
    # Seven cheap checks (Gauss sums, scalar chains, the smallest basis) and
    # three Gaussians at N = 24 put the median operation on that Gaussian
    # whatever the order of the 30-60 ms checks around it: the median then
    # rests on three timings a round, not one.
    ops = [{"kind": "gauss_sum", "N": N} for N in STRUCTURE_GAUSS_SUM_N]
    for L in STRUCTURE_SCALAR_L:
        ops.append({
            "kind": "scalar_chain",
            "L": L,
            "terms": [[(rng.randrange(L), rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(3)]
                      for _ in range(3)],
        })
    return ops + [
        _basis(rng, 20),
        _basis(rng, 64),
        _basis(rng, 248),
        _fourier(rng, 12),
        _fourier(rng, 36),
        _gaussian(rng, 24, 2),
        _gaussian(rng, 24, 2),
        _gaussian(rng, 24, 2),
        _gaussian(rng, 52, 2),
        _qho(rng, 225),
        # the tail that sets op_p90_ms: the large builds
        _gaussian(rng, 104, 1),
        _fourier(rng, 120),
        _qho(rng, 450),
    ]


# ---------------------------------------------------------------------------
# exact-morphism: many small instances of the morphism suite
# ---------------------------------------------------------------------------

# (n, k, NB) with n in 1..5, k in 1..3, NB <= 12 and N_A = n k NB <= 120,
# four shapes from each of three bands of N_A.  Cost grows as N_A^2, so the
# small band (N_A 12..24) sits below op_p50_ms, the middle band (36..48)
# holds it and the large band (96..120) holds op_p90_ms.  Capping NB keeps
# the cost of an instance set by N_A: a single large summand (n = k = 1,
# NB = N_A) costs several times more.
MORPHISM_SHAPES = (
    (1, 2, 6), (2, 1, 8), (3, 2, 3), (2, 3, 4),
    (3, 1, 12), (2, 2, 10), (4, 1, 11), (2, 3, 8),
    (4, 2, 12), (5, 2, 10), (3, 3, 12), (5, 2, 12),
)


def _morphism_op(rng, n, k, nb):
    NA = n * k * nb
    return {
        "kind": "morphism",
        "n": n, "k": k, "NB": nb,
        "branch": rng.randrange(n * k),
        "root": rng.randrange(nb),
        "j": [rng.randrange(nb) for _ in range(2)],
        "ij": (rng.randrange(nb), rng.randrange(nb)),
        "unit_roots": [rng.randrange(NA) for _ in range(NA)],
        "uv": (rng.randrange(nb), rng.randrange(nb)),
    }


def _morphism_round(rng, r):
    return [_morphism_op(rng, *shape) for shape in MORPHISM_SHAPES]


# ---------------------------------------------------------------------------
# float-continuum: dirac kernels, traces and sweeps
# ---------------------------------------------------------------------------

GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]
TIMES = ("1/2", "1", "3/2")
# mu for the free-propagator grids, multiples of 12 so that bd | N and N/bd
# is even for every t.  The two bands do not meet, and 12 fresh mu times 3 t
# give 36 Gauss-constant keys, more than the library's cache of 32 holds.
FREE_POOL_MU = (720, 1200)
FREE_FRESH_MU = (540, 672)
QHO_GRID_MU = (((3, 4, 5), 600), ((3, 4, 5), 1800), ((3, 4, 5), 3600),
               ((5, 12, 13), 1300), ((5, 12, 13), 2600), ((5, 12, 13), 3900))
# qho_trace needs e c^2 (c-f) | N with a quotient divisible by 4: mu a
# multiple of 30, 130 and 136 for the three triples.  N runs from 4.4e4 to
# 7.0e7 (mu = 8370 for the triple (3,4,5)).
SMALL_TRACES = (((3, 4, 5), 210), ((5, 12, 13), 1300), ((8, 15, 17), 1360))
LARGE_TRACE_MU = (7800, 8100, 8370)
TRACE_MU_TOP = max(LARGE_TRACE_MU)
WEAKRING_MU = 5000


def _float_round(rng, r, pool, fresh):
    # Twelve cheap grids (cache hits and QHO kernels, 25 points each) hold
    # op_p50_ms; the three largest traces hold op_p90_ms.
    ops = [{"kind": "free_grid", "t": t, "mu": mu, "xs": GRID} for t in TIMES for mu in pool]
    for triple, mu in QHO_GRID_MU:
        ops.append({"kind": "qho_grid", "triple": triple, "mu": mu, "xs": GRID})
    mu, t = fresh[r % len(fresh)]
    ops.append({"kind": "free_grid", "t": t, "mu": mu, "xs": GRID, "fresh": True})
    ops += [{"kind": "trace", "triple": triple, "mu": mu} for triple, mu in SMALL_TRACES]
    ops.append({"kind": "converge", "quantity": "ccr", "mus": [60 * 2**i for i in range(4)]})
    ops.append({"kind": "converge", "quantity": "weakring", "mus": [WEAKRING_MU],
                "seed": rng.randrange(1000)})
    ops += [{"kind": "trace", "triple": (3, 4, 5), "mu": mu} for mu in LARGE_TRACE_MU]
    return ops


def op_type(op: dict) -> str:
    """The operation's type: its kind and every parameter that sets its cost.

    Every round of a workload holds the same types, whatever the seed.  A
    free-propagator grid costs the same at any pooled mu (a cached Gauss
    constant), and a fresh grid always pays for one.
    """
    kind = op["kind"]
    if kind == "cli":
        argv = op["argv"]
        if op["expect"] != 0:
            return "cli exit2"
        return f"cli {argv[0]} {argv[2] if argv[0] == 'transform' else argv[1]}"
    if kind == "free_grid":
        return "free_grid fresh" if op.get("fresh") else "free_grid cached"
    size = " ".join(f"{k}={op[k]}" for k in ("N", "L", "n", "k", "NB", "triple", "mu", "quantity")
                    if k in op)
    return f"{kind} {size}"


def trace_terms(triple, mu) -> int:
    """Length of the sum qho_trace evaluates at h = 1: N / (e c (c - f))."""
    e, f, c = triple
    return mu * mu // (e * c * (c - f))


def planned_bytes(op: dict) -> int:
    """Array bytes one float operation plans to allocate at once (computed)."""
    N = op["mu"] ** 2 if "mu" in op else 0
    if op["kind"] == "trace":
        return BYTES_PER_TERM * trace_terms(op["triple"], op["mu"])
    if op["kind"] == "free_grid":
        t = Fraction(op["t"])
        return BYTES_PER_TERM * (N // (t.numerator * t.denominator))
    return 0


def check_memory_budget(rounds) -> int:
    """Largest planned allocation; raises MemoryError above the budget."""
    worst = max(planned_bytes(op) for rnd in rounds for op in rnd)
    if worst > FLOAT_MEMORY_BUDGET:
        raise MemoryError(
            f"largest float operation plans {worst / 2**20:.0f} MiB, "
            f"over the {FLOAT_MEMORY_BUDGET / 2**20:.0f} MiB budget"
        )
    return worst


# ---------------------------------------------------------------------------
# cli: the README commands, one subprocess at a time
# ---------------------------------------------------------------------------

def _rat(rng):
    return Fraction(rng.randint(1, 4), rng.randint(1, 6))


def fmt_rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


# Inputs the CLI must refuse with exit code 2 and a named precondition.
CLI_REFUSALS = (
    ["transform", "--name", "gaussian", "--n", "6", "--b", "1", "--d", "2"],
    ["trace", "qho", "--mu", "7"],
    ["trace", "qho", "--triple", "3,4,5", "--mu", "16"],
    ["propagator", "free", "--t", "1/3", "--mu", "10"],
    ["transform", "--name", "qho", "--n", "100", "--triple", "3,4,5"],
)


def _cli_round(rng, r):
    # Each transform twice: the two slowest commands then fill the top four
    # places of a round, so op_p90_ms rests on two timings a round each.
    # The refusal and the free propagator's t take turns by round, the same
    # for every seed: they cost different amounts.
    a, b = _rat(rng), _rat(rng)
    transforms = [{"argv": ["transform", "--name", name, "--n", "12"]}
                  for name in ("fourier", "gaussian") for _ in range(2)]
    ops = [
        {"argv": ["lattice", "--center", f"{fmt_rat(a)},{fmt_rat(b)}"]},
        {"argv": ["basis", "--alg", "1,1/8", "--which", "v", "--mode", "float"]},
        {"argv": ["pairing", "--n", "16",
                  "--left", f"u:{rng.randrange(64)}", "--right", f"{rng.choice('uv')}:{rng.randrange(64)}"]},
        *transforms,
        {"argv": ["propagator", "free", "--t", TIMES[r % len(TIMES)], "--mu", "240", "--grid=-1:1:5"]},
        {"argv": ["propagator", "qho", "--triple", "3,4,5", "--mu", "300", "--grid=-1:1:5"]},
        {"argv": ["trace", "qho", "--triple", "3,4,5", "--h", "1", "--mu", "auto",
                  "--mu-min", "1000"]},
        {"argv": ["converge", "ccr", "--mu", "30,60,120,240"]},
        {"argv": list(CLI_REFUSALS[r % len(CLI_REFUSALS)]), "expect": 2},
    ]
    for op in ops:
        op["kind"] = "cli"
        op.setdefault("expect", 0)
    return ops

