"""finiteweyl benchmark: one command, four seeded closed-loop workloads.

    python3 bench/run.py --workload exact-structure --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for the inputs and BENCHMARK.json for why each
was chosen): exact-structure, exact-morphism, float-continuum, cli.  Each
runs in this one process with one client and no threads: the next operation
starts when the previous one, including its check, has finished.  Nothing
waits in a queue, so per-layer waiting time is zero by construction and is
not reported.

The host is shared: over seconds and over minutes its neighbours slow
this process by up to 1.8x.  The timing metrics are therefore built per
operation type (every round holds the same types, see workloads.op_type),
from each type's median latency in the run: ops_per_s is the operations of
one round over the sum of their median latencies, and op_p50_ms /
op_p90_ms are the median and 90th percentile of those latencies over the
operations of one round.

Before each operation (each third, for cli) the benchmark times a fixed
reference that does the workload's kind of work, written here with no code
from the library: for the exact workloads a product of two Fraction
polynomials, for float-continuum a pure-Python integer loop, for cli a
fresh interpreter importing numpy.  Every latency is scaled by the
reference's nominal time over the reference time taken just before it, so
it reads as it would on a host that runs the reference in its nominal
time.  Set-up time is scaled the same way by the numpy imports timed beside
it.  A change to the program moves these times as it moves wall time; a
change in the host's speed moves them much less.  Raw wall times are
printed beside them and kept in the run record.  The first round of a pass
fills the library's caches and is checked but not timed.

--trace 0 measures the end-to-end metrics.  --trace 1 spends half of
--seconds untraced and half traced (caches cleared in between) and reports
the per-layer metrics from the traced half, plus the tracing overhead
against the untraced half.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it list every metric with its unit and sample count.
A run record (machine, commit, seed, metrics, line counts, predictions,
known defects) and, when traced, the spans are written under bench/out/.

The benchmark pins itself, and so every child it starts, to the first CPU
it may use.  The package is imported from src/ next to this directory;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
INTERP_PROBES = 5
REF_TERMS = 24
REF_ORDER = 512
REF_NOMINAL_S = 3e-3
LOOP_ITERATIONS = 20000
LOOP_NOMINAL_S = 1.5e-3
IMPORT_NOMINAL_S = 0.15
# A CLI run is timed against a fresh interpreter importing numpy, which costs
# half a run: timing it before every third run keeps enough runs to time.
IMPORT_EVERY = 3
# Rounds at the start of a pass that are checked but not timed: they fill
# the library's caches.  A CLI run starts a fresh interpreter, so it has no
# cache to fill, and its rounds are too few to spare one.
WARMUP_ROUNDS = {"exact-structure": 1, "exact-morphism": 1, "float-continuum": 1, "cli": 0}

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def _reference_poly(rng):
    return {rng.randrange(REF_ORDER): Fraction(rng.randint(1, 99), rng.randint(1, 99))
            for _ in range(REF_TERMS)}


_REF_RNG = random.Random(0)
REF_A, REF_B = _reference_poly(_REF_RNG), _reference_poly(_REF_RNG)


def reference_s():
    """Wall time of a fixed product of two sparse polynomials with Fraction
    coefficients, mod x^REF_ORDER - 1: the kind of work exact cyclotomic
    arithmetic does, written here with no code from the library.  Its time
    says how fast the host runs such work right now."""
    clock = time.perf_counter
    t0 = clock()
    out = {}
    for i, a in REF_A.items():
        for j, b in REF_B.items():
            k = (i + j) % REF_ORDER
            out[k] = out.get(k, 0) + a * b
    return clock() - t0


def loop_s():
    """Wall time of a fixed pure-Python integer loop: the interpreter-bound
    work of the float kernels' per-point loops, as their reference."""
    clock = time.perf_counter
    t0 = clock()
    s = 0
    for i in range(LOOP_ITERATIONS):
        s += i * i % 7
    return clock() - t0


def child_s(code):
    """Wall time of a fresh interpreter that runs `code` and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True,
                   timeout=60)
    return time.perf_counter() - t0


def import_s():
    """Wall time of a fresh interpreter that imports numpy, the package's
    heaviest dependency, and nothing of the library: the kind of work that
    CLI runs and set-up do, as their reference."""
    return child_s("import numpy")


def reference_for(workload):
    """(timer, nominal seconds, every how many operations) of the reference
    that does the workload's kind of work."""
    if workload == "cli":
        return import_s, IMPORT_NOMINAL_S, IMPORT_EVERY
    if workload == "float-continuum":
        return loop_s, LOOP_NOMINAL_S, 1
    return reference_s, REF_NOMINAL_S, 1


def measure_setup(workload, seed):
    """Import finiteweyl and generate the inputs in fresh interpreters.

    Returns (total, import, reference) seconds for each repeat: the first two
    timed inside the child, the last the import_s reference timed just
    before it.
    """
    code = (
        "import time; t0 = time.perf_counter(); import finiteweyl; t1 = time.perf_counter(); "
        "import workloads; workloads.make_inputs(%r, %d); t2 = time.perf_counter(); "
        "print(t2 - t0, t1 - t0)" % (workload, seed)
    )
    out = []
    for _ in range(SETUP_REPEATS):
        ref = import_s()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed in a fresh interpreter:\n{proc.stderr}")
        total, imp = (float(x) for x in proc.stdout.split())
        out.append((total, imp, ref))
    return out


def import_package():
    if not (SRC / "finiteweyl" / "__init__.py").is_file():
        print(f"finiteweyl sources not found under {SRC.name}/ next to the benchmark", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import finiteweyl

    if Path(finiteweyl.__file__).resolve().parent != SRC / "finiteweyl":
        print(f"imported finiteweyl from {finiteweyl.__file__}, not from {SRC.name}/", file=sys.stderr)
        sys.exit(2)


def caches():
    """The library's lru caches, by name."""
    from finiteweyl import dirac, exactnum

    return {
        "phase": exactnum._phase_cached,
        "gauss": dirac._gauss_constant,
        "split_square": exactnum.split_square,
        "cyclotomic_poly": exactnum.cyclotomic_poly,
        "monomial_rows": exactnum._monomial_rows,
        "sqrt_as_cyc": exactnum.sqrt_as_cyc,
    }


def run_pass(rounds, api, seconds, warmup, reference, tracer=None):
    """Operations in round order until `seconds` have passed.

    Before every operation, or every few for a costly reference (see
    reference_for), the reference is timed outside the operations' own time.
    Returns every operation's result, every reference time and, for each
    operation after the first `warmup` rounds, its type, its latency and the
    last reference time before it.  The warm-up rounds count towards
    attempted and failed but not towards the timing metrics.
    """
    from ops import KINDS, execute

    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    timer, nominal, every = reference
    results, timed, refs, failures = [], [], [], []
    for r, rnd in enumerate(itertools.cycle(rounds)):
        for op in rnd:
            if clock() >= deadline:
                break
            if len(results) % every == 0:
                refs.append(timer())
            if tracer:
                tracer.begin_op()
            t0 = clock()
            ok = execute(api, op)
            t1 = clock()
            if tracer:
                tracer.end_op(op["kind"], KINDS[op["kind"]][0], t0, t1, ok)
            timed.append((r, workloads.op_type(op), t1 - t0, refs[-1]))
            results.append(ok)
            if not ok and len(failures) < 10:
                failures.append(op)
        else:
            continue
        break
    # a run shorter than the warm-up times what ran
    timed = [t[1:] for t in timed if t[0] >= warmup] or [t[1:] for t in timed]
    return {"attempted": len(results), "failed": results.count(False), "timed": timed,
            "refs": refs, "nominal": nominal, "mix": [workloads.op_type(op) for op in rounds[0]],
            "elapsed": clock() - start, "start": start, "failures": failures}


def type_latencies(res, raw=False):
    """Each operation type's median latency, at reference speed unless `raw`.

    At reference speed, each latency is scaled by the reference's nominal
    time over the reference time taken just before it, so it is judged
    against the host's speed at that moment.
    """
    by_type = collections.defaultdict(list)
    for key, lat, ref in res["timed"]:
        by_type[key].append(lat if raw else lat * res["nominal"] / ref)
    return {k: statistics.median(v) for k, v in by_type.items()}


def latency_stats(res, raw=False):
    """(ops per second, p50, p90) of one round's mix, each operation at its type's median latency.

    Types that no timed operation reached (a run shorter than a round) are
    left out of the mix.
    """
    typical = type_latencies(res, raw)
    lat = [typical[k] for k in res["mix"] if k in typical]
    deciles = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else lat * 9
    return len(lat) / sum(lat), statistics.median(lat), deciles[8]


def sample_counts(res):
    """(timed operations, fewest timed runs of any one type in the mix)."""
    per_type = collections.Counter(k for k, _, _ in res["timed"])
    return len(res["timed"]), min(per_type[k] for k in res["mix"])


def end_to_end(res, setup, workload):
    ops, p50, p90 = latency_stats(res)
    n, _ = sample_counts(res)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(t for t, _, _ in setup) * IMPORT_NOMINAL_S
                    / statistics.median(ref for _, _, ref in setup), "s", len(setup)),
        "ops_per_s": (ops, "1/s", n),
        "op_p50_ms": (p50 * 1e3, "ms", n),
        "op_p90_ms": (p90 * 1e3, "ms", n),
        "pass_ratio": (1 - res["failed"] / res["attempted"], "ratio", res["attempted"]),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MiB", 1),
    }


def raw_times(res, setup):
    """The timing metrics from raw wall times, and what the scaling used, for the record."""
    ops, p50, p90 = latency_stats(res, raw=True)
    refs = res["refs"]
    lats = [lat for _, lat, _ in res["timed"]]
    n, fewest = sample_counts(res)
    runs = collections.Counter(k for k, _, _ in res["timed"])
    per_type = {k: {"median_ms": v * 1e3, "runs": runs[k]}
                for k, v in sorted(type_latencies(res, raw=True).items(), key=lambda kv: kv[1])}
    return {"setup_s": statistics.median(t for t, _, _ in setup), "ops_per_s": ops,
            "op_p50_ms": p50 * 1e3, "op_p90_ms": p90 * 1e3,
            "median_latency_ms": statistics.median(lats) * 1e3,
            "fewest_runs_per_type": fewest,
            "reference_ms": {"min": min(refs) * 1e3, "median": statistics.median(refs) * 1e3,
                                  "max": max(refs) * 1e3, "samples": len(refs)},
            "per_type": per_type}


def known_defects():
    """Known defects (ROADMAP item 5), probed outside the timed loop so they stay visible."""
    from finiteweyl import cli
    from finiteweyl.exactnum import Cyc

    import ops

    out = {}
    got = Cyc(4, {0: 1, 4: 1}).eval()
    out["cyc_key_collision"] = {"input": "Cyc(4, {0: 1, 4: 1})", "expected": 2.0, "got": got.real,
                                "present": abs(got - 2) > 1e-12}
    argv = ["propagator", "free", "--mu", "120", "--grid=-1:1:0"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    proc = subprocess.CompletedProcess(argv, code, buf.getvalue(), "")
    ok, samples = ops.cli_check(None, {"argv": argv, "expect": 0}, proc)
    out["empty_grid_vacuous_pass"] = {"input": " ".join(argv), "exit_code": code,
                                      "samples": samples, "checker_passes": ok and samples > 0,
                                      "present": code == 0 and ok and samples == 0}
    return out


def machine_facts():
    import numpy

    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "cpu_pinned": sorted(os.sched_getaffinity(0)),
            # imports compile from source on every start when bytecode is not written
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)}


def source_facts():
    files = sorted((SRC / "finiteweyl").glob("*.py"))
    lines = {f.stem: len(f.read_text().splitlines()) for f in files}
    digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest, "lines": lines}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # One CPU for this process and every child it starts: the scheduler
    # otherwise moves runs between CPUs that, on a shared host, run at
    # different speeds.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_package()
    import tracing

    setup = measure_setup(args.workload, args.seed)
    rounds = workloads.make_inputs(args.workload, args.seed)
    run_cli = tracing.cli_runner(child_env(), ROOT)
    table = tracing.api_table(run_cli)
    facts = source_facts()
    lines = facts["lines"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts(), "source": facts,
              "predictions": tracing.PREDICTIONS}
    if args.workload == "float-continuum":
        record["float_memory"] = {"budget_bytes": workloads.FLOAT_MEMORY_BUDGET,
                                  "largest_planned_bytes": workloads.check_memory_budget(rounds)}

    warmup = WARMUP_ROUNDS[args.workload]
    reference = reference_for(args.workload)
    record["reference"] = {"timer": reference[0].__name__, "nominal_s": reference[1],
                           "every": reference[2],
                           "setup_timer": "import_s", "setup_nominal_s": IMPORT_NOMINAL_S,
                           "warmup_rounds": warmup}
    if args.trace == 0:
        res = run_pass(rounds, tracing.make_api(table), args.seconds, warmup, reference)
        metrics = end_to_end(res, setup, args.workload)
        record["raw_wall_times"] = raw_times(res, setup)
    else:
        res0 = run_pass(rounds, tracing.make_api(table), args.seconds / 2, warmup, reference)
        for c in caches().values():
            c.cache_clear()
        tracer = tracing.Tracer({"free_propagator": lambda: caches()["gauss"].cache_info().misses})
        res = run_pass(rounds, tracing.make_api(table, tracer), args.seconds / 2, warmup, reference,
                       tracer)
        info = {k: c.cache_info() for k, c in caches().items()}
        probes = {"interp": [child_s("pass") for _ in range(INTERP_PROBES)],
                  "import": [imp for _, imp, _ in setup]}
        metrics = tracing.layer_metrics(
            tracer.spans, {k: (i.hits, i.misses) for k, i in info.items()}, probes,
            workloads.BYTES_PER_TERM)
        metrics["trace.overhead"] = (1 - latency_stats(res)[0] / latency_stats(res0)[0],
                                     "ratio", len(res["timed"]))
        metrics["src.lines"] = (sum(lines.values()), "lines", len(lines))
        for L in tracing.LAYERS:
            metrics[f"{L}.lines"] = (lines[L], "lines", 1)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path, res["start"])
        record["spans"] = str(spans_path.relative_to(ROOT))
        record["untraced_half"] = {"attempted": res0["attempted"], "failed": res0["failed"],
                                   "timed": len(res0["timed"]), "elapsed_s": res0["elapsed"]}
        res["attempted"] += res0["attempted"]
        res["failed"] += res0["failed"]
        res["failures"] = res0["failures"] + res["failures"]

    attempted, failed = res["attempted"], res["failed"]
    record["run"] = {"attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
                     "timed": len(res["timed"]), "elapsed_s": res["elapsed"],
                     "first_failed_operations": res["failures"]}
    record["metrics"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}
    record["known_defects"] = known_defects()
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} operations, "
          f"{len(res['timed'])} timed, {res['elapsed']:.2f} s, failed {failed} "
          f"(fail_ratio {failed / attempted:.4f})")
    if args.trace:
        print("# waiting time: zero by construction (one client, closed loop), not reported")
    if args.trace == 0:
        print(f"# times at reference speed ({reference[0].__name__} {reference[1] * 1e3:g} ms); "
              f"raw wall times: " + ", ".join(f"{k} {v:.6g}" for k, v in record["raw_wall_times"].items()
                                              if not isinstance(v, dict)))
    for name, (value, unit, n) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit:10s} n={n}")
    for name, d in record["known_defects"].items():
        print(f"# known defect {name}: {'present' if d['present'] else 'absent'}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
