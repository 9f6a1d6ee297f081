"""The benchmark's view of finiteweyl's layers: the call table, spans, and
the per-layer metrics derived from them.

Every call the benchmark makes into the library goes through one ``api``
namespace built by ``make_api``.  Untraced, its attributes are the library
callables themselves.  Traced, each is wrapped so that the call records a
span: layer, name, start, end, the operation it belongs to, whether it
raised, and a few counts read at the same boundary.  Spans live in memory
and are written out when the run ends.

The spans sit in the benchmark's files, around the calls into each layer;
nothing inside the library is instrumented.  A layer's time is therefore the
time spent in the public functions the benchmark calls on it, including
whatever those functions call in lower layers.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

LAYERS = ("exactnum", "lattice", "repmod", "morphism", "transform", "dirac", "cli")
CLI_SUBCOMMANDS = ("lattice", "basis", "pairing", "transform", "propagator", "trace", "converge")

# Which end-to-end metric each layer metric is meant to move, and where.  A
# change to one layer should show on the workload named here and nowhere else.
PREDICTIONS = {
    "exactnum.*": "ops_per_s and op_p90_ms on exact-structure; op_p50_ms on exact-morphism",
    "repmod.*": "ops_per_s on exact-structure; op_p50_ms on exact-morphism",
    "transform.*": "op_p90_ms and ops_per_s on exact-structure "
                   "(tail: the basis, Fourier and Gaussian builds at N = 104-248)",
    "morphism.*": "ops_per_s and op_p50_ms on exact-morphism",
    "dirac.point_us": "op_p50_ms on float-continuum",
    "dirac.gauss_constant_ms, gauss_constant_hit_ratio, trace_*, converge_ms":
        "op_p90_ms and peak_rss_mb on float-continuum",
    "cli.interp_ms, cli.import_ms": "setup_s on every workload; op_p50_ms on cli",
    "cli.<subcommand>_ms, cli.exit2_ms": "op_p50_ms on cli",
    "lattice.*": "nothing: its share stays below 1% on every workload",
    "dirac.*": "nothing on exact-structure or exact-morphism (busy time about 0)",
    "exactnum/repmod/transform/morphism": "nothing on float-continuum (busy time about 0)",
}


def api_table(run_cli):
    """(layer, name, callable) for every library entry point the benchmark uses."""
    from finiteweyl import dirac, exactnum, lattice, morphism, repmod, transform

    S, C = exactnum.Scalar, exactnum.Cyc
    return [
        ("exactnum", "gauss_sum", exactnum.gauss_sum),
        ("exactnum", "mul", lambda a, b: a * b),
        ("exactnum", "add", lambda a, b: a + b),
        ("exactnum", "sub", lambda a, b: a - b),
        ("exactnum", "is_zero", lambda s: s.is_zero()),
        ("exactnum", "canonical", lambda c: c.canonical()),
        ("exactnum", "rational", S.rational),
        ("exactnum", "exact", S.exact),
        ("exactnum", "cyc_rational", C.rational),
        ("exactnum", "cyc_zeta", C.zeta),
        ("exactnum", "root_of_unity", exactnum.root_of_unity),
        ("lattice", "WeylDesc", lattice.WeylDesc),
        ("lattice", "GenWord", lattice.GenWord),
        ("repmod", "build_module", repmod.build_module),
        ("repmod", "principal_point", repmod.SpecPoint.principal_point),
        ("repmod", "v_basis", repmod.v_basis),
        ("repmod", "inner", repmod.inner),
        ("repmod", "apply_word", repmod.apply_word),
        ("repmod", "basis_vector", lambda M, k: M.basis_vector(k)),
        ("repmod", "q_power", lambda M, k: M.q_power(k)),
        ("repmod", "vsub", lambda x, y: x - y),
        ("repmod", "vis_zero", lambda x: x.is_zero()),
        ("repmod", "vscale", lambda x, s: x.scale(s)),
        ("repmod", "StateVec", repmod.StateVec),
        ("transform", "fourier", transform.fourier),
        ("transform", "gaussian", transform.gaussian),
        ("transform", "qho_evolution", transform.qho_evolution),
        ("transform", "compose", transform.compose),
        ("transform", "verify_conjugation", transform.verify_conjugation),
        ("transform", "apply", lambda L, x: L.apply(x)),
        ("morphism", "decompose", morphism.decompose),
        ("morphism", "embed_pbeta", morphism.embed_pbeta),
        ("morphism", "embed_apply", lambda emb, x: emb.apply(x)),
        ("morphism", "pairing", morphism.pairing),
        ("morphism", "pairing_row_sum", morphism.pairing_row_sum),
        ("dirac", "ScaleParams", dirac.ScaleParams),
        ("dirac", "free_propagator", dirac.free_propagator),
        ("dirac", "qho_propagator", dirac.qho_propagator),
        ("dirac", "qho_trace", dirac.qho_trace),
        ("dirac", "converge_study", dirac.converge_study),
        ("cli", "cli", run_cli),
    ]


class Tracer:
    """Spans in memory: (layer, name, start, end, parent, raised, attrs).

    A span's id is its index.  Operation spans have layer "op" and no
    parent; layer spans name the operation span they ran under.
    """

    def __init__(self, counters):
        self.spans = []
        self.parent = None
        # name -> zero-argument callable read at both ends of that call's span
        self.counters = counters

    def wrap(self, layer, name, fn):
        spans, clock = self.spans, time.perf_counter
        counter = self.counters.get(name)

        def traced(*args, **kwargs):
            before = counter() if counter else 0
            raised = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                t1 = clock()
                attrs = None
                if counter:
                    attrs = {"count": counter() - before}
                if not raised and name == "qho_trace":
                    attrs = {"terms": out.terms}
                elif not raised and name == "cli":
                    attrs = {"sub": args[0][0], "code": out.returncode}
                spans.append((layer, name, t0, t1, self.parent, raised, attrs))

        return traced

    def begin_op(self):
        self.parent = len(self.spans)
        self.spans.append(None)

    def end_op(self, kind, layer, t0, t1, ok):
        self.spans[self.parent] = ("op", kind, t0, t1, None, False, {"layer": layer, "ok": ok})
        self.parent = None

    def write(self, path, origin):
        with open(path, "w") as out:
            for i, (layer, name, t0, t1, parent, raised, attrs) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "parent": parent, "layer": layer, "name": name,
                    "start_s": t0 - origin, "end_s": t1 - origin,
                    "raised": raised, "attrs": attrs,
                }) + "\n")


def make_api(table, tracer=None):
    ns = SimpleNamespace()
    for layer, name, fn in table:
        setattr(ns, name, fn if tracer is None else tracer.wrap(layer, name, fn))
    return ns


def cli_runner(env, cwd):
    """Run `python -m finiteweyl.cli ARGV` to completion, one at a time."""

    def run_cli(argv):
        return subprocess.run([sys.executable, "-m", "finiteweyl.cli", *argv], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=120)

    return run_cli


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans, cache_stats, setup_probes, bytes_per_term):
    """Every per-layer metric of one traced pass, with the span count behind each.

    Returns {name: (value, unit, count)}.  Medians over no spans read 0.0
    with count 0: the workload never calls that function.
    """
    ops = [s for s in spans if s[0] == "op"]
    op_time = sum(s[3] - s[2] for s in ops)
    by_name = {}
    busy = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    # Layer spans never nest (the benchmark makes no api call from inside
    # another), so a layer span's self time is its whole duration.
    for layer, name, t0, t1, parent, raised, attrs in spans:
        if layer == "op":
            continue
        busy[layer] += t1 - t0
        calls[layer] += 1
        by_name.setdefault(name, []).append((t1 - t0, attrs))
    failed = dict.fromkeys(LAYERS, 0)
    for s in ops:
        if not s[6]["ok"]:
            failed[s[6]["layer"]] += 1

    out = {}
    for L in LAYERS:
        out[f"{L}.calls"] = (calls[L], "count", calls[L])
        out[f"{L}.failed"] = (failed[L], "count", sum(1 for s in ops if s[6]["layer"] == L))
        out[f"{L}.busy_s"] = (busy[L], "s", calls[L])
        out[f"{L}.share"] = (busy[L] / op_time if op_time else 0.0, "ratio", calls[L])
    out["trace.coverage"] = (sum(busy.values()) / op_time if op_time else 0.0, "ratio", len(ops))

    def durations(*names):
        return [d for n in names for d, _ in by_name.get(n, [])]

    def med(metric, unit, scale, xs):
        out[metric] = (statistics.median(xs) * scale if xs else 0.0, unit, len(xs))

    def hit_ratio(metric, cache):
        hits, misses = cache_stats[cache]
        out[metric] = (hits / (hits + misses) if hits + misses else 0.0, "ratio", hits + misses)

    med("exactnum.gauss_sum_ms", "ms", 1e3, durations("gauss_sum"))
    med("exactnum.scalar_mul_us", "us", 1e6, durations("mul"))
    med("exactnum.scalar_add_us", "us", 1e6, durations("add"))
    med("exactnum.canonical_us", "us", 1e6, durations("canonical"))
    hit_ratio("exactnum.phase_cache_hit_ratio", "phase")
    med("repmod.build_module_us", "us", 1e6, durations("build_module"))
    med("repmod.v_basis_ms", "ms", 1e3, durations("v_basis"))
    med("repmod.inner_us", "us", 1e6, durations("inner"))
    med("repmod.apply_word_us", "us", 1e6, durations("apply_word"))
    med("transform.build_ms", "ms", 1e3, durations("fourier", "gaussian", "qho_evolution"))
    med("transform.verify_ms", "ms", 1e3, durations("verify_conjugation"))
    med("transform.apply_ms", "ms", 1e3, durations("apply"))
    med("transform.compose_ms", "ms", 1e3, durations("compose"))
    med("morphism.decompose_ms", "ms", 1e3, durations("decompose"))
    med("morphism.embed_pbeta_ms", "ms", 1e3, durations("embed_pbeta"))
    med("morphism.pairing_row_sum_ms", "ms", 1e3, durations("pairing_row_sum"))
    med("morphism.pairing_ms", "ms", 1e3, durations("pairing"))

    # A free_propagator call that missed the Gauss-constant cache pays for the
    # constant; every other kernel call is the per-point cost alone.
    free = by_name.get("free_propagator", [])
    med("dirac.point_us", "us", 1e6,
        [d for d, a in free if a["count"] == 0] + durations("qho_propagator"))
    med("dirac.gauss_constant_ms", "ms", 1e3, [d for d, a in free if a["count"] > 0])
    hit_ratio("dirac.gauss_constant_hit_ratio", "gauss")
    traces = by_name.get("qho_trace", [])
    med("dirac.trace_ms", "ms", 1e3, [d for d, _ in traces])
    med("dirac.trace_terms_per_s", "1/s", 1.0, [a["terms"] / d for d, a in traces])
    med("dirac.trace_bytes", "B_computed", 1.0, [a["terms"] * bytes_per_term for _, a in traces])
    med("dirac.converge_ms", "ms", 1e3, durations("converge_study"))

    runs = by_name.get("cli", [])
    med("cli.interp_ms", "ms", 1e3, setup_probes["interp"])
    med("cli.import_ms", "ms", 1e3, setup_probes["import"])
    for sub in CLI_SUBCOMMANDS:
        med(f"cli.{sub}_ms", "ms", 1e3, [d for d, a in runs if a["sub"] == sub and a["code"] == 0])
    med("cli.exit2_ms", "ms", 1e3, [d for d, a in runs if a["code"] == 2])
    return out
