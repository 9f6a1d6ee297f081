"""Every name the benchmark in bench/ reads from the package still resolves.

The benchmark reaches into the package by name: its traced entry points
(`tracing.api_table`), the probes of known defects (`run.known_defects`) and
the lru caches it clears between passes (`run.caches`).  A rename in src/
breaks those only when the benchmark runs, so they run here, in a fresh
interpreter that writes no bytecode, reading bench/ and changing nothing in it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, run, tracing
table = tracing.api_table(None)
defects = run.known_defects()
caches = run.caches()
print(json.dumps({
    # the cli row holds the run_cli passed in, None here
    "table": [[layer, name, callable(fn)] for layer, name, fn in table if layer != "cli"],
    "defects": sorted(defects),
    "caches": {name: [hasattr(fn, "cache_info"), hasattr(fn, "cache_clear")] for name, fn in caches.items()},
}))
"""


def test_benchmark_names_resolve():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run([sys.executable, "-B", "-c", PROBE], capture_output=True, text=True, cwd=ROOT,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["table"] and all(ok for _, _, ok in got["table"]), got["table"]
    assert got["defects"]
    assert got["caches"] and all(info and clear for info, clear in got["caches"].values()), got["caches"]
