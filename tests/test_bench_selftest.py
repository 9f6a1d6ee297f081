"""The benchmark's own tests (bench/selftest.py) pass with the package as it is.

They check the benchmark's seeded inputs, its checkers and its memory
budget against the package in src/.  They run here in a fresh interpreter
from the repository root, writing no bytecode and no pytest cache, so that
bench/ is read and left as it was.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def listing(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def test_bench_selftest_passes():
    before = listing(ROOT / "bench")
    proc = subprocess.run([sys.executable, "-B", "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/selftest.py"],
                          capture_output=True, text=True, cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert listing(ROOT / "bench") == before
