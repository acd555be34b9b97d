"""E23 — Runtime import footprint.

A live session and every forked pool worker map whatever the main process
has imported, so the runtime packages (``repro.city``, ``repro.fleet``,
``repro.stream`` and everything they run) stop their import graph at numpy
and ``scipy.fft``.  The design-time layer — :mod:`repro.hw` with networkx,
and ``scipy.signal`` with the stats, interpolate and optimize stacks it
loads — is imported only by the entry points that use it.

Each figure comes from a fresh interpreter with one BLAS thread:

- ``wall_ms``: the import time of ``repro.city``, ``repro.fleet`` and
  ``repro.stream``;
- ``rss_mb``: the process's peak RSS after that import;
- ``speedup``: the RSS of a second fresh interpreter that also imports
  ``repro.hw`` and ``scipy.signal``, over ``rss_mb`` — how much of the
  design-time layer the runtime leaves out.

Tier-1 asserts only that the row is finite and positive; the ratio floor is
a guard of the bench session (see README.md).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from benchmarks.conftest import print_table

SRC = Path(__file__).resolve().parents[1] / "src"

# The peak RSS is read from ``VmHWM``: it belongs to the process image the
# interpreter runs in, while ``getrusage``'s ``ru_maxrss`` survives
# ``execve`` and can report the launching (pytest) process's peak instead.
_PROBE = """
import json, resource, sys, time
t0 = time.perf_counter()
import repro.city, repro.fleet, repro.stream
wall = time.perf_counter() - t0
for name in sys.argv[1:]:
    __import__(name)
try:
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"wall_ms": wall * 1e3, "rss_mb": kb / 1024.0, "modules": len(sys.modules)}))
"""


def _probe(*extra: str) -> dict:
    """Import the runtime (plus ``extra`` modules) in a fresh interpreter."""
    env = {
        **os.environ,
        "PYTHONPATH": str(SRC),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, *extra],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(out.stdout)


def test_e23_runtime_import_footprint(bench_json):
    lean = _probe()
    full = _probe("repro.hw", "scipy.signal")
    ratio = full["rss_mb"] / lean["rss_mb"]
    print_table(
        "E23 runtime import footprint (fresh interpreter, 1 BLAS thread)",
        ["imports", "wall ms", "RSS MB", "modules"],
        [
            ("runtime (city, fleet, stream)", lean["wall_ms"], lean["rss_mb"], lean["modules"]),
            ("+ repro.hw, scipy.signal", full["wall_ms"], full["rss_mb"], full["modules"]),
        ],
    )
    bench_json(
        "E23_runtime_import",
        lean["wall_ms"],
        ratio,
        rss_mb=lean["rss_mb"],
        full_rss_mb=full["rss_mb"],
        modules=lean["modules"],
    )
    values = [lean["wall_ms"], lean["rss_mb"], full["rss_mb"], ratio]
    assert all(np.isfinite(v) and v > 0 for v in values)
