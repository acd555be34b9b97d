"""The runtime's import boundary.

A session and every forked pool worker map whatever the main process has
imported, so the runtime packages stop their import graph at numpy and
``scipy.fft``: the design-time layer (:mod:`repro.hw`, networkx) and SciPy's
signal, stats, interpolate, optimize, spatial and sparse stacks load only
when a design-time entry point is called.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1"}

DESIGN_TIME = (
    "scipy.signal",
    "scipy.stats",
    "scipy.interpolate",
    "scipy.optimize",
    "scipy.spatial",
    "scipy.sparse",
    "networkx",
    "repro.hw",
)

_SESSION = """
import sys

import numpy as np

import repro.city
import repro.core
import repro.fleet
import repro.stream
from repro.acoustics.trajectory import LinearTrajectory
from repro.core import PipelineConfig
from repro.fleet import (
    CorridorScene,
    CorridorStream,
    FleetScheduler,
    OracleDetector,
    Vehicle,
    place_corridor_nodes,
    synthesize_corridor,
)

fs = 8000.0
n = int(fs)
siren = 0.5 * np.sin(2 * np.pi * 700 * np.arange(n) / fs)
scene = CorridorScene(
    [Vehicle("siren_wail", LinearTrajectory((-20.0, 5.0, 1.5), (20.0, 5.0, 1.5), speed=20.0), siren)],
    place_corridor_nodes(2, 25.0),
)
recording = synthesize_corridor(scene, fs)
cfg = PipelineConfig(fs=fs, localizer="srp_fast", n_azimuth=36, n_elevation=2)
scheduler = FleetScheduler(scene.nodes, cfg, detector=OracleDetector("siren_wail"))
session = scheduler.stream(
    CorridorStream(recording, chunk_samples=cfg.hop_length).sources(), hop_batch=8
)
while not session.done:
    session.step()
result = session.finalize()
assert sum(len(rows) for rows in result.node_results.values()) > 0
prefixes = sys.argv[1:]
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] in {"scipy", "networkx", "repro"}
                      and any(m == p or m.startswith(p + ".") for p in prefixes))))
"""


def _loaded_after_session() -> list[str]:
    out = subprocess.run(
        [sys.executable, "-c", _SESSION, *DESIGN_TIME],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=300,
        check=True,
    )
    return out.stdout.split()


def test_a_session_loads_no_design_time_module():
    """Import the runtime packages, render a 2-node 1 s corridor and run an
    in-process streaming session: no design-time module is loaded."""
    assert _loaded_after_session() == []


@pytest.mark.parametrize(
    "call, loads",
    [
        ("from repro.dsp import resample; resample(__import__('numpy').ones(80), 8000, 16000)",
         "scipy.signal"),
        ("from repro.features import gammatonegram; gammatonegram(__import__('numpy').ones(512), 8000.0, n_bands=4)",
         "scipy.signal"),
        ("from repro.core import AcousticPerceptionPipeline; "
         "AcousticPerceptionPipeline(__import__('numpy').eye(3)).to_ir()",
         "repro.hw"),
        ("from repro.core import EnergyTrigger; EnergyTrigger(8000.0, 256).to_ir()",
         "networkx"),
    ],
    ids=["resample", "gammatonegram", "pipeline_to_ir", "trigger_to_ir"],
)
def test_design_time_entry_points_import_on_call(call, loads):
    """The public names stay where they were; the first call pays the import."""
    code = (
        "import sys\n"
        "import repro.core, repro.dsp, repro.features\n"
        f"assert {loads!r} not in sys.modules\n"
        f"{call}\n"
        f"assert {loads!r} in sys.modules\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        env=ENV,
        timeout=300,
        check=True,
    )
