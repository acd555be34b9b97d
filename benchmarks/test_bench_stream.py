"""E15 — streaming corridor runtime: per-hop latency vs the hop deadline.

The paper's Sec. II requirement is real-time low-latency operation; E13/E14
showed the *throughput* of the offline fleet engine, E15 shows the *latency*
of the live one: a 4-node corridor ingested through per-node ring buffers,
advanced one fixed hop batch per :meth:`FleetStream.step` (the fleet
session in-process, its default ``workers=0``), fused per hop.  The
claims:

1. the per-hop fleet step p95 fits the hop deadline — with the oracle
   detector the run is dense-detection, so every hop carries the full
   localization load;
2. the live session's fused corridor tracks are *identical* to the offline
   ``FleetScheduler.run`` + ``fuse_fleet`` pass on the same scene (the
   determinism contract of ``tests/test_fleet_stream.py``, re-checked here
   on the bench scene);
3. throughput does not collapse: the whole session stays faster than the
   corridor records (real-time factor > 1).

Claim 2 is asserted.  Claims 1 and 3 are wall-clock figures, so they are
guards of a bench session rather than tier-1 asserts: each hop batch
records a ``{bench, wall_ms, speedup, p95_ms, deadline_ms}`` row whose
``speedup`` is the real-time factor, and the guards are

    --bench-max-p95 E15_stream_corridor_4n=32
    --bench-max-p95 E15_stream_hop1_4n=32
    --bench-min-speedup E15_stream_corridor_4n=1.0
    --bench-min-speedup E15_stream_hop1_4n=1.0

Rows are appended to ``BENCH_pipeline.json`` only with ``--bench-json``.
"""

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.acoustics.trajectory import LinearTrajectory
from repro.core import PipelineConfig
from repro.fleet import (
    CorridorScene,
    CorridorStream,
    FleetScheduler,
    OracleDetector,
    Vehicle,
    fuse_fleet,
    place_corridor_nodes,
    synthesize_corridor,
)
from repro.signals import synthesize_siren

FS = 8000.0
DURATION_S = 2.0
N_NODES = 4
CONFIG = PipelineConfig(fs=FS, n_azimuth=36, n_elevation=2, localizer="srp_fast")


@pytest.fixture(scope="module")
def corridor():
    rng = np.random.default_rng(15)
    vehicles = [
        Vehicle(
            "siren_wail",
            LinearTrajectory([-40.0, 8.0, 0.8], [40.0, 8.0, 0.8], 15.0),
            synthesize_siren("wail", DURATION_S, FS, rng=rng),
        ),
        Vehicle(
            "siren_yelp",
            LinearTrajectory([40.0, 14.0, 0.8], [-40.0, 14.0, 0.8], 12.0),
            synthesize_siren("yelp", DURATION_S, FS, rng=rng),
        ),
    ]
    nodes = place_corridor_nodes(N_NODES, 22.0)
    recording = synthesize_corridor(CorridorScene(vehicles, nodes), FS)
    return nodes, recording


def _stream_run(nodes, recording, hop_batch):
    scheduler = FleetScheduler(
        nodes, CONFIG, detector=OracleDetector("siren_wail"), n_shards=2
    )
    stream = CorridorStream(recording, chunk_samples=CONFIG.hop_length)
    # Warmup session: build the lazy steering pyramids outside the timed run.
    scheduler.stream(stream.sources(), hop_batch=hop_batch).run()
    return scheduler.stream(stream.sources(), hop_batch=hop_batch).run()


def test_e15_stream_corridor_realtime_and_offline_match(corridor, bench_json):
    nodes, recording = corridor
    hop_deadline_ms = CONFIG.frame_period_s * 1e3

    offline_sched = FleetScheduler(
        nodes, CONFIG, detector=OracleDetector("siren_wail"), n_shards=2
    )
    offline = offline_sched.run(recording)
    offline_tracks = fuse_fleet(
        offline.node_results, nodes, frame_period=CONFIG.frame_period_s
    )

    rows = []
    for hop_batch in (1, 8):
        result = _stream_run(nodes, recording, hop_batch)
        hop = result.hop_latency
        wall_ms = result.fleet_latency.mean_s * 1e3
        realtime_factor = result.fleet_latency.deadline_s / result.fleet_latency.mean_s
        rows.append(
            (
                f"hop_batch={hop_batch}",
                hop.mean_s * 1e3,
                hop.p95_s * 1e3,
                hop_deadline_ms,
                wall_ms,
                realtime_factor,
            )
        )

        # Claims 1 and 3 are guarded on the recorded row (p95_ms against
        # the hop deadline, speedup = real-time factor against 1.0).
        assert hop.deadline_s == pytest.approx(CONFIG.frame_period_s)

        # Claim 2: live tracks == offline tracks (association and states).
        assert len(result.tracks) == len(offline_tracks)
        for live, ref in zip(result.tracks, offline_tracks):
            assert live.track_id == ref.track_id
            assert live.label == ref.label
            assert live.hits == ref.hits
            assert live.nodes == ref.nodes
            assert live.confirmed == ref.confirmed
            assert live.confirmed_frame == ref.confirmed_frame
            assert np.array_equal(live.frames(), ref.frames())
            assert np.allclose(live.positions(), ref.positions(), rtol=1e-9, atol=1e-9)

        bench = "E15_stream_corridor_4n" if hop_batch == 8 else "E15_stream_hop1_4n"
        bench_json(
            bench,
            wall_ms,
            realtime_factor,
            p95_ms=hop.p95_s * 1e3,
            deadline_ms=hop_deadline_ms,
        )

    print_table(
        f"E15 streaming corridor ({N_NODES} nodes, {DURATION_S:.0f} s, dense)",
        ["step", "hop mean ms", "hop p95 ms", "deadline ms", "wall ms", "rt factor"],
        rows,
    )
