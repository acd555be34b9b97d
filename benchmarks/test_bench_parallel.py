"""E16/E18 — process-parallel fleet runtime: speedup and detect-to-update p95.

E15 pinned the in-process streaming corridor's per-hop latency; E16
measures what moving each shard's kernel pass into a forked worker process
buys.  The 4-node dense corridor (oracle detector: every hop localizes)
runs once through the fleet session in-process (``workers=0``, the
baseline) and then at 1, 2 and 4 workers, all on the same scene and all
without a pacer, i.e. at the fixed hop batch 8.  A pooled session's wall
time covers forking its private pool and registering its shard runners
(pipelines pickle once per shard) as well as the run.  The claims:

1. fused corridor tracks are **bit-identical** across the in-process
   baseline and every worker count (the determinism contract of
   ``tests/test_stream_parallel.py``, re-checked on the bench scene);
2. with >= 4 usable cores, the 4-worker session beats the baseline
   by at least ``MIN_SPEEDUP_4W`` (the fork + shared-memory rings must pay
   for themselves on a dense workload);
3. every emitted update carries a stage budget, and the end-to-end
   ``detect_to_update_ms`` p95 stays inside the nominal budget of one hop
   batch of delivery delay plus one hop of processing.

Claim 1 and claim 3's one-budget-per-update are asserted; the p95 of
claim 3 is a wall-clock figure, guarded on the ``E16_detect_to_update``
row in a bench session.

E18 measures the other end of the latency/throughput trade: a lock-step
``min_batch=1`` session (what a paced real-time deployment rides under
headroom) against the fixed 8-hop batch.  Because ``delivery_ms`` is
stream-clock time — the wait between a frame's capture completing and its
batch being popped — the free-running bench measures exactly the
detect→update latency a ``pace=True`` session would deliver, without
sleeping through the 2 s scene.  The fused tracks must stay bit-identical
(batching is a latency knob, never a results knob) while the p95 collapses
from most-of-a-batch (~225 ms) to processing-only (a few ms): at lock-step
batch 1 every frame is popped the moment its hop completes.  The identity
is asserted; the latency drop is guarded on the ``E18_paced_min_batch``
row.

Rows ``{bench, wall_ms, speedup, workers, ...}`` land in
``BENCH_pipeline.json`` (with ``cpu_count``/``blas_threads`` context from
the conftest); the CI guards are

    --bench-min-speedup E16_parallel_fleet_4w=1.8
    --bench-max-p95 E16_detect_to_update=250
    --bench-max-p95 E18_paced_min_batch=48
    --bench-min-speedup E18_paced_min_batch=1.0

The whole module is marked ``parallel`` — it skips on single-core runners,
where a process-level speedup is unmeasurable by construction.
"""

import time

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
    place_corridor_nodes,
    synthesize_corridor,
)
from repro.signals import synthesize_siren
from repro.stream import PacerConfig, ParallelFleetStream

pytestmark = pytest.mark.parallel

FS = 8000.0
DURATION_S = 2.0
N_NODES = 4
N_SHARDS = 4  # one shard per node: 4 workers can each own one kernel pass
CONFIG = PipelineConfig(fs=FS, n_azimuth=36, n_elevation=2, localizer="srp_fast")
MIN_SPEEDUP_4W = 1.8


@pytest.fixture(scope="module")
def corridor():
    rng = np.random.default_rng(16)
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


def _scheduler(nodes):
    return FleetScheduler(
        nodes, CONFIG, detector=OracleDetector("siren_wail"), n_shards=N_SHARDS
    )


def _sources(recording):
    return CorridorStream(recording, chunk_samples=CONFIG.hop_length).sources()


def _assert_tracks_identical(ref_tracks, tracks, label):
    assert len(tracks) == len(ref_tracks), label
    for live, ref in zip(tracks, ref_tracks):
        assert live.track_id == ref.track_id, label
        assert live.label == ref.label, label
        assert live.hits == ref.hits, label
        assert live.nodes == ref.nodes, label
        assert live.confirmed == ref.confirmed, label
        assert live.confirmed_frame == ref.confirmed_frame, label
        assert np.array_equal(live.frames(), ref.frames()), label
        # Bit-identical, not merely close: fusion consumed the same numbers.
        assert np.array_equal(live.positions(), ref.positions()), label


def test_e16_parallel_fleet_speedup_and_budget(corridor, bench_json):
    nodes, recording = corridor

    # In-process baseline (E15's mode) on the same scheduler config.  The
    # warmup session builds the lazy steering pyramids; parallel sessions
    # fork from an equally warm parent, so the comparison is kernels-only.
    serial_sched = _scheduler(nodes)
    serial_sched.stream(_sources(recording), hop_batch=8).run()
    t0 = time.perf_counter()
    serial = serial_sched.stream(_sources(recording), hop_batch=8).run()
    serial_wall_ms = (time.perf_counter() - t0) * 1e3

    rows = [("in-process", serial_wall_ms, 1.0, float("nan"), float("nan"))]
    speedups = {}
    for workers in (1, 2, 4):
        sched = _scheduler(nodes)
        sched.stream(_sources(recording), hop_batch=8).run()  # warm the fork parent
        t0 = time.perf_counter()
        result = ParallelFleetStream(
            sched, _sources(recording), hop_batch=8, workers=workers
        ).run()
        wall_ms = (time.perf_counter() - t0) * 1e3
        speedup = serial_wall_ms / wall_ms
        speedups[workers] = speedup

        # Claim 1: bit-identical fused tracks at every worker count.
        _assert_tracks_identical(serial.tracks, result.tracks, f"workers={workers}")

        # Claim 3: every update budgeted; the p95 against the nominal
        # budget is guarded on the E16_detect_to_update row.
        assert len(result.stage_budgets) == len(result.updates)
        d2u = result.detect_to_update
        assert d2u is not None
        d2u_p95_ms = d2u.p95_s * 1e3
        d2u_budget_ms = d2u.deadline_s * 1e3

        rows.append(
            (f"workers={workers}", wall_ms, speedup, d2u_p95_ms, d2u_budget_ms)
        )
        bench_json(
            f"E16_parallel_fleet_{workers}w",
            wall_ms,
            speedup,
            workers=workers,
            p95_ms=result.hop_latency.p95_s * 1e3,
            deadline_ms=result.hop_latency.deadline_s * 1e3,
        )
        if workers == 4:
            # The guarded end-to-end latency row: one per session, at the
            # worker count the speedup floor is claimed for.
            bench_json(
                "E16_detect_to_update",
                wall_ms,
                speedup,
                workers=workers,
                p95_ms=d2u_p95_ms,
                deadline_ms=d2u_budget_ms,
            )

    print_table(
        f"E16 process-parallel corridor ({N_NODES} nodes, {DURATION_S:.0f} s, dense)",
        ["run", "wall ms", "speedup", "d2u p95 ms", "d2u budget ms"],
        rows,
    )

    # Claim 2: the 4-worker run pays for its forks — only meaningful when
    # the machine actually has the cores the workers are supposed to use.
    import os

    if (os.cpu_count() or 1) >= 4:
        assert speedups[4] >= MIN_SPEEDUP_4W, (
            f"4-worker speedup {speedups[4]:.2f}x below the "
            f"{MIN_SPEEDUP_4W:.1f}x floor"
        )
    else:
        pytest.skip(
            f"speedup floor needs >= 4 CPUs (have {os.cpu_count()}); "
            "identity and budget claims checked above"
        )


def test_e18_min_batch_detect_to_update(corridor, bench_json):
    """E18 — the min-batch latency floor that paced sessions ride.

    A lock-step ``hop_batch=1`` session against the fixed 8-hop batch of
    E16, same scene, same workers.  Claims:

    1. fused tracks are bit-identical across the two batch schedules —
       the batch size trades latency for throughput, never results
       (asserted);
    2. detect→update p95 at min batch beats the 8-hop session's p95:
       delivery — the stream-clock wait for the batch pop, which dominates
       the 8-hop session at up to 7 hops (224 ms) — collapses to ~zero,
       because a lock-step batch of 1 pops every frame the moment its hop
       completes, leaving only processing;
    3. the min-batch p95 stays inside its own nominal budget of
       ``(1 + 1) * 32 ms``.

    Claims 2 and 3 are wall-clock figures, guarded on the
    ``E18_paced_min_batch`` row: ``--bench-max-p95`` at 48 ms (1.5 hop
    periods — with delivery at zero that is pure processing headroom, an
    order of magnitude above the few-ms kernels, and inside claim 3's
    budget), and ``--bench-min-speedup`` at 1.0 on its ``speedup`` field,
    which records the *latency* ratio p95(batch 8) / p95(batch 1), not a
    wall-clock ratio — the bench exists to pin latency, not throughput.
    """
    nodes, recording = corridor

    def run(hop_batch):
        sched = _scheduler(nodes)
        sched.stream(_sources(recording), hop_batch=hop_batch).run()  # warm
        pacer = PacerConfig(min_batch=hop_batch, max_batch=hop_batch)
        t0 = time.perf_counter()
        result = ParallelFleetStream(
            sched, _sources(recording), hop_batch=hop_batch, workers=2, pacer=pacer
        ).run()
        return result, (time.perf_counter() - t0) * 1e3

    batch8, _ = run(8)
    minb, wall_ms = run(1)

    # Claim 1: batching is invisible in the fused output.
    _assert_tracks_identical(batch8.tracks, minb.tracks, "hop_batch=1")

    p95_8 = batch8.detect_to_update.p95_s * 1e3
    p95_1 = minb.detect_to_update.p95_s * 1e3
    budget_1 = minb.detect_to_update.deadline_s * 1e3

    print_table(
        f"E18 min-batch detect→update ({N_NODES} nodes, {DURATION_S:.0f} s, dense)",
        ["run", "d2u p95 ms", "d2u budget ms"],
        [
            ("hop_batch=8", p95_8, batch8.detect_to_update.deadline_s * 1e3),
            ("hop_batch=1", p95_1, budget_1),
        ],
    )
    bench_json(
        "E18_paced_min_batch",
        wall_ms,
        p95_8 / p95_1,  # latency ratio, see docstring
        workers=2,
        p95_ms=p95_1,
        deadline_ms=budget_1,
    )
