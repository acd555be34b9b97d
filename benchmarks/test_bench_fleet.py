"""E13 — fleet shard throughput vs K sequential streaming runs.

A corridor of K nodes processed as K independent frame-by-frame streaming
loops pays the per-hop Python cost K times; the fleet scheduler batches the
whole corridor — one ragged ``process_batch`` per shard, shared detector
and steering tensors — so throughput should *scale with node count*: the
speedup over sequential streaming at K=4 should be at least that at K=2
(within noise), and both should be substantial.

Tier-1 asserts only that both engines return the same frame results.  The
wall-clock claims are rows guarded in a bench session (see README.md,
"Fleet shard guards"): ``E13_fleet_shard_{2,4}n`` carry the speedup and,
as ``p95_ms``, the fleet run's wall against the clip length;
``E13_fleet_scaling`` carries speedup(4 nodes) / speedup(2 nodes).
Rows are appended to ``BENCH_pipeline.json`` only with ``--bench-json``.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import assert_frame_results_equal, print_table
from repro.core import PipelineConfig
from repro.fleet import FleetScheduler, place_corridor_nodes

FS = 8000.0
# Corridor monitoring is idle most of the time: a high detect threshold on
# noise clips keeps the run front-end bound (the regime the batched engine
# targets; dense-detection replay is a separate ROADMAP item).
CONFIG = PipelineConfig(
    fs=FS, n_azimuth=24, n_elevation=2, localizer="srp_fast", detect_threshold=0.9
)
CLIP_S = 2.0


def corridor_recordings(n_nodes, rng):
    nodes = place_corridor_nodes(n_nodes, 20.0)
    clips = {
        n.node_id: rng.standard_normal((4, int(CLIP_S * FS))) for n in nodes
    }
    return nodes, clips


def _best_of(fn, repeats=3):
    best = np.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


@pytest.mark.parametrize("n_nodes", [2, 4])
def test_e13_fleet_vs_sequential_streaming(n_nodes, bench_json):
    rng = np.random.default_rng(13)
    nodes, clips = corridor_recordings(n_nodes, rng)
    scheduler = FleetScheduler(nodes, CONFIG, n_shards=1)
    scheduler.run(clips)  # warmup: lazy steering tensors

    def sequential():
        out = {}
        for node in nodes:
            pipe = scheduler.pipelines[node.node_id].pipeline
            pipe.reset()
            out[node.node_id] = pipe.process_signal(clips[node.node_id])
            pipe.reset()
        return out

    t_seq, streamed = _best_of(sequential)
    t_fleet, run = _best_of(lambda: scheduler.run(clips))
    for node in nodes:
        assert_frame_results_equal(streamed[node.node_id], run.node_results[node.node_id])
    speedup = t_seq / t_fleet
    print_table(
        f"E13 fleet shard throughput ({n_nodes} nodes, {CLIP_S:.0f} s clips)",
        ["engine", "ms/corridor", "ms/node", "speedup"],
        [
            ("sequential", t_seq * 1e3, t_seq * 1e3 / n_nodes, 1.0),
            ("fleet shard", t_fleet * 1e3, t_fleet * 1e3 / n_nodes, speedup),
        ],
    )
    # Guarded claims: speedup > 2x, and the run (one fleet-latency sample)
    # beats the clip's real time by a wide margin on the host.
    bench_json(
        f"E13_fleet_shard_{n_nodes}n",
        t_fleet * 1e3,
        speedup,
        p95_ms=run.fleet_latency.p95_s * 1e3,
        deadline_ms=CLIP_S * 1e3,
    )


def test_e13_speedup_scales_with_node_count(bench_json):
    """More nodes amortize more per-run overhead: speedup(4) >~ speedup(2)."""
    rng = np.random.default_rng(14)
    ratios = {}
    for n_nodes in (2, 4):
        nodes, clips = corridor_recordings(n_nodes, rng)
        scheduler = FleetScheduler(nodes, CONFIG, n_shards=1)
        scheduler.run(clips)  # warmup

        def sequential():
            for node in nodes:
                pipe = scheduler.pipelines[node.node_id].pipeline
                pipe.reset()
                pipe.process_signal(clips[node.node_id])
                pipe.reset()

        t_seq, _ = _best_of(sequential)
        t_fleet, _ = _best_of(lambda: scheduler.run(clips))
        ratios[n_nodes] = t_seq / t_fleet
    print(f"\nE13 scaling: speedup(2 nodes) {ratios[2]:.1f}x, speedup(4 nodes) {ratios[4]:.1f}x")
    # Guarded claim: >= 0.8, i.e. no worse than flat within noise.
    bench_json("E13_fleet_scaling", t_fleet * 1e3, ratios[4] / ratios[2])
