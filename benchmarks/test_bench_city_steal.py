"""E19 — work stealing on a skewed city: step p95, stealing vs pinning.

E17 soaked the city on a deliberately oversubscribed pool; E19 measures
the scheduling policy itself on the workload static pinning is worst at:
a **skewed** city.  One dense corridor (8 nodes on a single shard — one
indivisible kernel pass eight nodes wide) joins first, followed by three
sparse corridors (4 nodes across 4 shards — light single-node passes).
Pinning assigns shards by *count*, not cost, so the worker that owns the
dense shard also owns a share of the sparse ones and becomes the
per-step critical path while its neighbours go idle; work stealing lets
the idle workers drain the queue backed up behind the dense pass.

Both runs execute the same scenario on the same 4-worker pool size, and
the per-supervisor-step wall time is sampled over the steady-state steps
(warm-up steps that admit sessions — scene render + pipeline build —
are excluded).  The claims asserted:

1. fused corridor tracks are **bit-identical** between the stealing and
   the pinned run (scheduling is a latency policy, never a results
   policy — a stolen shard's next step carries its checkpoint, so it
   continues exactly where it left off);
2. the skew is real: the stealing run actually stole (city-wide
   ``n_steals > 0``) and the pinned run never did;
3. with >= 4 usable cores, the stealing run's step p95 is at most
   ``RATIO_CEILING`` of the pinned baseline's — the steal path (the
   shard's checkpoint riding its first step on the thief, plus its
   registration payload the first time the thief runs it) must pay for
   itself on the skew it exists to flatten.

Rows ``E19_city_steal_on`` / ``E19_city_steal_off`` (``p95_ms`` = step
p95) and the guarded ratio row ``E19_city_steal_ratio`` (``p95_ms`` =
p95(stealing) / p95(pinned), dimensionless) land in
``BENCH_pipeline.json``; the CI guard on multi-core runners is

    --bench-max-p95 E19_city_steal_ratio=0.6

The ratio row is only recorded when the machine has >= 4 cores — on
fewer cores the workers time-slice one another and the ratio measures
the scheduler's context switching, not the policy.  The module is
marked ``parallel``: a scheduling-policy speedup is unmeasurable on a
single-core runner by construction.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.city import CityScenario, CitySupervisor, CorridorSpec

pytestmark = pytest.mark.parallel

FS = 8000.0
WORKERS = 4
DURATION_S = 1.0
RATIO_CEILING = 0.6


def _skewed_scenario() -> CityScenario:
    """One dense corridor plus three sparse ones, all joining at step 0.

    The dense corridor registers first, so pinning parks its single
    heavy shard on worker 0 and then balances the twelve sparse shards
    by count — leaving worker 0 with the eight-node pass *plus* a share
    of sparse shards queued behind it every step.
    """
    dense = CorridorSpec("dense", n_nodes=8, duration_s=DURATION_S, n_shards=1)
    sparse = tuple(
        CorridorSpec(f"sparse{k}", n_nodes=4, duration_s=DURATION_S, n_shards=4)
        for k in range(3)
    )
    return CityScenario(corridors=(dense,) + sparse, seed=19, fs=FS)


def _track_signature(tracks):
    """Bit-exact identity signature of a fused track list."""
    return [
        (t.track_id, t.label, t.hits, t.confirmed, tuple(t.history), tuple(sorted(t.nodes)))
        for t in tracks
    ]


def _run_city(scenario, steal):
    """One city run; returns (steady-state step walls ms, wall ms, report,
    per-corridor track signatures)."""
    step_walls_ms = []
    t0 = time.perf_counter()
    with CitySupervisor(scenario, workers=WORKERS, steal=steal) as sup:
        while not sup.done:
            t_step = time.perf_counter()
            result = sup.step()
            wall_ms = (time.perf_counter() - t_step) * 1e3
            # Steady state only: admission steps warm sessions (scene
            # render + pipeline build) and would swamp the kernel p95.
            if result.updates and not result.joined:
                step_walls_ms.append(wall_ms)
        report = sup.report()
        signatures = {
            cid: _track_signature(session.result.tracks)
            for cid, session in sup.manager.sessions.items()
        }
    city_wall_ms = (time.perf_counter() - t0) * 1e3
    assert len(step_walls_ms) >= 2, "scenario too short to sample steady state"
    return step_walls_ms, city_wall_ms, report, signatures


def test_e19_city_steal_flattens_the_skewed_step(bench_json):
    scenario = _skewed_scenario()

    pinned_walls, pinned_city_ms, pinned_report, pinned_sigs = _run_city(
        scenario, steal=False
    )
    steal_walls, steal_city_ms, steal_report, steal_sigs = _run_city(
        scenario, steal=True
    )

    # Claim 1: scheduling policy is invisible in the fused output.
    assert set(steal_sigs) == set(pinned_sigs)
    for cid, want in pinned_sigs.items():
        assert steal_sigs[cid] == want, f"{cid} diverged under stealing"

    # Claim 2: the skew exercised the policy — steals happened, and only
    # in the stealing run.
    steals_on = sum(c.n_steals for c in steal_report.corridors)
    steals_off = sum(c.n_steals for c in pinned_report.corridors)
    assert steals_on > 0, "skewed scenario produced no steals"
    assert steals_off == 0, "pinned baseline stole shards"
    assert pinned_report.n_degraded == 0 and steal_report.n_degraded == 0

    p95_off = float(np.percentile(pinned_walls, 95))
    p95_on = float(np.percentile(steal_walls, 95))
    ratio = p95_on / p95_off
    depth_off = max(c.queue_depth_p95 for c in pinned_report.corridors)
    depth_on = max(c.queue_depth_p95 for c in steal_report.corridors)

    print_table(
        f"E19 skewed city ({len(scenario.corridors)} corridors, "
        f"{WORKERS} workers, dense shard 8 nodes wide)",
        ["run", "step p95 ms", "city wall ms", "steals", "queue p95"],
        [
            ("pinned", p95_off, pinned_city_ms, float(steals_off), depth_off),
            ("stealing", p95_on, steal_city_ms, float(steals_on), depth_on),
            ("ratio", ratio, steal_city_ms / pinned_city_ms, float("nan"), float("nan")),
        ],
    )

    bench_json(
        "E19_city_steal_off",
        pinned_city_ms,
        1.0,
        workers=WORKERS,
        p95_ms=p95_off,
        n_steals=steals_off,
        queue_depth_p95=depth_off,
    )
    bench_json(
        "E19_city_steal_on",
        steal_city_ms,
        pinned_city_ms / steal_city_ms,
        workers=WORKERS,
        p95_ms=p95_on,
        n_steals=steals_on,
        queue_depth_p95=depth_on,
    )

    # Claim 3: the policy pays for itself — only judged where the four
    # workers actually have four cores to land on.  The guarded ratio row
    # is recorded under the same condition so the CI guard and the inline
    # assertion always agree.
    if (os.cpu_count() or 1) >= 4:
        bench_json(
            "E19_city_steal_ratio",
            steal_city_ms,
            p95_off / p95_on,
            workers=WORKERS,
            p95_ms=ratio,
        )
        assert ratio <= RATIO_CEILING, (
            f"stealing step p95 {p95_on:.1f} ms is {ratio:.2f}x the pinned "
            f"{p95_off:.1f} ms — above the {RATIO_CEILING:.1f}x ceiling"
        )
    else:
        pytest.skip(
            f"steal-vs-pinned ratio needs >= 4 CPUs (have {os.cpu_count()}); "
            "identity and steal-activity claims checked above"
        )
