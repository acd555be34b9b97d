"""Incremental health rollups: warm equals cold, and work is O(delta).

The city's JSONL snapshots read every session's health from warm
:class:`repro.fleet.report.FleetRollup` state and a warm
:class:`repro.city.report.CityRollup`.  The contract under test:

- **exactness** — a warm rollup fed a run in arbitrary increments reports
  exactly what a from-scratch replay of the same streams reports, including
  the step-wise worst merges over ragged shard streams and sessions that
  have not joined yet (whose tail stays provisional);
- **O(delta)** — the debounce policies step once per frame or record that
  arrived since the previous snapshot, plus the provisional tail, so a 10x
  longer run does not raise the work of one snapshot (counted, not timed);
- the pieces it leans on: the batched :func:`repro.core.realtime.
  monitor_stats`, :meth:`AlertPolicy.process` building only the alerts it
  returns, and a trend window that no longer grows with the session.
"""

import json
import os
import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.city import CityScenario, CitySupervisor, CorridorSpec, city_report, city_report_json
from repro.cli import main
from repro.core import AlertPolicy, OverrunPolicy
from repro.core.pipeline import FrameResult
from repro.core.realtime import LatencyMonitor, LatencyStats, monitor_stats
from repro.fleet.report import FleetRollup, _stepwise_worst
from repro.stream import PacerConfig, PacerStats, parallel_supported
from repro.stream.budget import StageBudget

# --------------------------------------------------------------------------
# FleetRollup against a from-scratch replay of the same streams
# --------------------------------------------------------------------------


def frame(i, label, detected):
    return FrameResult(
        frame_index=i, label=label, confidence=0.5 + 0.01 * (i % 30),
        detected=detected, azimuth=0.1 * i, elevation=0.0,
    )


def stats_of(records):
    return PacerStats(
        n_steps=len(records),
        n_overruns=sum(1 for w, b, _ in records if w > b),
        n_widenings=0,
        n_shrinks=0,
        min_batch_used=min((r[2] for r in records), default=0),
        max_batch_used=max((r[2] for r in records), default=0),
        records=tuple(records),
    )


def cold_replay(node_results, shard_records, shard_nodes, budgets):
    """The reference: every policy replays every row from scratch."""
    nodes = {}
    for nid, results in node_results.items():
        alerts = AlertPolicy().process(list(results))
        raised = sum(1 for a in alerts if a.kind == "raised")
        nodes[nid] = [len(results), sum(r.detected for r in results), raised, 0]
    for records, nids in zip(shard_records, shard_nodes):
        overruns = sum(1 for a in OverrunPolicy().process(records) if a.kind == "overrun")
        for nid in nids:
            nodes[nid][3] = overruns
    corridor = tuple(OverrunPolicy().process(_stepwise_worst(shard_records)))
    return nodes, corridor, [b.detect_to_update_ms for b in budgets]


RECORD = st.tuples(st.floats(0.0, 2.0), st.floats(0.05, 1.0), st.integers(1, 8))
DETECTION = st.tuples(st.sampled_from(["siren_wail", "horn", "background"]), st.booleans())


@settings(max_examples=60, deadline=None)
@given(
    shard_streams=st.lists(st.lists(RECORD, max_size=30), min_size=1, max_size=3),
    node_streams=st.lists(st.lists(DETECTION, max_size=60), min_size=1, max_size=4),
    n_budgets=st.integers(0, 40),
    growth=st.lists(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8), max_size=5),
)
def test_fleet_rollup_warm_equals_cold_at_every_prefix(
    shard_streams, node_streams, n_budgets, growth
):
    """Every stream grows by its own random amount at each update, so shard
    streams are ragged mid-run; after each update the warm rollup equals a
    cold replay of the same prefixes, and the final update settles all."""
    nids = [f"n{k}" for k in range(len(node_streams))]
    shard_nodes = [nids[si :: len(shard_streams)] for si in range(len(shard_streams))]
    results = {
        nid: [frame(i, label, det) for i, (label, det) in enumerate(s)]
        for nid, s in zip(nids, node_streams)
    }
    budgets = [StageBudget(0.0, 1.0 * k, 0.5, 0.25, 0.125, 0.0625) for k in range(n_budgets)]
    streams = [*shard_streams, *results.values(), budgets]
    lengths = [0] * len(streams)
    rollup = FleetRollup()
    zero = {nid: LatencyStats(0.0, 0.0, 0.0, 1.0) for nid in nids}
    for fractions in [*growth, None]:
        final = fractions is None
        for k, seq in enumerate(streams):
            frac = 1.0 if final else fractions[k % len(fractions)]
            lengths[k] = max(lengths[k], int(len(seq) * frac))
        shard_now = [s[:n] for s, n in zip(shard_streams, lengths)]
        node_now = {nid: r[:n] for (nid, r), n in zip(results.items(), lengths[len(shard_streams):])}
        budget_now = budgets[: lengths[-1]]
        rollup.update(
            node_now,
            [(nodes, stats_of(recs)) for nodes, recs in zip(shard_nodes, shard_now)],
            budget_now,
            final=final,
        )
        want_nodes, want_corridor, want_d2u = cold_replay(
            node_now, shard_now, shard_nodes, budget_now
        )
        got_nodes = {
            h.node_id: [h.n_frames, h.n_detections, h.n_alerts, h.n_overrun_alerts]
            for h in rollup.node_health(zero)
        }
        assert got_nodes == want_nodes
        assert rollup.corridor_alerts() == want_corridor
        assert rollup.d2u_ms.tolist() == want_d2u
        assert rollup.n_overruns == sum(stats_of(r).n_overruns for r in shard_now)
        assert rollup.peak_hop_batch == max(stats_of(r).max_batch_used for r in shard_now)
    assert rollup.merged_done == rollup.n_merged  # final: nothing provisional


# --------------------------------------------------------------------------
# Warm city snapshots against cold rollups over the same sessions
# --------------------------------------------------------------------------


def cold_json(sup):
    """city_report_json of cold rollups (a custom factory forces them)."""
    pool = sup.manager.pool
    report = city_report(
        sup.manager.sessions.values(),
        n_worker_restarts=sup.manager.n_worker_restarts,
        pool_workers=pool.workers if pool is not None else 0,
        overrun_policy_factory=lambda: OverrunPolicy(),
    )
    # Through JSON, as the snapshot row went.
    return json.loads(json.dumps(city_report_json(report)))


CORRIDOR = st.fixed_dictionaries(
    {
        "join": st.integers(0, 3),
        "stay": st.one_of(st.none(), st.integers(1, 4)),
        "n_nodes": st.integers(2, 3),
        "n_shards": st.integers(1, 2),
        "drop": st.sampled_from([0.0, 0.1]),
    }
)


@settings(max_examples=10, deadline=None)
@given(
    corridors=st.lists(CORRIDOR, min_size=1, max_size=3),
    every=st.sampled_from([1, 3, 16]),
    workers=st.sampled_from([0, 1]),
    kill_step=st.one_of(st.none(), st.integers(0, 4)),
)
@example(
    corridors=[
        {"join": 0, "stay": None, "n_nodes": 3, "n_shards": 2, "drop": 0.1},
        {"join": 2, "stay": 2, "n_nodes": 2, "n_shards": 1, "drop": 0.0},
    ],
    every=1, workers=1, kill_step=1,
)
@example(
    corridors=[
        {"join": 1, "stay": None, "n_nodes": 2, "n_shards": 2, "drop": 0.0},
        {"join": 0, "stay": 3, "n_nodes": 3, "n_shards": 2, "drop": 0.1},
    ],
    every=3, workers=0, kill_step=None,
)
def test_warm_snapshots_equal_cold_rollups(corridors, every, workers, kill_step):
    """Join/leave/leave_step schedules, any snapshot cadence, in-process or
    on a pool that loses its worker once: every warm JSONL row equals the
    cold rollup of the same sessions at that step."""
    if workers and parallel_supported() is not None:
        pytest.skip(f"process runtime unavailable: {parallel_supported()}")
    specs = tuple(
        CorridorSpec(
            f"corridor{k}",
            n_nodes=c["n_nodes"],
            n_shards=c["n_shards"],
            duration_s=0.4,
            join_step=c["join"],
            leave_step=None if c["stay"] is None else c["join"] + c["stay"],
            drop_prob=c["drop"],
        )
        for k, c in enumerate(corridors)
    )
    scenario = CityScenario(corridors=specs, seed=7, hop_batch=2)
    # An adaptive pacer, so shards of one session can record ragged streams.
    pacer = PacerConfig(min_batch=1, max_batch=4)
    with tempfile.TemporaryDirectory() as tmp, CitySupervisor(
        scenario,
        workers=workers,
        pacer=pacer,
        snapshot_path=Path(tmp) / "trail.jsonl",
        snapshot_every=every,
    ) as sup:
        while not sup.done:
            n = sup.n_snapshots
            result = sup.step()
            if workers and result.step_index == kill_step:
                proc = sup.manager.pool._procs[0]
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=10)
                assert not proc.is_alive()
            if sup.n_snapshots > n:
                row = json.loads(sup.snapshot_path.read_text().splitlines()[-1])
                assert row.pop("step") == result.step_index
                assert row == cold_json(sup)
        assert sup.n_snapshots > 0
        assert json.loads(json.dumps(city_report_json(sup.report()))) == cold_json(sup)


# --------------------------------------------------------------------------
# O(delta), by counts
# --------------------------------------------------------------------------


def count_calls(monkeypatch, cls, name):
    counter = [0]
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        counter[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return counter


def stream_sizes(sessions):
    """(frames, shard records, settled corridor steps, provisional corridor
    steps, settled city steps, city length) of the sessions' streams now."""
    frames = records = corridor_settled = corridor_tail = 0
    settled, lengths = [], []
    for s in sessions:
        src = s.result if s.result is not None else s.stream
        if src is None:
            settled.append(0)
            continue
        frames += sum(len(r) for r in src.node_results.values())
        if s.result is not None:
            shard_lens = [len(ps.records) for ps in s.result.pacer_stats.values()]
        else:
            shard_lens = [len(p.records) for p in s.stream.pacers]
        records += sum(shard_lens)
        length = max(shard_lens, default=0)
        done = length if s.result is not None else min(shard_lens, default=0)
        corridor_settled += done
        corridor_tail += length - done
        lengths.append(length)
        if s.result is None:
            settled.append(done)
    city_length = max(lengths, default=0)
    city_settled = min(settled, default=city_length)
    return frames, records, corridor_settled, corridor_tail, city_settled, city_length


def snapshot_counts(monkeypatch, scenario, every):
    """Per snapshot: (AlertPolicy steps, expected; OverrunPolicy updates,
    expected)."""
    alert_steps = count_calls(monkeypatch, AlertPolicy, "_step")
    overrun_updates = count_calls(monkeypatch, OverrunPolicy, "update")
    out = []
    prev = (0, 0, 0, 0, 0, 0)
    seen = [0, 0]
    pacer = PacerConfig(min_batch=2, max_batch=2)
    with tempfile.TemporaryDirectory() as tmp, CitySupervisor(
        scenario,
        workers=0,
        pacer=pacer,
        snapshot_path=Path(tmp) / "trail.jsonl",
        snapshot_every=every,
    ) as sup:
        while not sup.done:
            n = sup.n_snapshots
            sup.step()
            if sup.n_snapshots == n:
                continue
            now = stream_sizes(sup.manager.sessions.values())
            frames, records, c_settled, c_tail, city_settled, city_len = now
            want_overrun = (
                (records - prev[1])
                + (c_settled - prev[2]) + c_tail
                + (city_settled - prev[4]) + (city_len - city_settled)
            )
            out.append(
                (
                    alert_steps[0] - seen[0], frames - prev[0],
                    overrun_updates[0] - seen[1], want_overrun,
                )
            )
            prev, seen = now, [alert_steps[0], overrun_updates[0]]
    return out


def steady_city(duration_s):
    specs = tuple(CorridorSpec(f"corridor{k}", n_nodes=2, duration_s=duration_s) for k in range(2))
    return CityScenario(corridors=specs, seed=3, hop_batch=2)


def test_snapshot_work_is_the_delta_plus_the_provisional_tail(monkeypatch):
    staggered = CityScenario(
        corridors=(
            CorridorSpec("early", n_nodes=3, n_shards=2, duration_s=0.5),
            CorridorSpec("late", n_nodes=2, duration_s=0.4, join_step=5, leave_step=12),
        ),
        seed=5,
        hop_batch=2,
    )
    counts = snapshot_counts(monkeypatch, staggered, every=3)
    assert len(counts) > 3
    for alert_got, alert_want, overrun_got, overrun_want in counts:
        assert alert_got == alert_want
        assert overrun_got == overrun_want


def test_ten_times_longer_run_costs_no_more_per_snapshot(monkeypatch):
    short = snapshot_counts(monkeypatch, steady_city(0.4), every=4)
    monkeypatch.undo()
    long = snapshot_counts(monkeypatch, steady_city(4.0), every=4)
    assert len(long) > 5 * len(short)
    # Exact accounting holds throughout ...
    for alert_got, alert_want, overrun_got, overrun_want in short + long:
        assert (alert_got, overrun_got) == (alert_want, overrun_want)
    # ... and the heaviest snapshot of the long run is no heavier.
    assert max(c[0] for c in long) <= max(c[0] for c in short)
    assert max(c[2] for c in long) <= max(c[2] for c in short)


# --------------------------------------------------------------------------
# Supporting pieces
# --------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    ticks=st.lists(
        st.lists(st.floats(0.0, 1.0, allow_subnormal=False), max_size=300),
        min_size=1, max_size=8,
    ),
    same=st.booleans(),
)
def test_monitor_stats_equals_each_monitors_stats(ticks, same):
    if same:  # one shared tick count: a single vectorized group
        ticks = [t[: min(map(len, ticks))] for t in ticks]
    monitors = []
    for k, samples in enumerate(ticks):
        m = LatencyMonitor(0.01 * (k + 1))
        for s in samples:
            m.record(s)
        monitors.append(m)
    for m, got in zip(monitors, monitor_stats(monitors)):
        if m.n_ticks:
            assert got == m.stats()
        else:
            assert got == LatencyStats(0.0, 0.0, 0.0, m.deadline_s)


@settings(max_examples=40, deadline=None)
@given(st.lists(DETECTION, max_size=200))
def test_alert_process_equals_filtered_updates(stream):
    results = [frame(i, label, det) for i, (label, det) in enumerate(stream)]
    want = [
        a for a in map(AlertPolicy(trend_window=4).update, results)
        if a is not None and a.kind in ("raised", "cleared")
    ]
    assert AlertPolicy(trend_window=4).process(results) == want


def test_alert_trend_window_is_bounded():
    policy = AlertPolicy(trend_window=8)
    alerts = policy.process([frame(i, "siren_wail", True) for i in range(500)])
    assert [a.kind for a in alerts] == ["raised"]
    assert len(policy._confidences) == 8


def test_status_line_reads_the_warm_rollup(capsys):
    code = main(
        ["city", "--corridors", "2", "--duration", "0.4", "--n-nodes", "2",
         "--workers", "0", "--hop-batch", "1", "--status-every", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    status = [line for line in out.splitlines() if "corridor0 p95" in line]
    assert status, "no live status line"
    assert all(line.rstrip().endswith("ms") for line in status)


def test_fresh_rollup_is_empty():
    rollup = FleetRollup()
    assert rollup.corridor_alerts() == ()
    assert rollup.n_merged == rollup.merged_done == 0
    assert rollup.detect_to_update(0.5) == LatencyStats(0.0, 0.0, 0.0, 0.5)
    assert np.asarray(rollup.d2u_ms).size == 0
