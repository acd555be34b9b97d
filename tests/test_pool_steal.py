"""Work-stealing pool tests: migration, crash windows, pressure, telemetry.

The PR 9 contract, in layers:

- **shard migration is invisible to results.**  A forced :meth:`~repro.
  stream.pool.ShardWorkerPool.migrate` (and an organic steal) only re-homes
  the shard's queued items; its next step, sent to a worker that did not
  run its previous step, carries its last checkpoint, so step replies
  continue exactly where they left off — never skipping or re-running a
  hop step.  Migrating a shard *back* to a worker holding a stale copy
  ships no registration payload, only the checkpoint on the first step.
- **a crash resolves through the next dispatch.**  :meth:`recover` sends
  nothing: SIGKILLing the thief after a migration and before its first
  step there, or any worker mid-step, leaves every shard stepped exactly
  once per step after the retried collect — a derandomized Hypothesis
  property over drawn steps, migrations and kills pins it.
- **admission control counts the join burst.**  :meth:`saturated` takes the
  *incoming* shard count, so two sessions joining in one supervisor step
  cannot overshoot ``max_shards_per_worker``.
- **pressure feeds back.**  The pool reports backlog + steal rate into
  :meth:`~repro.stream.pacer.SharedCapacity.note_pressure`; sustained
  pressure raises the city-wide ``min_batch`` floor every :class:`~repro.
  stream.pacer.Pacer` applies (and relaxes it when the pool drains).
- **telemetry reaches the operator.**  Steal/migration counts, queue-depth
  p95 and evicted tap reads ride
  ``session_stats`` → :class:`~repro.stream.parallel.ParallelStreamResult`
  → the fleet/city reports; the supervisor's snapshot trail appends JSONL
  health lines mid-run.
- **the headline determinism contract survives scheduling.**  City runs
  with stealing on, stealing off, at workers 0/1/2/4, and across a forced
  mid-run migration all produce fused tracks bit-identical to each
  corridor's standalone run.
"""

import json
import os
import pickle
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.city import (
    CityScenario,
    CitySupervisor,
    CorridorSpec,
    SessionManager,
    city_report_json,
    corridor_rngs,
    default_scenario,
    format_city_report,
    render_corridor,
)
from repro.core import PipelineConfig
from repro.core.realtime import LatencyStats
from repro.fleet import CorridorStream, FleetScheduler, OracleDetector
from repro.fleet.report import FleetReport, NodeHealth, fleet_report, format_report
from repro.stream import (
    Pacer,
    PacerConfig,
    ParallelFleetStream,
    SharedCapacity,
    ShardWorkerPool,
    WorkerCrashed,
    parallel_supported,
)
from repro.stream.pool import SessionStats

needs_processes = pytest.mark.skipif(
    parallel_supported() is not None,
    reason=f"process runtime unavailable: {parallel_supported()}",
)


class CountingRunner:
    """Minimal pool-compatible runner: step counts, state round-trips."""

    def __init__(self, key):
        self.key = key
        self.count = 0

    def step(self):
        self.count += 1
        return (self.key, self.count)

    def state_dict(self):
        return {"count": self.count}

    def load_state_dict(self, state):
        self.count = int(state["count"])


class SlowRunner(CountingRunner):
    """A deliberately slow shard: the skew that makes stealing productive."""

    def __init__(self, key, delay_s=0.25):
        super().__init__(key)
        self.delay_s = delay_s

    def step(self):
        time.sleep(self.delay_s)
        return super().step()

    def state_dict(self):
        return {"count": self.count, "delay_s": self.delay_s}

    def load_state_dict(self, state):
        self.count = int(state["count"])
        self.delay_s = float(state["delay_s"])


def skewed_runners():
    """Six shards for a 2-worker pool: evens (landing on worker 0) slow,
    odds (worker 1) fast — worker 1 drains its queue and must steal."""
    return {
        k: SlowRunner(k) if k % 2 == 0 else CountingRunner(k) for k in range(6)
    }


# --------------------------------------------------------------------------
# Work stealing and forced migration
# --------------------------------------------------------------------------


@pytest.mark.parallel
class TestWorkStealing:
    def test_idle_worker_steals_from_deepest_queue(self):
        """Skewed load: the fast worker drains its own queue, steals the
        slow worker's queued shard, and every shard still steps exactly
        once per step — before and after the migration."""
        with ShardWorkerPool(2) as pool:
            pool.register("a", skewed_runners())
            assert pool.step("a") == {k: (k, 1) for k in range(6)}
            # Worker 1 ran out of odd shards while worker 0 slept on shard
            # 0/2 with shard 4 still queued: exactly one productive steal.
            assert pool.n_steals == 1
            assert pool.n_migrations == 1
            stats = pool.session_stats("a")
            assert stats["n_steals"] == 1 and stats["n_migrations"] == 1
            assert stats["queue_depth_p95"] >= 1.0
            assert pool._assign[("a", 4)] == 1  # the stolen shard moved
            # Exactly-once across the migration: every count continues.
            assert pool.step("a") == {k: (k, 2) for k in range(6)}

    def test_steal_disabled_keeps_static_pinning(self):
        with ShardWorkerPool(2, steal=False) as pool:
            pool.register("a", skewed_runners())
            assert pool.step("a") == {k: (k, 1) for k in range(6)}
            assert pool.n_steals == 0 and pool.n_migrations == 0
            # Round-robin registration placement never changed.
            assert all(pool._assign[("a", k)] == k % 2 for k in range(6))

    def test_forced_migration_continues_counts(self):
        with ShardWorkerPool(2) as pool:
            pool.register("a", {0: CountingRunner(0), 1: CountingRunner(1)})
            assert pool.step("a") == {0: (0, 1), 1: (1, 1)}
            pool.migrate("a", 0, to=1)
            assert pool.owners("a") == [1]
            assert pool.n_migrations == 1 and pool.n_steals == 0
            # Continuation from the checkpoint, not a restart from zero.
            assert pool.step("a") == {0: (0, 2), 1: (1, 2)}

    def test_migrate_back_to_stale_holder_ships_only_the_checkpoint(self):
        """A shard returning to a worker that holds a stale copy of its
        runner ships no registration payload: its next step there carries
        the checkpoint, and the step after that carries none."""
        with ShardWorkerPool(2) as pool:
            pool.register("a", {0: CountingRunner(0)})
            assert pool.step("a") == {0: (0, 1)}
            pool.migrate("a", 0, to=1)
            assert pool.step("a") == {0: (0, 2)}  # worker 0's copy is stale
            sent = []
            original = pool._send
            pool._send = lambda w, msg: (sent.append((w, msg)), original(w, msg))[1]
            pool.migrate("a", 0, to=0)  # back to the stale holder
            assert sent == []  # a move is bookkeeping: nothing is sent
            assert pool.step("a") == {0: (0, 3)}
            assert pool.step("a") == {0: (0, 4)}
            pool._send = original
            assert [(w, msg[0]) for w, msg in sent] == [(0, "step"), (0, "step")]
            assert pickle.loads(sent[0][1][3]) == {"count": 2}
            assert sent[1][1][3] is None
            assert pool._holders[("a", 0)] == {0, 1}

    def test_pipelined_steps_after_a_move_load_the_checkpoint_once(self):
        """Two steps of a moved shard in one pipe: the first carries the
        checkpoint, the second runs on from the first (no rewind)."""
        with ShardWorkerPool(2) as pool:
            pool.register("a", {0: CountingRunner(0)})
            assert pool.step("a") == {0: (0, 1)}
            pool.migrate("a", 0, to=1)
            sent = []
            original = pool._send
            pool._send = lambda w, msg: (sent.append((w, msg)), original(w, msg))[1]
            pool.step_send("a")
            pool.step_send("a")
            assert pool.step_collect("a") == {0: (0, 2)}
            assert pool.step_collect("a") == {0: (0, 3)}
            pool._send = original
            steps = [msg for w, msg in sent if msg[0] == "step"]
            assert [w for w, msg in sent] == [1, 1, 1]  # register, step, step
            assert pickle.loads(steps[0][3]) == {"count": 1}
            assert steps[1][3] is None

    def test_sigkill_thief_after_migrate_recovers_exactly_once(self):
        """The thief dies after migrate() and before its first step of the
        moved shard: the collect raises, recover() sends nothing, and the
        retried collect continues every count exactly once."""
        with ShardWorkerPool(2) as pool:
            pool.register("a", {0: CountingRunner(0), 1: CountingRunner(1)})
            assert pool.step("a") == {0: (0, 1), 1: (1, 1)}
            pool.migrate("a", 0, to=1)
            thief = pool._procs[1]
            os.kill(thief.pid, signal.SIGKILL)
            thief.join()
            pool.step_send("a")
            with pytest.raises(WorkerCrashed):
                pool.step_collect("a")
            sent = []
            original = pool._send
            pool._send = lambda w, msg: (sent.append((w, msg)), original(w, msg))[1]
            assert pool.recover() == 1
            assert sent == []
            assert pool.step_collect("a") == {0: (0, 2), 1: (1, 2)}
            pool._send = original
            # The respawned thief got both payloads and both checkpoints.
            assert [msg[0] for w, msg in sent] == ["register", "step"] * 2
            assert all(w == 1 for w, msg in sent)
            assert pool.step("a") == {0: (0, 3), 1: (1, 3)}
            assert pool.n_migrations == 1

    def test_steal_of_a_stepped_shard_carries_its_checkpoint(self):
        """An organic steal of a shard that already stepped on another
        worker: the thief gets the registration payload, then a step
        carrying the shard's checkpoint.  No other step carries one, and
        nothing but registrations and steps is sent."""
        runners = {
            k: SlowRunner(k, delay_s=0.1) if k % 2 == 0 else CountingRunner(k)
            for k in range(6)
        }
        with ShardWorkerPool(2, steal=False) as pool:
            pool.register("a", runners)
            assert pool.step("a") == {k: (k, 1) for k in range(6)}  # pinned
            pool.steal = True
            sent = []
            original = pool._send
            pool._send = lambda w, msg: (sent.append((w, msg)), original(w, msg))[1]
            assert pool.step("a") == {k: (k, 2) for k in range(6)}
            pool._send = original
            # The skew of test_idle_worker_steals_from_deepest_queue: the
            # fast worker 1 steals shard 4, queued behind slow worker 0.
            assert pool.n_steals == 1 and pool._assign[("a", 4)] == 1
            assert {msg[0] for w, msg in sent} == {"register", "step"}
            moved = [(w, msg[0]) for w, msg in sent if msg[2] == 4]
            assert moved == [(1, "register"), (1, "step")]
            carried = [(w, msg) for w, msg in sent if msg[0] == "step" and msg[3] is not None]
            assert [(w, msg[2]) for w, msg in carried] == [(1, 4)]
            assert pickle.loads(carried[0][1][3]) == {"count": 1, "delay_s": 0.1}
            assert pool.step("a") == {k: (k, 3) for k in range(6)}

    def test_release_reaches_every_worker_holding_a_copy(self):
        """Workers keep every runner they were sent, so releasing a session
        whose shard moved drops it on the stale holder too; the session id
        then registers afresh, with no checkpoint left over."""
        with ShardWorkerPool(2) as pool:
            pool.register("a", {0: CountingRunner(0)})
            assert pool.step("a") == {0: (0, 1)}
            pool.migrate("a", 0, to=1)
            assert pool.step("a") == {0: (0, 2)}
            sent = []
            original = pool._send
            pool._send = lambda w, msg: (sent.append((w, msg)), original(w, msg))[1]
            pool.release("a")
            pool._send = original
            assert sent == [(0, ("release", "a")), (1, ("release", "a"))]
            assert pool.sessions() == [] and pool._holders == {} and pool._latest == {}
            pool.register("a", {0: CountingRunner(0)})
            assert pool.step("a") == {0: (0, 1)}  # a fresh runner, not the old one
            pool.migrate("a", 0, to=1)
            assert pool.step("a") == {0: (0, 2)}  # worker 1 re-registers it


POOL_OPS = st.one_of(
    st.tuples(st.just("step"), st.integers(1, 2)),  # 1 or 2 pipelined steps
    st.tuples(st.just("migrate"), st.integers(0, 2), st.integers(0, 1)),
    st.tuples(st.just("kill"), st.integers(0, 1), st.booleans()),  # mid-step?
)


@pytest.mark.parallel
class TestCheckpointRidesNextStep:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(ops=st.lists(POOL_OPS, min_size=6, max_size=10))
    def test_counts_equal_completed_steps(self, ops):
        """Drawn steps (pipelined in pairs too), forced migrations (back to
        stale holders too) and SIGKILLs between or during steps, each kill
        followed by recover(): after every completed step each shard has
        stepped exactly once per completed step."""
        with ShardWorkerPool(2) as pool:
            pool.register("a", {k: CountingRunner(k) for k in range(3)})
            done = 0
            for op in ops + [("step", 1)]:
                kind = op[0]
                if kind == "migrate":
                    pool.migrate("a", op[1], to=op[2])
                elif kind == "kill" and not op[2]:  # between steps
                    kill_worker(pool, op[1])
                    assert pool.recover() == 1
                else:
                    n = op[1] if kind == "step" else 1
                    for _ in range(n):
                        pool.step_send("a")
                    if kind == "kill":
                        kill_worker(pool, op[1])
                    for _ in range(n):
                        done += 1
                        assert collect_through_crash(pool) == {k: (k, done) for k in range(3)}
                    pool.recover()  # a worker killed after its last reply
            assert all(proc.is_alive() for proc in pool._procs)


def kill_worker(pool, w):
    proc = pool._procs[w]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join()


def collect_through_crash(pool):
    """``step_collect``, recovering and retrying once if a worker died."""
    try:
        return pool.step_collect("a")
    except WorkerCrashed:
        assert pool.recover() == 1
        return pool.step_collect("a")


@needs_processes
class TestMigrateValidation:
    def test_rejections(self):
        with ShardWorkerPool(1) as pool:
            pool.register("a", {0: CountingRunner(0)})
            with pytest.raises(ValueError, match="unknown shard"):
                pool.migrate("a", 9, to=0)
            with pytest.raises(ValueError, match="out of range"):
                pool.migrate("a", 0, to=5)
            pool.step_send("a")
            with pytest.raises(RuntimeError, match="in flight"):
                pool.migrate("a", 0, to=0)
            pool.step_collect("a")


# --------------------------------------------------------------------------
# Admission control: saturated() counts the join burst
# --------------------------------------------------------------------------


@needs_processes
class TestSaturationCountsIncoming:
    def test_incoming_shards_counted_up_front(self):
        with ShardWorkerPool(1, max_shards_per_worker=2) as pool:
            assert not pool.saturated()
            assert not pool.saturated(incoming=2)
            assert pool.saturated(incoming=3)  # the burst itself overshoots
            pool.register("a", {0: CountingRunner(0)})
            assert not pool.saturated()  # one more still fits
            assert pool.saturated(incoming=2)  # two more would not
            pool.register("b", {0: CountingRunner(0)})
            assert pool.saturated()

    def test_join_burst_cannot_overshoot_pool_capacity(self):
        """Regression: two sessions joining in the same supervisor step.
        The first fits (2 shards on a 3-slot pool); admitting the second's
        2 shards as well would overshoot, so it must degrade — the old
        ``load >= capacity`` check admitted it (4 shards on 3 slots)."""
        specs = tuple(
            CorridorSpec(f"corridor{i}", n_nodes=2, duration_s=0.3, n_shards=2)
            for i in range(2)
        )
        scenario = CityScenario(corridors=specs, seed=7)
        with CitySupervisor(scenario, workers=1, max_shards_per_worker=3) as sup:
            report = sup.run()
            assert report.n_degraded == 1
            assert not sup.manager.sessions["corridor0"].degraded
            assert sup.manager.sessions["corridor1"].degraded


# --------------------------------------------------------------------------
# Capacity pressure signal and the pacer's min-batch floor
# --------------------------------------------------------------------------


class TestCapacityPressure:
    def test_validation(self):
        with pytest.raises(ValueError, match="widen_pressure"):
            SharedCapacity(1, widen_pressure=0.5, shrink_pressure=0.75)
        with pytest.raises(ValueError, match="patience"):
            SharedCapacity(1, patience=0)
        with pytest.raises(ValueError, match="max_min_batch_scale"):
            SharedCapacity(1, max_min_batch_scale=0)
        cap = SharedCapacity(1)
        with pytest.raises(ValueError):
            cap.note_pressure(-1)
        with pytest.raises(ValueError):
            cap.note_pressure(0, steals=-1)

    def test_pressure_is_an_ema_of_backlog_per_slot(self):
        cap = SharedCapacity(4)
        cap.note_pressure(8)  # instantaneous 2.0
        assert cap.pressure() == pytest.approx(0.5)
        cap.note_pressure(8)
        assert cap.pressure() == pytest.approx(0.875)

    def test_steals_count_double(self):
        backlog_only = SharedCapacity(2)
        backlog_only.note_pressure(4)
        steals_only = SharedCapacity(2)
        steals_only.note_pressure(0, steals=2)
        assert steals_only.pressure() == pytest.approx(backlog_only.pressure())

    def test_patience_debounces_the_scale(self):
        cap = SharedCapacity(1, patience=4)
        for _ in range(3):
            cap.note_pressure(100)
        assert cap.min_batch_scale() == 1  # three hot ticks: not yet
        cap.note_pressure(100)
        assert cap.min_batch_scale() == 2  # the fourth commits

    def test_a_calm_tick_resets_the_hot_streak(self):
        cap = SharedCapacity(1, patience=3)
        # hot, calm, hot, hot, calm: never `patience` hot ticks in a row.
        for backlog in (9, 0, 9, 0, 0):
            cap.note_pressure(backlog)
        assert cap.min_batch_scale() == 1
        assert cap.n_pressure_widenings == 0

    def test_scale_ladder_rises_capped_and_walks_back_down(self):
        cap = SharedCapacity(1, patience=2, max_min_batch_scale=4)
        for _ in range(10):
            cap.note_pressure(100)
        assert cap.min_batch_scale() == 4  # 1 -> 2 -> 4, then capped
        assert cap.n_pressure_widenings == 2
        for _ in range(40):
            cap.note_pressure(0)
        assert cap.min_batch_scale() == 1
        assert cap.n_pressure_shrinks == 2

    def test_pacer_min_batch_floor_rises_and_relaxes(self):
        """Sustained pool pressure raises every paced shard's batch to the
        scaled floor; shrink clamps there until the pool cools."""
        cap = SharedCapacity(1, patience=1)
        pacer = Pacer(
            0.01,
            hop_batch=1,
            config=PacerConfig(min_batch=1, max_batch=64),
            capacity=cap,
        )
        cap.note_pressure(100)  # scale 2
        cap.note_pressure(100)  # scale 4
        assert cap.min_batch_scale() == 4
        pacer.observe(0.006, 1)  # inside budget, no headroom: floor only
        assert pacer.batch == 4
        assert pacer.stats().n_floor_raises == 1
        pacer.observe(0.001, 1)  # huge headroom, but clamped at the floor
        assert pacer.batch == 4
        for _ in range(40):
            cap.note_pressure(0)  # pool drains, scale walks back to 1
        assert cap.min_batch_scale() == 1
        pacer.observe(0.001, 1)  # headroom now shrinks below the old floor
        assert pacer.batch == 2
        assert pacer.stats().n_floor_raises == 1

    def test_floor_never_exceeds_max_batch(self):
        cap = SharedCapacity(1, patience=1, max_min_batch_scale=8)
        for _ in range(3):
            cap.note_pressure(100)
        assert cap.min_batch_scale() == 8
        pacer = Pacer(
            0.01,
            hop_batch=1,
            config=PacerConfig(min_batch=3, max_batch=16),
            capacity=cap,
        )
        pacer.observe(0.006, 1)
        assert pacer.batch == 16  # min(3 * 8, max_batch)


@needs_processes
class TestPoolPressureFeed:
    def test_step_send_reports_backlog_to_capacity(self):
        cap = SharedCapacity(1)
        with ShardWorkerPool(1, capacity=cap) as pool:
            pool.register("a", {k: CountingRunner(k) for k in range(6)})
            pool.step("a")
            # Six hop items on one slot at dispatch time: pressure moved.
            assert cap.pressure() > 0.0
            assert pool.session_stats("a")["queue_depth_p95"] >= 1.0
            assert pool.session_stats("unknown") == SessionStats().summary()

    def test_manager_wires_pool_pressure_to_session_capacity(self):
        with SessionManager(workers=1) as manager:
            assert manager.pool.capacity is manager.capacity


class TestQueueDepthTally:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=48), max_size=400))
    def test_tally_p95_matches_the_sorted_rule(self, depths):
        """The depth -> count tally reads the same nearest-rank p95 as
        sorting every sample (0.0 with none), and holds one entry per
        distinct depth."""
        stats = SessionStats()
        for depth in depths:
            stats.note_depth(depth)
        want = 0.0
        if depths:
            ordered = sorted(depths)
            want = float(ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))])
        assert stats.summary() == {
            "n_steals": 0,
            "n_migrations": 0,
            "queue_depth_p95": want,
        }
        assert len(stats.depths) == len(set(depths))


# --------------------------------------------------------------------------
# Tap-miss telemetry through the report layers
# --------------------------------------------------------------------------


class TestTapMissReporting:
    def _stats(self):
        class _NodeStats:
            n_frames = 10
            n_detections = 0
            latency = LatencyStats(1e-4, 2e-4, 3e-4, 0.01)

        class _Run:
            node_stats = {"node_a": _NodeStats()}
            node_results = {"node_a": []}

        return _Run()

    def test_fleet_report_folds_in_tap_misses(self):
        report = fleet_report(
            [], self._stats(), frame_period=0.01, tap_misses={"node_a": 5}
        )
        assert report.node_health[0].n_tap_misses == 5
        assert "tap misses 5" in format_report(report)

    def test_zero_misses_stay_silent(self):
        report = fleet_report([], self._stats(), frame_period=0.01)
        assert report.node_health[0].n_tap_misses == 0
        assert "tap misses" not in format_report(report)

    def test_evicted_tap_reads_surface_in_result(self):
        """An evicted read against a live session's tap is counted and
        attributed per node in the finalized result (the tap capacity
        floor prevents *organic* eviction in a lone in-process session, so
        the eviction is driven explicitly against the real taps)."""
        scenario = default_scenario(
            1, duration_s=0.4, n_nodes=4, seed=3, stagger_steps=0
        )
        spec = scenario.corridors[0]
        rngs = corridor_rngs(scenario)
        recording = render_corridor(spec, scenario, rngs[spec.corridor_id])
        config = PipelineConfig(
            fs=scenario.fs,
            localizer=scenario.localizer,
            n_azimuth=scenario.n_azimuth,
            n_elevation=scenario.n_elevation,
        )
        sched = FleetScheduler(
            recording.scene.nodes,
            config,
            detector=OracleDetector("siren_wail"),
            n_shards=2,
        )
        feed = CorridorStream(recording, chunk_samples=sched.config.hop_length)
        node_ids = [n.node_id for n in recording.scene.nodes]
        with ParallelFleetStream(
            sched, feed.sources(), hop_batch=8, workers=0, tap_window_s=0.1
        ) as session:
            while not session.done:
                session.step()
            # Roll one node's window far past sample 0, then ask for it.
            tap = session.taps[node_ids[0]]
            tap.extend(np.zeros((tap.n_channels, tap.capacity + 4)))
            assert tap.read(0, 4) is None  # evicted
            result = session.finalize()
        assert set(result.tap_misses) == set(node_ids)
        assert result.tap_misses[node_ids[0]] == 1
        assert all(result.tap_misses[nid] == 0 for nid in node_ids[1:])
        report = fleet_report(
            result.tracks,
            result.as_run_result(),
            frame_period=config.frame_period_s,
            tap_misses=result.tap_misses,
        )
        assert sum(h.n_tap_misses for h in report.node_health) == 1


# --------------------------------------------------------------------------
# Supervisor snapshot trail
# --------------------------------------------------------------------------


class TestSnapshotTrail:
    def test_jsonl_trail_written_every_n_steps(self, tmp_path):
        scenario = default_scenario(
            2, duration_s=0.4, n_nodes=2, seed=9, stagger_steps=1
        )
        path = tmp_path / "trail.jsonl"
        with CitySupervisor(
            scenario, workers=0, snapshot_path=path, snapshot_every=2
        ) as sup:
            sup.run()
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            assert rows, "no snapshots written"
            assert sup.n_snapshots == len(rows)
            steps = [row["step"] for row in rows]
            assert steps == sorted(steps)
            # Every even step, plus the final step regardless of parity.
            assert all(s % 2 == 0 for s in steps[:-1])
            for row in rows:
                assert row["n_sessions"] == 2
                assert {c["corridor_id"] for c in row["corridors"]} == {
                    "corridor0", "corridor1",
                }
            # Mid-run lines show sessions in flight; the last shows the end.
            assert rows[-1]["n_left"] == 2
            assert any(row["n_live"] > 0 for row in rows)

    def test_default_cadence_is_every_step(self, tmp_path):
        scenario = default_scenario(1, duration_s=0.3, n_nodes=2, seed=5)
        path = tmp_path / "trail.jsonl"
        with CitySupervisor(scenario, workers=0, snapshot_path=path) as sup:
            sup.run()
            lines = path.read_text().splitlines()
            assert len(lines) == sup.step_index == sup.n_snapshots

    def test_validation(self, tmp_path):
        scenario = default_scenario(1, duration_s=0.3, n_nodes=2)
        with pytest.raises(ValueError, match="snapshot_every"):
            CitySupervisor(
                scenario, workers=0,
                snapshot_path=tmp_path / "x.jsonl", snapshot_every=0,
            )
        with pytest.raises(ValueError, match="snapshot_path"):
            CitySupervisor(scenario, workers=0, snapshot_every=2)


# --------------------------------------------------------------------------
# City determinism across scheduling policies
# --------------------------------------------------------------------------


def track_signature(tracks):
    """Bit-exact identity signature of a fused track list."""
    return [
        (t.track_id, t.label, t.hits, t.confirmed, tuple(t.history), tuple(sorted(t.nodes)))
        for t in tracks
    ]


def standalone_result(spec, scenario):
    """The reference: the corridor run standalone, in-process (workers=0)."""
    rngs = corridor_rngs(scenario)
    recording = render_corridor(spec, scenario, rngs[spec.corridor_id])
    config = PipelineConfig(
        fs=scenario.fs,
        localizer=scenario.localizer,
        n_azimuth=scenario.n_azimuth,
        n_elevation=scenario.n_elevation,
    )
    sched = FleetScheduler(
        recording.scene.nodes,
        config,
        detector=OracleDetector("siren_wail"),
        n_shards=spec.n_shards,
    )
    feed = CorridorStream(
        recording,
        chunk_samples=sched.config.hop_length,
        drop_prob=spec.drop_prob,
        rng=rngs[spec.corridor_id],
    )
    with ParallelFleetStream(
        sched, feed.sources(), hop_batch=scenario.hop_batch, workers=0
    ) as session:
        result = session.run()
    return result


@pytest.fixture(scope="module")
def steal_scenario():
    # Two shards per corridor so migration/stealing has something to move.
    specs = tuple(
        CorridorSpec(
            f"corridor{i}", n_nodes=2, duration_s=0.4, n_shards=2, join_step=i
        )
        for i in range(3)
    )
    return CityScenario(corridors=specs, seed=11)


@pytest.fixture(scope="module")
def steal_signatures(steal_scenario):
    return {
        spec.corridor_id: track_signature(
            standalone_result(spec, steal_scenario).tracks
        )
        for spec in steal_scenario.corridors
    }


class TestCityStealDeterminism:
    CONFIGS = [
        pytest.param(0, True, id="w0"),
        pytest.param(1, True, marks=needs_processes, id="w1-steal"),
        pytest.param(1, False, marks=needs_processes, id="w1-pinned"),
        pytest.param(2, True, marks=pytest.mark.parallel, id="w2-steal"),
        pytest.param(2, False, marks=pytest.mark.parallel, id="w2-pinned"),
        pytest.param(4, True, marks=pytest.mark.parallel, id="w4-steal"),
        pytest.param(4, False, marks=pytest.mark.parallel, id="w4-pinned"),
    ]

    @pytest.mark.parametrize("workers,steal", CONFIGS)
    def test_city_matches_standalone(
        self, workers, steal, steal_scenario, steal_signatures
    ):
        """The headline contract: fused tracks are bit-identical to the
        standalone runs whatever the worker count or scheduling policy."""
        with CitySupervisor(steal_scenario, workers=workers, steal=steal) as sup:
            sup.run()
            for cid, want in steal_signatures.items():
                got = track_signature(sup.manager.sessions[cid].result.tracks)
                assert got == want, (
                    f"{cid} diverged (workers={workers}, steal={steal})"
                )

    @pytest.mark.parallel
    def test_identity_across_forced_migration(
        self, steal_scenario, steal_signatures
    ):
        """Forcibly migrate every registered shard of the first live
        session mid-run: results stay bit-identical and the move shows up
        in the corridor's health row."""
        migrated = []
        with CitySupervisor(steal_scenario, workers=2, steal=False) as sup:
            pool = sup.manager.pool

            def on_step(result):
                if result.step_index == 2 and not migrated:
                    for (sid, key), w in sorted(pool._assign.items()):
                        if (sid, key) in pool._payloads:
                            pool.migrate(sid, key, (w + 1) % pool.workers)
                            migrated.append((sid, key))

            sup.run(on_step=on_step)
            assert migrated, "migration hook never fired"
            for cid, want in steal_signatures.items():
                got = track_signature(sup.manager.sessions[cid].result.tracks)
                assert got == want, f"{cid} diverged across forced migration"
            report = sup.report()
            moved = {c.corridor_id: c.n_migrations for c in report.corridors}
            assert sum(moved.values()) == len(migrated)
            assert "moved" in format_city_report(report)
            doc = city_report_json(report)
            for corridor in doc["corridors"]:
                assert {
                    "n_steals", "n_migrations", "queue_depth_p95", "n_tap_misses",
                } <= set(corridor)
                assert corridor["n_migrations"] == moved[corridor["corridor_id"]]

    @needs_processes
    def test_one_worker_city_runs_pooled_without_steals(self, steal_scenario):
        """On a one-worker pool every session stays pooled (none degrades
        to in-process) and nothing is ever stolen."""
        with CitySupervisor(steal_scenario, workers=1) as sup:
            sup.run()
            for session in sup.manager.sessions.values():
                assert not session.degraded
                assert session.result.n_steals == 0  # one worker: nothing to steal
