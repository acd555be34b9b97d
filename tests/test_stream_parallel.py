"""Process-parallel runtime tests: shared rings, pacer, budgets, identity.

The contract under test, in layers:

- :class:`SharedRingBuffer` must be behaviourally indistinguishable from
  :class:`RingBuffer` (same pops, same overflow/drop accounting) — the
  parallel runtime swaps one for the other and nothing downstream may
  notice;
- the :class:`Pacer` backpressure policy widens on overrun, shrinks on
  headroom, and never leaves its configured bounds; the debounced
  :class:`OverrunPolicy` turns its records into sustained-overrun alerts;
- :class:`ParallelFleetStream` (the one fleet session, also exported as
  :class:`FleetStream`) produces **bit-identical** fused tracks to the
  offline run, for workers 0 and 1 (multi-worker counts in the
  ``parallel``-marked class) and under any adaptive hop-batch schedule the
  pacer might choose; without a pacer it holds the requested hop batch.
"""

import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acoustics.trajectory import LinearTrajectory
from repro.core import OverrunPolicy, PipelineConfig
from repro.fleet import (
    CorridorScene,
    CorridorStream,
    FleetScheduler,
    FleetStream,
    OracleDetector,
    Vehicle,
    fleet_report,
    fuse_fleet,
    place_corridor_nodes,
    synthesize_corridor,
)
from repro.nn import Module
from repro.sed.events import EVENT_CLASSES
from repro.signals import synthesize_siren
from repro.stream import (
    NodeIngest,
    Pacer,
    PacerConfig,
    ParallelFleetStream,
    RingBuffer,
    SharedRingBuffer,
    StageBudget,
    format_stage_summary,
    WorkerCrashed,
    parallel_supported,
    summarize_budgets,
)
from repro.stream.source import RecordingChunkSource

FS = 8000.0

needs_processes = pytest.mark.skipif(
    parallel_supported() is not None,
    reason=f"process runtime unavailable: {parallel_supported()}",
)


# --------------------------------------------------------------------------
# SharedRingBuffer: parity with RingBuffer
# --------------------------------------------------------------------------


class TestSharedRingBuffer:
    def test_randomized_parity_with_ring_buffer(self):
        """Same push/pop sequence → same frames, same accounting."""
        rng = np.random.default_rng(7)
        plain = RingBuffer(2, 600)
        shared = SharedRingBuffer(2, 600)
        try:
            for _ in range(200):
                if rng.random() < 0.6:
                    n = int(rng.integers(1, 700))  # sometimes > capacity
                    chunk = rng.standard_normal((2, n))
                    assert shared.push(chunk) == plain.push(chunk)
                else:
                    max_frames = None if rng.random() < 0.5 else int(rng.integers(0, 4))
                    a = plain.pop_frames(128, 64, max_frames=max_frames)
                    b = shared.pop_frames(128, 64, max_frames=max_frames)
                    assert np.array_equal(a, b)
                assert shared.available == plain.available
                assert shared.dropped_samples == plain.dropped_samples
                assert shared.total_pushed == plain.total_pushed
        finally:
            shared.unlink()

    def test_overflow_drops_oldest_and_counts(self):
        ring = SharedRingBuffer(1, 100)
        try:
            ring.push(np.arange(80, dtype=np.float64)[None, :])
            dropped = ring.push(np.arange(80, 140, dtype=np.float64)[None, :])
            assert dropped == 40  # 80 + 60 - 100
            assert ring.dropped_samples == 40
            assert ring.available == 100
            # The oldest 40 samples were overwritten: the ring now starts at 40.
            frames = ring.pop_frames(100, 100)
            assert frames.shape == (1, 1, 100)
            assert frames[0, 0, 0] == 40.0
            assert frames[0, 0, -1] == 139.0
        finally:
            ring.unlink()

    def test_attach_sees_producer_writes(self):
        owner = SharedRingBuffer(2, 256)
        try:
            chunk = np.arange(2 * 64, dtype=np.float64).reshape(2, 64)
            owner.push(chunk)
            consumer = SharedRingBuffer.attach(owner.name, 2, 256)
            assert consumer.available == 64
            assert consumer.total_pushed == 64
            frames = consumer.pop_frames(64, 64)
            assert np.array_equal(frames[0], chunk)
            # The consumer's pop advanced the shared header: the owner sees it.
            assert owner.available == 0
            consumer.close()
        finally:
            owner.unlink()

    def test_reset_clears_shared_header(self):
        ring = SharedRingBuffer(1, 64)
        try:
            ring.push(np.ones((1, 80)))
            assert ring.dropped_samples > 0
            ring.reset()
            assert ring.available == 0
            assert ring.dropped_samples == 0
            assert ring.total_pushed == 0
        finally:
            ring.unlink()

    def test_unlink_after_close_destroys_segment(self):
        ring = SharedRingBuffer(1, 64)
        name = ring.name
        ring.close()
        ring.unlink()  # must still destroy the named segment
        with pytest.raises(FileNotFoundError):
            SharedRingBuffer.attach(name, 1, 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            SharedRingBuffer(0, 64)
        with pytest.raises(ValueError):
            SharedRingBuffer(1, 0)

    def test_ingest_accepts_injected_shared_ring(self):
        ring = SharedRingBuffer(1, 4096)
        try:
            data = np.random.default_rng(0).standard_normal((1, 2048))
            src = RecordingChunkSource(data, FS, chunk_samples=256)
            ing = NodeIngest(src, 512, 256, ring=ring)
            assert ing.ring is ring
            ing.pull(None)
            frames = ing.pop_frames()
            assert frames.shape[0] == 1 + (2048 - 512) // 256
        finally:
            ring.unlink()

    def test_ingest_rejects_channel_mismatch(self):
        ring = SharedRingBuffer(2, 4096)
        try:
            src = RecordingChunkSource(np.zeros((1, 1024)), FS, chunk_samples=256)
            with pytest.raises(ValueError, match="channels"):
                NodeIngest(src, 512, 256, ring=ring)
        finally:
            ring.unlink()


# --------------------------------------------------------------------------
# Pacer backpressure policy
# --------------------------------------------------------------------------


class TestPacer:
    def test_widens_on_overrun_up_to_max(self):
        p = Pacer(0.032, hop_batch=4, config=PacerConfig(max_batch=32))
        assert p.batch == 4
        p.observe(wall_s=1.0, hops_advanced=4)  # budget 0.128 s: overrun
        assert p.batch == 8
        p.observe(1.0, 8)
        assert p.batch == 16
        p.observe(1.0, 16)
        assert p.batch == 32
        p.observe(2.0, 32)  # still over budget (1.024 s), but already capped
        assert p.batch == 32
        stats = p.stats()
        assert stats.n_overruns == 4
        assert stats.n_widenings == 3
        assert stats.max_batch_used == 32

    def test_shrinks_on_headroom_down_to_min(self):
        p = Pacer(0.032, hop_batch=8, config=PacerConfig(min_batch=2, max_batch=64))
        p.observe(0.0001, 8)  # far below shrink_headroom * budget
        assert p.batch == 4
        p.observe(0.0001, 4)
        assert p.batch == 2
        p.observe(0.0001, 2)
        assert p.batch == 2  # floored
        assert p.stats().n_shrinks == 2
        assert p.stats().min_batch_used == 2

    def test_hysteresis_band_holds_batch(self):
        p = Pacer(0.032, hop_batch=8)
        budget = 8 * 0.032
        p.observe(0.75 * budget, 8)  # inside (shrink_headroom, 1.0): hold
        assert p.batch == 8
        assert p.stats().n_overruns == 0
        assert p.stats().n_shrinks == 0

    def test_zero_hops_not_judged(self):
        p = Pacer(0.032, hop_batch=8)
        p.observe(10.0, 0)
        assert p.stats().n_steps == 0
        assert p.batch == 8

    def test_records_feed_overrun_policy(self):
        p = Pacer(0.032, hop_batch=4, config=PacerConfig(max_batch=8))
        for _ in range(5):
            p.observe(1.0, 4)
        alerts = OverrunPolicy(on_steps=3, off_steps=2).process(p.stats().records)
        assert [a.kind for a in alerts] == ["overrun"]
        assert alerts[0].step_index == 2  # third consecutive overrun

    def test_paced_wait_sleeps_on_monotonic_clock(self):
        now = [100.0]
        slept = []
        p = Pacer(
            0.032,
            hop_batch=8,
            config=PacerConfig(pace=True),
            clock=lambda: now[0],
            sleep=slept.append,
        )
        # First call anchors the epoch so this step is due exactly now: the
        # next step (one 0.256 s batch later) is due 0.256 s from here, not
        # 0.512 s — the old `origin = now` anchoring ran one batch late.
        assert p.wait(0.256) == 0.0
        now[0] += 0.1  # 0.1 s of work; next step due at epoch + 0.512
        delay = p.wait(0.512)
        assert delay == pytest.approx(0.156)
        assert slept == [pytest.approx(0.156)]
        # A late step (stream time already passed) does not sleep.
        now[0] += 10.0
        assert p.wait(0.768) == 0.0

    def test_paced_wait_reanchors_after_stall(self):
        now = [50.0]
        slept = []
        p = Pacer(
            0.032,
            hop_batch=8,
            config=PacerConfig(pace=True, resync_slip_s=0.5),
            clock=lambda: now[0],
            sleep=slept.append,
        )
        p.wait(0.256)
        now[0] += 3.0  # long stall: far past the next due time
        assert p.wait(0.512) == 0.0  # late, never sleeps...
        assert p.n_resyncs == 1  # ...but accepts the slip and re-anchors
        now[0] += 0.02
        # Pacing resumes immediately from the new epoch: the next batch is
        # due 0.256 s after the re-anchor, not after a multi-second free-run.
        assert p.wait(0.768) == pytest.approx(0.236)
        assert slept == [pytest.approx(0.236)]

    def test_paced_wait_small_slip_catches_up_without_resync(self):
        now = [10.0]
        p = Pacer(
            0.032,
            hop_batch=8,
            config=PacerConfig(pace=True, resync_slip_s=0.5),
            clock=lambda: now[0],
            sleep=lambda s: None,
        )
        p.wait(0.256)
        now[0] += 0.4  # one slow step, within the slip tolerance
        assert p.wait(0.512) == 0.0
        assert p.n_resyncs == 0  # catch up by free-running, keep the epoch

    def test_unpaced_wait_never_sleeps(self):
        slept = []
        p = Pacer(0.032, hop_batch=8, sleep=slept.append)
        assert p.wait(1.0) == 0.0
        assert slept == []

    def test_validation(self):
        with pytest.raises(ValueError):
            Pacer(0.0)
        with pytest.raises(ValueError):
            Pacer(0.032, hop_batch=0)
        with pytest.raises(ValueError):
            PacerConfig(min_batch=0)
        with pytest.raises(ValueError):
            PacerConfig(min_batch=4, max_batch=2)
        with pytest.raises(ValueError):
            PacerConfig(widen_factor=1.0)
        with pytest.raises(ValueError):
            PacerConfig(shrink_headroom=1.5)
        with pytest.raises(ValueError):
            PacerConfig(resync_slip_s=0.0)


class TestOverrunPolicy:
    def test_debounces_single_overruns(self):
        policy = OverrunPolicy(on_steps=3, off_steps=2)
        assert policy.update(1.0, 0.5) is None
        assert policy.update(0.1, 0.5) is None  # streak broken
        assert policy.update(1.0, 0.5) is None
        assert policy.update(1.0, 0.5) is None
        alert = policy.update(1.0, 0.5)
        assert alert is not None and alert.kind == "overrun"
        assert policy.active

    def test_recovers_after_off_steps(self):
        policy = OverrunPolicy(on_steps=1, off_steps=2)
        assert policy.update(1.0, 0.5).kind == "overrun"
        assert policy.update(0.1, 0.5) is None
        alert = policy.update(0.1, 0.5)
        assert alert is not None and alert.kind == "recovered"
        assert not policy.active

    def test_validation(self):
        with pytest.raises(ValueError):
            OverrunPolicy(on_steps=0)
        policy = OverrunPolicy()
        with pytest.raises(ValueError):
            policy.update(-1.0, 0.5)
        with pytest.raises(ValueError):
            policy.update(1.0, 0.0)


# --------------------------------------------------------------------------
# Stage budgets
# --------------------------------------------------------------------------


class TestStageBudget:
    def test_detect_to_update_excludes_capture(self):
        b = StageBudget(
            capture_ms=64.0,
            delivery_ms=10.0,
            ingest_ms=1.0,
            kernel_ms=5.0,
            fusion_ms=0.5,
            emit_ms=0.1,
        )
        assert b.detect_to_update_ms == pytest.approx(16.6)
        assert b.stage_ms("capture") == 64.0
        with pytest.raises(ValueError):
            b.stage_ms("teleport")

    def test_summary_and_format(self):
        budgets = [
            StageBudget(64.0, float(d), 1.0, 5.0, 0.5, 0.1) for d in range(10)
        ]
        summary = summarize_budgets(budgets)
        assert set(summary) == {
            "capture", "delivery", "ingest", "kernel", "fusion", "emit",
            "detect_to_update",
        }
        p50, p95 = summary["delivery"]
        assert p50 == pytest.approx(4.5)
        assert p95 > p50
        line = format_stage_summary(summary)
        assert "detect→update" in line and "p50/p95" in line
        assert summarize_budgets([]) == {}
        assert "(no updates yet)" in format_stage_summary({})


# --------------------------------------------------------------------------
# ParallelFleetStream: determinism across execution modes
# --------------------------------------------------------------------------


def corridor(n_nodes=3, duration=1.0):
    rng = np.random.default_rng(11)
    vehicles = [
        Vehicle(
            "siren_wail",
            LinearTrajectory([-25.0, 8.0, 0.8], [25.0, 8.0, 0.8], 15.0),
            synthesize_siren("wail", duration, FS, rng=rng),
        )
    ]
    nodes = place_corridor_nodes(n_nodes, 18.0)
    recording = synthesize_corridor(CorridorScene(vehicles, nodes), FS)
    return nodes, recording


def config():
    return PipelineConfig(fs=FS, n_azimuth=36, n_elevation=2)


def scheduler(nodes, cfg, n_shards=2):
    return FleetScheduler(
        nodes, cfg, detector=OracleDetector("siren_wail"), n_shards=n_shards
    )


def assert_frame_streams_equal(ref, got):
    assert ref.keys() == got.keys()
    for nid in ref:
        assert len(ref[nid]) == len(got[nid])
        for r1, r2 in zip(ref[nid], got[nid]):
            assert r1.frame_index == r2.frame_index
            assert r1.label == r2.label
            assert r1.detected == r2.detected
            assert r1.confidence == r2.confidence
            for u, v in ((r1.azimuth, r2.azimuth), (r1.elevation, r2.elevation)):
                assert (np.isnan(u) and np.isnan(v)) or u == v


def assert_tracks_identical(ref_tracks, tracks):
    """Same association decisions, bit-identical states."""
    assert len(ref_tracks) == len(tracks)
    for t1, t2 in zip(ref_tracks, tracks):
        assert t1.track_id == t2.track_id
        assert t1.label == t2.label
        assert t1.hits == t2.hits
        assert t1.nodes == t2.nodes
        assert t1.confirmed == t2.confirmed
        assert t1.confirmed_frame == t2.confirmed_frame
        assert t1.n_triangulated == t2.n_triangulated
        assert t1.n_multilaterated == t2.n_multilaterated
        assert np.array_equal(t1.frames(), t2.frames())
        assert np.array_equal(t1.positions(), t2.positions())


@pytest.fixture(scope="module")
def scene():
    return corridor()


@pytest.fixture(scope="module")
def serial_reference(scene):
    """Offline run + offline fusion on the same scene."""
    nodes, recording = scene
    cfg = config()
    offline = scheduler(nodes, cfg).run(recording)
    offline_tracks = fuse_fleet(
        offline.node_results, nodes, frame_period=cfg.frame_period_s
    )
    return offline, offline_tracks


def parallel_run(scene, **kwargs):
    nodes, recording = scene
    cfg = config()
    sched = scheduler(nodes, cfg)
    sources = CorridorStream(recording, chunk_samples=256).sources()
    kwargs.setdefault("hop_batch", 8)
    with ParallelFleetStream(sched, sources, **kwargs) as session:
        return session.run()


class TestParallelEquivalence:
    def test_workers0_matches_serial_and_offline(self, scene, serial_reference):
        offline, offline_tracks = serial_reference
        result = parallel_run(scene, workers=0)
        assert_frame_streams_equal(offline.node_results, result.node_results)
        assert_tracks_identical(offline_tracks, result.tracks)
        assert result.workers == 0

    @needs_processes
    def test_one_forked_worker_matches_serial(self, scene, serial_reference):
        offline, offline_tracks = serial_reference
        result = parallel_run(scene, workers=1)
        assert_frame_streams_equal(offline.node_results, result.node_results)
        assert_tracks_identical(offline_tracks, result.tracks)
        assert result.workers == 1

    def test_adaptive_batch_schedule_is_invariant(self, scene, serial_reference):
        """Whatever batch sizes the pacer picks, the tracks cannot change."""
        offline, offline_tracks = serial_reference
        nodes, recording = scene
        cfg = config()
        sched = scheduler(nodes, cfg)
        sources = CorridorStream(recording, chunk_samples=256).sources()
        rng = np.random.default_rng(3)
        with ParallelFleetStream(sched, sources, hop_batch=8, workers=0) as session:
            while not session.done:
                # Emulate an aggressively adapting pacer: any schedule of
                # effective batches must leave the results untouched.
                for pacer in session._pacers:
                    pacer._batch = int(rng.integers(1, 13))
                session.step()
            result = session.finalize()
        assert_frame_streams_equal(offline.node_results, result.node_results)
        assert_tracks_identical(offline_tracks, result.tracks)

    def test_every_update_carries_a_stage_budget(self, scene):
        result = parallel_run(scene, workers=0)
        assert result.updates, "dense scene must emit updates"
        assert len(result.stage_budgets) == len(result.updates)
        cfg = config()
        for budget in result.stage_budgets:
            assert isinstance(budget, StageBudget)
            assert budget.capture_ms == pytest.approx(cfg.capture_latency_s * 1e3)
            for stage in ("delivery", "ingest", "kernel", "fusion", "emit"):
                assert budget.stage_ms(stage) >= 0.0
            assert budget.detect_to_update_ms == pytest.approx(
                budget.delivery_ms
                + budget.ingest_ms
                + budget.kernel_ms
                + budget.fusion_ms
                + budget.emit_ms
            )
        summary = result.stage_summary()
        assert "detect_to_update" in summary
        assert result.detect_to_update.p95_s > 0.0

    def test_pacer_stats_reach_fleet_report(self, scene):
        result = parallel_run(scene, workers=0)
        per_node = result.node_pacer_stats()
        assert set(per_node) == set(result.node_results)
        report = fleet_report(
            result.tracks,
            result.as_run_result(),
            frame_period=config().frame_period_s,
            pacer_stats=per_node,
        )
        for health in report.node_health:
            assert health.peak_hop_batch >= 1
            assert health.n_overruns >= 0
            assert health.n_overrun_alerts >= 0

    def test_one_session_class(self):
        import repro.fleet
        import repro.fleet.scheduler
        import repro.stream.parallel

        assert (
            repro.fleet.FleetStream
            is repro.fleet.scheduler.FleetStream
            is repro.stream.parallel.ParallelFleetStream
        )

    @pytest.mark.parametrize("workers", [0, pytest.param(1, marks=needs_processes)])
    def test_stream_default_honours_hop_batch(self, scene, serial_reference, workers):
        """Without a pacer the session advances exactly ``hop_batch`` hops
        per step, never adapts, budgets every update, and matches the
        offline run frame for frame."""
        offline, offline_tracks = serial_reference
        nodes, recording = scene
        sched = scheduler(nodes, config())
        sources = CorridorStream(recording, chunk_samples=256).sources()
        with sched.stream(sources, hop_batch=8, workers=workers) as session:
            assert isinstance(session, FleetStream)
            assert session.workers == workers
            while not session.done:
                assert session.batches() == [8] * len(sched.shards)
                session.step()
            assert session.batches() == [8] * len(sched.shards)
            result = session.finalize()
        for stats in result.pacer_stats.values():
            assert stats.n_widenings == 0
            assert stats.n_shrinks == 0
            assert stats.min_batch_used == stats.max_batch_used == 8
        assert result.updates
        assert len(result.stage_budgets) == len(result.updates)
        assert all(isinstance(b, StageBudget) for b in result.stage_budgets)
        assert_frame_streams_equal(offline.node_results, result.node_results)
        assert_tracks_identical(offline_tracks, result.tracks)

    def test_explicit_pacer_adapts_in_process(self, scene, serial_reference):
        """A caller-supplied PacerConfig opts into adaptation, in-process
        too: every shard's batch leaves 8 (a 3-node step finishes far
        inside its hop budget, so in practice it shrinks toward
        ``min_batch``) — and the tracks cannot change."""
        _, offline_tracks = serial_reference
        nodes, recording = scene
        sched = scheduler(nodes, config())
        sources = CorridorStream(recording, chunk_samples=256).sources()
        with sched.stream(sources, hop_batch=8, pacer=PacerConfig(min_batch=1)) as session:
            assert session.workers == 0
            result = session.run()
        for stats in result.pacer_stats.values():
            assert stats.n_shrinks + stats.n_widenings >= 1
            assert (stats.min_batch_used, stats.max_batch_used) != (8, 8)
        assert_tracks_identical(offline_tracks, result.tracks)

    def test_step_after_close_raises(self, scene):
        nodes, recording = scene
        sched = scheduler(nodes, config())
        sources = CorridorStream(recording, chunk_samples=256).sources()
        session = ParallelFleetStream(sched, sources, workers=0)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.step()

    def test_validation(self, scene):
        nodes, recording = scene
        sched = scheduler(nodes, config())
        sources = CorridorStream(recording, chunk_samples=256).sources()
        with pytest.raises(ValueError):
            ParallelFleetStream(sched, sources, hop_batch=0)
        with pytest.raises(ValueError):
            ParallelFleetStream(sched, sources, workers=-1)
        with pytest.raises(ValueError, match="missing sources"):
            ParallelFleetStream(sched, {})


class TestPacedSessions:
    """Real-time pacing at the session level, on a fake clock.

    ``pace=True`` turns the free-running replay into a capture-clocked
    session: every step waits until its hop batch is *due*.  On a machine
    with headroom the pacer then rides ``min_batch``, and the dominant
    detect→update stage — delivery, the stream-clock wait between a
    frame's capture and its pop — collapses from a whole batch to a hop.
    """

    def paced_session(self, scene, pacer, now, slept):
        nodes, recording = scene
        sched = scheduler(nodes, config())
        sources = CorridorStream(recording, chunk_samples=256).sources()

        def sleep(s):
            slept.append(s)
            now[0] += s  # sleeping advances the fake capture clock

        return ParallelFleetStream(
            sched,
            sources,
            hop_batch=8,
            workers=0,
            pacer=pacer,
            clock=lambda: now[0],
            sleep=sleep,
        )

    def test_rides_min_batch_and_shrinks_delivery(self, scene):
        now, slept = [0.0], []
        cfg = PacerConfig(pace=True, min_batch=1)
        with self.paced_session(scene, cfg, now, slept) as session:
            result = session.run()
        for stats in result.pacer_stats.values():
            # Headroom (near-zero wall per step on the fake-clocked replay)
            # shrinks 8 → 4 → 2 → 1 and stays there.
            assert stats.n_shrinks >= 3
            assert stats.min_batch_used == 1
            assert stats.n_resyncs == 0
        assert slept, "a paced session with headroom must actually wait"
        deliveries = [b.delivery_ms for b in result.stage_budgets]
        assert len(deliveries) >= 9
        third = len(deliveries) // 3
        head, tail = max(deliveries[:third]), max(deliveries[-third:])
        # Early updates rode 8-hop batches (frames wait up to ~256 ms for
        # their pop); once the batch reaches 1 the wait is a hop or two.
        assert tail < head
        assert tail <= 3 * config().frame_period_s * 1e3

    def test_origin_reanchors_after_stall(self, scene):
        now, slept = [0.0], []
        cfg = PacerConfig(pace=True, min_batch=8, max_batch=8, resync_slip_s=0.5)
        session = self.paced_session(scene, cfg, now, slept)
        try:
            session.step()  # first step anchors the epoch
            session.step()  # second step paces normally
            n_before = len(slept)
            assert n_before > 0
            now[0] += 5.0  # multi-second stall, far past the slip tolerance
            session.step()  # late: free-runs, accepts the slip, re-anchors
            while not session.done:
                session.step()
            result = session.finalize()
        finally:
            session.close()
        for stats in result.pacer_stats.values():
            assert stats.n_resyncs == 1
        # Pacing resumed from the new epoch after the stall: later steps
        # waited again instead of free-running the rest of the session.
        assert len(slept) > n_before


@pytest.mark.parallel
class TestMultiWorker:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_multi_worker_matches_serial(self, scene, serial_reference, workers):
        offline, offline_tracks = serial_reference
        result = parallel_run(scene, workers=workers)
        assert_frame_streams_equal(offline.node_results, result.node_results)
        assert_tracks_identical(offline_tracks, result.tracks)
        # Clamped to the shard count when fewer shards than workers exist.
        assert result.workers == min(workers, len(result.shards))

    def test_worker_death_raises_workercrashed_naming_shard(self, scene):
        """A killed shard worker must surface as a typed, attributed error
        — not a hang on the pipe — naming the shards that died with it."""
        nodes, recording = scene
        sched = scheduler(nodes, config())
        sources = CorridorStream(recording, chunk_samples=256).sources()
        session = ParallelFleetStream(sched, sources, hop_batch=8, workers=2)
        try:
            session.step()  # both workers alive and stepping
            victim = session._pool._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            with pytest.raises(WorkerCrashed) as excinfo:
                while not session.done:
                    session.step()
            err = excinfo.value
            assert err.worker_index == 0
            assert err.shards  # the dead worker's shards are named
            assert all(s.startswith("fleet/shard") for s in err.shards)
            assert "died" in str(err) and "fleet/shard" in str(err)
        finally:
            session.close()

    def test_worker_death_recovers_and_matches_offline(self, scene, serial_reference):
        """A private pool restores a killed worker's shards from their step
        checkpoints, exactly as a city pool does: recover, retry the
        pending collect, and the session still ends bit-identical to the
        offline run."""
        offline, offline_tracks = serial_reference
        nodes, recording = scene
        sched = scheduler(nodes, config())
        sources = CorridorStream(recording, chunk_samples=256).sources()
        with ParallelFleetStream(sched, sources, hop_batch=8, workers=2) as session:
            session.step()
            victim = session._pool._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            assert not victim.is_alive()
            session.step_begin()
            with pytest.raises(WorkerCrashed):
                session.step_end()
            assert session._pool.recover() == 1
            session.step_end()  # the retried collect returns the lost step
            while not session.done:
                session.step()
            result = session.finalize()
        assert_frame_streams_equal(offline.node_results, result.node_results)
        assert_tracks_identical(offline_tracks, result.tracks)


# --------------------------------------------------------------------------
# Checkpoints carry priming state across migration and crash recovery
# --------------------------------------------------------------------------


class FeatureDetector(Module):
    """Fires ``siren_wail`` on every hop with a confidence that depends on
    the features, so a hop whose detection spectra were derived through
    cache priming reports a (slightly) different confidence."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((x.shape[0], len(EVENT_CLASSES)))
        out[:, EVENT_CLASSES.index("siren_wail")] = 3.0 + np.tanh(x[:, 0])
        return out


@pytest.fixture(scope="module")
def priming_scene():
    rng = np.random.default_rng(11)
    vehicles = [
        Vehicle(
            "siren_wail",
            LinearTrajectory([-40.0, 8.0, 0.8], [40.0, 8.0, 0.8], 15.0),
            synthesize_siren("wail", 8.0, FS, rng=rng),
        )
    ]
    nodes = place_corridor_nodes(4, 18.0)
    return nodes, synthesize_corridor(CorridorScene(vehicles, nodes), FS)


def priming_session(scene, workers):
    nodes, recording = scene
    sched = FleetScheduler(nodes, config(), detector=FeatureDetector(), n_shards=2)
    sources = CorridorStream(recording, chunk_samples=256).sources()
    return ParallelFleetStream(sched, sources, hop_batch=8, workers=workers)


@pytest.fixture(scope="module")
def priming_reference(priming_scene):
    with priming_session(priming_scene, workers=0) as session:
        return session.run()


@needs_processes
@pytest.mark.parallel
class TestCheckpointRestoresPriming:
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        migrate_at=st.integers(1, 30),
        migrate_key=st.integers(0, 1),
        kill_at=st.integers(1, 30),
        kill_key=st.integers(0, 1),
    )
    def test_migration_and_recovery_keep_every_frame_result(
        self, priming_scene, priming_reference, migrate_at, migrate_key, kill_at, kill_key
    ):
        """Migrate a shard at one step, SIGKILL a worker and recover at
        another: a restored shard must prime exactly as it would have,
        so every FrameResult equals the in-process session's."""
        with priming_session(priming_scene, workers=2) as session:
            pool, step = session._pool, 0
            while not session.done:
                if step == migrate_at:
                    owner = pool._assign[("fleet", migrate_key)]
                    pool.migrate("fleet", migrate_key, to=1 - owner)
                if step == kill_at:
                    victim = pool._procs[pool._assign[("fleet", kill_key)]]
                    os.kill(victim.pid, signal.SIGKILL)
                    victim.join(timeout=5.0)
                    session.step_begin()
                    with pytest.raises(WorkerCrashed):
                        session.step_end()
                    assert pool.recover() == 1
                    session.step_end()
                else:
                    session.step()
                step += 1
            result = session.finalize()
        assert step > max(migrate_at, kill_at)
        assert_frame_streams_equal(priming_reference.node_results, result.node_results)
