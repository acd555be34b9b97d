"""Tests for the real-time ingest runtime (:mod:`repro.stream`).

Ring-buffer semantics (wraparound, overflow drops, O(frame) memory), the
chunk-source replay feed (sequence gaps, jitter), ingest accounting, and the
single-node hop-clocked contract: :class:`NodeIngest` feeding the pipeline's
hop kernel on the hop clock yields the exact :class:`FrameResult` stream of
the offline batched engine on the same audio, under any chunking.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AcousticPerceptionPipeline, PipelineConfig, process_signal_batched
from repro.core.realtime import LatencyMonitor
from repro.dsp.stft import frame_signals
from repro.fleet import FleetScheduler, OracleDetector, place_corridor_nodes
from repro.stream import (
    Chunk,
    NodeIngest,
    ParallelFleetStream,
    RecordingChunkSource,
    RingBuffer,
)

MICS = np.array(
    [[0.1, 0.1, 1.0], [0.1, -0.1, 1.0], [-0.1, -0.1, 1.0], [-0.1, 0.1, 1.0]]
)


def hop_clocked_run(source, cfg, detector, *, hop_batch=4, ring_capacity=None):
    """Drive one node on the hop clock: each step pulls the chunks delivered
    by its engine time, pops the completed frames and runs them through the
    pipeline's hop kernel with the stream's tracker and refinement state."""
    pipe = AcousticPerceptionPipeline(MICS, cfg, detector=detector)
    capacity = ring_capacity or 2 * (cfg.frame_length + hop_batch * cfg.hop_length)
    ingest = NodeIngest(source, cfg.frame_length, cfg.hop_length, capacity=capacity)
    monitor, results, t = LatencyMonitor(cfg.frame_period_s), [], 0.0
    while not (ingest.exhausted and ingest.ring.available < cfg.frame_length):
        t += hop_batch * cfg.frame_period_s
        ingest.pull(t)
        frames = ingest.pop_frames()
        if frames.shape[0]:
            t0 = time.perf_counter()
            results += pipe.hop_kernel.step(
                frames, tracker=pipe.tracker, state=pipe.refine_state, start_index=len(results)
            )
            monitor.record((time.perf_counter() - t0) / frames.shape[0])
    return SimpleNamespace(results=results, ingest=ingest.stats, latency=monitor.stats())


def assert_results_equal(streamed, batched):
    assert len(streamed) == len(batched)
    for r1, r2 in zip(streamed, batched):
        assert r1.frame_index == r2.frame_index
        assert r1.label == r2.label
        assert r1.detected == r2.detected
        assert np.isclose(r1.confidence, r2.confidence)
        for a, b in ((r1.azimuth, r2.azimuth), (r1.elevation, r2.elevation)):
            assert (np.isnan(a) and np.isnan(b)) or np.isclose(a, b)


class TestRingBuffer:
    def test_frames_match_offline_framing(self):
        x = np.random.default_rng(0).standard_normal((3, 4000))
        ring = RingBuffer(3, 2048)
        frames = []
        for lo in range(0, 4000, 130):
            ring.push(x[:, lo : lo + 130])
            out = ring.pop_frames(256, 128)
            if out.shape[0]:
                frames.append(out)
        got = np.concatenate(frames, axis=0)
        expected = frame_signals(x, 256, 128, pad=False).transpose(1, 0, 2)
        assert got.shape == expected.shape
        assert np.allclose(got, expected)

    def test_max_frames_limits_consumption(self):
        ring = RingBuffer(2, 4096)
        ring.push(np.arange(2 * 2000, dtype=float).reshape(2, 2000))
        out = ring.pop_frames(256, 128, max_frames=3)
        assert out.shape[0] == 3
        # The rest remains poppable.
        rest = ring.pop_frames(256, 128)
        assert rest.shape[0] == 1 + (2000 - 3 * 128 - 256) // 128

    def test_overflow_drops_oldest_and_counts(self):
        ring = RingBuffer(1, 500)
        ring.push(np.arange(400, dtype=float)[None])
        dropped = ring.push(np.arange(400, 700, dtype=float)[None])
        assert dropped == 200
        assert ring.dropped_samples == 200
        assert ring.available == 500
        # The newest 500 samples survived: 200..699.
        out = ring.pop_frames(500, 500)
        assert np.array_equal(out[0, 0], np.arange(200, 700, dtype=float))

    def test_giant_chunk_keeps_newest(self):
        ring = RingBuffer(1, 256)
        ring.push(np.ones((1, 100)))
        dropped = ring.push(np.arange(1000, dtype=float)[None])
        assert dropped == 100 + (1000 - 256)
        out = ring.pop_frames(256, 256)
        assert np.array_equal(out[0, 0], np.arange(744, 1000, dtype=float))

    def test_memory_stays_fixed(self):
        ring = RingBuffer(4, 1024)
        for _ in range(100):
            ring.push(np.zeros((4, 300)))
            ring.pop_frames(512, 256)
        assert ring.capacity == 1024  # never grows: O(frame), not O(stream)

    def test_validation(self):
        with pytest.raises(ValueError):
            RingBuffer(0, 10)
        ring = RingBuffer(2, 100)
        with pytest.raises(ValueError):
            ring.push(np.zeros((3, 10)))
        with pytest.raises(ValueError):
            ring.pop_frames(200, 100)  # frame larger than capacity


class TestRecordingChunkSource:
    def test_slices_and_timestamps(self):
        x = np.random.default_rng(1).standard_normal((2, 1000))
        src = RecordingChunkSource(x, 8000.0, chunk_samples=256)
        chunks = []
        while (c := src.next_chunk()) is not None:
            chunks.append(c)
        assert [c.seq for c in chunks] == [0, 1, 2, 3]
        assert chunks[-1].data.shape == (2, 1000 - 3 * 256)  # short tail, no padding
        assert chunks[0].t == pytest.approx(256 / 8000.0)
        assert np.allclose(np.concatenate([c.data for c in chunks], axis=1), x)

    def test_drops_consume_sequence_numbers(self):
        x = np.zeros((1, 256 * 50))
        src = RecordingChunkSource(
            x, 8000.0, chunk_samples=256, drop_prob=0.4, rng=np.random.default_rng(3)
        )
        seqs = []
        while (c := src.next_chunk()) is not None:
            seqs.append(c.seq)
        assert len(seqs) < 50  # some were dropped
        assert seqs == sorted(seqs)
        assert max(seqs) <= 49

    def test_jitter_delays_arrival(self):
        x = np.zeros((1, 1024))
        src = RecordingChunkSource(
            x, 8000.0, chunk_samples=256, jitter_s=0.5, rng=np.random.default_rng(4)
        )
        c = src.next_chunk()
        assert c.arrival_s >= c.t

    def test_jitter_keeps_arrivals_non_decreasing(self):
        """Chunk k+1 must never become available before chunk k: delivery is
        one ordered transport, whatever each chunk's own jitter draw says.
        (Regression: independent uniform draws let a big-jitter chunk be
        followed by a small-jitter one that 'arrived' earlier.)"""
        x = np.zeros((1, 256 * 200))
        src = RecordingChunkSource(
            # Heavy jitter relative to the 32 ms chunk period, so unclamped
            # draws would reorder arrivals constantly.
            x, 8000.0, chunk_samples=256, jitter_s=0.5, rng=np.random.default_rng(11)
        )
        arrivals = []
        while (c := src.next_chunk()) is not None:
            arrivals.append(c.arrival_s)
        assert arrivals == sorted(arrivals)
        # The clamp delays chunks, it never time-travels them before capture.
        assert all(a >= (k + 1) * 256 / 8000.0 for k, a in enumerate(arrivals))

    def test_late_dropped_stats_sane_under_heavy_jitter(self):
        fs = 8000.0
        x = np.random.default_rng(12).standard_normal((2, 256 * 120))
        src = RecordingChunkSource(
            x, fs, chunk_samples=256, drop_prob=0.2, jitter_s=0.3,
            rng=np.random.default_rng(13),
        )
        ingest = NodeIngest(src, 512, 256, late_tolerance_s=0.05)
        ingest.pull(None)
        s = ingest.stats
        assert s.n_dropped_chunks > 0
        assert s.n_late_chunks > 0
        # Ordered delivery: every chunk after a late one is at least as late,
        # so lateness counts stay consistent with the chunk count.
        assert s.n_late_chunks <= s.n_chunks
        # Drops are seen as sequence gaps between delivered chunks, so a run
        # of drops at the very end of the stream is invisible — the counts
        # must still never exceed the capture total.
        assert s.n_chunks + s.n_dropped_chunks <= src.n_chunks_total

    def test_reset_replays_identical_fault_pattern(self):
        """reset() must rewind the fault RNG with the cursor: a replay that
        draws a fresh drop/jitter sequence is not a replay.  (Regression:
        reset() rewound cursor and seq but left the generator advanced.)"""
        x = np.random.default_rng(14).standard_normal((1, 256 * 80))
        src = RecordingChunkSource(
            x, 8000.0, chunk_samples=256, drop_prob=0.3, jitter_s=0.2,
            rng=np.random.default_rng(15),
        )
        def drain():
            out = []
            while (c := src.next_chunk()) is not None:
                out.append((c.seq, c.t, c.arrival_s))
            return out
        first = drain()
        src.reset()
        assert drain() == first


class TestNodeIngest:
    def test_gap_zero_fill_keeps_hop_grid(self):
        fs = 8000.0
        x = np.random.default_rng(5).standard_normal((2, 4096))

        class GappySource(RecordingChunkSource):
            def next_chunk(self):
                c = super().next_chunk()
                # Drop seq 3 deterministically.
                if c is not None and c.seq == 3:
                    return super().next_chunk()
                return c

        ingest = NodeIngest(GappySource(x, fs, chunk_samples=256), 512, 256)
        ingest.pull(None)
        frames = ingest.pop_frames(None)
        assert ingest.stats.n_dropped_chunks == 1
        # Total hop grid unchanged: zero-fill stands in for the lost chunk.
        assert frames.shape[0] == 1 + (4096 - 512) // 256
        # The zero-filled hop really is silent where the chunk was lost
        # (chunk 3 spanned samples 768..1024: frame 3's first hop).
        assert np.allclose(frames[3, :, :256], 0.0)
        assert np.allclose(frames[2, :, 256:], 0.0)

    def test_late_accounting(self):
        x = np.zeros((1, 2048))
        src = RecordingChunkSource(
            x, 8000.0, chunk_samples=256, jitter_s=1.0, rng=np.random.default_rng(6)
        )
        ingest = NodeIngest(src, 512, 256, late_tolerance_s=0.01)
        ingest.pull(None)
        assert ingest.stats.n_late_chunks > 0

    def test_time_gated_pull(self):
        x = np.zeros((1, 2560))
        src = RecordingChunkSource(x, 8000.0, chunk_samples=256)
        ingest = NodeIngest(src, 512, 256)
        assert ingest.pull(512 / 8000.0) == 2  # only the chunks captured by t
        assert ingest.ring.available == 512
        assert ingest.pull(None) == 8
        assert ingest.exhausted

    def test_pull_gates_on_arrival_not_capture(self):
        """A jitter-delayed chunk must not be consumable before it arrives:
        delivery stalls the frames, exactly like a slow driver."""
        x = np.zeros((1, 1024))

        class DelayedSource(RecordingChunkSource):
            def next_chunk(self):
                c = super().next_chunk()
                if c is None:
                    return None
                return Chunk(data=c.data, seq=c.seq, t=c.t, arrival_s=c.t + 0.5)

        ingest = NodeIngest(DelayedSource(x, 8000.0, chunk_samples=256), 512, 256)
        assert ingest.pull(256 / 8000.0) == 0  # captured, but not yet delivered
        assert ingest.pull(0.5 + 256 / 8000.0) == 1  # arrives half a second later

    def test_reordered_chunk_is_dropped_and_keeps_hop_grid(self):
        """Delivery order (0, 2, 1, 3, ...): chunk 1 arrives after its gap
        was zero-filled.  Pushing it then would shift every later hop by a
        chunk; it is discarded and counted instead."""
        x = np.random.default_rng(16).standard_normal((2, 256 * 12))
        order = [0, 2, 1] + list(range(3, 12))
        ingest = NodeIngest(OrderedSource(x, 8000.0, order, chunk_samples=256), 512, 256)
        ingest.pull(None)
        s = ingest.stats
        assert (s.n_chunks, s.n_dropped_chunks, s.n_stale_chunks) == (11, 1, 1)
        frames = ingest.pop_frames(None)
        expected = frame_signals(x, 512, 256, pad=False).transpose(1, 0, 2)
        assert frames.shape == expected.shape
        # Frame k starts at chunk k: from chunk 2 on, hop index == capture index.
        assert np.array_equal(frames[2:], expected[2:])
        assert np.array_equal(frames[1, :, :256], np.zeros((2, 256)))

    def test_duplicate_chunk_changes_nothing_but_its_counter(self):
        cfg = PipelineConfig(n_azimuth=24, n_elevation=2)
        sig = np.random.default_rng(17).standard_normal((4, 256 * 24))
        order = [0, 1, 2, 3, 3] + list(range(4, 24))

        def run(source):
            return hop_clocked_run(source, cfg, AcousticPerceptionPipeline(MICS, cfg).detector)

        clean = run(RecordingChunkSource(sig, cfg.fs, chunk_samples=cfg.hop_length))
        dup = run(OrderedSource(sig, cfg.fs, order, chunk_samples=cfg.hop_length))
        assert dup.ingest.n_stale_chunks == 1
        assert dup.ingest.n_dropped_chunks == clean.ingest.n_dropped_chunks == 0
        assert dup.ingest.n_chunks == clean.ingest.n_chunks
        assert len(dup.results) == len(clean.results)
        for a, b in zip(dup.results, clean.results):
            assert (a.frame_index, a.label, a.detected) == (b.frame_index, b.label, b.detected)
            assert np.array_equal(
                [a.confidence, a.azimuth, a.elevation],
                [b.confidence, b.azimuth, b.elevation],
                equal_nan=True,
            )

    def test_malformed_chunks_are_zero_filled_not_fatal(self):
        """A 5-channel chunk and a 1-D chunk mid-stream: the session runs to
        the end, counts both, and sees exactly the frames of the same feed
        with those two chunks dropped."""
        cfg = PipelineConfig(n_azimuth=24, n_elevation=2)
        nodes = place_corridor_nodes(2, 18.0)
        n_mics = nodes[0].array.n_mics
        rng = np.random.default_rng(23)
        sig = {n.node_id: rng.standard_normal((n_mics, 256 * 20)) for n in nodes}
        bad = {5: np.zeros((n_mics + 1, 256)), 9: np.zeros(256)}
        kept = [k for k in range(20) if k not in bad]

        def feeds(node0_feed):
            out = {
                n.node_id: RecordingChunkSource(sig[n.node_id], cfg.fs, chunk_samples=256)
                for n in nodes
            }
            out["node0"] = node0_feed(sig["node0"])
            return out

        def malformed(x):
            return CorruptSource(x, cfg.fs, bad, chunk_samples=256)

        def dropped(x):
            return OrderedSource(x, cfg.fs, kept, chunk_samples=256)

        sched = FleetScheduler(nodes, cfg, detector=OracleDetector("siren_wail"))
        runs = [
            ParallelFleetStream(sched, feeds(feed), hop_batch=4).run()
            for feed in (malformed, dropped)
        ]
        for result in runs:
            assert len(result.node_results["node0"]) == len(result.node_results["node1"])
        faulty, lossy = runs[0].ingest["node0"], runs[1].ingest["node0"]
        assert (faulty.n_malformed_chunks, faulty.n_dropped_chunks, faulty.n_chunks) == (2, 0, 18)
        assert (lossy.n_malformed_chunks, lossy.n_dropped_chunks, lossy.n_chunks) == (0, 2, 18)
        for a, b in zip(runs[0].node_results["node0"], runs[1].node_results["node0"]):
            assert (a.frame_index, a.label, a.detected) == (b.frame_index, b.label, b.detected)
            assert np.array_equal(
                [a.confidence, a.azimuth, a.elevation],
                [b.confidence, b.azimuth, b.elevation],
                equal_nan=True,
            )
        # The ingested frames themselves are identical.
        frames = []
        for feed in (malformed, dropped):
            ingest = NodeIngest(feed(sig["node0"]), 512, 256)
            ingest.pull(None)
            frames.append(ingest.pop_frames(None))
        assert np.array_equal(frames[0], frames[1])


class CorruptSource(RecordingChunkSource):
    """Delivers a recording with the payloads of chosen chunks replaced by
    malformed arrays — a driver emitting bad packets."""

    def __init__(self, signals, fs, bad, *, chunk_samples):
        super().__init__(signals, fs, chunk_samples=chunk_samples)
        self._bad = bad

    def next_chunk(self):
        c = super().next_chunk()
        if c is not None and c.seq in self._bad:
            c = Chunk(data=self._bad[c.seq], seq=c.seq, t=c.t, arrival_s=c.arrival_s)
        return c


class OrderedSource(RecordingChunkSource):
    """Delivers a recording's chunks in a given sequence order (indices may
    repeat or go backwards) — a misbehaving driver."""

    def __init__(self, signals, fs, order, *, chunk_samples):
        super().__init__(signals, fs, chunk_samples=chunk_samples)
        clean = []
        while (c := super().next_chunk()) is not None:
            clean.append(c)
        self._queue = [clean[i] for i in order]

    def next_chunk(self):
        return self._queue.pop(0) if self._queue else None


class TestStreamPipeline:
    """The hop-clocked single-node stream (see :func:`hop_clocked_run`) and
    the session driver's checks on the feeds it is given."""

    def config(self):
        return PipelineConfig(n_azimuth=24, n_elevation=2)

    def test_matches_batched_engine(self):
        cfg = self.config()
        sig = np.random.default_rng(7).standard_normal((4, 12000))
        ref = AcousticPerceptionPipeline(MICS, cfg)
        expected = process_signal_batched(ref, sig)
        source = RecordingChunkSource(sig, cfg.fs, chunk_samples=cfg.hop_length)
        res = hop_clocked_run(source, cfg, ref.detector)  # same untrained weights
        assert_results_equal(res.results, expected)
        assert res.ingest.n_dropped_chunks == 0
        assert res.latency.deadline_s == pytest.approx(cfg.frame_period_s)

    @settings(max_examples=6, deadline=None)
    @given(
        hop_batch=st.integers(min_value=1, max_value=16),
        chunk_samples=st.integers(min_value=64, max_value=1024),
    )
    def test_chunking_and_batching_invariance(self, hop_batch, chunk_samples):
        """Any (chunk size, hop batch) delivery schedule yields the exact
        batched-engine result stream — processing time is the only thing
        the hop clock changes."""
        cfg = self.config()
        sig = np.random.default_rng(99).standard_normal((4, 6000))
        ref = AcousticPerceptionPipeline(MICS, cfg)
        expected = process_signal_batched(ref, sig)
        source = RecordingChunkSource(sig, cfg.fs, chunk_samples=chunk_samples)
        res = hop_clocked_run(source, cfg, ref.detector, hop_batch=hop_batch)
        assert_results_equal(res.results, expected)

    def test_jitter_delays_but_never_changes_results(self):
        """Delivery jitter stalls frames to later steps; once everything
        arrives, the result stream is still the batched engine's."""
        cfg = self.config()
        sig = np.random.default_rng(21).standard_normal((4, 6000))
        ref = AcousticPerceptionPipeline(MICS, cfg)
        expected = process_signal_batched(ref, sig)
        source = RecordingChunkSource(
            sig, cfg.fs, chunk_samples=cfg.hop_length,
            jitter_s=0.3, rng=np.random.default_rng(8),
        )
        # Ring sized for the worst-case delivery stall (0.3 s of audio).
        res = hop_clocked_run(
            source, cfg, ref.detector,
            ring_capacity=cfg.frame_length + 2 * int(0.3 * cfg.fs),
        )
        assert_results_equal(res.results, expected)
        assert res.ingest.n_late_chunks > 0  # the jitter really was felt
        assert res.ingest.dropped_samples == 0

    def test_attach_validation(self):
        """The session driver refuses a feed whose channel count or sample
        rate does not match its node's array and pipeline."""
        cfg = self.config()
        nodes = place_corridor_nodes(2, 18.0)
        sched = FleetScheduler(nodes, cfg, detector=OracleDetector("siren_wail"))

        def feeds(n_channels, fs):
            return {
                n.node_id: RecordingChunkSource(
                    np.zeros((n_channels, 1000)), fs, chunk_samples=256
                )
                for n in nodes
            }

        n_mics = nodes[0].array.n_mics
        with pytest.raises(ValueError, match="channels"):
            ParallelFleetStream(sched, feeds(n_mics - 1, cfg.fs))
        with pytest.raises(ValueError, match="fs"):
            ParallelFleetStream(sched, feeds(n_mics, cfg.fs / 2))

    def test_chunk_is_frozen_record(self):
        c = Chunk(data=np.zeros((1, 4)), seq=0, t=0.0, arrival_s=0.0)
        with pytest.raises(AttributeError):
            c.seq = 1
