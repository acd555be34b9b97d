"""Hop-clocked real-time ingest engine for a single array node.

This is the third driver of the shared :class:`~repro.core.hop.HopKernel`
(after the frame-by-frame streaming tick and the offline block engine): a
chunk source feeds a fixed-capacity :class:`~repro.stream.ring.RingBuffer`,
and each engine step pops at most one *hop batch* of completed frames and
advances the pipeline's detector/localizer/tracker through the kernel.  The
result stream is numerically equivalent to
:meth:`~repro.core.batch.process_signal_batched` over the same audio — the
engine only changes *when* hops are processed, never *how* — while bounding
memory (O(frame) per node) and per-step latency (one hop batch).

Ingest accounting follows the real-time contract of the paper's Sec. II:
late chunks (delivered after their capture deadline), dropped chunks
(sequence-number gaps, zero-filled to keep the hop clock aligned) and ring
overruns are counted per node and surfaced in :class:`IngestStats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.pipeline import AcousticPerceptionPipeline, FrameResult
from repro.core.realtime import LatencyMonitor, LatencyStats
from repro.nn.module import Module
from repro.stream.ring import RingBuffer
from repro.stream.source import ChunkSource
from repro.stream.tap import SampleTap

__all__ = ["IngestStats", "NodeIngest", "StreamRunResult", "StreamPipeline"]


@dataclass(frozen=True)
class IngestStats:
    """Delivery-side accounting of one node's chunk feed.

    Attributes
    ----------
    n_chunks:
        Chunks delivered and ingested.
    n_dropped_chunks:
        Chunks the driver lost (sequence gaps); their samples were
        zero-filled so the hop clock stayed aligned.
    n_late_chunks:
        Delivered chunks whose delivery latency exceeded the tolerance.
    dropped_samples:
        Samples overwritten by ring overruns (consumer fell behind).
    n_stale_chunks:
        Delivered chunks discarded because their sequence number was
        already ingested or zero-filled past — duplicates, or reordered
        chunks arriving after their gap was filled.  Ingesting them would
        shift every later hop off the capture grid.
    """

    n_chunks: int
    n_dropped_chunks: int
    n_late_chunks: int
    dropped_samples: int
    n_stale_chunks: int = 0


class NodeIngest:
    """Chunk-to-frame ingestion for one node: source → ring → hop blocks.

    Parameters
    ----------
    source:
        The node's chunk feed.
    frame_length, hop_length:
        Analysis-frame geometry, samples.
    capacity:
        Ring capacity per channel; defaults to twice the working set of one
        hop batch of 64 hops (ample for lock-step simulation, while still
        O(frame) — independent of stream length).
    late_tolerance_s:
        Delivery latency above which a chunk counts as late; defaults to
        one hop period at the source rate.
    ring:
        An externally owned ring to ingest into instead of allocating one —
        how the process-parallel runtime injects a
        :class:`~repro.stream.ring.SharedRingBuffer` so the pushed audio
        lands directly in the shard worker's shared pages.  ``capacity`` is
        ignored when given.
    tap:
        Optional :class:`~repro.stream.tap.SampleTap` mirroring every
        ingested sample (including drop zero-fill, so absolute indices track
        the nominal capture clock).  This is the live-stream audio source
        for streamed multilateration: fusion reads detection windows out of
        the tap instead of a pre-rendered full recording.
    """

    def __init__(
        self,
        source: ChunkSource,
        frame_length: int,
        hop_length: int,
        *,
        capacity: int | None = None,
        late_tolerance_s: float | None = None,
        ring: RingBuffer | None = None,
        tap: SampleTap | None = None,
    ) -> None:
        self.source = source
        self.frame_length = int(frame_length)
        self.hop_length = int(hop_length)
        if capacity is None:
            capacity = 2 * (self.frame_length + 64 * self.hop_length)
        if ring is not None and ring.n_channels != source.n_channels:
            raise ValueError(
                f"injected ring has {ring.n_channels} channels, "
                f"source has {source.n_channels}"
            )
        self.ring = ring if ring is not None else RingBuffer(source.n_channels, capacity)
        if tap is not None and tap.n_channels != source.n_channels:
            raise ValueError(
                f"tap has {tap.n_channels} channels, source has {source.n_channels}"
            )
        self.tap = tap
        if late_tolerance_s is None:
            late_tolerance_s = self.hop_length / source.fs
        self.late_tolerance_s = float(late_tolerance_s)
        self._pending = None  # one-chunk lookahead for time-gated pulls
        self._exhausted = False
        self._next_seq = 0
        self._chunk_samples: int | None = None
        self.n_chunks = 0
        self.n_dropped_chunks = 0
        self.n_late_chunks = 0
        self.n_stale_chunks = 0

    @property
    def exhausted(self) -> bool:
        """Whether the source ended and the lookahead is empty."""
        return self._exhausted and self._pending is None

    @property
    def stats(self) -> IngestStats:
        """Current delivery accounting."""
        return IngestStats(
            n_chunks=self.n_chunks,
            n_dropped_chunks=self.n_dropped_chunks,
            n_late_chunks=self.n_late_chunks,
            dropped_samples=self.ring.dropped_samples,
            n_stale_chunks=self.n_stale_chunks,
        )

    def pull(self, until_s: float | None = None) -> int:
        """Ingest every chunk *delivered* by ``until_s`` (all remaining when
        ``None``); returns the number of chunks ingested.

        Delivery is gated on arrival, not capture: a jittered chunk whose
        ``arrival_s`` lies past the engine time stays pending, stalling its
        frames to later steps exactly as a slow driver would.  Sequence gaps
        are zero-filled — a dropped chunk must not slip the hop grid of
        everything after it — and counted; delivery latency beyond the
        tolerance marks a chunk late.  A chunk whose sequence number is
        behind the grid (a duplicate, or one reordered past its zero-filled
        slot) is discarded and counted as stale, for the same reason.
        """
        ingested = 0
        while True:
            if self._pending is None:
                if self._exhausted:
                    break
                self._pending = self.source.next_chunk()
                if self._pending is None:
                    self._exhausted = True
                    break
            chunk = self._pending
            if until_s is not None and max(chunk.t, chunk.arrival_s) > until_s:
                break  # not yet delivered at this engine time
            self._pending = None
            if chunk.seq < self._next_seq:
                self.n_stale_chunks += 1
                continue
            if self._chunk_samples is None:
                self._chunk_samples = getattr(
                    self.source, "chunk_samples", chunk.data.shape[1]
                )
            if chunk.seq > self._next_seq:
                gap = chunk.seq - self._next_seq
                self.n_dropped_chunks += gap
                fill = np.zeros((self.ring.n_channels, gap * self._chunk_samples))
                self.ring.push(fill)
                if self.tap is not None:
                    self.tap.extend(fill)
            self._next_seq = chunk.seq + 1
            if chunk.arrival_s - chunk.t > self.late_tolerance_s:
                self.n_late_chunks += 1
            self.ring.push(chunk.data)
            if self.tap is not None:
                self.tap.extend(chunk.data)
            self.n_chunks += 1
            ingested += 1
        return ingested

    def pop_frames(self, max_frames: int | None = None) -> np.ndarray:
        """Completed hop frames, ``(T, n_channels, frame_length)``."""
        return self.ring.pop_frames(
            self.frame_length, self.hop_length, max_frames=max_frames
        )


@dataclass(frozen=True)
class StreamRunResult:
    """Everything one :meth:`StreamPipeline.run` produced.

    Attributes
    ----------
    results:
        The per-hop :class:`FrameResult` stream (equivalent to the batched
        engine on the same audio).
    latency:
        Per-hop attributed processing latency vs the hop deadline;
        ``latency.realtime`` is the paper's Sec. II criterion.
    ingest:
        Delivery-side accounting (late/dropped chunks, ring overruns).
    n_steps:
        Engine steps taken (hop batches).
    """

    results: list[FrameResult]
    latency: LatencyStats
    ingest: IngestStats
    n_steps: int


class StreamPipeline:
    """Real-time ingest driver of one perception pipeline.

    Construct like :class:`~repro.core.batch.BlockPipeline` (positions +
    config, or wrap an existing :class:`AcousticPerceptionPipeline` to share
    its components and stream state), attach a chunk source, and call
    :meth:`step` on the hop clock — or :meth:`run` to drain a simulated
    source in lock step.

    Parameters
    ----------
    hop_batch:
        Hops processed per engine step.  1 minimizes latency (one kernel
        step per hop); larger batches amortize the per-step Python cost
        exactly like the offline chunking does, at ``hop_batch`` hops of
        extra output delay.
    """

    def __init__(
        self,
        mic_positions: np.ndarray | AcousticPerceptionPipeline,
        config: PipelineConfig | None = None,
        *,
        detector: Module | None = None,
        localizer=None,
        hop_batch: int = 8,
    ) -> None:
        if hop_batch < 1:
            raise ValueError("hop_batch must be >= 1")
        if isinstance(mic_positions, AcousticPerceptionPipeline):
            if config is not None or detector is not None or localizer is not None:
                raise ValueError(
                    "config/detector/localizer are taken from the wrapped pipeline; "
                    "pass them only with raw mic positions"
                )
            self.pipeline = mic_positions
        else:
            self.pipeline = AcousticPerceptionPipeline(
                mic_positions, config, detector=detector, localizer=localizer
            )
        self.hop_batch = int(hop_batch)
        self.ingest: NodeIngest | None = None
        self.monitor: LatencyMonitor | None = None
        self._t = 0.0

    # ------------------------------------------------------------------ API

    def attach(
        self,
        source: ChunkSource,
        *,
        ring_capacity: int | None = None,
        late_tolerance_s: float | None = None,
    ) -> None:
        """Bind a chunk source and reset the engine clock.

        The default ring holds two steps' working set; for sources with
        delivery jitter, size ``ring_capacity`` to at least
        ``frame_length + expected_stall_s * fs`` so a burst after a stall
        does not overflow (overflows drop the oldest samples and are
        counted, not raised).
        """
        cfg = self.pipeline.config
        if source.n_channels != self.pipeline.positions.shape[0]:
            raise ValueError(
                f"source has {source.n_channels} channels, "
                f"array has {self.pipeline.positions.shape[0]} mics"
            )
        if source.fs != cfg.fs:
            raise ValueError(f"source fs {source.fs} does not match pipeline fs {cfg.fs}")
        if ring_capacity is None:
            ring_capacity = 2 * (cfg.frame_length + self.hop_batch * cfg.hop_length)
        self.ingest = NodeIngest(
            source,
            cfg.frame_length,
            cfg.hop_length,
            capacity=ring_capacity,
            late_tolerance_s=late_tolerance_s,
        )
        self.monitor = LatencyMonitor(cfg.frame_period_s)
        self._t = 0.0

    @property
    def done(self) -> bool:
        """Whether the source ended and every buffered hop was processed."""
        return (
            self.ingest is not None
            and self.ingest.exhausted
            and self.ingest.ring.available < self.pipeline.config.frame_length
        )

    def step(self) -> list[FrameResult]:
        """Advance the engine clock by one hop batch and process what's due.

        Pulls the chunks *delivered* by the new engine time and runs every
        completed frame through the shared hop kernel with this pipeline's
        tracker/refinement state.  In the steady state that is exactly
        ``hop_batch`` frames; after a delivery stall the whole backlog
        drains in one step (the engine catches up rather than letting a
        bounded ring overflow).  Returns the new :class:`FrameResult` rows
        (possibly empty while the first frame is still filling or a chunk
        is late).
        """
        if self.ingest is None:
            raise RuntimeError("no source attached")
        cfg = self.pipeline.config
        self._t += self.hop_batch * cfg.frame_period_s
        self.ingest.pull(None if self.ingest._exhausted else self._t)
        frames = self.ingest.pop_frames()
        if frames.shape[0] == 0:
            return []
        t0 = time.perf_counter()
        pipeline = self.pipeline
        out = pipeline.hop_kernel.step(
            frames,
            tracker=pipeline.tracker,
            state=pipeline.refine_state,
            start_index=pipeline._frame_index,
        )
        pipeline._frame_index += frames.shape[0]
        # Per-hop attributed latency vs the hop deadline (Sec. II).
        self.monitor.record((time.perf_counter() - t0) / frames.shape[0])
        return out

    def run(self, source: ChunkSource | None = None) -> StreamRunResult:
        """Drain a source in lock step; returns results + accounting."""
        if source is not None:
            self.attach(source)
        if self.ingest is None:
            raise RuntimeError("no source attached")
        results: list[FrameResult] = []
        n_steps = 0
        while not self.done:
            results.extend(self.step())
            n_steps += 1
        return StreamRunResult(
            results=results,
            latency=self.monitor.stats(),
            ingest=self.ingest.stats,
            n_steps=n_steps,
        )

    def reset(self) -> None:
        """Reset the wrapped pipeline's stream state (tracker, counter)."""
        self.pipeline.reset()
