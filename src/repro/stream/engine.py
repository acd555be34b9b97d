"""Hop-clocked real-time ingest for a single array node.

:class:`NodeIngest` turns a chunk source into hop frames: chunks feed a
fixed-capacity :class:`~repro.stream.ring.RingBuffer` as they are
*delivered*, and completed frames pop out on the hop grid of the capture
clock.  The fleet session (:class:`~repro.stream.parallel.
ParallelFleetStream`) runs one per node and hands the frames to the shared
:class:`~repro.core.hop.HopKernel`; driving ``pull(t)``, ``pop_frames()``
and ``hop_kernel.step(...)`` on the hop clock yields the result stream of
:meth:`~repro.core.batch.process_signal_batched` over the same audio —
ingest only changes *when* hops are processed, never *how* — while
bounding memory (O(frame) per node).

Ingest accounting follows the real-time contract of the paper's Sec. II:
late chunks (delivered after their capture deadline), dropped chunks
(sequence-number gaps, zero-filled to keep the hop clock aligned),
malformed chunks (zero-filled the same way) and ring overruns are counted
per node and surfaced in :class:`IngestStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stream.ring import RingBuffer
from repro.stream.source import ChunkSource
from repro.stream.tap import SampleTap

__all__ = ["IngestStats", "NodeIngest"]


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
    n_malformed_chunks:
        Delivered chunks discarded because they are not a 2-D real
        integer or floating array with the node's channel count; like a
        dropped chunk, each one's slot was zero-filled.
    """

    n_chunks: int
    n_dropped_chunks: int
    n_late_chunks: int
    dropped_samples: int
    n_stale_chunks: int = 0
    n_malformed_chunks: int = 0


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
        self.n_malformed_chunks = 0

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
            n_malformed_chunks=self.n_malformed_chunks,
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
        slot) is discarded and counted as stale, for the same reason.  A
        malformed chunk (wrong shape, channel count or dtype) is checked
        before it touches any state, counted, and zero-filled like a
        dropped one: a bad driver packet must not end the session.
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
            malformed = self._malformed(chunk.data)
            if self._chunk_samples is None:
                self._chunk_samples = getattr(self.source, "chunk_samples", None)
            if self._chunk_samples is None and not malformed:
                self._chunk_samples = chunk.data.shape[1]
            gap = chunk.seq - self._next_seq
            self.n_dropped_chunks += gap
            self.n_malformed_chunks += malformed
            # Zero-fill the slots of the dropped chunks and of a malformed
            # one (a slot has no known size before the first good chunk of
            # a feed that does not declare ``chunk_samples``).
            n_fill = (gap + malformed) * (self._chunk_samples or 0)
            if n_fill:
                fill = np.zeros((self.ring.n_channels, n_fill))
                self.ring.push(fill)
                if self.tap is not None:
                    self.tap.extend(fill)
            self._next_seq = chunk.seq + 1
            if malformed:
                continue
            if chunk.arrival_s - chunk.t > self.late_tolerance_s:
                self.n_late_chunks += 1
            self.ring.push(chunk.data)
            if self.tap is not None:
                self.tap.extend(chunk.data)
            self.n_chunks += 1
            ingested += 1
        return ingested

    def _malformed(self, data) -> bool:
        """Whether a chunk's payload is not a 2-D real integer or floating
        array with this node's channel count."""
        return not (
            isinstance(data, np.ndarray)
            and data.ndim == 2
            and data.shape[0] == self.ring.n_channels
            and data.dtype.kind in "iuf"
        )

    def pop_frames(self, max_frames: int | None = None) -> np.ndarray:
        """Completed hop frames, ``(T, n_channels, frame_length)``."""
        return self.ring.pop_frames(
            self.frame_length, self.hop_length, max_frames=max_frames
        )
