"""The fleet session runtime: shard runners in-process or in forked workers.

:class:`ParallelFleetStream` (also exported as :class:`repro.fleet.
FleetStream`) is the one live session behind
:meth:`~repro.fleet.scheduler.FleetScheduler.stream` and every city
corridor.  Each shard's kernel pass is a :class:`_ShardRunner` — the same
object and the same code whether it runs in the main process
(``workers=0``), in a private forked :class:`~repro.stream.pool.
ShardWorkerPool`, or registered on a pool shared with other sessions.  The
batched kernels release the GIL inside NumPy but the per-hop Python
(priming, tracking, refinement bookkeeping) serializes, which is what the
worker processes are for:

- **audio crosses the process boundary zero-copy.**  The main process
  ingests every node's chunk feed into a
  :class:`~repro.stream.ring.SharedRingBuffer` whose pages live in
  ``multiprocessing.shared_memory``; the worker pops hop frames straight
  out of the same pages.  Only the int64 ring header (head/size/drop
  counters) and the per-hop :class:`~repro.core.pipeline.FrameResult` rows
  (a few floats each) move over the pipe — never samples.
- **pipelines pickle once per shard, at registration.**  Every pooled
  session registers its shard runners on the pool's workers: the built
  pipelines (detector weights, steering/interpolation tensors,
  coarse-to-fine pyramids) cross the pipe once when the session opens,
  and never again.
- **fusion stays in the main process.**  Runners return per-hop
  localization results; the main process merges them in deterministic
  shard order and steps the incremental
  :class:`~repro.fleet.fusion.FusionEngine`, so fused tracks are
  **bit-identical** at every worker count and match the offline
  :meth:`~repro.fleet.scheduler.FleetScheduler.run` pass.  Without sample
  taps they are also identical under every batch schedule (the hop-batch
  invariance contract makes the interleaving immaterial).  With taps
  (``tap_window_s``) they are not: streamed multilateration clamps its
  window to the audio already ingested, which runs up to a hop batch
  ahead of the fusion frontier, so an adaptive pacer's batch choices can
  change which fixes it finds.

Single-producer/single-consumer turn-taking makes the rings lock-free: the
main process pushes a shard's chunks *before* sending its step command and
the worker pops *before* replying, so the two sides never touch a ring
concurrently.

Each shard is governed by a :class:`~repro.stream.pacer.Pacer`.  Without
a caller-supplied :class:`~repro.stream.pacer.PacerConfig` it holds the
batch at exactly ``hop_batch``; with one, hop-budget overruns widen that
shard's effective hop batch (catch up by amortizing, not by ring drops),
headroom shrinks it back, and ``pace=True`` replays at capture speed.
Every emitted :class:`~repro.fleet.fusion.TrackUpdate` gets a
:class:`~repro.stream.budget.StageBudget` decomposing its detect-to-update
latency across capture → delivery → ingest → kernel → fusion → emit, kept
in ``stage_budgets`` beside ``updates``.

The worker processes themselves live in :class:`~repro.stream.pool.
ShardWorkerPool`, and a session reaches them one way only: it *registers*
its runners.  A session opened with ``workers=N`` forks a private pool
and registers on it; a session opened with ``pool=`` registers on an
existing shared pool — the multi-corridor mode :mod:`repro.city` builds
on.  Either way each step reply carries the runner's checkpoint, and a
shard that moves to another worker (a steal, a migration, a respawn after
a crash) resumes from it on its next step there.  A dead worker surfaces
as a :class:`~repro.stream.pool.WorkerCrashed` naming the shards it
owned; after the pool's :meth:`~repro.stream.pool.ShardWorkerPool.
recover` the pending :meth:`ParallelFleetStream.step_end` is retried.
The :meth:`~ParallelFleetStream.step_begin` /
:meth:`~ParallelFleetStream.step_end` split lets a supervisor overlap many
sessions' kernel passes on the same workers.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.acoustics.geometry import SPEED_OF_SOUND
from repro.core.pipeline import FrameResult
from repro.core.realtime import LatencyMonitor, LatencyStats, latency_stats_ms, monitor_stats
from repro.fleet.fusion import (
    FusionConfig,
    FusedTrack,
    FusionEngine,
    TrackUpdate,
    detection_from_result,
)
from repro.fleet.scheduler import FleetRunResult, FleetScheduler, FleetStepResult, NodeRunStats
from repro.ssl.refine import RefineState
from repro.ssl.tracking import KalmanDoaTracker
from repro.stream.budget import StageBudget, summarize_budgets
from repro.stream.engine import IngestStats, NodeIngest
from repro.stream.pacer import Pacer, PacerConfig, PacerStats, SharedCapacity
from repro.stream.pool import SessionStats, ShardWorkerPool, WorkerCrashed
from repro.stream.ring import RingBuffer, SharedRingBuffer
from repro.stream.source import ChunkSource
from repro.stream.tap import SampleTap, mlat_tap_capacity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.batch import BlockPipeline

__all__ = [
    "HopReply",
    "parallel_supported",
    "ParallelFleetStream",
    "ParallelStreamResult",
    "WorkerCrashed",
]


def parallel_supported() -> str | None:
    """Why process-parallel execution is unavailable here, or ``None``.

    Needs the ``fork`` start method (the pool forks its workers) and a
    working ``multiprocessing.shared_memory`` (some sandboxes mount no
    /dev/shm).
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return "the 'fork' start method is unavailable on this platform"
    try:
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(create=True, size=8)
        seg.close()
        seg.unlink()
    except Exception as exc:  # pragma: no cover - environment specific
        return f"multiprocessing.shared_memory is unavailable: {exc}"
    return None


@dataclass(frozen=True)
class HopReply:
    """One shard's kernel pass: which nodes produced frames, their rows,
    and the wall time the pass took (pop + kernel, seconds).

    What :meth:`_ShardRunner.step` returns, in-process or pickled back over
    a pool worker's pipe.
    """

    nids: tuple[str, ...]
    results: dict[str, list[FrameResult]]
    kernel_s: float


class _ShardRunner:
    """The kernel side of one shard: rings in, FrameResults out.

    Runs identically in-process (``workers=0``) and inside a forked worker
    (``workers>=1``) — the same object, the same code path — which is what
    makes the worker-count equivalence property testable at all.  Holds the
    shard's per-node stream state (tracker, refinement, frame counter) next
    to the pipelines so a forked worker owns everything its kernel pass
    mutates.
    """

    def __init__(
        self,
        nids: list[str],
        pipelines: "dict[str, BlockPipeline]",
        rings: dict[str, RingBuffer],
        frame_length: int,
        hop_length: int,
    ) -> None:
        self.nids = list(nids)
        self.pipelines = {nid: pipelines[nid] for nid in self.nids}
        self.rings = {nid: rings[nid] for nid in self.nids}
        self.frame_length = int(frame_length)
        self.hop_length = int(hop_length)
        self.trackers = {nid: KalmanDoaTracker() for nid in self.nids}
        self.refine = {nid: RefineState() for nid in self.nids}
        self.counts = {nid: 0 for nid in self.nids}

    def step(self) -> HopReply:
        """Pop every completed frame and run the shard's kernel pass.

        Steady state pops one hop batch per node; after a stall the whole
        backlog drains in one pass (catch up, don't let the bounded ring
        overflow).
        """
        t0 = time.perf_counter()
        blocks: list[np.ndarray] = []
        nids: list[str] = []
        for nid in self.nids:
            frames = self.rings[nid].pop_frames(self.frame_length, self.hop_length)
            if frames.shape[0]:
                blocks.append(frames)
                nids.append(nid)
        if not nids:
            return HopReply((), {}, time.perf_counter() - t0)
        pipes = [self.pipelines[nid] for nid in nids]
        shared = all(p.pipeline.localizer is pipes[0].pipeline.localizer for p in pipes)
        if shared:
            # One kernel pass for the whole shard: a single detector forward
            # and localization pass, per-node refinement and tracking replay.
            outs = pipes[0].pipeline.hop_kernel.run_clips(
                blocks,
                [self.trackers[nid] for nid in nids],
                [self.refine[nid] for nid in nids],
                [self.counts[nid] for nid in nids],
            )
        else:
            outs = [
                pipe.pipeline.hop_kernel.step(
                    block,
                    tracker=self.trackers[nid],
                    state=self.refine[nid],
                    start_index=self.counts[nid],
                )
                for nid, pipe, block in zip(nids, pipes, blocks)
            ]
        results: dict[str, list[FrameResult]] = {}
        for nid, out in zip(nids, outs):
            self.counts[nid] += len(out)
            results[nid] = out
        return HopReply(tuple(nids), results, time.perf_counter() - t0)

    def state_dict(self) -> dict:
        """The shard's mutable stream state (its checkpoint).

        Small by construction — scalar Kalman trackers, refinement window
        bookkeeping, frame counters and each node pipeline's
        detection-density EMA (which decides cache priming, so a resumed
        shard primes exactly where the original would have), under 2 KB
        pickled — so a pool worker can afford to ship it with every step
        reply, and the pool can send it with the shard's next step to
        whichever worker runs that step (after a steal, a migration or a
        crash).  The rings are deliberately *not* part of it: their
        headers live in shared memory owned by the main process and
        survive a worker crash on their own.
        """
        return {
            "trackers": self.trackers,
            "refine": self.refine,
            "counts": dict(self.counts),
            "dense_ema": {nid: pipe.pipeline._dense_ema for nid, pipe in self.pipelines.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        """Load :meth:`state_dict` output (on a worker that did not run the
        shard's previous step)."""
        self.trackers = dict(state["trackers"])
        self.refine = dict(state["refine"])
        self.counts = dict(state["counts"])
        for nid, ema in state["dense_ema"].items():
            self.pipelines[nid].pipeline._dense_ema = ema


@dataclass(frozen=True)
class ParallelStreamResult:
    """Everything one :meth:`ParallelFleetStream.run` session produced.

    ``node_results``/``node_stats``/``fleet_latency``/``shards`` mirror
    :class:`~repro.fleet.scheduler.FleetRunResult` (so
    :func:`~repro.fleet.report.fleet_report` consumes a finished session
    via :meth:`as_run_result`); on top of those the session adds the fused
    ``tracks``, the full ``updates`` feed, the per-hop ``hop_latency``
    distribution (the Sec. II real-time criterion: one fleet step must fit
    the hop deadline), per-node delivery accounting in ``ingest``, the
    worker count, per-shard pacer accounting and the per-update stage
    budgets.

    Attributes
    ----------
    workers:
        Worker processes used (0 = the in-process reference path).
    pacer_stats:
        ``shard index -> PacerStats``: overruns, widenings, shrinks and the
        raw per-step records (feed them to
        :class:`~repro.core.alerts.OverrunPolicy` for debounced alerts).
    stage_budgets:
        One :class:`StageBudget` per emitted update, in emission order.
    detect_to_update:
        Distribution of ``detect_to_update_ms`` vs the nominal budget of
        one hop batch of delivery delay plus one hop of processing.
    tap_misses:
        Per-node count of :class:`~repro.stream.tap.SampleTap` reads that
        returned ``None`` because the window had already been evicted
        (streamed multilateration asked for audio older than the tap
        keeps — a sizing signal, not an error).
    n_steals, n_migrations, queue_depth_p95:
        Pool-scheduling accounting for this session: shards stolen by idle
        workers, total shard migrations (steals + forced), and the p95 of
        the pool backlog sampled at each dispatch.  All zero in-process.
    """

    node_results: dict[str, list[FrameResult]]
    node_stats: dict[str, NodeRunStats]
    fleet_latency: LatencyStats
    shards: list[list[str]]
    tracks: list[FusedTrack]
    updates: list[TrackUpdate]
    hop_latency: LatencyStats
    ingest: dict[str, IngestStats]
    n_steps: int
    workers: int
    hop_batch: int
    pacer_stats: dict[int, PacerStats]
    stage_budgets: tuple[StageBudget, ...] = field(default=())
    detect_to_update: LatencyStats | None = None
    tap_misses: dict[str, int] = field(default_factory=dict)
    n_steals: int = 0
    n_migrations: int = 0
    queue_depth_p95: float = 0.0

    @property
    def realtime(self) -> bool:
        """Whether the p95 per-hop fleet step met the hop deadline."""
        return self.hop_latency.realtime

    def as_run_result(self) -> FleetRunResult:
        """The offline-shaped view (for :func:`~repro.fleet.report.fleet_report`)."""
        return FleetRunResult(
            node_results=self.node_results,
            node_stats=self.node_stats,
            fleet_latency=self.fleet_latency,
            shards=self.shards,
        )

    def stage_summary(self) -> dict[str, tuple[float, float]]:
        """Per-stage ``(p50_ms, p95_ms)`` over every emitted update."""
        return summarize_budgets(self.stage_budgets)

    def node_pacer_stats(self) -> dict[str, PacerStats]:
        """Each node's shard pacer accounting (nodes share their shard's)."""
        return {
            nid: self.pacer_stats[si]
            for si, shard in enumerate(self.shards)
            for nid in shard
            if si in self.pacer_stats
        }


class ParallelFleetStream:
    """A live hop-clocked fleet session over a :class:`FleetScheduler`.

    Construction wires, per node, a :class:`~repro.stream.engine.NodeIngest`
    (chunk source → ring buffer → hop blocks), one :class:`_ShardRunner`
    per shard holding the stream-owned tracker and refinement state, one
    :class:`~repro.stream.pacer.Pacer` per shard, and one incremental
    :class:`~repro.fleet.fusion.FusionEngine` for the corridor.  Each
    :meth:`step` then advances every shard by its pacer's hop batch:

    1. every shard pulls its nodes' due chunks and runs the newly complete
       hop blocks through the shard-lead pipeline's shared
       :class:`~repro.core.hop.HopKernel` — in-process or in the shard's
       worker;
    2. the fusion frontier — frames every still-active node has finished —
       advances, and each frontier frame is fused immediately
       (associate/update/coast), emitting live
       :class:`~repro.fleet.fusion.TrackUpdate` events, each with its
       :class:`~repro.stream.budget.StageBudget` in ``stage_budgets``;
    3. the step's wall time is recorded against the hop deadline.

    On the same audio (no drops, ample rings) the per-node result streams
    and fused tracks equal the offline :meth:`FleetScheduler.run` +
    :func:`~repro.fleet.fusion.fuse_fleet` pass at any worker count, and
    at any batch schedule unless ``tap_window_s`` turns on streamed
    multilateration (its window depends on how far ingest has run ahead
    of the frontier, i.e. on the batch).

    Parameters
    ----------
    scheduler:
        The fleet (its pipelines are pickled to the workers when the
        session opens, so construct and optionally warm it *before*
        opening the session).
    workers:
        Worker processes; 0 runs every shard in-process through the exact
        same :class:`_ShardRunner` code (the determinism reference), >= 1
        forks a *private* :class:`~repro.stream.pool.ShardWorkerPool`
        without stealing and registers the shard runners on it, one per
        worker in turn (pipelines pickle once per shard).  Clamped to the
        shard count.  Ignored when ``pool`` is given.
    pool:
        An existing :class:`~repro.stream.pool.ShardWorkerPool` to *join*
        instead of forking a private one: the session registers its shard
        runners on the pool's workers and releases them on :meth:`close`.
        This is how :class:`repro.city.CitySupervisor` runs many sessions
        on one set of workers.  Private or shared, registered runners
        checkpoint their state every step, so a shard can resume on another
        worker after a steal, a migration or a worker death.
    session_id:
        Name registered on the shared pool (default ``"fleet"``); must be
        unique among the pool's live sessions.
    capacity:
        Optional :class:`~repro.stream.pacer.SharedCapacity` the session's
        pacers judge their budgets against (shards on an oversubscribed
        pool widen earlier).  The session acquires one slot per shard
        while open.
    hop_batch:
        Hops every shard advances per step (the starting batch when
        ``pacer`` adapts).
    pacer:
        Per-shard backpressure policy (shared config, independent state).
        ``None`` holds every shard at exactly ``hop_batch`` hops per step
        (``PacerConfig(min_batch=hop_batch, max_batch=hop_batch)``); a
        caller-supplied :class:`PacerConfig` opts into adaptive batching
        (widen on overrun, up to ``8 x hop_batch`` unless ``max_batch``
        says otherwise, shrink on headroom) and/or real-time pacing.
    fusion_config, recordings:
        Fusion settings, and whole per-node recordings that enable the
        wide-baseline multilateration upgrade exactly as with
        :func:`~repro.fleet.fusion.fuse_fleet`.
    ring_capacity, late_tolerance_s:
        Per-node ingest ring size (default: covers the pacer's *maximum*
        batch, so an adaptively widened step never overflows) and late-chunk
        tolerance (see :class:`~repro.stream.engine.NodeIngest`).
    tap_window_s:
        Enables streamed multilateration from rolling per-node sample taps
        of this many seconds, populated during ingest, so live sessions get
        wide-baseline fixes without any pre-rendered ``recordings``.
    clock, sleep:
        Injected monotonic clock / sleep for the per-shard pacers (tests
        drive paced sessions on a fake clock; production uses the real
        ones).

    Use as a context manager (or call :meth:`close`) so worker processes
    and shared-memory segments are torn down deterministically.
    """

    def __init__(
        self,
        scheduler: FleetScheduler,
        sources: Mapping[str, ChunkSource],
        *,
        hop_batch: int = 8,
        workers: int = 0,
        pool: ShardWorkerPool | None = None,
        session_id: str | None = None,
        capacity: SharedCapacity | None = None,
        pacer: PacerConfig | None = None,
        fusion_config: FusionConfig | None = None,
        recordings: Mapping[str, np.ndarray] | None = None,
        ring_capacity: int | None = None,
        late_tolerance_s: float | None = None,
        tap_window_s: float | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        if hop_batch < 1:
            raise ValueError("hop_batch must be >= 1")
        if workers < 0:
            raise ValueError("workers must be >= 0")
        missing = [n.node_id for n in scheduler.nodes if n.node_id not in sources]
        if missing:
            raise ValueError(f"missing sources for nodes: {missing}")
        cfg = scheduler.config
        self.scheduler = scheduler
        self.hop_batch = int(hop_batch)
        self.session_id = session_id if session_id is not None else "fleet"
        if pool is not None:
            self.workers = pool.workers
        else:
            self.workers = min(int(workers), len(scheduler.shards))
        if self.workers:
            reason = parallel_supported()
            if reason is not None:
                raise RuntimeError(f"process-parallel execution unavailable: {reason}")
        self.node_order = [nid for shard in scheduler.shards for nid in shard]
        self._nodes = {n.node_id: n for n in scheduler.nodes}
        self._origins = {nid: n.position[:2].copy() for nid, n in self._nodes.items()}
        pacer_cfg = pacer or PacerConfig(min_batch=self.hop_batch, max_batch=self.hop_batch)
        max_batch = pacer_cfg.max_batch
        if max_batch is None:
            max_batch = max(8 * self.hop_batch, pacer_cfg.min_batch)
        if ring_capacity is None:
            # Cover the widest adaptive batch: a fully widened catch-up step
            # must fit without overwriting unread samples.
            ring_capacity = 2 * (cfg.frame_length + max_batch * cfg.hop_length)
        fcfg = fusion_config or FusionConfig()
        self.taps: dict[str, SampleTap] | None = None
        tap_capacity = 0
        if tap_window_s is not None:
            self.taps = {}
            tap_capacity = mlat_tap_capacity(
                cfg.fs,
                frame_length=cfg.frame_length,
                hop_length=cfg.hop_length,
                hop_batch=max_batch,  # taps must survive a fully widened step
                mlat_block=fcfg.mlat_block,
                window_s=tap_window_s,
            )
        self._shared_rings = self.workers > 0
        self._rings: dict[str, RingBuffer] = {}
        self._ingest: dict[str, NodeIngest] = {}
        for node in scheduler.nodes:
            source = sources[node.node_id]
            if source.n_channels != node.array.n_mics:
                raise ValueError(
                    f"source for {node.node_id!r} has {source.n_channels} channels, "
                    f"node has {node.array.n_mics} mics"
                )
            if source.fs != cfg.fs:
                raise ValueError(
                    f"source fs {source.fs} does not match pipeline fs {cfg.fs}"
                )
            ring: RingBuffer
            if self._shared_rings:
                ring = SharedRingBuffer(node.array.n_mics, ring_capacity)
            else:
                ring = RingBuffer(node.array.n_mics, ring_capacity)
            self._rings[node.node_id] = ring
            tap = None
            if self.taps is not None:
                # Taps live main-process-side (fusion reads them there), so
                # they stay heap-backed even when the rings are shared.
                tap = SampleTap(node.array.n_mics, tap_capacity)
                self.taps[node.node_id] = tap
            self._ingest[node.node_id] = NodeIngest(
                source,
                cfg.frame_length,
                cfg.hop_length,
                late_tolerance_s=late_tolerance_s,
                ring=ring,
                tap=tap,
            )
        # One runner per shard: the kernel-side state a worker owns.
        self._runners = [
            _ShardRunner(
                shard,
                scheduler.pipelines,
                self._rings,
                cfg.frame_length,
                cfg.hop_length,
            )
            for shard in scheduler.shards
        ]
        self._pacers = [
            Pacer(
                cfg.frame_period_s,
                hop_batch=self.hop_batch,
                config=pacer_cfg,
                capacity=capacity,
                clock=clock,
                sleep=sleep,
            )
            for _ in scheduler.shards
        ]
        self._capacity = capacity
        if capacity is not None:
            capacity.acquire(len(scheduler.shards))
        self._t = [0.0 for _ in scheduler.shards]
        # Main-side mirror of every node's result stream (workers report
        # rows back each step; fusion and `done` read this copy).
        self._results: dict[str, list[FrameResult]] = {nid: [] for nid in self._nodes}
        # Budget rows of the frames not fused yet: frame -> (delivery_ms,
        # ingest_ms, kernel_ms), each the max over the nodes that reported
        # the frame (an update waits for its slowest node).
        self._frame_cost: dict[int, tuple[float, float, float]] = {}
        self.fusion = FusionEngine(
            scheduler.nodes,
            fcfg,
            cfg.frame_period_s,
            recordings=recordings,
            fs=cfg.fs if (recordings is not None or self.taps is not None) else None,
            hop_length=cfg.hop_length,
            c=SPEED_OF_SOUND,
            taps=self.taps,
        )
        self.updates: list[TrackUpdate] = []
        self.stage_budgets: list[StageBudget] = []
        self.hop_monitor = LatencyMonitor(cfg.frame_period_s)
        self._node_monitors = {nid: LatencyMonitor(cfg.frame_period_s) for nid in self._nodes}
        self._wall = 0.0
        self._fused_upto = 0
        self._n_steps = 0
        self._closed = False
        self._pending: tuple[float, list[float]] | None = None
        self._owns_pool = pool is None and self.workers > 0
        if self._owns_pool:
            # A fresh pool places shard k on worker k % workers; without
            # stealing a lone session keeps that static spread.
            pool = ShardWorkerPool(self.workers, steal=False)
        self._pool: ShardWorkerPool | None = pool
        if pool is not None:
            # Ship each runner over the pipe: pipelines pickle once, rings
            # re-attach by segment name.
            pool.register(self.session_id, dict(enumerate(self._runners)))

    # ------------------------------------------------------------------ API

    @property
    def node_results(self) -> dict[str, list[FrameResult]]:
        """Per-node result streams accumulated so far (shard-major order)."""
        return {nid: self._results[nid] for nid in self.node_order}

    @property
    def done(self) -> bool:
        """Whether every source is exhausted, drained and fully fused."""
        if not all(self._node_done(nid) for nid in self._nodes):
            return False
        return self._fused_upto >= self._last_frame() + 1

    def batches(self) -> list[int]:
        """Each shard's current effective hop batch (pacer-governed)."""
        return [p.batch for p in self._pacers]

    # Read-in-place accessors: what finalize() summarizes, readable
    # mid-run without copying the session's history (health rollups poll
    # these between steps).

    @property
    def pacers(self) -> list[Pacer]:
        """Each shard's pacer, in shard order (read in place)."""
        return self._pacers

    def latency_monitors(self) -> list[LatencyMonitor]:
        """The per-hop fleet-step monitor, then each node's attributed
        per-hop processing monitor in ``node_order`` (read in place; see
        :func:`~repro.core.realtime.monitor_stats`)."""
        return [self.hop_monitor, *(self._node_monitors[nid] for nid in self.node_order)]

    @property
    def d2u_deadline_s(self) -> float:
        """Nominal end-to-end budget: one hop batch of delivery delay plus
        one hop of processing."""
        return (self.hop_batch + 1) * self.scheduler.config.frame_period_s

    def sched_stats(self) -> dict:
        """Pool-scheduling accounting of this session (zeros in-process)."""
        if self._pool is not None:
            return self._pool.session_stats(self.session_id)
        return SessionStats().summary()

    @property
    def tap_misses(self) -> dict[str, int]:
        """Per-node evicted sample-tap reads (empty without taps)."""
        if self.taps is None:
            return {}
        return {nid: tap.n_misses for nid, tap in self.taps.items()}

    def step(self) -> FleetStepResult:
        """Advance every shard by its pacer's hop batch and fuse the frontier.

        Per shard: advance that shard's stream clock, pull the chunks now
        delivered into its nodes' (shared) rings, then run the kernel pass —
        in-process or in the shard's worker.  Replies merge in shard-index
        order, the fusion frontier advances, and every emitted update gets
        its stage budget attached.

        Equivalent to :meth:`step_begin` + :meth:`step_end`; a supervisor
        multiplexing several sessions calls the two halves itself so every
        session's workers compute concurrently.
        """
        self.step_begin()
        return self.step_end()

    def step_begin(self) -> None:
        """Deliver this step's audio and dispatch the kernel commands.

        Advances every shard's stream clock, pulls the now-delivered chunks
        into the (shared) rings, and — when the session runs on a pool —
        enqueues the step commands and *returns without waiting*, so the
        caller can ``step_begin`` other sessions while the workers compute.
        Complete the step with :meth:`step_end`.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if self._pending is not None:
            raise RuntimeError("a step is already in flight (call step_end)")
        cfg = self.scheduler.config
        t0 = time.perf_counter()
        ingest_wall: list[float] = []
        for si, shard in enumerate(self.scheduler.shards):
            self._t[si] += self._pacers[si].batch * cfg.frame_period_s
            self._pacers[si].wait(self._t[si])
            t_ing = time.perf_counter()
            for nid in shard:
                self._ingest[nid].pull(self._t[si])
            ingest_wall.append(time.perf_counter() - t_ing)
        if self._pool is not None:
            self._pool.step_send(self.session_id)
        self._pending = (t0, ingest_wall)

    def step_end(self) -> FleetStepResult:
        """Collect the in-flight step's replies, fuse, and emit updates.

        Raises :class:`~repro.stream.pool.WorkerCrashed` when a worker
        owning one of this session's shards died; the caller may then call
        the pool's :meth:`~repro.stream.pool.ShardWorkerPool.recover` and
        retry — the step stays pending until a collect succeeds.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if self._pending is None:
            raise RuntimeError("no step in flight (call step_begin)")
        cfg = self.scheduler.config
        shard_list = self.scheduler.shards
        t0, ingest_wall = self._pending
        if self._pool is not None:
            replies = self._pool.step_collect(self.session_id)
        else:
            replies = {si: runner.step() for si, runner in enumerate(self._runners)}
        self._pending = None
        new_results: dict[str, list[FrameResult]] = {}
        hops_advanced = 0
        hop, frame_length, fs = cfg.hop_length, cfg.frame_length, cfg.fs
        frame_cost = self._frame_cost
        for si in range(len(shard_list)):
            rep = replies[si]
            shard_hops = max((len(out) for out in rep.results.values()), default=0)
            hops_advanced = max(hops_advanced, shard_hops)
            total_frames = sum(len(out) for out in rep.results.values())
            ingest_ms = ingest_wall[si] / total_frames * 1e3 if total_frames else 0.0
            kernel_ms = rep.kernel_s / total_frames * 1e3 if total_frames else 0.0
            t = self._t[si]
            for nid in rep.nids:
                out = rep.results[nid]
                base = len(self._results[nid])
                for f in range(base, base + len(out)):
                    # Stream-clock wait from capture-complete to this pop.
                    delivery_ms = max(0.0, t - (f * hop + frame_length) / fs) * 1e3
                    row = frame_cost.get(f)
                    if row is None:
                        frame_cost[f] = (delivery_ms, ingest_ms, kernel_ms)
                    else:
                        frame_cost[f] = (
                            max(row[0], delivery_ms),
                            max(row[1], ingest_ms),
                            max(row[2], kernel_ms),
                        )
                self._results[nid].extend(out)
                new_results[nid] = out
                # Per-hop attributed share of the shard's wall time.
                self._node_monitors[nid].record(
                    (ingest_wall[si] + rep.kernel_s) / total_frames
                )
            # Backpressure: judge the shard's step cost against the hops it
            # actually advanced; the pacer widens/shrinks its batch.
            self._pacers[si].observe(ingest_wall[si] + rep.kernel_s, shard_hops)
        fused_before = self._fused_upto
        t_fuse = time.perf_counter()
        updates = self._fuse_frontier()
        fusion_s = time.perf_counter() - t_fuse
        self.updates.extend(updates)
        self._attach_budgets(updates, fusion_s, range(fused_before, self._fused_upto))
        step_wall = time.perf_counter() - t0
        self._wall += step_wall
        if hops_advanced:
            self.hop_monitor.record(step_wall / hops_advanced)
        self._n_steps += 1
        return FleetStepResult(
            new_results=new_results,
            updates=updates,
            fused_upto=self._fused_upto,
            done=self.done,
        )

    def run(self) -> ParallelStreamResult:
        """Step until every source is drained; closes workers when done."""
        try:
            while not self.done:
                self.step()
            return self.finalize()
        finally:
            self.close()

    def finalize(self) -> ParallelStreamResult:
        """Summarize the session (callable mid-run for a snapshot)."""
        cfg = self.scheduler.config
        hop_latency, *node_latency = monitor_stats(self.latency_monitors())
        node_stats = {
            nid: NodeRunStats(
                node_id=nid,
                n_frames=len(self._results[nid]),
                n_detections=sum(r.detected for r in self._results[nid]),
                latency=latency,
            )
            for nid, latency in zip(self.node_order, node_latency)
        }
        deadline = max(
            (ing.ring.total_pushed / cfg.fs for ing in self._ingest.values()),
            default=cfg.frame_period_s,
        )
        fleet_monitor = LatencyMonitor(max(deadline, 1e-9))
        fleet_monitor.record(self._wall)
        detect_to_update = latency_stats_ms(
            np.asarray([b.detect_to_update_ms for b in self.stage_budgets], dtype=np.float64),
            self.d2u_deadline_s,
        )
        sched = self.sched_stats()
        return ParallelStreamResult(
            node_results=self.node_results,
            node_stats=node_stats,
            fleet_latency=fleet_monitor.stats(),
            shards=[list(s) for s in self.scheduler.shards],
            tracks=self.fusion.tracks,
            updates=list(self.updates),
            hop_latency=hop_latency,
            ingest={nid: ing.stats for nid, ing in self._ingest.items()},
            n_steps=self._n_steps,
            workers=self.workers,
            hop_batch=self.hop_batch,
            pacer_stats={si: p.stats() for si, p in enumerate(self._pacers)},
            stage_budgets=tuple(self.stage_budgets),
            detect_to_update=detect_to_update,
            tap_misses=self.tap_misses,
            n_steals=sched["n_steals"],
            n_migrations=sched["n_migrations"],
            queue_depth_p95=sched["queue_depth_p95"],
        )

    def close(self) -> None:
        """Leave/shut the pool and release shared-memory rings (idempotent).

        A private pool (``workers=N``) is shut down outright; a shared pool
        (``pool=``) only has this session's runners released — the pool and
        its other sessions keep running.
        """
        if self._closed:
            return
        self._closed = True
        self._pending = None
        if self._pool is not None:
            try:
                if self._owns_pool:
                    self._pool.close()
                else:
                    self._pool.release(self.session_id)
            except (WorkerCrashed, RuntimeError):  # pragma: no cover - dying pool
                pass
            self._pool = None
        if self._capacity is not None:
            self._capacity.release(len(self.scheduler.shards))
            self._capacity = None
        if self._shared_rings:
            for ring in self._rings.values():
                try:
                    ring.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass

    def __enter__(self) -> "ParallelFleetStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------- internals

    def _node_done(self, nid: str) -> bool:
        ing = self._ingest[nid]
        return ing.exhausted and ing.ring.available < self.scheduler.config.frame_length

    def _last_frame(self) -> int:
        return max((len(r) for r in self._results.values()), default=0) - 1

    def _fuse_frontier(self) -> list[TrackUpdate]:
        """Fuse every frame all still-active nodes have completed.

        Fusion runs in the main process over the merged result streams, in
        shard-major node order — the insertion order of the offline run's
        ``node_results`` — so per-frame detection lists reach the fusion
        engine in the identical order and association decisions cannot
        depend on worker count.
        """
        active_counts = [
            len(self._results[nid]) for nid in self._nodes if not self._node_done(nid)
        ]
        if active_counts:
            frontier = min(active_counts)
        else:
            frontier = self._last_frame() + 1  # ragged tail: fuse to the end
        cfg = self.fusion.config
        streams = [
            (self._results[nid], self._nodes[nid], self._origins[nid]) for nid in self.node_order
        ]
        updates: list[TrackUpdate] = []
        for frame in range(self._fused_upto, frontier):
            detections = []
            for results, node, origin in streams:
                if frame >= len(results):
                    continue  # shorter capture: node ended before this frame
                det = detection_from_result(results[frame], node, config=cfg, origin=origin)
                if det is not None:
                    detections.append(det)
            updates.extend(self.fusion.step(frame, detections))
        self._fused_upto = max(self._fused_upto, frontier)
        return updates

    def _attach_budgets(self, updates: list[TrackUpdate], fusion_s: float, fused: range) -> None:
        """Append each new update's detect-to-update stage breakdown to
        ``stage_budgets``, which stays aligned 1:1 with ``updates``.

        Delivery/ingest/kernel are the max over the nodes contributing that
        frame (the update waited for the slowest node), folded into the
        frame's cost row as results arrive; the ``fused`` frames' rows are
        dropped here.  Fusion is the frontier pass attributed per fused
        frame; emit is measured here.
        """
        costs = [self._frame_cost.pop(frame) for frame in fused]
        if not updates:
            return
        capture_ms = self.scheduler.config.capture_latency_s * 1e3
        fusion_ms = fusion_s / max(1, len(fused)) * 1e3
        t_emit = time.perf_counter()
        for u in updates:
            delivery, ingest, kernel = costs[u.frame_index - fused.start]
            self.stage_budgets.append(StageBudget(
                capture_ms,
                delivery,
                ingest,
                kernel,
                fusion_ms,
                (time.perf_counter() - t_emit) * 1e3,  # emit
            ))
