"""Sharded execution of per-node pipelines over a fleet — offline or live.

Every corridor node runs the same perception stack; running K nodes as K
independent streaming loops wastes exactly the redundancy PR 1's batched
engine exists to exploit.  The scheduler

- builds one :class:`~repro.core.batch.BlockPipeline` per node, sharing a
  single detector (the fleet deploys one model) and — whenever nodes share
  a mounting design, i.e. identical local mic geometry — a single localizer
  instance, so the cached steering/interpolation tensors *and the
  coarse-to-fine steering pyramids* (per-level coarse tensors, window LUTs;
  see :mod:`repro.ssl.refine`) are built once for the whole fleet.  Temporal
  window-reuse state stays per node: each stream owns its own
  :class:`~repro.ssl.refine.RefineState`, so one node's anchor never leaks
  into another's;
- offline (:meth:`FleetScheduler.run`), assigns nodes to shards round-robin
  and fans each shard's recordings through **one** ragged ``process_batch``
  call (unequal capture lengths batch cleanly).  This serial pass is the
  independent reference every live session is checked against;
- live (:meth:`FleetScheduler.stream`), opens the one hop-clocked fleet
  session, :class:`~repro.stream.parallel.ParallelFleetStream` (also
  exported here as ``FleetStream``): per-node ring-buffer ingestion, one
  shared-:class:`~repro.ssl.gcc.SpectraCache` hop batch per shard per step
  through the same :class:`~repro.core.hop.HopKernel` — in-process at
  ``workers=0``, in forked workers otherwise — and *incremental* cross-node
  fusion emitting budgeted :class:`~repro.fleet.fusion.TrackUpdate` events,
  producing tracks identical to the offline run on the same audio;
- accounts wall time per node and fleet-wide with
  :class:`~repro.core.realtime.LatencyMonitor` — against each node's
  capture duration offline, and against the hop deadline per step live.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.batch import BlockPipeline
from repro.core.config import PipelineConfig
from repro.core.pipeline import FrameResult
from repro.core.realtime import LatencyMonitor, LatencyStats
from repro.fleet.corridor import CorridorNode, CorridorRecording
from repro.fleet.fusion import FusionConfig, TrackUpdate
from repro.nn.module import Module
from repro.sed.events import EVENT_CLASSES, class_index
from repro.sed.models import build_sed_mlp

if TYPE_CHECKING:  # pragma: no cover - circular at runtime, fine for typing
    from repro.stream.pacer import PacerConfig
    from repro.stream.parallel import ParallelFleetStream
    from repro.stream.source import ChunkSource

__all__ = [
    "OracleDetector",
    "NodeRunStats",
    "FleetRunResult",
    "FleetScheduler",
    "FleetStepResult",
    "FleetStream",
]


def __getattr__(name: str):
    # ``FleetStream`` is the session class of repro.stream.parallel, which
    # imports this package while it initializes; resolving it on first use
    # (PEP 562) breaks that import cycle.
    if name == "FleetStream":
        from repro.stream.parallel import ParallelFleetStream

        return ParallelFleetStream
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class OracleDetector(Module):
    """Deterministic detector that always reports one class.

    Stands in for a trained model in simulations where the target event is
    known to be present for the whole capture (demo scenes, fusion tests,
    benches): every frame fires with the same label and confidence, so the
    downstream localization/fusion behaviour is reproducible.
    """

    def __init__(self, label: str = "siren_wail", *, logit: float = 6.0) -> None:
        super().__init__()
        self._class = class_index(label)
        self._logit = float(logit)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.full((x.shape[0], len(EVENT_CLASSES)), -self._logit)
        out[:, self._class] = self._logit
        return out


@dataclass(frozen=True)
class NodeRunStats:
    """Per-node outcome of one fleet run.

    Attributes
    ----------
    node_id:
        The node.
    n_frames, n_detections:
        Frame count and frames whose detection fired.
    latency:
        Attributed processing-time distribution vs the node's real-time
        budget (capture duration).
    """

    node_id: str
    n_frames: int
    n_detections: int
    latency: LatencyStats


@dataclass(frozen=True)
class FleetRunResult:
    """Everything one :meth:`FleetScheduler.run` call produced.

    Attributes
    ----------
    node_results:
        ``node_id -> FrameResult`` stream (fresh tracker per node).
    node_stats:
        ``node_id -> NodeRunStats``.
    fleet_latency:
        Whole-run wall time vs the longest node capture (the fleet is
        real-time when the full corridor processes faster than it records).
    shards:
        The round-robin shard assignment, as lists of node ids.
    """

    node_results: dict[str, list[FrameResult]]
    node_stats: dict[str, NodeRunStats]
    fleet_latency: LatencyStats
    shards: list[list[str]]

    @property
    def realtime(self) -> bool:
        """Whether the whole fleet processed inside its capture window."""
        return self.fleet_latency.realtime


class FleetScheduler:
    """Shard per-node batched pipelines across a corridor fleet.

    Parameters
    ----------
    nodes:
        The corridor nodes (see :func:`repro.fleet.place_corridor_nodes`).
    config:
        Shared :class:`PipelineConfig` for every node pipeline.
    detector:
        Detector deployed fleet-wide; one untrained compact MLP is built
        (and shared) when omitted.
    n_shards:
        Number of round-robin shards (default: one shard per 2 nodes,
        at least 1).
    """

    def __init__(
        self,
        nodes: Sequence[CorridorNode],
        config: PipelineConfig | None = None,
        *,
        detector: Module | None = None,
        n_shards: int | None = None,
    ) -> None:
        if not nodes:
            raise ValueError("need at least one node")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")
        self.nodes = list(nodes)
        self.config = config or PipelineConfig()
        self.detector = detector or build_sed_mlp(self.config.n_mels, len(EVENT_CLASSES))
        if n_shards is None:
            n_shards = max(1, len(self.nodes) // 2)
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.pipelines: dict[str, BlockPipeline] = {}
        prototypes: list[BlockPipeline] = []
        self._n_shared_localizers = 0
        for node in self.nodes:
            rel = node.relative_positions
            # Same mounting design as an earlier node: inject the prototype's
            # localizer so its steering/read tensors are built once and serve
            # the whole fleet.
            shared = next(
                (
                    p.pipeline.localizer
                    for p in prototypes
                    if p.positions.shape == rel.shape and np.allclose(p.positions, rel)
                ),
                None,
            )
            pipe = BlockPipeline(
                rel, self.config, detector=self.detector, localizer=shared
            )
            if shared is None:
                prototypes.append(pipe)
            else:
                self._n_shared_localizers += 1
            self.pipelines[node.node_id] = pipe
        self.shards: list[list[str]] = [[] for _ in range(min(n_shards, len(self.nodes)))]
        for k, node in enumerate(self.nodes):
            self.shards[k % len(self.shards)].append(node.node_id)

    # ------------------------------------------------------------------ API

    @property
    def n_shared_localizers(self) -> int:
        """Node pipelines reusing another node's cached steering tensors."""
        return self._n_shared_localizers

    def run(self, recordings: Mapping[str, np.ndarray] | CorridorRecording) -> FleetRunResult:
        """Process every node's recording; returns per-node results + stats."""
        if isinstance(recordings, CorridorRecording):
            if recordings.fs != self.config.fs:
                raise ValueError(
                    f"recording fs {recordings.fs} does not match pipeline fs {self.config.fs}"
                )
            recordings = recordings.recordings
        missing = [n.node_id for n in self.nodes if n.node_id not in recordings]
        if missing:
            raise ValueError(f"missing recordings for nodes: {missing}")
        clips = {
            n.node_id: np.asarray(recordings[n.node_id], dtype=np.float64) for n in self.nodes
        }
        for node in self.nodes:
            clip = clips[node.node_id]
            if clip.ndim != 2 or clip.shape[0] != node.array.n_mics:
                raise ValueError(
                    f"recording for {node.node_id!r} must be ({node.array.n_mics}, n_samples)"
                )
        fleet_deadline = max(c.shape[1] for c in clips.values()) / self.config.fs
        fleet_monitor = LatencyMonitor(fleet_deadline)
        node_results: dict[str, list[FrameResult]] = {}
        node_monitors = {
            nid: LatencyMonitor(clips[nid].shape[1] / self.config.fs) for nid in clips
        }

        fleet_monitor.tick_start()
        for shard in self.shards:
            results, durations = self._run_shard(shard, clips)
            node_results.update(results)
            for nid, dt in durations.items():
                node_monitors[nid].record(dt)
        fleet_monitor.tick_end()

        node_stats = {
            nid: NodeRunStats(
                node_id=nid,
                n_frames=len(node_results[nid]),
                n_detections=sum(r.detected for r in node_results[nid]),
                latency=node_monitors[nid].stats(),
            )
            for nid in clips
        }
        return FleetRunResult(
            node_results=node_results,
            node_stats=node_stats,
            fleet_latency=fleet_monitor.stats(),
            shards=[list(s) for s in self.shards],
        )

    def stream(
        self,
        sources: "Mapping[str, ChunkSource]",
        *,
        hop_batch: int = 8,
        workers: int = 0,
        pacer: "PacerConfig | None" = None,
        fusion_config: FusionConfig | None = None,
        recordings: Mapping[str, np.ndarray] | None = None,
        ring_capacity: int | None = None,
        late_tolerance_s: float | None = None,
        tap_window_s: float | None = None,
    ) -> "ParallelFleetStream":
        """Open the hop-clocked live session over per-node chunk sources.

        ``sources`` maps every node id to its :class:`ChunkSource` (e.g.
        from :meth:`repro.fleet.corridor.CorridorStream.sources`).  Returns
        a :class:`~repro.stream.parallel.ParallelFleetStream` (see it for
        the parameters): shard kernels in-process at ``workers=0``, in
        forked workers otherwise; exactly ``hop_batch`` hops per step
        unless ``pacer`` opts into adaptation or pacing.  Its fused tracks
        equal :meth:`run` + :func:`~repro.fleet.fusion.fuse_fleet` on the
        same audio.
        """
        from repro.stream.parallel import ParallelFleetStream

        return ParallelFleetStream(
            self,
            sources,
            hop_batch=hop_batch,
            workers=workers,
            pacer=pacer,
            fusion_config=fusion_config,
            recordings=recordings,
            ring_capacity=ring_capacity,
            late_tolerance_s=late_tolerance_s,
            tap_window_s=tap_window_s,
        )

    # ------------------------------------------------------------- internals

    def _run_shard(
        self, shard: list[str], clips: Mapping[str, np.ndarray]
    ) -> tuple[dict[str, list[FrameResult]], dict[str, float]]:
        """Process one shard; returns results and attributed durations."""
        t0 = time.perf_counter()
        pipes = [self.pipelines[nid] for nid in shard]
        shared = all(p.pipeline.localizer is pipes[0].pipeline.localizer for p in pipes)
        results: dict[str, list[FrameResult]] = {}
        if shared and len(shard) > 1:
            # One ragged batch through a single pipeline: one detector pass
            # and one localizer call for the whole shard.
            batch = pipes[0].process_batch([clips[nid] for nid in shard])
            results = dict(zip(shard, batch))
        else:
            for nid, pipe in zip(shard, pipes):
                pipe.reset()
                results[nid] = pipe.process_signal(clips[nid])
                pipe.reset()
        wall = time.perf_counter() - t0
        # Attribute the shard's wall time to its nodes by sample share.
        total = sum(clips[nid].shape[1] for nid in shard)
        durations = {nid: wall * clips[nid].shape[1] / total for nid in shard}
        return results, durations


@dataclass(frozen=True)
class FleetStepResult:
    """What one fleet session step produced (see
    :meth:`~repro.stream.parallel.ParallelFleetStream.step`).

    Attributes
    ----------
    new_results:
        Per-node :class:`FrameResult` rows completed this step (nodes with
        no new complete frame are absent).
    updates:
        Live fusion events of the frames fused this step.
    fused_upto:
        Frames fused so far (exclusive upper bound of the fusion frontier).
    done:
        Whether every source is exhausted, drained and fused.
    """

    new_results: dict[str, list[FrameResult]]
    updates: list[TrackUpdate]
    fused_upto: int
    done: bool
