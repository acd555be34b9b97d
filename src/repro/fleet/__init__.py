"""Multi-node roadside sensor network: corridor simulation, sharded
per-node pipelines and cross-node track fusion.

The single-array pipeline of :mod:`repro.core` observes bearings; a
*fleet* of nodes along the road observes positions.  This package scales
the reproduction from one array to a corridor:

- :mod:`repro.fleet.corridor` — render one shared traffic scene to K
  roadside array nodes with consistent geometry;
- :mod:`repro.fleet.scheduler` — shard the node recordings through
  per-node batched pipelines (shared detector + steering tensors,
  round-robin shards) with per-node and fleet-wide latency accounting —
  offline via :meth:`FleetScheduler.run`, or live via
  :meth:`FleetScheduler.stream`: the one hop-clocked fleet session,
  :class:`FleetStream` (the same class as
  :class:`~repro.stream.parallel.ParallelFleetStream`), over per-node ring
  buffers (:mod:`repro.stream`) with shard kernels in-process at
  ``workers=0`` or in forked workers, per-hop incremental fusion and live
  :class:`TrackUpdate` events carrying stage budgets — tracks identical to
  the offline run at any worker count;
- :mod:`repro.fleet.fusion` — associate per-node detections across nodes
  and fuse them into road-coordinate Kalman tracks (bearing triangulation,
  wide-baseline TDOA upgrades, bearing-only survival, coast +
  re-association);
- :mod:`repro.fleet.report` — corridor events (vehicle entered/left,
  speed from the track slope) and per-node health.

End-to-end: ``python -m repro.cli fleet`` (``--stream`` for the live
runtime) or ``examples/corridor_fleet.py``.
"""

from repro.fleet.corridor import (
    CorridorBlockRenderer,
    CorridorNode,
    CorridorRecording,
    CorridorScene,
    CorridorStream,
    IncrementalCorridorSource,
    Vehicle,
    place_corridor_nodes,
    synthesize_corridor,
)
from repro.fleet.fusion import (
    FusedTrack,
    FusionConfig,
    FusionEngine,
    NodeDetection,
    TrackUpdate,
    bearing_only_positions,
    collect_detections,
    detection_from_result,
    fuse_fleet,
    triangulate_bearings,
)
from repro.fleet.report import (
    CorridorEvent,
    FleetReport,
    NodeHealth,
    fleet_report,
    format_report,
    format_track_update,
    localization_scorecard,
    summarize_updates,
    track_rms_error,
)
from repro.fleet.scheduler import (
    FleetRunResult,
    FleetScheduler,
    FleetStepResult,
    NodeRunStats,
    OracleDetector,
)

__all__ = [
    "CorridorBlockRenderer",
    "CorridorNode",
    "CorridorRecording",
    "CorridorScene",
    "CorridorStream",
    "IncrementalCorridorSource",
    "Vehicle",
    "place_corridor_nodes",
    "synthesize_corridor",
    "FusedTrack",
    "FusionConfig",
    "FusionEngine",
    "NodeDetection",
    "TrackUpdate",
    "detection_from_result",
    "bearing_only_positions",
    "collect_detections",
    "fuse_fleet",
    "triangulate_bearings",
    "CorridorEvent",
    "FleetReport",
    "NodeHealth",
    "fleet_report",
    "format_report",
    "format_track_update",
    "summarize_updates",
    "localization_scorecard",
    "track_rms_error",
    "FleetRunResult",
    "FleetScheduler",
    "FleetStepResult",
    "FleetStream",
    "NodeRunStats",
    "OracleDetector",
]


def __getattr__(name: str):
    # Resolved on first use, like repro.fleet.scheduler.FleetStream: the
    # session class lives in repro.stream.parallel, which imports this
    # package while it initializes.
    if name == "FleetStream":
        from repro.stream.parallel import ParallelFleetStream

        return ParallelFleetStream
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
