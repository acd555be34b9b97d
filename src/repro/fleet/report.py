"""Corridor-level reporting: vehicle events, speeds, per-node health.

Turns the fused tracks of :mod:`repro.fleet.fusion` and the run statistics
of :mod:`repro.fleet.scheduler` into the operator-facing picture: when a
vehicle entered and left the corridor, how fast it was going (from the
track slope), and whether every node is healthy — detecting, alerting
(via the existing :class:`repro.core.alerts.AlertPolicy` hysteresis) and
meeting its real-time budget.

The health side is incremental: a :class:`FleetRollup` keeps cursors into
the run's append-only streams and consumes only what arrived since its
previous update, so a live session's health can be re-read every few steps
at a cost proportional to the new steps, not to the session's history.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.alerts import AlertPolicy, BudgetAlert, OverrunPolicy
from repro.core.pipeline import FrameResult
from repro.core.realtime import LatencyStats, latency_stats_ms
from repro.fleet.corridor import CorridorNode
from repro.fleet.fusion import FusedTrack, TrackUpdate, bearing_only_positions
from repro.fleet.scheduler import FleetRunResult
from repro.stream.budget import StageBudget
from repro.stream.pacer import Pacer, PacerStats

__all__ = [
    "CorridorEvent",
    "NodeHealth",
    "FleetReport",
    "FleetRollup",
    "fleet_report",
    "format_report",
    "format_track_update",
    "summarize_updates",
    "localization_scorecard",
    "track_rms_error",
]


@dataclass(frozen=True)
class CorridorEvent:
    """One corridor-level transition.

    Attributes
    ----------
    kind:
        ``vehicle_entered`` or ``vehicle_left``.
    track_id, label:
        The fused track behind the event.
    frame_index, t:
        When it happened (frames / seconds).
    position:
        Road-plane position at the transition, shape ``(2,)``.
    speed_mps:
        Track-slope speed estimate at the transition.
    """

    kind: str
    track_id: int
    label: str
    frame_index: int
    t: float
    position: np.ndarray
    speed_mps: float


@dataclass(frozen=True)
class NodeHealth:
    """Operational summary of one node over a run.

    Attributes
    ----------
    node_id:
        The node.
    n_frames, n_detections:
        Processed frames and fired detections.
    n_alerts:
        Debounced alerts raised by :class:`AlertPolicy` (frame-level
        dropouts do not count; see :mod:`repro.core.alerts`).
    latency:
        Attributed processing-time stats for the node.
    realtime:
        Whether the node's attributed processing met its capture budget.
    n_overruns:
        Paced sessions only: steps of the node's shard that blew their hop
        budget (raw count, before debouncing).
    n_overrun_alerts:
        Debounced overrun alerts from :class:`~repro.core.alerts.
        OverrunPolicy` — sustained misses, not single slow steps.
    peak_hop_batch:
        Widest effective hop batch the shard's pacer reached while
        catching up (0 when the session was not paced).
    n_tap_misses:
        Streamed-multilateration reads of this node's
        :class:`~repro.stream.tap.SampleTap` that returned ``None``
        because the window had been evicted — a sign the tap window is
        undersized for the fusion lag (0 when taps were not used).
    """

    node_id: str
    n_frames: int
    n_detections: int
    n_alerts: int
    latency: LatencyStats
    realtime: bool
    n_overruns: int = 0
    n_overrun_alerts: int = 0
    peak_hop_batch: int = 0
    n_tap_misses: int = 0

    @property
    def detection_rate(self) -> float:
        """Fraction of frames whose detector fired."""
        return self.n_detections / self.n_frames if self.n_frames else 0.0


@dataclass(frozen=True)
class FleetReport:
    """Corridor-level report of one fleet run."""

    events: list[CorridorEvent]
    tracks: list[FusedTrack]
    node_health: list[NodeHealth]
    frame_period: float

    @property
    def n_vehicles(self) -> int:
        """Confirmed vehicle tracks seen during the run."""
        return len(self.tracks)


def _track_speed(track: FusedTrack, frame_period: float) -> float:
    """Speed from the track slope: median frame-to-frame displacement rate."""
    pos = track.positions()
    frames = track.frames()
    if pos.shape[0] < 2:
        return track.speed_mps
    steps = np.diff(frames)
    good = steps > 0
    if not good.any():
        return track.speed_mps
    v = np.linalg.norm(np.diff(pos, axis=0), axis=1)[good] / (steps[good] * frame_period)
    return float(np.median(v))


def _stepwise_worst(
    streams: Sequence[Sequence[Sequence[float]]],
) -> list[tuple[float, float]]:
    """Fold per-step ``(duration, budget, ...)`` record streams into one.

    At each step index the rollup takes the *max* duration against the
    *min* budget over every stream that reached that step — the
    conservative "slowest member vs tightest deadline" view used for both
    the per-corridor (over shards) and city-level (over corridors)
    debounce passes.  Ragged streams contribute for as long as they ran.
    Slicing every stream ``[a:b]`` yields merged steps ``a .. b-1``.
    """
    if len(streams) == 1:
        return [(r[0], r[1]) for r in streams[0]]
    n = max((len(s) for s in streams), default=0)
    out: list[tuple[float, float]] = []
    for i in range(n):
        rows = [s[i] for s in streams if i < len(s)]
        out.append((max([r[0] for r in rows]), min([r[1] for r in rows])))
    return out


class _NodeRollup:
    """One node's cursor, running counts and alert debounce."""

    __slots__ = ("policy", "n_frames", "n_detections", "n_alerts", "shard")

    def __init__(self, policy) -> None:
        self.policy = policy
        self.n_frames = 0  # cursor into the node's results
        self.n_detections = 0
        self.n_alerts = 0
        self.shard: _ShardRollup | None = None


class _ShardRollup:
    """One pacer record stream (a shard's, shared by its nodes)."""

    __slots__ = ("pacer", "policy", "n_records", "n_alerts")

    def __init__(self, pacer, policy) -> None:
        self.pacer = pacer  # Pacer (live) or PacerStats (final)
        self.policy = policy
        self.n_records = 0  # cursor into pacer.records
        self.n_alerts = 0


class FleetRollup:
    """Incremental node and corridor health of one fleet run.

    A run only ever *appends* to its streams: each node's
    :class:`~repro.core.pipeline.FrameResult` list, each shard pacer's
    ``records`` and the session's :class:`~repro.stream.budget.StageBudget`
    list.  The rollup keeps a cursor into every stream and each
    :meth:`update` consumes only what arrived since the previous one: the
    per-node :class:`~repro.core.alerts.AlertPolicy` and per-shard
    :class:`~repro.core.alerts.OverrunPolicy` debounces advance over the
    new rows, frame and detection counts run on, and the new
    detect-to-update samples join a float array (percentiles stay exact:
    numpy over every retained sample).

    The corridor's debounce runs over the step-wise worst shard
    (:func:`_stepwise_worst`), which is index-aligned across ragged shard
    streams: merged step ``i`` is final only once every shard has recorded
    it (or the run is final).  The corridor policy advances over that final
    prefix; :meth:`corridor_alerts` replays the provisional tail on a copy.

    :func:`fleet_report` is a fresh rollup fed a whole run once; a
    :class:`~repro.city.session.CitySession` keeps a warm one, so a health
    snapshot costs the steps since the previous snapshot, not the session.
    Warm state is O(nodes + shards) besides the d2u samples.
    """

    def __init__(
        self, *, alert_policy_factory=AlertPolicy, overrun_policy_factory=OverrunPolicy
    ) -> None:
        self._alert_policy_factory = alert_policy_factory
        self._overrun_policy_factory = overrun_policy_factory
        self._nodes: dict[str, _NodeRollup] = {}
        self._shards: list[_ShardRollup] = []
        self._corridor = overrun_policy_factory()
        self._corridor_alerts: list[BudgetAlert] = []
        # Merged steps no future record can change: the corridor debounce's input.
        self.merged_done = 0
        self.final = False  # the run is complete: no stream grows again
        self._d2u = np.empty(0)
        self._n_d2u = 0

    def update(
        self,
        node_results: Mapping[str, Sequence[FrameResult]],
        shard_pacers: Sequence[tuple[Sequence[str], Pacer | PacerStats]] = (),
        budgets: Sequence[StageBudget] = (),
        *,
        final: bool = False,
    ) -> "FleetRollup":
        """Consume what the run's streams gained since the previous update.

        ``node_results`` maps node id to its result list; ``shard_pacers``
        pairs each shard's node ids with its pacer accounting — a live
        :class:`~repro.stream.pacer.Pacer` read in place, or a final
        :class:`~repro.stream.pacer.PacerStats` (both expose ``records``,
        ``n_overruns`` and ``max_batch_used``), in the same shard order on
        every call.  ``final`` marks the streams complete, which settles
        the corridor merge's ragged tail.
        """
        for nid, results in node_results.items():
            node = self._nodes.get(nid)
            if node is None:
                node = self._nodes[nid] = _NodeRollup(self._alert_policy_factory())
            new = results[node.n_frames :]
            if new:
                node.n_frames += len(new)
                node.n_detections += sum(r.detected for r in new)
                node.n_alerts += sum(1 for a in node.policy.process(new) if a.kind == "raised")
        for si, (nids, pacer) in enumerate(shard_pacers):
            if si == len(self._shards):
                shard = _ShardRollup(pacer, self._overrun_policy_factory())
                self._shards.append(shard)
                for nid in nids:
                    self._nodes[nid].shard = shard
            shard = self._shards[si]
            shard.pacer = pacer  # a finished session hands over its PacerStats
            new = pacer.records[shard.n_records :]
            if new:
                shard.n_records += len(new)
                shard.n_alerts += sum(
                    1 for a in shard.policy.process(new) if a.kind == "overrun"
                )
        self.final = final
        lengths = [shard.n_records for shard in self._shards]
        done = max(lengths, default=0) if final else min(lengths, default=0)
        if done > self.merged_done:
            self._corridor_alerts.extend(
                self._corridor.process(self.merged(self.merged_done, done))
            )
            self.merged_done = done
        new = budgets[self._n_d2u :]
        if new:
            n = self._n_d2u + len(new)
            if n > self._d2u.size:
                grown = np.empty(max(n, 2 * self._d2u.size))
                grown[: self._n_d2u] = self._d2u[: self._n_d2u]
                self._d2u = grown
            self._d2u[self._n_d2u : n] = [b.detect_to_update_ms for b in new]
            self._n_d2u = n
        return self

    # ------------------------------------------------------------ reads

    @property
    def n_merged(self) -> int:
        """Length of the corridor's step-wise worst stream so far."""
        return max((shard.n_records for shard in self._shards), default=0)

    def merged(self, start: int, stop: int) -> list[tuple[float, float]]:
        """Merged corridor steps ``start .. stop-1`` (max duration, min budget)."""
        return _stepwise_worst([shard.pacer.records[start:stop] for shard in self._shards])

    def corridor_alerts(self) -> tuple[BudgetAlert, ...]:
        """Debounced transitions over the corridor's step-wise worst shard:
        the settled prefix's, then the provisional tail replayed on a copy
        of the policy (the tail may still change as lagging shards record)."""
        tail = self.merged(self.merged_done, self.n_merged)
        if not tail:
            return tuple(self._corridor_alerts)
        return (*self._corridor_alerts, *copy.deepcopy(self._corridor).process(tail))

    @property
    def d2u_ms(self) -> np.ndarray:
        """Every consumed budget's ``detect_to_update_ms``, in emission order."""
        return self._d2u[: self._n_d2u]

    def detect_to_update(self, deadline_s: float) -> LatencyStats:
        """Exact detect-to-update distribution over every consumed budget."""
        return latency_stats_ms(self.d2u_ms, deadline_s)

    @property
    def n_overruns(self) -> int:
        """Raw pacer overruns summed over the shards."""
        return sum(shard.pacer.n_overruns for shard in self._shards)

    @property
    def peak_hop_batch(self) -> int:
        """Widest hop batch any shard's pacer reached (0 without pacers)."""
        return max((shard.pacer.max_batch_used for shard in self._shards), default=0)

    def node_health(
        self,
        latencies: Mapping[str, LatencyStats],
        tap_misses: Mapping[str, int] | None = None,
    ) -> list[NodeHealth]:
        """One health row per node (sorted by id) from the consumed streams,
        each node's attributed ``latencies`` and its evicted tap reads."""
        health: list[NodeHealth] = []
        for nid in sorted(self._nodes):
            node, latency = self._nodes[nid], latencies[nid]
            shard = node.shard
            health.append(
                NodeHealth(
                    node_id=nid,
                    n_frames=node.n_frames,
                    n_detections=node.n_detections,
                    n_alerts=node.n_alerts,
                    latency=latency,
                    realtime=latency.realtime,
                    n_overruns=shard.pacer.n_overruns if shard else 0,
                    n_overrun_alerts=shard.n_alerts if shard else 0,
                    peak_hop_batch=shard.pacer.max_batch_used if shard else 0,
                    n_tap_misses=int(tap_misses.get(nid, 0)) if tap_misses else 0,
                )
            )
        return health


def fleet_report(
    tracks: Sequence[FusedTrack],
    run: FleetRunResult,
    *,
    frame_period: float,
    alert_policy_factory=AlertPolicy,
    pacer_stats: Mapping[str, PacerStats] | None = None,
    overrun_policy_factory=OverrunPolicy,
    tap_misses: Mapping[str, int] | None = None,
) -> FleetReport:
    """Build the corridor report from fused tracks and a fleet run.

    ``pacer_stats`` (``node_id -> PacerStats``, e.g. from
    :meth:`~repro.stream.parallel.ParallelStreamResult.node_pacer_stats`)
    folds a paced session's overrun/catch-up accounting into each node's
    health row: the raw overrun count, the *debounced* overrun alerts from
    :class:`~repro.core.alerts.OverrunPolicy`, and the widest hop batch the
    backpressure reached.  ``tap_misses`` (``node_id -> count``) folds in
    each node's evicted sample-tap reads the same way.  The health rows
    come from a fresh :class:`FleetRollup` fed the whole run once.
    """
    if frame_period <= 0:
        raise ValueError("frame_period must be positive")
    pacer_stats = pacer_stats or {}
    rollup = FleetRollup(
        alert_policy_factory=alert_policy_factory,
        overrun_policy_factory=overrun_policy_factory,
    ).update(
        {nid: run.node_results[nid] for nid in run.node_stats},
        [((nid,), pacer_stats[nid]) for nid in run.node_stats if nid in pacer_stats],
        final=True,
    )
    confirmed = [t for t in tracks if t.confirmed and t.history]
    events: list[CorridorEvent] = []
    for track in confirmed:
        speed = _track_speed(track, frame_period)
        first = track.confirmed_frame if track.confirmed_frame is not None else track.frames()[0]
        enter_idx = int(np.searchsorted(track.frames(), first))
        enter_idx = min(enter_idx, len(track.history) - 1)
        f_in, x_in, y_in = track.history[enter_idx]
        f_out, x_out, y_out = track.history[-1]
        events.append(
            CorridorEvent(
                "vehicle_entered",
                track.track_id,
                track.label,
                int(f_in),
                f_in * frame_period,
                np.array([x_in, y_in]),
                speed,
            )
        )
        events.append(
            CorridorEvent(
                "vehicle_left",
                track.track_id,
                track.label,
                int(f_out),
                f_out * frame_period,
                np.array([x_out, y_out]),
                speed,
            )
        )
    events.sort(key=lambda e: (e.frame_index, e.kind))
    return FleetReport(
        events=events,
        tracks=confirmed,
        node_health=rollup.node_health(
            {nid: stats.latency for nid, stats in run.node_stats.items()}, tap_misses
        ),
        frame_period=frame_period,
    )


def track_rms_error(track: FusedTrack, truth_xy: np.ndarray) -> float:
    """RMS distance between a track's history and per-frame ground truth.

    ``truth_xy`` is ``(n_frames, 2)`` indexed by frame; history frames
    outside it are ignored.
    """
    truth_xy = np.asarray(truth_xy, dtype=np.float64)
    frames = track.frames()
    keep = frames < truth_xy.shape[0]
    if not keep.any():
        return float("nan")
    err = track.positions()[keep] - truth_xy[frames[keep]]
    return float(np.sqrt(np.mean(np.sum(err**2, axis=1))))


def localization_scorecard(
    tracks: Sequence[FusedTrack],
    node_results: Mapping[str, Sequence[FrameResult]],
    nodes: Sequence[CorridorNode],
    truth_xy: np.ndarray,
    *,
    road_line_y: float | None = None,
) -> tuple[list[float], dict[str, float]]:
    """Score fused tracks against single-node bearing-only baselines.

    ``truth_xy`` is ``(n_vehicles, n_frames, 2)`` ground truth indexed by
    frame.  Returns ``(fused_rms, single_rms)``: per vehicle, the RMS error
    of its best-matching track (``nan`` when no track overlaps); per node,
    the RMS of the node's bearing-only estimates, each scored against
    whichever vehicle it lands closest to (a deliberately generous
    baseline).  Nodes with no qualifying detections are omitted.
    """
    truth_xy = np.asarray(truth_xy, dtype=np.float64)
    if truth_xy.ndim != 3 or truth_xy.shape[2] != 2:
        raise ValueError("truth_xy must be (n_vehicles, n_frames, 2)")
    fused_rms = []
    for v in range(truth_xy.shape[0]):
        errors = [track_rms_error(t, truth_xy[v]) for t in tracks]
        finite = [e for e in errors if np.isfinite(e)]
        fused_rms.append(min(finite) if finite else float("nan"))
    single_rms: dict[str, float] = {}
    for node in nodes:
        frames, pos = bearing_only_positions(
            node_results[node.node_id], node, road_line_y=road_line_y
        )
        keep = frames < truth_xy.shape[1]
        if not keep.any():
            continue
        frames, pos = frames[keep], pos[keep]
        per_frame = np.min(
            [np.sum((pos - truth_xy[v][frames]) ** 2, axis=1) for v in range(truth_xy.shape[0])],
            axis=0,
        )
        single_rms[node.node_id] = float(np.sqrt(per_frame.mean()))
    return fused_rms, single_rms


def format_track_update(update: TrackUpdate, *, frame_period: float) -> str:
    """Render one live fusion event as an operator log line.

    The streaming counterpart of :func:`format_report`: the corridor CLI
    prints these as :class:`repro.fleet.scheduler.FleetStream` steps emit
    them, instead of waiting for the end-of-run report.
    """
    return (
        f"[{update.frame_index * frame_period:7.2f} s] {update.kind:<9} "
        f"track {update.track_id} ({update.label}) "
        f"at ({update.x:+7.1f}, {update.y:+6.1f}) m, "
        f"{update.speed_mps * 3.6:5.1f} km/h, {update.n_nodes} node(s)"
    )


def summarize_updates(updates: Sequence[TrackUpdate]) -> dict[str, int]:
    """Event counts by kind over a live feed (missing kinds are zero)."""
    counts = {k: 0 for k in ("spawned", "confirmed", "updated", "coasted", "retired")}
    for u in updates:
        counts[u.kind] = counts.get(u.kind, 0) + 1
    return counts


def format_report(report: FleetReport) -> str:
    """Render a fleet report as the text block the CLI prints."""
    lines = [f"corridor vehicles : {report.n_vehicles}"]
    for e in report.events:
        lines.append(
            f"  [{e.t:7.2f} s] {e.kind:<15} track {e.track_id} ({e.label}) "
            f"at ({e.position[0]:+7.1f}, {e.position[1]:+6.1f}) m, "
            f"{e.speed_mps * 3.6:5.1f} km/h"
        )
    lines.append("node health       :")
    for h in report.node_health:
        status = "ok" if h.realtime else "OVERRUN"
        line = (
            f"  {h.node_id:<8} frames {h.n_frames:>5}  det {h.detection_rate:5.1%}  "
            f"alerts {h.n_alerts}  proc {h.latency.mean_s * 1e3:7.1f} ms  [{status}]"
        )
        if h.peak_hop_batch:
            line += (
                f"  pacer: {h.n_overruns} overrun(s), "
                f"{h.n_overrun_alerts} alert(s), peak batch {h.peak_hop_batch}"
            )
        if h.n_tap_misses:
            line += f"  tap misses {h.n_tap_misses}"
        lines.append(line)
    return "\n".join(lines)
