"""City-wide health rollups: many corridors, one operator picture.

The per-corridor layers already exist — a :class:`repro.fleet.report.
FleetRollup` rolls a session's node health up, :class:`repro.stream.pacer.
PacerStats` records every pacing decision, and :class:`repro.stream.budget.
StageBudget` decomposes each update's detect-to-update latency.  This module
folds all of it across sessions:

- **per-corridor**: one :class:`CorridorHealth` row per session — lifecycle
  state, node health counts from the session's rollup, hop /
  detect-to-update p95s, and *debounced* overrun alerts from
  :class:`repro.core.alerts.OverrunPolicy` over the corridor's worst shard
  per step;
- **city-level**: the pooled detect-to-update distribution over every
  session and a second :class:`~repro.core.alerts.OverrunPolicy` pass over
  the city's step-wise worst corridor — so a city alert means *somewhere,
  sustained*, the deployment missed its budget, debounced exactly like the
  per-node alerts operators already read.

Step-wise rollups take the **max duration against the min budget** at each
step index: the city is as slow as its slowest corridor and as tight as its
tightest deadline, which makes the rollup conservative — a city that never
alerts is a city where *no* corridor sustained an overrun.

**Cost model.**  Every rollup is incremental: each session keeps a warm
:class:`~repro.fleet.report.FleetRollup` and a :class:`CityRollup` keeps the
city-level debounce, so the Python work of one report is proportional to
the frames, pacer records and budgets produced since the previous report,
plus the *provisional tail*.  On top come per-session summaries read in
place and exact percentiles over the retained samples (numpy, cheap next to
the replays they replace).  Everything already consumed is final except
the step-wise merges: merged step ``i`` can still change while a shard or
session that has not reached step ``i`` may yet record it — a live
corridor's lagging shards, and at city level any live session's lagging
shards or any session not yet joined.  That tail is replayed on a copy of
the debounce at every report, so alerts (and their step indices) over it
are provisional until it settles.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.alerts import BudgetAlert, OverrunPolicy
from repro.core.realtime import LatencyStats, latency_stats_ms, monitor_stats
from repro.fleet.report import FleetRollup, _stepwise_worst

__all__ = [
    "CorridorHealth",
    "CityReport",
    "CityRollup",
    "city_report",
    "format_city_report",
    "city_report_json",
]


@dataclass(frozen=True)
class CorridorHealth:
    """One corridor session's rollup inside the city report.

    Attributes
    ----------
    corridor_id, state, degraded:
        Which session, where its lifecycle stands, and whether it ran
        in-process because the pool was saturated (or absent).
    joined_step, left_step:
        Supervisor steps bracketing the session's live span (``None``
        while not yet reached).
    n_nodes, n_nodes_realtime:
        Node count and how many met their attributed processing budget.
    n_frames, n_detections, n_tracks, n_updates:
        Volume counters over the session's node results and fused output.
    hop_p95_ms, d2u_p95_ms, d2u_deadline_ms:
        Per-hop fleet-step p95 and the end-to-end detect-to-update p95
        against its nominal budget.
    n_overruns, n_overrun_alerts, peak_hop_batch:
        Raw pacer overruns, *debounced* overrun alerts over the corridor's
        step-wise worst shard, and the widest hop batch backpressure
        reached.
    n_steals, n_migrations, queue_depth_p95:
        Pool-scheduling accounting: shards of this session stolen by idle
        workers, total migrations, and the p95 pool backlog sampled at the
        session's dispatches (all zero for degraded/in-process sessions).
    n_tap_misses:
        Sample-tap reads that returned ``None`` due to eviction, summed
        over the session's nodes (streamed multilateration wanted audio
        older than the tap window keeps).
    alerts:
        The debounced :class:`~repro.core.alerts.BudgetAlert` transitions
        themselves (overrun and recovered, in step order).
    """

    corridor_id: str
    state: str
    degraded: bool
    joined_step: int | None
    left_step: int | None
    n_nodes: int
    n_nodes_realtime: int
    n_frames: int
    n_detections: int
    n_tracks: int
    n_updates: int
    hop_p95_ms: float
    d2u_p95_ms: float
    d2u_deadline_ms: float
    n_overruns: int
    n_overrun_alerts: int
    peak_hop_batch: int
    n_steals: int = 0
    n_migrations: int = 0
    queue_depth_p95: float = 0.0
    n_tap_misses: int = 0
    alerts: tuple[BudgetAlert, ...] = ()

    @property
    def realtime(self) -> bool:
        """Whether the corridor's detect-to-update p95 met its budget."""
        return self.d2u_p95_ms <= self.d2u_deadline_ms


@dataclass(frozen=True)
class CityReport:
    """The whole deployment's health at one point in (or after) a run."""

    corridors: tuple[CorridorHealth, ...]
    n_sessions: int
    n_live: int
    n_left: int
    n_degraded: int
    n_worker_restarts: int
    pool_workers: int
    detect_to_update: LatencyStats
    city_alerts: tuple[BudgetAlert, ...] = ()

    @property
    def realtime(self) -> bool:
        """Whether the city-wide detect-to-update p95 met the budget."""
        return self.detect_to_update.realtime

    @property
    def n_city_overrun_alerts(self) -> int:
        """Debounced city-level overrun alerts (``overrun`` kind only)."""
        return sum(1 for a in self.city_alerts if a.kind == "overrun")


def _corridor_health(
    session,
    rollup: FleetRollup | None,
    live_latency: tuple[LatencyStats, dict[str, LatencyStats]] | None,
) -> CorridorHealth:
    """One session's row from its caught-up rollup (``None``: not yet live)
    and, while it is live, its ``(hop, per-node)`` latencies."""
    spec = session.spec
    lifecycle = dict(
        corridor_id=spec.corridor_id,
        state=session.state,
        degraded=session.degraded,
        joined_step=session.joined_step,
        left_step=session.left_step,
    )
    if rollup is None:
        # Not yet live: an empty row keeps submitted sessions visible.
        return CorridorHealth(
            **lifecycle,
            n_nodes=spec.n_nodes,
            n_nodes_realtime=0,
            n_frames=0,
            n_detections=0,
            n_tracks=0,
            n_updates=0,
            hop_p95_ms=0.0,
            d2u_p95_ms=0.0,
            d2u_deadline_ms=0.0,
            n_overruns=0,
            n_overrun_alerts=0,
            peak_hop_batch=0,
        )
    # The per-snapshot summaries that are not streams: a left session's
    # come from its final result, a live one's from its stream in place.
    res, live = session.result, session.stream
    if res is not None:
        latencies = {nid: st.latency for nid, st in res.node_stats.items()}
        hop, deadline_s = res.hop_latency, res.detect_to_update.deadline_s
        n_tracks, n_updates, tap_misses = len(res.tracks), len(res.updates), res.tap_misses
        sched = (res.n_steals, res.n_migrations, res.queue_depth_p95)
    else:
        hop, latencies = live_latency
        deadline_s = live.d2u_deadline_s
        n_tracks = len(live.fusion.retired) + len(live.fusion.active)
        n_updates, tap_misses = len(live.updates), live.tap_misses
        s = live.sched_stats()
        sched = (s["n_steals"], s["n_migrations"], s["queue_depth_p95"])
    nodes = rollup.node_health(latencies)
    d2u = rollup.detect_to_update(deadline_s)
    alerts = rollup.corridor_alerts()
    return CorridorHealth(
        **lifecycle,
        n_nodes=len(nodes),
        n_nodes_realtime=sum(1 for h in nodes if h.realtime),
        n_frames=sum(h.n_frames for h in nodes),
        n_detections=sum(h.n_detections for h in nodes),
        n_tracks=n_tracks,
        n_updates=n_updates,
        hop_p95_ms=hop.p95_s * 1e3,
        d2u_p95_ms=d2u.p95_s * 1e3,
        d2u_deadline_ms=d2u.deadline_s * 1e3,
        n_overruns=rollup.n_overruns,
        n_overrun_alerts=sum(1 for a in alerts if a.kind == "overrun"),
        peak_hop_batch=rollup.peak_hop_batch,
        n_steals=sched[0],
        n_migrations=sched[1],
        queue_depth_p95=sched[2],
        n_tap_misses=sum(tap_misses.values()),
        alerts=alerts,
    )


class CityRollup:
    """Warm city-level health over an ordered set of sessions.

    Iterating it yields the sessions, so :func:`city_report` accepts it in
    place of a session list; it then advances this rollup's city-level
    debounce instead of replaying the city's whole history.  The city
    debounce runs over the step-wise worst corridor, index-aligned like the
    per-corridor merge, so a merged city step is settled only once every
    session that can still record has settled it: sessions not yet joined
    (and live sessions with lagging shards) hold the settled prefix back,
    and the unsettled tail is replayed on a copy at each report.  A change
    in the session set re-derives the city debounce from scratch.

    ``sessions`` may be a live view (e.g. ``SessionManager.sessions.
    values()``); each session's own warm :class:`~repro.fleet.report.
    FleetRollup` supplies its row, unless a custom
    ``overrun_policy_factory`` asks for cold per-session rollups.
    """

    def __init__(self, sessions: Iterable, *, overrun_policy_factory=OverrunPolicy) -> None:
        self._sessions = sessions
        self._factory = overrun_policy_factory
        self._key: tuple = ()
        self._reset()

    def __iter__(self):
        return iter(self._sessions)

    def _reset(self) -> None:
        self._policy = self._factory()
        self._alerts: list[BudgetAlert] = []
        self._done = 0

    def report(self, *, n_worker_restarts: int = 0, pool_workers: int = 0) -> CityReport:
        """Catch every session up and roll the city up (see the module doc
        for the cost model)."""
        sessions = list(self._sessions)
        key = tuple(map(id, sessions))
        if key != self._key:
            self._key = key
            self._reset()
        if self._factory is OverrunPolicy:
            rollups = [s.health() for s in sessions]
        else:
            rollups = [
                s.feed(FleetRollup(overrun_policy_factory=self._factory)) for s in sessions
            ]
        # Live sessions' hop and node latencies in one vectorized pass.
        live = [s.stream for s in sessions if s.result is None and s.stream is not None]
        stats = iter(monitor_stats([m for st in live for m in st.latency_monitors()]))
        latency = {
            id(st): (next(stats), {nid: next(stats) for nid in st.node_order}) for st in live
        }
        rows = [
            _corridor_health(s, r, latency.get(id(s.stream)))
            for s, r in zip(sessions, rollups)
        ]

        streams = [r for r in rollups if r is not None]
        length = max((r.n_merged for r in streams), default=0)
        done = min(
            (r.merged_done if r is not None else 0 for r in rollups if r is None or not r.final),
            default=length,
        )
        if done > self._done:
            self._alerts.extend(self._policy.process(_merged(streams, self._done, done)))
            self._done = done
        tail = _merged(streams, self._done, length)
        city_alerts = tuple(self._alerts)
        if tail:
            city_alerts += tuple(copy.deepcopy(self._policy).process(tail))

        d2u_deadline = 0.0
        for row in rows:
            d2u_deadline = max(d2u_deadline, row.d2u_deadline_ms / 1e3)
        d2u_all = np.concatenate([r.d2u_ms for r in streams]) if streams else np.empty(0)
        return CityReport(
            corridors=tuple(rows),
            n_sessions=len(rows),
            n_live=sum(1 for r in rows if r.state == "live"),
            n_left=sum(1 for r in rows if r.state == "left"),
            n_degraded=sum(1 for r in rows if r.degraded),
            n_worker_restarts=n_worker_restarts,
            pool_workers=pool_workers,
            detect_to_update=latency_stats_ms(d2u_all, max(d2u_deadline, 1e-9)),
            city_alerts=city_alerts,
        )


def _merged(rollups: Sequence[FleetRollup], start: int, stop: int) -> list[tuple[float, float]]:
    """City steps ``start .. stop-1``: the step-wise worst corridor."""
    return _stepwise_worst([r.merged(start, stop) for r in rollups])


def city_report(
    sessions: Iterable,
    *,
    n_worker_restarts: int = 0,
    pool_workers: int = 0,
    overrun_policy_factory=OverrunPolicy,
) -> CityReport:
    """Roll every session's health up into one :class:`CityReport`.

    ``sessions`` are :class:`~repro.city.session.CitySession` objects in
    any lifecycle state: live sessions are read in place, left sessions
    through their final results, submitted ones appear as empty rows.
    Each session's row comes from its warm rollup; passing a
    :class:`CityRollup` also keeps the city-level debounce warm.  The
    city-level debounce runs ``overrun_policy_factory()`` over the
    step-wise worst corridor (max duration, min budget per step); a custom
    factory builds cold rollups, per session and city-wide, through the
    same code.
    """
    if not (isinstance(sessions, CityRollup) and overrun_policy_factory is OverrunPolicy):
        sessions = CityRollup(list(sessions), overrun_policy_factory=overrun_policy_factory)
    return sessions.report(n_worker_restarts=n_worker_restarts, pool_workers=pool_workers)


def format_city_report(report: CityReport) -> str:
    """Render a city report as the text block the CLI prints."""
    d2u = report.detect_to_update
    lines = [
        f"city sessions     : {report.n_sessions} "
        f"({report.n_live} live, {report.n_left} left, "
        f"{report.n_degraded} degraded) on {report.pool_workers} pool worker(s)",
        f"worker restarts   : {report.n_worker_restarts}",
        f"city detect→update: p95 {d2u.p95_s * 1e3:.1f} ms vs "
        f"{d2u.deadline_s * 1e3:.1f} ms budget "
        f"({'real-time' if report.realtime else 'OVERRUN'}), "
        f"{report.n_city_overrun_alerts} debounced city alert(s)",
    ]
    for c in report.corridors:
        status = "ok" if c.realtime else "OVERRUN"
        line = (
            f"  {c.corridor_id:<12} [{c.state:<9}] nodes {c.n_nodes_realtime}/{c.n_nodes} rt  "
            f"tracks {c.n_tracks:>3}  d2u p95 {c.d2u_p95_ms:6.1f} ms  "
            f"alerts {c.n_overrun_alerts}  [{status}]"
        )
        if c.n_steals or c.n_migrations:
            line += f"  steals {c.n_steals}/{c.n_migrations} moved"
        if c.n_tap_misses:
            line += f"  tap misses {c.n_tap_misses}"
        if c.degraded:
            line += "  (degraded: in-process)"
        lines.append(line)
    return "\n".join(lines)


def city_report_json(report: CityReport) -> dict:
    """The report as JSON-serializable plain types (for ``--json``)."""
    d2u = report.detect_to_update
    return {
        "n_sessions": report.n_sessions,
        "n_live": report.n_live,
        "n_left": report.n_left,
        "n_degraded": report.n_degraded,
        "n_worker_restarts": report.n_worker_restarts,
        "pool_workers": report.pool_workers,
        "realtime": bool(report.realtime),
        "n_city_overrun_alerts": report.n_city_overrun_alerts,
        "detect_to_update": {
            "mean_ms": d2u.mean_s * 1e3,
            "p95_ms": d2u.p95_s * 1e3,
            "max_ms": d2u.max_s * 1e3,
            "deadline_ms": d2u.deadline_s * 1e3,
        },
        "city_alerts": [
            {
                "kind": a.kind,
                "step_index": a.step_index,
                "duration_ms": a.duration_s * 1e3,
                "budget_ms": a.budget_s * 1e3,
            }
            for a in report.city_alerts
        ],
        "corridors": [
            {
                "corridor_id": c.corridor_id,
                "state": c.state,
                "degraded": bool(c.degraded),
                "joined_step": c.joined_step,
                "left_step": c.left_step,
                "n_nodes": c.n_nodes,
                "n_nodes_realtime": c.n_nodes_realtime,
                "n_frames": c.n_frames,
                "n_detections": c.n_detections,
                "n_tracks": c.n_tracks,
                "n_updates": c.n_updates,
                "hop_p95_ms": c.hop_p95_ms,
                "d2u_p95_ms": c.d2u_p95_ms,
                "d2u_deadline_ms": c.d2u_deadline_ms,
                "n_overruns": c.n_overruns,
                "n_overrun_alerts": c.n_overrun_alerts,
                "peak_hop_batch": c.peak_hop_batch,
                "n_steals": c.n_steals,
                "n_migrations": c.n_migrations,
                "queue_depth_p95": c.queue_depth_p95,
                "n_tap_misses": c.n_tap_misses,
                "realtime": bool(c.realtime),
            }
            for c in report.corridors
        ],
    }
