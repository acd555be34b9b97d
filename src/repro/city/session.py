"""Corridor session lifecycle on a shared worker pool.

One :class:`CitySession` wraps one corridor's live run from declaration to
final result; the :class:`SessionManager` owns what all sessions share —
the :class:`~repro.stream.pool.ShardWorkerPool` of forked workers and the
:class:`~repro.stream.pacer.SharedCapacity` their pacers judge budgets
against — and moves sessions through the lifecycle::

    submitted ──warm()──▶ warming ──go_live()──▶ live ──drain()──▶ draining ──leave()──▶ left

- **submitted** — declared (a :class:`~repro.city.scenario.CorridorSpec`),
  nothing built.
- **warming** — the expensive, worker-free prelude: the corridor's traffic
  scene renders and its :class:`~repro.fleet.scheduler.FleetScheduler`
  pipelines build.  A supervisor can warm a joining session while others
  stream.
- **live** — a :class:`~repro.stream.parallel.ParallelFleetStream` is open
  and registered on the shared pool (or running in-process when the pool
  is saturated or absent — *graceful degradation*: the session still runs,
  flagged :attr:`CitySession.degraded`, instead of queueing behind the
  city).
- **draining** — the session stops being scheduled; its final frontier is
  already fused (every step fuses to the frontier, so nothing is lost).
- **left** — finalized: the session's :class:`~repro.stream.parallel.
  ParallelStreamResult` is kept, its runners are released from the pool,
  its shared-memory rings are unlinked, and its capacity slots return to
  the city.

Worker death is handled at the manager level: :meth:`SessionManager.
recover` respawns dead pool workers; each lost shard's next step there
re-registers its runner and resumes it from its per-step checkpoint (see
:meth:`~repro.stream.pool.ShardWorkerPool.recover`), so one corridor's
crash never takes down the city.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.fleet.report import FleetRollup
from repro.stream.pacer import PacerConfig, SharedCapacity
from repro.stream.parallel import ParallelFleetStream, ParallelStreamResult
from repro.stream.pool import ShardWorkerPool

from repro.city.scenario import (
    CityScenario,
    CorridorSpec,
    build_corridor_scene,
    render_corridor,
)

__all__ = [
    "SUBMITTED",
    "WARMING",
    "LIVE",
    "DRAINING",
    "LEFT",
    "CitySession",
    "SessionManager",
]

SUBMITTED = "submitted"
WARMING = "warming"
LIVE = "live"
DRAINING = "draining"
LEFT = "left"


class CitySession:
    """One corridor's run, from spec to final result.

    Created by :meth:`SessionManager.submit`; driven through the lifecycle
    by the manager (or the :class:`~repro.city.supervisor.CitySupervisor`).
    While live, :attr:`stream` is the session's
    :class:`~repro.stream.parallel.ParallelFleetStream`; after
    :meth:`SessionManager.leave`, :attr:`result` holds the finalized
    :class:`~repro.stream.parallel.ParallelStreamResult`.
    """

    def __init__(
        self, spec: CorridorSpec, scenario: CityScenario, rng: np.random.Generator
    ) -> None:
        self.spec = spec
        self.scenario = scenario
        self._rng = rng
        self.state = SUBMITTED
        self.degraded = False
        self.joined_step: int | None = None
        self.left_step: int | None = None
        self.recording = None
        self.scene = None
        self.scheduler = None
        self.stream: ParallelFleetStream | None = None
        self.result: ParallelStreamResult | None = None
        self._rollup = FleetRollup()

    @property
    def corridor_id(self) -> str:
        return self.spec.corridor_id

    @property
    def done(self) -> bool:
        """Whether the live stream has drained all its sources."""
        return self.stream is not None and self.stream.done

    def feed(self, rollup: FleetRollup) -> FleetRollup | None:
        """Catch ``rollup`` up with what this session produced since that
        rollup's previous feed (a fresh rollup takes the whole session).

        Reads the live stream in place, or the final result once the
        session has left (the same streams, so the rollup's cursors carry
        over).  ``None`` while the session is not yet live.
        """
        if self.result is not None:
            res = self.result
            return rollup.update(
                res.node_results,
                [(shard, res.pacer_stats[si]) for si, shard in enumerate(res.shards)],
                res.stage_budgets,
                final=True,
            )
        if self.stream is not None:
            stream = self.stream
            return rollup.update(
                stream.node_results,
                list(zip(stream.scheduler.shards, stream.pacers)),
                stream.stage_budgets,
            )
        return None

    def health(self) -> FleetRollup | None:
        """The session's warm health rollup, caught up to now.

        Costs the frames, pacer records and budgets produced since the
        previous call; nothing is paid per step in between.
        """
        return self.feed(self._rollup)

    # Lifecycle transitions are driven by the SessionManager so the shared
    # resources (pool slots, capacity) stay consistent; sessions only hold
    # their own state.

    def _warm(self) -> None:
        from repro.core import PipelineConfig
        from repro.fleet import FleetScheduler, OracleDetector

        if self.state != SUBMITTED:
            raise RuntimeError(f"cannot warm a {self.state} session")
        self.state = WARMING
        scn = self.scenario
        if self.spec.incremental:
            # Build the traffic scene only; the audio renders chunk-by-chunk
            # once the session is live (same RNG draw order as the whole
            # render, so both paths replay bit-identically from one seed).
            self.scene = build_corridor_scene(self.spec, scn, self._rng)
        else:
            self.recording = render_corridor(self.spec, scn, self._rng)
            self.scene = self.recording.scene
        config = PipelineConfig(
            fs=scn.fs,
            localizer=scn.localizer,
            n_azimuth=scn.n_azimuth,
            n_elevation=scn.n_elevation,
        )
        detector = OracleDetector("siren_wail") if scn.detector == "oracle" else None
        self.scheduler = FleetScheduler(
            self.scene.nodes,
            config,
            detector=detector,
            n_shards=self.spec.n_shards,
        )

    def _go_live(
        self,
        pool: ShardWorkerPool | None,
        capacity: SharedCapacity | None,
        pacer: PacerConfig | None,
    ) -> None:
        from repro.fleet.corridor import CorridorStream

        if self.state != WARMING:
            raise RuntimeError(f"cannot open a {self.state} session")
        if self.spec.incremental:
            feed = CorridorStream(
                self.scene,
                self.scenario.fs,
                chunk_samples=self.scheduler.config.hop_length,
                drop_prob=self.spec.drop_prob,
                rng=self._rng,
                incremental=True,
                air_absorption=self.spec.air_absorption,
            )
        else:
            feed = CorridorStream(
                self.recording,
                chunk_samples=self.scheduler.config.hop_length,
                drop_prob=self.spec.drop_prob,
                rng=self._rng,
            )
        # Count the shards this session is about to register, not just the
        # load already on the pool — a join burst admitted between steps
        # must not overshoot max_shards_per_worker.
        self.degraded = pool is None or pool.saturated(
            incoming=len(self.scheduler.shards)
        )
        self.stream = ParallelFleetStream(
            self.scheduler,
            feed.sources(),
            hop_batch=self.scenario.hop_batch,
            pool=None if self.degraded else pool,
            session_id=self.corridor_id,
            capacity=None if self.degraded else capacity,
            pacer=pacer,
            tap_window_s=self.scenario.tap_window_s,
        )
        self.state = LIVE

    def _drain(self) -> None:
        if self.state != LIVE:
            raise RuntimeError(f"cannot drain a {self.state} session")
        self.state = DRAINING

    def _leave(self, step_index: int | None = None) -> None:
        if self.state not in (LIVE, DRAINING):
            raise RuntimeError(f"cannot leave from state {self.state}")
        self.result = self.stream.finalize()
        self.stream.close()
        self.stream = None
        self.state = LEFT
        self.left_step = step_index


class SessionManager:
    """Owner of the shared pool and the lifecycle of every session on it.

    The manager forks the pool and owns it: it hands the pool the
    :class:`~repro.stream.pacer.SharedCapacity` its sessions' pacers read,
    so the pool's backlog and steal rate feed the city-wide ``min_batch``
    floor, and :meth:`close` shuts the pool down.

    Parameters
    ----------
    workers:
        Worker processes to fork for the shared pool; 0 runs every session
        in-process (every session is *degraded* — the portable fallback
        when ``fork``/shared memory are unavailable).
    max_shards_per_worker:
        Admission control: sessions joining once every pool worker already
        carries this many shards run in-process (degraded) instead of
        queueing the whole city behind them.
    pacer:
        Backpressure policy applied to every session's pacers (``None``:
        a fixed batch of the scenario's ``hop_batch``).
    steal:
        Enable work stealing on the pool (default); ``False`` pins shards
        to the worker that registered them.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        max_shards_per_worker: int | None = None,
        pacer: PacerConfig | None = None,
        steal: bool = True,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.capacity: SharedCapacity | None = None
        self.pool: ShardWorkerPool | None = None
        if workers > 0:
            self.capacity = SharedCapacity(workers)
            self.pool = ShardWorkerPool(
                workers,
                max_shards_per_worker=max_shards_per_worker,
                steal=steal,
                capacity=self.capacity,
            )
        self.pacer = pacer
        self.sessions: dict[str, CitySession] = {}
        self.n_worker_restarts = 0
        self._closed = False

    # ------------------------------------------------------------ lifecycle

    def submit(
        self, spec: CorridorSpec, scenario: CityScenario, rng: np.random.Generator
    ) -> CitySession:
        """Declare a corridor session (no resources yet)."""
        if spec.corridor_id in self.sessions:
            raise ValueError(f"session {spec.corridor_id!r} already submitted")
        session = CitySession(spec, scenario, rng)
        self.sessions[spec.corridor_id] = session
        return session

    def admit(self, session: CitySession, *, step_index: int | None = None) -> CitySession:
        """Take a submitted session live: warm it, then open its stream.

        The session lands on the shared pool when there is room, or runs
        in-process (``degraded=True``) when the pool is saturated or the
        manager was built with ``workers=0``.
        """
        session._warm()
        session._go_live(self.pool, self.capacity, self.pacer)
        session.joined_step = step_index
        return session

    def drain(self, session: CitySession) -> None:
        """Stop scheduling the session; its fused frontier is already final."""
        session._drain()

    def leave(self, session: CitySession, *, step_index: int | None = None) -> None:
        """Finalize the session and free its pool slots and rings."""
        session._leave(step_index)

    def recover(self) -> int:
        """Respawn dead pool workers; every registered session's lost
        shards resume from their checkpoints on their next step.

        Returns the number of workers restarted (0 when none were dead).
        """
        if self.pool is None:
            return 0
        restarted = self.pool.recover()
        self.n_worker_restarts += restarted
        return restarted

    # ------------------------------------------------------------- queries

    def live(self) -> list[CitySession]:
        """Sessions currently live, in submission order."""
        return [s for s in self.sessions.values() if s.state == LIVE]

    def in_state(self, state: str) -> list[CitySession]:
        """Sessions in ``state``, in submission order."""
        return [s for s in self.sessions.values() if s.state == state]

    def counts(self) -> Mapping[str, int]:
        """Session count per lifecycle state (all states present)."""
        out = {state: 0 for state in (SUBMITTED, WARMING, LIVE, DRAINING, LEFT)}
        for s in self.sessions.values():
            out[s.state] += 1
        return out

    def close(self) -> None:
        """Leave every open session, then shut the pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for session in self.sessions.values():
            if session.state in (LIVE, DRAINING):
                try:
                    session._leave()
                except RuntimeError:  # pragma: no cover - dying pool
                    pass
        if self.pool is not None:
            self.pool.close()
        self.pool = None

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
