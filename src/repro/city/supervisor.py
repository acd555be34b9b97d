"""The city supervisor: many corridor sessions, one step loop, one pool.

:class:`CitySupervisor` turns a declared :class:`~repro.city.scenario.
CityScenario` into a running city.  Each supervisor step:

1. **leaves** sessions that spent the previous step draining (their final
   frontier was already fused — draining exists so operators see the state
   before the session disappears);
2. **admits** submitted sessions whose ``join_step`` has arrived — they
   warm (scene render + pipeline build) and go live on the shared
   :class:`~repro.stream.pool.ShardWorkerPool`, or in-process when the
   pool is saturated (graceful degradation);
3. **steps every live session in two phases**: first every session's
   :meth:`~repro.stream.parallel.ParallelFleetStream.step_begin` (pace,
   ingest, dispatch hop work to the pool), then every session's
   :meth:`~repro.stream.parallel.ParallelFleetStream.step_end` (collect,
   merge, fuse).  The split is what makes the pool *shared*: all sessions'
   hop batches are in flight together before any session blocks on
   replies, so N corridors on W workers overlap instead of serializing;
4. **recovers** from worker death: a :class:`~repro.stream.pool.
   WorkerCrashed` out of ``step_end`` triggers :meth:`~repro.city.session.
   SessionManager.recover` (respawn + re-queue of the lost step, whose
   retried dispatch carries each shard's checkpoint) and one retry — one
   corridor's crash never takes down the city;
5. **drains** sessions whose sources are exhausted or whose ``leave_step``
   has arrived.

The loop is deterministic given the scenario: sessions are admitted,
stepped and drained in submission (= scenario) order, and each corridor's
traffic comes from its own :func:`~repro.city.scenario.corridor_rngs`
stream — so a city run's per-session fused tracks are bit-identical to
running each corridor standalone (PR 5/6 invariant, now across sessions).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from repro.stream.pacer import PacerConfig
from repro.stream.pool import WorkerCrashed

from repro.city.report import CityReport, CityRollup, city_report, city_report_json
from repro.city.scenario import CityScenario, corridor_rngs
from repro.city.session import DRAINING, LIVE, SUBMITTED, CitySession, SessionManager

__all__ = ["CityStepResult", "CitySupervisor"]


@dataclass(frozen=True)
class CityStepResult:
    """What one supervisor step did across the city.

    Attributes
    ----------
    step_index:
        The supervisor step just executed (0-based).
    joined, left:
        Corridor ids admitted / finalized this step, in scenario order.
    updates:
        Fused track updates emitted this step, per live corridor id
        (corridors not stepped are absent).
    n_live:
        Live sessions after this step (draining sessions excluded).
    """

    step_index: int
    joined: tuple[str, ...] = ()
    left: tuple[str, ...] = ()
    updates: Mapping[str, int] = field(default_factory=dict)
    n_live: int = 0


class CitySupervisor:
    """Run a :class:`~repro.city.scenario.CityScenario` to completion.

    Parameters
    ----------
    scenario:
        The declared city (corridors + join/leave schedule + pipeline
        settings).
    workers:
        Shared-pool worker processes to fork (0 = every session runs
        in-process; the portable fallback and the determinism reference).
        The supervisor's :class:`~repro.city.session.SessionManager` owns
        the pool and shuts it down on :meth:`close`.
    max_shards_per_worker:
        Admission control forwarded to the :class:`~repro.city.session.
        SessionManager`: sessions joining past this pool load run
        in-process (degraded) instead of queueing the city.
    pacer:
        Backpressure policy applied to every session's pacers; per-session
        budgets are judged against the *shared* pool capacity (see
        :class:`~repro.stream.pacer.SharedCapacity`), so a session only
        counts as overrunning when it misses its fair share of the pool.
        ``None`` holds every session at the scenario's ``hop_batch``.
    steal:
        Work stealing on the forked pool (default on; ``False`` restores
        static shard pinning — the E19 baseline).
    snapshot_path, snapshot_every:
        Periodic health trail: every ``snapshot_every`` supervisor steps
        (and on the final step), append one line to ``snapshot_path`` —
        the JSON projection of :meth:`report` plus the step index — so a
        long soak leaves a queryable JSONL history instead of only a final
        rollup.  ``snapshot_path`` alone snapshots every step.  A snapshot
        costs the frames, pacer records and budgets produced since the
        previous one plus the provisional merge tail (see
        :mod:`repro.city.report`), not the sessions' whole history; steps
        between snapshots pay nothing for it.  A row's overrun alerts over
        that tail may still change in later rows.
    """

    def __init__(
        self,
        scenario: CityScenario,
        *,
        workers: int = 1,
        max_shards_per_worker: int | None = None,
        pacer: PacerConfig | None = None,
        steal: bool = True,
        snapshot_path: str | Path | None = None,
        snapshot_every: int | None = None,
    ) -> None:
        if snapshot_every is not None:
            if snapshot_every < 1:
                raise ValueError("snapshot_every must be >= 1")
            if snapshot_path is None:
                raise ValueError("snapshot_every needs snapshot_path")
        self.scenario = scenario
        self.manager = SessionManager(
            workers=workers,
            max_shards_per_worker=max_shards_per_worker,
            pacer=pacer,
            steal=steal,
        )
        self.snapshot_path = Path(snapshot_path) if snapshot_path is not None else None
        self.snapshot_every = int(snapshot_every) if snapshot_every is not None else 1
        self.n_snapshots = 0
        rngs = corridor_rngs(scenario)
        for spec in scenario.corridors:
            self.manager.submit(spec, scenario, rngs[spec.corridor_id])
        self._health = CityRollup(self.manager.sessions.values())
        self._step = 0
        self._closed = False

    @property
    def step_index(self) -> int:
        """The next supervisor step to execute."""
        return self._step

    @property
    def done(self) -> bool:
        """Whether every session has left (the run is complete)."""
        return all(s.state == "left" for s in self.manager.sessions.values())

    def step(self) -> CityStepResult:
        """Execute one supervisor step (leave, admit, step, drain)."""
        if self._closed:
            raise RuntimeError("supervisor is closed")
        idx = self._step
        left: list[str] = []
        joined: list[str] = []

        # 0. Respawn workers that died since the last step (crash *between*
        # steps) before anything is admitted or scheduled onto the pool;
        # the lost shards resume from their checkpoints on their next step.
        # Crashes *during* a step surface out of step_end and are handled
        # in _collect.
        self.manager.recover()

        # 1. Sessions that drained last step leave now.
        for session in self.manager.in_state(DRAINING):
            self.manager.leave(session, step_index=idx)
            left.append(session.corridor_id)

        # 2. Admit sessions whose join step has arrived.
        for session in self.manager.in_state(SUBMITTED):
            if session.spec.join_step <= idx:
                self.manager.admit(session, step_index=idx)
                joined.append(session.corridor_id)

        # 3. Two-phase step over every live session: dispatch all hop
        # batches to the shared pool first, then collect — sessions
        # overlap on the workers instead of serializing.
        live = [s for s in self.manager.live() if not s.stream.done]
        for session in live:
            session.stream.step_begin()
        updates: dict[str, int] = {}
        for session in live:
            updates[session.corridor_id] = len(self._collect(session).updates)

        # 4. Exhausted sessions and sessions at their leave step drain;
        # they spend one step visible as draining, then leave (step 1).
        for session in self.manager.live():
            leave_step = session.spec.leave_step
            if session.done or (leave_step is not None and leave_step <= idx):
                self.manager.drain(session)

        self._step = idx + 1
        if self.snapshot_path is not None and (
            idx % self.snapshot_every == 0 or self.done
        ):
            self._snapshot(idx)
        return CityStepResult(
            step_index=idx,
            joined=tuple(joined),
            left=tuple(left),
            updates=updates,
            n_live=len(self.manager.live()),
        )

    def _snapshot(self, idx: int) -> None:
        """Append one JSONL health line (step index + city report).

        Incremental: the warm rollups consume only what arrived since the
        previous snapshot (plus the provisional merge tail).
        """
        row = {"step": idx, **city_report_json(self.report())}
        with open(self.snapshot_path, "a", encoding="utf-8") as f:
            f.write(json.dumps(row) + "\n")
        self.n_snapshots += 1

    def _collect(self, session: CitySession):
        """``step_end`` with crash recovery: respawn, retry once.

        The stream keeps its in-flight step pending across a failed
        collect, and :meth:`~repro.stream.pool.ShardWorkerPool.recover`
        re-queues the lost step commands; the retry dispatches them with
        the shards' checkpoints, so it returns the same step the crash
        swallowed.
        """
        try:
            return session.stream.step_end()
        except WorkerCrashed:
            self.manager.recover()
            return session.stream.step_end()

    def run(
        self,
        *,
        on_step: Callable[[CityStepResult], None] | None = None,
        max_steps: int | None = None,
    ) -> CityReport:
        """Step until every session has left; return the final city report.

        ``on_step`` is called after each supervisor step (the CLI's live
        status line).  ``max_steps`` bounds the loop for soak harnesses;
        the run stops early (without finalizing sessions) when hit.
        """
        while not self.done:
            if max_steps is not None and self._step >= max_steps:
                break
            result = self.step()
            if on_step is not None:
                on_step(result)
        return self.report()

    def report(self) -> CityReport:
        """City-wide health rollup over every session, live or left (warm:
        costs what the sessions produced since the previous report)."""
        pool = self.manager.pool
        return city_report(
            self._health,
            n_worker_restarts=self.manager.n_worker_restarts,
            pool_workers=pool.workers if pool is not None else 0,
        )

    def close(self) -> None:
        """Leave open sessions and shut the shared pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.manager.close()

    def __enter__(self) -> "CitySupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
