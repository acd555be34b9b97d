"""Shared pool of forked shard workers: one pool, many sessions, stealing.

One set of forked workers serves the shard runners of **many sessions**.
A corridor session that forks its own private pool and the sessions of a
city sharing one pool run on the same :class:`ShardWorkerPool` machinery,
which can schedule them by **work stealing** instead of static pinning:

- **runners are registered.**  Every session — one that forks a private
  pool as much as one that joins a shared pool mid-run — registers each
  shard runner over the worker's pipe: the runner pickles its pipelines
  once; its :class:`~repro.stream.ring.SharedRingBuffer` rings pickle by
  segment name, so audio stays zero-copy.  Registration is the only way a
  runner reaches a worker, so every shard can be recovered and migrated.
- **steps are per-shard work items on per-worker deques.**
  ``step_send(session)`` enqueues one hop-step item per shard onto its
  current worker's queue and keeps at most :data:`_MAX_INFLIGHT` commands
  in each worker's pipe; ``step_collect(session)`` pumps replies until the
  session's oldest step generation completes.  A worker that drains its
  own queue **steals a shard from the deepest queue** (work stealing).
  Shards with a step already in flight are never stolen.  ``steal=False``
  keeps the static pinning (the E19 baseline, and a private session
  pool's placement).
- **a shard's checkpoint rides its next step.**  Moving a shard is main-side
  bookkeeping only: a steal, :meth:`~ShardWorkerPool.migrate` and
  :meth:`~ShardWorkerPool.recover` re-home its queued items and send
  nothing.  The main process holds every shard's latest checkpoint (each
  step reply carries one), so the next step command sent to a worker that
  did not run the shard's previous step carries that checkpoint, and the
  worker loads it before stepping; a worker that never held the shard gets
  its registration payload first, on the same FIFO pipe.  Workers keep
  every runner they were sent, so a shard returning to a worker ships no
  payload, only the checkpoint.  Fused tracks stay bit-identical whether or
  not a shard ever moved.
- **step replies ride the worker pipe.**  A step's reply travels back
  pickled, as ``("stepped", session, shard, reply, checkpoint)``, on the
  same pipe that carries the commands.  Shared-memory reply slots were
  tried and removed: decoding a reply out of them cost the main process
  more than unpickling it.
- **worker death is a typed, attributed error.**  Any pipe operation on a
  dead worker raises :class:`WorkerCrashed` naming the shards that worker
  owned.  :meth:`ShardWorkerPool.recover` forks a replacement worker and
  re-queues the lost in-flight items; their next dispatch registers the
  runners and carries their last checkpoints, so a crash between steps
  loses nothing and a crash mid-step re-runs at most the in-flight hop
  batches.
- **pressure is observable.**  Given a :class:`~repro.stream.pacer.
  SharedCapacity`, every ``step_send`` feeds the pool's backlog and steal
  rate into :meth:`~repro.stream.pacer.SharedCapacity.note_pressure`, so
  the city's pacers can widen ``min_batch`` under sustained pressure (see
  :mod:`repro.stream.pacer`).

The pool is deliberately ignorant of what a "runner" is: anything
picklable with ``step() -> reply``, ``state_dict()`` and
``load_state_dict(state)`` works; replies are handed back exactly as the
runner returned them.  :mod:`repro.stream.parallel` provides the fleet
runner and its reply format; :mod:`repro.city` builds the multi-session
supervisor on top.
"""

from __future__ import annotations

import multiprocessing
import pickle
from collections import Counter, deque
from multiprocessing.connection import wait as _conn_wait
from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["SessionStats", "WorkerCrashed", "ShardWorkerPool"]

# Step commands each worker holds in its pipe at once.  Two keeps a worker
# busy while its previous reply crosses back (pipelining); a worker whose
# window is full with items still queued behind it is what makes it a steal
# victim (see ShardWorkerPool._steal_into).
_MAX_INFLIGHT = 2


class WorkerCrashed(RuntimeError):
    """A forked shard worker died (killed, OOM, segfault) mid-session.

    Attributes
    ----------
    worker_index, pid, exitcode:
        Which worker process, and how it exited.
    shards:
        ``"session/shard"`` labels of every shard the dead worker owned —
        the work that stalled with it.
    """

    def __init__(
        self,
        worker_index: int,
        pid: int | None,
        exitcode: int | None,
        shards: tuple[str, ...],
    ) -> None:
        self.worker_index = int(worker_index)
        self.pid = pid
        self.exitcode = exitcode
        self.shards = tuple(shards)
        owned = ", ".join(self.shards) if self.shards else "(no shards)"
        super().__init__(
            f"shard worker {self.worker_index} (pid={pid}) died "
            f"with exit code {exitcode}; owned shards: {owned}"
        )


@dataclass(frozen=True)
class _WorkerError:
    """A worker-side traceback, shipped over the pipe instead of a reply."""

    traceback: str


def _shard_label(sid: str, key: int) -> str:
    return f"{sid}/shard{key}"


def _pool_worker_main(conn) -> None:
    """Worker loop: register/step/release runners on command.

    ``owned`` maps ``(session_id, shard_key)`` to a runner, registered over
    the pipe and kept until its session is released, even while the shard
    runs elsewhere.  A step command ``("step", sid, key, state)`` with a
    non-``None`` ``state`` loads that pickled checkpoint before stepping:
    the shard's previous step ran on another worker.  Every step reply
    carries the runner's pickled ``state_dict()`` checkpoint.  Every
    command gets exactly one reply (``("ok",)``, ``("stepped", ...)`` or
    :class:`_WorkerError`), so the main side can treat the pipe as a FIFO
    of request/response pairs.  ``None`` shuts the worker down.
    """
    import traceback

    owned: dict = {}
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                break
            try:
                cmd = msg[0]
                if cmd == "step":
                    _, sid, key, state = msg
                    runner = owned[(sid, key)]
                    if state is not None:
                        runner.load_state_dict(pickle.loads(state))
                    reply = runner.step()
                    state = pickle.dumps(runner.state_dict(), protocol=pickle.HIGHEST_PROTOCOL)
                    conn.send(("stepped", sid, key, reply, state))
                elif cmd == "register":
                    _, sid, key, blob = msg
                    owned[(sid, key)] = pickle.loads(blob)
                    conn.send(("ok",))
                elif cmd == "release":
                    sid = msg[1]
                    for k in [k for k in owned if k[0] == sid]:
                        owned.pop(k, None)
                    conn.send(("ok",))
                else:  # pragma: no cover - protocol misuse
                    conn.send(_WorkerError(f"unknown command {cmd!r}"))
            except Exception:
                conn.send(_WorkerError(traceback.format_exc()))
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


@dataclass
class SessionStats:
    """One session's pool-scheduling accounting.

    ``depths`` tallies the pool backlog sampled at each of the session's
    dispatches (``depth -> count``), so it grows with the distinct depths
    seen, not with the session's length.  A fresh record is the all-zero
    accounting of a session that never dispatched (or runs in-process).
    """

    n_steals: int = 0
    n_migrations: int = 0
    depths: Counter = field(default_factory=Counter)

    def note_depth(self, depth: int) -> None:
        self.depths[depth] += 1

    def summary(self) -> dict:
        """``n_steals``, ``n_migrations`` and ``queue_depth_p95``: the
        nearest-rank p95 of the tallied depths (the value at index
        ``min(n - 1, int(0.95 * n))`` of the sorted samples), read off the
        counts in O(distinct depths); 0.0 before any dispatch."""
        n = sum(self.depths.values())
        rank, seen, p95 = min(n - 1, int(0.95 * n)), 0, 0.0
        for depth in sorted(self.depths):
            seen += self.depths[depth]
            if seen > rank:
                p95 = float(depth)
                break
        return {
            "n_steals": self.n_steals,
            "n_migrations": self.n_migrations,
            "queue_depth_p95": p95,
        }


class ShardWorkerPool:
    """A fixed set of forked workers serving shard runners of many sessions.

    Parameters
    ----------
    workers:
        Worker process count (>= 1; a zero-worker "pool" is just in-process
        execution and needs no pool object).
    max_shards_per_worker:
        Admission-control knob for :meth:`saturated`: a supervisor should
        degrade new sessions to in-process execution once admitting them
        would push the pool past this many registered shards per worker.
        ``None`` disables the check (never saturated).
    steal:
        Enable work stealing (default).  ``False`` pins every shard to the
        worker that registered it — the scheduling baseline the E19 bench
        measures against.
    capacity:
        Optional :class:`~repro.stream.pacer.SharedCapacity` fed the
        pool's backlog and steal rate each ``step_send``.

    Every step reply comes back pickled over the worker's pipe, with the
    shard's checkpoint, and the pool keeps the latest one per shard.  A
    shard moves (steal, :meth:`migrate`, :meth:`recover`) by bookkeeping
    alone: its next step command, sent to a worker that did not run its
    previous step, carries that checkpoint, preceded by the registration
    payload when the worker holds no copy of the runner.  The pool must be
    closed (:meth:`close`) to join its workers; sessions should
    :meth:`release` themselves when they finish so their slots free up for
    later joiners.
    """

    def __init__(
        self,
        workers: int,
        *,
        max_shards_per_worker: int | None = None,
        steal: bool = True,
        capacity=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1 (use in-process execution for 0)")
        if max_shards_per_worker is not None and max_shards_per_worker < 1:
            raise ValueError("max_shards_per_worker must be >= 1 (or None)")
        self.workers = int(workers)
        self.max_shards_per_worker = max_shards_per_worker
        self.steal = bool(steal)
        self.capacity = capacity
        self._ctx = multiprocessing.get_context("fork")
        self._procs: list = [None] * self.workers
        self._conns: list = [None] * self.workers
        # Main-side scheduling state.  Per shard: its current worker, its
        # registration payload, its latest committed checkpoint, the
        # workers holding a copy of its runner and the worker its last
        # step was sent to.  Per worker: the deque of queued (session,
        # shard) hop-step items, the FIFO of items whose step command is in
        # the pipe, and the FIFO of *all* expected replies (("ok",) acks
        # interleave with ("step", sid, key) entries in command order — the
        # pipe is a FIFO, so one queue disambiguates them).
        self._assign: dict[tuple[str, int], int] = {}
        self._payloads: dict[tuple[str, int], bytes] = {}
        self._checkpoints: dict[tuple[str, int], bytes] = {}
        self._holders: dict[tuple[str, int], set[int]] = {}
        self._latest: dict[tuple[str, int], int] = {}
        self._queues: list[deque] = [deque() for _ in range(self.workers)]
        self._inflight: list[deque] = [deque() for _ in range(self.workers)]
        self._expect: list[deque] = [deque() for _ in range(self.workers)]
        # Per-session step generations: each step_send appends one
        # {pending keys, replies} record; step_collect completes the oldest.
        self._gens: dict[str, deque] = {}
        self._session_stats: dict[str, SessionStats] = {}
        self.n_steals = 0
        self.n_migrations = 0
        self._noted_steals = 0
        self._closed = False
        for w in range(self.workers):
            self._spawn(w)

    # ------------------------------------------------------------------ API

    @property
    def load(self) -> int:
        """Registered shards across every session currently on the pool."""
        return len(self._assign)

    def saturated(self, incoming: int = 1) -> bool:
        """Whether admitting ``incoming`` more shards would overshoot the
        pool's capacity (``workers * max_shards_per_worker``).

        Admission control must count the shards a joining session is
        *about to* register, not only the load already on the pool — the
        old ``load >= capacity`` check let a join burst overshoot
        ``max_shards_per_worker`` by a whole session's shard count between
        steps.  Callers pass ``incoming=len(shards)``; the default of 1
        preserves the "would one more shard fit" reading.
        """
        if self.max_shards_per_worker is None:
            return False
        return self.load + max(0, int(incoming)) > self.workers * self.max_shards_per_worker

    def sessions(self) -> list[str]:
        """Session ids currently registered, sorted."""
        return sorted({sid for sid, _ in self._assign})

    def session_stats(self, session_id: str) -> dict:
        """Scheduling accounting for one session (see
        :meth:`SessionStats.summary`); all zero for an unknown session."""
        stats = self._session_stats.get(session_id) or SessionStats()
        return stats.summary()

    def register(self, session_id: str, runners: Mapping[int, object]) -> None:
        """Register a joining session's shard runners (least-loaded workers).

        The runners are pickled to their workers — pipelines once, rings by
        shared-memory segment name — and checkpoint their mutable state on
        every step, so a shard's next step can resume it on any worker
        (after a steal, :meth:`migrate` or :meth:`recover`).
        """
        self._check_open()
        if not runners:
            raise ValueError("need at least one runner")
        if any(sid == session_id for sid, _ in self._assign):
            raise ValueError(f"session {session_id!r} is already registered")
        if any(self._inflight[w] or self._queues[w] for w in range(self.workers)):
            raise RuntimeError("cannot register while steps are in flight")
        loads = [0] * self.workers
        for w in self._assign.values():
            loads[w] += 1
        for key in sorted(runners):
            w = min(range(self.workers), key=lambda i: (loads[i], i))
            loads[w] += 1
            blob = pickle.dumps(runners[key], protocol=pickle.HIGHEST_PROTOCOL)
            shard = (session_id, int(key))
            self._expect[w].append(("ok",))
            self._send(w, ("register", session_id, int(key), blob))
            self._assign[shard] = w
            self._payloads[shard] = blob
            self._holders[shard] = {w}
        self._drain_acks()
        self._session_stats.setdefault(session_id, SessionStats())

    def release(self, session_id: str) -> None:
        """Drop a session's runners from every worker that holds a copy
        (idempotent)."""
        if self._closed:
            return
        if any(self._inflight[w] for w in range(self.workers)):
            raise RuntimeError("cannot release while steps are in flight")
        targets: set[int] = set()
        for (sid, _), holders in self._holders.items():
            if sid == session_id:
                targets |= holders
        for w in sorted(targets):
            # A dead worker has nothing left to release; recovery (or the
            # pool's close) handles its bookkeeping.
            if self._procs[w] is not None and self._procs[w].is_alive():
                try:
                    self._expect[w].append(("ok",))
                    self._send(w, ("release", session_id))
                except WorkerCrashed:
                    self._expect[w].pop()
        self._drain_acks()
        for shard in [s for s in self._assign if s[0] == session_id]:
            self._assign.pop(shard, None)
            self._payloads.pop(shard, None)
            self._checkpoints.pop(shard, None)
            self._holders.pop(shard, None)
            self._latest.pop(shard, None)
        for q in self._queues:
            if any(item[0] == session_id for item in q):
                remaining = [item for item in q if item[0] != session_id]
                q.clear()
                q.extend(remaining)
        self._gens.pop(session_id, None)
        self._session_stats.pop(session_id, None)

    def owners(self, session_id: str) -> list[int]:
        """Workers owning at least one of the session's shards, sorted."""
        return sorted({w for (sid, _), w in self._assign.items() if sid == session_id})

    def step_send(self, session_id: str) -> None:
        """Enqueue one hop-step work item per shard of the session.

        Returns immediately; the workers compute while the caller moves on
        (e.g. to ``step_send`` other sessions).  Pair with
        :meth:`step_collect`.
        """
        self._check_open()
        keys = sorted(key for (sid, key) in self._assign if sid == session_id)
        if not keys:
            return
        gen = {"pending": set(keys), "replies": {}}
        self._gens.setdefault(session_id, deque()).append(gen)
        for key in keys:
            self._queues[self._assign[(session_id, key)]].append((session_id, key))
        for w in range(self.workers):
            self._fill(w)
        stats = self._session_stats.setdefault(session_id, SessionStats())
        backlog = sum(
            len(self._queues[w]) + len(self._inflight[w]) for w in range(self.workers)
        )
        stats.note_depth(
            max(len(self._queues[w]) + len(self._inflight[w]) for w in range(self.workers))
        )
        if self.capacity is not None:
            steals = self.n_steals - self._noted_steals
            self._noted_steals = self.n_steals
            self.capacity.note_pressure(backlog, steals)

    def step_collect(self, session_id: str) -> dict[int, object]:
        """Complete the session's oldest in-flight step; ``key -> reply``.

        Raises :class:`WorkerCrashed` when a worker holding one of the
        step's shards died; already-received replies stay in the step's
        generation, so after :meth:`recover` a retry consumes them without
        re-stepping.
        """
        self._check_open()
        gens = self._gens.get(session_id)
        if not gens:
            return {}
        gen = gens[0]
        # Items recover() re-queued on a respawned worker dispatch here.
        for w in range(self.workers):
            if self._queues[w] and not self._inflight[w]:
                self._fill(w)
        while gen["pending"]:
            if not self._pump():
                self._raise_if_stalled()
        gens.popleft()
        if not gens:
            self._gens.pop(session_id, None)
        return {key: gen["replies"][key] for key in sorted(gen["replies"])}

    def step(self, session_id: str) -> dict[int, object]:
        """One synchronous step: :meth:`step_send` + :meth:`step_collect`."""
        self.step_send(session_id)
        return self.step_collect(session_id)

    def migrate(self, session_id: str, key: int, to: int) -> None:
        """Forcibly move one registered shard to worker ``to``.

        The same move work stealing makes, exposed for tests and explicit
        rebalancing: the shard's queued items re-home, and its next step on
        ``to`` carries its checkpoint.  Refuses shards with a step in
        flight.
        """
        self._check_open()
        shard = (session_id, int(key))
        if shard not in self._assign:
            raise ValueError(f"unknown shard {_shard_label(session_id, key)}")
        if not 0 <= int(to) < self.workers:
            raise ValueError(f"worker index {to} out of range")
        src = self._assign[shard]
        if any(item == shard for item in self._inflight[src]):
            raise RuntimeError("cannot migrate a shard with a step in flight")
        if src == int(to):
            return
        self._migrate(shard, src, int(to), stolen=False)
        self._fill(int(to))

    def recover(self) -> int:
        """Respawn dead workers; returns how many.

        Sends nothing to the respawned worker.  Hop-step items that were in
        flight on a dead worker are re-queued at the *front* of its deque
        (oldest first), so a pending :meth:`step_collect` can simply be
        retried: the next dispatch of each shard registers its runner from
        the registration payload and carries its last committed checkpoint.
        """
        self._check_open()
        restarted = 0
        for w in range(self.workers):
            proc = self._procs[w]
            if proc is None or proc.is_alive():
                continue
            pending = list(self._inflight[w])
            self._inflight[w].clear()
            self._expect[w].clear()
            # The respawned worker holds no runner and ran no step.
            for holders in self._holders.values():
                holders.discard(w)
            for shard in [s for s, last in self._latest.items() if last == w]:
                del self._latest[shard]
            try:
                self._conns[w].close()
            except OSError:  # pragma: no cover
                pass
            proc.join(timeout=1.0)
            self._spawn(w)
            for item in reversed(pending):
                self._queues[w].appendleft(item)
            restarted += 1
        return restarted

    def close(self) -> None:
        """Shut every worker down and join it (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._procs = [None] * self.workers
        self._conns = [None] * self.workers
        self._assign.clear()
        self._payloads.clear()
        self._checkpoints.clear()
        self._holders.clear()
        self._latest.clear()
        self._gens.clear()
        self._session_stats.clear()
        for q in self._queues:
            q.clear()
        for q in self._inflight:
            q.clear()
        for q in self._expect:
            q.clear()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- internals

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("worker pool is closed")

    def _spawn(self, w: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn,),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[w] = proc
        self._conns[w] = parent_conn

    def _crashed(self, w: int) -> WorkerCrashed:
        proc = self._procs[w]
        shards = tuple(
            _shard_label(sid, key)
            for (sid, key), owner in sorted(self._assign.items())
            if owner == w
        )
        return WorkerCrashed(
            w,
            None if proc is None else proc.pid,
            None if proc is None else proc.exitcode,
            shards,
        )

    def _send(self, w: int, msg) -> None:
        try:
            self._conns[w].send(msg)
        except (OSError, BrokenPipeError) as exc:
            raise self._crashed(w) from exc

    def _alive(self, w: int) -> bool:
        return self._procs[w] is not None and self._procs[w].is_alive()

    # ---------------------------------------------------------- scheduling

    def _fill(self, w: int) -> None:
        """Keep worker ``w``'s pipe at the in-flight depth: dispatch from
        its own queue, stealing a shard from the deepest queue when dry.

        A worker that holds no copy of the shard's runner gets the
        registration payload first; a step sent to a worker other than the
        one that got the shard's previous step carries the shard's latest
        checkpoint (no step of a movable shard is in flight, so the
        committed checkpoint is the latest).
        """
        if self._closed or not self._alive(w):
            return
        while len(self._inflight[w]) < _MAX_INFLIGHT:
            if not self._queues[w]:
                if not self.steal or not self._steal_into(w):
                    return
            shard = self._queues[w].popleft()
            sid, key = shard
            self._inflight[w].append(shard)
            holders = self._holders[shard]
            if w not in holders:
                holders.add(w)
                self._expect[w].append(("ok",))
                self._send(w, ("register", sid, key, self._payloads[shard]))
            state = None if self._latest.get(shard) == w else self._checkpoints.get(shard)
            self._latest[shard] = w
            self._expect[w].append(("step", sid, key))
            self._send(w, ("step", sid, key, state))

    def _steal_into(self, w: int) -> bool:
        """Move one stealable shard from the deepest queue onto worker
        ``w``; returns whether anything moved.

        Only workers whose in-flight window is already **full** qualify as
        victims: a queued item behind a full pipe means the worker is
        genuinely saturated, while a queued item with spare in-flight
        capacity merely means the dispatch loop has not reached that worker
        yet (``step_send`` fills workers in index order) and it would run
        the item itself immediately.  Only shards with no step in flight
        can move — a mid-step migration would fork the runner's state
        history.
        """
        victim, depth = None, 0
        for v in range(self.workers):
            if (
                v != w
                and len(self._inflight[v]) >= _MAX_INFLIGHT
                and len(self._queues[v]) > depth
            ):
                victim, depth = v, len(self._queues[v])
        if victim is None:
            return False
        inflight = set(self._inflight[victim])
        candidates: list[tuple[str, int]] = []
        seen: set = set()
        for item in self._queues[victim]:
            if item in seen:
                continue
            seen.add(item)
            if item in inflight:
                continue
            candidates.append(item)
        if not candidates:
            return False
        # Prefer a shard this worker already holds: its registration
        # payload need not ship again.
        shard = next((c for c in candidates if w in self._holders[c]), candidates[0])
        self._migrate(shard, victim, w, stolen=True)
        return True

    def _migrate(self, shard: tuple[str, int], src: int, dst: int, *, stolen: bool) -> None:
        """Move ``shard`` from ``src`` to ``dst``: re-home its queued items
        and count the move.  Sends nothing; the shard's next step on
        ``dst`` carries its checkpoint (see :meth:`_fill`)."""
        moved = [item for item in self._queues[src] if item == shard]
        if moved:
            remaining = [item for item in self._queues[src] if item != shard]
            self._queues[src].clear()
            self._queues[src].extend(remaining)
        self._queues[dst].extend(moved)
        self._assign[shard] = dst
        self.n_migrations += 1
        stats = self._session_stats.setdefault(shard[0], SessionStats())
        stats.n_migrations += 1
        if stolen:
            self.n_steals += 1
            stats.n_steals += 1

    # ------------------------------------------------------------- pumping

    def _pump(self) -> bool:
        """Process ready worker messages (bounded wait); returns False only
        when no reply is expected from any worker."""
        waiting = [w for w in range(self.workers) if self._expect[w]]
        if not waiting:
            return False
        ready = _conn_wait([self._conns[w] for w in waiting], timeout=0.2)
        if not ready:
            for w in waiting:
                if not self._alive(w):
                    raise self._crashed(w)
            return True  # workers alive, replies still cooking
        by_conn = {self._conns[w]: w for w in waiting}
        for conn in ready:
            self._handle_message(by_conn[conn])
        return True

    def _raise_if_stalled(self) -> None:
        """Called when a collect is pending but nothing is expected: a dead
        worker is sitting on queued/in-flight items (raise it), or the
        scheduler state is inconsistent (fail fast, don't spin)."""
        for w in range(self.workers):
            if not self._alive(w) and (
                self._expect[w] or self._inflight[w] or self._queues[w]
            ):
                raise self._crashed(w)
        raise RuntimeError(  # pragma: no cover - scheduler invariant
            "step stalled: replies pending but no worker owes one"
        )

    def _handle_message(self, w: int) -> None:
        try:
            msg = self._conns[w].recv()
        except (EOFError, OSError) as exc:
            raise self._crashed(w) from exc
        exp = self._expect[w].popleft() if self._expect[w] else None
        if isinstance(msg, _WorkerError):
            if exp is not None and exp[0] == "step":
                if self._inflight[w] and self._inflight[w][0] == (exp[1], exp[2]):
                    self._inflight[w].popleft()
                for gen in self._gens.get(exp[1], ()):
                    gen["pending"].discard(exp[2])
            raise RuntimeError("shard worker failed:\n" + msg.traceback)
        if exp is None or not (isinstance(msg, tuple) and msg):
            raise RuntimeError(  # pragma: no cover - protocol misuse
                f"unexpected worker reply: {msg!r}"
            )
        if exp[0] == "ok":
            if msg != ("ok",):  # pragma: no cover - protocol misuse
                raise RuntimeError(f"unexpected worker reply: {msg!r}")
            return
        if msg[0] != "stepped":  # pragma: no cover - protocol misuse
            raise RuntimeError(f"unexpected worker reply: {msg!r}")
        _, sid, key, reply, state = msg
        if (sid, key) != (exp[1], exp[2]):  # pragma: no cover - protocol misuse
            raise RuntimeError(
                f"out-of-order step reply: got {_shard_label(sid, key)}, "
                f"expected {_shard_label(exp[1], exp[2])}"
            )
        if self._inflight[w] and self._inflight[w][0] == (sid, key):
            self._inflight[w].popleft()
        # Commit the checkpoint immediately (not at collect time): the
        # worker's runner has already advanced past this step, so a move or
        # a crash from here on must resume from *this* state or the next
        # step would fork the shard's history.
        self._checkpoints[(sid, key)] = state
        for gen in self._gens.get(sid, ()):
            if key in gen["pending"]:
                gen["pending"].discard(key)
                gen["replies"][int(key)] = reply
                break
        self._fill(w)

    def _drain_acks(self) -> None:
        """Pump until no replies are outstanding (register/release paths,
        where only acks can be pending)."""
        try:
            while any(self._expect[w] for w in range(self.workers)):
                self._pump()
        except WorkerCrashed:
            # The dead worker's acks are gone; recover()/close() owns the
            # rest of its bookkeeping.
            pass
