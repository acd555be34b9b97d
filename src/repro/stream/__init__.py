"""Real-time ingest runtime: chunks in, per-hop perception out.

The paper's headline requirement is "real-time low-latency operation"; the
offline engines of :mod:`repro.core` consume *complete* recordings.  This
package closes that gap with a hop-clocked runtime over the same shared
:class:`~repro.core.hop.HopKernel`:

- :mod:`repro.stream.ring` — fixed-capacity multichannel
  :class:`RingBuffer` (O(frame) memory, overflow accounting) and its
  :class:`SharedRingBuffer` twin over ``multiprocessing.shared_memory``
  (same semantics, pages visible across processes);
- :mod:`repro.stream.source` — :class:`Chunk` / :class:`ChunkSource`
  producer interface and the :class:`RecordingChunkSource` replay feed
  (with simulated drops and delivery jitter);
- :mod:`repro.stream.engine` — :class:`NodeIngest` (source → ring → hop
  blocks with late/dropped-chunk accounting), one per node of a session;
- :mod:`repro.stream.pacer` — the adaptive hop-batch governor
  (:class:`Pacer`): overruns widen a shard's batch, headroom shrinks it,
  optional monotonic-clock pacing replays at capture speed; a
  :class:`SharedCapacity` handle scales budgets by a shared pool's
  oversubscription;
- :mod:`repro.stream.budget` — the :class:`StageBudget` detect-to-update
  latency decomposition stamped on every fused update;
- :mod:`repro.stream.pool` — the :class:`ShardWorkerPool` of forked
  workers serving shard runners of *many* sessions (register/step/
  release/recover protocol over each worker's pipe; worker death surfaces
  as :class:`WorkerCrashed`);
- :mod:`repro.stream.parallel` — the fleet session runtime
  (:class:`ParallelFleetStream`, also :class:`repro.fleet.FleetStream`),
  the one session that runs the kernel on live audio: shard runners
  in-process, registered on a private forked pool, or registered on a
  shared one, each step answering with a :class:`HopReply`.

**Work stealing and shard migration.**  The pool does not pin shards to
the worker that registered them: each worker has a deque of hop-step work
items, and a worker that drains its own deque *steals* a registered shard
from the deepest queue.  A steal sends nothing: it re-homes the shard's
queued items, and the shard's next step command to the thief carries its
latest per-step ``state_dict()`` checkpoint (which the main process holds
from the shard's last step reply), preceded by the registration payload
if the thief never held the runner.  :meth:`ShardWorkerPool.migrate` and
:meth:`ShardWorkerPool.recover` after a worker death take the same path,
so fused tracks are bit-identical whether a shard ran its whole session
on one worker or migrated a dozen times.  One skewed corridor can no
longer stall its neighbours while other workers idle (``steal=False``
restores static pinning, which is what a session's private pool uses).  Pool pressure
(queue depth + steal rate) feeds :class:`SharedCapacity`, which scales
every paced session's ``min_batch`` city-wide under sustained backlog.

Execution modes of the one fleet session, slowest-coupling first:

===========  ==========================================================
in-process   ``ParallelFleetStream(workers=0)`` — the default of
             :meth:`repro.fleet.FleetScheduler.stream`: every shard's
             :class:`~repro.stream.parallel._ShardRunner` steps in the
             main process.  Lowest overhead; wins for small fleets and
             short captures.
process      ``workers >= 1`` — the session forks a private
             :class:`ShardWorkerPool` and registers each shard's runner
             on it (pipelines pickle once per shard), fed through
             shared-memory rings; the per-hop Python cost parallelizes
             too.  Meant for many-node fleets and dense (per-hop
             localization) workloads; costs a fork, one registration
             per shard, and one pipe round-trip per shard per step.
supervisor   :class:`repro.city.CitySupervisor` — many concurrent
             corridor sessions multiplexed onto one
             :class:`ShardWorkerPool`, sessions joining and leaving
             mid-run, per-session pacing judged against the shared
             capacity, city-wide health rollups on top.
===========  ==========================================================

Every mode runs the same runner code through the same
:class:`~repro.core.hop.HopKernel` and produces bit-identical per-node
results and fused tracks at every worker count — including every session
of a shared-pool city run vs the same corridor standalone — with the same
association decisions as the offline :meth:`repro.fleet.FleetScheduler.run`
pass.  Across hop-batch schedules the same holds only without sample taps:
streamed multilateration reads a window clamped to the audio already
ingested, which runs up to a hop batch ahead of the fusion frontier, so a
tap session's tracks can depend on the batches an adaptive pacer chose.
"""

from repro.stream.engine import IngestStats, NodeIngest
from repro.stream.ring import RingBuffer, SharedRingBuffer
from repro.stream.source import Chunk, ChunkSource, RecordingChunkSource
from repro.stream.budget import (
    STAGES,
    StageBudget,
    format_stage_summary,
    percentile_ms,
    summarize_budgets,
)
from repro.stream.pacer import Pacer, PacerConfig, PacerStats, SharedCapacity
from repro.stream.pool import ShardWorkerPool, WorkerCrashed
from repro.stream.tap import SampleTap, mlat_tap_capacity

# Imported last: parallel pulls in repro.fleet.fusion, which may re-enter
# this package mid-initialization — everything it needs is already bound.
from repro.stream.parallel import (
    HopReply,
    ParallelFleetStream,
    ParallelStreamResult,
    parallel_supported,
)

__all__ = [
    "Chunk",
    "ChunkSource",
    "HopReply",
    "IngestStats",
    "NodeIngest",
    "Pacer",
    "PacerConfig",
    "PacerStats",
    "ParallelFleetStream",
    "ParallelStreamResult",
    "RecordingChunkSource",
    "RingBuffer",
    "STAGES",
    "SampleTap",
    "SharedCapacity",
    "SharedRingBuffer",
    "ShardWorkerPool",
    "StageBudget",
    "WorkerCrashed",
    "format_stage_summary",
    "parallel_supported",
    "mlat_tap_capacity",
    "percentile_ms",
    "summarize_budgets",
]
