"""Zero-copy hop-result transport: per-worker shared-memory reply slabs.

PR 6 moved *audio* out of the worker pipes (:class:`~repro.stream.ring.
SharedRingBuffer`), but every hop's **results** still round-tripped through
``Pipe`` pickling: one :class:`~repro.core.pipeline.FrameResult` batch per
shard per step, pickled in the worker and unpickled in the main process.
For a city of corridors stepping many shards per supervisor tick that is
the last per-hop serialization on the steady-state path.  This module
removes it:

- :class:`HopReply` is the reply payload itself (one shard's kernel pass:
  which nodes produced frames, their rows, and the pass's wall time), shared
  by the worker protocol and the session runtime.
- :class:`SharedResultSlab` is a per-worker ``multiprocessing.
  shared_memory`` segment holding a small number of preallocated reply
  slots (one per step command the pool allows in flight).  A worker encodes
  a :class:`HopReply` into a slot as flat ``int64``/``float64`` arrays and
  sends only the slot index over the pipe; the main process decodes
  straight out of the mapped pages.  **No pickling on either side.**
- Each slot carries a **seqlock**: the writer bumps the sequence word to
  odd before touching the payload and to a fresh even value after, so a
  torn read (a worker dying mid-write, a protocol bug replaying a stale
  slot) is *detectable* instead of silently wrong.
- Strings (node ids, class labels) are interned worker-side by a
  :class:`StringInterner`: the slot stores small integer ids and any ids
  minted this reply ride along in the pipe notification exactly once, so
  the steady state ships no strings at all.

The pipe remains the control channel and the fallback: replies that are
not :class:`HopReply` (custom test runners) or that exceed the slot
capacity travel pickled as before — correctness never depends on the slab,
only the steady-state cost does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import FrameResult

__all__ = ["HopReply", "StringInterner", "SharedResultSlab"]


@dataclass(frozen=True)
class HopReply:
    """One shard's kernel pass: which nodes produced frames, their rows,
    and the wall time the pass took (pop + kernel, seconds)."""

    nids: tuple[str, ...]
    results: dict[str, list[FrameResult]]
    kernel_s: float


class StringInterner:
    """Worker-side string→id table whose *new* entries ship exactly once.

    Node ids and class labels recur every hop; shipping them as integers
    keeps the slab payload fixed-width and the steady-state pipe traffic
    free of strings.  :meth:`intern` returns a stable id; :meth:`take_fresh`
    drains the ``(id, string)`` pairs minted since the last drain so the
    worker can attach them to the reply that first used them (the main
    process merges them into its mirror table before decoding).
    """

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._fresh: list[tuple[int, str]] = []

    def intern(self, s: str) -> int:
        i = self._ids.get(s)
        if i is None:
            i = len(self._ids)
            self._ids[s] = i
            self._fresh.append((i, s))
        return i

    def take_fresh(self) -> tuple[tuple[int, str], ...]:
        fresh = tuple(self._fresh)
        self._fresh.clear()
        return fresh


def _attach_nonowning(name: str, n_slots: int, slot_ints: int, slot_floats: int):
    """Unpickle target: attach to an existing slab without owning it.

    Same resource-tracker suppression as :func:`repro.stream.ring.
    _attach_nonowning` and for the same reason: the segment's lifetime
    belongs to the pool that created it, and an attaching process must
    neither steal the creator's tracker entry nor register a duplicate of
    its own (see the ring module for the full Python-version analysis).
    """
    from multiprocessing import resource_tracker, shared_memory

    register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register
    return SharedResultSlab(
        n_slots=n_slots, slot_ints=slot_ints, slot_floats=slot_floats, _shm=shm
    )


# Per-slot int64 header: seqlock word, used int64 count, used float64 count.
_SLOT_HDR = 3

# HopReply flat encoding, per slot:
#   i64: [n_nids, (nid_id, n_frames) x n_nids,
#         (frame_index, detected, label_id) x total_frames]
#   f64: [kernel_s, (confidence, azimuth, elevation) x total_frames]
_I64_PER_NID = 2
_I64_PER_FRAME = 3
_F64_PER_FRAME = 3


class SharedResultSlab:
    """Preallocated shared-memory reply slots for one pool worker.

    Parameters
    ----------
    n_slots:
        Reply slots (the pool's in-flight step depth: the main process
        decodes a slot before dispatching the command that could reuse it,
        so ``n_slots`` equal to the dispatch window is race-free by
        protocol — the seqlock is the tripwire, not the synchronization).
    slot_ints, slot_floats:
        Capacity of each slot's ``int64`` / ``float64`` payload region.
        The defaults comfortably cover an 8-node shard advancing a fully
        widened 64-hop batch (~1.6 K of each); an oversized reply falls
        back to the pipe rather than failing.

    The creating process (the pool, pre-fork) owns the segment and must
    :meth:`unlink` it; forked workers inherit the mapping, and pickling
    re-attaches by name without claiming ownership (``spawn``-safe).
    """

    def __init__(
        self,
        *,
        n_slots: int = 2,
        slot_ints: int = 8192,
        slot_floats: int = 8192,
        _shm=None,
    ) -> None:
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if slot_ints < _SLOT_HDR + 1 or slot_floats < 1:
            raise ValueError("slot capacities are too small for any reply")
        self.n_slots = int(n_slots)
        self.slot_ints = int(slot_ints)
        self.slot_floats = int(slot_floats)
        slot_bytes = (_SLOT_HDR + self.slot_ints + self.slot_floats) * 8
        nbytes = self.n_slots * slot_bytes
        created = _shm is None
        if created:
            from multiprocessing import shared_memory

            _shm = shared_memory.SharedMemory(create=True, size=nbytes)
        elif _shm.size < nbytes:
            raise ValueError(
                f"segment {_shm.name!r} holds {_shm.size} bytes, slab needs {nbytes}"
            )
        self._shm = _shm
        self._shm_name = _shm.name
        self._owner = created
        self._hdr: list[np.ndarray] = []
        self._i64: list[np.ndarray] = []
        self._f64: list[np.ndarray] = []
        for s in range(self.n_slots):
            base = s * slot_bytes
            self._hdr.append(
                np.ndarray((_SLOT_HDR,), dtype=np.int64, buffer=_shm.buf, offset=base)
            )
            self._i64.append(
                np.ndarray(
                    (self.slot_ints,),
                    dtype=np.int64,
                    buffer=_shm.buf,
                    offset=base + _SLOT_HDR * 8,
                )
            )
            self._f64.append(
                np.ndarray(
                    (self.slot_floats,),
                    dtype=np.float64,
                    buffer=_shm.buf,
                    offset=base + (_SLOT_HDR + self.slot_ints) * 8,
                )
            )
        if created:
            self.reset()

    def __reduce__(self):
        return (
            _attach_nonowning,
            (self._shm_name, self.n_slots, self.slot_ints, self.slot_floats),
        )

    @property
    def name(self) -> str:
        """The shared-memory segment name."""
        return self._shm_name

    def reset(self) -> None:
        """Zero every slot's seqlock (after a worker respawn: a crashed
        writer may have left a sequence word odd or a payload torn)."""
        for s in range(self.n_slots):
            self._hdr[s][:] = 0

    # ------------------------------------------------------------- encoding

    def try_write(self, slot: int, reply: HopReply, interner: StringInterner):
        """Encode ``reply`` into ``slot``; returns the fresh ``(id, string)``
        pairs to ship alongside, or ``None`` when the reply does not fit
        (caller falls back to the pipe).

        Pure ndarray stores — no pickling anywhere on this path.
        """
        n_nids = len(reply.nids)
        total = sum(len(reply.results[nid]) for nid in reply.nids)
        need_i = 1 + _I64_PER_NID * n_nids + _I64_PER_FRAME * total
        need_f = 1 + _F64_PER_FRAME * total
        if need_i > self.slot_ints or need_f > self.slot_floats:
            return None
        hdr, i64, f64 = self._hdr[slot], self._i64[slot], self._f64[slot]
        # Seqlock begin: force the word odd even if a predecessor crashed
        # mid-write and left it odd already.
        seq = int(hdr[0]) | 1
        hdr[0] = seq
        i64[0] = n_nids
        f64[0] = reply.kernel_s
        pos = 1
        for nid in reply.nids:
            i64[pos] = interner.intern(nid)
            i64[pos + 1] = len(reply.results[nid])
            pos += _I64_PER_NID
        fi = 1
        for nid in reply.nids:
            for r in reply.results[nid]:
                i64[pos] = r.frame_index
                i64[pos + 1] = 1 if r.detected else 0
                i64[pos + 2] = interner.intern(r.label)
                pos += _I64_PER_FRAME
                f64[fi] = r.confidence
                f64[fi + 1] = r.azimuth
                f64[fi + 2] = r.elevation
                fi += _F64_PER_FRAME
        hdr[1] = need_i
        hdr[2] = need_f
        hdr[0] = seq + 1  # seqlock end: fresh even value
        return interner.take_fresh()

    def read(self, slot: int, strings: dict[int, str]) -> HopReply:
        """Decode the :class:`HopReply` in ``slot`` using the main-side
        mirror of the worker's string table.

        The step protocol guarantees the slot is stable by the time the
        reply notification arrives; a torn or in-progress read therefore
        means a crashed writer or a protocol bug and raises rather than
        returning garbage.
        """
        hdr = self._hdr[slot]
        seq0 = int(hdr[0])
        if seq0 & 1:
            raise RuntimeError(f"slab slot {slot} is mid-write (torn reply)")
        n_i, n_f = int(hdr[1]), int(hdr[2])
        i64 = self._i64[slot][:n_i].copy()
        f64 = self._f64[slot][:n_f].copy()
        if int(hdr[0]) != seq0:
            raise RuntimeError(f"slab slot {slot} was overwritten during read")
        n_nids = int(i64[0])
        pos = 1
        counts: list[tuple[str, int]] = []
        for _ in range(n_nids):
            counts.append((strings[int(i64[pos])], int(i64[pos + 1])))
            pos += _I64_PER_NID
        fi = 1
        nids: list[str] = []
        results: dict[str, list[FrameResult]] = {}
        for nid, n_frames in counts:
            rows: list[FrameResult] = []
            for _ in range(n_frames):
                rows.append(
                    FrameResult(
                        frame_index=int(i64[pos]),
                        label=strings[int(i64[pos + 2])],
                        confidence=float(f64[fi]),
                        detected=bool(i64[pos + 1]),
                        azimuth=float(f64[fi + 1]),
                        elevation=float(f64[fi + 2]),
                    )
                )
                pos += _I64_PER_FRAME
                fi += _F64_PER_FRAME
            nids.append(nid)
            results[nid] = rows
        return HopReply(tuple(nids), results, float(f64[0]))

    # ------------------------------------------------------------- lifetime

    def close(self) -> None:
        """Release this process's mapping (the segment stays for others)."""
        if self._shm is None:
            return
        self._hdr = []
        self._i64 = []
        self._f64 = []
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover
            pass
        self._shm = None

    def unlink(self) -> None:
        """Destroy the segment (creator only; implies :meth:`close`)."""
        shm, self._shm = self._shm, None
        self._hdr = []
        self._i64 = []
        self._f64 = []
        if shm is None:
            try:
                from multiprocessing import shared_memory

                shm = shared_memory.SharedMemory(name=self._shm_name)
            except (OSError, FileNotFoundError):
                return
        try:
            shm.close()
        except (OSError, BufferError):  # pragma: no cover
            pass
        try:
            shm.unlink()
        except (OSError, FileNotFoundError):
            pass
