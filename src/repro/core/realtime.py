"""Real-time accounting: frame deadlines and latency budgets.

"Real-time low-latency operation to quickly respond to each target event"
(Sec. II) means every pipeline tick must finish inside one hop period.
These helpers measure and judge that, both for host wall-clock runs and for
device cost-model predictions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "LatencyStats",
    "measure_latency",
    "realtime_ok",
    "LatencyMonitor",
    "latency_stats_ms",
    "monitor_stats",
]


@dataclass(frozen=True)
class LatencyStats:
    """Latency distribution of repeated pipeline ticks.

    Attributes
    ----------
    mean_s, p95_s, max_s:
        Distribution summary, seconds.
    deadline_s:
        The frame period that must not be exceeded.
    """

    mean_s: float
    p95_s: float
    max_s: float
    deadline_s: float

    @property
    def realtime(self) -> bool:
        """Whether the 95th percentile meets the deadline."""
        return self.p95_s <= self.deadline_s

    @property
    def headroom(self) -> float:
        """deadline / mean — how many times faster than required."""
        return self.deadline_s / self.mean_s if self.mean_s > 0 else float("inf")


def measure_latency(fn, deadline_s: float, *, repeats: int = 20, warmup: int = 2) -> LatencyStats:
    """Measure a pipeline tick callable against a deadline."""
    if deadline_s <= 0:
        raise ValueError("deadline must be positive")
    if repeats < 1 or warmup < 0:
        raise ValueError("repeats must be >= 1 and warmup >= 0")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    arr = np.asarray(samples)
    return LatencyStats(
        mean_s=float(arr.mean()),
        p95_s=float(np.percentile(arr, 95)),
        max_s=float(arr.max()),
        deadline_s=float(deadline_s),
    )


def realtime_ok(latency_s: float, deadline_s: float, *, margin: float = 1.0) -> bool:
    """Whether a latency fits the deadline with a safety ``margin`` (>= 1)."""
    if deadline_s <= 0 or latency_s < 0:
        raise ValueError("invalid latency or deadline")
    if margin < 1.0:
        raise ValueError("margin must be >= 1")
    return latency_s * margin <= deadline_s


class LatencyMonitor:
    """Online latency tracker for a running pipeline.

    Records per-tick durations and reports deadline misses.
    """

    def __init__(self, deadline_s: float) -> None:
        if deadline_s <= 0:
            raise ValueError("deadline must be positive")
        self.deadline_s = float(deadline_s)
        # Float buffer grown by doubling: reading the samples (stats, health
        # snapshots) costs no per-sample conversion however long the run.
        self._buf = np.empty(64)
        self._n = 0
        self._t0: float | None = None

    def tick_start(self) -> None:
        """Mark the start of a pipeline tick."""
        self._t0 = time.perf_counter()

    def tick_end(self) -> float:
        """Mark the end of a tick; returns its duration."""
        if self._t0 is None:
            raise RuntimeError("tick_end without tick_start")
        dt = time.perf_counter() - self._t0
        self._t0 = None
        self.record(dt)
        return dt

    def record(self, duration_s: float) -> None:
        """Record an externally measured tick duration.

        Lets batch engines that process many logical ticks in one call (e.g.
        a fleet shard batching several nodes) attribute each consumer's share
        of the measured wall time to its own monitor.
        """
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        if self._n == self._buf.size:
            self._buf = np.concatenate([self._buf, np.empty(self._buf.size)])
        self._buf[self._n] = duration_s
        self._n += 1

    @property
    def samples(self) -> np.ndarray:
        """Every recorded tick duration, seconds, in order (a view)."""
        return self._buf[: self._n]

    @property
    def n_ticks(self) -> int:
        """Recorded tick count."""
        return self._n

    @property
    def misses(self) -> int:
        """Ticks that exceeded the deadline."""
        return int(np.count_nonzero(self.samples > self.deadline_s))

    def stats(self) -> LatencyStats:
        """Distribution summary of everything recorded so far."""
        if not self._n:
            raise RuntimeError("no ticks recorded")
        arr = self.samples
        return LatencyStats(
            mean_s=float(arr.mean()),
            p95_s=float(np.percentile(arr, 95)),
            max_s=float(arr.max()),
            deadline_s=self.deadline_s,
        )


def latency_stats_ms(samples_ms: np.ndarray, deadline_s: float) -> LatencyStats:
    """Exact mean / p95 / max of millisecond samples (zeros when empty)."""
    if not samples_ms.size:
        return LatencyStats(mean_s=0.0, p95_s=0.0, max_s=0.0, deadline_s=deadline_s)
    vals = samples_ms / 1e3
    return LatencyStats(
        mean_s=float(vals.mean()),
        p95_s=float(np.percentile(vals, 95)),
        max_s=float(vals.max()),
        deadline_s=deadline_s,
    )


def monitor_stats(monitors: Sequence[LatencyMonitor]) -> list[LatencyStats]:
    """Every monitor's :meth:`~LatencyMonitor.stats` (zeros before its first
    tick), with one vectorized reduction per distinct tick count.

    Values equal the one-by-one calls: numpy reduces each row of a 2-D
    array exactly as it reduces the row alone, and only the per-call
    overhead — which dominates for the few-hundred-sample monitors of a
    live session — is shared.
    """
    out: list[LatencyStats | None] = [None] * len(monitors)
    groups: dict[int, list[int]] = {}
    for i, monitor in enumerate(monitors):
        groups.setdefault(monitor.n_ticks, []).append(i)
    for n_ticks, idx in groups.items():
        if n_ticks == 0:
            for i in idx:
                out[i] = LatencyStats(
                    mean_s=0.0, p95_s=0.0, max_s=0.0, deadline_s=monitors[i].deadline_s
                )
            continue
        arr = np.stack([monitors[i].samples for i in idx])
        mean, p95, peak = arr.mean(axis=1), np.percentile(arr, 95, axis=1), arr.max(axis=1)
        for row, i in enumerate(idx):
            out[i] = LatencyStats(
                mean_s=float(mean[row]),
                p95_s=float(p95[row]),
                max_s=float(peak[row]),
                deadline_s=monitors[i].deadline_s,
            )
    return out
