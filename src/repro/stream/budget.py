"""End-to-end latency budget: the detect-to-update stage breakdown.

Per-hop *processing* p95 (guarded since E15) tells an operator how fast the
kernel is, not how long a user of the corridor service waits between an
event being captured and its :class:`~repro.fleet.fusion.TrackUpdate` being
emitted.  That wait is a pipeline of stages, each with its own budget —
the JARVIS latency-refactor shape (SNIPPETS.md): queue-decoupled stages,
each independently measurable.

Stages, in stream order:

``capture``
    Filling the analysis window (``frame_length / fs``) — physics, not
    implementation; reported for context, excluded from the guarded total.
``delivery``
    Stream-clock wait between a frame's capture completing and the runtime
    popping it: hop-batch batching delay (up to ``hop_batch`` hop periods —
    the dominant term at the default batch of 8) plus any driver jitter or
    stall.  The adaptive pacer shrinks this by shrinking the batch when
    headroom allows; a session riding ``min_batch=1`` collapses it to ~zero
    (every frame is popped the moment its hop completes), which is the
    latency floor the E18 bench guards.
``ingest``
    Wall time spent pulling chunks and pushing them through the ring,
    attributed per frame.
``kernel``
    Wall time of the shard's hop-kernel pass (detect → prime → localize →
    track), attributed per frame.
``fusion``
    Wall time of the cross-node fusion frontier step that fused the frame.
``emit``
    Wall time between fusion finishing and the update being handed to the
    caller (budget attachment + event assembly).

``detect_to_update_ms`` — the guarded number — is the sum of every stage
after capture.  Delivery is measured on the stream clock and the rest on
the wall clock: in a lock-step replay that is the honest decomposition (the
structural batching delay does not shrink because the simulation runs
faster than real time), and in a paced real-time session the two clocks
advance together.  That split is also what lets the E18 min-batch bench
free-run: the delivery a ``pace=True`` session would experience is already
in the numbers, so nothing has to sleep through the scene to measure it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "StageBudget",
    "STAGES",
    "summarize_budgets",
    "format_stage_summary",
    "percentile_ms",
]

#: Stage names in stream order (``capture`` is context, not counted).
STAGES = ("capture", "delivery", "ingest", "kernel", "fusion", "emit")


@dataclass(frozen=True)
class StageBudget:
    """Per-update latency breakdown, milliseconds per stage.

    Attached to every :class:`~repro.fleet.fusion.TrackUpdate` a fleet
    session emits; :attr:`detect_to_update_ms` is the end-to-end figure the
    E16 and E18 benches guard with ``--bench-max-p95``.
    """

    capture_ms: float
    delivery_ms: float
    ingest_ms: float
    kernel_ms: float
    fusion_ms: float
    emit_ms: float

    @property
    def detect_to_update_ms(self) -> float:
        """Capture-complete to update-emitted, milliseconds."""
        return (
            self.delivery_ms
            + self.ingest_ms
            + self.kernel_ms
            + self.fusion_ms
            + self.emit_ms
        )

    def stage_ms(self, stage: str) -> float:
        """The named stage's share, milliseconds."""
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r} (want one of {STAGES})")
        return float(getattr(self, f"{stage}_ms"))


def summarize_budgets(
    budgets: Iterable[StageBudget],
) -> dict[str, tuple[float, float]]:
    """Per-stage ``(p50_ms, p95_ms)`` over a feed of budgets.

    The returned mapping carries every stage plus ``detect_to_update``; an
    empty feed returns an empty dict.
    """
    rows = list(budgets)
    if not rows:
        return {}
    out: dict[str, tuple[float, float]] = {}
    for stage in STAGES:
        vals = np.asarray([b.stage_ms(stage) for b in rows])
        out[stage] = (float(np.percentile(vals, 50)), float(np.percentile(vals, 95)))
    total = np.asarray([b.detect_to_update_ms for b in rows])
    out["detect_to_update"] = (
        float(np.percentile(total, 50)),
        float(np.percentile(total, 95)),
    )
    return out


def format_stage_summary(summary: Mapping[str, tuple[float, float]]) -> str:
    """One operator log line: ``stage p50/p95 ms`` across the pipeline.

    The live counterpart of the E16 bench table — the corridor CLI prints
    this periodically during ``repro fleet --stream --workers N``.
    """
    if not summary:
        return "stage budget      : (no updates yet)"
    parts = []
    for stage in (*STAGES[1:], "detect_to_update"):  # capture is fixed physics
        if stage not in summary:
            continue
        p50, p95 = summary[stage]
        label = "detect→update" if stage == "detect_to_update" else stage
        parts.append(f"{label} {p50:.1f}/{p95:.1f}")
    return "stage budget      : " + " | ".join(parts) + " ms (p50/p95)"


def percentile_ms(budgets: Sequence[StageBudget], q: float) -> float:
    """Percentile of ``detect_to_update_ms`` over a budget feed.

    An empty feed returns ``nan`` — deliberately *not* 0.0, which would
    read as "infinitely fast".  The bench guards treat a non-finite
    ``p95_ms`` as a hard failure, so an update-less run can never slip
    under a latency ceiling.
    """
    if not budgets:
        return float("nan")
    return float(np.percentile([b.detect_to_update_ms for b in budgets], q))
