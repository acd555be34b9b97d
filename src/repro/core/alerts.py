"""Alert policies: turn raw pipeline telemetry into driver-level events.

Use case (i) of the paper's Fig. 1 — "detecting dangerous situations" —
needs more than per-frame labels: an emergency alert should fire once per
event, survive frame-level dropouts, and say whether the source is
approaching.  :class:`AlertPolicy` implements that hysteresis-debounced
alerting with approach analysis from the tracked DOA and detection
confidence trend.

The same debounce discipline applies to *operational* telemetry:
:class:`OverrunPolicy` watches a stream of per-step ``(duration, budget)``
samples from the paced fleet runtime (:mod:`repro.stream.pacer`) and raises
a :class:`BudgetAlert` only after sustained overruns — a single slow step
is noise, a run of them means the node's shard genuinely cannot hold its
hop deadline and the health rollup (:mod:`repro.fleet.report`) should say
so.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.pipeline import FrameResult
from repro.sed.events import is_emergency

__all__ = ["Alert", "AlertPolicy", "BudgetAlert", "OverrunPolicy"]


@dataclass(frozen=True)
class Alert:
    """A driver-level alert.

    Attributes
    ----------
    kind:
        ``raised``, ``updated`` or ``cleared``.
    label:
        Event class that triggered the alert.
    frame_index:
        Pipeline frame at which this transition happened.
    azimuth:
        Tracked azimuth (radians; nan if unavailable).
    approaching:
        True when the confidence trend indicates the source is closing in
        (None while undecided).
    """

    kind: str
    label: str
    frame_index: int
    azimuth: float
    approaching: bool | None


class AlertPolicy:
    """Hysteresis-debounced alerting over a stream of FrameResults.

    An alert raises after ``on_frames`` consecutive emergency detections and
    clears after ``off_frames`` consecutive non-detections.  While an alert
    is active, the confidence trend over a sliding window classifies the
    source as approaching (rising received level -> rising posterior) or
    receding.

    Parameters
    ----------
    on_frames, off_frames:
        Debounce lengths in frames.
    trend_window:
        Confidence-trend window length in frames.
    trend_threshold:
        Minimum absolute slope (confidence per frame) to call a direction.
    """

    def __init__(
        self,
        *,
        on_frames: int = 3,
        off_frames: int = 10,
        trend_window: int = 20,
        trend_threshold: float = 0.002,
    ) -> None:
        if on_frames < 1 or off_frames < 1:
            raise ValueError("debounce lengths must be positive")
        if trend_window < 4:
            raise ValueError("trend_window must be >= 4")
        if trend_threshold <= 0:
            raise ValueError("trend_threshold must be positive")
        self.on_frames = int(on_frames)
        self.off_frames = int(off_frames)
        self.trend_window = int(trend_window)
        self.trend_threshold = float(trend_threshold)
        self._consec_on = 0
        self._consec_off = 0
        self._active_label: str | None = None
        # Only the trend window is ever read, so that is all a long session keeps.
        self._confidences: deque[float] = deque(maxlen=self.trend_window)

    @property
    def active(self) -> bool:
        """Whether an alert is currently raised."""
        return self._active_label is not None

    def reset(self) -> None:
        """Clear all alerting state."""
        self._consec_on = 0
        self._consec_off = 0
        self._active_label = None
        self._confidences.clear()

    def _trend(self) -> bool | None:
        if len(self._confidences) < self.trend_window:
            return None
        window = np.asarray(self._confidences)
        t = np.arange(window.size)
        slope = float(np.polyfit(t, window, 1)[0])
        if abs(slope) < self.trend_threshold:
            return None
        return slope > 0

    def _step(self, result: FrameResult) -> tuple[str, str] | None:
        """Advance the debounce by one frame; returns the ``(kind, label)``
        of the transition it caused, or ``None``.

        The state machine behind :meth:`update` and :meth:`process`, without
        building the :class:`Alert` (whose trend fit dominates the cost).
        """
        detected = result.detected and is_emergency(result.label)
        if detected:
            self._consec_on += 1
            self._consec_off = 0
            self._confidences.append(result.confidence)
        else:
            self._consec_off += 1
            self._consec_on = 0

        if self._active_label is None:
            if self._consec_on >= self.on_frames:
                self._active_label = result.label
                return "raised", result.label
            return None

        if self._consec_off >= self.off_frames:
            label = self._active_label
            self.reset()
            return "cleared", label
        if detected:
            return "updated", self._active_label
        return None

    def _alert(self, result: FrameResult, kind: str, label: str) -> Alert:
        approaching = None if kind == "cleared" else self._trend()
        return Alert(kind, label, result.frame_index, result.azimuth, approaching)

    def update(self, result: FrameResult) -> Alert | None:
        """Feed one pipeline frame; returns an alert transition or None."""
        transition = self._step(result)
        return None if transition is None else self._alert(result, *transition)

    def process(self, results: list[FrameResult]) -> list[Alert]:
        """Run the policy over a full result stream, returning the
        ``raised`` and ``cleared`` transitions (``updated`` ones are
        stepped through but never built)."""
        out = []
        for r in results:
            transition = self._step(r)
            if transition is not None and transition[0] in ("raised", "cleared"):
                out.append(self._alert(r, *transition))
        return out


@dataclass(frozen=True)
class BudgetAlert:
    """A debounced real-time budget transition.

    Attributes
    ----------
    kind:
        ``overrun`` (sustained deadline misses began) or ``recovered``
        (the step loop held its budget again for long enough).
    step_index:
        Step at which the transition fired.
    duration_s, budget_s:
        The step measurement that tipped the debounce.
    """

    kind: str
    step_index: int
    duration_s: float
    budget_s: float


class OverrunPolicy:
    """Hysteresis-debounced overrun alerting over step-budget samples.

    The operational sibling of :class:`AlertPolicy`: an overrun alert raises
    after ``on_steps`` consecutive steps whose wall time exceeded their hop
    budget, and clears after ``off_steps`` consecutive steps back inside it
    — so transient GC pauses or one cold cache fill never page an operator,
    while a shard that genuinely cannot keep up does.

    Parameters
    ----------
    on_steps, off_steps:
        Debounce lengths in steps.
    """

    def __init__(self, *, on_steps: int = 3, off_steps: int = 5) -> None:
        if on_steps < 1 or off_steps < 1:
            raise ValueError("debounce lengths must be positive")
        self.on_steps = int(on_steps)
        self.off_steps = int(off_steps)
        self._consec_over = 0
        self._consec_ok = 0
        self._active = False
        self._step = 0

    @property
    def active(self) -> bool:
        """Whether an overrun alert is currently raised."""
        return self._active

    def reset(self) -> None:
        """Clear all debounce state."""
        self._consec_over = 0
        self._consec_ok = 0
        self._active = False
        self._step = 0

    def update(self, duration_s: float, budget_s: float) -> BudgetAlert | None:
        """Feed one step measurement; returns a transition or ``None``."""
        if duration_s < 0 or budget_s <= 0:
            raise ValueError("need duration >= 0 and budget > 0")
        step = self._step
        self._step += 1
        if duration_s > budget_s:
            self._consec_over += 1
            self._consec_ok = 0
        else:
            self._consec_ok += 1
            self._consec_over = 0
        if not self._active and self._consec_over >= self.on_steps:
            self._active = True
            return BudgetAlert("overrun", step, float(duration_s), float(budget_s))
        if self._active and self._consec_ok >= self.off_steps:
            self._active = False
            return BudgetAlert("recovered", step, float(duration_s), float(budget_s))
        return None

    def process(
        self, samples: Iterable[Sequence[float]]
    ) -> list[BudgetAlert]:
        """Run the policy over ``(duration_s, budget_s, ...)`` samples.

        Accepts the ``records`` tuples of
        :class:`repro.stream.pacer.PacerStats` directly (extra fields are
        ignored); returns the transitions.
        """
        out = []
        for sample in samples:
            alert = self.update(float(sample[0]), float(sample[1]))
            if alert is not None:
                out.append(alert)
        return out
