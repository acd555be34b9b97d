"""Multi-mode operation: low-latency *drive* vs trigger-based *park* mode.

Sec. II requires "the fully-functional low-latency driving mode and
trigger-based low-power parking mode".  Drive mode runs the whole pipeline
every hop.  Park mode runs only a cheap band-energy trigger; the full
pipeline wakes up for ``wake_frames`` hops after a trigger.  The energy
model combines the device cost model's per-frame figures with the measured
duty cycle — the E9 experiment.  The cost models live in the design-time
layer :mod:`repro.hw`, which :meth:`EnergyTrigger.to_ir` and
:func:`mode_energy_report` import when first called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.pipeline import AcousticPerceptionPipeline, FrameResult
from repro.dsp.stft import get_window

if TYPE_CHECKING:
    from repro.hw.devices import DeviceModel
    from repro.hw.ir import IRGraph

__all__ = ["EnergyTrigger", "ParkModeController", "ModeEnergyReport", "mode_energy_report"]


class EnergyTrigger:
    """Band-limited energy detector used as the park-mode wake-up.

    Computes the in-band RMS of the reference channel against an adaptive
    noise floor; triggers when the level exceeds ``threshold_db`` above the
    floor.  Sirens/horns concentrate energy in 300-2000 Hz, which urban
    rumble (mostly < 300 Hz) does not.
    """

    def __init__(
        self,
        fs: float,
        frame_length: int,
        *,
        band_hz: tuple[float, float] = (300.0, 2000.0),
        threshold_db: float = 10.0,
        floor_alpha: float = 0.995,
    ) -> None:
        if fs <= 0 or frame_length < 64:
            raise ValueError("invalid fs or frame_length")
        lo, hi = band_hz
        if not 0 <= lo < hi <= fs / 2:
            raise ValueError("band must satisfy 0 <= lo < hi <= fs/2")
        if threshold_db <= 0:
            raise ValueError("threshold must be positive")
        if not 0.5 <= floor_alpha < 1.0:
            raise ValueError("floor_alpha must lie in [0.5, 1)")
        self.fs = float(fs)
        self.frame_length = int(frame_length)
        self.threshold_db = float(threshold_db)
        self.floor_alpha = float(floor_alpha)
        freqs = np.fft.rfftfreq(frame_length, d=1.0 / fs)
        self._band = (freqs >= lo) & (freqs <= hi)
        self._window = get_window("hann", frame_length)
        self._floor: float | None = None

    def reset(self) -> None:
        """Forget the adaptive noise floor."""
        self._floor = None

    def __call__(self, frame: np.ndarray) -> bool:
        """Process one reference-channel frame; True when triggered."""
        frame = np.asarray(frame, dtype=np.float64)
        if frame.shape != (self.frame_length,):
            raise ValueError(f"expected frame of {self.frame_length} samples")
        spectrum = np.abs(np.fft.rfft(frame * self._window)) ** 2
        band_energy = float(spectrum[self._band].mean())
        if self._floor is None:
            self._floor = band_energy
            return False
        triggered = band_energy > self._floor * 10.0 ** (self.threshold_db / 10.0)
        if not triggered:
            # Only adapt the floor on quiet frames so events do not raise it.
            self._floor = self.floor_alpha * self._floor + (1 - self.floor_alpha) * band_energy
        return triggered

    def to_ir(self, *, name: str = "trigger") -> IRGraph:
        """Operator IR of one trigger tick (for the energy model).

        Imports :mod:`repro.hw` on first call.
        """
        from repro.hw.ir import IRGraph, dsp_op

        n_freq = self.frame_length // 2 + 1
        ir = IRGraph(name)
        fft_flops = 5.0 * self.frame_length * np.log2(self.frame_length)
        ir.add_op(
            dsp_op(
                f"{name}.fft",
                "fft",
                flops=fft_flops + self.frame_length,
                n_in=self.frame_length,
                n_out=n_freq,
            )
        )
        ir.add_op(
            dsp_op(
                f"{name}.band_energy",
                "elementwise",
                flops=2.0 * n_freq,
                n_in=n_freq,
                n_out=1,
            ),
            deps=[f"{name}.fft"],
        )
        return ir


class ParkModeController:
    """Trigger-gated pipeline wrapper implementing park mode.

    Runs :class:`EnergyTrigger` every frame; after a trigger, the full
    pipeline runs for ``wake_frames`` consecutive frames.
    """

    def __init__(
        self,
        pipeline: AcousticPerceptionPipeline,
        *,
        trigger: EnergyTrigger | None = None,
        wake_frames: int = 20,
    ) -> None:
        if wake_frames < 1:
            raise ValueError("wake_frames must be positive")
        cfg = pipeline.config
        self.pipeline = pipeline
        self.trigger = trigger or EnergyTrigger(cfg.fs, cfg.frame_length)
        self.wake_frames = int(wake_frames)
        self._wake_remaining = 0
        self.frames_total = 0
        self.frames_awake = 0

    @property
    def duty_cycle(self) -> float:
        """Fraction of frames that ran the full pipeline."""
        return self.frames_awake / self.frames_total if self.frames_total else 0.0

    def process_frame(self, frames: np.ndarray) -> FrameResult | None:
        """One park-mode tick; returns a FrameResult only while awake."""
        self.frames_total += 1
        if self.trigger(np.asarray(frames)[0]):
            self._wake_remaining = self.wake_frames
        if self._wake_remaining > 0:
            self._wake_remaining -= 1
            self.frames_awake += 1
            return self.pipeline.process_frame(frames)
        return None

    def process_signal(self, signals: np.ndarray) -> list[FrameResult | None]:
        """Stream a recording through park mode."""
        signals = np.asarray(signals, dtype=np.float64)
        cfg = self.pipeline.config
        n_frames = 1 + (signals.shape[1] - cfg.frame_length) // cfg.hop_length
        if n_frames < 1:
            raise ValueError("signal shorter than one frame")
        return [
            self.process_frame(
                signals[:, t * cfg.hop_length : t * cfg.hop_length + cfg.frame_length]
            )
            for t in range(n_frames)
        ]


@dataclass(frozen=True)
class ModeEnergyReport:
    """Energy comparison of drive vs park mode on a device model.

    Attributes
    ----------
    drive_power_w:
        Average power running the full pipeline every frame.
    park_power_w:
        Average power with the trigger + duty-cycled pipeline.
    duty_cycle:
        Fraction of frames the park-mode pipeline was awake.
    savings_factor:
        drive / park average power.
    """

    drive_power_w: float
    park_power_w: float
    duty_cycle: float
    savings_factor: float


def mode_energy_report(
    pipeline: AcousticPerceptionPipeline,
    device: DeviceModel,
    *,
    duty_cycle: float,
) -> ModeEnergyReport:
    """Average-power comparison of the two modes for a measured duty cycle.

    Costs both modes with :func:`repro.hw.cost_model.estimate_cost`; the
    first call imports :mod:`repro.hw`, which the runtime never loads.
    """
    from repro.hw.cost_model import estimate_cost

    if not 0.0 <= duty_cycle <= 1.0:
        raise ValueError("duty_cycle must lie in [0, 1]")
    cfg = pipeline.config
    period = cfg.frame_period_s
    full_cost = estimate_cost(pipeline.to_ir(), device)
    trig = EnergyTrigger(cfg.fs, cfg.frame_length)
    trig_cost = estimate_cost(trig.to_ir(), device)
    drive_energy_per_frame = full_cost.energy_j + device.idle_power_w * max(
        0.0, period - full_cost.latency_s
    )
    park_energy_per_frame = (
        trig_cost.energy_j
        + duty_cycle * full_cost.energy_j
        + device.idle_power_w
        * max(0.0, period - trig_cost.latency_s - duty_cycle * full_cost.latency_s)
    )
    drive_power = drive_energy_per_frame / period
    park_power = park_energy_per_frame / period
    return ModeEnergyReport(
        drive_power_w=float(drive_power),
        park_power_w=float(park_power),
        duty_cycle=float(duty_cycle),
        savings_factor=float(drive_power / park_power),
    )
