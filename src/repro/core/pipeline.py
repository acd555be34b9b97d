"""End-to-end streaming acoustic-perception pipeline.

The "fully-functional low-latency driving mode" of Sec. II: per hop, the
pipeline (i) extracts a log-mel feature from the reference microphone,
(ii) classifies the frame with a compact detector, and (iii) when an
emergency class fires, localizes it with SRP-PHAT and updates the DOA
tracker.  The same object lowers itself to the operator IR so the device
cost models can predict per-frame latency on embedded targets (bench E6);
that design-time layer (:mod:`repro.hw`) is imported by :meth:`to_ir`
only, so a running pipeline never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.config import PipelineConfig
from repro.dsp.stft import get_window
from repro.features.mel import mel_filterbank
from repro.nn.module import Module
from repro.sed.events import EVENT_CLASSES
from repro.sed.models import build_sed_mlp
from repro.ssl.doa import DoaGrid
from repro.ssl.refine import RefineConfig, RefineState
from repro.ssl.srp import SrpPhat, _CoarseToFineMixin, mic_pairs
from repro.ssl.srp_fast import FastSrpPhat
from repro.ssl.tracking import KalmanDoaTracker

if TYPE_CHECKING:
    from repro.hw.ir import IRGraph

__all__ = ["FrameResult", "AcousticPerceptionPipeline"]


class FrameResult(NamedTuple):
    """Per-frame pipeline output (a lightweight immutable record — one is
    built per hop, so construction cost is part of the pipeline hot path).

    Attributes
    ----------
    frame_index:
        Hop counter.
    label:
        Predicted class name.
    confidence:
        Posterior of the predicted class.
    detected:
        Whether an emergency class fired above threshold.
    azimuth, elevation:
        Tracked DOA, radians (``nan`` when nothing is being tracked).
    """

    frame_index: int
    label: str
    confidence: float
    detected: bool
    azimuth: float
    elevation: float


class AcousticPerceptionPipeline:
    """Streaming detector + localizer + tracker.

    Parameters
    ----------
    mic_positions:
        Array geometry, ``(n_mics, 3)``; the first microphone is the
        detection reference channel.
    config:
        Pipeline parameters.
    detector:
        A classifier over ``(N, n_mels)`` log-mel vectors producing logits
        for :data:`~repro.sed.events.EVENT_CLASSES`; an untrained compact
        MLP is built when omitted (useful for latency studies).
    localizer:
        A pre-built localizer to reuse instead of constructing one —
        pipelines over identical array geometries (e.g. fleet nodes with
        the same mounting design) can share one instance and its cached
        steering tensors.  Must be a :class:`~repro.ssl.srp.SrpPhat`,
        :class:`~repro.ssl.srp_fast.FastSrpPhat` or
        :class:`~repro.ssl.music.MusicDoa` (the hop kernel drives their
        one-pass search); anything else raises ``TypeError``.
    """

    def __init__(
        self,
        mic_positions: np.ndarray,
        config: PipelineConfig | None = None,
        *,
        detector: Module | None = None,
        localizer=None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.positions = np.asarray(mic_positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3 or self.positions.shape[0] < 2:
            raise ValueError("mic_positions must be (n_mics >= 2, 3)")
        cfg = self.config
        self.window = get_window("hann", cfg.frame_length)
        self.mel_fb = mel_filterbank(cfg.n_mels, cfg.frame_length, cfg.fs)
        self.detector = detector or build_sed_mlp(cfg.n_mels, len(EVENT_CLASSES))
        self.detector.eval()
        if localizer is not None:
            if not isinstance(localizer, _CoarseToFineMixin):
                raise TypeError(
                    "localizer must be a SrpPhat, FastSrpPhat or MusicDoa, "
                    f"not {type(localizer).__name__}"
                )
            self.localizer = localizer
        else:
            grid = DoaGrid(n_azimuth=cfg.n_azimuth, n_elevation=cfg.n_elevation)
            refine = (
                RefineConfig(
                    levels=cfg.refine_levels,
                    top_k=cfg.refine_top_k,
                    reuse_gate=cfg.refine_reuse_gate,
                )
                if cfg.refine_levels > 1
                else None
            )
            dtype = np.float32 if cfg.spectra_dtype == "float32" else np.float64
            if cfg.localizer == "music":
                from repro.ssl.music import MusicDoa

                self.localizer = MusicDoa(
                    self.positions,
                    cfg.fs,
                    grid=grid,
                    n_fft=cfg.n_fft_srp,
                    refine=refine,
                    spectra_dtype=dtype,
                )
            else:
                loc_cls = FastSrpPhat if cfg.localizer == "srp_fast" else SrpPhat
                self.localizer = loc_cls(
                    self.positions,
                    cfg.fs,
                    grid=grid,
                    n_fft=cfg.n_fft_srp,
                    refine=refine,
                    spectra_dtype=dtype,
                )
        self.tracker = KalmanDoaTracker()
        # Temporal-reuse state of the coarse-to-fine localization path; owned
        # by the pipeline (not the localizer) so fleet nodes sharing one
        # localizer instance keep independent anchors.
        self.refine_state = RefineState()
        # Detection-density EMA: the block engine primes the shared spectra
        # cache for the dense regime once most recent hops localized.  Note
        # priming is a performance hint, not stream semantics: primed blocks
        # derive detection spectra from the (float32 by default) shared FFTs,
        # equal to the streaming detector only to ~1e-6 relative — labels and
        # flags agree unless a confidence sits exactly on the threshold.
        self._dense_ema = 0.0
        self._hop_kernel = None
        self._frame_index = 0

    @property
    def hop_kernel(self):
        """The shared per-hop kernel (see :mod:`repro.core.hop`) every
        execution engine of this pipeline drives — built lazily because the
        kernel module imports :class:`FrameResult` from here."""
        if self._hop_kernel is None:
            from repro.core.hop import HopKernel

            self._hop_kernel = HopKernel(self)
        return self._hop_kernel

    # ------------------------------------------------------------------ API

    def process_frame(self, frames: np.ndarray) -> FrameResult:
        """Run one full pipeline tick on a multichannel frame.

        ``frames`` is ``(n_mics, frame_length)``.  A tick is a hop-kernel
        step over a block of one: the same detect → localize → track
        implementation the batched and real-time ingest engines drive (see
        :mod:`repro.core.hop`), with cache priming pinned off so the
        detection front-end stays on the bit-exact float64 path.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.shape != (self.positions.shape[0], self.config.frame_length):
            raise ValueError(
                f"expected ({self.positions.shape[0]}, {self.config.frame_length}) frame block"
            )
        out = self.hop_kernel.step(
            frames[None],
            tracker=self.tracker,
            state=self.refine_state,
            start_index=self._frame_index,
            prime=False,
        )
        self._frame_index += 1
        return out[0]

    def process_signal(self, signals: np.ndarray) -> list[FrameResult]:
        """Stream a full multichannel recording through the pipeline.

        This is the frame-by-frame reference path; for throughput work use
        :meth:`process_signal_batched` (or
        :class:`repro.core.batch.BlockPipeline`), which produces equivalent
        results from a handful of batched array operations.
        """
        signals = np.asarray(signals, dtype=np.float64)
        if signals.ndim != 2 or signals.shape[0] != self.positions.shape[0]:
            raise ValueError(f"signals must be ({self.positions.shape[0]}, n_samples)")
        cfg = self.config
        n_frames = 1 + (signals.shape[1] - cfg.frame_length) // cfg.hop_length
        if n_frames < 1:
            raise ValueError("signal shorter than one frame")
        return [
            self.process_frame(
                signals[:, t * cfg.hop_length : t * cfg.hop_length + cfg.frame_length]
            )
            for t in range(n_frames)
        ]

    def process_signal_batched(self, signals: np.ndarray) -> list[FrameResult]:
        """Batched equivalent of :meth:`process_signal` (one FFT/detector
        pass over all hops; see :mod:`repro.core.batch`)."""
        from repro.core.batch import process_signal_batched

        return process_signal_batched(self, signals)

    def reset(self) -> None:
        """Reset streaming state (tracker, refinement window, frame counter).

        The detection-density EMA deliberately survives: like the lazily
        built steering tensors it is a performance hint (whether to prime
        the shared spectra cache), not part of a stream's semantics.
        """
        self.tracker.reset()
        self.refine_state.reset()
        self._frame_index = 0

    # ---------------------------------------------------------------- IR

    def to_ir(self, *, name: str = "pipeline") -> IRGraph:
        """Lower one pipeline tick to the operator IR (for cost models).

        Covers windowing, the reference-channel FFT + mel + detector, the
        per-pair cross-spectra and the SRP steering/interpolation stage of
        the configured localizer variant.  The first call imports
        :mod:`repro.hw` (and networkx); a running pipeline never does.
        """
        from repro.hw.ir import IRGraph, dsp_op, lower_module

        cfg = self.config
        n_mics = self.positions.shape[0]
        n_pairs = len(mic_pairs(n_mics))
        n_freq_det = cfg.frame_length // 2 + 1
        n_freq_srp = cfg.n_fft_srp // 2 + 1
        n_dirs = cfg.n_azimuth * cfg.n_elevation
        ir = IRGraph(name)
        ir.add_op(
            dsp_op(
                f"{name}.window",
                "elementwise",
                flops=float(n_mics * cfg.frame_length),
                n_in=n_mics * cfg.frame_length,
                n_out=n_mics * cfg.frame_length,
                n_coeff=cfg.frame_length,
            )
        )
        fft_flops = 5.0 * cfg.frame_length * np.log2(cfg.frame_length)
        ir.add_op(
            dsp_op(
                f"{name}.fft_ref",
                "fft",
                flops=fft_flops,
                n_in=cfg.frame_length,
                n_out=n_freq_det * 2,
            ),
            deps=[f"{name}.window"],
        )
        ir.add_op(
            dsp_op(
                f"{name}.mel",
                "filterbank",
                flops=2.0 * cfg.n_mels * n_freq_det,
                n_in=n_freq_det,
                n_out=cfg.n_mels,
                n_coeff=cfg.n_mels * n_freq_det,
            ),
            deps=[f"{name}.fft_ref"],
        )
        det_ir = lower_module(self.detector, (cfg.n_mels,), name=f"{name}.det")
        prev = f"{name}.mel"
        for spec in det_ir.ops():
            ir.add_op(spec, deps=[prev])
            prev = spec.name
        det_tail = prev

        srp_fft_flops = 5.0 * cfg.n_fft_srp * np.log2(cfg.n_fft_srp)
        ir.add_op(
            dsp_op(
                f"{name}.fft_array",
                "fft",
                flops=n_mics * srp_fft_flops,
                n_in=n_mics * cfg.frame_length,
                n_out=n_mics * n_freq_srp * 2,
            ),
            deps=[f"{name}.window"],
        )
        ir.add_op(
            dsp_op(
                f"{name}.cross_spectra",
                "gcc",
                flops=8.0 * n_pairs * n_freq_srp,
                n_in=n_mics * n_freq_srp * 2,
                n_out=n_pairs * n_freq_srp * 2,
            ),
            deps=[f"{name}.fft_array"],
        )
        if cfg.localizer == "music":
            n_bins = len(self.localizer._bins)
            n_snapshots = 8
            cov_flops = 8.0 * n_bins * n_snapshots * n_mics * n_mics
            evd_flops = 20.0 * n_bins * n_mics**3
            spec_flops = 8.0 * n_bins * n_dirs * n_mics * (n_mics - 1)
            ir.add_op(
                dsp_op(
                    f"{name}.srp_steer",
                    "srp_steer",
                    flops=cov_flops + evd_flops + spec_flops,
                    n_in=n_mics * n_freq_srp * 2,
                    n_out=n_dirs,
                    n_coeff=2.0 * n_bins * n_dirs * n_mics,
                ),
                deps=[f"{name}.cross_spectra"],
            )
        elif cfg.localizer == "srp":
            # Full frequency-domain steering: 8 flops per (pair, dir, freq).
            ir.add_op(
                dsp_op(
                    f"{name}.srp_steer",
                    "srp_steer",
                    flops=8.0 * n_pairs * n_dirs * n_freq_srp,
                    n_in=n_pairs * n_freq_srp * 2,
                    n_out=n_dirs,
                    n_coeff=2.0 * n_pairs * n_dirs * n_freq_srp,
                ),
                deps=[f"{name}.cross_spectra"],
            )
        else:
            taps = self.localizer.n_interp_taps
            ir.add_op(
                dsp_op(
                    f"{name}.gcc_ifft",
                    "fft",
                    flops=n_pairs * srp_fft_flops,
                    n_in=n_pairs * n_freq_srp * 2,
                    n_out=n_pairs * cfg.n_fft_srp,
                ),
                deps=[f"{name}.cross_spectra"],
            )
            ir.add_op(
                dsp_op(
                    f"{name}.srp_steer",
                    "srp_steer",
                    flops=2.0 * n_pairs * n_dirs * taps,
                    n_in=n_pairs * cfg.n_fft_srp,
                    n_out=n_dirs,
                    n_coeff=n_pairs * n_dirs * taps,
                ),
                deps=[f"{name}.gcc_ifft"],
            )
        ir.add_op(
            dsp_op(
                f"{name}.track",
                "elementwise",
                flops=200.0,  # 4-state Kalman update
                n_in=n_dirs,
                n_out=4,
            ),
            deps=[f"{name}.srp_steer", det_tail],
        )
        return ir
