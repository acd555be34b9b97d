"""The shared per-hop kernel: detect → (prime) → localize → track.

Every execution engine of the perception stack — the frame-by-frame
streaming :class:`~repro.core.pipeline.AcousticPerceptionPipeline`, the
batched :class:`~repro.core.batch.BlockPipeline`, and the real-time ingest
runtime of :mod:`repro.stream` — runs the *same* per-hop sequence: classify
the reference channel, localize the hops whose detection fired, replay the
scalar DOA tracker in stream order.  Before this module each engine carried
its own copy of that sequence and the copies had to be kept bit-identical by
convention; :class:`HopKernel` is the one implementation they all drive.

A kernel is a thin stateless view over one pipeline's components (window,
mel filterbank, detector, localizer, detection-density EMA).  Stream state —
tracker, refinement window, frame counter — is *not* owned here: each driver
passes the state it wants advanced, so one kernel serves a single stream,
a batch of independent clips, or a fleet shard equally.

**One pass per step.**  :meth:`HopKernel.run_clips` is the only driver: a
streaming tick or a batch chunk is a step of one clip, a fleet shard step
is one clip per node.  Each stage runs once per step over the concatenated
clips — one cache, one detector forward, one localization pass — and only
tracking loops over clips.  Localization keeps every clip's stream state
apart: the localizer (one of the built-ins, which the pipeline enforces)
searches each clip's hits as one segment of a single coarse-to-fine pass,
replaying that clip's :class:`~repro.ssl.refine.RefineState`
(:mod:`repro.ssl.refine`).  The localizers compute a frame's power from
that frame alone, so a clip's peaks do not depend on which clips share its
step.

**Adaptive priming.**  In the dense-detection regime the kernel "primes" the
shared :class:`~repro.ssl.gcc.SpectraCache` — the localizer's FFTs are
computed up front and the detector derives its windowed spectra from them
(one FFT pass per block instead of two).  Whether that pays depends on the
FFT geometry: priming spends ``n_fft_srp`` FFTs on *every* hop but saves the
``frame_length`` detection FFT only when the derivation shortcut applies,
while undetected hops would never have paid the localizer FFT at all.  The
kernel therefore primes when the recent detection density (the pipeline's
EMA, the expected cache hit rate) exceeds a per-configuration break-even
threshold computed from the FFT cost ratio; configurations where the cost
model degenerates fall back to the historical fixed 0.5 gate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.nn.losses import softmax
from repro.sed.events import EVENT_CLASSES, is_emergency
from repro.ssl.gcc import SpectraCache
from repro.ssl.refine import RefineState
from repro.ssl.tracking import KalmanDoaTracker

if TYPE_CHECKING:  # circular at runtime: pipeline builds its kernel lazily
    from repro.core.pipeline import AcousticPerceptionPipeline, FrameResult

__all__ = ["HopKernel", "DENSE_PRIME_THRESHOLD"]

_EMERGENCY_MASK = np.array([is_emergency(name) for name in EVENT_CLASSES])

# Historical fixed detection-density gate; the fallback when the FFT cost
# model cannot produce a usable break-even point.
DENSE_PRIME_THRESHOLD = 0.5


class HopKernel:
    """One pipeline's per-hop core, drivable by any execution engine.

    Parameters
    ----------
    pipeline:
        The :class:`AcousticPerceptionPipeline` whose components (detector,
        localizer, window, mel filterbank) and detection-density EMA this
        kernel advances.
    """

    def __init__(self, pipeline: "AcousticPerceptionPipeline") -> None:
        self.pipeline = pipeline
        self._prime_threshold: float | None = None

    # ------------------------------------------------------------- cache

    def make_cache(self, frames: np.ndarray) -> SpectraCache:
        """Shared spectra cache over a ``(T, M, L)`` frame block."""
        dtype = np.float32 if self.pipeline.config.spectra_dtype == "float32" else np.float64
        return SpectraCache(frames, dtype=dtype)

    # ----------------------------------------------------------- priming

    @property
    def prime_threshold(self) -> float:
        """Detection density above which priming the shared cache pays off.

        Break-even of the per-hop FFT budget: unprimed, a hop pays the
        ``frame_length`` detection FFT plus — with probability ``ema`` (the
        expected cache hit rate) — the ``n_fft_srp`` localizer FFT; primed,
        every hop pays the localizer FFT once and detection is derived from
        it.  Priming wins when ``ema > 1 - cost(det) / cost(loc)``.  The
        derivation shortcut only exists for a periodic-Hann window with
        ``n_fft_srp == 2 * frame_length`` (see
        :meth:`SpectraCache.ref_windowed_power`); other geometries never
        prime (threshold 1.0).  A degenerate estimate falls back to the
        fixed :data:`DENSE_PRIME_THRESHOLD` EMA gate.
        """
        if self._prime_threshold is None:
            cfg = self.pipeline.config
            length, n_fft = cfg.frame_length, cfg.n_fft_srp
            if n_fft != 2 * length or not SpectraCache._is_periodic_hann(self.pipeline.window):
                self._prime_threshold = 1.0  # derivation unavailable: priming is pure cost
            else:
                detect_cost = length * np.log2(length)
                localize_cost = n_fft * np.log2(n_fft)
                estimate = 1.0 - detect_cost / localize_cost
                if not np.isfinite(estimate) or not 0.0 < estimate < 1.0:
                    estimate = DENSE_PRIME_THRESHOLD
                self._prime_threshold = float(estimate)
        return self._prime_threshold

    def should_prime(self) -> bool:
        """Whether the current detection-density EMA clears the break-even."""
        return self.pipeline._dense_ema > self.prime_threshold

    # ------------------------------------------------------------ stages

    def detect(
        self, cache: SpectraCache, *, prime: bool | None = None
    ) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Batched detection front-end over a shared spectra cache.

        Returns ``(labels, confidences, detected)`` and advances the
        pipeline's detection-density EMA in closed form (identical to the
        per-hop 0.9/0.1 update of a streaming tick).  ``prime`` overrides
        the adaptive priming decision (``None`` = cost model; streaming
        single-frame drivers pass ``False`` to keep the detection front-end
        on the bit-exact float64 path).
        """
        pipeline = self.pipeline
        if prime is None:
            prime = self.should_prime()
        if prime:
            cache.prime_dense(pipeline.config.n_fft_srp, pipeline.window)
        spectra = cache.ref_windowed_power(pipeline.window)
        mel = spectra @ pipeline.mel_fb.T
        feat = np.log(np.maximum(mel, 1e-10))
        std = feat.std(axis=-1, keepdims=True)
        feat = (feat - feat.mean(axis=-1, keepdims=True)) / np.where(std == 0.0, 1.0, std)
        post = softmax(pipeline.detector.forward(feat), axis=1)
        best = np.argmax(post, axis=1)
        confidences = post[np.arange(post.shape[0]), best]
        labels = [EVENT_CLASSES[k] for k in best]
        detected = _EMERGENCY_MASK[best] & (confidences >= pipeline.config.detect_threshold)
        if detected.size:
            # Same 0.9/0.1 per-hop EMA as the streaming tick, closed-form.
            decay = 0.9 ** np.arange(detected.size - 1, -1, -1)
            pipeline._dense_ema = float(
                0.9**detected.size * pipeline._dense_ema + 0.1 * (detected @ decay)
            )
        return labels, confidences, detected

    def localize(
        self,
        cache: SpectraCache,
        detected: np.ndarray,
        states: Sequence[RefineState | None],
        bounds: Sequence[int],
    ) -> list[tuple[list, list]]:
        """Localize every clip's detected rows in one pass.

        Clip ``i`` is cache rows ``bounds[i]:bounds[i + 1]``, and
        ``states[i]`` carries its temporal-reuse window.  The hit rows of
        all clips form one cache selection (the shared cache itself when
        every row hit, else one ``take``).  The localizer — one of
        :class:`~repro.ssl.srp.SrpPhat`,
        :class:`~repro.ssl.srp_fast.FastSrpPhat` and
        :class:`~repro.ssl.music.MusicDoa` — then runs one GCC, one coarse
        sweep and one set of window GEMMs for the whole step, each clip's
        window selection replaying its own state over its own segment of
        the hits; the peaks are read as floats off the grid axes, with no
        map or :class:`~repro.ssl.srp.SrpResult` built.  A frame's power
        depends on that frame alone, so each clip gets what localizing it
        alone would give.

        Returns one ``(azimuths, elevations)`` pair of lists per clip, one
        entry per detected row in row order.
        """
        hits = np.flatnonzero(detected)
        if hits.size == 0:
            return [([], []) for _ in states]
        sub = cache if hits.size == cache.n_frames else cache.take(hits)
        seg = np.searchsorted(hits, bounds).tolist()  # clip bounds among the hits
        localizer = self.pipeline.localizer
        flats = localizer._peak_flats(sub, seg, list(states))
        grid = localizer.grid
        i, j = np.divmod(flats, grid.n_elevation)
        azimuths = grid.azimuths[i].tolist()
        elevations = grid.elevations[j].tolist()
        return [(azimuths[a:b], elevations[a:b]) for a, b in zip(seg, seg[1:])]

    def track(
        self,
        tracker: KalmanDoaTracker,
        labels: list[str],
        confidences: np.ndarray,
        detected: np.ndarray,
        azimuths: list,
        elevations: list,
        start_index: int,
    ) -> "list[FrameResult]":
        """Sequential tracker update/predict pass, identical to stream order.

        ``azimuths``/``elevations`` are one clip's :meth:`localize` lists:
        the ``k``-th detected row updates the tracker with the ``k``-th
        entries.
        """
        from repro.core.pipeline import FrameResult

        nan = float("nan")
        confidences = confidences.tolist()
        if not tracker.initialized and not detected.any():
            # Nothing fires and nothing is tracked: the replay is bookkeeping.
            return [
                FrameResult(start_index + t, labels[t], conf, False, nan, nan)
                for t, conf in enumerate(confidences)
            ]
        out: "list[FrameResult]" = []
        hit = 0
        for t, (label, conf, fired) in enumerate(zip(labels, confidences, detected.tolist())):
            azimuth = elevation = nan
            if fired:
                state = tracker.update(azimuths[hit], elevations[hit])
                hit += 1
                azimuth, elevation = state.azimuth, state.elevation
            elif tracker.initialized:
                state = tracker.predict()
                azimuth, elevation = state.azimuth, state.elevation
            out.append(FrameResult(start_index + t, label, conf, fired, azimuth, elevation))
        return out

    # ----------------------------------------------------------- drivers

    def step(
        self,
        frames: np.ndarray,
        *,
        tracker: KalmanDoaTracker,
        state: RefineState | None,
        start_index: int = 0,
        prime: bool | None = None,
    ) -> "list[FrameResult]":
        """Advance one stream by one block of hops: :meth:`run_clips` of
        one clip.

        ``frames`` is ``(T, M, L)``; ``tracker``/``state`` are the stream's
        mutable tracker and refinement-window state, advanced in place.
        This is the whole per-hop pipeline for every engine: a streaming
        tick is a block of one, a batch chunk a block of many.
        """
        return self.run_clips([frames], [tracker], [state], [start_index], prime=prime)[0]

    def run_clips(
        self,
        blocks: Sequence[np.ndarray],
        trackers: Sequence[KalmanDoaTracker],
        states: Sequence[RefineState | None],
        start_indices: Sequence[int],
        *,
        prime: bool | None = None,
    ) -> "list[list[FrameResult]]":
        """Advance several independent streams through **one** kernel pass.

        The blocks (``(T_i, M, L)`` each) are concatenated into one shared
        cache: detection, cache priming and localization each run once for
        the step (:meth:`localize` replays every clip's refinement state
        over its own segment), then tracking replays per stream with that
        stream's own tracker.  This is the fleet-shard shape: one detector
        forward and one localization pass per shard per step.
        """
        if not len(blocks) == len(trackers) == len(states) == len(start_indices):
            raise ValueError("blocks, trackers, states and start_indices must align")
        if not blocks:
            return []
        flat = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
        cache = self.make_cache(flat)
        labels, confidences, detected = self.detect(cache, prime=prime)
        bounds = [0]
        for block in blocks:
            bounds.append(bounds[-1] + block.shape[0])
        doas = self.localize(cache, detected, states, bounds)
        return [
            self.track(
                tracker,
                labels[lo:hi],
                confidences[lo:hi],
                detected[lo:hi],
                azimuths,
                elevations,
                start,
            )
            for tracker, start, lo, hi, (azimuths, elevations) in zip(
                trackers, start_indices, bounds, bounds[1:], doas
            )
        ]
