"""Generalized cross-correlation with phase transform (GCC-PHAT).

Alongside the pairwise/batched GCC-PHAT functions this module hosts
:class:`SpectraCache`, the shared frequency-domain front-end of the dense
detection path: per-mic FFTs, PHAT-whitened spectra, pair cross-spectra and
lag-domain GCCs are computed once per frame block and memoized, so the
detector front-end, every localizer (:class:`~repro.ssl.srp.SrpPhat`,
:class:`~repro.ssl.srp_fast.FastSrpPhat`, :class:`~repro.ssl.music.MusicDoa`)
and wide-baseline TDOA estimation stop re-transforming the same frames.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.fft as _fft

__all__ = [
    "gcc_phat",
    "gcc_phat_spectrum",
    "gcc_phat_spectra",
    "estimate_tdoa",
    "SpectraCache",
]


def gcc_phat_spectrum(x1: np.ndarray, x2: np.ndarray, *, n_fft: int | None = None) -> np.ndarray:
    """PHAT-weighted cross-power spectrum of two equal-length signals.

    Returns the one-sided spectrum ``X1 * conj(X2) / |X1 * conj(X2)|``.
    This is the documented 2-signal API; multichannel callers should use
    :func:`gcc_phat_spectra`, which computes each channel's FFT only once.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.shape != x2.shape or x1.ndim != 1 or x1.size == 0:
        raise ValueError("x1 and x2 must be non-empty 1-D arrays of equal length")
    n = n_fft or (2 * x1.size)
    cross = np.fft.rfft(x1, n) * np.conj(np.fft.rfft(x2, n))
    mag = np.abs(cross)
    return cross / np.maximum(mag, 1e-15)


def _whitened_spectra(frames: np.ndarray, n_fft: int) -> np.ndarray:
    """PHAT-whitened per-mic spectra ``(..., M, n_fft // 2 + 1)``.

    The single implementation behind :func:`gcc_phat_spectra` and
    :class:`SpectraCache` — keeping them on one code path is what makes the
    cache bit-identical to the direct API.  ``scipy.fft`` is used instead of
    ``np.fft`` because it preserves float32 inputs (complex64 out), which is
    the pipeline's fast dense-path dtype; for float64 the two produce
    identical bits (same pocketfft core).
    """
    return _whiten_inplace(_fft.rfft(frames, n_fft, axis=-1))


def _whiten_inplace(spec: np.ndarray) -> np.ndarray:
    """PHAT-whiten complex spectra in place (per mic, not per pair).

    ``|Xi Xj*| = |Xi||Xj|``, so whitening each mic's spectrum once costs
    O(n_mics) magnitude passes instead of O(n_pairs); every intermediate is
    reused in place — the dense path runs this over multi-MB blocks per call.
    """
    real = spec.real.dtype
    eps = np.asarray(1e-15 if real != np.float32 else 1e-12, dtype=real)
    mag = np.sqrt(spec.real**2 + spec.imag**2)
    spec *= np.reciprocal(np.maximum(mag, eps))
    return spec


def _pair_cross(whitened: np.ndarray, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Cross-spectra of the given mic pairs from whitened per-mic spectra."""
    ctype = np.complex64 if whitened.dtype == np.complex64 else np.complex128
    out = np.empty((*whitened.shape[:-2], len(pairs), whitened.shape[-1]), dtype=ctype)
    for p, (i, j) in enumerate(pairs):
        # Per-pair products into a preallocated block: same flops as one
        # fancy-indexed gather-multiply but without the two gather copies.
        np.multiply(
            whitened[..., i, :], np.conj(whitened[..., j, :]), out=out[..., p, :]
        )
    return out


@functools.lru_cache(maxsize=8)
def _periodic_hann_bytes(dtype: str, raw: bytes) -> bool:
    """Whether a 1-D window (given by dtype and bytes) is a periodic Hann.

    Memoized by content: a pipeline asks about the same window on every
    primed block, and the cosine table plus ``allclose`` cost more than the
    derivation they gate.
    """
    window = np.frombuffer(raw, dtype=dtype)
    n = window.shape[0]
    t = np.arange(n) / n
    return bool(np.allclose(window, 0.5 - 0.5 * np.cos(2 * np.pi * t), atol=1e-12))


def _all_pairs(n_mics: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n_mics) for j in range(i + 1, n_mics)]


def gcc_phat_spectra(
    frames: np.ndarray,
    *,
    n_fft: int | None = None,
    pairs: list[tuple[int, int]] | None = None,
) -> np.ndarray:
    """PHAT-weighted cross-power spectra of all microphone pairs at once.

    ``frames`` is ``(n_mics, frame_length)`` or batched
    ``(n_frames, n_mics, frame_length)``; the per-mic FFTs are computed
    exactly once (one batched ``rfft``) and every pair's cross-spectrum is
    formed from them — ``n_mics`` transforms instead of ``2 * n_pairs``.

    Parameters
    ----------
    frames:
        Multichannel frame(s), microphones on the second-to-last axis.
    n_fft:
        FFT length (defaults to twice the frame length, which zero-pads for
        linear correlation like :func:`gcc_phat_spectrum`).
    pairs:
        Microphone index pairs ``(i, j)``; defaults to all unordered pairs
        in the order of :func:`repro.ssl.srp.mic_pairs`.

    Returns
    -------
    ``(..., n_pairs, n_fft // 2 + 1)`` complex spectra, matching
    ``gcc_phat_spectrum(frames[..., i, :], frames[..., j, :])`` per pair.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim < 2 or frames.shape[-1] == 0:
        raise ValueError("frames must be (..., n_mics, frame_length)")
    n_mics = frames.shape[-2]
    if n_mics < 2:
        raise ValueError("need at least 2 microphones")
    if pairs is None:
        pairs = _all_pairs(n_mics)
    n = n_fft or (2 * frames.shape[-1])
    return _pair_cross(_whitened_spectra(frames, n), pairs)


class SpectraCache:
    """Memoized frequency-domain front-end for one block of frames.

    Construct it once per block of multichannel frames and hand it to every
    consumer of that block — the batched detector front-end, the SRP/MUSIC
    localizers (coarse sweep *and* refinement), and TDOA estimation.  Each
    distinct transform (keyed by FFT length / window / pair list) is computed
    exactly once; nothing is computed until first requested.

    Parameters
    ----------
    frames:
        ``(n_frames, n_mics, frame_length)`` or a single ``(n_mics,
        frame_length)`` block (normalized to a batch of one).
    dtype:
        Working dtype of the spectra.  ``float64`` reproduces the direct
        :func:`gcc_phat_spectra` results bit for bit (asserted in the cache
        coherence tests); ``float32`` halves memory traffic and is the
        default dtype of the pipeline's dense localization path, where the
        coarse-to-fine contract is tolerance- rather than bit-exact.
    """

    def __init__(self, frames: np.ndarray, *, dtype: np.dtype | type = np.float64) -> None:
        frames = np.asarray(frames)
        if frames.ndim == 2:
            frames = frames[None]
        if frames.ndim != 3 or frames.shape[-1] == 0 or frames.shape[-2] < 1:
            raise ValueError("frames must be (n_frames, n_mics, frame_length)")
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("dtype must be float32 or float64")
        # The original (undowncast, possibly strided) frames back the float64
        # detection fallback, so a float32 cache never perturbs sparse-regime
        # results; the contiguous working-dtype copy is materialized lazily —
        # a block with no localized frames never pays for it.
        self._source = frames
        self._frames: np.ndarray | None = None
        self._raw: dict[int, np.ndarray] = {}
        self._whitened: dict[int, np.ndarray] = {}
        self._cross: dict[tuple[int, tuple], np.ndarray] = {}
        self._gcc: dict[tuple[int, tuple], np.ndarray] = {}
        self._windowed_power: dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------ properties

    @property
    def frames(self) -> np.ndarray:
        """Contiguous working-dtype frames (materialized on first use)."""
        if self._frames is None:
            self._frames = np.ascontiguousarray(self._source, dtype=self.dtype)
        return self._frames

    @property
    def source_frames(self) -> np.ndarray:
        """The original frames as handed in (undowncast, possibly strided)."""
        return self._source

    @property
    def n_frames(self) -> int:
        """Number of frames in the block."""
        return self._source.shape[0]

    @property
    def n_mics(self) -> int:
        """Number of microphones."""
        return self._source.shape[1]

    @property
    def frame_length(self) -> int:
        """Samples per frame."""
        return self._source.shape[2]

    # ------------------------------------------------------------ transforms

    def spectra(self, n_fft: int) -> np.ndarray:
        """Raw (unwhitened) per-mic spectra, ``(T, M, n_fft // 2 + 1)``.

        Calling this up front "primes" the cache: the detector front-end can
        then derive its windowed reference spectrum from it
        (:meth:`ref_windowed_power`) instead of running its own FFT.
        """
        if n_fft not in self._raw:
            self._raw[n_fft] = _fft.rfft(self.frames, n_fft, axis=-1)
        return self._raw[n_fft]

    def whitened(self, n_fft: int) -> np.ndarray:
        """PHAT-whitened per-mic spectra, ``(T, M, n_fft // 2 + 1)``."""
        if n_fft not in self._whitened:
            if n_fft in self._raw:
                self._whitened[n_fft] = _whiten_inplace(self._raw[n_fft].copy())
            else:
                self._whitened[n_fft] = _whitened_spectra(self.frames, n_fft)
        return self._whitened[n_fft]

    def prime_dense(self, n_fft: int, window: np.ndarray, *, mic: int = 0) -> None:
        """Dense-regime priming: one FFT pass serves detection *and* SSL.

        Computes the raw spectra at ``n_fft``, immediately derives the
        windowed detection power of ``mic`` from them
        (:meth:`ref_windowed_power`), then whitens the spectra **in place**
        for the localizers — the raw array is consumed, skipping the copy
        the lazy path would pay.  Call before detection when the block is
        expected to localize most frames.
        """
        if n_fft not in self._whitened:
            pre_existing = n_fft in self._raw
            spec = self._raw.get(n_fft)
            if spec is None:
                spec = _fft.rfft(self.frames, n_fft, axis=-1)
            self._raw[n_fft] = spec
            self.ref_windowed_power(window, mic=mic)  # derive while raw exists
            del self._raw[n_fft]
            # In-place whitening is only safe on an array nobody else holds;
            # a pre-existing raw entry may have been handed out by spectra().
            self._whitened[n_fft] = _whiten_inplace(spec.copy() if pre_existing else spec)
        else:
            self.ref_windowed_power(window, mic=mic)

    def cross_spectra(
        self, n_fft: int, pairs: list[tuple[int, int]] | None = None
    ) -> np.ndarray:
        """PHAT cross-spectra per pair, ``(T, P, n_fft // 2 + 1)``.

        With ``dtype=float64`` this equals ``gcc_phat_spectra(frames,
        n_fft=n_fft, pairs=pairs)`` bit for bit (same code path).
        """
        pairs = pairs if pairs is not None else _all_pairs(self.n_mics)
        key = (n_fft, tuple(pairs))
        if key not in self._cross:
            self._cross[key] = _pair_cross(self.whitened(n_fft), list(pairs))
        return self._cross[key]

    def gcc(self, n_fft: int, pairs: list[tuple[int, int]] | None = None) -> np.ndarray:
        """Lag-domain GCC-PHAT per pair, ``(T, P, n_fft)`` (circular layout:
        lag ``l`` at index ``l % n_fft``)."""
        pairs = pairs if pairs is not None else _all_pairs(self.n_mics)
        key = (n_fft, tuple(pairs))
        if key not in self._gcc:
            self._gcc[key] = _fft.irfft(self.cross_spectra(n_fft, pairs), n=n_fft, axis=-1)
        return self._gcc[key]

    def ref_windowed_power(self, window: np.ndarray, *, mic: int = 0) -> np.ndarray:
        """Windowed power spectrum of one mic at the native frame length.

        This is the detection front-end's ``|rfft(frame * window)|**2``.  When
        the raw double-length spectra are already cached (the localizer needs
        them anyway in the dense regime), the windowed spectrum is *derived*
        instead of re-FFT'd: zero-padded spectra decimate exactly
        (``X_L[k] = X_2L[2k]``) and a periodic Hann window is a 3-tap kernel
        in the frequency domain (``0.5 X[k] - 0.25 X[k-1] - 0.25 X[k+1]``).
        Non-Hann windows or a cold cache fall back to a direct float64 FFT,
        which matches the streaming detector bit for bit.
        """
        window = np.asarray(window)
        key = (window.tobytes(), mic)
        if key in self._windowed_power:
            return self._windowed_power[key]
        length = self.frame_length
        raw2 = self._raw.get(2 * length)
        if raw2 is not None and _periodic_hann_bytes(window.dtype.str, key[0]):
            x = raw2[:, mic, ::2]  # X_L[k] = X_2L[2k], k = 0 .. L/2
            inner = x[:, :-2] + x[:, 2:]  # X_L[k-1] + X_L[k+1] for 1 <= k <= L/2-1
            y = 0.5 * x.copy()
            y[:, 1:-1] -= 0.25 * inner
            # Hermitian edges: X_L[-1] = conj(X_L[1]), X_L[L/2+1] = conj(X_L[L/2-1]).
            y[:, 0] -= 0.5 * x[:, 1].real
            y[:, -1] -= 0.5 * x[:, -2].real
            out = y.real**2 + y.imag**2
        else:
            spec = np.fft.rfft(np.asarray(self._source[:, mic, :], dtype=np.float64) * window)
            out = spec.real**2 + spec.imag**2
        self._windowed_power[key] = out
        return out

    @staticmethod
    def _is_periodic_hann(window: np.ndarray) -> bool:
        window = np.asarray(window)
        return _periodic_hann_bytes(window.dtype.str, window.tobytes())

    # ------------------------------------------------------------- selection

    def take(self, indices: np.ndarray) -> "SpectraCache":
        """A child cache over a subset of frames.

        Every transform already computed is sliced (no recomputation); ones
        not yet computed are computed lazily on the subset only.  Used by the
        block engine to hand the localizer just the detected frames while
        sharing whatever the detector already paid for.
        """
        indices = np.asarray(indices, dtype=np.intp)
        child = SpectraCache.__new__(SpectraCache)
        child.dtype = self.dtype
        child._source = self._source[indices]
        child._frames = None if self._frames is None else self._frames[indices]
        child._raw = {k: v[indices] for k, v in self._raw.items()}
        child._whitened = {k: v[indices] for k, v in self._whitened.items()}
        child._cross = {k: v[indices] for k, v in self._cross.items()}
        child._gcc = {k: v[indices] for k, v in self._gcc.items()}
        child._windowed_power = {k: v[indices] for k, v in self._windowed_power.items()}
        return child


def gcc_phat(
    x1: np.ndarray,
    x2: np.ndarray,
    fs: float,
    *,
    max_tau: float | None = None,
    interp: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """GCC-PHAT cross-correlation of two signals.

    Returns ``(lags_seconds, correlation)`` restricted to ``|lag| <= max_tau``
    (defaults to the full range).  ``interp`` up-samples the correlation by
    zero-padding the spectrum, the classic way to get sub-sample TDOA peaks —
    and exactly the oversampling the low-complexity SRP of bench E4 removes.
    """
    if fs <= 0:
        raise ValueError("fs must be positive")
    if interp < 1:
        raise ValueError("interp must be >= 1")
    spec = gcc_phat_spectrum(x1, x2)
    n = 2 * (spec.size - 1)
    cc = np.fft.irfft(spec, n=interp * n)
    max_shift = interp * n // 2
    if max_tau is not None:
        if max_tau <= 0:
            raise ValueError("max_tau must be positive")
        max_shift = min(max_shift, int(np.ceil(interp * fs * max_tau)))
    cc = np.concatenate([cc[-max_shift:], cc[: max_shift + 1]])
    lags = np.arange(-max_shift, max_shift + 1) / (interp * fs)
    return lags, cc


def estimate_tdoa(
    x1: np.ndarray,
    x2: np.ndarray,
    fs: float,
    *,
    max_tau: float | None = None,
    interp: int = 4,
) -> float:
    """Time difference of arrival of ``x1`` relative to ``x2`` in seconds.

    Positive values mean ``x1`` received the wavefront *later* than ``x2``.
    Peak position is refined by parabolic interpolation around the maximum.
    """
    lags, cc = gcc_phat(x1, x2, fs, max_tau=max_tau, interp=interp)
    k = int(np.argmax(cc))
    if 0 < k < cc.size - 1:
        y0, y1, y2 = cc[k - 1], cc[k], cc[k + 1]
        denom = y0 - 2 * y1 + y2
        if abs(denom) > 1e-15:
            delta = 0.5 * (y0 - y2) / denom
            delta = float(np.clip(delta, -0.5, 0.5))
            return float(lags[k] + delta * (lags[1] - lags[0]))
    return float(lags[k])
