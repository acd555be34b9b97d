"""Gammatone filterbank and gammatonegram front-end.

Gammatonegrams are the feature the Marchegiani & Newman siren detector uses
("Listening for Sirens") and one of the representations the paper's survey
lists.  We implement the 4th-order gammatone bank with the Glasberg & Moore
ERB scale, realized as cascaded 2nd-order IIR sections (Slaney's design) via
scipy's ``lfilter``, imported when a gammatonegram is first computed.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.stft import db, frame_signals

__all__ = [
    "erb_space",
    "hz_to_erb",
    "erb_to_hz",
    "gammatone_filterbank_coefficients",
    "gammatonegram",
    "gammatonegram_batch",
    "log_gammatonegram",
    "log_gammatonegram_batch",
]

_EAR_Q = 9.26449
_MIN_BW = 24.7


def hz_to_erb(f: np.ndarray) -> np.ndarray:
    """Frequency (Hz) to ERB-rate scale."""
    f = np.asarray(f, dtype=np.float64)
    return _EAR_Q * np.log(1.0 + f / (_MIN_BW * _EAR_Q))


def erb_to_hz(e: np.ndarray) -> np.ndarray:
    """ERB-rate scale to frequency (Hz)."""
    e = np.asarray(e, dtype=np.float64)
    return _MIN_BW * _EAR_Q * (np.exp(e / _EAR_Q) - 1.0)


def erb_space(fmin: float, fmax: float, n_bands: int) -> np.ndarray:
    """``n_bands`` centre frequencies equally spaced on the ERB scale."""
    if not 0 < fmin < fmax:
        raise ValueError("need 0 < fmin < fmax")
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
    return erb_to_hz(np.linspace(hz_to_erb(fmin), hz_to_erb(fmax), n_bands))


def gammatone_filterbank_coefficients(
    center_freqs: np.ndarray, fs: float
) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Biquad cascades implementing 4th-order gammatone filters.

    Returns, per centre frequency, a list of four ``(b, a)`` second-order
    sections (Slaney 1993 all-pole gammatone approximation).
    """
    center_freqs = np.asarray(center_freqs, dtype=np.float64)
    if fs <= 0:
        raise ValueError("fs must be positive")
    if np.any(center_freqs <= 0) or np.any(center_freqs >= fs / 2):
        raise ValueError("centre frequencies must lie in (0, fs/2)")
    T = 1.0 / fs
    out = []
    for cf in center_freqs:
        erb = _MIN_BW + cf / _EAR_Q
        B = 1.019 * 2.0 * np.pi * erb
        arg = 2.0 * np.pi * cf * T
        exp_b = np.exp(-B * T)
        cos_ = np.cos(arg)
        sin_ = np.sin(arg)
        a = np.array([1.0, -2.0 * cos_ * exp_b, np.exp(-2.0 * B * T)])
        sqrt_plus = np.sqrt(3.0 + 2.0**1.5)
        sqrt_minus = np.sqrt(3.0 - 2.0**1.5)
        zeros = [
            cos_ + sqrt_plus * sin_,
            cos_ - sqrt_plus * sin_,
            cos_ + sqrt_minus * sin_,
            cos_ - sqrt_minus * sin_,
        ]
        sections = []
        for z in zeros:
            b = np.array([T, -T * exp_b * z, 0.0])
            sections.append((b, a.copy()))
        # Normalize the cascade to unit gain at the centre frequency.
        w = np.exp(1j * arg)
        gain = 1.0
        for b, a_ in sections:
            gain *= np.abs(np.polyval(b[::-1], 1 / w) / np.polyval(a_[::-1], 1 / w))
        scale = gain ** (1.0 / len(sections))
        sections = [(b / scale, a_) for b, a_ in sections]
        out.append(sections)
    return out


def gammatonegram_batch(
    x: np.ndarray,
    fs: float,
    *,
    n_bands: int = 64,
    fmin: float = 50.0,
    fmax: float | None = None,
    frame_length: int = 512,
    hop_length: int = 256,
) -> np.ndarray:
    """Gammatone-band energy maps of a batch, ``(n_clips, n_bands, T)``.

    Matches :func:`gammatonegram` per clip.  Each band's biquad cascade runs
    as ``scipy.signal.lfilter`` along the time axis of the *whole batch*
    (one C-level pass per section instead of a Python loop per clip), and
    the frame energies come from one strided framing view instead of a
    Python loop per frame.
    """
    from scipy.signal import lfilter

    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[-1] == 0:
        raise ValueError("x must be (n_clips, n_samples)")
    fmax = fmax if fmax is not None else 0.95 * fs / 2.0
    cfs = erb_space(fmin, fmax, n_bands)
    banks = gammatone_filterbank_coefficients(cfs, fs)
    n = x.shape[-1]
    n_frames = max(1, 1 + (n - frame_length) // hop_length)
    out = np.empty((x.shape[0], n_bands, n_frames))
    for i, sections in enumerate(banks):
        y = x
        for b, a in sections:
            y = lfilter(b, a, y, axis=-1)
        e = y**2
        if n < frame_length:
            out[:, i, :] = e.mean(axis=-1, keepdims=True)
        else:
            frames = frame_signals(e, frame_length, hop_length, pad=False)
            out[:, i, :] = frames.mean(axis=-1)
    return out


def gammatonegram(
    x: np.ndarray,
    fs: float,
    *,
    n_bands: int = 64,
    fmin: float = 50.0,
    fmax: float | None = None,
    frame_length: int = 512,
    hop_length: int = 256,
) -> np.ndarray:
    """Gammatone-band energy map, shape ``(n_bands, n_frames)``.

    The signal is passed through the gammatone bank; per-band per-frame
    energy is averaged over frames of ``frame_length`` samples with hop
    ``hop_length``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("x must be a non-empty 1-D signal")
    return gammatonegram_batch(
        x[None],
        fs,
        n_bands=n_bands,
        fmin=fmin,
        fmax=fmax,
        frame_length=frame_length,
        hop_length=hop_length,
    )[0]


def log_gammatonegram(
    x: np.ndarray,
    fs: float,
    *,
    n_bands: int = 64,
    fmin: float = 50.0,
    fmax: float | None = None,
    frame_length: int = 512,
    hop_length: int = 256,
    floor_db: float = -80.0,
) -> np.ndarray:
    """Gammatonegram in dB relative to its own maximum."""
    g = gammatonegram(
        x,
        fs,
        n_bands=n_bands,
        fmin=fmin,
        fmax=fmax,
        frame_length=frame_length,
        hop_length=hop_length,
    )
    ref = float(g.max()) or 1.0
    return db(g, ref=ref, floor_db=floor_db)


def log_gammatonegram_batch(
    x: np.ndarray,
    fs: float,
    *,
    n_bands: int = 64,
    fmin: float = 50.0,
    fmax: float | None = None,
    frame_length: int = 512,
    hop_length: int = 256,
    floor_db: float = -80.0,
) -> np.ndarray:
    """Batched :func:`log_gammatonegram` (dB relative to each clip's max)."""
    g = gammatonegram_batch(
        x,
        fs,
        n_bands=n_bands,
        fmin=fmin,
        fmax=fmax,
        frame_length=frame_length,
        hop_length=hop_length,
    )
    ref = np.maximum(g.max(axis=(-2, -1), keepdims=True), np.finfo(np.float64).tiny)
    floor = ref * 10.0 ** (floor_db / 10.0)
    return 10.0 * np.log10(np.maximum(g, floor) / ref)
