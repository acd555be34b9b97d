"""MUSIC (MUltiple SIgnal Classification) DOA estimation.

A classical subspace baseline alongside SRP-PHAT: the narrowband spatial
covariance is eigen-decomposed, and the pseudo-spectrum peaks where the
steering vector is orthogonal to the noise subspace.  Broadband operation
averages the narrowband pseudo-spectra over frequency bins (incoherent
wideband MUSIC).
"""

from __future__ import annotations

import numpy as np

from repro.acoustics.geometry import SPEED_OF_SOUND
from repro.ssl.doa import DoaGrid
from repro.ssl.gcc import SpectraCache
from repro.ssl.refine import GridPyramid, RefineConfig, RefineState
from repro.ssl.srp import SrpResult, _batch_peaks, _CoarseToFineMixin, _peak

__all__ = ["spatial_covariance", "music_spectrum", "MusicDoa"]


def spatial_covariance(frames_fft: np.ndarray) -> np.ndarray:
    """Spatial covariance matrices from STFT frames.

    ``frames_fft`` is ``(n_snapshots, n_mics, n_freq)``; returns
    ``(n_freq, n_mics, n_mics)`` Hermitian covariance estimates.
    """
    x = np.asarray(frames_fft)
    if x.ndim != 3:
        raise ValueError("frames_fft must be (n_snapshots, n_mics, n_freq)")
    if x.shape[0] < 1:
        raise ValueError("need at least one snapshot")
    # R[f] = mean_t x[t, :, f] x[t, :, f]^H
    return np.einsum("tmf,tnf->fmn", x, np.conj(x)) / x.shape[0]


def music_spectrum(
    covariance: np.ndarray,
    steering: np.ndarray,
    n_sources: int,
) -> np.ndarray:
    """Narrowband MUSIC pseudo-spectrum for one frequency.

    Parameters
    ----------
    covariance:
        ``(M, M)`` Hermitian spatial covariance.
    steering:
        ``(n_dirs, M)`` steering vectors.
    n_sources:
        Assumed source count (signal-subspace dimension).
    """
    r = np.asarray(covariance)
    a = np.asarray(steering)
    m = r.shape[0]
    if r.shape != (m, m):
        raise ValueError("covariance must be square")
    if a.ndim != 2 or a.shape[1] != m:
        raise ValueError("steering must be (n_dirs, n_mics)")
    if not 1 <= n_sources < m:
        raise ValueError("need 1 <= n_sources < n_mics")
    w, v = np.linalg.eigh(r)
    noise = v[:, : m - n_sources]  # eigh sorts ascending
    proj = np.conj(a) @ noise  # a^H E_n, shape (n_dirs, m - n_sources)
    denom = np.sum(np.abs(proj) ** 2, axis=1)
    return 1.0 / np.maximum(denom, 1e-12)


class MusicDoa(_CoarseToFineMixin):
    """Incoherent wideband MUSIC localizer over a far-field DOA grid.

    Parameters
    ----------
    mic_positions, fs, grid, n_fft, c:
        As for :class:`repro.ssl.srp.SrpPhat`.
    n_sources:
        Assumed number of simultaneous sources.
    band_hz:
        Frequency band whose bins are averaged.
    refine, spectra_dtype:
        Coarse-to-fine defaults, as in :class:`repro.ssl.srp.SrpPhat`.  Note
        MUSIC's per-bin eigendecompositions are grid-independent, so the
        coarse-to-fine path only trims the steering projections — the win is
        smaller than for the SRP localizers.
    """

    def __init__(
        self,
        mic_positions: np.ndarray,
        fs: float,
        *,
        grid: DoaGrid | None = None,
        n_fft: int = 512,
        n_sources: int = 1,
        band_hz: tuple[float, float] = (300.0, 3000.0),
        c: float = SPEED_OF_SOUND,
        refine: RefineConfig | None = None,
        spectra_dtype: np.dtype | type = np.float32,
    ) -> None:
        self.positions = np.asarray(mic_positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3 or self.positions.shape[0] < 3:
            raise ValueError("MUSIC needs (n_mics >= 3, 3) positions")
        if fs <= 0:
            raise ValueError("fs must be positive")
        if n_fft < 64 or n_fft & (n_fft - 1):
            raise ValueError("n_fft must be a power of two >= 64")
        if not 1 <= n_sources < self.positions.shape[0]:
            raise ValueError("need 1 <= n_sources < n_mics")
        lo, hi = band_hz
        if not 0 <= lo < hi <= fs / 2:
            raise ValueError("invalid band")
        self.fs = float(fs)
        self.grid = grid or DoaGrid()
        self.n_fft = int(n_fft)
        self.n_sources = int(n_sources)
        self.c = float(c)
        freqs = np.fft.rfftfreq(self.n_fft, d=1.0 / self.fs)
        self._bins = np.flatnonzero((freqs >= lo) & (freqs <= hi))
        if self._bins.size == 0:
            raise ValueError("band contains no FFT bins")
        # Steering vectors per bin: a_m(f, u) = exp(-j 2 pi f (r_m . u) / c).
        dirs = self._directions = self.grid.directions()  # (G, 3)
        delays = -(self.positions @ dirs.T) / self.c  # (M, G) arrival delays
        self._steering = np.exp(
            -2j * np.pi * freqs[self._bins][:, None, None] * delays.T[None, :, :]
        )  # (B, G, M)
        self.refine = refine
        self.spectra_dtype = np.dtype(spectra_dtype)
        self._typed_steering: dict[np.dtype, np.ndarray] = {}

    # --------------------------------------------------- coarse-to-fine hooks

    def _validate_block(self, frames: np.ndarray) -> np.ndarray:
        if frames.ndim != 3 or frames.shape[1] != self.positions.shape[0]:
            raise ValueError(
                f"frames must be (n_frames, n_mics={self.positions.shape[0]}, L)"
            )
        return frames

    def _steering_typed(self, complex_dtype: np.dtype) -> np.ndarray:
        key = np.dtype(complex_dtype)
        if key not in self._typed_steering:
            self._typed_steering[key] = np.ascontiguousarray(
                np.conj(self._steering), dtype=complex_dtype
            )
        return self._typed_steering[key]

    def _noise_subspaces(self, cache: SpectraCache, n_snapshots: int) -> np.ndarray:
        """Per-bin noise subspaces of every frame, ``(B, T, M, K)``.

        This is the grid-independent part of the MUSIC sweep (snapshot FFTs,
        band covariances, eigendecompositions), computed once per block and
        shared by the coarse sweep and every refinement window.
        """
        frames = cache.frames
        n_frames, m, total = frames.shape
        snap_len = total // n_snapshots
        if snap_len < 32:
            raise ValueError("frame too short for the requested snapshots")
        win = np.hanning(snap_len).astype(frames.dtype)
        blocks = frames[:, :, : n_snapshots * snap_len].reshape(
            n_frames, m, n_snapshots, snap_len
        )
        import scipy.fft as _fft

        ffts = _fft.rfft(blocks * win, n=self.n_fft, axis=-1)  # (T, M, S, F)
        band = ffts[..., self._bins]  # (T, M, S, B)
        cov = np.einsum("tmsb,tnsb->btmn", band, np.conj(band)) / n_snapshots
        n_noise = m - self.n_sources
        noise = np.empty((self._bins.size, n_frames, m, n_noise), dtype=cov.dtype)
        for b in range(self._bins.size):
            _, v = np.linalg.eigh(cov[b])  # batched over frames
            noise[b] = v[..., :n_noise]  # eigh sorts ascending
        return noise

    def _map_from_cache(self, cache: SpectraCache, *, n_snapshots: int = 8) -> np.ndarray:
        """Dense sweep from a shared cache (dtype follows the cache)."""
        noise = self._noise_subspaces(cache, n_snapshots)
        steer = self._steering_typed(noise.dtype)
        spec = np.zeros((cache.n_frames, self.grid.size), dtype=cache.dtype)
        for b in range(self._bins.size):
            proj = np.einsum("gm,tmk->tgk", steer[b], noise[b])
            denom = np.sum(proj.real**2 + proj.imag**2, axis=-1)
            spec += 1.0 / np.maximum(denom, 1e-12)
        return (spec / self._bins.size).reshape(cache.n_frames, *self.grid.shape)

    def _c2f_power_fn(self, cache: SpectraCache, pyramid: GridPyramid, *, n_snapshots: int = 8):
        noise = self._noise_subspaces(cache, n_snapshots)
        steer = self._steering_typed(noise.dtype)
        real = cache.dtype

        def power_fn(rows: np.ndarray | None, cols: np.ndarray) -> np.ndarray:
            nz = noise if rows is None else noise[:, rows]
            spec = np.zeros((nz.shape[1], cols.size), dtype=real)
            sub = steer[:, cols]  # (B, W, M)
            for b in range(self._bins.size):
                proj = np.einsum("wm,tmk->twk", sub[b], nz[b])
                denom = np.sum(proj.real**2 + proj.imag**2, axis=-1)
                spec += 1.0 / np.maximum(denom, 1e-12)
            return spec / self._bins.size

        return power_fn

    def map_from_frames(self, frames: np.ndarray, *, n_snapshots: int = 8) -> np.ndarray:
        """MUSIC map from one multichannel frame block, ``(n_az, n_el)``.

        The block is split into ``n_snapshots`` sub-frames to estimate the
        covariance.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] != self.positions.shape[0]:
            raise ValueError(f"frames must be (n_mics={self.positions.shape[0]}, L)")
        m, total = frames.shape
        snap_len = total // n_snapshots
        if snap_len < 32:
            raise ValueError("frame too short for the requested snapshots")
        win = np.hanning(snap_len)
        ffts = np.stack(
            [
                np.fft.rfft(frames[:, s * snap_len : (s + 1) * snap_len] * win, n=self.n_fft, axis=1)
                for s in range(n_snapshots)
            ]
        )  # (S, M, n_freq)
        cov = spatial_covariance(ffts)
        spec = np.zeros(self.grid.size)
        for b, k in enumerate(self._bins):
            spec += music_spectrum(cov[k], self._steering[b], self.n_sources)
        return (spec / self._bins.size).reshape(self.grid.shape)

    def map_from_frames_batch(self, frames: np.ndarray, *, n_snapshots: int = 8) -> np.ndarray:
        """MUSIC maps of a batch of frame blocks, ``(n_frames, n_az, n_el)``.

        ``frames`` is ``(n_frames, n_mics, L)``.  Snapshot FFTs and band
        covariances of all frames are computed in one shot; the per-bin
        eigendecompositions run batched over the frame axis.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3 or frames.shape[1] != self.positions.shape[0]:
            raise ValueError(
                f"frames must be (n_frames, n_mics={self.positions.shape[0]}, L)"
            )
        n_frames, m, total = frames.shape
        snap_len = total // n_snapshots
        if snap_len < 32:
            raise ValueError("frame too short for the requested snapshots")
        win = np.hanning(snap_len)
        blocks = frames[:, :, : n_snapshots * snap_len].reshape(n_frames, m, n_snapshots, snap_len)
        ffts = np.fft.rfft(blocks * win, n=self.n_fft, axis=-1)  # (T, M, S, F)
        band = ffts[..., self._bins]  # (T, M, S, B)
        cov = np.einsum("tmsb,tnsb->tbmn", band, np.conj(band)) / n_snapshots
        spec = np.zeros((n_frames, self.grid.size))
        n_noise = m - self.n_sources
        for b in range(self._bins.size):
            _, v = np.linalg.eigh(cov[:, b])  # batched over frames
            noise = v[..., :n_noise]  # (T, M, n_noise), eigh sorts ascending
            proj = np.einsum("gm,tmk->tgk", np.conj(self._steering[b]), noise)
            denom = np.sum(np.abs(proj) ** 2, axis=-1)
            spec += 1.0 / np.maximum(denom, 1e-12)
        return (spec / self._bins.size).reshape(n_frames, *self.grid.shape)

    def localize(
        self,
        frames: np.ndarray,
        *,
        n_snapshots: int = 8,
        refine: RefineConfig | int | None = None,
        state: RefineState | None = None,
        cache: SpectraCache | None = None,
    ) -> SrpResult:
        """Locate the dominant source in one multichannel frame block (see
        :meth:`repro.ssl.srp.SrpPhat.localize` for the refine semantics)."""
        if self._resolve_refine(refine) is None and cache is None:
            music_map = self.map_from_frames(frames, n_snapshots=n_snapshots)
            return _peak(self.grid, self._directions, music_map)
        if cache is None:
            frames = np.asarray(frames)[None]
        return self.localize_batch(
            frames, n_snapshots=n_snapshots, refine=refine, state=state, cache=cache
        )[0]

    def localize_batch(
        self,
        frames: np.ndarray | None,
        *,
        n_snapshots: int = 8,
        refine: RefineConfig | int | None = None,
        state: RefineState | None = None,
        cache: SpectraCache | None = None,
    ) -> list[SrpResult]:
        """Locate the dominant source in every frame block of a batch (see
        :meth:`repro.ssl.srp.SrpPhat.localize_batch` for the parameters)."""
        cfg = self._resolve_refine(refine)
        if cfg is None:
            if cache is not None:
                maps = self._map_from_cache(cache, n_snapshots=n_snapshots)
                return _batch_peaks(self.grid, self._directions, maps)
            maps = self.map_from_frames_batch(frames, n_snapshots=n_snapshots)
            return _batch_peaks(self.grid, self._directions, maps)
        return self._c2f_localize_batch(frames, cfg, state, cache, n_snapshots=n_snapshots)
