"""Conventional SRP-PHAT (steered response power with phase transform).

This is the hardware-unfriendly baseline the paper's co-design study starts
from: for every candidate direction the PHAT-weighted cross-power spectra of
all microphone pairs are phase-steered and summed over the full frequency
axis — cost O(pairs x grid x n_freq) per frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.acoustics.geometry import SPEED_OF_SOUND
from repro.ssl.doa import DoaGrid
from repro.ssl.gcc import SpectraCache, gcc_phat_spectra
from repro.ssl.refine import GridPyramid, RefineConfig, RefineState, _search_segments

__all__ = ["SrpPhat", "SrpResult", "mic_pairs", "pair_tdoas"]


def mic_pairs(n_mics: int) -> list[tuple[int, int]]:
    """All unordered microphone pairs."""
    if n_mics < 2:
        raise ValueError("need at least 2 microphones")
    return [(i, j) for i in range(n_mics) for j in range(i + 1, n_mics)]


def pair_tdoas(
    positions: np.ndarray,
    directions: np.ndarray,
    *,
    c: float = SPEED_OF_SOUND,
) -> np.ndarray:
    """Far-field TDOA (seconds) for every mic pair and direction.

    Returns shape ``(n_pairs, n_directions)``.  For a plane wave from unit
    direction ``u``, the signal at mic ``i`` leads mic ``j`` by
    ``(r_j - r_i) . u / c``; the value returned is the delay of mic ``i``
    relative to mic ``j`` (matching :func:`repro.ssl.gcc.estimate_tdoa`).
    """
    positions = np.asarray(positions, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must be (n_mics, 3)")
    if directions.ndim != 2 or directions.shape[1] != 3:
        raise ValueError("directions must be (n_dirs, 3)")
    pairs = mic_pairs(positions.shape[0])
    diff = np.stack([positions[j] - positions[i] for i, j in pairs])  # (P, 3)
    return (diff @ directions.T) / c


def _check_frames(
    positions: np.ndarray, n_fft: int, frames: np.ndarray, ndim: int
) -> np.ndarray:
    """Validate a single (``ndim=2``) or batched (``ndim=3``) frame block."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != ndim or frames.shape[-2] != positions.shape[0]:
        shape = "(n_frames, " if ndim == 3 else "("
        raise ValueError(f"frames must be {shape}n_mics={positions.shape[0]}, L)")
    if frames.shape[-1] > n_fft // 2:
        raise ValueError("frame longer than n_fft // 2; increase n_fft")
    return frames


def _peak(grid: DoaGrid, directions: np.ndarray, srp_map: np.ndarray) -> "SrpResult":
    """Winning direction of one map."""
    flat = int(np.argmax(srp_map))
    az, el = grid.index_to_azel(flat)
    return SrpResult(srp_map, az, el, directions[flat])


def _batch_peaks(grid: DoaGrid, directions: np.ndarray, maps: np.ndarray) -> list["SrpResult"]:
    """Peak extraction for a stack of maps with one vectorized argmax."""
    flats = maps.reshape(maps.shape[0], -1).argmax(axis=1)
    return _results_at(grid, directions, maps, flats)


def _results_at(
    grid: DoaGrid, directions: np.ndarray, maps: np.ndarray, flats: np.ndarray
) -> list["SrpResult"]:
    """Build SrpResults for precomputed per-frame peak indices."""
    i, j = np.divmod(flats, grid.n_elevation)
    azimuths = grid.azimuths[i]
    elevations = grid.elevations[j]
    maps = maps.reshape(maps.shape[0], *grid.shape)
    return [
        SrpResult(m, float(a), float(e), directions[f])
        for m, a, e, f in zip(maps, azimuths, elevations, flats)
    ]


class _CoarseToFineMixin:
    """Shared coarse-to-fine plumbing for the grid-sweep localizers.

    Subclasses provide ``_c2f_power_fn(cache, pyramid, **kw)`` returning the
    column-subset power evaluator used by
    :func:`repro.ssl.refine.coarse_to_fine_search`, and set ``self.refine``
    (default :class:`RefineConfig` or ``None``) and ``self.spectra_dtype``
    (working dtype of self-built caches on the coarse-to-fine path).
    """

    refine: RefineConfig | None
    spectra_dtype: np.dtype

    def _validate_block(self, frames: np.ndarray) -> np.ndarray:
        """Validate a ``(n_frames, n_mics, L)`` block (overridable per class)."""
        return _check_frames(self.positions, self.n_fft, frames, 3)

    def _pyramid(self, levels: int) -> GridPyramid:
        cache = getattr(self, "_pyramids", None)
        if cache is None:
            cache = self._pyramids = {}
        if levels not in cache:
            cache[levels] = GridPyramid(self.grid, levels)
        return cache[levels]

    def _window_slice(self, base: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Contiguous column slice ``base[:, cols]`` with memoization.

        Refinement windows recur heavily (the pyramid memoizes them per cell
        set), and for the conventional localizer the steering slice is the
        dominant memory traffic of a window GEMM — gathering it once per
        distinct window instead of once per frame group is what keeps
        fragmented (fast-moving / noisy) replays fast.
        """
        memo = getattr(self, "_win_slices", None)
        if memo is None:
            memo = self._win_slices = {}
        key = (id(base), cols.tobytes())
        hit = memo.get(key)
        if hit is None:
            if len(memo) > 64:  # bound the cached slices (windows are small)
                memo.clear()
            hit = memo[key] = np.ascontiguousarray(base[:, cols])
        return hit

    def _resolve_refine(self, refine) -> RefineConfig | None:
        if refine is None:
            refine = self.refine
        if refine is None:
            return None
        if isinstance(refine, int):
            refine = RefineConfig(levels=refine)
        return refine if refine.levels > 1 else None

    def _checked_cache(self, frames: np.ndarray | None, cache: SpectraCache | None) -> SpectraCache:
        """The cache to localize from: ``cache`` (mic count checked), or
        one built over the validated ``frames``."""
        if cache is None:
            frames = self._validate_block(np.asarray(frames))
            return SpectraCache(frames, dtype=self.spectra_dtype)
        if cache.n_mics != self.positions.shape[0]:
            raise ValueError(f"cache has {cache.n_mics} mics, expected {self.positions.shape[0]}")
        return cache

    def _search(
        self,
        cache: SpectraCache,
        refine: RefineConfig,
        bounds: list[int],
        states: list[RefineState | None],
        *,
        maps: bool,
        **kwargs,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Coarse-to-fine peaks (and maps) of every cache row, segment ``i``
        (rows ``bounds[i]:bounds[i + 1]``) replaying ``states[i]``."""
        pyramid = self._pyramid(refine.levels)
        if pyramid.is_trivial:
            dense = self._map_from_cache(cache, **kwargs).reshape(cache.n_frames, -1)
            return dense.argmax(axis=1), dense
        power_fn = self._c2f_power_fn(cache, pyramid, **kwargs)
        return _search_segments(power_fn, bounds, states, pyramid, refine, maps=maps)

    def _c2f_localize_batch(
        self,
        frames: np.ndarray | None,
        refine: RefineConfig,
        state: RefineState | None,
        cache: SpectraCache | None,
        **kwargs,
    ) -> list["SrpResult"]:
        """Coarse-to-fine localization of a block (frames or a shared cache)."""
        cache = self._checked_cache(frames, cache)
        flats, maps = self._search(cache, refine, [0, cache.n_frames], [state], maps=True, **kwargs)
        return _results_at(self.grid, self._directions, maps, flats)

    def _peak_flats(
        self, cache: SpectraCache, bounds: list[int], states: list[RefineState | None]
    ) -> np.ndarray:
        """Flat grid index of every cache row's peak, under the default
        refine config: the :meth:`localize_batch` of each segment
        ``bounds[i]:bounds[i + 1]`` with ``state=states[i]``, in one pass
        and without building maps (the hop kernel's entry point)."""
        cache = self._checked_cache(None, cache)
        refine = self._resolve_refine(None)
        if refine is None:
            return self._map_from_cache(cache).reshape(cache.n_frames, -1).argmax(axis=1)
        return self._search(cache, refine, bounds, states, maps=False)[0]


@dataclass(frozen=True)
class SrpResult:
    """SRP map plus the winning direction.

    Attributes
    ----------
    map:
        Steered power, shape ``(n_azimuth, n_elevation)``.
    azimuth, elevation:
        Peak direction in radians.
    direction:
        Peak unit vector.
    """

    map: np.ndarray
    azimuth: float
    elevation: float
    direction: np.ndarray


class SrpPhat(_CoarseToFineMixin):
    """Conventional frequency-domain SRP-PHAT localizer.

    Parameters
    ----------
    mic_positions:
        Array geometry, shape ``(n_mics, 3)``.
    fs:
        Sampling rate in Hz.
    grid:
        DOA search grid.
    n_fft:
        FFT length for the cross-power spectra (frames are zero-padded).
    c:
        Speed of sound, m/s.
    refine:
        Default :class:`~repro.ssl.refine.RefineConfig` for
        ``localize``/``localize_batch``; ``None`` (default) keeps the dense
        full-grid sweep, preserving the original behaviour.
    spectra_dtype:
        Working dtype of the coarse-to-fine path's self-built
        :class:`~repro.ssl.gcc.SpectraCache` (float32 by default — the dense
        detection regime trades bit-exactness for ~2x memory bandwidth; the
        dense ``map_from_frames*`` APIs stay float64).
    """

    def __init__(
        self,
        mic_positions: np.ndarray,
        fs: float,
        *,
        grid: DoaGrid | None = None,
        n_fft: int = 1024,
        c: float = SPEED_OF_SOUND,
        refine: RefineConfig | None = None,
        spectra_dtype: np.dtype | type = np.float32,
    ) -> None:
        if fs <= 0:
            raise ValueError("fs must be positive")
        if n_fft < 64 or n_fft & (n_fft - 1):
            raise ValueError("n_fft must be a power of two >= 64")
        self.positions = np.asarray(mic_positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3 or self.positions.shape[0] < 2:
            raise ValueError("mic_positions must be (n_mics >= 2, 3)")
        self.fs = float(fs)
        self.grid = grid or DoaGrid()
        self.n_fft = int(n_fft)
        self.c = float(c)
        self.pairs = mic_pairs(self.positions.shape[0])
        self._directions = self.grid.directions()
        self._tdoas = pair_tdoas(self.positions, self._directions, c=self.c)
        freqs = np.fft.rfftfreq(self.n_fft, d=1.0 / self.fs)
        # Steering phases: (n_pairs, n_dirs, n_freq); the dominant memory of
        # the conventional method and the "coefficients" bench E4 counts.
        self._steering = np.exp(
            2j * np.pi * freqs[None, None, :] * self._tdoas[:, :, None]
        )
        # Interleaved real steering for the batched path, built lazily on the
        # first map_from_frames_batch call (doubles steering memory).
        self._steering_flat: np.ndarray | None = None
        self.refine = refine
        self.spectra_dtype = np.dtype(spectra_dtype)
        self._typed_steering: dict[np.dtype, np.ndarray] = {}
        self._coarse_steering: dict[tuple[int, np.dtype], np.ndarray] = {}

    @property
    def n_coefficients(self) -> int:
        """Stored steering coefficients (complex), the E4 coefficient count."""
        return int(self._steering.size)

    def _steering_interleaved(self, dtype: np.dtype) -> np.ndarray:
        """Interleaved (re, -im) steering matrix ``(2 * P * F, G)`` in dtype."""
        if self._steering_flat is None:
            # Interleave Re/-Im rows so the complex steering sum becomes ONE
            # real matmul over the (re, im, re, im, ...) view of the spectra.
            flat = self._steering.transpose(0, 2, 1).reshape(-1, self.grid.size)
            w = np.empty((2 * flat.shape[0], flat.shape[1]))
            w[0::2] = flat.real
            w[1::2] = -flat.imag
            self._steering_flat = w
        key = np.dtype(dtype)
        if key not in self._typed_steering:
            self._typed_steering[key] = np.ascontiguousarray(
                self._steering_flat, dtype=dtype
            )
        return self._typed_steering[key]

    def _coarse_tensor(self, pyramid: GridPyramid, dtype: np.dtype) -> np.ndarray:
        """Precomputed per-level steering tensor (coarse-grid column subset)."""
        key = (pyramid.az_stride * 100000 + pyramid.el_stride, np.dtype(dtype))
        if key not in self._coarse_steering:
            self._coarse_steering[key] = np.ascontiguousarray(
                self._steering_interleaved(dtype)[:, pyramid.coarse_flat]
            )
        return self._coarse_steering[key]

    def _cross_flat(self, cache: SpectraCache) -> np.ndarray:
        """Cross-spectra of a cache as an interleaved real matrix ``(T, 2PF)``."""
        cross = np.ascontiguousarray(cache.cross_spectra(self.n_fft, self.pairs))
        real = np.float32 if cross.dtype == np.complex64 else np.float64
        return cross.view(real).reshape(cache.n_frames, -1)

    def _map_from_cache(self, cache: SpectraCache) -> np.ndarray:
        """Dense sweep from a shared cache (dtype follows the cache)."""
        flat = self._cross_flat(cache)
        power = flat @ self._steering_interleaved(flat.dtype)
        return power.reshape(cache.n_frames, *self.grid.shape)

    def _c2f_power_fn(self, cache: SpectraCache, pyramid: GridPyramid):
        flat = self._cross_flat(cache)
        steering = self._steering_interleaved(flat.dtype)
        coarse = self._coarse_tensor(pyramid, flat.dtype)

        def power_fn(rows: np.ndarray | None, cols: np.ndarray) -> np.ndarray:
            x = flat if rows is None else flat[rows]
            if cols is pyramid.coarse_flat:
                return x @ coarse
            return x @ self._window_slice(steering, cols)

        return power_fn

    def map_from_frames(self, frames: np.ndarray) -> np.ndarray:
        """SRP map from one multichannel frame, shape ``(n_az, n_el)``.

        ``frames`` is ``(n_mics, frame_length)`` with
        ``frame_length <= n_fft // 2`` (zero-padding doubles the length for
        linear correlation).  Per-mic spectra are computed once and shared
        across pairs (``n_mics`` FFTs instead of ``2 * n_pairs``).
        """
        frames = _check_frames(self.positions, self.n_fft, frames, 2)
        cross = gcc_phat_spectra(frames, n_fft=self.n_fft, pairs=self.pairs)
        power = np.zeros(self.grid.size)
        for p in range(len(self.pairs)):
            # Re(sum_k S(k) e^{j w tau}): full frequency sum per direction.
            power += np.real(self._steering[p] @ cross[p])
        return power.reshape(self.grid.shape)

    def map_from_frames_batch(self, frames: np.ndarray) -> np.ndarray:
        """SRP maps of a batch of frames, shape ``(n_frames, n_az, n_el)``.

        ``frames`` is ``(n_frames, n_mics, frame_length)``.  All pairs,
        directions and frames are steered in a single real matmul against
        the precomputed steering tensor:
        ``power[t, g] = sum_{p,k} Re(S[t,p,k]) Re(W[p,g,k]) - Im(S) Im(W)``.
        """
        frames = _check_frames(self.positions, self.n_fft, frames, 3)
        cross = gcc_phat_spectra(frames, n_fft=self.n_fft, pairs=self.pairs)
        steering = self._steering_interleaved(np.float64)
        cross = np.ascontiguousarray(cross).reshape(frames.shape[0], -1)
        power = cross.view(np.float64) @ steering
        return power.reshape(frames.shape[0], *self.grid.shape)

    def localize(
        self,
        frames: np.ndarray,
        *,
        refine: RefineConfig | int | None = None,
        state: RefineState | None = None,
        cache: SpectraCache | None = None,
    ) -> SrpResult:
        """Locate the dominant source in one multichannel frame.

        With an effective refine config (argument or constructor default)
        the frame runs through the same coarse-to-fine path as
        :meth:`localize_batch`, carrying ``state`` across calls for temporal
        window reuse; otherwise the original dense sweep runs.
        """
        if self._resolve_refine(refine) is None and cache is None:
            return _peak(self.grid, self._directions, self.map_from_frames(frames))
        if cache is None:
            frames = np.asarray(frames)[None]
        return self.localize_batch(frames, refine=refine, state=state, cache=cache)[0]

    def localize_batch(
        self,
        frames: np.ndarray | None,
        *,
        refine: RefineConfig | int | None = None,
        state: RefineState | None = None,
        cache: SpectraCache | None = None,
    ) -> list[SrpResult]:
        """Locate the dominant source in every frame of a batch.

        Parameters
        ----------
        frames:
            ``(n_frames, n_mics, frame_length)`` block, or ``None`` when a
            ``cache`` carries the frames.
        refine:
            Coarse-to-fine override (a :class:`RefineConfig` or just a level
            count); defaults to the constructor's ``refine``.  ``None`` with
            no constructor default runs the dense sweep.
        state:
            :class:`RefineState` carried across calls for temporal window
            reuse (owned by the stream/pipeline, not the localizer).
        cache:
            Shared :class:`~repro.ssl.gcc.SpectraCache` over the same frames
            (e.g. primed by the detection front-end); built internally when
            omitted.
        """
        cfg = self._resolve_refine(refine)
        if cfg is None:
            if cache is not None:
                maps = self._map_from_cache(cache)
                return _batch_peaks(self.grid, self._directions, maps)
            return _batch_peaks(self.grid, self._directions, self.map_from_frames_batch(frames))
        return self._c2f_localize_batch(frames, cfg, state, cache)
