"""Coarse-to-fine localization correctness + SpectraCache coherence.

Two contracts from the dense-path engine PR:

- **Cache coherence**: :class:`repro.ssl.SpectraCache` (float64) must be
  bit-identical to the direct GCC-PHAT functions it replaces, across FFT
  lengths, pair subsets and row slicing.
- **Refinement tolerance**: the coarse-to-fine search must find the dense
  sweep's argmax exactly on coherent-source frames (peak lobe wider than one
  coarse stride) and stay within the documented normalized peak-power gap on
  adversarial noise-only frames, for all three localizer classes.
"""

import numpy as np
import pytest

from repro.dsp.stft import get_window
from repro.ssl import (
    DoaGrid,
    FastSrpPhat,
    MusicDoa,
    RefineConfig,
    RefineState,
    SpectraCache,
    SrpPhat,
    gcc_phat_spectra,
    refinement_gap,
)

FS = 16000.0
C = 343.0
GRID = DoaGrid(n_azimuth=48, n_elevation=4, el_min=0.0, el_max=np.pi / 4)
MICS = np.array(
    [[0.1, 0.1, 1.0], [0.1, -0.1, 1.0], [-0.1, -0.1, 1.0], [-0.1, 0.1, 1.0]]
)


def random_array(rng, n_mics=4, aperture=0.25):
    """A random (non-degenerate) planar-ish array."""
    pos = rng.uniform(-aperture / 2, aperture / 2, size=(n_mics, 3))
    pos[:, 2] = 1.0 + 0.05 * pos[:, 2]
    return pos


def simulate(mics, az, el, *, n=512, seed=0, snr_noise=0.05, rng=None):
    """Coherent broadband source from (az, el) plus a little noise."""
    r = np.random.default_rng(seed)
    u = np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])
    src = r.standard_normal(n)
    spec = np.fft.rfft(src)
    f = np.arange(spec.size) / n
    out = np.empty((mics.shape[0], n))
    for m, pos in enumerate(mics):
        delay = -(pos @ u) / C * FS
        out[m] = np.fft.irfft(spec * np.exp(-2j * np.pi * f * delay), n=n)
    noise_rng = rng or r
    return out + snr_noise * noise_rng.standard_normal(out.shape)


def c2f_peak_flats(results):
    """Flat argmax indices of coarse-to-fine results (finite cells only)."""
    out = []
    for r in results:
        flat = r.map.ravel()
        out.append(int(np.nanargmax(np.where(np.isfinite(flat), flat, -np.inf))))
    return np.array(out)


class TestSpectraCacheCoherence:
    def test_cross_spectra_bit_identical(self):
        rng = np.random.default_rng(0)
        frames = rng.standard_normal((7, 4, 256))
        for n_fft in (512, 1024):
            cache = SpectraCache(frames, dtype=np.float64)
            direct = gcc_phat_spectra(frames, n_fft=n_fft)
            assert np.array_equal(cache.cross_spectra(n_fft), direct)

    def test_single_frame_and_pair_subset(self):
        rng = np.random.default_rng(1)
        frames = rng.standard_normal((4, 200))
        pairs = [(0, 3), (1, 2)]
        cache = SpectraCache(frames)
        direct = gcc_phat_spectra(frames, n_fft=512, pairs=pairs)
        assert np.array_equal(cache.cross_spectra(512, pairs)[0], direct)

    def test_gcc_matches_direct_irfft(self):
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((3, 4, 256))
        cache = SpectraCache(frames)
        direct = np.fft.irfft(gcc_phat_spectra(frames, n_fft=512), n=512, axis=-1)
        assert np.allclose(cache.gcc(512), direct, atol=1e-12)

    def test_take_slices_computed_entries(self):
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((6, 4, 256))
        cache = SpectraCache(frames)
        full = cache.cross_spectra(512)
        child = cache.take(np.array([1, 4]))
        assert np.array_equal(child.cross_spectra(512), full[[1, 4]])
        # Lazily computed on the child only.
        assert np.array_equal(
            child.gcc(512), np.fft.irfft(full[[1, 4]], n=512, axis=-1)
        )

    def test_windowed_power_derivation_matches_direct(self):
        rng = np.random.default_rng(4)
        frames = rng.standard_normal((5, 4, 512))
        win = get_window("hann", 512)
        direct_spec = np.fft.rfft(frames[:, 0, :] * win, axis=-1)
        direct = direct_spec.real**2 + direct_spec.imag**2
        cold = SpectraCache(frames)
        assert np.array_equal(cold.ref_windowed_power(win), direct)  # direct path
        primed = SpectraCache(frames)
        primed.prime_dense(1024, win)
        derived = primed.ref_windowed_power(win)
        assert np.allclose(derived, direct, rtol=1e-10, atol=1e-12)
        # ... and the whitened spectra survived priming bit-identically.
        assert np.array_equal(
            primed.cross_spectra(1024), gcc_phat_spectra(frames, n_fft=1024)
        )

    def test_periodic_hann_decided_once_per_window(self):
        from repro.ssl.gcc import _periodic_hann_bytes

        frames = np.random.default_rng(6).standard_normal((3, 2, 512))
        win = get_window("hann", 512)
        SpectraCache(frames).prime_dense(1024, win)
        before = _periodic_hann_bytes.cache_info()
        for _ in range(3):  # every later primed block reuses the decision
            SpectraCache(frames).prime_dense(1024, win)
        after = _periodic_hann_bytes.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 3)
        assert SpectraCache._is_periodic_hann(win)
        assert not SpectraCache._is_periodic_hann(np.hanning(512))  # symmetric

    def test_float32_cache_close_to_float64(self):
        rng = np.random.default_rng(5)
        frames = rng.standard_normal((4, 4, 256))
        c32 = SpectraCache(frames, dtype=np.float32).cross_spectra(512)
        c64 = SpectraCache(frames, dtype=np.float64).cross_spectra(512)
        assert c32.dtype == np.complex64
        assert np.allclose(c32, c64, atol=5e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectraCache(np.ones(16))  # 1-D
        with pytest.raises(ValueError):
            SpectraCache(np.ones((2, 4, 16)), dtype=np.int32)


def _make(cls, mics, **kw):
    if cls is MusicDoa:
        return MusicDoa(mics, FS, grid=GRID, n_fft=1024, **kw)
    return cls(mics, FS, grid=GRID, n_fft=1024, **kw)


@pytest.mark.parametrize("cls", [SrpPhat, FastSrpPhat, MusicDoa])
class TestCoarseToFineContract:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coherent_sources_match_dense_argmax(self, cls, seed):
        """Random arrays x random source tracks: refined peak == dense argmax
        on (almost) every frame, and always within the documented gap."""
        rng = np.random.default_rng(seed)
        mics = random_array(rng)
        azs = rng.uniform(-np.pi, np.pi) + np.linspace(0.0, 0.6, 24)
        el = rng.uniform(0.05, np.pi / 5)
        frames = np.stack(
            [simulate(mics, a, el, seed=seed * 100 + i, rng=rng) for i, a in enumerate(azs)]
        )
        loc = _make(cls, mics)
        dense = loc.map_from_frames_batch(frames)
        res = loc.localize_batch(frames, refine=RefineConfig(), state=RefineState())
        gaps = refinement_gap(dense, c2f_peak_flats(res))
        exact = np.mean(gaps == 0.0)
        assert exact >= 0.8  # float32 spectra may tie-break a cell differently
        assert gaps.max() <= 0.1

    def test_noise_frames_within_documented_tolerance(self, cls):
        """Adversarial multimodal maps: the refined peak must still dominate
        the best coarse sample, bounding the gap well below the map range."""
        rng = np.random.default_rng(7)
        frames = rng.standard_normal((32, 4, 512))
        loc = _make(cls, MICS)
        dense = loc.map_from_frames_batch(frames)
        res = loc.localize_batch(frames, refine=RefineConfig(), state=RefineState())
        gaps = refinement_gap(dense, c2f_peak_flats(res))
        assert gaps.max() <= 0.5
        assert np.median(gaps) <= 0.05

    def test_streaming_matches_batched(self, cls):
        rng = np.random.default_rng(11)
        frames = np.stack(
            [simulate(MICS, a, 0.3, seed=40 + i, rng=rng) for i, a in enumerate(np.linspace(-1, 1, 10))]
        )
        loc = _make(cls, MICS, refine=RefineConfig())
        batched = loc.localize_batch(frames, state=RefineState())
        st = RefineState()
        singles = [loc.localize(f, state=st) for f in frames]
        for r1, r2 in zip(singles, batched):
            assert r1.azimuth == r2.azimuth
            assert r1.elevation == r2.elevation

    def test_deeper_pyramid_levels(self, cls):
        rng = np.random.default_rng(13)
        frames = np.stack(
            [simulate(MICS, 1.2, 0.2, seed=60 + i, rng=rng) for i in range(6)]
        )
        loc = _make(cls, MICS)
        dense = loc.map_from_frames_batch(frames)
        res = loc.localize_batch(frames, refine=3)  # int shorthand for levels
        gaps = refinement_gap(dense, c2f_peak_flats(res))
        assert gaps.max() <= 0.1

    def test_trivial_grid_falls_back_to_dense(self, cls):
        grid = DoaGrid(n_azimuth=8, n_elevation=1)
        loc = (
            MusicDoa(MICS, FS, grid=grid, n_fft=1024)
            if cls is MusicDoa
            else cls(MICS, FS, grid=grid, n_fft=1024)
        )
        rng = np.random.default_rng(17)
        frames = rng.standard_normal((4, 4, 256))
        dense = loc.localize_batch(frames)
        refined = loc.localize_batch(frames, refine=RefineConfig(levels=4))
        for r1, r2 in zip(dense, refined):
            assert r1.azimuth == r2.azimuth


class TestTemporalReuse:
    def test_static_source_reuses_window(self):
        rng = np.random.default_rng(19)
        frames = np.stack(
            [simulate(MICS, 0.7, 0.25, seed=80 + i, rng=rng) for i in range(30)]
        )
        loc = FastSrpPhat(MICS, FS, grid=GRID, n_fft=1024, refine=RefineConfig())
        state = RefineState()
        loc.localize_batch(frames, state=state)
        assert state.n_selected >= 1
        assert state.n_reused >= 20  # static source: almost every hop reuses

    def test_state_reset(self):
        state = RefineState()
        state.anchor = (1, 1)
        state.window = np.arange(3)
        state.n_reused = 5
        state.reset()
        assert state.anchor is None and state.window is None and state.n_reused == 0

    def test_refine_config_validation(self):
        with pytest.raises(ValueError):
            RefineConfig(levels=0)
        with pytest.raises(ValueError):
            RefineConfig(top_k=0)
        with pytest.raises(ValueError):
            RefineConfig(reuse_gate=-1)


class TestTdoaVectorised:
    def test_matches_pairwise_estimates(self):
        from repro.ssl import estimate_tdoa
        from repro.ssl.multilateration import tdoa_vector
        from repro.ssl.srp import mic_pairs

        rng = np.random.default_rng(23)
        frames = simulate(MICS, -0.9, 0.15, n=1024, seed=90, rng=rng)
        taus = tdoa_vector(frames, FS, interp=4)
        ref = np.array(
            [
                estimate_tdoa(frames[i], frames[j], FS, interp=4)
                for i, j in mic_pairs(4)
            ]
        )
        # Per-mic vs per-pair PHAT whitening differ at the eps level; the
        # refined peaks must agree to well under one interpolated sample.
        assert np.allclose(taus, ref, atol=0.5 / (4 * FS))

    def test_shared_cache(self):
        from repro.ssl.multilateration import tdoa_vector

        rng = np.random.default_rng(29)
        frames = rng.standard_normal((4, 600))
        cache = SpectraCache(frames)
        assert np.allclose(
            tdoa_vector(frames, FS, cache=cache), tdoa_vector(frames, FS)
        )
