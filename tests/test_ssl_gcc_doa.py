"""Tests for GCC-PHAT and the DOA grid utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssl import (
    DoaGrid,
    angular_error_deg,
    azel_to_unit,
    estimate_tdoa,
    gcc_phat,
    gcc_phat_spectrum,
    unit_to_azel,
)

FS = 16000


def delayed_pair(delay_samples, n=2048, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(n + 200)
    x2 = base[100 : 100 + n]
    x1 = base[100 - delay_samples : 100 - delay_samples + n]
    return x1, x2


class TestGccPhat:
    def test_spectrum_unit_magnitude(self):
        x1, x2 = delayed_pair(3)
        spec = gcc_phat_spectrum(x1, x2)
        assert np.allclose(np.abs(spec), 1.0, atol=1e-6)

    def test_integer_delay_recovered(self):
        for d in (-20, -3, 0, 5, 17):
            x1, x2 = delayed_pair(d)
            tau = estimate_tdoa(x1, x2, FS, interp=1)
            assert round(tau * FS) == d

    def test_fractional_delay_subsample_accuracy(self):
        # Bandlimited fractional shift via FFT phase ramp.
        rng = np.random.default_rng(1)
        n = 2048
        x2 = rng.standard_normal(n)
        shift = 4.37
        spec = np.fft.rfft(x2)
        freqs = np.fft.rfftfreq(n)
        x1 = np.fft.irfft(spec * np.exp(-2j * np.pi * freqs * shift), n)
        tau = estimate_tdoa(x1, x2, FS, interp=8)
        assert tau * FS == pytest.approx(shift, abs=0.05)

    def test_max_tau_limits_search(self):
        x1, x2 = delayed_pair(50)
        lags, cc = gcc_phat(x1, x2, FS, max_tau=10 / FS)
        assert np.abs(lags).max() <= 10.5 / FS

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            gcc_phat_spectrum(np.ones(10), np.ones(12))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gcc_phat(np.ones(16), np.ones(16), 0.0)
        with pytest.raises(ValueError):
            gcc_phat(np.ones(16), np.ones(16), FS, interp=0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=-30, max_value=30))
    def test_tdoa_sign_convention(self, d):
        x1, x2 = delayed_pair(d, seed=abs(d) + 1)
        tau = estimate_tdoa(x1, x2, FS, interp=2)
        assert round(tau * FS) == d


class TestDirectionConversions:
    def test_azel_to_unit_cardinals(self):
        assert np.allclose(azel_to_unit(0.0, 0.0), [1, 0, 0], atol=1e-12)
        assert np.allclose(azel_to_unit(np.pi / 2, 0.0), [0, 1, 0], atol=1e-12)
        assert np.allclose(azel_to_unit(0.0, np.pi / 2), [0, 0, 1], atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=-3.1, max_value=3.1),
        st.floats(min_value=-1.5, max_value=1.5),
    )
    def test_round_trip(self, az, el):
        u = azel_to_unit(az, el)
        az2, el2 = unit_to_azel(u)
        u2 = azel_to_unit(az2, el2)
        assert np.allclose(u, u2, atol=1e-9)

    def test_unit_norm(self):
        u = azel_to_unit(np.linspace(-3, 3, 10), np.linspace(-1, 1, 10))
        assert np.allclose(np.linalg.norm(u, axis=-1), 1.0)


class TestAngularError:
    def test_zero_for_identical(self):
        u = azel_to_unit(0.3, 0.1)
        assert angular_error_deg(u, u) == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal_is_90(self):
        assert angular_error_deg(np.array([1, 0, 0]), np.array([0, 1, 0])) == pytest.approx(90.0)

    def test_scale_invariant(self):
        a = np.array([2.0, 0, 0])
        b = np.array([0.0, 0, 3.0])
        assert angular_error_deg(a, b) == pytest.approx(90.0)

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError):
            angular_error_deg(np.zeros(3), np.array([1.0, 0, 0]))


class TestDoaGrid:
    def test_sizes(self):
        g = DoaGrid(n_azimuth=36, n_elevation=5)
        assert g.size == 180
        assert g.directions().shape == (180, 3)

    def test_index_round_trip(self):
        g = DoaGrid(n_azimuth=12, n_elevation=3)
        az, el = g.index_to_azel(17)
        dirs = g.directions()
        assert np.allclose(dirs[17], azel_to_unit(az, el))

    def test_single_elevation(self):
        g = DoaGrid(n_azimuth=8, n_elevation=1, el_min=0.0, el_max=0.0)
        assert g.elevations.shape == (1,)
        assert g.elevations[0] == 0.0

    @pytest.mark.parametrize(
        "n_az, n_el, el_min, el_max",
        [(36, 2, 0.0, np.pi / 4), (72, 9, -0.2, 0.5), (8, 1, 0.1, 0.3), (5, 4, -np.pi / 2, np.pi / 2)],
    )
    def test_axes_built_once_and_read_only(self, n_az, n_el, el_min, el_max):
        import pickle

        g = DoaGrid(n_azimuth=n_az, n_elevation=n_el, el_min=el_min, el_max=el_max)
        az = np.linspace(-np.pi, np.pi, n_az, endpoint=False)
        el = (
            np.array([0.5 * (el_min + el_max)])
            if n_el == 1
            else np.linspace(el_min, el_max, n_el)
        )
        assert np.array_equal(g.azimuths, az) and np.array_equal(g.elevations, el)
        assert g.azimuths is g.azimuths and g.elevations is g.elevations
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and hash(copy) == hash(g)
        for grid in (g, copy):
            for axis in (grid.azimuths, grid.elevations):
                with pytest.raises(ValueError):
                    axis[0] = 1.0
        assert np.array_equal(copy.azimuths, az) and np.array_equal(copy.elevations, el)
        assert g.index_to_azel(g.size - 1) == (az[-1], el[-1])

    def test_validation(self):
        with pytest.raises(ValueError):
            DoaGrid(n_azimuth=1)
        with pytest.raises(ValueError):
            DoaGrid(el_min=1.0, el_max=0.5)
        g = DoaGrid(n_azimuth=8, n_elevation=2)
        with pytest.raises(ValueError):
            g.index_to_azel(99)
