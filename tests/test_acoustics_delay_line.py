"""Tests for the variable-length fractional delay lines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acoustics.delay_line import (
    INTERPOLATORS,
    StreamingDelayReader,
    VariableDelayLine,
    _gather,
    _interp_lagrange,
    render_varying_delay,
)


class TestRenderVaryingDelay:
    @pytest.mark.parametrize("interp", INTERPOLATORS)
    def test_constant_integer_delay(self, interp):
        x = np.random.default_rng(0).standard_normal(256)
        d = np.full(256, 10.0)
        y = render_varying_delay(x, d, interpolation=interp)
        assert np.allclose(y[30:200], x[20:190], atol=1e-6)

    @pytest.mark.parametrize("interp", INTERPOLATORS)
    def test_constant_fractional_delay_tone(self, interp):
        fs, f0, d = 8000, 400.0, 7.5
        n = np.arange(1024)
        x = np.sin(2 * np.pi * f0 * n / fs)
        y = render_varying_delay(x, np.full(1024, d), interpolation=interp)
        expected = np.sin(2 * np.pi * f0 * (n - d) / fs)
        interior = slice(100, 900)
        atol = 0.02 if interp == "linear" else 5e-3
        assert np.allclose(y[interior], expected[interior], atol=atol)

    def test_wavefront_silence_before_arrival(self):
        x = np.ones(100)
        d = np.full(100, 20.0)
        y = render_varying_delay(x, d, interpolation="linear")
        assert np.allclose(y[:19], 0.0)
        assert y[30] == pytest.approx(1.0)

    def test_shrinking_delay_compresses_time(self):
        # A delay shrinking by 0.5 samples/sample plays the input at 1.5x
        # speed: output frequency rises by the Doppler factor.
        fs, f0 = 8000, 500.0
        n = np.arange(4096)
        x = np.sin(2 * np.pi * f0 * n / fs)
        d = 300.0 - 0.5 * n / 4096 * 4096 / 8  # shrink 0.5 samples per 8 samples
        d = 300.0 - n * 0.0625
        y = render_varying_delay(x, np.clip(d, 0, None), interpolation="lagrange")
        seg = y[2000:3000] * np.hanning(1000)
        freqs = np.fft.rfftfreq(1000, 1 / fs)
        peak = freqs[np.argmax(np.abs(np.fft.rfft(seg)))]
        assert peak == pytest.approx(f0 * 1.0625, rel=0.02)

    def test_negative_delay_raises(self):
        with pytest.raises(ValueError):
            render_varying_delay(np.ones(10), np.full(10, -1.0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            render_varying_delay(np.ones(10), np.ones(5))

    def test_unknown_interpolation_raises(self):
        with pytest.raises(ValueError, match="unknown interpolation"):
            render_varying_delay(np.ones(10), np.ones(10), interpolation="spline")

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=1.0, max_value=50.0))
    def test_energy_bounded(self, delay):
        rng = np.random.default_rng(int(delay * 7))
        x = rng.standard_normal(512)
        y = render_varying_delay(x, np.full(512, delay), interpolation="lagrange")
        assert np.sqrt(np.mean(y**2)) <= 1.5 * np.sqrt(np.mean(x**2))


class TestStreamingDelayLine:
    def test_matches_vectorized(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200)
        delays = 20.0 + 5.0 * np.sin(np.linspace(0, 3, 200))
        vec = render_varying_delay(x, delays, interpolation="lagrange", order=3)
        dl = VariableDelayLine(max_delay=50.0, order=3)
        stream = np.array([dl.process(x[i], delays[i]) for i in range(200)])
        assert np.allclose(stream, vec, atol=1e-9)

    def test_zero_before_arrival(self):
        dl = VariableDelayLine(max_delay=16.0)
        outs = [dl.process(1.0, 10.0) for _ in range(8)]
        assert all(o == 0.0 for o in outs)

    def test_reset(self):
        dl = VariableDelayLine(max_delay=8.0)
        for _ in range(20):
            dl.process(1.0, 2.0)
        dl.reset()
        assert dl.process(0.0, 2.0) == 0.0

    def test_delay_out_of_range_raises(self):
        dl = VariableDelayLine(max_delay=8.0)
        dl.write(1.0)
        with pytest.raises(ValueError):
            dl.read(9.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            VariableDelayLine(max_delay=0.0)
        with pytest.raises(ValueError):
            VariableDelayLine(max_delay=8.0, order=0)


class TestStreamingDelayReader:
    """Block-streamed reads must equal the offline render bit for bit."""

    @pytest.mark.parametrize("interp", INTERPOLATORS)
    def test_blockwise_bit_identical_to_offline(self, interp):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(1500)
        n = np.arange(1500)
        delays = 25.0 + 8.0 * np.sin(n / 60.0)
        offline = render_varying_delay(x, delays, interpolation=interp)
        r = StreamingDelayReader(interpolation=interp)
        r.feed(x)
        r.end()
        # Ragged block sizes straddle every internal boundary the offline
        # call never sees; the concatenation must still be *exactly* equal.
        out, cuts = [], [0, 1, 7, 200, 201, 456, 1024, 1499, 1500]
        for a, b in zip(cuts[:-1], cuts[1:]):
            out.append(r.read(delays[a:b]))
        assert np.array_equal(np.concatenate(out), offline)

    @pytest.mark.parametrize("interp", INTERPOLATORS)
    def test_interleaved_feed_and_read(self, interp):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(2048)
        delays = np.stack(
            [30.0 + 5.0 * np.sin(np.arange(2048) / 40.0), np.full(2048, 64.25)]
        )
        offline = render_varying_delay(x, delays, interpolation=interp)
        r = StreamingDelayReader(interpolation=interp)
        out = []
        # Feed runs ahead of the read cursor by more than the max delay plus
        # the interpolator lookahead, as a hop-clocked session would.
        for k in range(0, 2048, 256):
            r.feed(x[k : k + 256])
            if k >= 256:
                out.append(r.read(delays[:, k - 256 : k]))
        r.end()
        out.append(r.read(delays[:, 2048 - 256 :]))
        assert np.array_equal(np.concatenate(out, axis=1), offline)

    def test_midstream_read_past_fed_raises(self):
        r = StreamingDelayReader(interpolation="linear")
        r.feed(np.ones(100))
        with pytest.raises(ValueError, match="feed more or call end"):
            r.read(np.zeros(200))  # needs source sample 199, only 100 fed

    def test_end_zero_extends_like_offline(self):
        x = np.random.default_rng(11).standard_normal(64)
        delays = np.full(128, 3.5)
        padded = render_varying_delay(
            np.concatenate([x, np.zeros(64)]), delays, interpolation="lagrange"
        )
        r = StreamingDelayReader()
        r.feed(x)
        r.end()
        assert np.array_equal(r.read(delays), padded)

    def test_nothing_fed_reads_zeros(self):
        r = StreamingDelayReader()
        r.end()
        out = r.read(np.full((2, 16), 5.0))
        assert out.shape == (2, 16)
        assert np.array_equal(out, np.zeros((2, 16)))

    def test_feed_after_end_raises(self):
        r = StreamingDelayReader()
        r.end()
        with pytest.raises(RuntimeError):
            r.feed(np.ones(4))

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown interpolation"):
            StreamingDelayReader(interpolation="spline")
        with pytest.raises(ValueError):
            StreamingDelayReader(interpolation="lagrange", order=0)
        with pytest.raises(ValueError):
            StreamingDelayReader(interpolation="sinc", sinc_half_width=1)
        r = StreamingDelayReader()
        with pytest.raises(ValueError):
            r.feed(np.ones((2, 4)))
        r.feed(np.ones(64))
        with pytest.raises(ValueError):
            r.read(np.full(8, -1.0))
        with pytest.raises(ValueError):
            r.read(np.zeros(0))

    def test_reset_clears_everything(self):
        r = StreamingDelayReader(interpolation="linear")
        r.feed(np.ones(32))
        r.end()
        r.read(np.zeros(16))
        r.reset()
        assert r.n_fed == 0 and r.n_read == 0 and not r.ended
        r.feed(np.ones(8))  # feeding works again after reset

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_splits_bit_identical(self, first_cut, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(500)
        delays = rng.uniform(0.0, 80.0, 500)
        offline = render_varying_delay(x, delays, interpolation="lagrange")
        r = StreamingDelayReader()
        r.feed(x)
        r.end()
        got = np.concatenate([r.read(delays[:first_cut]), r.read(delays[first_cut:])]) \
            if first_cut < 500 else r.read(delays)
        assert np.array_equal(got, offline)


class TestBatchedDelays:
    """A (..., n) delay matrix renders every receiver in one gather."""

    @pytest.mark.parametrize("interp", INTERPOLATORS)
    def test_matches_per_row_rendering(self, interp):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(400)
        n = np.arange(400)
        delays = np.stack(
            [
                20.0 + 5.0 * np.sin(n / 50.0),
                35.0 - 0.02 * n,
                np.full(400, 7.25),
            ]
        )
        batched = render_varying_delay(x, delays, interpolation=interp)
        assert batched.shape == (3, 400)
        for row in range(3):
            single = render_varying_delay(x, delays[row], interpolation=interp)
            assert np.allclose(batched[row], single, atol=1e-12)

    def test_trailing_axis_must_match(self):
        with pytest.raises(ValueError):
            render_varying_delay(np.ones(10), np.ones((3, 5)))


class TestGather:
    """The padded read every interpolator gathers through."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        x=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=40),
        idx=st.lists(
            st.integers(-3, 45) | st.integers(-10_000, 10_000), min_size=1, max_size=60
        ),
    )
    def test_equals_masked_read(self, x, idx):
        """Signal index ``i`` reads ``x[i]`` inside the support and exactly
        ``+0.0`` outside it (far before, just before, just after, far
        after), for any index shape."""
        x = np.array(x)
        idx = np.array(idx, dtype=np.int64)
        outside = (idx < 0) | (idx >= x.size)
        want = np.where(outside, 0.0, x[np.clip(idx, 0, x.size - 1)])
        got = _gather(np.pad(x, 1), idx + 1)
        assert np.array_equal(got, want)
        assert not np.signbit(got[outside]).any()
        assert np.array_equal(_gather(np.pad(x, 1), (idx + 1)[None, :, None]), want[None, :, None])


def _lagrange_by_prod(xp, pos, order):
    """The Lagrange read with every tap weight reduced by ``np.prod``: the
    formulation ``_interp_lagrange`` replaced, kept as its oracle."""
    base = np.floor(pos).astype(np.int64) - (order - 1) // 2
    frac = pos - np.floor(pos)
    offsets = np.arange(order + 1)
    d = frac + (order - 1) // 2
    coeffs = np.ones((*pos.shape, order + 1))
    for k in range(order + 1):
        others = offsets[offsets != k]
        num = d[..., None] - others
        den = float(np.prod(k - others))
        coeffs[..., k] = np.prod(num, axis=-1) / den
    taps = _gather(xp, base[..., None] + (offsets + 1))
    return np.einsum("...t,...t->...", coeffs, taps)


class TestLagrangeWeights:
    """The running-product tap weights equal the ``np.prod`` reduction."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        order=st.integers(1, 5),
        x=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=30),
        pos=st.lists(
            st.floats(-12.0, 45.0, allow_nan=False) | st.integers(-8, 40).map(float),
            min_size=1,
            max_size=24,
        ),
        shape=st.sampled_from(["1d", "2d", "3d"]),
    )
    def test_bit_identical_to_prod_reduction(self, order, x, pos, shape):
        """Orders 1-5, positions inside and outside the signal and exact
        integer positions, on 1-D, 2-D and 3-D position arrays."""
        xp = np.pad(np.array(x), 1)
        pos = np.array(pos)
        if shape == "2d":
            pos = np.stack([pos, pos[::-1] + 0.25])
        elif shape == "3d":
            pos = np.stack([pos, -pos])[:, None, :].repeat(2, axis=1)
        got = _interp_lagrange(xp, pos, order)
        want = _lagrange_by_prod(xp, pos, order)
        assert got.shape == want.shape == pos.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
