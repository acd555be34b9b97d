"""E4 — Low-complexity SRP vs conventional SRP-PHAT (Sec. IV-B).

Paper claim: the Nyquist-sampled SRP is mathematically equivalent with
"~10x latency boost and ~50% coefficients reduce".  This bench measures the
latency ratio, the stored-coefficient ratio, and accuracy parity on
simulated scenes.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.acoustics import MicrophoneArray, RoadAcousticsSimulator, Scene, StaticPosition
from repro.signals import white_noise
from repro.ssl import DoaGrid, FastSrpPhat, SrpPhat, angular_error_deg, azel_to_unit

FS = 16000.0
GRID = DoaGrid(n_azimuth=72, n_elevation=9, el_min=0.0, el_max=np.pi / 4)


@pytest.fixture(scope="module")
def localizers(square_array):
    base = SrpPhat(square_array, FS, grid=GRID, n_fft=1024)
    fast = FastSrpPhat(square_array, FS, grid=GRID, n_fft=1024)
    return base, fast


@pytest.fixture(scope="module")
def frames(square_array):
    out = []
    for i, az in enumerate(np.linspace(-np.pi, np.pi, 8, endpoint=False) + 0.03):
        direction = azel_to_unit(az, 0.1)
        src = 25.0 * direction + np.array([0, 0, 1.0])
        scene = Scene(StaticPosition(src), MicrophoneArray(square_array), surface=None)
        sim = RoadAcousticsSimulator(scene, FS, air_absorption=False, interpolation="linear")
        sig = white_noise(0.3, FS, rng=np.random.default_rng(i))
        received = sim.simulate(sig)
        out.append((az, received[:, 3000:3512]))
    return out


def _mean_error(localizer, frames):
    errs = []
    for az_true, f in frames:
        res = localizer.localize(f)
        errs.append(
            float(
                angular_error_deg(
                    azel_to_unit(res.azimuth, 0.0), azel_to_unit(az_true, 0.0)
                )
            )
        )
    return float(np.mean(errs))


def test_e4_latency_and_coefficients(localizers, frames, bench_json):
    """The headline table: latency ratio and coefficient ratio."""
    base, fast = localizers
    f = frames[0][1]

    def timed(fn, n=30):
        fn(f)  # warmup
        t0 = time.perf_counter()
        for _ in range(n):
            fn(f)
        return (time.perf_counter() - t0) / n

    t_base = timed(base.map_from_frames)
    t_fast = timed(fast.map_from_frames)
    speedup = t_base / t_fast
    coeff_ratio = fast.n_coefficients / base.n_coefficients
    rows = [
        ("conventional", t_base * 1e3, base.n_coefficients, 1.0),
        ("nyquist-fast", t_fast * 1e3, fast.n_coefficients, speedup),
    ]
    print_table(
        "E4 SRP-PHAT latency & coefficients (72x9 grid, 4 mics)",
        ["variant", "ms/frame", "coeffs", "speedup"],
        rows,
    )
    print(f"coefficient reduction: {100 * (1 - coeff_ratio):.1f}% (paper: ~50%)")
    print(f"latency boost: {speedup:.1f}x (paper: ~10x)")
    # The >= 4x latency claim is a bench-session guard, not a tier-1
    # assertion (see README.md): on a shared 2-core host the measured ratio
    # dipped to 3.3x in about a quarter of runs.
    bench_json("E4_srp_fast_72x9", t_fast * 1e3, speedup)
    # Shape assertion: >= 50% coefficient reduction.
    assert coeff_ratio < 0.5


def test_e4_accuracy_parity(localizers, frames):
    """Mathematical equivalence: both variants localize equally well."""
    base, fast = localizers
    e_base = _mean_error(base, frames)
    e_fast = _mean_error(fast, frames)
    print_table(
        "E4 accuracy parity",
        ["variant", "mean err deg"],
        [("conventional", e_base), ("nyquist-fast", e_fast)],
    )
    assert abs(e_base - e_fast) < 3.0  # within one grid cell


def test_e4_map_equivalence(localizers, frames):
    """Standardized maps correlate > 0.98 across test scenes."""
    base, fast = localizers
    for _, f in frames[:4]:
        m1 = base.map_from_frames(f)
        m2 = fast.map_from_frames(f)
        r = float(np.corrcoef(m1.ravel(), m2.ravel())[0, 1])
        assert r > 0.98


def test_e4_taps_sweep():
    """DESIGN.md ablation: interpolation taps vs equivalence error."""
    mics = np.array(
        [[0.1, 0.1, 1.0], [0.1, -0.1, 1.0], [-0.1, -0.1, 1.0], [-0.1, 0.1, 1.0]]
    )
    base = SrpPhat(mics, FS, grid=GRID, n_fft=1024)
    rng = np.random.default_rng(0)
    f = rng.standard_normal((4, 512))
    m_ref = base.map_from_frames(f)
    m_ref = (m_ref - m_ref.mean()) / m_ref.std()
    rows = []
    last = None
    for taps in (2, 4, 8, 16):
        fast = FastSrpPhat(mics, FS, grid=GRID, n_fft=1024, n_interp_taps=taps)
        m = fast.map_from_frames(f)
        m = (m - m.mean()) / m.std()
        err = float(np.abs(m - m_ref).max())
        rows.append((taps, fast.n_coefficients, err))
        last = err
    print_table("E4 taps ablation", ["taps", "coeffs", "max map err"], rows)
    assert rows[-1][2] < rows[0][2]


def test_e4_fast_map_benchmark(benchmark, localizers, frames):
    """pytest-benchmark timing of the fast variant's hot loop."""
    _, fast = localizers
    f = frames[0][1]
    out = benchmark(fast.map_from_frames, f)
    assert out.shape == GRID.shape


def test_e4_music_baseline(localizers, frames, bench_json):
    """Classical-baseline context: MUSIC accuracy and latency vs SRP.

    The accuracy bound is asserted; the latency premium is the
    ``E4_music_vs_srp_fast`` row (``speedup`` = MUSIC's ms/frame over the
    Nyquist-fast SRP's), guarded at 1.0 in the bench session.
    """
    from repro.ssl import MusicDoa

    mics = np.array(
        [[0.1, 0.1, 1.0], [0.1, -0.1, 1.0], [-0.1, -0.1, 1.0], [-0.1, 0.1, 1.0]]
    )
    music = MusicDoa(mics, FS, grid=GRID, n_fft=512, band_hz=(300.0, 2500.0))
    _, fast = localizers
    e_music = []
    for az_true, f in frames:
        res = music.localize(f)
        e_music.append(
            float(
                angular_error_deg(
                    azel_to_unit(res.azimuth, 0.0), azel_to_unit(az_true, 0.0)
                )
            )
        )
    f = frames[0][1]
    t0 = time.perf_counter()
    for _ in range(5):
        music.map_from_frames(f)
    t_music = (time.perf_counter() - t0) / 5
    t0 = time.perf_counter()
    for _ in range(5):
        fast.map_from_frames(f)
    t_fast = (time.perf_counter() - t0) / 5
    print_table(
        "E4 classical baseline comparison",
        ["method", "mean err deg", "ms/frame"],
        [
            ("music (wideband)", float(np.mean(e_music)), t_music * 1e3),
            ("nyquist-fast srp", _mean_error(fast, frames), t_fast * 1e3),
        ],
    )
    # MUSIC is competitive in accuracy but pays a large latency premium —
    # the reason the paper's edge pipeline builds on SRP.
    bench_json("E4_music_vs_srp_fast", t_fast * 1e3, t_music / t_fast, music_ms=t_music * 1e3)
    assert float(np.mean(e_music)) < 20.0
