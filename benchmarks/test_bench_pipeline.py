"""E6 — End-to-end per-frame latency on the RasPi-4B device model.

Paper claim: "8.59 ms/frame end-to-end on RasPi-4B, 7.26x faster than the
baseline".  Both pipelines solve the same task (same array, same DOA grid):

- **baseline**: conventional frequency-domain SRP-PHAT over 2x-oversampled
  cross-spectra (the classic way to get sub-sample TDOA resolution), a wide
  MLP detector, and the full-width Cross3D tracker;
- **co-optimized**: Nyquist-fast SRP at the critical FFT length, the compact
  detector, and the edge Cross3D variant from the co-design flow.

We report modelled ms/frame (pipeline + network) for both and the speedup
factor.  Absolute numbers sit below the paper's 8.59 ms because the device
model charges no framework/interpreter overhead; the factor is the shape.
"""

import numpy as np
import pytest

from benchmarks.conftest import assert_frame_results_equal, print_table
from repro.core import AcousticPerceptionPipeline, PipelineConfig, measure_latency
from repro.hw import RASPI4, estimate_cost, lower_module
from repro.nn import Dense, ReLU, Sequential
from repro.sed.events import EVENT_CLASSES
from repro.ssl import Cross3DConfig, Cross3DNet, edge_variant

_SHARED = dict(
    fs=16000.0, frame_length=512, hop_length=256, n_azimuth=36, n_elevation=4
)
BASELINE_CFG = PipelineConfig(**_SHARED, n_mels=64, n_fft_srp=2048, localizer="srp")
OPTIMIZED_CFG = PipelineConfig(**_SHARED, n_mels=40, n_fft_srp=1024, localizer="srp_fast")
CROSS3D_FULL = Cross3DConfig(map_shape=(36, 4), base_channels=32, n_blocks=3, kernel_time=5)
CROSS3D_EDGE = edge_variant(CROSS3D_FULL)


def wide_detector(n_mels):
    rng = np.random.default_rng(0)
    return Sequential(
        Dense(n_mels, 256, rng=rng),
        ReLU(),
        Dense(256, 256, rng=rng),
        ReLU(),
        Dense(256, len(EVENT_CLASSES), rng=rng),
    )


@pytest.fixture(scope="module")
def pipelines(square_array):
    baseline = AcousticPerceptionPipeline(
        square_array, BASELINE_CFG, detector=wide_detector(BASELINE_CFG.n_mels)
    )
    optimized = AcousticPerceptionPipeline(square_array, OPTIMIZED_CFG)
    return baseline, optimized


def _total_latency_ms(pipeline, cross3d_cfg):
    net = Cross3DNet(cross3d_cfg)
    c_pipe = estimate_cost(pipeline.to_ir(), RASPI4)
    c_net = estimate_cost(lower_module(net, (1, 1, *cross3d_cfg.map_shape)), RASPI4)
    return c_pipe.latency_ms + c_net.latency_ms, c_pipe, c_net


def test_e6_device_latency_table(pipelines):
    """The headline E6 table: modelled ms/frame and speedup."""
    baseline, optimized = pipelines
    t_base, cp_base, cn_base = _total_latency_ms(baseline, CROSS3D_FULL)
    t_opt, cp_opt, cn_opt = _total_latency_ms(optimized, CROSS3D_EDGE)
    speedup = t_base / t_opt
    rows = [
        ("baseline", cp_base.latency_ms, cn_base.latency_ms, t_base, 1.0),
        ("co-optimized", cp_opt.latency_ms, cn_opt.latency_ms, t_opt, speedup),
    ]
    print_table(
        "E6 end-to-end per-frame latency (RasPi-4B model)",
        ["pipeline", "dsp+det ms", "cross3d ms", "total ms", "speedup"],
        rows,
    )
    print(f"paper: 8.59 ms/frame, 7.26x | measured shape: {t_opt:.2f} ms, {speedup:.2f}x")
    # Shape assertions: single-digit-ms optimized pipeline, several-x speedup.
    assert t_opt < 10.0
    assert 3.0 < speedup < 20.0
    # Only the optimized pipeline holds real-time margin on-device.
    assert t_opt * 1e-3 < OPTIMIZED_CFG.frame_period_s


def test_e6_bottleneck_is_srp_in_baseline(pipelines):
    """Bottleneck analysis (Fig. 4, step i): conventional SRP dominates."""
    baseline, _ = pipelines
    report = estimate_cost(baseline.to_ir(), RASPI4)
    top = report.bottleneck(1)[0]
    rows = [
        (c.op_name.split(".")[-1], c.kind, c.latency_s * 1e3, c.bound)
        for c in report.bottleneck(5)
    ]
    print_table("E6 baseline bottlenecks", ["op", "kind", "ms", "bound"], rows)
    assert top.kind == "srp_steer"


def test_e6_host_realtime(pipelines, bench_json):
    """Host wall-clock: the optimized pipeline meets its own deadline.

    A guard of the bench session, not a tier-1 assertion: the
    ``E6_host_tick`` row's ``p95_ms`` is held to the 16 ms frame period by
    ``--bench-max-p95`` (its ``speedup`` is deadline / p95).
    """
    _, optimized = pipelines
    rng = np.random.default_rng(1)
    frames = rng.standard_normal((4, OPTIMIZED_CFG.frame_length))
    stats = measure_latency(
        lambda: optimized.process_frame(frames), OPTIMIZED_CFG.frame_period_s, repeats=15
    )
    print(
        f"\nE6 host tick: mean {stats.mean_s * 1e3:.2f} ms, p95 {stats.p95_s * 1e3:.2f} ms, "
        f"deadline {stats.deadline_s * 1e3:.2f} ms"
    )
    bench_json(
        "E6_host_tick",
        stats.mean_s * 1e3,
        stats.deadline_s / stats.p95_s,
        p95_ms=stats.p95_s * 1e3,
        deadline_ms=stats.deadline_s * 1e3,
    )
    assert stats.deadline_s == OPTIMIZED_CFG.frame_period_s


def test_e6_optimized_tick_benchmark(benchmark, pipelines):
    """pytest-benchmark timing of one optimized pipeline tick."""
    _, optimized = pipelines
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((4, OPTIMIZED_CFG.frame_length))
    result = benchmark(optimized.process_frame, frames)
    assert result.label in EVENT_CLASSES


def test_e6_block_engine_throughput(pipelines, bench_json):
    """Offline replay: the batched engine beats streaming on whole clips.

    Tier-1 asserts identical frame results; the 1.1x claim is a guard of
    the bench session on the ``E6_block_engine_2s`` row.
    """
    import time

    _, optimized = pipelines
    rng = np.random.default_rng(3)
    signals = rng.standard_normal((4, int(2.0 * OPTIMIZED_CFG.fs)))  # 2 s clip
    optimized.reset()
    optimized.process_signal_batched(signals)  # warmup (lazy steering tensors)
    optimized.reset()
    t_stream = t_batch = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        streamed = optimized.process_signal(signals)
        t_stream = min(t_stream, time.perf_counter() - t0)
        optimized.reset()
        t0 = time.perf_counter()
        batched = optimized.process_signal_batched(signals)
        t_batch = min(t_batch, time.perf_counter() - t0)
        optimized.reset()
    speedup = t_stream / t_batch
    print_table(
        "E6 offline replay engines (2 s clip, co-optimized pipeline)",
        ["engine", "ms/clip", "ms/frame", "speedup"],
        [
            ("streaming", t_stream * 1e3, t_stream * 1e3 / len(streamed), 1.0),
            ("batched", t_batch * 1e3, t_batch * 1e3 / len(batched), speedup),
        ],
    )
    bench_json("E6_block_engine_2s", t_batch * 1e3, speedup, stream_ms=t_stream * 1e3)
    assert_frame_results_equal(streamed, batched)


def test_e6_pipelined_schedule(pipelines):
    """Throughput view: staging the optimized pipeline across 2 resources."""
    from repro.hw import pipeline_schedule

    _, optimized = pipelines
    ir = optimized.to_ir()
    rows = []
    for n_stages in (1, 2, 3):
        s = pipeline_schedule(ir, RASPI4, n_stages=n_stages)
        rows.append(
            (n_stages, s.initiation_interval_s * 1e3, s.frame_latency_s * 1e3, s.throughput_fps)
        )
    print_table(
        "E6 pipelined schedule (optimized pipeline, RasPi-4B)",
        ["stages", "II ms", "latency ms", "fps"],
        rows,
    )
    assert rows[-1][1] <= rows[0][1]  # more stages, no worse II
    assert rows[0][2] == pytest.approx(rows[-1][2], rel=1e-6)  # same total work
