"""E12 — Batched block-processing engine vs the per-frame streaming loop.

Whole recordings flow through the pipeline as array operations (one
framing view, one batched FFT + mel + detector forward, one batched SRP
call) instead of a Python loop per hop.  The bench measures

- end-to-end ``process_signal`` (streaming) vs the batched engine on a
  10 s, 4-mic, 16 kHz clip in the paper's low-latency driving-mode framing,
- a dense SRP-PHAT map sweep via ``map_from_frames_batch`` vs looping
  ``map_from_frames``,
- a batch of recordings through one kernel pass vs one pass per clip,

and records ``{bench, wall_ms, speedup}`` rows (appended to
``BENCH_pipeline.json`` only with ``--bench-json``).  Tier-1 asserts only
the deterministic claims: identical frame results between engines, and
equal maps between the loop and the batched sweep.  The speed claims are
guards of a bench session ("Kernel throughput guards" in
``benchmarks/README.md``):

    --bench-min-speedup pipeline_10s_4mic=10.0
    --bench-min-speedup pipeline_10s_4mic_dense_noise=2.0
    --bench-min-speedup srp_map_sweep_SrpPhat=5.0
    --bench-min-speedup srp_map_sweep_FastSrpPhat=1.0
    --bench-min-speedup pipeline_clip_batch_64x0.25s=4.0
    --bench-min-speedup pipeline_clip_batch_vs_per_clip=1.0
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import assert_frame_results_equal, print_table
from repro.core import AcousticPerceptionPipeline, PipelineConfig
from repro.sed.events import EVENT_CLASSES, class_index
from repro.sed.models import build_sed_mlp
from repro.ssl import DoaGrid, FastSrpPhat, SrpPhat

FS = 16000.0
CLIP_S = 10.0


def _quiet_street_detector(n_mels):
    """Compact MLP biased to 'background': a clip with no emergencies, so
    both engines run the identical detection-only workload."""
    det = build_sed_mlp(n_mels, len(EVENT_CLASSES))
    det.layers[-1].b.data[class_index("background")] = 25.0
    return det


def _siren_everywhere_detector(n_mels):
    """Compact MLP biased to 'siren_wail': every frame localizes, stressing
    the batched SRP path end to end."""
    det = build_sed_mlp(n_mels, len(EVENT_CLASSES))
    det.layers[-1].b.data[class_index("siren_wail")] = 25.0
    return det


@pytest.fixture(scope="module")
def clip():
    rng = np.random.default_rng(0)
    return rng.standard_normal((4, int(CLIP_S * FS)))


def _time_engines(pipeline, clip, repeats=3):
    pipeline.reset()
    pipeline.process_signal_batched(clip)  # warmup (builds lazy tensors)
    pipeline.reset()
    t_stream = t_batch = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        streamed = pipeline.process_signal(clip)
        t_stream = min(t_stream, time.perf_counter() - t0)
        pipeline.reset()
        t0 = time.perf_counter()
        batched = pipeline.process_signal_batched(clip)
        t_batch = min(t_batch, time.perf_counter() - t0)
        pipeline.reset()
    return t_stream, t_batch, streamed, batched


def test_e12_pipeline_block_throughput(square_array, clip, bench_json):
    """Headline: >=10x throughput on a 10 s / 4-mic clip (low-latency mode)."""
    cfg = PipelineConfig(frame_length=128, hop_length=64, n_mels=24, n_fft_srp=256)
    pipeline = AcousticPerceptionPipeline(
        square_array, cfg, detector=_quiet_street_detector(cfg.n_mels)
    )
    t_stream, t_batch, streamed, batched = _time_engines(pipeline, clip)
    assert_frame_results_equal(streamed, batched)
    speedup = t_stream / t_batch
    rows = [
        ("streaming", len(streamed), t_stream * 1e3, 1.0),
        ("batched", len(batched), t_batch * 1e3, speedup),
    ]
    print_table(
        "E12 pipeline throughput (10 s, 4 mics, 16 kHz, 8 ms hop)",
        ["engine", "frames", "wall ms", "speedup"],
        rows,
    )
    bench_json("pipeline_10s_4mic", t_batch * 1e3, speedup)  # guarded >= 10x
    assert sum(r.detected for r in streamed) == 0  # quiet-street scenario held


def test_e12_pipeline_dense_detections(square_array, clip, bench_json):
    """Every frame detects and localizes *on pure noise* — the adversarial
    dense case (multimodal maps defeat temporal window reuse).  The
    continuous-siren dense row lives in E14 (``pipeline_10s_4mic_dense``);
    this noise variant must still clearly beat streaming."""
    cfg = PipelineConfig()  # 512/256 framing, srp_fast localizer
    pipeline = AcousticPerceptionPipeline(
        square_array, cfg, detector=_siren_everywhere_detector(cfg.n_mels)
    )
    t_stream, t_batch, streamed, batched = _time_engines(pipeline, clip)
    assert_frame_results_equal(streamed, batched)
    assert all(r.detected for r in streamed)
    speedup = t_stream / t_batch
    print_table(
        "E12 pipeline throughput, dense detections on noise (worst case)",
        ["engine", "frames", "wall ms", "speedup"],
        [
            ("streaming", len(streamed), t_stream * 1e3, 1.0),
            ("batched", len(batched), t_batch * 1e3, speedup),
        ],
    )
    bench_json("pipeline_10s_4mic_dense_noise", t_batch * 1e3, speedup)  # guarded >= 2x


def _time_srp(localizer, frames, repeats=3):
    localizer.map_from_frames_batch(frames[:2])  # warmup (builds lazy tensors)
    t_loop = t_batch = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        maps_loop = np.stack([localizer.map_from_frames(f) for f in frames])
        t_loop = min(t_loop, time.perf_counter() - t0)
        t0 = time.perf_counter()
        maps_batch = localizer.map_from_frames_batch(frames)
        t_batch = min(t_batch, time.perf_counter() - t0)
    assert np.allclose(maps_loop, maps_batch)
    return t_loop, t_batch


def test_e12_srp_map_sweep(square_array, bench_json):
    """>=5x on a dense (72x9 grid) conventional SRP-PHAT map sweep."""
    grid = DoaGrid(n_azimuth=72, n_elevation=9, el_min=0.0, el_max=np.pi / 4)
    rng = np.random.default_rng(1)
    frames = rng.standard_normal((200, 4, 512))
    rows = []
    speedups = {}
    for name, cls in (("conventional", SrpPhat), ("nyquist-fast", FastSrpPhat)):
        loc = cls(square_array, FS, grid=grid, n_fft=1024)
        t_loop, t_batch = _time_srp(loc, frames)
        speedups[name] = t_loop / t_batch
        rows.append((name, t_loop * 1e3, t_batch * 1e3, speedups[name]))
        # Guarded: the conventional full-spectrum steering is where batching
        # pays off hardest (one real GEMM replaces 1200 complex GEMVs + 2400
        # FFTs), >= 5x; the Nyquist-fast variant is already overhead-lean per
        # frame, and batching must still not lose (>= 1x).
        bench_json(f"srp_map_sweep_{cls.__name__}", t_batch * 1e3, speedups[name])
    print_table(
        "E12 SRP map sweep, 200 frames x 72x9 grid",
        ["variant", "loop ms", "batch ms", "speedup"],
        rows,
    )


def test_e12_batch_of_recordings(square_array, bench_json):
    """BlockPipeline.process_batch: a dataset of clips in one detector pass."""
    from repro.core import BlockPipeline

    cfg = PipelineConfig()
    block = BlockPipeline(
        square_array, cfg, detector=_quiet_street_detector(cfg.n_mels)
    )
    rng = np.random.default_rng(2)
    clips = rng.standard_normal((64, 4, 4000))  # 64 x 0.25 s clips
    block.process_batch(clips)  # warmup over the full batch (lazy tensors, caches)
    t_stream = t_single = t_batch = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        streamed = []
        for c in clips:
            block.reset()  # clips are independent recordings
            streamed.append(block.pipeline.process_signal(c))
        t_stream = min(t_stream, time.perf_counter() - t0)
        t0 = time.perf_counter()
        per_clip = []
        for c in clips:
            block.reset()
            per_clip.append(block.process_signal(c))
        t_single = min(t_single, time.perf_counter() - t0)
        block.reset()
        t0 = time.perf_counter()
        batched = block.process_batch(clips)
        t_batch = min(t_batch, time.perf_counter() - t0)
    speedup = t_stream / t_batch
    print_table(
        "E12 batch-of-recordings (64 x 0.25 s clips)",
        ["mode", "wall ms", "speedup"],
        [
            ("streaming/clip", t_stream * 1e3, 1.0),
            ("batched/clip", t_single * 1e3, t_stream / t_single),
            ("one batch", t_batch * 1e3, speedup),
        ],
    )
    bench_json("pipeline_clip_batch_64x0.25s", t_batch * 1e3, speedup)  # guarded >= 4x
    # Guarded >= 1.0: cross-clip batching beats per-clip batching.
    bench_json("pipeline_clip_batch_vs_per_clip", t_batch * 1e3, t_single / t_batch)
    assert len(batched) == len(clips)
    for ref, got in zip(streamed, batched):
        assert_frame_results_equal(ref, got)
    for ref, got in zip(per_clip, batched):
        assert_frame_results_equal(ref, got)
