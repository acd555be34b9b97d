"""E14 — the dense-detection regime: coarse-to-fine + shared spectra cache.

PR 1's batched engine is 18-29x streaming when detections are sparse but was
only ~1.5-1.8x when a siren is continuously present, because every hop paid a
full-resolution SRP sweep and the detector and localizer each re-FFT'd the
same frames.  This bench measures the dense-path engine that replaces it:

- ``pipeline_10s_4mic_dense`` — a 10 s, 4-mic continuous-siren drive-by
  (every frame detects and localizes) through the default pipeline: shared
  float32 :class:`~repro.ssl.gcc.SpectraCache`, coarse-to-fine sweep with
  temporal window reuse, derived detection spectra.  Target >= 5x streaming.
- a coarse-to-fine vs one-shot dense sweep comparison on the full-resolution
  72x9 grid for both SRP localizers, with the refinement tolerance asserted
  against the dense argmax,
- ``E14_fleet_dense_*`` — the E13 fleet-shard bench rerun in the dense
  regime (oracle detector: every frame localizes), showing the cap ROADMAP
  flagged on fleet speedup lifted.

Tier-1 asserts only the deterministic claims (identical frame results,
every frame detected, temporal reuse).  Rows append to
``BENCH_pipeline.json`` via ``bench_json`` in a bench session; the speed
claims are guards of that session (see README.md: "Fleet shard guards"
for ``pipeline_10s_4mic_dense`` and ``E14_fleet_dense_*``, and the E14
coarse-to-fine floors).
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import assert_frame_results_equal, print_table
from repro.core import AcousticPerceptionPipeline, PipelineConfig
from repro.fleet import FleetScheduler, place_corridor_nodes
from repro.fleet.scheduler import OracleDetector
from repro.sed.events import EVENT_CLASSES, class_index
from repro.sed.models import build_sed_mlp
from repro.signals.sirens import synthesize_siren
from repro.ssl import (
    DoaGrid,
    FastSrpPhat,
    RefineConfig,
    RefineState,
    SrpPhat,
    refinement_gap,
)

FS = 16000.0
CLIP_S = 10.0
C = 343.0


def _siren_everywhere_detector(n_mels):
    det = build_sed_mlp(n_mels, len(EVENT_CLASSES))
    det.layers[-1].b.data[class_index("siren_wail")] = 25.0
    return det


@pytest.fixture(scope="module")
def siren_drive_by(square_array):
    """A wail siren sweeping ~170 deg of azimuth across a 10 s capture.

    Block-wise fractional delays render the coherent wavefront at each mic;
    mild sensor noise keeps the maps realistic.  This is the regime the
    dense path is built for: every hop detects, and the source bearing
    moves slowly against the hop rate.
    """
    n = int(CLIP_S * FS)
    sig = synthesize_siren("wail", CLIP_S, FS)
    rng = np.random.default_rng(14)
    azimuths = np.linspace(-1.5, 1.5, n)
    clip = np.empty((4, n))
    block = int(0.5 * FS)
    for m, pos in enumerate(square_array):
        for b in range(0, n, block):
            az = azimuths[min(b + block // 2, n - 1)]
            u = np.array([np.cos(0.3) * np.cos(az), np.cos(0.3) * np.sin(az), np.sin(0.3)])
            delay = -(pos @ u) / C * FS
            seg = sig[b : b + block]
            spec = np.fft.rfft(seg)
            f = np.arange(spec.size) / seg.size
            clip[m, b : b + block] = np.fft.irfft(
                spec * np.exp(-2j * np.pi * f * delay), n=seg.size
            )
    return clip + 0.05 * rng.standard_normal(clip.shape)


def test_e14_dense_pipeline(square_array, siren_drive_by, bench_json):
    """Continuous-siren replay through the default pipeline vs streaming
    (>= 5x is a bench-session guard)."""
    cfg = PipelineConfig()
    pipeline = AcousticPerceptionPipeline(
        square_array, cfg, detector=_siren_everywhere_detector(cfg.n_mels)
    )
    # Two warmups: lazy steering/read tensors, then the detection-density
    # EMA so the timed runs exercise the primed shared-cache front-end.
    pipeline.process_signal_batched(siren_drive_by)
    pipeline.reset()
    pipeline.process_signal_batched(siren_drive_by)
    pipeline.reset()
    # Min of 3 per engine, the two timed alternately so a slow phase of the
    # shared host hits both.
    t_batch = t_stream = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        batched = pipeline.process_signal_batched(siren_drive_by)
        t_batch = min(t_batch, time.perf_counter() - t0)
        reuse = (pipeline.refine_state.n_reused, pipeline.refine_state.n_selected)
        pipeline.reset()
        t0 = time.perf_counter()
        streamed = pipeline.process_signal(siren_drive_by)
        t_stream = min(t_stream, time.perf_counter() - t0)
        pipeline.reset()
    speedup = t_stream / t_batch
    assert all(r.detected for r in streamed)
    assert_frame_results_equal(streamed, batched)
    print_table(
        "E14 dense regime (10 s continuous siren, every frame localized)",
        ["engine", "frames", "wall ms", "speedup"],
        [
            ("streaming", len(streamed), t_stream * 1e3, 1.0),
            ("dense-path", len(batched), t_batch * 1e3, speedup),
        ],
    )
    print(f"temporal reuse: {reuse[0]} hops reused / {reuse[1]} window selections")
    bench_json("pipeline_10s_4mic_dense", t_batch * 1e3, speedup)  # guarded >= 5x
    assert reuse[0] > reuse[1]  # continuous siren: most hops at coarse cost


@pytest.mark.parametrize("cls", [SrpPhat, FastSrpPhat])
def test_e14_coarse_to_fine_vs_dense_sweep(square_array, siren_drive_by, cls, bench_json):
    """Full-resolution 72x9 sweep: coarse-to-fine wins and stays in tolerance."""
    grid = DoaGrid(n_azimuth=72, n_elevation=9, el_min=0.0, el_max=np.pi / 4)
    from repro.dsp.stft import frame_signals

    frames = np.ascontiguousarray(
        frame_signals(siren_drive_by, 512, 256, pad=False).transpose(1, 0, 2)[:300]
    )
    loc = cls(square_array, FS, grid=grid, n_fft=1024)
    dense_maps = loc.map_from_frames_batch(frames[:2])  # warmup lazy tensors
    loc.localize_batch(frames[:2], refine=RefineConfig(), state=RefineState())
    t_dense = t_c2f = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        dense_maps = loc.map_from_frames_batch(frames)
        t_dense = min(t_dense, time.perf_counter() - t0)
        t0 = time.perf_counter()
        refined = loc.localize_batch(frames, refine=RefineConfig(), state=RefineState())
        t_c2f = min(t_c2f, time.perf_counter() - t0)
    flats = []
    for r in refined:
        flat = r.map.ravel()
        flats.append(int(np.nanargmax(np.where(np.isfinite(flat), flat, -np.inf))))
    gaps = refinement_gap(dense_maps, np.array(flats))
    speedup = t_dense / t_c2f
    print_table(
        f"E14 coarse-to-fine vs dense sweep ({cls.__name__}, 300 frames, 72x9)",
        ["path", "wall ms", "speedup", "max gap"],
        [
            ("dense sweep", t_dense * 1e3, 1.0, 0.0),
            ("coarse-to-fine", t_c2f * 1e3, speedup, float(gaps.max())),
        ],
    )
    # The speed claim is a bench-session guard, not a tier-1 assertion (see
    # README.md): the conventional localizer is sweep-bound, so the
    # decimated grid pays off hardest (>= 1.3x); the Nyquist-fast variant is
    # GCC-front-end-bound and gains mostly from the float32 shared cache
    # (>= 1.15x).
    bench_json(f"E14_c2f_{cls.__name__}_72x9", t_c2f * 1e3, speedup)
    # Tolerance contract on real FM content: >= 90% of frames land on the
    # dense argmax exactly; the rest (low-frequency instants of the wail
    # where PHAT maps lose spatial contrast) stay within a bounded
    # normalized peak-power gap.
    assert np.mean(gaps == 0.0) >= 0.9
    assert gaps.max() <= 0.25


@pytest.mark.parametrize("n_nodes", [2, 4])
def test_e14_fleet_dense_shard(n_nodes, bench_json):
    """Fleet shards in the dense regime: the E13 cap is lifted.

    E13 measured the sparse regime (high threshold on noise).  Here every
    frame of every node localizes (oracle detector), which previously pinned
    fleet speedup near the old ~1.5-1.8x dense ratio; the shared-cache
    coarse-to-fine path restores a solid margin over sequential streaming.
    """
    fs = 8000.0
    config = PipelineConfig(fs=fs, n_azimuth=24, n_elevation=2, localizer="srp_fast")
    rng = np.random.default_rng(41)
    nodes = place_corridor_nodes(n_nodes, 20.0)
    sig = synthesize_siren("wail", 2.0, fs)
    clips = {}
    for k, node in enumerate(nodes):
        delays = rng.uniform(0, 0.002, size=4)
        clip = np.stack(
            [np.roll(sig, int(d * fs)) for d in delays]
        ) + 0.05 * rng.standard_normal((4, sig.size))
        clips[node.node_id] = clip
    scheduler = FleetScheduler(
        nodes, config, detector=OracleDetector("siren_wail"), n_shards=1
    )
    scheduler.run(clips)  # warmup (tensors + density EMA)
    scheduler.run(clips)

    def sequential():
        out = {}
        for node in nodes:
            pipe = scheduler.pipelines[node.node_id].pipeline
            pipe.reset()
            out[node.node_id] = pipe.process_signal(clips[node.node_id])
            pipe.reset()
        return out

    t_seq = t_fleet = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        streamed = sequential()
        t_seq = min(t_seq, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run = scheduler.run(clips)
        t_fleet = min(t_fleet, time.perf_counter() - t0)
    for node in nodes:
        results = run.node_results[node.node_id]
        assert all(r.detected for r in results)
        assert_frame_results_equal(streamed[node.node_id], results)
    speedup = t_seq / t_fleet
    print_table(
        f"E14 fleet shard, dense regime ({n_nodes} nodes, 2 s siren clips)",
        ["engine", "ms/corridor", "speedup"],
        [
            ("sequential", t_seq * 1e3, 1.0),
            ("fleet shard", t_fleet * 1e3, speedup),
        ],
    )
    # Guarded claims: speedup >= 2.5x, and the run (one fleet-latency
    # sample) stays inside the 2 s clip: still real time on the host.
    bench_json(
        f"E14_fleet_dense_{n_nodes}n",
        t_fleet * 1e3,
        speedup,
        p95_ms=run.fleet_latency.p95_s * 1e3,
        deadline_ms=2.0 * 1e3,
    )
