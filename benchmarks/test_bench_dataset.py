"""E2 — Dataset generation (Sec. IV-A, 15 000-clip pipeline at reduced scale).

Regenerates: class balance, SNR distribution within the [-30, 0] dB design
range, and the generation throughput that bounds full-scale (15 k) runs.
"""

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.sed import DatasetConfig, dataset_arrays, generate_clip, generate_dataset
from repro.sed.events import EVENT_CLASSES

CFG = DatasetConfig(n_samples=60, duration=1.0, fs=8000.0)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(CFG, seed=42)


def test_e2_class_distribution(dataset):
    """Classes are drawn uniformly; every class appears."""
    _, y, _ = dataset_arrays(dataset)
    counts = np.bincount(y, minlength=len(EVENT_CLASSES))
    rows = [(EVENT_CLASSES[i], int(c)) for i, c in enumerate(counts)]
    print_table("E2 class distribution (60 clips)", ["class", "count"], rows)
    assert np.all(counts > 0)


def test_e2_snr_distribution(dataset):
    """Event clips respect the paper's SNR in [-30, 0] dB (uniform)."""
    _, y, snr = dataset_arrays(dataset)
    event_snr = snr[~np.isnan(snr)]
    lo, hi = CFG.snr_range_db
    rows = [
        ("min", float(event_snr.min())),
        ("median", float(np.median(event_snr))),
        ("max", float(event_snr.max())),
    ]
    print_table("E2 SNR of event clips (dB)", ["stat", "value"], rows)
    assert event_snr.min() >= lo and event_snr.max() <= hi
    # Roughly uniform: both halves populated.
    assert (event_snr < (lo + hi) / 2).any() and (event_snr > (lo + hi) / 2).any()


def test_e2_speed_range(dataset):
    """Source speeds stay in the configured arbitrary-speed range."""
    speeds = np.array([s.speed for s in dataset if not np.isnan(s.speed)])
    assert speeds.min() >= CFG.speed_range[0]
    assert speeds.max() <= CFG.speed_range[1]


def test_e2_generation_throughput(benchmark):
    """Per-clip generation time; full 15 k-scale cost is extrapolated."""
    rng = np.random.default_rng(0)

    def one_clip():
        return generate_clip("siren_wail", CFG, rng)

    clip = benchmark(one_clip)
    assert clip.waveform.size == int(CFG.duration * CFG.fs)


def test_e2_batched_feature_extraction(dataset, bench_json):
    """The training front-end runs as one batched STFT pass over the set.

    ``dataset_features`` must match the per-clip front-end exactly.  At 1 s
    clips the per-clip path is already internally vectorized (its frames are
    batched), so cross-clip batching is memory-bandwidth-bound here — the
    tier-1 assertion is numerical equivalence; "no regression" (batched at
    most 1.35x the loop's wall) is a guard of the bench session on the
    ``E2_features_batched_60x1s`` row (see README.md), and the throughput
    wins of the block engine are E12's.
    """
    import time

    from repro.sed import dataset_features
    from repro.sed.models import FeatureFrontEnd

    x, _, _ = dataset_arrays(dataset)
    front = FeatureFrontEnd("log_mel", CFG.fs, n_frames=32, n_mels=32)
    batched = dataset_features(x, CFG.fs, n_mels=32, n_frames=32)
    per_clip = np.concatenate([front(w[None, :]) for w in x])
    assert batched.shape == (x.shape[0], 1, 32, 32)
    assert np.allclose(batched, per_clip)

    t_batch = t_loop = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        dataset_features(x, CFG.fs, n_mels=32, n_frames=32)
        t_batch = min(t_batch, time.perf_counter() - t0)
        t0 = time.perf_counter()
        np.concatenate([front(w[None, :]) for w in x])
        t_loop = min(t_loop, time.perf_counter() - t0)
    print_table(
        "E2 feature extraction (60 clips, log-mel 32x32)",
        ["mode", "wall ms", "speedup"],
        [
            ("per-clip loop", t_loop * 1e3, 1.0),
            ("batched", t_batch * 1e3, t_loop / t_batch),
        ],
    )
    bench_json("E2_features_batched_60x1s", t_batch * 1e3, t_loop / t_batch, loop_ms=t_loop * 1e3)
