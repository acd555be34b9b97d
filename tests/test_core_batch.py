"""Equivalence tests: batched block engine vs the streaming pipeline.

The contract of :mod:`repro.core.batch` is that ``BlockPipeline`` /
``process_signal_batched`` produce the same ``FrameResult`` sequence as the
frame-by-frame ``process_signal`` — labels, confidences, detection flags and
DOA tracks — across every localizer configuration.
"""

import numpy as np
import pytest

from repro.core import (
    AcousticPerceptionPipeline,
    BlockPipeline,
    PipelineConfig,
    process_signal_batched,
)
from repro.nn import Dense, Sequential
from repro.sed.events import EVENT_CLASSES

MICS = np.array(
    [[0.1, 0.1, 1.0], [0.1, -0.1, 1.0], [-0.1, -0.1, 1.0], [-0.1, 0.1, 1.0]]
)


class AlwaysSiren(Sequential):
    """Forces every frame through detection + localization + tracking."""

    def __init__(self, n_mels):
        super().__init__(Dense(n_mels, len(EVENT_CLASSES)))

    def forward(self, x):
        out = np.full((x.shape[0], len(EVENT_CLASSES)), -10.0)
        out[:, 1] = 10.0  # siren_wail
        return out


def assert_results_equal(streamed, batched):
    assert len(streamed) == len(batched)
    for r1, r2 in zip(streamed, batched):
        assert r1.frame_index == r2.frame_index
        assert r1.label == r2.label
        assert r1.detected == r2.detected
        assert np.isclose(r1.confidence, r2.confidence)
        for a, b in ((r1.azimuth, r2.azimuth), (r1.elevation, r2.elevation)):
            assert (np.isnan(a) and np.isnan(b)) or np.isclose(a, b)


def signal(seed=0, n=16000):
    return np.random.default_rng(seed).standard_normal((4, n))


@pytest.mark.parametrize("localizer", ["srp", "srp_fast", "music"])
class TestEquivalence:
    def config(self, localizer):
        return PipelineConfig(localizer=localizer, n_azimuth=24, n_elevation=2)

    def test_untrained_detector(self, localizer):
        p = AcousticPerceptionPipeline(MICS, self.config(localizer))
        streamed = p.process_signal(signal())
        p.reset()
        batched = p.process_signal_batched(signal())
        assert_results_equal(streamed, batched)

    def test_every_frame_localized(self, localizer):
        cfg = self.config(localizer)
        p = AcousticPerceptionPipeline(MICS, cfg, detector=AlwaysSiren(cfg.n_mels))
        streamed = p.process_signal(signal(1))
        p.reset()
        batched = p.process_signal_batched(signal(1))
        assert all(r.detected for r in streamed)
        assert all(np.isfinite(r.azimuth) for r in batched)
        assert_results_equal(streamed, batched)

    def test_block_pipeline_wrapper(self, localizer):
        cfg = self.config(localizer)
        block = BlockPipeline(MICS, cfg)
        inner = block.pipeline
        streamed = inner.process_signal(signal(2))
        block.reset()
        batched = block.process_signal(signal(2))
        assert_results_equal(streamed, batched)


class TestStateSharing:
    def test_tracker_and_index_continue_across_engines(self):
        cfg = PipelineConfig(n_azimuth=24, n_elevation=2)
        ref = AcousticPerceptionPipeline(MICS, cfg, detector=AlwaysSiren(cfg.n_mels))
        mixed = AcousticPerceptionPipeline(MICS, cfg, detector=AlwaysSiren(cfg.n_mels))
        first, second = signal(3, 8000), signal(4, 8000)
        expected = ref.process_signal(first) + ref.process_signal(second)
        got = mixed.process_signal(first) + mixed.process_signal_batched(second)
        assert_results_equal(expected, got)

    def test_wrapping_shares_state(self):
        cfg = PipelineConfig(n_azimuth=24, n_elevation=2)
        p = AcousticPerceptionPipeline(MICS, cfg, detector=AlwaysSiren(cfg.n_mels))
        block = BlockPipeline(p)
        block.process_signal(signal(5, 8000))
        assert p.tracker.initialized
        assert p._frame_index > 0

    def test_function_form_matches_method(self):
        cfg = PipelineConfig(n_azimuth=24, n_elevation=2)
        p = AcousticPerceptionPipeline(MICS, cfg)
        a = process_signal_batched(p, signal(6))
        p.reset()
        b = p.process_signal_batched(signal(6))
        assert_results_equal(a, b)


class TestProcessBatch:
    def test_matches_per_clip_streaming(self):
        cfg = PipelineConfig(n_azimuth=24, n_elevation=2)
        p = AcousticPerceptionPipeline(MICS, cfg, detector=AlwaysSiren(cfg.n_mels))
        block = BlockPipeline(p)
        clips = np.random.default_rng(7).standard_normal((3, 4, 6000))
        batched = block.process_batch(clips)
        for clip, got in zip(clips, batched):
            p.reset()
            assert_results_equal(p.process_signal(clip), got)

    def test_each_clip_gets_fresh_tracker(self):
        cfg = PipelineConfig(n_azimuth=24, n_elevation=2)
        block = BlockPipeline(MICS, cfg, detector=AlwaysSiren(cfg.n_mels))
        clips = np.random.default_rng(8).standard_normal((2, 4, 6000))
        out = block.process_batch(clips)
        for results in out:
            assert results[0].frame_index == 0
        # The wrapped pipeline's own streaming state is untouched.
        assert not block.pipeline.tracker.initialized

    def test_validation(self):
        block = BlockPipeline(MICS, PipelineConfig(n_azimuth=24, n_elevation=2))
        with pytest.raises(ValueError):
            block.process_batch(np.zeros((2, 3, 6000)))  # wrong mic count
        with pytest.raises(ValueError):
            block.process_batch(np.zeros((2, 4, 100)))  # shorter than a frame


class TestValidation:
    def test_signal_shape_checks(self):
        p = AcousticPerceptionPipeline(MICS, PipelineConfig(n_azimuth=24, n_elevation=2))
        with pytest.raises(ValueError):
            p.process_signal_batched(np.zeros((2, 4000)))
        with pytest.raises(ValueError):
            p.process_signal_batched(np.zeros((4, 100)))

    def test_wrapper_rejects_conflicting_arguments(self):
        p = AcousticPerceptionPipeline(MICS, PipelineConfig(n_azimuth=24, n_elevation=2))
        with pytest.raises(ValueError):
            BlockPipeline(p, PipelineConfig())

    def test_frame_count_matches_streaming(self):
        p = AcousticPerceptionPipeline(MICS, PipelineConfig(n_azimuth=24, n_elevation=2))
        results = p.process_signal_batched(np.zeros((4, 4000)))
        assert len(results) == 1 + (4000 - 512) // 256


class TestRaggedBatch:
    """Ragged-length clips (fleet nodes with unequal capture windows)."""

    def config(self):
        return PipelineConfig(n_azimuth=24, n_elevation=2)

    def test_ragged_matches_per_clip_streaming(self):
        cfg = self.config()
        block = BlockPipeline(MICS, cfg, detector=AlwaysSiren(cfg.n_mels))
        p = block.pipeline
        rng = np.random.default_rng(11)
        clips = [rng.standard_normal((4, n)) for n in (4000, 6100, 2900)]
        batched = block.process_batch(clips)
        assert len(batched) == 3
        for clip, got in zip(clips, batched):
            p.reset()
            assert_results_equal(p.process_signal(clip), got)
        p.reset()

    def test_ragged_matches_rectangular_when_equal(self):
        cfg = self.config()
        block = BlockPipeline(MICS, cfg, detector=AlwaysSiren(cfg.n_mels))
        clips = np.random.default_rng(12).standard_normal((3, 4, 4000))
        rect = block.process_batch(clips)
        ragged = block.process_batch([clips[0], clips[1], clips[2]])
        for a, b in zip(rect, ragged):
            assert_results_equal(a, b)

    def test_ragged_validation(self):
        block = BlockPipeline(MICS, self.config())
        with pytest.raises(ValueError):
            block.process_batch([])
        with pytest.raises(ValueError):
            block.process_batch([np.zeros((3, 4000))])  # wrong mic count
        with pytest.raises(ValueError):
            block.process_batch([np.zeros((4, 4000)), np.zeros((4, 100))])  # too short


class TestForeignLocalizerRejected:
    def test_pipeline_names_the_rejected_type(self):
        """The hop kernel drives only the built-in localizers' one-pass
        search, so the pipeline refuses anything else up front."""

        class LocalizeOnly:
            def localize(self, frames):
                raise AssertionError("never called")

        with pytest.raises(TypeError, match="LocalizeOnly"):
            AcousticPerceptionPipeline(MICS, PipelineConfig(), localizer=LocalizeOnly())
        with pytest.raises(TypeError, match="SrpPhat, FastSrpPhat or MusicDoa"):
            BlockPipeline(MICS, PipelineConfig(), localizer=object())
        for kind in ("srp", "srp_fast", "music"):
            shared = AcousticPerceptionPipeline(MICS, PipelineConfig(localizer=kind)).localizer
            assert AcousticPerceptionPipeline(MICS, localizer=shared).localizer is shared

    def test_subclass_of_a_builtin_is_accepted(self):
        """The check is by ``isinstance``: a subclass of a built-in
        localizer passes, and the hop kernel drives its one-pass search
        exactly as it drives the base class."""
        from repro.ssl.doa import DoaGrid
        from repro.ssl.srp_fast import FastSrpPhat

        class CountedSrp(FastSrpPhat):
            calls = 0

            def _peak_flats(self, *args, **kwargs):
                type(self).calls += 1
                return super()._peak_flats(*args, **kwargs)

        cfg = PipelineConfig(n_azimuth=24, n_elevation=2)
        results = []
        for cls in (FastSrpPhat, CountedSrp):
            loc = cls(MICS, cfg.fs, grid=DoaGrid(n_azimuth=24, n_elevation=2), n_fft=cfg.n_fft_srp)
            p = AcousticPerceptionPipeline(MICS, cfg, detector=AlwaysSiren(cfg.n_mels), localizer=loc)
            results.append(p.process_signal_batched(signal(3, 8000)))
        assert CountedSrp.calls > 0
        assert all(np.isfinite(r.azimuth) for r in results[1])
        assert_results_equal(*results)
