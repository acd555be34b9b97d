"""One localization pass per kernel step.

``HopKernel.run_clips`` localizes the detected hops of every clip in one
pass: one cache selection, one GCC, one coarse sweep and one set of window
GEMMs, each clip's :class:`RefineState` replayed over its own segment.  Two
contracts pin that down:

- **run_clips equals per-clip stepping.**  Driving each clip alone through
  ``HopKernel.step`` gives bit-equal ``FrameResult`` fields and equal
  refinement states and trackers, for the three built-in localizers (the
  only ones a pipeline accepts).  The equality rests on every frame's power
  being computed from that frame alone; the GEMM bits of a row do not
  depend on the rows it is batched with except through BLAS kernel choice,
  so the examples are derandomized: an ulp-level power tie could otherwise
  flip an argmax.
- **The public search is the parent's.**  ``coarse_to_fine_search`` (the
  one-segment case of the segment search) returns the same peaks, maps and
  state as the list-and-numpy implementation it replaced, copied below as
  an oracle; the segment search equals running the oracle per segment.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AcousticPerceptionPipeline, PipelineConfig
from repro.nn import Dense, Sequential
from repro.sed.events import EVENT_CLASSES, class_index
from repro.ssl import (
    DoaGrid,
    FastSrpPhat,
    GridPyramid,
    MusicDoa,
    RefineConfig,
    RefineState,
    SpectraCache,
    SrpPhat,
    coarse_to_fine_search,
)
from repro.ssl.refine import _search_segments

FS = 16000.0
C = 343.0
FRAME = 256
MICS = np.array(
    [[0.1, 0.1, 1.0], [0.1, -0.1, 1.0], [-0.1, -0.1, 1.0], [-0.1, 0.1, 1.0]]
)


def _parent_coarse_to_fine_search(power_fn, n_frames, pyramid, config, state=None):
    """The coarse-to-fine search as it was before segments (the oracle)."""
    if state is None:
        state = RefineState()
    grid = pyramid.grid
    coarse_cols = pyramid.coarse_flat
    cp = power_fn(None, coarse_cols)  # (T, Gc)
    top1 = cp.argmax(axis=1)
    k = min(config.top_k, coarse_cols.size)
    m = min(4 * k, coarse_cols.size)
    if m < coarse_cols.size:
        cand = np.argpartition(cp, -m, axis=1)[:, -m:]
    else:
        cand = np.broadcast_to(np.arange(coarse_cols.size), cp.shape)
    lo = cp.min(axis=1)
    hi = cp[np.arange(n_frames), top1]
    runner = np.where(pyramid.near_mask()[top1], -np.inf, cp).max(axis=1)
    ambiguous = (hi - runner) < 0.25 * np.maximum(hi - lo, 1e-30)
    windows = []
    for t in range(n_frames):
        cell = pyramid.coarse_cell(top1[t])
        if (
            not ambiguous[t]
            and state.window is not None
            and state.anchor is not None
            and pyramid.cell_distance(cell, state.anchor) <= config.reuse_gate
        ):
            state.n_reused += 1
        else:
            row = cp[t]
            order = cand[t][np.argsort(row[cand[t]])[::-1]]
            cells = []
            for c in order:
                cc = pyramid.coarse_cell(c)
                if all(pyramid.cell_distance(cc, s) >= 2 for s in cells):
                    cells.append(cc)
                if len(cells) == k:
                    break
            state.window = pyramid.window_cols(cells, gate=config.reuse_gate)
            state.anchor = cell
            state.n_selected += 1
        windows.append(state.window)
    maps = np.full((n_frames, grid.size), -np.inf, dtype=cp.dtype)
    maps[:, coarse_cols] = cp
    peak_flat = coarse_cols[top1].astype(np.intp)
    peak_power = cp[np.arange(n_frames), top1]
    groups, keyed = {}, {}
    for t, w in enumerate(windows):
        groups.setdefault(id(w), []).append(t)
        keyed[id(w)] = w
    for wid, ts in groups.items():
        w = keyed[wid]
        rows = np.asarray(ts, dtype=np.intp)
        pw = power_fn(rows, w)
        maps[rows[:, None], w[None, :]] = pw
        am = pw.argmax(axis=1)
        wp = pw[np.arange(rows.size), am]
        better = wp >= peak_power[rows]
        peak_flat[rows[better]] = w[am[better]]
    return peak_flat, maps


def assert_states_equal(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.anchor == b.anchor
    assert (a.window is None) == (b.window is None)
    if a.window is not None:
        assert np.array_equal(a.window, b.window)
    assert (a.n_reused, a.n_selected) == (b.n_reused, b.n_selected)


def assert_results_bit_equal(got, ref):
    assert len(got) == len(ref)
    for r1, r2 in zip(got, ref):
        assert r1[:4] == r2[:4]
        for x, y in zip(r1[4:], r2[4:]):
            assert type(x) is type(y)
            assert x == y or (x != x and y != y)


def coherent_frames(rng, n_frames, az0, drift, el, noise):
    """Frames of one broadband plane wave drifting in azimuth, plus noise."""
    src = np.fft.rfft(rng.standard_normal((n_frames, FRAME)), axis=-1)
    f = np.arange(src.shape[-1]) / FRAME
    az = az0 + drift * np.arange(n_frames)
    u = np.stack(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.full(n_frames, np.sin(el))], -1
    )
    delay = -(u @ MICS.T) / C * FS  # (T, M) samples
    shifted = src[:, None, :] * np.exp(-2j * np.pi * f * delay[:, :, None])
    frames = np.fft.irfft(shifted, n=FRAME, axis=-1)
    return frames + noise * rng.standard_normal(frames.shape)


class MaskDetector(Sequential):
    """Fires on the frames a queued mask says, in the order they arrive."""

    def __init__(self, n_mels):
        super().__init__(Dense(n_mels, len(EVENT_CLASSES)))
        self.queue: list[bool] = []

    def forward(self, x):
        fired, self.queue = self.queue[: x.shape[0]], self.queue[x.shape[0] :]
        out = np.full((x.shape[0], len(EVENT_CLASSES)), -10.0)
        out[:, class_index("background")] = 0.0
        out[fired, class_index("siren_wail")] = 10.0
        return out


KINDS = ["srp", "srp_fast", "music"]


def make_pipeline(kind, refine_levels):
    cfg = PipelineConfig(
        fs=FS,
        frame_length=FRAME,
        hop_length=FRAME // 2,
        n_fft_srp=2 * FRAME,
        n_azimuth=24,
        n_elevation=3,
        localizer=kind,
        refine_levels=refine_levels,
    )
    return AcousticPerceptionPipeline(MICS, cfg, detector=MaskDetector(cfg.n_mels))


@st.composite
def clip_plans(draw):
    n_clips = draw(st.integers(1, 4))
    clips = []
    for _ in range(n_clips):
        length = draw(st.integers(1, 7))
        silent = draw(st.integers(0, 3)) == 0  # about a quarter of clips never fire
        mask = [False] * length if silent else draw(
            st.lists(st.booleans(), min_size=length, max_size=length)
        )
        clips.append(
            {
                "mask": mask,
                "stateful": draw(st.integers(0, 5)) > 0,
                "az": draw(st.floats(-np.pi, np.pi)),
                "drift": draw(st.sampled_from([0.0, 0.05, 0.4])),
                "start": draw(st.integers(0, 50)),
            }
        )
    return {
        "clips": clips,
        "seed": draw(st.integers(0, 2**16)),
        "warm": draw(st.booleans()),
        "prime": draw(st.sampled_from([None, False, True])),
        "noise": draw(st.sampled_from([0.05, 0.5, 5.0])),
        "refine_levels": draw(st.sampled_from([1, 2, 2, 3])),
    }


@pytest.mark.parametrize("kind", KINDS)
class TestRunClipsEqualsPerClipStepping:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(plan=clip_plans())
    def test_one_pass_matches_stepping_each_clip(self, kind, plan):
        rng = np.random.default_rng(plan["seed"])
        pipe = make_pipeline(kind, plan["refine_levels"])
        kernel = pipe.hop_kernel
        clips = plan["clips"]
        blocks = [
            coherent_frames(rng, len(c["mask"]), c["az"], c["drift"], 0.3, plan["noise"])
            for c in clips
        ]
        trackers = [type(pipe.tracker)() for _ in clips]
        states = [RefineState() if c["stateful"] else None for c in clips]
        if plan["warm"]:
            # States and trackers cloned from an earlier call.
            warm = [coherent_frames(rng, 3, c["az"] + 1.0, 0.1, 0.2, 0.1) for c in clips]
            pipe.detector.queue = [True] * (3 * len(clips))
            kernel.run_clips(warm, trackers, states, [0] * len(clips))
        starts = [c["start"] for c in clips]
        mask = [m for c in clips for m in c["mask"]]
        ema = pipe._dense_ema

        pipe.detector.queue = list(mask)
        one_trackers = copy.deepcopy(trackers)
        one_states = [None if s is None else s.clone() for s in states]
        one_pass = kernel.run_clips(blocks, one_trackers, one_states, starts, prime=plan["prime"])

        pipe._dense_ema = ema
        pipe.detector.queue = list(mask)
        ref_trackers = copy.deepcopy(trackers)
        ref_states = [None if s is None else s.clone() for s in states]
        stepped = [
            kernel.step(block, tracker=tr, state=s, start_index=start, prime=plan["prime"])
            for block, tr, s, start in zip(blocks, ref_trackers, ref_states, starts)
        ]
        assert not pipe.detector.queue

        assert len(one_pass) == len(stepped)
        for got, ref, c in zip(one_pass, stepped, clips):
            assert [r.detected for r in ref] == c["mask"]
            assert_results_bit_equal(got, ref)
        for a, b in zip(one_states, ref_states):
            assert_states_equal(a, b)
        for a, b in zip(one_trackers, ref_trackers):
            assert vars(a) == vars(b)


def _random_maps(rng, n_frames, size, ties):
    power = rng.standard_normal((n_frames, size)).astype(np.float32)
    if ties:
        power = np.round(power * ties) / ties  # many exact ties
    return power


def _indexing_power_fn(power):
    return lambda rows, cols: (power if rows is None else power[rows])[:, cols]


@st.composite
def search_cases(draw):
    grid = DoaGrid(
        n_azimuth=draw(st.integers(4, 40)),
        n_elevation=draw(st.integers(1, 5)),
    )
    config = RefineConfig(
        levels=draw(st.integers(2, 4)),
        top_k=draw(st.integers(1, 3)),
        reuse_gate=draw(st.integers(0, 2)),
    )
    bounds = [0]
    for _ in range(draw(st.integers(1, 4))):
        bounds.append(bounds[-1] + draw(st.integers(0, 9)))
    return {
        "grid": grid,
        "config": config,
        "bounds": bounds,
        "seed": draw(st.integers(0, 2**16)),
        "ties": draw(st.sampled_from([0, 0, 2, 8])),
        "warm": [draw(st.booleans()) for _ in bounds[1:]],
    }


class TestSearchMatchesParent:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=search_cases())
    def test_segments_equal_the_parent_search_per_segment(self, case):
        rng = np.random.default_rng(case["seed"])
        grid, config, bounds = case["grid"], case["config"], case["bounds"]
        pyramid = GridPyramid(grid, config.levels)
        power = _random_maps(rng, bounds[-1], grid.size, case["ties"])
        states = []
        for warm in case["warm"]:
            state = RefineState()
            if warm:  # a state an earlier search left behind
                _parent_coarse_to_fine_search(
                    _indexing_power_fn(_random_maps(rng, 3, grid.size, case["ties"])),
                    3, pyramid, config, state,
                )
            states.append(state)
        ref_states = [s.clone() for s in states]
        ref_peaks, ref_maps = [], []
        for lo, hi, state in zip(bounds, bounds[1:], ref_states):
            peaks, maps = _parent_coarse_to_fine_search(
                _indexing_power_fn(power[lo:hi]), hi - lo, pyramid, config, state
            )
            ref_peaks.append(peaks)
            ref_maps.append(maps)
        got_states = [s.clone() for s in states]
        peaks, maps = _search_segments(
            _indexing_power_fn(power), bounds, got_states, pyramid, config, maps=True
        )
        assert np.array_equal(peaks, np.concatenate(ref_peaks))
        assert np.array_equal(maps, np.concatenate(ref_maps))
        for a, b in zip(got_states, ref_states):
            assert_states_equal(a, b)
        # The public function is the one-segment case.
        if len(bounds) == 2:
            one = states[0].clone()
            peaks, maps = coarse_to_fine_search(
                _indexing_power_fn(power), bounds[-1], pyramid, config, one
            )
            assert np.array_equal(peaks, ref_peaks[0]) and np.array_equal(maps, ref_maps[0])
            assert_states_equal(one, ref_states[0])

    @pytest.mark.parametrize("cls", [SrpPhat, FastSrpPhat, MusicDoa])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_localize_batch_equals_the_parent_search(self, cls, seed):
        """Real localizer power: the same maps and peaks, bit for bit."""
        rng = np.random.default_rng(seed)
        grid = DoaGrid(n_azimuth=24, n_elevation=3)
        loc = cls(MICS, FS, grid=grid, n_fft=2 * FRAME)
        config = RefineConfig()
        pyramid = loc._pyramid(config.levels)
        frames = np.concatenate(
            [
                coherent_frames(rng, 6, rng.uniform(-np.pi, np.pi), 0.1, 0.3, 0.2),
                rng.standard_normal((4, 4, FRAME)),  # multimodal noise maps
            ]
        )
        state, ref_state = RefineState(), RefineState()
        for block in (frames[:5], frames[5:]):
            got = loc.localize_batch(block, refine=config, state=state)
            cache = SpectraCache(block, dtype=loc.spectra_dtype)
            peaks, maps = _parent_coarse_to_fine_search(
                loc._c2f_power_fn(cache, pyramid), len(block), pyramid, config, ref_state
            )
            assert np.array_equal(np.stack([r.map for r in got]), maps.reshape(len(block), *grid.shape))
            for res, flat in zip(got, peaks.tolist()):
                assert (res.azimuth, res.elevation) == grid.index_to_azel(flat)
            assert_states_equal(state, ref_state)
