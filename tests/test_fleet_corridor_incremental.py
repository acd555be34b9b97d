"""Incremental corridor rendering: hop slices on demand, bit-identical to
the offline whole-scene render."""

import numpy as np
import pytest

from repro.acoustics.trajectory import LinearTrajectory
from repro.core import PipelineConfig
from repro.fleet import (
    CorridorBlockRenderer,
    CorridorScene,
    CorridorStream,
    FleetScheduler,
    OracleDetector,
    Vehicle,
    place_corridor_nodes,
    synthesize_corridor,
)

FS = 8000.0


def make_scene(n_nodes=3, n_samples=8000, two_vehicles=True, seed=7):
    rng = np.random.default_rng(seed)
    sig1 = np.sin(2 * np.pi * 700 * np.arange(n_samples) / FS) * 0.5
    vehicles = [
        Vehicle(
            "siren_wail",
            LinearTrajectory((-40.0, 5.0, 1.5), (40.0, 5.0, 1.5), speed=20.0),
            sig1,
        )
    ]
    if two_vehicles:
        vehicles.append(
            Vehicle(
                "siren_yelp",
                LinearTrajectory((30.0, -5.0, 1.0), (-30.0, -5.0, 1.0), speed=15.0),
                rng.standard_normal(n_samples - 1500) * 0.2,
                gain=0.7,
            )
        )
    return CorridorScene(vehicles, place_corridor_nodes(n_nodes, 25.0))


class TestCorridorBlockRenderer:
    @pytest.mark.parametrize("interp", ["linear", "lagrange"])
    def test_bit_identical_to_offline_render(self, interp):
        scene = make_scene()
        offline = synthesize_corridor(scene, FS, interpolation=interp)
        rend = CorridorBlockRenderer(scene, FS, interpolation=interp)
        for nid, ref in offline.recordings.items():
            blocks = []
            while rend.cursor(nid) < rend.capture_samples_of(nid):
                blocks.append(rend.render_next(nid, 256))
            assert np.array_equal(np.concatenate(blocks, axis=1), ref)

    def test_noise_and_truncation_match_offline(self):
        scene = make_scene()
        kw = dict(noise_std=0.01, capture_samples={"node2": 6500})
        offline = synthesize_corridor(scene, FS, rng=np.random.default_rng(42), **kw)
        rend = CorridorBlockRenderer(scene, FS, rng=np.random.default_rng(42), **kw)
        # Ragged block sizes must not matter: any slicing concatenates to
        # the same samples.
        sizes = [1, 7, 250, 256, 2048, 10_000]
        for nid, ref in offline.recordings.items():
            blocks, k = [], 0
            while rend.cursor(nid) < rend.capture_samples_of(nid):
                blocks.append(rend.render_next(nid, sizes[k % len(sizes)]))
                k += 1
            got = np.concatenate(blocks, axis=1)
            assert got.shape == ref.shape
            assert np.array_equal(got, ref)

    def test_short_final_block_and_exhaustion(self):
        scene = make_scene(n_samples=1000, two_vehicles=False)
        rend = CorridorBlockRenderer(scene, FS)
        assert rend.render_next("node0", 768).shape == (4, 768)
        assert rend.render_next("node0", 768).shape == (4, 232)  # short tail
        with pytest.raises(ValueError, match="exhausted"):
            rend.render_next("node0", 1)
        with pytest.raises(ValueError):
            rend.render_next("node1", 0)

    @pytest.mark.parametrize("interp", ["linear", "lagrange", "sinc"])
    def test_full_physics_bit_identical_to_offline(self, interp):
        """Surface reflections + air absorption stream bit-exact: the same
        stateful FIR stages run whole-signal offline and sliced here."""
        scene = make_scene(n_nodes=2, n_samples=10_000)
        scene.surface = "dense_asphalt"
        offline = synthesize_corridor(scene, FS, interpolation=interp, air_absorption=True)
        rend = CorridorBlockRenderer(scene, FS, interpolation=interp, air_absorption=True)
        sizes = [256, 1, 2048, 709, 256]
        for nid, ref in offline.recordings.items():
            blocks, k = [], 0
            while rend.cursor(nid) < rend.capture_samples_of(nid):
                blocks.append(rend.render_next(nid, sizes[k % len(sizes)]))
                k += 1
            got = np.concatenate(blocks, axis=1)
            assert got.shape == ref.shape
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize(
        "surface,air", [("dense_asphalt", False), (None, True)]
    )
    def test_single_stage_physics_bit_identical(self, surface, air):
        """Reflection-only and absorption-only configurations stream too."""
        scene = make_scene(n_nodes=2, two_vehicles=False)
        scene.surface = surface
        kw = dict(air_absorption=air, noise_std=0.01)
        offline = synthesize_corridor(scene, FS, rng=np.random.default_rng(9), **kw)
        rend = CorridorBlockRenderer(scene, FS, rng=np.random.default_rng(9), **kw)
        for nid, ref in offline.recordings.items():
            blocks = []
            while rend.cursor(nid) < rend.capture_samples_of(nid):
                blocks.append(rend.render_next(nid, 256))
            assert np.array_equal(np.concatenate(blocks, axis=1), ref)

    def test_full_physics_session_tracks_identical(self):
        """A live session over the full-physics incremental render fuses the
        exact tracks of the offline-rendered replay session."""
        scene = make_scene(two_vehicles=False)
        scene.surface = "dense_asphalt"
        cfg = PipelineConfig(fs=FS, localizer="srp_fast", n_azimuth=36, n_elevation=2)
        sch = FleetScheduler(
            scene.nodes, cfg, detector=OracleDetector("siren_wail"), n_shards=2
        )

        def run(incremental):
            stream = CorridorStream(
                scene,
                FS,
                chunk_samples=cfg.hop_length,
                rng=np.random.default_rng(3),
                incremental=incremental,
                air_absorption=True,
            )
            session = sch.stream(stream.sources(), hop_batch=8)
            while not session.done:
                session.step()
            return session.finalize()

        ref, inc = run(False), run(True)
        assert len(ref.tracks) == len(inc.tracks) > 0
        for ta, tb in zip(ref.tracks, inc.tracks):
            assert np.array_equal(ta.frames(), tb.frames())
            assert np.array_equal(ta.positions(), tb.positions())

    def test_validation(self):
        scene = make_scene()
        with pytest.raises(ValueError):
            CorridorBlockRenderer(scene, 0.0)
        with pytest.raises(ValueError, match="capture_samples"):
            CorridorBlockRenderer(scene, FS, capture_samples={"node0": 0})

    def test_below_road_plane_raises_at_offending_block(self):
        scene = CorridorScene(
            [
                Vehicle(
                    "siren_wail",
                    # Dips through z = 0 partway along the capture.
                    LinearTrajectory((-10.0, 5.0, 2.0), (10.0, 5.0, -2.0), speed=20.0),
                    np.ones(8000),
                )
            ],
            place_corridor_nodes(2, 25.0),
        )
        rend = CorridorBlockRenderer(scene, FS)
        rend.render_next("node0", 256)  # early blocks are fine
        with pytest.raises(ValueError, match="z <= 0"):
            while True:
                rend.render_next("node0", 256)


class TestIncrementalCorridorStream:
    def test_chunks_match_recording_source_exactly(self):
        """Same seed, same faults, same samples: the incremental sources are
        indistinguishable from the whole-render replay sources."""
        scene = make_scene()
        kw = dict(chunk_samples=256, drop_prob=0.15, jitter_s=0.03)
        full = CorridorStream(scene, FS, rng=np.random.default_rng(5), **kw)
        incr = CorridorStream(
            scene, FS, rng=np.random.default_rng(5), incremental=True, **kw
        )
        sa, sb = full.sources(), incr.sources()
        for nid in full.node_ids:
            assert sa[nid].n_chunks_total == sb[nid].n_chunks_total
            while True:
                ca, cb = sa[nid].next_chunk(), sb[nid].next_chunk()
                assert (ca is None) == (cb is None)
                if ca is None:
                    break
                assert ca.seq == cb.seq
                assert ca.t == cb.t
                assert ca.arrival_s == cb.arrival_s
                assert np.array_equal(ca.data, cb.data)

    def test_session_tracks_identical(self):
        """A hop-clocked fleet session fed incrementally rendered chunks
        fuses the exact tracks of the whole-render session."""
        scene = make_scene(two_vehicles=False)
        cfg = PipelineConfig(fs=FS, localizer="srp_fast", n_azimuth=36, n_elevation=2)
        sch = FleetScheduler(
            scene.nodes, cfg, detector=OracleDetector("siren_wail"), n_shards=2
        )

        def run(incremental):
            stream = CorridorStream(
                scene,
                FS,
                chunk_samples=cfg.hop_length,
                rng=np.random.default_rng(3),
                incremental=incremental,
            )
            session = sch.stream(stream.sources(), hop_batch=8)
            while not session.done:
                session.step()
            return session.finalize()

        ref, inc = run(False), run(True)
        assert len(ref.tracks) == len(inc.tracks) > 0
        for ta, tb in zip(ref.tracks, inc.tracks):
            assert np.array_equal(ta.frames(), tb.frames())
            assert np.array_equal(ta.positions(), tb.positions())

    def test_incremental_requires_scene(self):
        scene = make_scene(two_vehicles=False)
        rec = synthesize_corridor(scene, FS)
        with pytest.raises(ValueError, match="needs a scene"):
            CorridorStream(rec, incremental=True)
