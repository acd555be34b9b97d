"""The corridor render against an independent oracle.

:func:`~repro.fleet.corridor.synthesize_corridor` and the hop-sliced
:class:`~repro.fleet.corridor.CorridorBlockRenderer` are one render path,
so neither can check the other.  The oracle here is the per-(node, vehicle)
loop of the single-scene simulator: one
:meth:`~repro.acoustics.simulator.RoadAcousticsSimulator.simulate` per node
and vehicle, a gain-weighted sum in scene order, sensor noise drawn from one
generator in node order, then capture truncation.  Every recording and
every sliced pull must equal it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acoustics import RoadAcousticsSimulator, Scene
from repro.acoustics.trajectory import LinearTrajectory
from repro.core import PipelineConfig
from repro.fleet import (
    CorridorBlockRenderer,
    CorridorRecording,
    CorridorScene,
    CorridorStream,
    FleetScheduler,
    OracleDetector,
    Vehicle,
    place_corridor_nodes,
    synthesize_corridor,
)
from repro.fleet.corridor import _distances

FS = 8000.0

PHYSICS = [(None, False), ("dense_asphalt", False), (None, True), ("dense_asphalt", True)]


def oracle_corridor(
    scene,
    fs,
    *,
    interpolation="linear",
    order=3,
    air_absorption=False,
    capture_samples=None,
    noise_std=0.0,
    rng=None,
):
    """The corridor render as one simulator per (node, vehicle) pair."""
    n_samples = max(v.signal.size for v in scene.vehicles)
    gen = rng if rng is not None else np.random.default_rng(0)
    recordings = {}
    for node in scene.nodes:
        out = np.zeros((node.array.n_mics, n_samples))
        for vehicle in scene.vehicles:
            sub = Scene(
                vehicle.trajectory,
                node.array,
                surface=scene.surface,
                atmosphere=scene.atmosphere,
            )
            sim = RoadAcousticsSimulator(
                sub,
                fs,
                interpolation=interpolation,
                order=order,
                air_absorption=air_absorption,
            )
            sig = vehicle.signal
            if sig.size < n_samples:
                sig = np.pad(sig, (0, n_samples - sig.size))
            out += vehicle.gain * sim.simulate(sig)
        if noise_std > 0:
            out += noise_std * gen.standard_normal(out.shape)
        stop = n_samples
        if capture_samples and node.node_id in capture_samples:
            stop = int(capture_samples[node.node_id])
        recordings[node.node_id] = out[:, :stop]
    return CorridorRecording(fs=float(fs), recordings=recordings, scene=scene)


def make_scene(n_nodes=3, n_samples=8000, two_vehicles=True, seed=7, surface=None):
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
    return CorridorScene(vehicles, place_corridor_nodes(n_nodes, 25.0), surface=surface)


def underground_scene():
    """One vehicle below the road plane for its whole path."""
    return CorridorScene(
        [
            Vehicle(
                "siren_wail",
                LinearTrajectory((-10.0, 5.0, -1.0), (10.0, 5.0, -1.0), speed=20.0),
                np.ones(4000),
            )
        ],
        place_corridor_nodes(2, 25.0),
    )


def pull_all(rend, nid, sizes):
    """Concatenate one node's whole capture, pulled in cycling ``sizes``."""
    blocks, k = [], 0
    while rend.cursor(nid) < rend.capture_samples_of(nid):
        blocks.append(rend.render_next(nid, sizes[k % len(sizes)]))
        k += 1
    return np.concatenate(blocks, axis=1)


def assert_recordings_equal(got, ref):
    assert got.recordings.keys() == ref.recordings.keys()
    for nid, want in ref.recordings.items():
        assert got.recordings[nid].shape == want.shape
        assert np.array_equal(got.recordings[nid], want)


class TestWholeRenderMatchesOracle:
    @pytest.mark.parametrize("surface,air", PHYSICS)
    @pytest.mark.parametrize("interp", ["linear", "lagrange", "sinc"])
    def test_every_interpolator_and_physics_subset(self, interp, surface, air):
        """Unequal signal lengths and gains, every interpolator, with no
        surface, a surface, air absorption and both."""
        scene = make_scene(n_nodes=2, n_samples=6000, surface=surface)
        kw = dict(interpolation=interp, air_absorption=air)
        assert_recordings_equal(
            synthesize_corridor(scene, FS, **kw), oracle_corridor(scene, FS, **kw)
        )

    @pytest.mark.parametrize("surface,air", [(None, False), ("dense_asphalt", True)])
    def test_noise_with_truncated_captures(self, surface, air):
        scene = make_scene(surface=surface)
        kw = dict(
            air_absorption=air,
            noise_std=0.01,
            capture_samples={"node0": 7999, "node2": 3000},
        )
        got = synthesize_corridor(scene, FS, rng=np.random.default_rng(42), **kw)
        ref = oracle_corridor(scene, FS, rng=np.random.default_rng(42), **kw)
        assert got.recordings["node2"].shape == (4, 3000)
        assert_recordings_equal(got, ref)

    def test_longer_than_one_lockstep_block(self):
        """Several lockstep blocks, a short last one, and a capture that
        ends inside a block."""
        scene = make_scene(n_nodes=2, n_samples=20_000)
        kw = dict(capture_samples={"node1": 9000})
        assert_recordings_equal(
            synthesize_corridor(scene, FS, **kw), oracle_corridor(scene, FS, **kw)
        )


class TestIncrementalPullsMatchOracle:
    @pytest.mark.parametrize("surface,air", [(None, False), ("dense_asphalt", True)])
    @pytest.mark.parametrize("pull", [1, 255, 256, 4097, 9000])
    def test_lockstep_pulls(self, pull, surface, air):
        """Nodes pulled round-robin, as a live session pulls them, in
        chunks of ``pull`` samples (9000 is longer than any capture)."""
        scene = make_scene(n_nodes=2, n_samples=4500, surface=surface)
        kw = dict(
            air_absorption=air,
            noise_std=0.01,
            capture_samples={"node1": 4200},
        )
        ref = oracle_corridor(scene, FS, rng=np.random.default_rng(3), **kw)
        rend = CorridorBlockRenderer(scene, FS, rng=np.random.default_rng(3), **kw)
        got = {nid: [] for nid in ref.recordings}
        live = list(got)
        while live:
            for nid in list(live):
                got[nid].append(rend.render_next(nid, pull))
                if rend.cursor(nid) == rend.capture_samples_of(nid):
                    live.remove(nid)
        for nid, want in ref.recordings.items():
            assert np.array_equal(np.concatenate(got[nid], axis=1), want)


_COORD = st.floats(-3.0, 3.0, allow_nan=False)
_UNIT = st.floats(-1.0, 1.0, allow_nan=False)


class TestDistanceHelper:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        mics=st.lists(st.tuples(_COORD, _COORD, st.floats(0.1, 3.0)), min_size=1, max_size=6),
        sources=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.sampled_from([0.0, 1e-3, 0.5, 3.0, 80.0, 5e3]),
                st.tuples(_UNIT, _UNIT, _UNIT),
            ),
            min_size=1,
            max_size=40,
        ),
        on_mic=st.integers(0, 39),
    )
    def test_bit_identical_to_linalg_norm(self, mics, sources, on_mic):
        """Random geometry — sources near and far from a mic, and one
        exactly on a mic: the per-axis sum equals
        ``np.linalg.norm(..., axis=2)`` bit for bit."""
        mics = np.array(mics)
        src = np.array(
            [mics[k % len(mics)] + scale * np.array(offset) for k, scale, offset in sources]
        )
        src[on_mic % len(src)] = mics[on_mic % len(mics)]
        ref = np.linalg.norm(src[None, :, :] - mics[:, None, :], axis=2)
        got = _distances(np.ascontiguousarray(src.T), mics)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert (got == 0.0).any()


class TestCorridorBlockRenderer:
    @pytest.mark.parametrize("interp", ["linear", "lagrange"])
    def test_bit_identical_to_offline_render(self, interp):
        scene = make_scene()
        offline = oracle_corridor(scene, FS, interpolation=interp)
        rend = CorridorBlockRenderer(scene, FS, interpolation=interp)
        for nid, ref in offline.recordings.items():
            assert np.array_equal(pull_all(rend, nid, [256]), ref)

    def test_noise_and_truncation_match_offline(self):
        scene = make_scene()
        kw = dict(noise_std=0.01, capture_samples={"node2": 6500})
        offline = oracle_corridor(scene, FS, rng=np.random.default_rng(42), **kw)
        rend = CorridorBlockRenderer(scene, FS, rng=np.random.default_rng(42), **kw)
        # Ragged block sizes must not matter: any slicing concatenates to
        # the same samples.
        sizes = [1, 7, 250, 256, 2048, 10_000]
        for nid, ref in offline.recordings.items():
            got = pull_all(rend, nid, sizes)
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
        offline = oracle_corridor(scene, FS, interpolation=interp, air_absorption=True)
        rend = CorridorBlockRenderer(scene, FS, interpolation=interp, air_absorption=True)
        sizes = [256, 1, 2048, 709, 256]
        for nid, ref in offline.recordings.items():
            got = pull_all(rend, nid, sizes)
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
        offline = oracle_corridor(scene, FS, rng=np.random.default_rng(9), **kw)
        rend = CorridorBlockRenderer(scene, FS, rng=np.random.default_rng(9), **kw)
        for nid, ref in offline.recordings.items():
            assert np.array_equal(pull_all(rend, nid, [256]), ref)

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

    @pytest.mark.parametrize("render", [CorridorBlockRenderer, synthesize_corridor])
    def test_unknown_capture_node_rejected_before_rendering(self, render):
        """A mistyped node id must not silently render the full window.
        The scene sits below the road plane from t = 0, so any render
        would raise ``z <= 0`` instead."""
        with pytest.raises(ValueError, match="unknown nodes.*'node9'"):
            render(underground_scene(), FS, capture_samples={"node0": 100, "node9": 100})

    @pytest.mark.parametrize("render", [CorridorBlockRenderer, synthesize_corridor])
    def test_negative_noise_rejected_before_rendering(self, render):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="noise_std"):
            render(underground_scene(), FS, noise_std=-0.01, rng=rng)
        assert rng.random() == np.random.default_rng(0).random()  # no draws

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
        # A whole render raises the same error.
        with pytest.raises(ValueError, match="z <= 0"):
            synthesize_corridor(scene, FS)


class TestSharedVehicleBuffer:
    """One frozen padded signal per vehicle, read by every node's reader."""

    @pytest.mark.parametrize("surface", [None, "dense_asphalt"])
    def test_every_node_reads_one_read_only_buffer(self, surface):
        scene = make_scene(n_nodes=3, surface=surface)
        rend = CorridorBlockRenderer(scene, FS, air_absorption=surface is not None)
        node_ids = [node.node_id for node in scene.nodes]
        for v, vehicle in enumerate(scene.vehicles):
            readers = [rend._readers[nid][v] for nid in node_ids]
            buf = readers[0]._buf
            assert all(r._buf is buf for r in readers)
            assert not buf.flags.writeable
            assert buf.size == vehicle.signal.size + 2
            assert buf[0] == buf[-1] == 0.0
            assert np.array_equal(buf[1:-1], vehicle.signal)
            for r in readers:
                with pytest.raises(RuntimeError):
                    r.feed(np.ones(4))
        first = rend._readers[node_ids[0]]
        assert first[0]._buf is not first[1]._buf
        assert scene.vehicles[0].signal.flags.writeable  # the scene's own signal is untouched

    def test_cursors_stay_per_node(self):
        """Pulling one node does not move another node's cursor over the
        shared buffer."""
        scene = make_scene(n_nodes=2)
        rend = CorridorBlockRenderer(scene, FS)
        rend.render_next("node0", 1000)
        assert [r.n_read for r in rend._readers["node0"]] == [1000, 1000]
        assert [r.n_read for r in rend._readers["node1"]] == [0, 0]


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
