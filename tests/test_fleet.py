"""Fleet subsystem tests: corridor synthesis, sharded scheduling, and the
end-to-end 3-node acceptance scenario (two crossing vehicles, fused
position tracks beating the best single node's bearing-only estimates)."""

import numpy as np
import pytest

from repro.acoustics.trajectory import LinearTrajectory, StaticPosition
from repro.core import BlockPipeline, PipelineConfig
from repro.fleet import (
    CorridorScene,
    FleetScheduler,
    OracleDetector,
    Vehicle,
    bearing_only_positions,
    fleet_report,
    format_report,
    fuse_fleet,
    place_corridor_nodes,
    synthesize_corridor,
    track_rms_error,
)
from repro.signals import synthesize_siren

FS = 8000.0


def small_scene(n_nodes=2, duration=0.4, spacing=12.0, n_vehicles=1):
    rng = np.random.default_rng(7)
    vehicles = [
        Vehicle(
            "siren_wail",
            LinearTrajectory([-15.0, 8.0, 0.8], [15.0, 8.0, 0.8], 15.0),
            synthesize_siren("wail", duration, FS, rng=rng),
        )
    ]
    if n_vehicles > 1:
        vehicles.append(
            Vehicle(
                "siren_yelp",
                LinearTrajectory([15.0, 13.0, 0.8], [-15.0, 13.0, 0.8], 12.0),
                synthesize_siren("yelp", duration, FS, rng=rng),
            )
        )
    nodes = place_corridor_nodes(n_nodes, spacing)
    return CorridorScene(vehicles, nodes)


class TestCorridorSynthesis:
    def test_shapes_and_determinism(self):
        scene = small_scene()
        rec1 = synthesize_corridor(scene, FS)
        rec2 = synthesize_corridor(scene, FS)
        n = int(0.4 * FS)
        for node in scene.nodes:
            assert rec1.recordings[node.node_id].shape == (4, n)
            assert np.array_equal(rec1.recordings[node.node_id], rec2.recordings[node.node_id])

    def test_consistent_geometry_nearer_node_is_louder(self):
        # A static source close to node0 must arrive louder there than at
        # the far node — the corridor renders one shared physical scene.
        nodes = place_corridor_nodes(2, 30.0)
        src = nodes[0].position + np.array([0.0, 5.0, -0.2])
        rng = np.random.default_rng(0)
        scene = CorridorScene(
            [Vehicle("siren_wail", StaticPosition(src), synthesize_siren("wail", 0.3, FS, rng=rng))],
            nodes,
        )
        rec = synthesize_corridor(scene, FS)
        e0 = np.mean(rec.recordings["node0"] ** 2)
        e1 = np.mean(rec.recordings["node1"] ** 2)
        assert e0 > 4.0 * e1

    def test_capture_truncation_ragged(self):
        scene = small_scene()
        short = int(0.3 * FS)
        rec = synthesize_corridor(scene, FS, capture_samples={"node1": short})
        assert rec.recordings["node0"].shape[1] == int(0.4 * FS)
        assert rec.recordings["node1"].shape[1] == short
        assert rec.duration_s("node1") == pytest.approx(0.3)

    def test_vehicle_positions_ground_truth(self):
        scene = small_scene(n_vehicles=2)
        rec = synthesize_corridor(scene, FS)
        t = np.array([0.0, 0.1])
        pos = rec.vehicle_positions(t)
        assert pos.shape == (2, 2, 3)
        assert np.allclose(pos[0, 0], [-15.0, 8.0, 0.8])

    def test_invalid_scene(self):
        nodes = place_corridor_nodes(2, 10.0)
        with pytest.raises(ValueError):
            CorridorScene([], nodes)
        with pytest.raises(ValueError, match="unknown class"):
            Vehicle("ufo", StaticPosition([0, 5, 1]), np.ones(10))

    def test_duplicate_node_ids_rejected(self):
        nodes = place_corridor_nodes(2, 10.0)
        clone = [nodes[0], nodes[0]]
        v = Vehicle("horn", StaticPosition([0, 5, 1]), np.ones(10))
        with pytest.raises(ValueError, match="unique"):
            CorridorScene([v], clone)


class TestFleetScheduler:
    def config(self):
        return PipelineConfig(fs=FS, n_azimuth=24, n_elevation=2)

    def test_round_robin_shards(self):
        nodes = place_corridor_nodes(4, 10.0)
        sched = FleetScheduler(nodes, self.config(), n_shards=2)
        assert sched.shards == [["node0", "node2"], ["node1", "node3"]]

    def test_shared_steering_tensors(self):
        nodes = place_corridor_nodes(3, 10.0)
        sched = FleetScheduler(nodes, self.config())
        assert sched.n_shared_localizers == 2
        locs = {id(p.pipeline.localizer) for p in sched.pipelines.values()}
        assert len(locs) == 1

    def test_run_matches_per_node_batched(self):
        scene = small_scene(n_nodes=3)
        rec = synthesize_corridor(scene, FS)
        cfg = self.config()
        detector = OracleDetector("siren_wail")
        sched = FleetScheduler(scene.nodes, cfg, detector=detector, n_shards=1)
        run = sched.run(rec)
        for node in scene.nodes:
            solo = BlockPipeline(node.relative_positions, cfg, detector=detector)
            expected = solo.process_signal(rec.recordings[node.node_id])
            got = run.node_results[node.node_id]
            assert len(got) == len(expected)
            for r1, r2 in zip(got, expected):
                assert r1.label == r2.label
                assert r1.detected == r2.detected
                assert np.isclose(r1.confidence, r2.confidence)
                for a, b in ((r1.azimuth, r2.azimuth), (r1.elevation, r2.elevation)):
                    assert (np.isnan(a) and np.isnan(b)) or np.isclose(a, b)

    def test_ragged_captures_and_stats(self):
        scene = small_scene(n_nodes=3)
        rec = synthesize_corridor(scene, FS, capture_samples={"node2": int(0.3 * FS)})
        sched = FleetScheduler(scene.nodes, self.config(), detector=OracleDetector(), n_shards=1)
        run = sched.run(rec)
        assert run.node_stats["node2"].n_frames < run.node_stats["node0"].n_frames
        for stats in run.node_stats.values():
            assert stats.n_detections == stats.n_frames  # oracle fires always
            assert stats.latency.deadline_s > 0
        assert run.fleet_latency.deadline_s == pytest.approx(0.4)

    def test_heterogeneous_mic_counts_build_without_sharing(self):
        from repro.acoustics.environment import MicrophoneArray
        from repro.arrays import uniform_circular_array
        from repro.fleet import CorridorNode

        nodes = [
            CorridorNode("quad", MicrophoneArray(uniform_circular_array(4, 0.1) + [0, 0, 0])),
            CorridorNode("hex", MicrophoneArray(uniform_circular_array(6, 0.1) + [20, 0, 0])),
        ]
        sched = FleetScheduler(nodes, self.config())
        assert sched.n_shared_localizers == 0

    def test_mismatched_recording_fs_rejected(self):
        scene = small_scene(n_nodes=2)
        rec = synthesize_corridor(scene, FS)
        sched = FleetScheduler(scene.nodes, PipelineConfig(fs=16000.0, n_azimuth=24, n_elevation=2))
        with pytest.raises(ValueError, match="does not match pipeline fs"):
            sched.run(rec)

    def test_missing_recording_rejected(self):
        scene = small_scene(n_nodes=2)
        rec = synthesize_corridor(scene, FS)
        sched = FleetScheduler(scene.nodes, self.config())
        clips = dict(rec.recordings)
        del clips["node1"]
        with pytest.raises(ValueError, match="missing recordings"):
            sched.run(clips)


class TestEndToEndCorridor:
    """The PR acceptance scenario: 3 nodes, two crossing vehicles."""

    @pytest.fixture(scope="class")
    def corridor_run(self):
        fs = FS
        duration = 3.0
        rng = np.random.default_rng(0)
        vehicles = [
            Vehicle(
                "siren_wail",
                LinearTrajectory([-35.0, 8.0, 0.8], [35.0, 8.0, 0.8], 15.0),
                synthesize_siren("wail", duration, fs, rng=rng),
            ),
            Vehicle(
                "siren_yelp",
                LinearTrajectory([35.0, 14.0, 0.8], [-35.0, 14.0, 0.8], 12.0),
                synthesize_siren("yelp", duration, fs, rng=rng),
            ),
        ]
        nodes = place_corridor_nodes(3, 25.0)
        recording = synthesize_corridor(CorridorScene(vehicles, nodes), fs)
        config = PipelineConfig(fs=fs, n_azimuth=72, n_elevation=2, localizer="srp_fast")
        scheduler = FleetScheduler(nodes, config, detector=OracleDetector("siren_wail"))
        run = scheduler.run(recording)
        tracks = fuse_fleet(run.node_results, nodes, frame_period=config.frame_period_s)
        return recording, nodes, config, run, tracks

    def _truth(self, recording, config, n_frames):
        t = np.arange(n_frames) * config.frame_period_s
        return recording.vehicle_positions(t)[:, :, :2]

    def test_both_vehicles_get_fused_position_tracks(self, corridor_run):
        recording, nodes, config, run, tracks = corridor_run
        confirmed = [t for t in tracks if t.confirmed]
        assert len(confirmed) >= 2
        n_frames = max(len(r) for r in run.node_results.values())
        truth = self._truth(recording, config, n_frames)
        for v in range(2):
            errors = [track_rms_error(t, truth[v]) for t in confirmed]
            best = min(e for e in errors if np.isfinite(e))
            assert best < 10.0  # metres, corridor-level localization
        # The fused tracks are positioned, not bearing-only: they carry
        # cross-node triangulated fixes from multiple nodes.
        positioned = [t for t in confirmed if not t.bearing_only and len(t.nodes) >= 2]
        assert len(positioned) >= 2

    def test_fused_beats_best_single_node_bearing_only(self, corridor_run):
        recording, nodes, config, run, tracks = corridor_run
        confirmed = [t for t in tracks if t.confirmed]
        n_frames = max(len(r) for r in run.node_results.values())
        truth = self._truth(recording, config, n_frames)
        fused_rms = []
        for v in range(2):
            errors = [track_rms_error(t, truth[v]) for t in confirmed]
            fused_rms.append(min(e for e in errors if np.isfinite(e)))
        fused = float(np.sqrt(np.mean(np.square(fused_rms))))
        single = []
        for node in nodes:
            fr, pos = bearing_only_positions(
                run.node_results[node.node_id], node, road_line_y=11.0
            )
            assert len(fr) > 0
            # Generous baseline: every estimate scores against whichever
            # vehicle it happens to be closest to.
            per_frame = np.min(
                [np.sum((pos - truth[v][fr]) ** 2, axis=1) for v in range(2)], axis=0
            )
            single.append(float(np.sqrt(per_frame.mean())))
        assert fused < min(single)

    def test_speed_estimates_from_track_slope(self, corridor_run):
        recording, nodes, config, run, tracks = corridor_run
        report = fleet_report(tracks, run, frame_period=config.frame_period_s)
        entered = [e for e in report.events if e.kind == "vehicle_entered"]
        assert len(entered) >= 2
        # At least one track's slope speed lands near a true vehicle speed.
        speeds = sorted(e.speed_mps for e in entered)
        assert any(8.0 < s < 22.0 for s in speeds)

    def test_report_and_health(self, corridor_run):
        recording, nodes, config, run, tracks = corridor_run
        report = fleet_report(tracks, run, frame_period=config.frame_period_s)
        assert report.n_vehicles >= 2
        assert len(report.node_health) == 3
        for h in report.node_health:
            assert h.n_frames == 92
            assert h.detection_rate == 1.0
            assert h.n_alerts >= 1  # the AlertPolicy hysteresis raised
        text = format_report(report)
        assert "vehicle_entered" in text
        assert "node0" in text
