"""Fusion edge cases: collinear node geometry, single-node bearing-only
survival, detection gaps (coast + re-association), per-class fusion
thresholds, the wide-baseline multilateration upgrade, and the float
arithmetic of the road filter and triangulation against their matrix
formulations."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.acoustics.environment import MicrophoneArray
from repro.acoustics.trajectory import StaticPosition
from repro.core import PipelineConfig
from repro.core.pipeline import FrameResult
from repro.fleet import (
    CorridorNode,
    CorridorScene,
    FleetScheduler,
    FusionConfig,
    OracleDetector,
    Vehicle,
    collect_detections,
    fuse_fleet,
    place_corridor_nodes,
    synthesize_corridor,
    triangulate_bearings,
)
from repro.fleet.fusion import _RoadKalman
from repro.signals import synthesize_siren

FRAME_PERIOD = 0.032


def make_node(node_id, x, y):
    layout = np.array(
        [[0.1, 0.1, 1.0], [0.1, -0.1, 1.0], [-0.1, -0.1, 1.0], [-0.1, 0.1, 1.0]]
    )
    return CorridorNode(node_id, MicrophoneArray(layout + np.array([x, y, 0.0])))


def results_from_bearings(bearings, *, label="siren_wail", confidence=0.9):
    """Per-node FrameResult stream from a frame -> azimuth map (nan = miss)."""
    out = []
    for frame, az in enumerate(bearings):
        detected = np.isfinite(az)
        out.append(
            FrameResult(
                frame,
                label if detected else "background",
                confidence if detected else 0.9,
                bool(detected),
                float(az) if detected else float("nan"),
                0.0,
            )
        )
    return out


def bearings_to_target(node, path_xy):
    """Exact bearings from a node to a per-frame target path ``(n, 2)``."""
    o = node.position[:2]
    return [float(np.arctan2(p[1] - o[1], p[0] - o[0])) for p in path_xy]


class TestTriangulateBearings:
    def test_exact_intersection(self):
        origins = np.array([[0.0, 0.0], [20.0, 0.0]])
        target = np.array([8.0, 12.0])
        bearings = np.arctan2(target[1] - origins[:, 1], target[0] - origins[:, 0])
        xy = triangulate_bearings(origins, bearings)
        assert np.allclose(xy, target, atol=1e-9)

    def test_parallel_rays_rejected(self):
        origins = np.array([[0.0, 0.0], [20.0, 0.0]])
        assert triangulate_bearings(origins, np.array([0.0, 0.0])) is None

    def test_behind_ray_rejected(self):
        origins = np.array([[0.0, 0.0], [20.0, 0.0]])
        # Rays pointing away from each other never intersect ahead.
        assert triangulate_bearings(origins, np.array([np.pi, 0.0])) is None


class TestCollinearGeometry:
    def test_target_on_node_axis_degrades_to_bearing_only(self):
        # Three collinear nodes staring down their own baseline: every
        # bearing is (near) 0 or pi, triangulation is singular, and fusion
        # must fall back to a surviving bearing-only track — not crash or
        # emit a garbage position.
        nodes = [make_node("a", -20.0, 0.0), make_node("b", 0.0, 0.0), make_node("c", 20.0, 0.0)]
        n_frames = 20
        node_results = {
            n.node_id: results_from_bearings([0.0] * n_frames) for n in nodes
        }
        tracks = fuse_fleet(node_results, nodes, frame_period=FRAME_PERIOD)
        confirmed = [t for t in tracks if t.confirmed]
        assert confirmed, "bearing-only track must survive collinear geometry"
        for t in confirmed:
            assert t.n_triangulated == 0 and t.n_multilaterated == 0
            assert t.bearing_only
            pos = t.positions()
            assert np.all(np.isfinite(pos))
            # The track stays on the shared +x ray (small |y|).
            assert np.all(np.abs(pos[:, 1]) < 5.0)


class TestSingleNodeCoverage:
    def test_vehicle_seen_by_one_node_survives(self):
        nodes = [make_node("near", 0.0, 0.0), make_node("far", 500.0, 0.0)]
        # Target drives by the near node only; the far node never detects.
        path = np.stack([np.linspace(-20, 20, 40), np.full(40, 10.0)], axis=1)
        node_results = {
            "near": results_from_bearings(bearings_to_target(nodes[0], path)),
            "far": results_from_bearings([float("nan")] * 40),
        }
        tracks = fuse_fleet(node_results, nodes, frame_period=FRAME_PERIOD)
        confirmed = [t for t in tracks if t.confirmed]
        assert len(confirmed) == 1
        track = confirmed[0]
        assert track.bearing_only
        assert track.nodes == {"near"}
        assert track.hits >= 35
        # Bearing-only EKF keeps the azimuth right even though range is
        # unobservable: check the tracked bearing matches the truth.
        frames = track.frames()
        pos = track.positions()
        truth_bearing = np.arctan2(path[frames, 1], path[frames, 0])
        est_bearing = np.arctan2(pos[:, 1], pos[:, 0])
        err = np.degrees(np.abs(np.angle(np.exp(1j * (est_bearing - truth_bearing)))))
        assert np.median(err) < 10.0


class TestDetectionGaps:
    def test_coast_and_reassociation_keeps_one_track(self):
        nodes = [make_node("a", -15.0, 0.0), make_node("b", 15.0, 0.0)]
        n_frames = 60
        path = np.stack(
            [np.linspace(-25, 25, n_frames), np.full(n_frames, 12.0)], axis=1
        )
        gap = range(25, 33)  # both nodes drop out mid-track
        streams = {}
        for node in nodes:
            bearings = bearings_to_target(node, path)
            for g in gap:
                bearings[g] = float("nan")
            streams[node.node_id] = results_from_bearings(bearings)
        config = FusionConfig(coast_frames=12)
        tracks = fuse_fleet(streams, nodes, frame_period=FRAME_PERIOD, config=config)
        confirmed = [t for t in tracks if t.confirmed]
        assert len(confirmed) == 1, "gap must re-associate, not fork a second track"
        track = confirmed[0]
        frames = track.frames()
        assert frames[0] <= 5 and frames[-1] >= n_frames - 2
        # The coasted gap frames are covered by predictions.
        assert set(gap).issubset(set(frames.tolist()))
        err = np.linalg.norm(track.positions() - path[frames], axis=1)
        assert np.median(err) < 4.0

    def test_gap_longer_than_coast_forks_a_new_track(self):
        nodes = [make_node("a", -15.0, 0.0), make_node("b", 15.0, 0.0)]
        n_frames = 70
        path = np.stack(
            [np.linspace(-25, 25, n_frames), np.full(n_frames, 12.0)], axis=1
        )
        gap = range(25, 50)  # far beyond the coast budget
        streams = {}
        for node in nodes:
            bearings = bearings_to_target(node, path)
            for g in gap:
                bearings[g] = float("nan")
            streams[node.node_id] = results_from_bearings(bearings)
        config = FusionConfig(coast_frames=5)
        tracks = fuse_fleet(streams, nodes, frame_period=FRAME_PERIOD, config=config)
        confirmed = [t for t in tracks if t.confirmed]
        assert len(confirmed) == 2


class TestTrackLifecycle:
    def test_newborn_track_keeps_full_miss_budget(self):
        # A track spawned on its birth frame must not be charged a miss for
        # that same frame: with tentative_coast_frames=1 it survives exactly
        # one genuinely missed frame, then dies on the second.
        nodes = [make_node("a", 0.0, 0.0)]
        streams = {"a": results_from_bearings([0.5, float("nan"), 0.5, float("nan"), float("nan"), float("nan")])}
        config = FusionConfig(min_hits=2, tentative_coast_frames=1)
        tracks = fuse_fleet(streams, nodes, frame_period=FRAME_PERIOD, config=config)
        assert len(tracks) == 1  # frame 2 re-associates to the survivor
        assert tracks[0].hits == 2

    def test_min_hits_one_has_no_duplicate_history(self):
        nodes = [make_node("a", 0.0, 0.0)]
        streams = {"a": results_from_bearings([0.5, 0.5, 0.5])}
        config = FusionConfig(min_hits=1)
        tracks = fuse_fleet(streams, nodes, frame_period=FRAME_PERIOD, config=config)
        assert len(tracks) == 1
        frames = tracks[0].frames()
        assert len(frames) == len(set(frames.tolist()))


class TestPerClassThresholds:
    def test_horn_needs_higher_confidence_than_siren(self):
        nodes = [make_node("a", 0.0, 0.0)]
        frames = {
            "a": [
                FrameResult(0, "horn", 0.60, True, 0.3, 0.0),
                FrameResult(1, "siren_wail", 0.60, True, 0.3, 0.0),
                FrameResult(2, "horn", 0.80, True, 0.3, 0.0),
                FrameResult(3, "background", 0.99, False, float("nan"), 0.0),
            ]
        }
        dets = collect_detections(frames, nodes)
        flat = [d for group in dets.values() for d in group]
        labels = sorted((d.frame_index, d.label) for d in flat)
        # horn@0.60 is below its 0.65 floor; siren_wail@0.60 clears 0.50;
        # horn@0.80 clears; background never fuses.
        assert labels == [(1, "siren_wail"), (2, "horn")]

    def test_override_thresholds(self):
        nodes = [make_node("a", 0.0, 0.0)]
        frames = {"a": [FrameResult(0, "horn", 0.60, True, 0.3, 0.0)]}
        config = FusionConfig(class_thresholds={"horn": 0.5})
        dets = collect_detections(frames, nodes, config=config)
        assert len(dets[0]) == 1


class TestMultilaterationUpgrade:
    def test_static_source_gets_tdoa_position_fixes(self):
        fs = 8000.0
        nodes = place_corridor_nodes(2, 25.0)
        rng = np.random.default_rng(1)
        scene = CorridorScene(
            [
                Vehicle(
                    "siren_wail",
                    StaticPosition([4.0, 10.0, 0.8]),
                    synthesize_siren("wail", 1.0, fs, rng=rng),
                )
            ],
            nodes,
        )
        rec = synthesize_corridor(scene, fs)
        config = PipelineConfig(fs=fs, n_azimuth=72, n_elevation=2)
        run = FleetScheduler(nodes, config, detector=OracleDetector("siren_wail")).run(rec)
        tracks = fuse_fleet(
            run.node_results,
            nodes,
            frame_period=config.frame_period_s,
            recordings=rec.recordings,
            fs=fs,
            hop_length=config.hop_length,
        )
        confirmed = [t for t in tracks if t.confirmed]
        assert len(confirmed) == 1
        track = confirmed[0]
        assert track.n_multilaterated > 0, "wide-baseline TDOA upgrade never fired"
        assert not track.bearing_only
        mean = track.positions().mean(axis=0)
        assert np.hypot(mean[0] - 4.0, mean[1] - 10.0) < 3.0

    def test_requires_fs_with_recordings(self):
        nodes = [make_node("a", 0.0, 0.0)]
        with pytest.raises(ValueError, match="fs is required"):
            fuse_fleet({"a": []}, nodes, frame_period=0.032, recordings={"a": np.zeros((4, 10))})


# ------------------------------------------------- float vs matrix arithmetic


def wrap(angle):
    return (angle + np.pi) % (2 * np.pi) - np.pi


class MatrixRoadKalman:
    """The road filter as 4x4 matrix algebra: the oracle for the scalar
    closed forms of :class:`repro.fleet.fusion._RoadKalman`."""

    def __init__(self, x0, p0, *, q, dt):
        self.x = np.array(x0, dtype=np.float64)
        self.p = np.array(p0, dtype=np.float64)
        self.f = np.eye(4)
        self.f[0, 2] = self.f[1, 3] = dt
        blk = np.array([[dt**4 / 4, dt**3 / 2], [dt**3 / 2, dt**2]]) * q**2
        self.q = np.zeros((4, 4))
        self.q[np.ix_([0, 2], [0, 2])] = blk
        self.q[np.ix_([1, 3], [1, 3])] = blk

    def predict(self):
        self.x = self.f @ self.x
        self.p = self.f @ self.p @ self.f.T + self.q

    def update_xy(self, z, sigma_m):
        innovation = np.asarray(z, dtype=np.float64) - self.x[:2]
        s = self.p[:2, :2] + np.eye(2) * sigma_m**2
        k = self.p[:, :2] @ np.linalg.inv(s)
        self.x = self.x + k @ innovation
        i_kh = np.eye(4)
        i_kh[:, :2] -= k
        self.p = i_kh @ self.p

    def bearing_geometry(self, origin):
        dx, dy = self.x[0] - origin[0], self.x[1] - origin[1]
        return dx * dx + dy * dy, np.arctan2(dy, dx)

    def update_bearing(self, origin, bearing, sigma_rad):
        r2, predicted = self.bearing_geometry(origin)
        if r2 < 1e-6:
            return
        dx, dy = self.x[0] - origin[0], self.x[1] - origin[1]
        h = np.array([-dy / r2, dx / r2, 0.0, 0.0])
        innovation = wrap(bearing - predicted)
        s = float(h @ self.p @ h) + sigma_rad**2
        k = (self.p @ h) / s
        self.x = self.x + k * innovation
        self.p = (np.eye(4) - np.outer(k, h)) @ self.p


def covariance(kf):
    """A ``_RoadKalman``'s packed upper triangle as the full 4x4 matrix."""
    full = np.zeros((4, 4))
    upper = np.triu_indices(4)
    full[upper] = kf.p
    full.T[upper] = kf.p
    return full


def assert_close(got, want):
    """Within 1e-9 of the oracle, relative to its largest entry."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, float(np.max(np.abs(want))))


coord = st.floats(-200.0, 200.0)
filter_ops = st.lists(
    st.one_of(
        st.tuples(st.just("predict")),
        st.tuples(st.just("xy"), coord, coord, st.floats(0.1, 10.0)),
        st.tuples(
            st.just("bearing"), coord, coord, st.floats(-math.pi, math.pi), st.floats(0.01, 0.5)
        ),
    ),
    min_size=1,
    max_size=10,
)


class TestRoadKalmanMatchesMatrixForm:
    @settings(max_examples=200, deadline=None)
    @given(
        x0=st.tuples(coord, coord, st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
        a=st.lists(st.floats(-10.0, 10.0), min_size=16, max_size=16),
        diag=st.lists(st.floats(1e-3, 100.0), min_size=4, max_size=4),
        q=st.floats(0.1, 10.0),
        dt=st.floats(1e-3, 0.5),
        ops=filter_ops,
    )
    def test_scalar_filter_equals_matrix_formulas(self, x0, a, diag, q, dt, ops):
        root = np.array(a).reshape(4, 4)
        p0 = root @ root.T + np.diag(diag)
        scalar = _RoadKalman(x0, p0[np.triu_indices(4)], q=q, dt=dt)
        matrix = MatrixRoadKalman(x0, p0, q=q, dt=dt)
        for op in ops:
            if op[0] == "predict":
                scalar.predict()
                matrix.predict()
            elif op[0] == "xy":
                scalar.update_xy(op[1:3], op[3])
                matrix.update_xy(op[1:3], op[3])
            else:
                _, ox, oy, bearing, sigma = op
                r2, predicted = matrix.bearing_geometry((ox, oy))
                # Decisions on a rounding edge (the r2 gate, the wrap at
                # +-pi) are not what this property is about.
                assume(abs(r2 - 1e-6) > 1e-9)
                assume(abs(abs(wrap(bearing - predicted)) - np.pi) > 1e-6)
                scalar.update_bearing(ox, oy, bearing, sigma)
                matrix.update_bearing((ox, oy), bearing, sigma)
            assert_close(scalar.x, matrix.x)
            assert_close(covariance(scalar), matrix.p)


def lstsq_triangulate(origins, bearings, min_angle_deg):
    """Least-squares ray intersection as 2x2 matrix algebra (the oracle)."""
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 2)
    bearings = np.asarray(bearings, dtype=np.float64)
    u = np.stack([np.cos(bearings), np.sin(bearings)], axis=1)
    spread = np.abs(np.sin(bearings[:, None] - bearings[None, :]))
    if spread.max() < np.sin(np.radians(min_angle_deg)):
        return None
    a = np.eye(2)[None] - u[:, :, None] * u[:, None, :]
    try:
        x = np.linalg.solve(a.sum(axis=0), np.einsum("nij,nj->i", a, origins))
    except np.linalg.LinAlgError:
        return None
    if np.any(np.einsum("nj,nj->n", x[None, :] - origins, u) <= 0):
        return None
    return x


@st.composite
def ray_sets(draw):
    """2-7 random rays; optionally ray 1 aims exactly through ray 0's
    origin, and optionally along the corridor axis at +-pi (the corridor's
    degenerate fix: the solution sits on a node, at range ~0)."""
    n = draw(st.integers(2, 7))
    origins = [[draw(coord), draw(coord)] for _ in range(n)]
    bearings = [draw(st.floats(-math.pi, math.pi, exclude_max=True)) for _ in range(n)]
    aim = draw(st.sampled_from(["none", "through", "axis"]))
    if aim == "through":
        (x0, y0), (x1, y1) = origins[0], origins[1]
        bearings[1] = math.atan2(y0 - y1, x0 - x1)
    elif aim == "axis":
        origins[0][1] = origins[1][1] = 0.0
        origins[1][0] = origins[0][0] + draw(st.floats(1.0, 60.0))
        bearings[1] = draw(st.sampled_from([math.pi, -math.pi]))
    return np.array(origins), np.array(bearings)


class TestTriangulationMatchesLeastSquares:
    @settings(max_examples=300, deadline=None)
    @given(rays=ray_sets(), min_angle_deg=st.sampled_from([1.0, 8.0, 20.0]))
    def test_same_decision_and_position(self, rays, min_angle_deg):
        origins, bearings = rays
        got = triangulate_bearings(origins, bearings, min_angle_deg=min_angle_deg)
        want = lstsq_triangulate(origins, bearings, min_angle_deg)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.max(np.abs(got - want)) <= 1e-9

    def test_fix_on_a_node_is_decided_like_the_matrix_code(self):
        """A ray aimed through another ray's origin at -pi: the fix lands
        on node 0 and its range there is a rounding residue."""
        origins = np.array([[-87.5, 0.0], [-62.5, 0.0]])
        bearings = np.array([np.radians(140.0), -np.pi])
        got = triangulate_bearings(origins, bearings, min_angle_deg=8.0)
        want = lstsq_triangulate(origins, bearings, 8.0)
        assert want is not None and np.allclose(want, [-87.5, 0.0], atol=1e-9)
        assert np.array_equal(got, want)
