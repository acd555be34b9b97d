"""Edge cases of the health-rollup layers.

Covers the corners the happy-path suites skip over:

- :func:`repro.fleet.report.fleet_report` fed ``pacer_stats`` that are
  empty (a session that never advanced a hop), missing for some nodes, or
  all-overrun;
- :meth:`repro.core.alerts.OverrunPolicy.process` on empty, ragged and
  alternating sample streams, and the overrun/recovered *ordering* that
  downstream rollup counters depend on;
- the city rollup's step-wise worst-of merge and how recovered alerts ride
  along in :class:`repro.city.report.CorridorHealth` without inflating the
  ``n_overrun_alerts`` counters.
"""

import pytest

from repro.city import CitySupervisor, default_scenario
from repro.city.report import _stepwise_worst
from repro.core import OverrunPolicy, PipelineConfig
from repro.fleet import (
    CorridorStream,
    FleetScheduler,
    OracleDetector,
    fleet_report,
)
from repro.stream import PacerStats, ParallelFleetStream


def empty_stats():
    return PacerStats(
        n_steps=0, n_overruns=0, n_widenings=0, n_shrinks=0,
        min_batch_used=8, max_batch_used=0, records=(),
    )


def stats_from_records(records):
    n_over = sum(1 for w, b, _ in records if w > b)
    return PacerStats(
        n_steps=len(records),
        n_overruns=n_over,
        n_widenings=0,
        n_shrinks=0,
        min_batch_used=min((r[2] for r in records), default=0),
        max_batch_used=max((r[2] for r in records), default=0),
        records=tuple(records),
    )


@pytest.fixture(scope="module")
def small_run():
    """One tiny paced fleet session whose run result the rollup tests
    re-report under fabricated pacer stats."""
    from repro.city import corridor_rngs, render_corridor

    scn = default_scenario(1, duration_s=0.4, n_nodes=2, seed=3)
    spec = scn.corridors[0]
    rng = corridor_rngs(scn)[spec.corridor_id]
    recording = render_corridor(spec, scn, rng)
    config = PipelineConfig(fs=scn.fs, localizer=scn.localizer,
                            n_azimuth=scn.n_azimuth, n_elevation=scn.n_elevation)
    sched = FleetScheduler(
        recording.scene.nodes, config, detector=OracleDetector("siren_wail")
    )
    feed = CorridorStream(recording, chunk_samples=config.hop_length, rng=rng)
    with ParallelFleetStream(sched, feed.sources(), hop_batch=8, workers=0) as s:
        result = s.run()
    return config, result


class TestFleetReportPacerStats:
    def test_empty_stats_roll_up_to_zeros(self, small_run):
        """A session that never advanced a hop must not crash the report
        (OverrunPolicy would reject budget<=0 samples — there are none)."""
        config, result = small_run
        node_ids = sorted(result.node_results)
        report = fleet_report(
            result.tracks,
            result.as_run_result(),
            frame_period=config.frame_period_s,
            pacer_stats={nid: empty_stats() for nid in node_ids},
        )
        for h in report.node_health:
            assert h.n_overruns == 0
            assert h.n_overrun_alerts == 0
            assert h.peak_hop_batch == 0

    def test_nodes_without_stats_stay_zero(self, small_run):
        """pacer_stats may cover a subset of nodes; the rest default."""
        config, result = small_run
        node_ids = sorted(result.node_results)
        covered = node_ids[0]
        stats = stats_from_records([(1.0, 0.1, 8)] * 4)  # all overrun
        report = fleet_report(
            result.tracks,
            result.as_run_result(),
            frame_period=config.frame_period_s,
            pacer_stats={covered: stats},
        )
        by_id = {h.node_id: h for h in report.node_health}
        assert by_id[covered].n_overruns == 4
        assert by_id[covered].n_overrun_alerts == 1  # debounced: one alert
        assert by_id[covered].peak_hop_batch == 8
        for nid in node_ids[1:]:
            assert by_id[nid].n_overruns == 0
            assert by_id[nid].n_overrun_alerts == 0

    def test_all_overrun_stream_alerts_once_per_episode(self, small_run):
        """Sustained overrun = ONE debounced alert, however long it lasts;
        a recovery and relapse opens a second episode."""
        config, result = small_run
        records = (
            [(1.0, 0.1, 8)] * 10          # episode 1: sustained overrun
            + [(0.01, 0.1, 8)] * 6        # recovery (>= off_steps inside)
            + [(1.0, 0.1, 8)] * 4         # episode 2
        )
        stats = stats_from_records(records)
        report = fleet_report(
            result.tracks,
            result.as_run_result(),
            frame_period=config.frame_period_s,
            pacer_stats={nid: stats for nid in result.node_results},
        )
        for h in report.node_health:
            assert h.n_overruns == 14  # raw count keeps every miss
            assert h.n_overrun_alerts == 2  # debounced: one per episode


class TestOverrunPolicyProcess:
    def test_empty_and_extra_fields(self):
        policy = OverrunPolicy()
        assert policy.process([]) == []
        # PacerStats records carry (wall, budget, batch): the batch column
        # must be ignored, not parsed as part of the judgement.
        alerts = OverrunPolicy(on_steps=1, off_steps=1).process(
            [(1.0, 0.5, 999), (0.1, 0.5, 999)]
        )
        assert [a.kind for a in alerts] == ["overrun", "recovered"]

    def test_alternating_never_alerts(self):
        policy = OverrunPolicy(on_steps=2, off_steps=2)
        samples = [(1.0, 0.5), (0.1, 0.5)] * 10
        assert policy.process(samples) == []

    def test_transitions_strictly_alternate_and_order(self):
        """Counters downstream assume overrun/recovered strictly alternate
        starting with an overrun, in step order."""
        policy = OverrunPolicy(on_steps=2, off_steps=2)
        samples = (
            [(1.0, 0.5)] * 3 + [(0.1, 0.5)] * 3
            + [(1.0, 0.5)] * 2 + [(0.1, 0.5)] * 2
        )
        alerts = policy.process(samples)
        kinds = [a.kind for a in alerts]
        assert kinds == ["overrun", "recovered", "overrun", "recovered"]
        steps = [a.step_index for a in alerts]
        assert steps == sorted(steps)
        assert all(a.budget_s > 0 for a in alerts)

    def test_invalid_sample_raises(self):
        with pytest.raises(ValueError):
            OverrunPolicy().process([(1.0, 0.0)])
        with pytest.raises(ValueError):
            OverrunPolicy().process([(-1.0, 0.5)])


class TestStepwiseWorst:
    def test_max_duration_min_budget_per_step(self):
        a = [(1.0, 0.5), (0.2, 0.5)]
        b = [(0.3, 0.4), (0.9, 0.6)]
        merged = _stepwise_worst([a, b])
        assert merged == [(1.0, 0.4), (0.9, 0.5)]

    def test_ragged_streams_contribute_while_they_ran(self):
        a = [(1.0, 0.5)]
        b = [(0.3, 0.4), (0.9, 0.6), (0.1, 0.2)]
        merged = _stepwise_worst([a, b])
        assert merged == [(1.0, 0.4), (0.9, 0.6), (0.1, 0.2)]

    def test_empty(self):
        assert _stepwise_worst([]) == []
        assert _stepwise_worst([[], []]) == []


class TestRecoveredAlertsInCityRollup:
    def test_recovered_alerts_ride_along_without_inflating_counters(self):
        """CorridorHealth.alerts keeps the full transition feed (overrun
        AND recovered, in order); the n_overrun_alerts counters — corridor
        and city level — count only the overrun transitions."""
        scn = default_scenario(2, duration_s=0.4, n_nodes=2, seed=11)
        with CitySupervisor(scn, workers=0) as sup:
            sup.run()
            # Re-roll the report with a policy that alerts instantly and
            # recovers instantly, so both transition kinds appear.
            from repro.city.report import city_report

            twitchy = lambda: OverrunPolicy(on_steps=1, off_steps=1)
            report = city_report(
                sup.manager.sessions.values(),
                pool_workers=0,
                overrun_policy_factory=twitchy,
            )
        for row in report.corridors:
            kinds = [a.kind for a in row.alerts]
            assert row.n_overrun_alerts == kinds.count("overrun")
            # Strict alternation: a recovered alert only ever follows an
            # overrun, so counting "overrun" counts episodes.
            for prev, cur in zip(kinds, kinds[1:]):
                assert prev != cur
        city_kinds = [a.kind for a in report.city_alerts]
        assert report.n_city_overrun_alerts == city_kinds.count("overrun")
        for prev, cur in zip(city_kinds, city_kinds[1:]):
            assert prev != cur
