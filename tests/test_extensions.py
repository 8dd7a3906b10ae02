"""Tests for the extension modules: BBA, PID, Markov predictor, lookup
tables, tuning, timelines, and scenario traces."""

import numpy as np
import pytest

from repro.abr import BbaController, PidController
from repro.core import DecisionTable, SodaConfig, SodaController, tune_soda
from repro.prediction import MarkovPredictor, ThroughputSample
from repro.sim import (
    EventKind,
    PlayerConfig,
    TimelineRecorder,
)
from repro.sim.network import ThroughputTrace
from repro.sim.profiles import EvaluationProfile
from repro.sim.session import run_session
from repro.traces import (
    all_scenarios,
    oscillation,
    outage,
    ramp,
    sawtooth,
    spike,
    step_down,
    step_up,
)


def sample(throughput, start=0.0, duration=1.0):
    return ThroughputSample(start, duration, throughput * duration, throughput)


# ----------------------------------------------------------------------
class TestBba:
    def test_rate_map_endpoints(self, ladder):
        bba = BbaController(reservoir=4.0, cushion=10.0)
        assert bba.rate_map(2.0, ladder, 20.0) == ladder.min_bitrate
        assert bba.rate_map(15.0, ladder, 20.0) == ladder.max_bitrate
        mid = bba.rate_map(9.0, ladder, 20.0)
        assert ladder.min_bitrate < mid < ladder.max_bitrate

    def test_validation(self):
        with pytest.raises(ValueError):
            BbaController(reservoir=0.0)
        with pytest.raises(ValueError):
            BbaController(cushion=-1.0)

    def test_hysteresis_holds_rung(self, ladder):
        from repro.abr.base import PlayerObservation

        bba = BbaController(reservoir=4.0, cushion=10.0)
        obs = PlayerObservation(
            wall_time=10.0, segment_index=3, buffer_level=9.0,
            max_buffer=20.0, previous_quality=1, ladder=ladder, history=(),
        )
        # The map at 9 s sits between rung 1 and rung 2: hold rung 1.
        assert bba.select_quality(obs) == 1

    def test_full_session(self, ladder, step_trace, short_config):
        result = run_session(BbaController(), step_trace, ladder, short_config)
        assert result.num_segments == 30

    def test_low_buffer_low_rung(self, ladder, slow_trace, short_config):
        result = run_session(BbaController(), slow_trace, ladder, short_config)
        assert max(result.qualities) == 0


class TestPid:
    def test_validation(self):
        with pytest.raises(ValueError):
            PidController(setpoint_fraction=0.0)
        with pytest.raises(ValueError):
            PidController(response=0.0)

    def test_regulates_buffer(self, ladder, steady_trace):
        cfg = PlayerConfig(max_buffer=20.0, num_segments=60)
        result = run_session(PidController(), steady_trace, ladder, cfg)
        # Late-session buffer hovers near the 60% setpoint.
        late = result.buffer_levels[-15:]
        assert 6.0 < sum(late) / len(late) < 19.0

    def test_reset_clears_state(self):
        pid = PidController()
        pid._integral = 5.0
        pid._last_error = 1.0
        pid.reset()
        assert pid._integral == 0.0
        assert pid._last_error is None

    def test_full_session(self, ladder, step_trace, short_config):
        result = run_session(PidController(), step_trace, ladder, short_config)
        assert result.num_segments == 30


# ----------------------------------------------------------------------
class TestMarkovPredictor:
    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovPredictor(states=1)
        with pytest.raises(ValueError):
            MarkovPredictor(low=5.0, high=1.0)
        with pytest.raises(ValueError):
            MarkovPredictor(smoothing=0.0)

    def test_cold_start(self):
        p = MarkovPredictor()
        assert p.predict_scalar(0.0) == 0.0
        assert np.all(p.predict(0.0, 3, 1.0) == 0.0)

    def test_learns_constant_throughput(self):
        p = MarkovPredictor(states=8, low=0.5, high=50.0)
        for i in range(40):
            p.update(sample(10.0, start=float(i)))
        assert p.predict_scalar(40.0) == pytest.approx(10.0, rel=0.35)

    def test_learns_alternation(self):
        """After observing strict alternation the forecast alternates too."""
        p = MarkovPredictor(states=10, low=0.5, high=50.0)
        values = [2.0, 20.0] * 40
        for i, v in enumerate(values):
            p.update(sample(v, start=float(i)))
        forecast = p.predict(80.0, 2, 1.0)
        # Last observed was 20 -> next should be low, then high again.
        assert forecast[0] < forecast[1]

    def test_transition_matrix_rows_normalised(self):
        p = MarkovPredictor(states=5)
        for i, v in enumerate((1.0, 5.0, 2.0, 8.0)):
            p.update(sample(v, start=float(i)))
        rows = p.transition_matrix.sum(axis=1)
        assert np.allclose(rows, 1.0)

    def test_quantise_clips(self):
        p = MarkovPredictor(states=4, low=1.0, high=16.0)
        assert p._quantise(0.01) == 0
        assert p._quantise(1e9) == 3


# ----------------------------------------------------------------------
class TestDecisionTable:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.sim.video import BitrateLadder

        ladder = BitrateLadder([1.0, 3.0, 6.0], segment_duration=2.0)
        return DecisionTable(
            ladder, max_buffer=20.0, throughput_points=12, buffer_points=12
        )

    def test_build_stats(self, table):
        assert table.stats.cells == 12 * 12 * 4
        assert table.stats.build_seconds > 0
        assert table.stats.memory_bytes == table.stats.cells

    def test_lookup_matches_solver_on_grid(self):
        """Every cell, at every previous rung (none included), equals a
        plan-cache-off online decision at the cell's grid point, for the
        fast, reference and brute-force solvers."""
        from repro.sim.video import BitrateLadder

        ladder = BitrateLadder([0.5, 1.2, 3.0, 6.0], segment_duration=2.0)
        configs = {
            "fast": SodaConfig(solver_backend="fast"),
            "reference": SodaConfig(solver_backend="reference"),
            "brute-force": SodaConfig(
                solver_backend="fast", use_brute_force=True, horizon=3
            ),
        }
        for name, config in configs.items():
            table = DecisionTable(
                ladder, 20.0, config=config,
                throughput_points=7, buffer_points=7,
            )
            controller = SodaController(config=config.with_(plan_cache=False))
            for tput in table.tput_grid:
                for buf in table.buffer_grid:
                    for prev in [None] + list(range(ladder.levels)):
                        expect = controller.decide(
                            float(tput), float(buf), prev, ladder, 20.0
                        )
                        got = table.lookup(float(tput), float(buf), prev)
                        assert got == expect, (name, tput, buf, prev)

    def test_lookup_handles_edges(self, table):
        assert table.lookup(0.0, 0.0, None) is not None or True
        table.lookup(1e9, 25.0, 2)  # clamps, must not raise

    def test_agreement_reasonable(self, table):
        # Reads 0.92; over seeds 0-4 at 2,000 samples this table agrees
        # 0.889-0.900 of the time (DESIGN §9), so 0.85 leaves a margin of
        # about 0.04 below the lowest measured seed.
        agreement = table.agreement_with_solver(samples=300, seed=1)
        assert agreement > 0.85

    def test_validation(self, ladder):
        with pytest.raises(ValueError):
            DecisionTable(ladder, 20.0, throughput_points=1)
        with pytest.raises(ValueError):
            DecisionTable(ladder, 0.0)
        with pytest.raises(ValueError):
            DecisionTable(ladder, 20.0, throughput_range=(5.0, 1.0))


# ----------------------------------------------------------------------
class TestTuning:
    def test_grid_search_ranks(self, ladder):
        profile = EvaluationProfile(
            name="t", ladder=ladder,
            player=PlayerConfig(max_buffer=20.0, num_segments=20),
        )
        traces = [ThroughputTrace.constant(5.0, 120.0)]
        result = tune_soda(
            traces, profile,
            grid={"beta": [0.05, 0.2], "gamma": [50.0, 150.0]},
        )
        assert len(result.candidates) == 4
        scores = [c.score for c in result.candidates]
        assert scores == sorted(scores, reverse=True)
        assert result.best.score == scores[0]
        assert "rank" in result.render()

    def test_validation(self, ladder):
        profile = EvaluationProfile(
            name="t", ladder=ladder,
            player=PlayerConfig(max_buffer=20.0, num_segments=10),
        )
        with pytest.raises(ValueError):
            tune_soda([], profile)
        with pytest.raises(ValueError):
            tune_soda(
                [ThroughputTrace.constant(5.0, 60.0)], profile,
                grid={"beta": list(np.linspace(0.01, 1.0, 300))},
            )

    def test_custom_scorer(self, ladder):
        profile = EvaluationProfile(
            name="t", ladder=ladder,
            player=PlayerConfig(max_buffer=20.0, num_segments=15),
        )
        traces = [ThroughputTrace.constant(5.0, 120.0)]
        result = tune_soda(
            traces, profile, grid={"gamma": [10.0, 300.0]},
            scorer=lambda s: -s.switching_rate.mean,
        )
        assert result.best.summary.switching_rate.mean <= (
            result.candidates[-1].summary.switching_rate.mean
        )


# ----------------------------------------------------------------------
class TestTimeline:
    def test_records_session(self, ladder, step_trace, short_config):
        recorder = TimelineRecorder(SodaController())
        result = run_session(recorder, step_trace, ladder, short_config)
        timeline = recorder.timeline(result)
        assert len(timeline) > 0
        downloads = timeline.of_kind(EventKind.DOWNLOAD)
        assert len(downloads) == result.num_segments
        switches = timeline.of_kind(EventKind.SWITCH)
        assert len(switches) == result.switch_count

    def test_transparent_wrapper(self, ladder, step_trace, short_config):
        plain = run_session(SodaController(), step_trace, ladder, short_config)
        recorder = TimelineRecorder(SodaController())
        wrapped = run_session(recorder, step_trace, ladder, short_config)
        assert plain.qualities == wrapped.qualities

    def test_render_and_queries(self, ladder, step_trace, short_config):
        recorder = TimelineRecorder(SodaController())
        result = run_session(recorder, step_trace, ladder, short_config)
        timeline = recorder.timeline(result)
        text = timeline.render(limit=5)
        assert "seg=" in text
        early = timeline.between(0.0, 10.0)
        assert all(0.0 <= e.time < 10.0 for e in early.events)
        assert timeline.stall_seconds >= 0.0

    def test_predictor_forwarded(self):
        from repro.prediction import OraclePredictor

        inner = SodaController(predictor=OraclePredictor())
        recorder = TimelineRecorder(inner)
        assert recorder.predictor is inner.predictor


# ----------------------------------------------------------------------
class TestScenarios:
    def test_all_scenarios_valid(self):
        for trace in all_scenarios():
            assert trace.duration > 0
            assert trace.name

    def test_step_down_shape(self):
        trace = step_down(high=10.0, low=2.0, at=100.0, duration=200.0)
        assert trace.bandwidth_at(50.0) == 10.0
        assert trace.bandwidth_at(150.0) == 2.0

    def test_step_up_shape(self):
        trace = step_up(low=2.0, high=10.0, at=100.0, duration=200.0)
        assert trace.bandwidth_at(50.0) == 2.0
        assert trace.bandwidth_at(150.0) == 10.0

    def test_spike_and_outage_bounds(self):
        s = spike(base=5.0, peak=50.0, at=60.0, width=5.0, duration=120.0)
        assert s.bandwidth_at(62.0) == 50.0
        o = outage(base=5.0, floor=0.1, at=60.0, width=5.0, duration=120.0)
        assert o.bandwidth_at(62.0) == 0.1

    def test_ramp_monotone(self):
        trace = ramp(start=1.0, end=9.0, duration=100.0, steps=10)
        bws = list(trace.bandwidths)
        assert bws == sorted(bws)

    def test_oscillation_period(self):
        trace = oscillation(low=2.0, high=8.0, period=20.0, duration=100.0)
        assert trace.bandwidth_at(5.0) == 2.0
        assert trace.bandwidth_at(15.0) == 8.0

    def test_sawtooth_resets(self):
        trace = sawtooth(low=1.0, high=9.0, period=50.0, duration=150.0)
        bws = trace.bandwidths
        assert bws[0] == pytest.approx(1.0)
        assert max(bws) == pytest.approx(9.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            step_down(at=500.0, duration=300.0)
        with pytest.raises(ValueError):
            spike(at=290.0, width=20.0, duration=300.0)
        with pytest.raises(ValueError):
            ramp(steps=1)
        with pytest.raises(ValueError):
            oscillation(period=0.0)
        with pytest.raises(ValueError):
            sawtooth(steps_per_period=1)

    def test_soda_on_every_scenario(self, fourk_ladder):
        cfg = PlayerConfig(max_buffer=20.0, num_segments=40, live_delay=20.0)
        for trace in all_scenarios():
            result = run_session(SodaController(), trace, fourk_ladder, cfg)
            assert result.num_segments == 40
