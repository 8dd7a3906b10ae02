"""The all-overflow shortcut answers exactly as the full solve path.

When even the top rung's first step overflows the buffer, every candidate
plan is infeasible, and ``SodaController`` answers in closed form without
solving, retrying or probing the plan cache.  The oracle here is the full
path called directly: the backend's ``_SOLVERS`` entry, then ``_finalize``
(the horizon-1 retry and the fallback rules), on a plan-cache-off
controller.  ``decide`` and ``select_quality`` cannot be the oracle,
because they take the shortcut too.

States come from three sources: a hypothesis property over ladders,
backends, cap rules and predictions; a seeded sweep that places the top
rung's first step within a few ulps, ±1e-12, ±1e-9 and ±2 guard bands of
``max_buffer + _TOL``; and extreme magnitudes and non-finite values, which
must fall through to the full path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import (
    _GUARD,
    _SOLVERS,
    _UNSOLVED,
    SodaController,
    _all_overflow,
    select_quality_batch,
)
from repro.core.objective import SodaConfig
from repro.core.solver import _TOL, PlanResult
from repro.prediction import MovingAveragePredictor, ThroughputSample
from repro.sim.player import PlayerObservation
from repro.sim.video import BitrateLadder, youtube_4k_ladder

LADDERS = [
    BitrateLadder([1.0, 3.0, 6.0], 2.0, name="three"),
    youtube_4k_ladder(),
    BitrateLadder([2.5], 2.0, name="single"),
    BitrateLadder([0.3, 0.75, 1.2, 1.85, 2.85, 4.3], 4.0, name="four-second"),
]

CONFIGS = [
    SodaConfig(plan_cache=False),
    SodaConfig(plan_cache=False, horizon=1),
    SodaConfig(solver_backend="reference"),
    SodaConfig(solver_backend="reference", horizon=1),
    SodaConfig(plan_cache=False, use_brute_force=True, horizon=3),
    SodaConfig(solver_backend="reference", use_brute_force=True, horizon=2),
    SodaConfig(plan_cache=False, cap_one_rung_above=True, download_safety=0.0),
    SodaConfig(plan_cache=False, download_safety=0.0),
    SodaConfig(plan_cache=False, target_buffer=7.0),
]

#: float64 unit roundoff
_U = 2.0 ** -53

#: boundary offsets of the top rung's first step from max_buffer + _TOL;
#: "guard" entries scale with the state's own guard band
OFFSETS = [0.0, 1e-12, -1e-12, 1e-9, -1e-9, ("guard", 2.0), ("guard", -2.0)]


def _full_path(config, omega, buffer_level, prev, ladder, max_buffer, cap_tput):
    """The decision with the solve always run: ``(answer, last_plan)``,
    or ``(("raises", message), None)`` when the prediction is invalid."""
    ctrl = SodaController(config=config.with_(plan_cache=False))
    cfg = ctrl.config
    try:
        first_cap = ctrl._first_step_cap(
            cap_tput, buffer_level, max_buffer, ladder, cfg
        )
        plan = _SOLVERS[(cfg.solver_backend, cfg.use_brute_force)](
            omega, buffer_level, prev, ladder, cfg, max_buffer,
            dt=ladder.segment_duration, first_cap=first_cap,
        )
        answer = ctrl._finalize(
            plan, omega, buffer_level, prev, ladder, max_buffer, first_cap
        )
    except ValueError as exc:
        return ("raises", str(exc)), None
    return answer, ctrl.last_plan


def _check(config, omega, buffer_level, prev, ladder, max_buffer):
    """``_select`` equals the full path; returns whether it skipped the
    solve.  Where it did, the full path's last plan is infeasible too, the
    skipped decision leaves no trace in the plan cache, and the answer is
    Figure 5's: defer above target, download below it."""
    omega = np.asarray(omega, dtype=float)
    cap_tput = float(omega[0])
    expected, full_plan = _full_path(
        config, omega, buffer_level, prev, ladder, max_buffer, cap_tput
    )
    ctrl = SodaController(config=config)
    try:
        got = ctrl._select(omega, buffer_level, prev, ladder, max_buffer, cap_tput)
    except ValueError as exc:
        got = ("raises", str(exc))
    state = (config, omega.tolist(), buffer_level, prev, ladder.name, max_buffer)
    assert got == expected, state
    skipped = ctrl.last_plan is _UNSOLVED
    assert skipped == (
        full_plan is not None
        and _all_overflow(cap_tput, buffer_level, ladder, max_buffer)
    ), state
    if skipped:
        assert not full_plan.feasible, state
        assert ctrl.plan_cache_hits == ctrl.plan_cache_misses == 0, state
        target = config.resolve_target(max_buffer)
        assert (got is None) == (buffer_level > target), state
    elif full_plan is not None:
        assert ctrl.last_plan == full_plan, state
    return skipped


def _prediction(omega0, horizon, shape, rng=None, tail=None):
    """A constant vector (scalar prediction) or a non-constant one."""
    if shape == "scalar" or horizon == 1:
        return np.full(horizon, omega0)
    if tail is None:
        tail = rng.uniform(0.0, 3.0, horizon - 1) * omega0
    return np.concatenate([[omega0], tail])


def _boundary_buffer(omega0, ladder, max_buffer, offset):
    """A buffer whose top-rung first step lands ``offset`` beyond
    ``max_buffer + _TOL`` (an offset may be a multiple of the guard)."""
    dt = ladder.segment_duration
    gain = omega0 * dt / ladder.max_bitrate
    limit = max_buffer + _TOL
    if isinstance(offset, tuple):
        buffer_level = limit - gain + dt
        magnitude = abs(buffer_level) + gain + dt + abs(max_buffer)
        offset = offset[1] * _GUARD * magnitude
    return limit + offset - gain + dt


# ----------------------------------------------------------------------
class TestShortcutMatchesFullPath:
    @settings(max_examples=400, deadline=None)
    @given(
        ladder=st.sampled_from(LADDERS),
        config=st.sampled_from(CONFIGS),
        ratio=st.floats(0.0, 40.0),
        buffer_frac=st.floats(-0.2, 1.5),
        max_buffer=st.sampled_from([20.0, 30.0, 60.0]),
        prev_pick=st.integers(-1, 5),
        shape=st.sampled_from(["scalar", "vector"]),
        boundary=st.sampled_from([None] + OFFSETS),
        tail=st.lists(st.floats(0.0, 100.0), min_size=4, max_size=4),
    )
    def test_random_states(
        self, ladder, config, ratio, buffer_frac, max_buffer, prev_pick,
        shape, boundary, tail,
    ):
        omega0 = ratio * ladder.max_bitrate
        if boundary is None:
            buffer_level = buffer_frac * max_buffer
        else:
            buffer_level = _boundary_buffer(omega0, ladder, max_buffer, boundary)
        prev = None if prev_pick < 0 else min(prev_pick, ladder.levels - 1)
        omega = _prediction(
            omega0, config.horizon, shape, tail=tail[: config.horizon - 1]
        )
        _check(config, omega, buffer_level, prev, ladder, max_buffer)

    def test_seeded_boundary_sweep(self):
        """Every config, ladder, previous rung and prediction shape at the
        boundary.  The closed form and the kernel round differently, so
        some states straddle ``max_buffer + _TOL`` (one side overflows, the
        other does not): the guard band must keep those on the full path."""
        rng = np.random.default_rng(20241018)
        skipped = straddled = states = 0
        worst = 0.0
        for config in CONFIGS:
            for ladder in LADDERS:
                for prev in [None] + list(range(ladder.levels)):
                    for _ in range(6):
                        omega0 = float(
                            rng.uniform(0.2, 12.0) * ladder.max_bitrate
                        )
                        max_buffer = float(rng.choice([17.3, 20.0, 60.0]))
                        offsets = OFFSETS + [
                            k * math.ulp(max_buffer) for k in (-2, -1, 1, 2)
                        ]
                        offset = offsets[int(rng.integers(len(offsets)))]
                        buffer_level = _boundary_buffer(
                            omega0, ladder, max_buffer, offset
                        )
                        shape = "vector" if rng.random() < 0.5 else "scalar"
                        omega = _prediction(omega0, config.horizon, shape, rng)
                        skipped += _check(
                            config, omega, buffer_level, prev, ladder,
                            max_buffer,
                        )
                        states += 1
                        # the rounding gap the guard band is sized for
                        dt = ladder.segment_duration
                        r = ladder.max_bitrate
                        gain = omega0 * dt / r
                        closed = buffer_level + gain - dt
                        kernel = omega0 * (dt / r) + (buffer_level - dt)
                        limit = max_buffer + _TOL
                        straddled += (closed > limit) != (kernel > limit)
                        magnitude = (
                            abs(buffer_level) + gain + dt + abs(max_buffer)
                        )
                        worst = max(worst, abs(closed - kernel) / magnitude)
        assert states > 1000
        assert skipped > states // 10
        assert straddled > 0
        # DESIGN §8: |closed − kernel| ≤ 7u per unit of magnitude
        assert worst <= 7 * _U

    def test_every_ladder_rung_overflows_when_skipped(self):
        """The predicate's own claim, on the kernel's arithmetic: when it
        holds, no rung's first step fits ``max_buffer + _TOL``."""
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(3000):
            ladder = LADDERS[int(rng.integers(len(LADDERS)))]
            dt = ladder.segment_duration
            max_buffer = float(rng.uniform(5.0, 60.0))
            omega0 = float(rng.uniform(0.0, 20.0) * ladder.max_bitrate)
            offset = float(rng.normal(0.0, 1e-9))
            buffer_level = _boundary_buffer(omega0, ladder, max_buffer, offset)
            if not _all_overflow(omega0, buffer_level, ladder, max_buffer):
                continue
            checked += 1
            for r in ladder.bitrates:
                fast = omega0 * (dt / r) + (buffer_level - dt)
                reference = buffer_level + omega0 * dt / r - dt
                assert fast > max_buffer + _TOL
                assert reference > max_buffer + _TOL
        assert checked > 1000

    @pytest.mark.parametrize("config", CONFIGS)
    def test_extreme_and_non_finite_states(self, config):
        """|buffer| up to 1e12 and ω₀ up to 1e300 still agree; inf and NaN
        never take the shortcut and fall through to the full path."""
        ladder = youtube_4k_ladder()
        huge = [0.0, 1e12, -1e12, 1e6, 1e300]
        non_finite = [math.inf, -math.inf, math.nan]
        with np.errstate(all="ignore"):
            for omega0 in [0.0, 8.0, 1e6, 1e12, 1e300, math.inf, math.nan]:
                for buffer_level in huge + non_finite:
                    for max_buffer in [20.0, 1e12]:
                        for prev in (None, 2):
                            omega = np.full(config.horizon, omega0)
                            _check(
                                config, omega, buffer_level, prev, ladder,
                                max_buffer,
                            )
                            finite = math.isfinite(omega0) and math.isfinite(
                                buffer_level
                            )
                            if not finite:
                                assert not _all_overflow(
                                    omega0, buffer_level, ladder, max_buffer
                                )
            assert not _all_overflow(8.0, 30.0, ladder, math.nan)
            assert not _all_overflow(8.0, 30.0, ladder, -math.inf)

    def test_guard_band_scales_with_magnitude(self):
        """One ulp of 1e12 (~1.2e-4) is far above a fixed 1e-6 band; the
        band must still keep such a state on the full path."""
        ladder = youtube_4k_ladder()
        max_buffer = 1e12
        limit = max_buffer + _TOL
        buffer_level = math.nextafter(limit, math.inf) + 2.0  # x1 one ulp up
        assert buffer_level + 0.0 - 2.0 > limit
        assert not _all_overflow(0.0, buffer_level, ladder, max_buffer)
        assert _all_overflow(0.0, limit + 2.0 + 1.0, ladder, max_buffer)


# ----------------------------------------------------------------------
class _FixedPrediction(SodaController):
    """A controller whose predictor always returns one vector."""

    def __init__(self, omega, config=None):
        super().__init__(config=config)
        self._omega = np.asarray(omega, dtype=float)

    def _predict_vector(self, obs, horizon):
        return self._omega


def _obs(ladder, buffer_level, prev=2, throughput=4.0, max_buffer=20.0):
    return PlayerObservation(
        wall_time=10.0,
        segment_index=5,
        buffer_level=buffer_level,
        max_buffer=max_buffer,
        previous_quality=prev,
        ladder=ladder,
        history=(ThroughputSample(0.0, 1.0, throughput, throughput),),
        playing=True,
    )


def _primed(throughput):
    ctrl = SodaController(MovingAveragePredictor())
    ctrl.on_download(ThroughputSample(0.0, 1.0, throughput, throughput))
    return ctrl


class TestSkippedDecisionContract:
    def test_invalid_vector_still_raises(self):
        """A huge ω₀ with a negative later entry overflows at the first
        step, but the prediction is invalid: the solver would raise, so the
        shortcut must too."""
        ladder = youtube_4k_ladder()
        omega = np.array([1e300, 5.0, -1.0, 5.0, 5.0])
        assert _all_overflow(1e300, 10.0, ladder, 20.0)
        with pytest.raises(ValueError, match="non-negative"):
            SodaController()._select(omega, 10.0, None, ladder, 20.0, 1e300)
        with pytest.raises(ValueError, match="does not match horizon"):
            SodaController()._select(
                np.array([1e300, 5.0]), 10.0, None, ladder, 20.0, 1e300
            )

    def test_invalid_vector_is_its_own_batch_result(self):
        ladder = youtube_4k_ladder()
        bad = _FixedPrediction([1e300, 5.0, -1.0, 5.0, 5.0])
        good = _FixedPrediction([1e300] * 5)
        twin = _FixedPrediction([1e300] * 5)
        obs = _obs(ladder, 18.0)
        results = select_quality_batch([(good, obs), (bad, obs), (good, obs)])
        assert isinstance(results[1], ValueError)
        assert results[0] is None and results[2] is None
        assert twin.select_quality(obs) is None

    def test_plan_cache_neither_probed_nor_filled(self):
        ladder = youtube_4k_ladder()
        obs = _obs(ladder, 18.0, throughput=500.0)
        for run in (
            lambda c: c.select_quality(obs),
            lambda c: select_quality_batch([(c, obs)])[0],
        ):
            ctrl = _primed(500.0)
            assert ctrl._plan_cache is not None
            assert run(ctrl) is None
            assert ctrl.last_plan == _UNSOLVED
            assert ctrl.last_plan == PlanResult(None, math.inf, (), 0)
            assert ctrl.plan_cache_hits == ctrl.plan_cache_misses == 0
            assert len(ctrl._plan_cache) == 0

    @pytest.mark.parametrize("order", ["overflow-last", "overflow-first"])
    def test_batch_matches_sequential_with_one_controller_twice(self, order):
        """``last_plan`` lands in request order: the same controller asked
        twice in one batch ends on its second request's plan."""
        ladder = youtube_4k_ladder()
        throughput = 1.2 * ladder.max_bitrate
        solved = _obs(ladder, 5.0, throughput=throughput)
        overflow = _obs(ladder, 19.9, throughput=throughput)
        obs_pair = [solved, overflow]
        if order == "overflow-first":
            obs_pair.reverse()

        seq = _primed(throughput)
        expected = [seq.select_quality(o) for o in obs_pair]
        bat = _primed(throughput)
        got = select_quality_batch([(bat, o) for o in obs_pair])

        assert got == expected
        assert bat.last_plan == seq.last_plan
        assert bat.plan_cache_hits == seq.plan_cache_hits
        assert bat.plan_cache_misses == seq.plan_cache_misses == 1
        skipped_last = order == "overflow-last"
        assert (bat.last_plan is _UNSOLVED) == skipped_last
        assert expected[obs_pair.index(overflow)] is None


# ----------------------------------------------------------------------
class TestOtherCallSites:
    """The table build and the population's solver backend apply the same
    shortcut; every answer still equals the full path's."""

    @pytest.mark.parametrize("config", [
        SodaConfig(),
        SodaConfig(solver_backend="reference"),
        SodaConfig(horizon=1),
        SodaConfig(use_brute_force=True, horizon=3),
        SodaConfig(cap_one_rung_above=True),
        SodaConfig(target_buffer=7.0),
    ])
    def test_table_cells(self, config):
        from repro.core.lookup import DecisionTable

        ladder, max_buffer = youtube_4k_ladder(), 20.0
        table = DecisionTable(
            ladder, max_buffer, config=config,
            throughput_points=9, buffer_points=9,
        )
        for tput in table.tput_grid.tolist():
            omega = np.full(config.horizon, tput)
            for buf in table.buffer_grid.tolist():
                for prev in [None] + list(range(ladder.levels)):
                    want, _ = _full_path(
                        config, omega, buf, prev, ladder, max_buffer, tput
                    )
                    assert table.lookup(tput, buf, prev) == want

    def test_population_solver_backend(self):
        from repro.sim.population import SolverBackend

        ladder, max_buffer = youtube_4k_ladder(), 20.0
        config = SodaConfig(plan_cache=False)
        rng = np.random.default_rng(3)
        tputs = rng.uniform(0.0, 6.0, 400) * ladder.max_bitrate
        buffers = rng.uniform(0.0, max_buffer, 400)
        # half the rows sit at the all-overflow boundary
        for i in range(0, 400, 2):
            offset = OFFSETS[(i // 2) % len(OFFSETS)]
            buffers[i] = _boundary_buffer(tputs[i], ladder, max_buffer, offset)
        prevs = rng.integers(-1, ladder.levels, 400)
        got = SolverBackend(ladder, max_buffer).decide(
            tputs, buffers, prevs, [f"s{i}" for i in range(400)], 0.0
        )
        skipped = 0
        for tput, buf, prev, answer in zip(tputs, buffers, prevs, got):
            omega = max(float(tput), 1e-6)
            want, _ = _full_path(
                config, np.full(config.horizon, omega), float(buf),
                None if prev < 0 else int(prev), ladder, max_buffer, omega,
            )
            assert answer == (-1 if want is None else want)
            skipped += _all_overflow(omega, float(buf), ladder, max_buffer)
        assert 0 < skipped < 400
