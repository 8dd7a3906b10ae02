"""A constant forecast is one float from predictor to kernel, bit for bit
the vector path.

``SodaController`` asks a predictor whose class inherits
``ThroughputPredictor.predict`` for ``predict_scalar`` alone and carries
the forecast as one Python float through the caps, the all-overflow test,
the plan-cache key, the solve, the horizon-1 retry and the fallback rules
(DESIGN §8).  The reference is the vector path: a subclass whose
``_predict_vector`` builds ``np.full(K, ω)`` with the base class's
``predict`` and applies the fallback rule to that vector, so every
decision runs on a K-vector.  The two must agree on the rung or defer, on
``last_plan`` (quality, objective with ``==``, sequence, evaluations) and
on plan-cache hits and misses, through ``select_quality``,
``select_quality_batch`` (sequential and batched, one controller asked
twice), ``decide`` and the reference backend.

Three contracts perfbench's tracer relies on are pinned too: the plan-cache
key gets a K-long prediction for a K-step solve and a one-long one for the
retry; a wrapper set on a predictor class's ``predict`` does not move that
class off the float path; every package class that defines ``predict``
takes the vector path, whose ω₀ is the vector's first entry.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.resilient import ResilientController, _SafePredictor
from repro.core.controller import (
    _SOLVERS,
    _UNSOLVED,
    SodaController,
    select_quality_batch,
)
from repro.core.fastpath import PlanCache
from repro.core.objective import SodaConfig
from repro.prediction import (
    EmaPredictor,
    HarmonicMeanPredictor,
    MarkovPredictor,
    MovingAveragePredictor,
    NoisyOraclePredictor,
    OraclePredictor,
    SlidingWindowPredictor,
    StochasticPredictor,
    ThroughputPredictor,
    ThroughputSample,
)
from repro.sim.network import ThroughputTrace
from repro.sim.player import PlayerObservation
from repro.sim.video import BitrateLadder, youtube_4k_ladder

#: the package's predictors that inherit ``predict``: the float path
CONSTANT = [
    EmaPredictor,
    SlidingWindowPredictor,
    MovingAveragePredictor,
    HarmonicMeanPredictor,
    StochasticPredictor,
]

LADDERS = [
    youtube_4k_ladder(),
    BitrateLadder([1.0, 3.0, 6.0], 2.0, name="three"),
    BitrateLadder([0.3, 0.75, 1.2, 1.85, 2.85, 4.3], 4.0, name="four-second"),
]

CONFIGS = [
    SodaConfig(),
    SodaConfig(horizon=1),
    SodaConfig(horizon=3, cache_tput_quantum=0.0, cache_buffer_quantum=0.0),
    SodaConfig(solver_backend="reference"),
    SodaConfig(use_brute_force=True, horizon=3),
    SodaConfig(cap_one_rung_above=True, download_safety=0.0),
    SodaConfig(target_buffer=7.0, plan_cache=False),
]

_NAN, _INF = math.nan, math.inf


class _VectorPath(SodaController):
    """The vector-path reference: the forecast as ``np.full(K, ω)``.

    It reads the base class's ``predict`` (so a wrapper a test sets on a
    subclass's ``predict`` never reaches it) and falls back on the
    vector's maximum, NaN kept.
    """

    def _predict_vector(self, obs, horizon):
        omega = ThroughputPredictor.predict(
            self.predictor, obs.wall_time, horizon, obs.ladder.segment_duration
        )
        if float(np.max(omega)) <= 0.0:
            fallback = obs.last_throughput
            if fallback is None or fallback <= 0:
                fallback = obs.ladder.min_bitrate
            omega = np.full(horizon, fallback)
        return np.asarray(omega, dtype=float)


def _sample(start, throughput):
    return ThroughputSample(start, 1.0, throughput, throughput)


def _obs(ladder, buffer_level, prev=None, last=None, wall=30.0, max_buffer=20.0):
    history = () if last is None else (_sample(wall - 1.0, last),)
    return PlayerObservation(
        wall_time=wall,
        segment_index=3,
        buffer_level=buffer_level,
        max_buffer=max_buffer,
        previous_quality=prev,
        ladder=ladder,
        history=history,
    )


def _twins(cls, config, samples):
    """A float-path controller and its vector-path twin, fed alike; the
    samples end at 25-28 s, inside a sliding window read at 30 s."""
    fast = SodaController(cls(), config)
    ref = _VectorPath(cls(), config)
    for i, tput in enumerate(samples):
        for ctrl in (fast, ref):
            ctrl.on_download(_sample(24.0 + i, tput))
    return fast, ref


def _plan(plan):
    objective = plan.objective
    return (
        plan.quality,
        "nan" if objective != objective else objective,
        plan.sequence,
        plan.evaluations,
    )


def _assert_same(fast, ref, got, want):
    assert got == want
    assert _plan(fast.last_plan) == _plan(ref.last_plan)
    assert fast.plan_cache_hits == ref.plan_cache_hits
    assert fast.plan_cache_misses == ref.plan_cache_misses


def _vector_decide(ctrl, throughput, buffer_level, prev, ladder, max_buffer):
    """``decide`` on a K-vector, as the vector path runs it."""
    omega = np.full(ctrl.config.horizon, max(float(throughput), 0.0))
    return ctrl._select(
        omega, buffer_level, prev, ladder, max_buffer, omega[0]
    )


@pytest.fixture
def key_lengths(monkeypatch):
    """Length of the prediction each ``PlanCache.key`` call is handed,
    counted as perfbench counts it (a bare float is one long)."""
    lengths = []
    real = PlanCache.key

    def spy(self, omega, *args):
        lengths.append(1 if isinstance(omega, float) else len(omega))
        return real(self, omega, *args)

    monkeypatch.setattr(PlanCache, "key", spy)
    return lengths


# ----------------------------------------------------------------------
# Named states
# ----------------------------------------------------------------------
def _retry_state(ladder):
    """A buffer one step can keep but K steps cannot: ω at half the lowest
    rung drains Δt/2 a step, so 0.75·Δt survives one step only."""
    dt = ladder.segment_duration
    return 0.5 * ladder.min_bitrate, 0.75 * dt


#: (name, predictor samples, observation keywords) on the YouTube-4K
#: ladder with a 20 s buffer
STATES = [
    ("zero forecast, last throughput", [], dict(buffer_level=8.0, last=2.5)),
    ("zero forecast, no history", [], dict(buffer_level=8.0)),
    ("zero samples", [0.0, 0.0], dict(buffer_level=5.0, prev=1, last=0.0)),
    ("nan last, empty predictor", [], dict(buffer_level=6.0, prev=2, last=_NAN)),
    ("nan last, primed predictor", [4.0], dict(buffer_level=6.0, last=_NAN)),
    ("+inf last, empty predictor", [], dict(buffer_level=6.0, prev=1, last=_INF)),
    ("+inf last, primed predictor", [3.0], dict(buffer_level=9.0, last=_INF)),
    ("-inf last, empty predictor", [], dict(buffer_level=6.0, last=-_INF)),
    ("-0.0 buffer", [2.0], dict(buffer_level=-0.0, prev=0, last=2.0)),
    ("negative buffer", [2.0], dict(buffer_level=-3.0, prev=2)),
    ("buffer past the cap", [9.0], dict(buffer_level=27.0, prev=3, last=9.0)),
    ("nan buffer", [5.0], dict(buffer_level=_NAN, prev=1)),
    ("all-overflow", [4000.0], dict(buffer_level=19.5, prev=4, last=4000.0)),
    ("all-overflow below target", [4000.0], dict(buffer_level=15.0)),
]


class TestNamedStates:
    @pytest.mark.parametrize("cls", CONSTANT, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("name,samples,state", STATES, ids=[s[0] for s in STATES])
    @pytest.mark.parametrize("config", CONFIGS, ids=range(len(CONFIGS)))
    def test_select_quality_matches_vector_path(self, cls, name, samples, state, config):
        ladder = LADDERS[0]
        fast, ref = _twins(cls, config, samples)
        obs = _obs(ladder, **state)
        assert type(fast._predict_vector(obs, config.horizon)) is float
        assert isinstance(ref._predict_vector(obs, config.horizon), np.ndarray)
        for _ in range(2):  # the second ask can hit the plan cache
            _assert_same(
                fast, ref, *_answers(fast.select_quality, ref.select_quality, obs)
            )

    @pytest.mark.parametrize("cls", CONSTANT, ids=lambda c: c.__name__)
    def test_zero_forecast_takes_the_fallback(self, cls):
        ladder = LADDERS[0]
        fast, _ref = _twins(cls, SodaConfig(), [])
        assert fast._predict_vector(_obs(ladder, 8.0, last=2.5), 5) == 2.5
        assert fast._predict_vector(_obs(ladder, 8.0), 5) == ladder.min_bitrate
        assert fast._predict_vector(_obs(ladder, 8.0, last=-_INF), 5) == (
            ladder.min_bitrate
        )
        assert math.isnan(fast._predict_vector(_obs(ladder, 8.0, last=_NAN), 5))

    def test_all_overflow_skips_the_solve_and_the_cache(self, key_lengths):
        ladder = LADDERS[0]
        fast, ref = _twins(EmaPredictor, SodaConfig(), [4000.0])
        obs = _obs(ladder, 19.5, prev=4)
        _assert_same(fast, ref, fast.select_quality(obs), ref.select_quality(obs))
        assert fast.last_plan is _UNSOLVED
        assert key_lengths == []

    @pytest.mark.parametrize("ladder", LADDERS, ids=lambda l: l.name)
    @pytest.mark.parametrize("cls", CONSTANT, ids=lambda c: c.__name__)
    def test_forced_retry(self, cls, ladder, key_lengths):
        omega, buffer_level = _retry_state(ladder)
        config = SodaConfig()
        fast, ref = _twins(cls, config, [omega])
        obs = _obs(ladder, buffer_level, prev=0)
        assert fast._predict_vector(obs, config.horizon) == pytest.approx(omega)
        got = fast.select_quality(obs)
        fast_keys = list(key_lengths)
        want = ref.select_quality(obs)
        _assert_same(fast, ref, got, want)
        # the K-step solve failed and the one-step retry found the plan
        assert len(fast.last_plan.sequence) == 1
        assert fast_keys == [config.horizon, 1]
        assert key_lengths[len(fast_keys):] == fast_keys

    @pytest.mark.parametrize("ladder", LADDERS, ids=lambda l: l.name)
    def test_forced_retry_in_a_batch(self, ladder, key_lengths):
        omega, buffer_level = _retry_state(ladder)
        config = SodaConfig()
        fast, ref = _twins(EmaPredictor, config, [omega])
        obs = _obs(ladder, buffer_level, prev=0)
        got = select_quality_batch([(fast, obs), (fast, obs)])
        fast_keys = list(key_lengths)
        want = select_quality_batch([(ref, obs), (ref, obs)])
        _assert_same(fast, ref, got, want)
        assert fast_keys == key_lengths[len(fast_keys):]
        assert len(fast.last_plan.sequence) == 1
        assert sorted(set(fast_keys)) == [1, config.horizon]


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------
_tputs = st.one_of(
    st.floats(0.0, 60.0),
    st.sampled_from([0.0, 0.05, 4000.0]),
)
_lasts = st.one_of(
    st.none(),
    st.floats(0.0, 60.0),
    st.sampled_from([_NAN, _INF, -_INF, 0.0, -1.0, 4000.0]),
)
_buffers = st.one_of(
    st.floats(-5.0, 30.0),
    st.sampled_from([-0.0, 0.0, 20.0, 19.9, _NAN, _INF, -_INF]),
)


@st.composite
def _states(draw):
    ladder = draw(st.sampled_from(LADDERS))
    prev = draw(st.one_of(st.none(), st.integers(0, ladder.levels - 1)))
    return _obs(
        ladder,
        draw(_buffers),
        prev=prev,
        last=draw(_lasts),
        wall=draw(st.floats(5.0, 40.0)),
    )


class TestFloatPathProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        cls=st.sampled_from(CONSTANT),
        config=st.sampled_from(CONFIGS),
        samples=st.lists(_tputs, max_size=4),
        states=st.lists(_states(), min_size=1, max_size=3),
    )
    def test_float_path_is_the_vector_path(self, cls, config, samples, states):
        # one at a time, then the same states as one batch and as one
        # batch that asks a single controller for every state
        fast, ref = _twins(cls, config, samples)
        for obs in states:
            _assert_same(fast, ref, *_answers(fast.select_quality, ref.select_quality, obs))

        fasts = [_twins(cls, config, samples)[0] for _ in states]
        refs = [_twins(cls, config, samples)[1] for _ in states]
        got = select_quality_batch(list(zip(fasts, states)))
        want = select_quality_batch(list(zip(refs, states)))
        assert _outcomes(got) == _outcomes(want)
        for f, r in zip(fasts, refs):
            _assert_same(f, r, None, None)

        fast, ref = _twins(cls, config, samples)
        got = select_quality_batch([(fast, obs) for obs in states])
        want = select_quality_batch([(ref, obs) for obs in states])
        _assert_same(fast, ref, _outcomes(got), _outcomes(want))

    @settings(max_examples=150, deadline=None)
    @given(
        config=st.sampled_from(CONFIGS),
        ladder=st.sampled_from(LADDERS),
        throughput=st.one_of(_tputs, st.sampled_from([-1.0, -0.0, _NAN, _INF])),
        buffer_level=_buffers,
        prev=st.one_of(st.none(), st.integers(0, 2)),
    )
    def test_decide_is_the_vector_decide(
        self, config, ladder, throughput, buffer_level, prev
    ):
        fast, ref = SodaController(config=config), SodaController(config=config)
        for _ in range(2):
            got = _answer(fast.decide, throughput, buffer_level, prev, ladder, 20.0)
            want = _answer(
                lambda *a: _vector_decide(ref, *a),
                throughput, buffer_level, prev, ladder, 20.0,
            )
            _assert_same(fast, ref, got, want)


def _answer(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # both paths must raise alike
        return (type(exc).__name__, str(exc))


def _answers(fast_fn, ref_fn, obs):
    return _answer(fast_fn, obs), _answer(ref_fn, obs)


def _outcomes(results):
    return [
        (type(r).__name__, str(r)) if isinstance(r, BaseException) else r
        for r in results
    ]


# ----------------------------------------------------------------------
# The contracts the tracer relies on
# ----------------------------------------------------------------------
class TestPathContracts:
    @pytest.mark.parametrize("cls", CONSTANT, ids=lambda c: c.__name__)
    def test_key_is_k_long_for_a_k_step_solve(self, cls, key_lengths):
        ladder = LADDERS[0]
        fast, _ref = _twins(cls, SodaConfig(), [5.0])
        fast.select_quality(_obs(ladder, 8.0, prev=2, last=5.0))
        assert key_lengths == [5]
        assert fast.last_plan.feasible

    @pytest.mark.parametrize("cls", CONSTANT, ids=lambda c: c.__name__)
    def test_a_wrapped_predict_keeps_the_float_path(self, cls, monkeypatch):
        """perfbench's tracer sets a wrapper on ``predict`` after the class
        exists; the flag was fixed when the class was defined."""
        calls = []
        original = cls.predict

        def traced(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "predict", traced)
        assert cls._constant_forecast
        fast, ref = _twins(cls, SodaConfig(), [5.0])
        obs = _obs(LADDERS[0], 8.0, prev=2, last=5.0)
        assert type(fast._predict_vector(obs, 5)) is float
        _assert_same(fast, ref, fast.select_quality(obs), ref.select_quality(obs))
        assert calls == []

    def test_package_classes_that_define_predict_take_the_vector_path(self):
        trace = ThroughputTrace([100.0], [4.0])
        markov = MarkovPredictor()
        markov.update(_sample(0.0, 3.0))
        vector = [
            OraclePredictor(trace),
            NoisyOraclePredictor(0.3, trace),
            markov,
            _SafePredictor(EmaPredictor()),
        ]
        obs = _obs(LADDERS[0], 8.0, prev=2, last=5.0)
        for predictor in vector:
            assert not type(predictor)._constant_forecast
            omega = SodaController(predictor)._predict_vector(obs, 5)
            assert isinstance(omega, np.ndarray) and omega.shape == (5,)
        for cls in CONSTANT:
            assert cls._constant_forecast
        # the resilient wrapper moves even a constant predictor off it
        wrapped = ResilientController(SodaController(EmaPredictor()))
        assert isinstance(wrapped.inner._predict_vector(obs, 5), np.ndarray)

    @pytest.mark.parametrize("config", [
        SodaConfig(cap_one_rung_above=True, download_safety=0.0),
        SodaConfig(cap_one_rung_above=True, plan_cache=False),
        SodaConfig(cap_one_rung_above=True, solver_backend="reference"),
    ], ids=["fast", "no-cache", "reference"])
    def test_vector_path_reads_its_first_entry(self, config):
        """ω₀ of a vector is its first entry, not its maximum: a rising
        forecast caps the first step at the rung above ω₀."""
        ladder = LADDERS[0]
        omega = np.array([1.0, 40.0, 40.0, 40.0, 40.0])

        class Rising(ThroughputPredictor):
            def predict_scalar(self, now):
                return 1.0

            def predict(self, now, horizon, dt):
                return omega.copy()

        ctrl = SodaController(Rising(), config)
        first_cap = ctrl._first_step_cap(1.0, 12.0, 20.0, ladder, config)
        solve = _SOLVERS[(config.solver_backend, False)]
        want = solve(omega, 12.0, None, ladder, config, 20.0, first_cap=first_cap)
        free = solve(omega, 12.0, None, ladder, config, 20.0)
        assert want.quality is not None and free.quality > want.quality
        assert ctrl.select_quality(_obs(ladder, 12.0)) == want.quality
        assert _plan(ctrl.last_plan) == _plan(want)
