"""Differential tests: cross-session batched solving vs the single path.

The batched tier-0 stack has three layers, each proven equivalent to the
code it replaces by direct comparison, not by construction:

* ``solve_sessions_batch`` (kernel) — randomized populations of live
  session states, mixed across bundles (ladders, configs, anchors,
  horizons, backends), must return **bit-identical** plans to calling
  ``solve_monotonic_fast`` / ``solve_brute_force_fast`` per session;
* ``select_quality_batch`` (controller glue) — twin controllers fed
  identical histories must commit the same rungs with the same
  plan-cache counters and ``last_plan`` side effects;
* ``DecisionService.decide_many`` / ``decide_columns`` (service) — a
  service with ``tier0_chunk > 1`` must answer exactly like a service
  with batching disabled (``tier0_chunk=1``) on the same request stream.

Degenerate shapes — infeasible states, K=1, single-rung ladders,
non-finite predictions and buffers — ride inside the randomized
populations *and* get dedicated cases, because those are precisely the
rows where a vectorized kernel is tempted to diverge (0·inf² poisoning,
empty candidate masks, argmin over all-inf rows).
"""

import copy
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.fastpath as fastpath
from repro.core.controller import SodaController, select_quality_batch
from repro.core.fastpath import (
    SessionSolveRequest,
    _monotone_bundle,
    _solve_bundle,
    monotone_candidate_count,
    solve_brute_force_fast,
    solve_monotonic_fast,
    solve_sessions_batch,
)
from repro.core.objective import SodaConfig
from repro.core.solver import _TOL
from repro.prediction.base import ThroughputSample
from repro.service import DecisionService
from repro.sim.player import PlayerObservation
from repro.sim.video import BitrateLadder, youtube_4k_ladder

_LADDERS = [
    BitrateLadder([1.0, 3.0, 6.0], 2.0, name="three"),
    BitrateLadder([0.3, 0.8, 1.5, 2.8, 5.0, 9.0, 16.0], 2.0, name="seven"),
    BitrateLadder([2.5], 2.0, name="single"),
    youtube_4k_ladder(),
]


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _single_solver(cfg):
    return solve_brute_force_fast if cfg.use_brute_force else solve_monotonic_fast


def _random_request(rng, ladder=None):
    """One random live session state, biased toward shared bundles."""
    if ladder is None:
        ladder = rng.choice(_LADDERS)
    levels = ladder.levels
    horizon = rng.choice([1, 2, 3, 5])
    cfg = SodaConfig(
        horizon=horizon,
        beta=rng.choice([0.01, 0.3]),
        gamma=rng.choice([10.0, 150.0]),
        epsilon=rng.choice([0.05, 1.0]),
        switch_event_cost=rng.choice([0.0, 0.08]),
        use_brute_force=(rng.random() < 0.25 and levels ** horizon <= 20_000),
    )
    buffer_level = rng.uniform(0.0, 30.0)
    if rng.random() < 0.05:
        buffer_level = rng.choice([float("nan"), float("inf")])
    max_buffer = rng.uniform(5.0, 40.0)
    prev = rng.choice([None] + list(range(levels)))
    if rng.random() < 0.5:
        omega = float(rng.uniform(0.05, 25.0))
    elif rng.random() < 0.1:
        omega = np.full(horizon, rng.choice([float("nan"), float("inf")]))
    else:
        omega = np.array([rng.uniform(0.05, 25.0) for _ in range(horizon)])
    return SessionSolveRequest(
        omega=omega,
        buffer_level=buffer_level,
        prev_quality=prev,
        ladder=ladder,
        cfg=cfg,
        max_buffer=max_buffer,
        first_cap=rng.choice([None, rng.randrange(levels)]),
        terminal_weight=rng.choice([0.0, 0.5]),
    )


def _assert_bit_identical(ref, got, context):
    assert ref.quality == got.quality, context
    assert ref.sequence == got.sequence, context
    assert ref.evaluations == got.evaluations, context
    if math.isinf(ref.objective):
        assert math.isinf(got.objective), context
    else:
        # exact, not approx: the batched kernel runs the same float ops
        # in the same order, so anything short of equality is a bug
        assert ref.objective == got.objective, context


def _check_batch_matches_singles(requests):
    batch = solve_sessions_batch(requests)
    assert len(batch) == len(requests)
    for i, (req, got) in enumerate(zip(requests, batch)):
        ref = _single_solver(req.cfg)(
            req.omega, req.buffer_level, req.prev_quality, req.ladder,
            req.cfg, req.max_buffer, dt=req.dt, first_cap=req.first_cap,
            terminal_weight=req.terminal_weight,
        )
        _assert_bit_identical(ref, got, f"request {i}")


# ----------------------------------------------------------------------
class TestKernelDifferential:
    def test_randomized_mixed_population(self):
        """One big heterogeneous fleet: many bundles, both backends,
        scalar and vector predictions, edge states mixed in."""
        rng = random.Random(20240)
        for trial in range(12):
            requests = [
                _random_request(rng) for _ in range(rng.randrange(1, 40))
            ]
            _check_batch_matches_singles(requests)

    def test_single_bundle_large_population(self):
        """Many sessions sharing one bundle (the service's hot case)."""
        rng = random.Random(7)
        ladder = _LADDERS[1]
        cfg = SodaConfig(horizon=4)
        requests = [
            SessionSolveRequest(
                omega=(
                    float(rng.uniform(0.1, 20.0))
                    if rng.random() < 0.5
                    else np.array([rng.uniform(0.1, 20.0) for _ in range(4)])
                ),
                buffer_level=rng.uniform(0.0, 25.0),
                prev_quality=3,
                ladder=ladder,
                cfg=cfg,
                max_buffer=25.0,
                first_cap=rng.choice([None, 1, 5]),
                terminal_weight=rng.choice([0.0, 0.5]),
            )
            for _ in range(200)
        ]
        _check_batch_matches_singles(requests)

    def test_infeasible_k1_single_rung_nonfinite_edges(self):
        """The dedicated edge-state batch: every degenerate shape at once."""
        three, seven, single = _LADDERS[0], _LADDERS[1], _LADDERS[2]
        k5 = SodaConfig(horizon=5)
        requests = [
            # overflow-infeasible (Figure 5 blank region)
            SessionSolveRequest(200.0, 19.5, 1, three, k5, 20.0),
            SessionSolveRequest(np.full(5, 500.0), 19.5, 1, three, k5, 20.0),
            # underflow-infeasible
            SessionSolveRequest(0.01, 0.2, None, seven, k5, 25.0),
            # K = 1
            SessionSolveRequest(4.0, 6.0, None, three, SodaConfig(horizon=1), 20.0),
            # single-rung ladder, K = 1 and K = 5
            SessionSolveRequest(4.0, 6.0, None, single, SodaConfig(horizon=1), 20.0),
            SessionSolveRequest(4.0, 6.0, 0, single, k5, 20.0),
            # non-finite predictions
            SessionSolveRequest(np.full(5, float("nan")), 8.0, 2, seven, k5, 25.0),
            SessionSolveRequest(np.full(5, float("inf")), 8.0, 2, seven, k5, 25.0),
            # non-finite buffer
            SessionSolveRequest(4.0, float("nan"), 2, seven, k5, 25.0),
            # a healthy row, so the batch mixes feasible with infeasible
            SessionSolveRequest(4.0, 8.0, 2, seven, k5, 25.0),
        ]
        _check_batch_matches_singles(requests)

    def test_terminal_weight_rows_do_not_poison_neighbours(self):
        """A zero-terminal-weight session batched next to an infeasible
        weighted one must keep its finite objective (0 * inf**2 guard)."""
        ladder = _LADDERS[0]
        cfg = SodaConfig(horizon=3)
        requests = [
            SessionSolveRequest(4.0, 8.0, 1, ladder, cfg, 20.0,
                                terminal_weight=0.0),
            SessionSolveRequest(500.0, 19.9, 2, ladder, cfg, 20.0,
                                terminal_weight=2.0),
            SessionSolveRequest(4.0, 8.0, 1, ladder, cfg, 20.0,
                                terminal_weight=2.0),
        ]
        _check_batch_matches_singles(requests)
        assert math.isfinite(solve_sessions_batch(requests)[0].objective)

    def test_per_session_caps_and_buffers_within_one_bundle(self):
        ladder = _LADDERS[1]
        cfg = SodaConfig(horizon=3)
        requests = [
            SessionSolveRequest(5.0, b, 3, ladder, cfg, mb, first_cap=cap)
            for b, mb, cap in [
                (2.0, 20.0, None), (8.0, 25.0, 0), (15.0, 18.0, 4),
                (0.0, 30.0, 6), (24.9, 25.0, 2),
            ]
        ]
        _check_batch_matches_singles(requests)

    def test_chunked_session_axis_is_equivalent(self, monkeypatch):
        """Shrinking the element budget forces multi-chunk scoring; the
        results must not change."""
        rng = random.Random(99)
        requests = [_random_request(rng, _LADDERS[1]) for _ in range(60)]
        baseline = solve_sessions_batch(requests)
        monkeypatch.setattr(
            "repro.core.fastpath._BATCH_ELEMENT_BUDGET", 500
        )
        chunked = solve_sessions_batch(requests)
        for ref, got in zip(baseline, chunked):
            _assert_bit_identical(ref, got, "chunked")

    def test_empty_batch(self):
        assert solve_sessions_batch([]) == []

    def test_request_order_preserved_across_groups(self):
        """Interleaved bundles come back in request order, not group order."""
        a = SessionSolveRequest(4.0, 8.0, 1, _LADDERS[0], SodaConfig(horizon=2), 20.0)
        b = SessionSolveRequest(4.0, 8.0, 2, _LADDERS[1], SodaConfig(horizon=3), 25.0)
        batch = solve_sessions_batch([a, b, a, b, a])
        singles = [
            _single_solver(r.cfg)(
                r.omega, r.buffer_level, r.prev_quality, r.ladder, r.cfg,
                r.max_buffer,
            )
            for r in (a, b, a, b, a)
        ]
        for ref, got in zip(singles, batch):
            _assert_bit_identical(ref, got, "interleaved")

    def test_invalid_prediction_raises_like_single_entry_points(self):
        ladder = _LADDERS[0]
        cfg = SodaConfig(horizon=3)
        bad = [
            SessionSolveRequest(np.array([1.0, 2.0]), 5.0, None, ladder, cfg, 20.0),
            SessionSolveRequest(np.array([1.0, -2.0, 1.0]), 5.0, None, ladder, cfg, 20.0),
        ]
        for req in bad:
            with pytest.raises(ValueError):
                solve_sessions_batch([req])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_batched_equals_single(self, data):
        """Hypothesis-driven population: batched == sequential, exactly."""
        ladder = data.draw(st.sampled_from(_LADDERS[:3]))
        horizon = data.draw(st.sampled_from([1, 2, 3]))
        cfg = SodaConfig(
            horizon=horizon,
            beta=data.draw(st.sampled_from([0.01, 0.3])),
            epsilon=data.draw(st.sampled_from([0.05, 1.0])),
        )
        n = data.draw(st.integers(min_value=1, max_value=10))
        requests = []
        for _ in range(n):
            scalar = data.draw(st.booleans())
            tput = st.floats(
                min_value=0.01, max_value=50.0,
                allow_nan=False, allow_infinity=False,
            )
            omega = (
                data.draw(tput)
                if scalar
                else np.array(
                    data.draw(
                        st.lists(tput, min_size=horizon, max_size=horizon)
                    )
                )
            )
            requests.append(
                SessionSolveRequest(
                    omega=omega,
                    buffer_level=data.draw(
                        st.floats(min_value=0.0, max_value=40.0,
                                  allow_nan=False)
                    ),
                    prev_quality=data.draw(
                        st.sampled_from([None] + list(range(ladder.levels)))
                    ),
                    ladder=ladder,
                    cfg=cfg,
                    max_buffer=data.draw(
                        st.floats(min_value=5.0, max_value=40.0,
                                  allow_nan=False)
                    ),
                    first_cap=data.draw(
                        st.sampled_from([None] + list(range(ladder.levels)))
                    ),
                    terminal_weight=data.draw(st.sampled_from([0.0, 0.5])),
                )
            )
        _check_batch_matches_singles(requests)


# ----------------------------------------------------------------------
_YT = _LADDERS[3]
_YT_ANCHORS = [None] + list(range(_YT.levels))


def _count_kernel_calls(monkeypatch):
    """Wrap the session-axis kernel; the list gets each call's session
    count."""
    calls = []
    kernel = fastpath._solve_segments

    def counted(bundles, *args):
        calls.append(len(bundles))
        return kernel(bundles, *args)

    monkeypatch.setattr(fastpath, "_solve_segments", counted)
    return calls


def _yt_request(rng, prev, cfg, vector=False, **kw):
    horizon = cfg.horizon
    omega = (
        np.array([rng.uniform(0.5, 40.0) for _ in range(horizon)])
        if vector
        else float(rng.uniform(0.5, 40.0))
    )
    return SessionSolveRequest(
        omega, rng.uniform(0.0, 20.0), prev, _YT, cfg, 20.0, **kw
    )


class TestOnePassAcrossAnchors:
    """Every previous rung of one (ladder, config, Δt, prediction shape)
    group is scored in one session-axis pass, bit for bit as alone."""

    def test_every_anchor_in_one_kernel_call(self, monkeypatch):
        rng = random.Random(26)
        cfg = SodaConfig(horizon=5)
        top = _YT.levels - 1
        requests = [
            _yt_request(
                rng, prev, cfg,
                # caps below, at and above every anchor's top first rung
                first_cap=rng.choice([None, 0, top - 1, top, top + 1]),
                terminal_weight=rng.choice([0.0, 0.0, 0.5]),
            )
            for _ in range(4)
            for prev in _YT_ANCHORS
        ]
        # Sessions with no feasible plan between feasible neighbours: every
        # download overflows, and every plan underflows.
        feasible = SessionSolveRequest(8.0, 10.0, 2, _YT, cfg, 20.0)
        requests[5:5] = [
            feasible,
            SessionSolveRequest(500.0, 19.9, 3, _YT, cfg, 20.0),
            feasible,
            SessionSolveRequest(0.01, 0.2, None, _YT, cfg, 20.0),
            feasible,
        ]
        calls = _count_kernel_calls(monkeypatch)
        _check_batch_matches_singles(requests)
        assert calls == [len(requests)]
        plans = solve_sessions_batch(requests)
        assert [p.quality is None for p in plans[5:10]] == [
            False, True, False, True, False,
        ]

    def test_first_caps_around_the_top_first_rung(self, monkeypatch):
        rng = random.Random(3)
        cfg = SodaConfig(horizon=5)
        top = _YT.levels - 1
        requests = [
            _yt_request(rng, prev, cfg, first_cap=cap)
            for prev in _YT_ANCHORS
            for cap in (top - 1, top, top + 1)
        ]
        calls = _count_kernel_calls(monkeypatch)
        _check_batch_matches_singles(requests)
        assert calls == [len(requests)]
        plans = solve_sessions_batch(requests)
        for k, prev in enumerate(_YT_ANCHORS):
            below, at, above = (p.evaluations for p in plans[3 * k:3 * k + 3])
            count = monotone_candidate_count(_YT.levels, 5, prev)
            assert below < count and at == above == count

    def test_constant_plan_tie_takes_the_up_copy(self):
        """The constant plan is the first row of both the up and the down
        block; with a prohibitive switching cost it is the optimum, and the
        first-occurrence argmin of each segment must pick the up copy."""
        cfg = SodaConfig(horizon=5, gamma=1e4)
        dt = _YT.segment_duration
        target = cfg.resolve_target(20.0)
        bitrates = tuple(_YT.bitrates)
        tagged, omegas = [], []
        for prev in _YT_ANCHORS:
            bundle = copy.copy(_monotone_bundle(bitrates, cfg, prev, dt))
            # tag each row with its index, so the pick shows which copy won
            bundle.sequences = [(row,) for row in range(bundle.count)]
            tagged.append(bundle)
            omegas.append(_YT.bitrates[0 if prev is None else prev])
            if prev is not None:
                up = math.comb(_YT.levels - prev + cfg.horizon - 1, cfg.horizon)
                original = _monotone_bundle(bitrates, cfg, prev, dt).sequences
                assert original[0] == original[up] == (prev,) * cfg.horizon
        s = len(tagged)
        plans = fastpath._solve_segments(
            tagged, np.asarray(omegas), True, np.full(s, target), cfg,
            np.full(s, target), np.full(s, 20.0), [None] * s, np.zeros(s),
        )
        for bundle, omega, plan in zip(tagged[1:], omegas[1:], plans[1:]):
            assert plan.quality == 0
            single = _solve_bundle(
                bundle, omega, target, cfg, target, 20.0, None, 0.0
            )
            assert single == plan

    def test_scalar_and_vector_predictions_in_one_call(self, monkeypatch):
        rng = random.Random(11)
        cfg = SodaConfig(horizon=5)
        requests = [
            _yt_request(rng, prev, cfg, vector=(i % 2 == 1))
            for i, prev in enumerate(_YT_ANCHORS * 3)
        ]
        calls = _count_kernel_calls(monkeypatch)
        _check_batch_matches_singles(requests)
        assert sorted(calls) == [10, 11]  # one pass per prediction shape

    def test_brute_force_k1_and_one_rung_ladder(self, monkeypatch):
        rng = random.Random(12)
        brute = SodaConfig(horizon=3, use_brute_force=True)
        k1 = SodaConfig(horizon=1)
        k5 = SodaConfig(horizon=5)
        single = _LADDERS[2]
        requests = []
        for prev in _YT_ANCHORS:
            requests.append(_yt_request(rng, prev, brute, first_cap=3))
            requests.append(_yt_request(rng, prev, k1))
        for prev in (None, 0, None, 0):
            requests.append(SessionSolveRequest(
                float(rng.uniform(0.5, 8.0)), rng.uniform(0.0, 20.0), prev,
                single, k5, 20.0,
            ))
        calls = _count_kernel_calls(monkeypatch)
        _check_batch_matches_singles(requests)
        assert sorted(calls) == [4, 7, 7]

    def test_budget_split_group(self, monkeypatch):
        """A group past the element budget runs in several passes of whole
        sessions, and the answers do not change."""
        rng = random.Random(13)
        cfg = SodaConfig(horizon=5)
        requests = [
            _yt_request(rng, prev, cfg, first_cap=rng.choice([None, 2]))
            for prev in _YT_ANCHORS * 4
        ]
        monkeypatch.setattr("repro.core.fastpath._BATCH_ELEMENT_BUDGET", 3000)
        calls = _count_kernel_calls(monkeypatch)
        _check_batch_matches_singles(requests)
        assert len(calls) > 1 and sum(calls) == len(requests)


# ----------------------------------------------------------------------
def _oracle(bundle, omega, buffer_level, cfg, target, max_buffer, dt,
            first_cap, terminal_weight):
    """Score every candidate of ``bundle`` in plain Python floats.

    The per-step terms are summed in the order DESIGN §8 states: the
    trajectory and each horizon sum left to right, then ``((distortion +
    buffer cost) + switching) + terminal``.  The bundle's precomputed
    prefix sums, ``dist_row_base`` and ``switch_row`` are taken as they
    are.  Returns ``(objective, sequence)`` of the first minimum over the
    feasible candidates, or ``(inf, ())``.
    """
    horizon = bundle.gain_base.shape[0]
    gain, cum, vq = (
        bundle.gain_base.tolist(), bundle.cum_gain_base.tolist(),
        bundle.vq.tolist(),
    )
    dist_row, switch_row = bundle.dist_row_base.tolist(), bundle.switch_row.tolist()
    first_rungs = bundle.first_rungs.tolist()
    scalar = isinstance(omega, float)
    best, best_objective = None, math.inf
    for c in range(bundle.count):
        if first_cap is not None and first_rungs[c] > first_cap:
            continue
        xs = []
        if scalar:
            for k in range(horizon):
                xs.append(omega * cum[k][c] + (buffer_level - dt * (k + 1)))
            distortion = omega * dist_row[c]
        else:
            for k in range(horizon):
                g = float(omega[k]) * gain[k][c]
                run = g if k == 0 else run + g
                xs.append(run + (buffer_level - dt * (k + 1)))
                p = vq[k][c] * g
                distortion = p if k == 0 else distortion + p
        if not (min(xs) >= -_TOL and max(xs) <= max_buffer + _TOL):
            continue
        for k, x in enumerate(xs):
            d = target - x
            weight = cfg.beta if x <= target else cfg.beta * cfg.epsilon
            term = (d * d) * weight
            buffer_cost = term if k == 0 else buffer_cost + term
        total = distortion + buffer_cost
        total = total + switch_row[c]
        if terminal_weight > 0:
            t_dev = xs[-1] - target
            total = total + (terminal_weight * t_dev) * t_dev
        if total < best_objective:
            best, best_objective = c, total
    if best is None:
        return math.inf, ()
    return best_objective, bundle.sequences[best]


class TestSummationOrder:
    """The bits of an objective belong to the code: a plain-Python oracle
    summing in DESIGN §8's stated order equals both kernels exactly."""

    @pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("vector", [False, True])
    def test_oracle_equals_both_kernels(self, horizon, vector):
        rng = random.Random(1000 * horizon + vector)
        cfg = SodaConfig(horizon=horizon, switch_event_cost=0.08)
        dt = _YT.segment_duration
        bitrates = tuple(_YT.bitrates)
        requests, bundles = [], []
        for prev in _YT_ANCHORS * 4:
            req = _yt_request(
                rng, prev, cfg, vector=vector,
                first_cap=rng.choice([None, 1, 3]),
                terminal_weight=rng.choice([0.0, 0.5]),
            )
            requests.append(req)
            bundles.append(_monotone_bundle(bitrates, cfg, prev, dt))
        batch = solve_sessions_batch(requests)
        solved = 0
        for req, bundle, got in zip(requests, bundles, batch):
            pred = fastpath._pred(req.omega, horizon)
            target = cfg.resolve_target(req.max_buffer)
            objective, sequence = _oracle(
                bundle, pred, req.buffer_level, cfg, target, req.max_buffer,
                dt, req.first_cap, req.terminal_weight,
            )
            single = _solve_bundle(
                bundle, pred, req.buffer_level, cfg, target, req.max_buffer,
                req.first_cap, req.terminal_weight,
            )
            for plan in (single, got):
                assert plan.sequence == sequence
                if math.isinf(objective):
                    assert math.isinf(plan.objective)
                else:
                    assert plan.objective == objective
            solved += sequence != ()
        assert solved >= len(requests) // 2


# ----------------------------------------------------------------------
def _make_obs(ladder, rng, wall, prev):
    history = []
    t = wall
    for _ in range(rng.randrange(0, 5)):
        dur = 0.4 + rng.random()
        tput = rng.uniform(0.3, 12.0)
        history.append(
            ThroughputSample(start=t, duration=dur, size=tput * dur,
                             throughput=tput)
        )
        t += dur
    return PlayerObservation(
        wall_time=t,
        segment_index=0,
        buffer_level=rng.uniform(0.0, 20.0),
        max_buffer=20.0,
        previous_quality=prev,
        ladder=ladder,
        history=tuple(history),
    )


def _feed_twin(ctrl, obs):
    """Replicate the service's history feed for a standalone controller."""
    for sample in obs.history:
        ctrl.on_download(sample)


class TestControllerBatch:
    def test_matches_sequential_controllers(self):
        """Twin controllers, identical histories: batch == one-at-a-time,
        including cache counters and last_plan."""
        rng = random.Random(31)
        ladder = _LADDERS[1]
        for trial in range(25):
            seed = rng.randrange(1 << 30)
            r1, r2 = random.Random(seed), random.Random(seed)
            n = rng.randrange(1, 9)
            seq_ctrls = [SodaController() for _ in range(n)]
            bat_ctrls = [SodaController() for _ in range(n)]
            seq_answers, pairs = [], []
            for sc, bc in zip(seq_ctrls, bat_ctrls):
                prev = rng.choice([None, 2])
                obs1 = _make_obs(ladder, r1, 0.0, prev)
                obs2 = _make_obs(ladder, r2, 0.0, prev)
                _feed_twin(sc, obs1)
                _feed_twin(bc, obs2)
                seq_answers.append(sc.select_quality(obs1))
                pairs.append((bc, obs2))
            bat_answers = select_quality_batch(pairs)
            assert bat_answers == seq_answers, f"trial {trial}"
            for sc, bc in zip(seq_ctrls, bat_ctrls):
                assert bc.plan_cache_hits == sc.plan_cache_hits
                assert bc.plan_cache_misses == sc.plan_cache_misses
                if sc.last_plan is None:
                    assert bc.last_plan is None
                else:
                    _assert_bit_identical(sc.last_plan, bc.last_plan, trial)

    def test_duplicate_cache_key_counts_a_hit(self):
        """The same controller asked twice in one batch must account the
        second request as a cache hit, like the sequential path would."""
        ladder = _LADDERS[1]
        rng = random.Random(5)
        obs = _make_obs(ladder, rng, 0.0, 2)

        seq = SodaController()
        _feed_twin(seq, obs)
        a1 = seq.select_quality(obs)
        a2 = seq.select_quality(obs)

        bat = SodaController()
        _feed_twin(bat, obs)
        b1, b2 = select_quality_batch([(bat, obs), (bat, obs)])
        assert (b1, b2) == (a1, a2)
        assert bat.plan_cache_hits == seq.plan_cache_hits == 1
        assert bat.plan_cache_misses == seq.plan_cache_misses == 1

    def test_reference_backend_falls_back_inline(self):
        ladder = _LADDERS[0]
        rng = random.Random(8)
        obs = _make_obs(ladder, rng, 0.0, 1)
        ref_seq = SodaController(config=SodaConfig(solver_backend="reference"))
        ref_bat = SodaController(config=SodaConfig(solver_backend="reference"))
        fast_seq = SodaController()
        fast_bat = SodaController()
        for ctrl in (ref_seq, ref_bat, fast_seq, fast_bat):
            _feed_twin(ctrl, obs)
        got = select_quality_batch([(ref_bat, obs), (fast_bat, obs)])
        assert got[0] == ref_seq.select_quality(obs)
        assert got[1] == fast_seq.select_quality(obs)
        # the reference backend keeps its no-cache contract through the batch
        assert ref_bat.plan_cache_misses == 0

    def test_exception_is_isolated_per_session(self):
        class Exploding(SodaController):
            def _predict_vector(self, obs, horizon):
                raise RuntimeError("boom")

        ladder = _LADDERS[1]
        rng = random.Random(4)
        obs = _make_obs(ladder, rng, 0.0, 2)
        good = SodaController()
        _feed_twin(good, obs)
        twin = SodaController()
        _feed_twin(twin, obs)
        results = select_quality_batch(
            [(good, obs), (Exploding(), obs), (twin, obs)]
        )
        assert isinstance(results[1], RuntimeError)
        assert results[0] == results[2]
        assert not isinstance(results[0], BaseException)

    def test_empty_batch(self):
        assert select_quality_batch([]) == []


# ----------------------------------------------------------------------
def _fresh_service(chunk, clock, table_points=6):
    return DecisionService(
        _LADDERS[1],
        20.0,
        deadline=0.05,
        max_in_flight=8,
        table_points=table_points,
        tier0_chunk=chunk,
        clock=clock,
    )


def _request_stream(seed, sessions=10, rounds=3):
    rng = random.Random(seed)
    ladder = _LADDERS[1]
    stream = []
    for round_no in range(rounds):
        batch = []
        for s in range(sessions):
            prev = rng.choice([None] + list(range(ladder.levels)))
            batch.append(
                (f"s{s}", _make_obs(ladder, rng, float(round_no), prev))
            )
        stream.append(batch)
    return stream


class TestServiceBatchDifferential:
    def test_decide_many_batched_equals_unbatched(self):
        """tier0_chunk=16 answers the exact stream tier0_chunk=1 does."""
        for seed in (0, 1, 2):
            single = _fresh_service(1, FakeClock())
            batched = _fresh_service(16, FakeClock())
            for batch in _request_stream(seed):
                a = single.decide_many(batch)
                b = batched.decide_many(batch)
                for da, db in zip(a, b):
                    assert (da.quality, da.tier, da.deferred) == (
                        db.quality, db.tier, db.deferred
                    ), seed
            assert batched.stats().tier0_decisions == (
                single.stats().tier0_decisions
            )
            snap = batched.batches.snapshot()
            assert snap["batches"] > 0
            assert snap["max_batch"] > 1
            assert single.batches.snapshot()["batches"] == 0

    def test_decide_columns_batched_equals_unbatched(self):
        rng = np.random.default_rng(12)
        n = 40
        ids = [f"c{i % 13}" for i in range(n)]
        tputs = rng.uniform(-1.0, 15.0, size=n)
        bufs = rng.uniform(0.0, 20.0, size=n)
        prevs = rng.integers(-1, 7, size=n)
        single = _fresh_service(1, FakeClock())
        batched = _fresh_service(8, FakeClock())
        r1 = single.decide_columns(ids, tputs, bufs, prevs)
        r2 = batched.decide_columns(ids, tputs, bufs, prevs)
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a, b)

    def test_custom_tier0_factory_disables_batching(self):
        calls = []

        def factory(session_id, controller):
            def tier0(obs):
                calls.append(session_id)
                return controller.select_quality(obs)

            return tier0

        service = DecisionService(
            _LADDERS[1], 20.0, deadline=0.05, table_points=0,
            tier0_factory=factory, tier0_chunk=16, clock=FakeClock(),
        )
        stream = _request_stream(3, sessions=6, rounds=1)[0]
        service.decide_many(stream)
        assert not service._batchable
        assert service.batches.snapshot()["batches"] == 0
        assert len(calls) == len(stream)  # every request went through it

    def test_mid_stream_sessions_keep_history_state(self):
        """Batched and unbatched services evolve identical per-session
        predictor state across rounds (the monotone feed invariant)."""
        single = _fresh_service(1, FakeClock())
        batched = _fresh_service(16, FakeClock())
        for batch in _request_stream(9, sessions=4, rounds=6):
            single.decide_many(batch)
            batched.decide_many(batch)
        for sid in ("s0", "s1", "s2", "s3"):
            e1, _ = single.sessions.checkout(sid, lambda: None)
            e2, _ = batched.sessions.checkout(sid, lambda: None)
            assert e1.state.last_fed == e2.state.last_fed
            assert e1.state.decisions == e2.state.decisions
            single.sessions.checkin(e1)
            batched.sessions.checkin(e2)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 20),
        chunk=st.sampled_from([2, 5, 16]),
        n=st.integers(min_value=1, max_value=24),
    )
    def test_property_columns_chunk_invariant(self, seed, chunk, n):
        """decide_columns output is invariant to the tier-0 chunk size."""
        rng = np.random.default_rng(seed)
        ids = [f"h{i % 7}" for i in range(n)]
        tputs = rng.uniform(-1.0, 15.0, size=n)
        bufs = rng.uniform(0.0, 20.0, size=n)
        prevs = rng.integers(-1, 7, size=n)
        base = _fresh_service(1, FakeClock())
        test = _fresh_service(chunk, FakeClock())
        r1 = base.decide_columns(ids, tputs, bufs, prevs)
        r2 = test.decide_columns(ids, tputs, bufs, prevs)
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a, b)
