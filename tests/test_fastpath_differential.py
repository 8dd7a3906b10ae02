"""Differential tests: the vectorized fast path vs the recursive reference.

Every test draws (ladder, horizon, buffer, prediction, anchor, caps) cases
from a seeded RNG and asserts the fast solvers commit the same rung, plan
the same sequence, and score the same objective (within the solver
tolerance) as ``solve_monotonic`` / ``solve_brute_force``.  Degenerate
shapes — K=1, single-rung ladders, infeasible states, the Figure 5 blank
region — get dedicated cases.
"""

import math
import random

import numpy as np
import pytest

from repro.core.fastpath import (
    PlanCache,
    monotone_candidate_count,
    monotone_candidates,
    product_candidates,
    solve_brute_force_fast,
    solve_monotonic_fast,
)
from repro.core.objective import SodaConfig
from repro.core.solver import _TOL, solve_brute_force, solve_monotonic
from repro.sim.video import BitrateLadder, youtube_4k_ladder

_LADDERS = [
    BitrateLadder([1.0, 3.0, 6.0], 2.0, name="three"),
    BitrateLadder([0.3, 0.8, 1.5, 2.8, 5.0, 9.0, 16.0], 2.0, name="seven"),
    BitrateLadder([2.5], 2.0, name="single"),
    youtube_4k_ladder(),
]


def _random_case(rng, ladder):
    """One random (cfg, omega, buffer, prev, caps) decision situation."""
    levels = ladder.levels
    horizon = rng.choice([1, 2, 3, 5])
    cfg = SodaConfig(
        horizon=horizon,
        beta=rng.choice([0.01, 0.05, 0.3]),
        gamma=rng.choice([10.0, 150.0]),
        epsilon=rng.choice([0.05, 1.0]),
        distortion=rng.choice(["log", "reciprocal"]),
        switch_event_cost=rng.choice([0.0, 0.08]),
    )
    buffer_level = rng.uniform(0.0, 30.0)
    max_buffer = rng.uniform(max(buffer_level, 5.0), 40.0)
    prev = rng.choice([None] + list(range(levels)))
    if rng.random() < 0.5:
        omega = float(rng.uniform(0.05, 25.0))
    else:
        omega = np.array([rng.uniform(0.05, 25.0) for _ in range(horizon)])
    first_cap = rng.choice([None, rng.randrange(levels)])
    terminal_weight = rng.choice([0.0, 0.5])
    return cfg, omega, buffer_level, max_buffer, prev, first_cap, terminal_weight


def _assert_plans_match(ref, fast, context):
    assert ref.quality == fast.quality, context
    assert ref.sequence == fast.sequence, context
    if math.isinf(ref.objective):
        assert math.isinf(fast.objective), context
    else:
        assert fast.objective == pytest.approx(ref.objective, abs=_TOL), context


class TestMonotonicDifferential:
    @pytest.mark.parametrize("ladder", _LADDERS, ids=lambda l: l.name)
    def test_randomized_cases_match_reference(self, ladder):
        rng = random.Random(1234)
        for i in range(300):
            cfg, omega, buf, maxbuf, prev, cap, tw = _random_case(rng, ladder)
            ref = solve_monotonic(
                omega, buf, prev, ladder, cfg, maxbuf,
                first_cap=cap, terminal_weight=tw,
            )
            fast = solve_monotonic_fast(
                omega, buf, prev, ladder, cfg, maxbuf,
                first_cap=cap, terminal_weight=tw,
            )
            _assert_plans_match(ref, fast, f"{ladder.name} case {i}")

    def test_infeasible_blank_region(self):
        """Throughput far above the ladder: every plan overflows the buffer
        (the Figure 5 blank region) and both backends report infeasible."""
        ladder = _LADDERS[0]
        cfg = SodaConfig(horizon=5)
        for omega in (200.0, np.full(5, 500.0)):
            ref = solve_monotonic(omega, 19.5, 1, ladder, cfg, 20.0)
            fast = solve_monotonic_fast(omega, 19.5, 1, ladder, cfg, 20.0)
            assert ref.quality is None and fast.quality is None
            assert math.isinf(ref.objective) and math.isinf(fast.objective)

    def test_underflow_infeasible(self):
        """Network too slow for any plan: both report infeasible."""
        ladder = _LADDERS[1]
        cfg = SodaConfig(horizon=5)
        ref = solve_monotonic(0.01, 0.2, None, ladder, cfg, 25.0)
        fast = solve_monotonic_fast(0.01, 0.2, None, ladder, cfg, 25.0)
        assert ref.quality is None and fast.quality is None

    def test_k1_and_single_rung(self):
        cfg1 = SodaConfig(horizon=1)
        single = _LADDERS[2]
        for ladder in (_LADDERS[0], single):
            ref = solve_monotonic(4.0, 6.0, None, ladder, cfg1, 20.0)
            fast = solve_monotonic_fast(4.0, 6.0, None, ladder, cfg1, 20.0)
            _assert_plans_match(ref, fast, ladder.name)
        ref = solve_monotonic(4.0, 6.0, 0, single, SodaConfig(horizon=5), 20.0)
        fast = solve_monotonic_fast(4.0, 6.0, 0, single, SodaConfig(horizon=5), 20.0)
        _assert_plans_match(ref, fast, "single rung K=5")

    def test_nonfinite_predictions_are_infeasible(self):
        ladder = _LADDERS[1]
        cfg = SodaConfig(horizon=5)
        for omega in (np.full(5, float("nan")), np.full(5, float("inf"))):
            ref = solve_monotonic(omega, 8.0, 2, ladder, cfg, 25.0)
            fast = solve_monotonic_fast(omega, 8.0, 2, ladder, cfg, 25.0)
            assert ref.quality is None and fast.quality is None

    def test_validation_matches_reference(self):
        ladder = _LADDERS[0]
        cfg = SodaConfig(horizon=3)
        for solver in (solve_monotonic, solve_monotonic_fast):
            with pytest.raises(ValueError):
                solver(np.array([1.0, 2.0]), 5.0, None, ladder, cfg, 20.0)
            with pytest.raises(ValueError):
                solver(np.array([1.0, -2.0, 1.0]), 5.0, None, ladder, cfg, 20.0)


class TestBruteForceDifferential:
    def test_randomized_cases_match_reference(self):
        rng = random.Random(99)
        for ladder in _LADDERS[:3]:
            for i in range(120):
                cfg, omega, buf, maxbuf, prev, cap, tw = _random_case(rng, ladder)
                if ladder.levels ** cfg.horizon > 50_000:
                    continue
                ref = solve_brute_force(
                    omega, buf, prev, ladder, cfg, maxbuf,
                    first_cap=cap, terminal_weight=tw,
                )
                fast = solve_brute_force_fast(
                    omega, buf, prev, ladder, cfg, maxbuf,
                    first_cap=cap, terminal_weight=tw,
                )
                _assert_plans_match(ref, fast, f"{ladder.name} case {i}")

    def test_brute_never_worse_than_monotonic(self):
        """Exhaustive search dominates Algorithm 1 on the fast path too."""
        rng = random.Random(5)
        ladder = _LADDERS[0]
        for _ in range(60):
            cfg, omega, buf, maxbuf, prev, cap, tw = _random_case(rng, ladder)
            mono = solve_monotonic_fast(
                omega, buf, prev, ladder, cfg, maxbuf,
                first_cap=cap, terminal_weight=tw,
            )
            brute = solve_brute_force_fast(
                omega, buf, prev, ladder, cfg, maxbuf,
                first_cap=cap, terminal_weight=tw,
            )
            assert brute.objective <= mono.objective + _TOL


class TestEvaluationCounts:
    """Satellite: PlanResult.evaluations stays meaningful on the fast path."""

    def test_candidate_count_formula(self):
        """The fast path scores exactly the §5.3 candidate set: from anchor
        ``a``, C(L-a+K-1, K) up-sequences plus C(a+K, K) down-sequences
        (the constant plan counted in both, as the reference searches it
        twice) — bounded by the paper's C(|R|+K, K)."""
        ladder = _LADDERS[1]
        L = ladder.levels
        for K in (1, 2, 3, 5):
            cfg = SodaConfig(horizon=K)
            for prev in [None] + list(range(L)):
                plan = solve_monotonic_fast(3.0, 8.0, prev, ladder, cfg, 25.0)
                expected = monotone_candidate_count(L, K, prev)
                assert plan.evaluations == expected
                if prev is not None:
                    up = math.comb(L - prev + K - 1, K)
                    down = math.comb(prev + K, K)
                    assert expected == up + down
                    assert expected <= math.comb(L + K, K)

    def test_brute_force_counts_full_product(self):
        ladder = _LADDERS[0]
        cfg = SodaConfig(horizon=3, use_brute_force=True)
        plan = solve_brute_force_fast(3.0, 8.0, 1, ladder, cfg, 20.0)
        assert plan.evaluations == ladder.levels ** 3

    def test_first_cap_shrinks_count(self):
        ladder = _LADDERS[1]
        cfg = SodaConfig(horizon=3)
        free = solve_monotonic_fast(3.0, 8.0, 3, ladder, cfg, 25.0)
        capped = solve_monotonic_fast(
            3.0, 8.0, 3, ladder, cfg, 25.0, first_cap=1
        )
        assert 0 < capped.evaluations < free.evaluations

    def test_enumeration_shapes(self):
        assert monotone_candidates(4, 3).shape == (math.comb(4 + 3 - 1, 3), 3)
        assert product_candidates(3, 4).shape == (81, 4)
        with pytest.raises(ValueError):
            monotone_candidates(0, 3)
        with pytest.raises(ValueError):
            product_candidates(40, 5)


class TestPlanCache:
    def test_hit_and_miss_counters(self):
        cache = PlanCache(buffer_quantum=0.1, tput_quantum=0.1, max_entries=8)
        ladder = _LADDERS[0]
        omega = np.full(3, 4.0)
        key = cache.key(omega, 5.02, 1, ladder, 20.0, 2.0, None)
        assert cache.get(key) is None
        plan = solve_monotonic_fast(omega, 5.02, 1, ladder, SodaConfig(horizon=3), 20.0)
        cache.put(key, plan)
        # a nearby state within half a quantum maps to the same key
        near = cache.key(omega + 0.01, 5.04, 1, ladder, 20.0, 2.0, None)
        assert near == key
        assert cache.get(near) is plan
        assert (cache.hits, cache.misses) == (1, 1)
        cache.clear()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_geometry_changes_miss(self):
        cache = PlanCache()
        ladder = _LADDERS[0]
        omega = np.full(3, 4.0)
        base = cache.key(omega, 5.0, 1, ladder, 20.0, 2.0, None)
        assert cache.key(omega, 5.0, 2, ladder, 20.0, 2.0, None) != base
        assert cache.key(omega, 5.0, 1, ladder, 25.0, 2.0, None) != base
        assert cache.key(omega, 5.0, 1, ladder, 20.0, 2.0, 1) != base
        assert cache.key(omega, 5.0, 1, _LADDERS[1], 20.0, 2.0, None) != base

    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.put(("c",), 3)
        assert len(cache) == 2
        assert cache.get(("a",)) is None  # oldest evicted
        assert cache.get(("c",)) == 3

    def test_nonfinite_state_does_not_crash(self):
        cache = PlanCache()
        ladder = _LADDERS[0]
        omega = np.array([float("nan"), 2.0, float("inf")])
        key = cache.key(omega, float("nan"), 1, ladder, 20.0, 2.0, None)
        assert cache.get(key) is None

    def test_controller_reuses_plans_and_resets(self):
        from repro.core.controller import SodaController

        ladder = _LADDERS[1]
        controller = SodaController(config=SodaConfig(horizon=5))
        for _ in range(3):
            controller.decide(4.0, 8.0, 2, ladder, 25.0)
        assert (controller.plan_cache_hits, controller.plan_cache_misses) == (2, 1)
        controller.reset()
        assert (controller.plan_cache_hits, controller.plan_cache_misses) == (0, 0)

    def test_reference_backend_has_no_cache(self):
        from repro.core.controller import SodaController

        controller = SodaController(
            config=SodaConfig(solver_backend="reference")
        )
        controller.decide(4.0, 8.0, 2, _LADDERS[1], 25.0)
        controller.decide(4.0, 8.0, 2, _LADDERS[1], 25.0)
        assert (controller.plan_cache_hits, controller.plan_cache_misses) == (0, 0)
