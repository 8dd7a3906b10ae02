"""Tests for the multi-session decision service (repro.service)."""

import dataclasses
import json
import math
import threading

import pytest

from repro.service import (
    TIER_RULE,
    TIER_SOLVER,
    TIER_TABLE,
    AdaptiveGate,
    BreakerState,
    CircuitBreaker,
    DecisionService,
    DegradationLadder,
    LatencyRing,
    SessionTable,
    SoakConfig,
    StatsCounters,
    TierDecision,
    run_soak,
)
from repro.sim.player import PlayerObservation
from repro.sim.video import BitrateLadder


class FakeClock:
    """A controllable monotonic clock."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def clock():
    return FakeClock()


def make_obs(ladder, buffer_level=8.0, prev=1, max_buffer=20.0):
    return PlayerObservation(
        wall_time=10.0,
        segment_index=5,
        buffer_level=buffer_level,
        max_buffer=max_buffer,
        previous_quality=prev,
        ladder=ladder,
        history=(),
    )


# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_successes=0)

    def test_trips_after_consecutive_failures(self, clock):
        b = CircuitBreaker(failure_threshold=3, cooldown=1.0, clock=clock)
        for _ in range(2):
            b.record_failure()
        assert b.state is BreakerState.CLOSED
        b.record_failure()
        assert b.state is BreakerState.OPEN
        assert not b.allow()
        assert b.times_opened == 1

    def test_success_resets_the_streak(self, clock):
        b = CircuitBreaker(failure_threshold=3, cooldown=1.0, clock=clock)
        b.record_failure()
        b.record_failure()
        b.record_success()
        b.record_failure()
        b.record_failure()
        assert b.state is BreakerState.CLOSED

    def test_cooldown_half_opens_then_closes(self, clock):
        b = CircuitBreaker(failure_threshold=1, cooldown=2.0, clock=clock)
        b.record_failure()
        assert b.state is BreakerState.OPEN
        clock.advance(1.9)
        assert not b.allow()
        clock.advance(0.2)
        assert b.allow()  # promotes to half-open
        assert b.state is BreakerState.HALF_OPEN
        b.record_success()
        assert b.state is BreakerState.CLOSED
        assert b.full_cycles() == 1

    def test_probe_failure_reopens(self, clock):
        b = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
        b.record_failure()
        clock.advance(1.1)
        assert b.allow()
        b.record_failure()
        assert b.state is BreakerState.OPEN
        assert b.times_opened == 2
        # the interrupted cycle does not count
        assert b.full_cycles() == 0
        clock.advance(1.1)
        assert b.allow()
        b.record_success()
        assert b.full_cycles() == 1

    def test_half_open_requires_enough_probes(self, clock):
        b = CircuitBreaker(
            failure_threshold=1, cooldown=1.0, half_open_successes=2,
            clock=clock,
        )
        b.record_failure()
        clock.advance(1.1)
        assert b.allow()
        b.record_success()
        assert b.state is BreakerState.HALF_OPEN
        b.record_success()
        assert b.state is BreakerState.CLOSED

    def test_thread_safety_smoke(self):
        b = CircuitBreaker(failure_threshold=5, cooldown=0.01)
        def hammer():
            for _ in range(500):
                if b.allow():
                    b.record_failure()
                b.record_success()
        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert b.failures_recorded > 0


# ----------------------------------------------------------------------
class TestDegradationLadder:
    def make(self, clock, ladder, tier1=None, deadline=0.1, **kwargs):
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown=1.0, clock=clock
        )
        default_tier1 = tier1 if tier1 is not None else (lambda obs: 0)
        return DegradationLadder(
            tier1=default_tier1,
            tier2=lambda obs: 0,
            breaker=breaker,
            deadline=deadline,
            clock=clock,
            **kwargs,
        )

    def test_validation(self, clock, ladder):
        breaker = CircuitBreaker(clock=clock)
        with pytest.raises(ValueError):
            DegradationLadder(None, lambda o: 0, breaker, deadline=0.0)
        with pytest.raises(ValueError):
            DegradationLadder(
                None, lambda o: 0, breaker, deadline=0.1,
                tier0_budget=0.01, tier1_budget=0.02,
            )

    def test_healthy_solver_answers_tier0(self, clock, ladder):
        lad = self.make(clock, ladder)
        obs = make_obs(ladder)
        d = lad.decide(obs, lambda o: 2, clock.t + 0.1)
        assert d == TierDecision(quality=2, tier=TIER_SOLVER)

    def test_solver_exception_degrades_to_table(self, clock, ladder):
        lad = self.make(clock, ladder, tier1=lambda obs: 1)
        def boom(obs):
            raise RuntimeError("solver crashed")
        d = lad.decide(make_obs(ladder), boom, clock.t + 0.1)
        assert d.tier == TIER_TABLE
        assert d.quality == 1
        assert d.solver_error
        assert lad.breaker.failures_recorded == 1

    def test_nan_answer_is_a_solver_error(self, clock, ladder):
        lad = self.make(clock, ladder, tier1=lambda obs: 1)
        d = lad.decide(make_obs(ladder), lambda o: float("nan"), clock.t + 0.1)
        assert d.tier == TIER_TABLE
        assert d.solver_error

    def test_out_of_range_answer_is_a_solver_error(self, clock, ladder):
        lad = self.make(clock, ladder, tier1=lambda obs: 1)
        d = lad.decide(make_obs(ladder), lambda o: 99, clock.t + 0.1)
        assert d.tier == TIER_TABLE
        assert d.solver_error

    def test_slow_solver_overruns_and_charges_breaker(self, clock, ladder):
        lad = self.make(clock, ladder, deadline=0.1)
        def slow(obs):
            clock.advance(0.2)  # past the deadline
            return 1
        d = lad.decide(make_obs(ladder), slow, clock.t + 0.1)
        # the work is spent: the answer is served, flagged as overrun
        assert d.tier == TIER_SOLVER
        assert d.quality == 1
        assert d.overran
        assert lad.breaker.failures_recorded == 1

    def test_defer_holds_previous_rung(self, clock, ladder):
        lad = self.make(clock, ladder)
        d = lad.decide(make_obs(ladder, prev=2), lambda o: None, clock.t + 0.1)
        assert d.tier == TIER_SOLVER
        assert d.quality == 2
        assert d.deferred
        # a defer is a legitimate answer, not a breaker failure
        assert lad.breaker.failures_recorded == 0

    def test_defer_without_history_descends_without_blame(self, clock, ladder):
        lad = self.make(clock, ladder, tier1=lambda obs: 1)
        d = lad.decide(
            make_obs(ladder, prev=None), lambda o: None, clock.t + 0.1
        )
        assert d.tier == TIER_TABLE
        assert not d.solver_error
        assert lad.breaker.failures_recorded == 0

    def test_no_budget_skips_solver(self, clock, ladder):
        lad = self.make(clock, ladder, tier1=lambda obs: 1, deadline=0.1)
        calls = []
        d = lad.decide(
            make_obs(ladder),
            lambda o: calls.append(1) or 0,
            clock.t + 0.01,  # 10 ms left < tier0_budget (50 ms)
        )
        assert not calls
        assert d.tier == TIER_TABLE

    def test_exhausted_budget_falls_to_floor(self, clock, ladder):
        lad = self.make(clock, ladder, deadline=0.1)
        d = lad.decide(make_obs(ladder), lambda o: 0, clock.t - 1.0)
        assert d.tier == TIER_RULE

    def test_open_breaker_forces_tier1(self, clock, ladder):
        lad = self.make(clock, ladder, tier1=lambda obs: 1)
        for _ in range(3):
            lad.breaker.record_failure()
        calls = []
        d = lad.decide(
            make_obs(ladder), lambda o: calls.append(1) or 0, clock.t + 0.1
        )
        assert not calls
        assert d.tier == TIER_TABLE

    def test_tier1_exception_falls_to_floor(self, clock, ladder):
        def bad_table(obs):
            raise KeyError("table broken")
        lad = self.make(clock, ladder, tier1=bad_table)
        def boom(obs):
            raise RuntimeError("down")
        d = lad.decide(make_obs(ladder), boom, clock.t + 0.1)
        assert d.tier == TIER_RULE

    def test_floor_is_total_even_when_tier2_raises(self, clock, ladder):
        breaker = CircuitBreaker(clock=clock)
        def bad_rule(obs):
            raise RuntimeError("rule broken")
        lad = DegradationLadder(
            None, bad_rule, breaker, deadline=0.1, clock=clock
        )
        assert lad.floor_quality(make_obs(ladder)) == 0

    def test_disabled_tier1_jumps_to_floor(self, clock, ladder):
        breaker = CircuitBreaker(clock=clock)
        lad = DegradationLadder(
            None, lambda o: 0, breaker, deadline=0.1, clock=clock
        )
        def boom(obs):
            raise RuntimeError("down")
        d = lad.decide(make_obs(ladder), boom, clock.t + 0.1)
        assert d.tier == TIER_RULE


# ----------------------------------------------------------------------
class TestAdmission:
    def test_gate_validation(self):
        with pytest.raises(ValueError):
            AdaptiveGate(0, deadline=0.1)

    def test_gate_sheds_beyond_capacity(self):
        gate = AdaptiveGate(2, deadline=0.1)
        assert gate.try_acquire()
        assert gate.try_acquire()
        assert not gate.try_acquire()
        assert gate.shed == 1
        gate.release()
        assert gate.try_acquire()
        assert gate.max_in_flight_seen == 2

    def test_gate_over_release_raises(self):
        gate = AdaptiveGate(1, deadline=0.1)
        with pytest.raises(RuntimeError):
            gate.release()

    def test_table_validation(self):
        with pytest.raises(ValueError):
            SessionTable(0)

    def test_table_lru_eviction(self):
        table = SessionTable(2)
        for sid in ("a", "b", "c"):
            entry, created = table.checkout(sid, dict)
            assert created
            table.checkin(entry)
        assert len(table) == 2
        assert "a" not in table and "b" in table and "c" in table
        assert table.evicted == 1
        assert table.created == 3

    def test_table_touch_refreshes_lru_order(self):
        table = SessionTable(2)
        for sid in ("a", "b"):
            entry, _ = table.checkout(sid, dict)
            table.checkin(entry)
        entry, created = table.checkout("a", dict)  # refresh a
        assert not created
        table.checkin(entry)
        entry, _ = table.checkout("c", dict)  # evicts b, not a
        table.checkin(entry)
        assert "a" in table and "b" not in table

    def test_table_never_evicts_in_use_entries(self):
        table = SessionTable(1)
        busy, _ = table.checkout("busy", dict)
        extra, _ = table.checkout("extra", dict)
        # both in use: nothing evictable, cap temporarily exceeded
        assert len(table) == 2
        table.checkin(extra)  # extra is now idle and over cap: evicted
        assert "busy" in table and "extra" not in table
        table.checkin(busy)
        assert "busy" in table

    def test_table_state_preserved_across_checkouts(self):
        table = SessionTable(4)
        entry, _ = table.checkout("s", dict)
        entry.state["n"] = 1
        table.checkin(entry)
        entry2, created = table.checkout("s", dict)
        assert not created
        assert entry2.state["n"] == 1
        table.checkin(entry2)


# ----------------------------------------------------------------------
class TestHealth:
    def test_ring_validation(self):
        with pytest.raises(ValueError):
            LatencyRing(0)

    def test_ring_percentiles(self):
        ring = LatencyRing(capacity=100)
        for i in range(1, 101):
            ring.record(i / 1000.0)
        p = ring.percentiles()
        assert p["p50"] == pytest.approx(0.051)
        assert p["p99"] == pytest.approx(0.100)
        assert ring.max_seen == pytest.approx(0.100)

    def test_ring_keeps_recent_window_only(self):
        ring = LatencyRing(capacity=4)
        for v in (1.0, 1.0, 1.0, 1.0, 0.002, 0.002, 0.002, 0.002):
            ring.record(v)
        assert ring.percentiles()["p99"] == pytest.approx(0.002)
        assert len(ring) == 4
        assert ring.total_recorded == 8
        assert ring.max_seen == 1.0  # lifetime max survives eviction

    def test_empty_ring_reports_zeros(self):
        ring = LatencyRing()
        assert ring.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_stats_snapshot_roundtrip(self):
        counters = StatsCounters()
        counters.record_tier(TierDecision(quality=1, tier=TIER_TABLE))
        counters.record_tier(
            TierDecision(quality=0, tier=TIER_RULE, solver_error=True)
        )
        counters.bump("shed")
        snap = counters.snapshot()
        assert snap.decisions == 2
        assert snap.tier1_decisions == 1
        assert snap.tier2_decisions == 1
        assert snap.solver_errors == 1
        assert snap.shed == 1
        assert snap.degraded_decisions == 2
        assert snap.shed_rate() == pytest.approx(0.5)

    def test_record_tiers_counts_each_answer_as_record_tier_does(self):
        answers = [
            TierDecision(quality=2, tier=TIER_SOLVER),
            TierDecision(quality=1, tier=TIER_SOLVER, deferred=True),
            TierDecision(quality=3, tier=TIER_SOLVER, overran=True),
            TierDecision(quality=1, tier=TIER_TABLE, solver_error=True),
            TierDecision(quality=0, tier=TIER_RULE, deferred=True,
                         overran=True),
        ]
        one_by_one, together = StatsCounters(), StatsCounters()
        for answer in answers:
            one_by_one.record_tier(answer)
        together.record_tiers(answers)
        together.record_tiers([])
        assert together.snapshot() == one_by_one.snapshot()
        assert together.snapshot().tier0_decisions == 3

    def test_health_snapshot_json(self, ladder):
        service = DecisionService(ladder, 20.0, table_points=0)
        service.decide("s", make_obs(ladder))
        payload = json.loads(service.health().to_json())
        assert payload["live"] is True
        assert payload["ready"] is True
        assert payload["breaker_state"] == "closed"
        assert payload["stats"]["decisions"] == 1
        assert set(payload["latency"]) == {"p50", "p95", "p99"}

    def test_snapshot_surfaces_evictions_and_sheds_top_level(self, ladder):
        """Fleet rollups read ``evictions``/``sheds`` without digging into
        the stats block — they must mirror the underlying counters."""
        service = DecisionService(
            ladder, 20.0, table_points=0, max_sessions=2, max_in_flight=1
        )
        for i in range(5):
            service.decide(f"s{i}", make_obs(ladder))  # 3 LRU evictions
        assert service.gate.try_acquire()
        service.decide("overload", make_obs(ladder))  # 1 shed
        service.gate.release()
        snapshot = service.health()
        assert snapshot.evictions == 3
        assert snapshot.evictions == snapshot.stats.sessions_evicted
        assert snapshot.sheds == 1
        assert snapshot.sheds == snapshot.stats.shed
        payload = json.loads(snapshot.to_json())
        assert payload["evictions"] == 3
        assert payload["sheds"] == 1


# ----------------------------------------------------------------------
class TestDecisionService:
    def test_validation(self, ladder):
        with pytest.raises(ValueError):
            DecisionService(ladder, 20.0, deadline=0.0, table_points=0)

    def test_decides_in_range(self, ladder):
        service = DecisionService(ladder, 20.0, table_points=8)
        d = service.decide("s1", make_obs(ladder))
        assert 0 <= d.quality < ladder.levels
        assert d.tier == TIER_SOLVER
        assert not d.shed

    def test_session_state_is_reused(self, ladder):
        service = DecisionService(ladder, 20.0, table_points=0)
        service.decide("s1", make_obs(ladder))
        service.decide("s1", make_obs(ladder))
        service.decide("s2", make_obs(ladder))
        stats = service.stats()
        assert stats.decisions == 3
        assert stats.sessions_created == 2
        assert stats.sessions_active == 2

    def test_corrupt_observation_is_sanitized(self, ladder):
        service = DecisionService(ladder, 20.0, table_points=0)
        obs = PlayerObservation(
            wall_time=float("nan"),
            segment_index=0,
            buffer_level=float("inf"),
            max_buffer=20.0,
            previous_quality=None,
            ladder=ladder,
            history=(),
        )
        d = service.decide("bad", obs)
        assert d.sanitized
        assert 0 <= d.quality < ladder.levels
        assert service.stats().sanitized_observations == 1

    def test_crashing_solver_never_escapes(self, ladder):
        def factory(session_id, controller):
            def boom(obs):
                raise RuntimeError("solver down")
            return boom
        service = DecisionService(
            ladder, 20.0, table_points=8, tier0_factory=factory
        )
        for i in range(8):
            d = service.decide("s", make_obs(ladder))
            assert 0 <= d.quality < ladder.levels
            assert d.tier != TIER_SOLVER
        stats = service.stats()
        assert stats.solver_errors > 0
        assert service.breaker.times_opened >= 1

    def test_lru_eviction_under_many_sessions(self, ladder):
        service = DecisionService(ladder, 20.0, table_points=0, max_sessions=4)
        for i in range(10):
            service.decide(f"s{i}", make_obs(ladder))
        stats = service.stats()
        assert stats.sessions_active == 4
        assert stats.sessions_evicted == 6
        assert stats.max_sessions_seen == 4

    def test_shed_when_slots_exhausted(self, ladder):
        service = DecisionService(
            ladder, 20.0, table_points=0, max_in_flight=1
        )
        # occupy the only slot by hand, as a stuck decision would
        assert service.gate.try_acquire()
        d = service.decide("s", make_obs(ladder))
        assert d.shed
        assert d.tier == TIER_RULE
        assert 0 <= d.quality < ladder.levels
        service.gate.release()
        assert not service.decide("s", make_obs(ladder)).shed

    def test_history_fed_once(self, ladder):
        from repro.prediction.base import ThroughputSample

        service = DecisionService(ladder, 20.0, table_points=0)
        sample = ThroughputSample(
            start=1.0, duration=1.0, size=4.0, throughput=4.0
        )
        obs = PlayerObservation(
            wall_time=4.0,
            segment_index=2,
            buffer_level=8.0,
            max_buffer=20.0,
            previous_quality=1,
            ladder=ladder,
            history=(sample,),
        )
        service.decide("s", obs)
        service.decide("s", obs)  # same history: must not double-feed
        entry = service.sessions.peek("s")
        assert entry is not None
        assert entry.state.last_fed == 1.0


# ----------------------------------------------------------------------
class TestMalformedPreviousRung:
    """A previous rung the ladder cannot hold is repaired to "no previous
    rung" like any other corrupt field, instead of reaching the solver."""

    BAD_RUNGS = (99, 6, -2, 2.5, 99)

    @staticmethod
    def make_service():
        from repro.sim.video import youtube_4k_ladder

        return DecisionService(
            youtube_4k_ladder(), 20.0, table_points=8, clock=FakeClock()
        )

    @staticmethod
    def obs(ladder, prev, segment=5):
        from repro.prediction.base import ThroughputSample

        tput = 2.0 + 1.5 * segment
        return PlayerObservation(
            wall_time=2.0 * segment,
            segment_index=segment,
            buffer_level=4.0 + segment,
            max_buffer=20.0,
            previous_quality=prev,
            ladder=ladder,
            history=(ThroughputSample(
                start=2.0 * segment - 1.0, duration=1.0, size=tput,
                throughput=tput,
            ),),
        )

    def test_decide_answers_as_if_there_were_no_previous_rung(self):
        service, reference = self.make_service(), self.make_service()
        ladder = service.ladder
        for i, bad in enumerate(self.BAD_RUNGS):
            got = service.decide(f"s{i}", self.obs(ladder, bad, segment=i))
            want = reference.decide(f"s{i}", self.obs(ladder, None, segment=i))
            assert not want.sanitized
            assert got == dataclasses.replace(want, sanitized=True)
            assert got.tier == TIER_SOLVER and not got.solver_error
        assert service.breaker.state is BreakerState.CLOSED
        assert service.stats().sanitized_observations == len(self.BAD_RUNGS)

    def test_one_bad_row_leaves_the_rest_of_the_batch_alone(self):
        ladder = self.make_service().ladder
        good = [
            (f"g{i}", self.obs(ladder, i % ladder.levels, segment=i))
            for i in range(7)
        ]
        want = self.make_service().decide_many(good)
        for bad in set(self.BAD_RUNGS):
            batch = good[:3] + [("bad", self.obs(ladder, bad))] + good[3:]
            got = self.make_service().decide_many(batch)
            assert all(0 <= d.quality < ladder.levels for d in got)
            assert got[3].sanitized and not got[3].solver_error
            assert got[:3] + got[4:] == want


# ----------------------------------------------------------------------
class TestSoak:
    def test_small_chaos_soak_holds_invariants(self):
        cfg = SoakConfig(
            sessions=40,
            segments_per_session=10,
            threads=6,
            seed=3,
            burst_at=10,
            table_points=8,
            max_sessions=16,
            max_in_flight=2,
            think_seconds=0.0,
            breaker_cooldown=0.1,
        )
        report = run_soak(cfg)
        assert report.passed, report.violations
        stats = report.snapshot.stats
        assert stats.decisions == report.decisions
        assert stats.tier1_decisions > 0
        assert stats.tier2_decisions > 0
        assert stats.sanitized_observations > 0
        assert stats.max_sessions_seen <= cfg.max_sessions
        assert report.snapshot.breaker_full_cycles >= 1
        assert report.snapshot.to_json()  # serializable

    def test_clean_serve_mode_stays_on_tier0(self):
        cfg = SoakConfig(
            sessions=20,
            segments_per_session=8,
            threads=4,
            chaos=False,
            max_in_flight=8,
            table_points=0,
            max_sessions=32,
        )
        report = run_soak(cfg)
        assert report.passed, report.violations
        stats = report.snapshot.stats
        assert stats.solver_errors == 0
        assert stats.sanitized_observations == 0
        assert stats.tier0_decisions > 0.9 * stats.decisions
        assert report.snapshot.breaker_state == "closed"

    def test_rollout_soak_rolls_back_poisoned_canary(self):
        cfg = SoakConfig(
            shards=2,
            rollout=True,
            sessions=24,
            segments_per_session=8,
            threads=4,
            seed=7,
            table_points=8,
            deadline=0.25,
        )
        report = run_soak(cfg)
        assert report.passed, report.violations
        rollout = report.rollout_report
        assert rollout.rolled_back and not rollout.committed
        assert report.fleet.worker_restarts >= 1
        assert all(
            v == rollout.previous_version for v in report.fleet.table_versions
        )

    def test_fault_threads_end_with_the_traffic(self):
        # The rollout never starts, so nothing ever reaches probation: the
        # fault threads must still return with the traffic.
        cfg = SoakConfig(
            shards=2,
            rollout=True,
            rollout_at=10**6,
            sessions=12,
            segments_per_session=4,
            threads=2,
            table_points=6,
            deadline=0.25,
        )
        report = run_soak(cfg)
        assert any(v.startswith("rollout never ran") for v in report.violations)
        alive = [t.name for t in threading.enumerate()
                 if t.name.startswith("soak")]
        assert alive == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fault_intensity": -0.1},
            {"fault_intensity": 1.5},
            {"shards": -1},
            {"rollout": True, "shards": 1},
            {"tier0_chunk": 0},
            {"batch_window": -0.01, "chaos": False},
            {"batch_window": 0.01},
            {"batch_window": 0.01, "chaos": False, "shards": 2},
        ],
    )
    def test_config_rejects_invalid_combinations(self, kwargs):
        with pytest.raises(ValueError):
            SoakConfig(**kwargs)


# ----------------------------------------------------------------------
class TestAdaptiveGate:
    def make(self, **kw):
        from repro.service import AdaptiveGate

        kw.setdefault("max_in_flight", 8)
        kw.setdefault("deadline", 0.1)
        kw.setdefault("window", 4)
        return AdaptiveGate(**kw)

    def test_validation(self):
        from repro.service import AdaptiveGate

        with pytest.raises(ValueError):
            AdaptiveGate(4, deadline=0.1, min_in_flight=5)
        with pytest.raises(ValueError):
            AdaptiveGate(4, deadline=0.0)
        with pytest.raises(ValueError):
            AdaptiveGate(4, deadline=0.1, decrease=1.5)
        with pytest.raises(ValueError):
            AdaptiveGate(4, deadline=0.1, new_headroom=0.0)

    def test_limit_starts_at_the_ceiling(self):
        gate = self.make()
        assert gate.limit == 8
        # Clean load behaves exactly like the fixed gate.
        assert all(gate.try_acquire() for _ in range(8))
        assert not gate.try_acquire()
        assert gate.shed == 1

    def test_slow_windows_cut_the_limit_multiplicatively(self):
        gate = self.make()
        for _ in range(4):
            gate.observe(0.2)  # p99 well past the deadline
        assert gate.limit == 4
        for _ in range(4):
            gate.observe(0.2)
        assert gate.limit == 2
        snapshot = gate.snapshot()
        assert snapshot["limit_decreases"] == 2
        assert snapshot["min_limit_seen"] == 2

    def test_decrease_stops_at_the_floor(self):
        gate = self.make(min_in_flight=2)
        for _ in range(40):
            gate.observe(0.2)
        assert gate.limit == 2

    def test_fast_windows_recover_additively(self):
        gate = self.make()
        for _ in range(8):
            gate.observe(0.2)  # two bad windows: 8 -> 4 -> 2
        assert gate.limit == 2
        for _ in range(4):
            gate.observe(0.001)  # one good window: +1
        assert gate.limit == 3
        assert gate.snapshot()["limit_increases"] == 1

    def test_recovery_never_exceeds_the_ceiling(self):
        gate = self.make()
        for _ in range(100):
            gate.observe(0.001)
        assert gate.limit == 8
        assert gate.snapshot()["limit_increases"] == 0

    def test_mid_band_latencies_hold_the_limit(self):
        gate = self.make()
        for _ in range(8):
            gate.observe(0.07)  # between low (0.05) and high (0.1)
        snapshot = gate.snapshot()
        assert gate.limit == 8
        assert snapshot["limit_increases"] == 0
        assert snapshot["limit_decreases"] == 0

    def test_new_arrivals_get_less_headroom(self):
        gate = self.make(max_in_flight=4, new_headroom=0.5)
        assert gate.try_acquire(established=False)
        assert gate.try_acquire(established=False)
        # 0.5 * 4 = 2 slots for new arrivals; established still fit.
        assert not gate.try_acquire(established=False)
        assert gate.try_acquire(established=True)
        snapshot = gate.snapshot()
        assert snapshot["shed"] == 1
        assert snapshot["shed_new"] == 1


class TestRetryBudget:
    def make(self, **kw):
        from repro.service import RetryBudget

        return RetryBudget(**kw)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(ratio=0.0)
        with pytest.raises(ValueError):
            self.make(burst=0.5)

    def test_starts_full_so_isolated_failures_retry(self):
        budget = self.make(ratio=0.1, burst=2.0)
        assert budget.try_retry()
        assert budget.try_retry()
        assert not budget.try_retry()
        snapshot = budget.snapshot()
        assert snapshot["retries_granted"] == 2
        assert snapshot["retries_denied"] == 1

    def test_requests_refill_at_the_ratio(self):
        budget = self.make(ratio=0.1, burst=1.0)
        assert budget.try_retry()
        assert not budget.try_retry()
        budget.record_request(count=9)
        assert not budget.try_retry()  # 0.9 tokens: not enough
        budget.record_request()
        assert budget.try_retry()  # 1.0 tokens

    def test_bucket_caps_at_burst(self):
        budget = self.make(ratio=0.5, burst=2.0)
        budget.record_request(count=1000)
        assert budget.tokens == 2.0

    def test_non_positive_deposits_ignored(self):
        budget = self.make(ratio=0.1, burst=1.0)
        before = budget.tokens
        budget.record_request(count=0)
        budget.record_request(count=-5)
        assert budget.tokens == before


# ----------------------------------------------------------------------
class TestTableSwap:
    def make_service(self, ladder, points=8):
        return DecisionService(
            ladder, 20.0, deadline=0.5, table_points=points
        )

    def test_set_table_swaps_tier1_in_place(self, ladder, tmp_path):
        from repro.core.lookup import DecisionTable

        service = self.make_service(ladder)
        assert service.table_version == 1
        path = tmp_path / "next.sodatbl"
        service.table.save_mmap(str(path), version=4)
        assert service.set_table(DecisionTable.load_mmap(str(path))) == 4
        assert service.table_version == 4
        decision = service.decide("s", make_obs(ladder))  # still serving
        assert 0 <= decision.quality < ladder.levels

    def test_set_table_none_disables_tier1(self, ladder):
        service = self.make_service(ladder)
        assert service.set_table(None) == 0
        assert service.table_version == 0
        assert service.degradation.tier1 is None
        decision = service.decide("s", make_obs(ladder))
        assert 0 <= decision.quality < ladder.levels

    def test_health_surfaces_table_version_and_admission(self, ladder):
        service = self.make_service(ladder)
        service.decide("s", make_obs(ladder))
        snapshot = service.health()
        assert snapshot.table_version == 1
        assert snapshot.admission["limit"] >= 1
        assert "shed_new" in snapshot.admission
        payload = json.loads(snapshot.to_json())
        assert payload["table_version"] == 1
        assert "admission" in payload
