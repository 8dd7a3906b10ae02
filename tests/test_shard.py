"""The sharded decision service: supervision, re-homing, drain.

These tests run the real thing — forked worker processes behind the
front end, a decision table published through a memory-mapped file, a
supervisor heartbeating the fleet — and exercise the robustness story
end to end: a worker SIGKILLed mid-serving must cost its shard only
(sessions re-home onto survivors, the supervisor restarts the corpse),
and a drained fleet must keep answering from the floor rather than
dropping requests.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.controller import SodaController
from repro.prediction.base import ThroughputSample
from repro.service import DecisionService, ShardedDecisionService
from repro.service.service import FLAG_FIELDS, FLAG_SHED, pack_columns
from repro.service.shard import (
    FleetHealth,
    _roll_up,
    decode_observation,
    encode_observation,
)
from repro.sim.player import PlayerObservation
from repro.sim.video import BitrateLadder

LADDER = BitrateLadder([1.0, 2.5, 5.0, 8.0], segment_duration=2.0,
                       name="shard-test")
MAX_BUFFER = 25.0
DEADLINE = 0.25


def make_obs(segment=3, buffer_level=12.0, prev=2, tput=4.0e6):
    history = ()
    if tput is not None:
        history = (
            ThroughputSample(start=0.0, duration=1.0, size=tput,
                             throughput=tput),
        )
    return PlayerObservation(
        wall_time=2.0 * segment,
        segment_index=segment,
        buffer_level=buffer_level,
        max_buffer=MAX_BUFFER,
        previous_quality=prev,
        ladder=LADDER,
        history=history,
    )


def session_homed_on(service, shard, tag="s"):
    """A session id whose CRC-32 home is the given shard."""
    for i in range(10_000):
        sid = f"{tag}-{i}"
        if service.home_shard(sid) == shard:
            return sid
    raise AssertionError(f"no session hashed onto shard {shard}")


def make_service():
    """An in-process service on a frozen clock."""
    return DecisionService(
        LADDER, MAX_BUFFER, deadline=DEADLINE, table_points=10,
        clock=FakeClock(),
    )


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def fleet():
    service = ShardedDecisionService(
        ladder=LADDER,
        max_buffer=MAX_BUFFER,
        shards=2,
        deadline=DEADLINE,
        table_points=10,
        heartbeat_interval=0.05,
    )
    try:
        yield service
    finally:
        service.close()


class TestWireCodec:
    def test_observation_round_trips(self):
        obs = make_obs(segment=9, buffer_level=7.5, prev=1)
        rebuilt = decode_observation(encode_observation(obs), LADDER)
        assert rebuilt == obs

    def test_history_round_trips_as_samples(self):
        obs = make_obs()
        rebuilt = decode_observation(encode_observation(obs), LADDER)
        assert rebuilt.history == obs.history
        assert isinstance(rebuilt.history[0], ThroughputSample)


class TestServing:
    def test_decide_answers_from_the_home_shard(self, fleet):
        for shard in range(fleet.shards):
            sid = session_homed_on(fleet, shard)
            decision = fleet.decide(sid, make_obs())
            assert decision.shard == shard
            assert not decision.rehomed
            assert not decision.failover
            assert 0 <= decision.quality < LADDER.levels

    def test_decide_many_matches_decide_columns_on_its_packed_columns(self):
        """The in-process batch adapters share one core: on well-formed
        rows (empty or one-sample history, the service's max_buffer, a
        finite buffer) they answer identically in every tier."""
        requests = []
        for i in range(24):
            wall = 2.0 * i
            tput = None if i % 5 == 0 else 0.6 + 0.7 * (i % 11)
            history = () if tput is None else (
                ThroughputSample(start=wall - 1.0, duration=1.0, size=tput,
                                 throughput=tput),
            )
            requests.append((f"row-{i}", PlayerObservation(
                wall_time=wall,
                segment_index=i,
                buffer_level=float(i % MAX_BUFFER),
                max_buffer=MAX_BUFFER,
                previous_quality=None if i % 4 == 0 else i % LADDER.levels,
                ladder=LADDER,
                history=history,
            )))
        ids = [sid for sid, _obs in requests]
        columns = pack_columns(requests)
        # all budget (tier 0), only the lookup budget (the table tail),
        # none (the floor)
        for remaining, top_tier in ((DEADLINE, 0), (0.05, 1), (0.0, 2)):
            many_service = make_service()
            columns_service = make_service()
            deadline_at = many_service.clock() + remaining
            many = many_service.decide_many(requests, deadline_at=deadline_at)
            rungs, tiers, flags = columns_service.decide_columns(
                ids, *columns, deadline_at=deadline_at
            )
            assert [d.quality for d in many] == rungs.tolist()
            assert [d.tier for d in many] == tiers.tolist()
            for decision, bits in zip(many, flags.tolist()):
                assert {
                    name: getattr(decision, name) for name in FLAG_FIELDS[bits]
                } == FLAG_FIELDS[bits]
            assert min(tiers.tolist()) == top_tier
            if top_tier == 1:
                # the table tail holds the previous rung on a defer cell,
                # and only then flags the answer deferred
                looked = columns_service.table.lookup_batch(*columns)
                held = (looked < 0) & (columns[2] >= 0)
                assert held.any()
                assert [d.deferred for d in many] == held.tolist()

    def test_decide_columns_feeds_one_sample_per_row(self, monkeypatch):
        """Tier 0 of a columnar row sees one synthetic sample: the row's
        throughput over one second, stamped with the service clock."""
        fed = []
        original = SodaController.on_download

        def recording(controller, sample):
            fed.append(sample)
            original(controller, sample)

        monkeypatch.setattr(SodaController, "on_download", recording)
        service = make_service()
        service.decide_columns(
            ["fed", "cold"], np.array([3.25, -1.0]), np.array([10.0, 10.0]),
            np.array([1, -1]),
        )
        assert fed == [
            ThroughputSample(start=service.clock(), duration=1.0, size=3.25,
                             throughput=3.25)
        ]

    def test_batch_reply_carries_solver_error_and_shed_flags(self):
        """The columnar wire no longer drops the ladder's flags: rows whose
        tier-0 attempt raised come back ``solver_error``, and a batch that
        finds every admission slot held comes back ``shed``."""

        def raising(session_id, controller):
            def tier0(obs):
                raise RuntimeError("solver down")

            return tier0

        fleet = ShardedDecisionService(
            ladder=LADDER, max_buffer=MAX_BUFFER, shards=2, deadline=2.0,
            table_points=10, heartbeat_interval=0.05, tier0_factory=raising,
        )
        try:
            # Four rows: no shard reaches its breaker's five failures, so
            # every row's tier-0 attempt raised.
            requests = [(f"err-{i}", make_obs(segment=i)) for i in range(4)]
            decisions = fleet.decide_many(requests)
            rollup = fleet.health().rollup
        finally:
            fleet.close()
        for (sid, _obs), decision in zip(requests, decisions):
            assert decision.session_id == sid
            assert decision.shard == fleet.home_shard(sid)
            assert not decision.failover
            assert decision.solver_error
            assert decision.tier != 0
        assert rollup["solver_errors"] == len(requests)

        service = make_service()
        held = 0
        while service.gate.try_acquire():
            held += 1
        rungs, tiers, flags = service.decide_columns(
            ["a", "b", "c"], np.array([2.0, -1.0, 5.0]),
            np.array([3.0, 12.0, 30.0]), np.array([0, -1, 2]),
        )
        for _ in range(held):
            service.gate.release()
        assert flags.tolist() == [FLAG_SHED] * 3
        assert tiers.tolist() == [2] * 3
        assert all(0 <= r < LADDER.levels for r in rungs.tolist())
        assert service.stats().shed == 3

    def test_decide_many_empty_batch(self, fleet):
        assert fleet.decide_many([]) == []

    def test_fleet_counts_every_answer(self, fleet):
        fleet.decide("count-a", make_obs())
        fleet.decide_many([("count-b", make_obs()), ("count-c", make_obs())])
        assert fleet.decisions == 3
        assert fleet.failovers == 0


class TestKillAndRehome:
    def test_sigkill_rehomes_then_restarts(self, fleet):
        victim = 0
        survivor = 1
        sid = session_homed_on(fleet, victim, tag="victim")
        assert fleet.decide(sid, make_obs()).shard == victim

        os.kill(fleet.worker_pids()[victim], signal.SIGKILL)

        # The very next request for the orphaned session is re-homed onto
        # the survivor — at worst the request that discovers the death
        # makes a second routing attempt, never a floored answer.
        decision = fleet.decide(sid, make_obs())
        assert decision.shard == survivor
        assert decision.rehomed
        assert not decision.failover
        assert sid in fleet.rehomed_sessions()
        assert fleet.sessions_rehomed >= 1

        # The supervisor restarts the corpse with a fresh generation...
        assert wait_until(lambda: fleet.supervisor.is_alive(victim))
        counters = fleet.supervisor.counters()
        assert counters["worker_deaths"] >= 1
        assert counters["worker_restarts"] >= 1

        # ... and the restarted shard serves new sessions immediately,
        # while the re-homed session stays sticky on the survivor.
        fresh = session_homed_on(fleet, victim, tag="fresh")
        assert wait_until(
            lambda: fleet.decide(fresh, make_obs()).shard == victim
        )
        assert fleet.decide(sid, make_obs()).shard == survivor

    def test_batch_spanning_a_dead_shard_rehomes_it(self, fleet):
        victim = 1
        os.kill(fleet.worker_pids()[victim], signal.SIGKILL)
        requests = [(f"span-{i}", make_obs(segment=i)) for i in range(32)]
        # First batch may discover the death (those answers floor); once
        # the slot is marked dead, every batch re-homes cleanly.
        fleet.decide_many(requests)
        assert wait_until(
            lambda: not fleet.supervisor.is_alive(victim)
            or fleet.supervisor.counters()["worker_deaths"] >= 1
        )
        decisions = fleet.decide_many(requests)
        assert all(not d.failover for d in decisions)
        for (sid, _obs), decision in zip(requests, decisions):
            if fleet.home_shard(sid) == victim:
                assert decision.rehomed
                assert decision.shard != victim

    def test_all_shards_dead_serves_the_floor(self):
        service = ShardedDecisionService(
            ladder=LADDER,
            max_buffer=MAX_BUFFER,
            shards=1,
            deadline=DEADLINE,
            table_points=10,
            heartbeat_interval=0.05,
        )
        try:
            service.supervisor.stop_monitor()  # no restarts: stay dead
            os.kill(service.worker_pids()[0], signal.SIGKILL)
            decision = service.decide("orphan", make_obs())
            assert decision.failover
            assert decision.shard == -1
            assert 0 <= decision.quality < LADDER.levels
            assert service.failovers >= 1
        finally:
            service.close()


def test_wedged_worker_is_detected_by_the_request_that_finds_it(fleet):
    """A stopped worker is alive but never answers: the round trip times
    out (or the heartbeat does first), the worker is killed, the session
    re-homes onto the survivor, and the supervisor restarts the slot."""
    victim, survivor = 0, 1
    sid = session_homed_on(fleet, victim, tag="wedged")
    assert fleet.decide(sid, make_obs()).shard == victim

    os.kill(fleet.worker_pids()[victim], signal.SIGSTOP)

    decision = fleet.decide(sid, make_obs())
    assert decision.shard == survivor
    assert decision.rehomed
    assert not decision.failover
    assert fleet.table_probe(victim, 0, 0) is None
    slot = fleet.supervisor.slots[victim]
    assert wait_until(
        lambda: fleet.supervisor.is_alive(victim) and slot.generation == 2
    )
    assert fleet.supervisor.counters()["worker_deaths"] == 1


class TestDrain:
    def test_close_returns_final_fleet_health(self, fleet):
        fleet.decide("drain-a", make_obs())
        final = fleet.close()
        assert isinstance(final, FleetHealth)
        assert final.decisions >= 1
        assert not final.ready
        # Worker finals were collected over the stop handshake.
        assert sum(1 for s in final.per_shard if s.get("live")) == 2
        assert final.rollup.get("decisions", 0) >= 1

    def test_requests_after_close_hit_the_floor_not_the_void(self, fleet):
        fleet.close()
        decision = fleet.decide("late", make_obs())
        assert decision.failover
        assert 0 <= decision.quality < LADDER.levels
        batch = fleet.decide_many([("late-b", make_obs())])
        assert batch[0].failover

    def test_close_is_idempotent(self, fleet):
        first = fleet.close()
        assert fleet.close() is first

    def test_close_removes_the_published_table(self, fleet):
        path = fleet.table_path
        assert os.path.exists(path)
        fleet.close()
        assert not os.path.exists(path)


class TestFleetHealth:
    def test_snapshot_shape(self, fleet):
        fleet.decide("health-a", make_obs())
        health = fleet.health()
        assert health.shards == 2
        assert health.live_shards == 2
        assert health.ready
        assert health.decisions == 1
        assert len(health.per_shard) == 2
        assert health.rollup["decisions"] == 1
        payload = health.to_dict()
        assert payload["per_shard"][0]["live"]
        assert "latency" in payload

    def test_rollup_sums_counters_across_live_shards_only(self):
        per_shard = [
            {"live": True, "evictions": 2, "sheds": 1,
             "stats": {"decisions": 10, "tier2_decisions": 3,
                       "degraded": False}},
            {"live": True, "evictions": 1, "sheds": 4,
             "stats": {"decisions": 5, "tier2_decisions": 0,
                       "degraded": True}},
            {"live": False, "shard": 2},  # dead: contributes nothing
        ]
        rollup = _roll_up(per_shard)
        assert rollup["decisions"] == 15
        assert rollup["tier2_decisions"] == 3
        assert rollup["evictions"] == 3
        assert rollup["sheds"] == 5
        assert "degraded" not in rollup  # booleans are not counters

    def test_dead_shard_appears_as_not_live(self, fleet):
        fleet.supervisor.stop_monitor()  # hold the corpse down
        os.kill(fleet.worker_pids()[0], signal.SIGKILL)
        fleet.decide(session_homed_on(fleet, 0), make_obs())  # detect death
        health = fleet.health()
        assert health.live_shards == 1
        assert health.per_shard[0] == {
            "live": False, "shard": 0, "restarts": 0,
        }
        assert health.table_versions[0] == -1


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestRestartBackoff:
    """The supervisor's bounded-backoff policy, driven deterministically."""

    def make(self, clock):
        from repro.service.supervisor import RestartPolicy, Supervisor

        class FakeProc:
            pid = 4242

            def __init__(self):
                self._alive = True

            def is_alive(self):
                return self._alive

            def kill(self):
                self._alive = False

            def join(self, timeout=None):
                pass

        class FakeConn:
            def close(self):
                pass

        def spawn(index, generation):
            return FakeProc(), FakeConn()

        return Supervisor(
            1,
            spawn,
            policy=RestartPolicy(
                base_delay=0.1, max_delay=2.0, min_uptime=1.0
            ),
            clock=clock,
        )

    def test_policy_validation(self):
        from repro.service.supervisor import RestartPolicy

        with pytest.raises(ValueError):
            RestartPolicy(base_delay=0.0)
        with pytest.raises(ValueError):
            RestartPolicy(base_delay=1.0, max_delay=0.5)

    def test_rapid_crash_loop_doubles_backoff_to_the_cap(self):
        clock = FakeClock()
        sup = self.make(clock)
        slot = sup.slots[0]
        sup._respawn(slot)
        expected = [0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
        for backoff in expected:
            sup._mark_dead(slot, killed=False)  # instant death
            assert slot.backoff == pytest.approx(backoff)
            assert slot.next_restart_at == pytest.approx(clock() + backoff)
            sup._respawn(slot)
        assert sup.counters()["worker_deaths"] == len(expected)
        assert sup.counters()["worker_restarts"] == len(expected)

    def test_serving_past_min_uptime_restarts_at_base_delay(self):
        clock = FakeClock()
        sup = self.make(clock)
        slot = sup.slots[0]
        sup._respawn(slot)
        for _ in range(4):  # build up a doubled backoff first
            sup._mark_dead(slot, killed=False)
            sup._respawn(slot)
        assert slot.backoff == pytest.approx(0.8)
        clock.advance(5.0)  # a healthy stretch past min_uptime
        sup._mark_dead(slot, killed=False)
        assert slot.backoff == pytest.approx(0.1)
        assert slot.next_restart_at == pytest.approx(clock() + 0.1)

    def test_death_exactly_at_min_uptime_counts_as_healthy(self):
        clock = FakeClock()
        sup = self.make(clock)
        slot = sup.slots[0]
        sup._respawn(slot)
        sup._mark_dead(slot, killed=False)
        sup._respawn(slot)
        clock.advance(1.0)  # uptime == min_uptime
        sup._mark_dead(slot, killed=False)
        assert slot.backoff == pytest.approx(0.1)


def build_table(points=10):
    from repro.core.lookup import DecisionTable
    from repro.core.objective import SodaConfig

    return DecisionTable(
        LADDER,
        MAX_BUFFER,
        config=SodaConfig(solver_backend="fast"),
        throughput_points=points,
        buffer_points=points,
    )


class TestRollout:
    def test_commit_advances_every_shard(self, fleet):
        from repro.core.lookup import DecisionTable, TablePublisher

        stages = []
        report = fleet.rollout(
            build_table(),
            probation=0.1,
            monitor=lambda stage, info: stages.append(stage),
        )
        assert report.committed and not report.rolled_back
        assert (report.previous_version, report.target_version) == (1, 2)
        assert stages[0] == "publish"
        assert "canary" in stages and "probation" in stages
        assert stages[-1] == "commit"
        assert fleet.shard_table_versions() == [2, 2]
        assert fleet.health().table_versions == [2, 2]
        # The live file was promoted (worker restarts land on v2) and
        # the published sibling was cleaned up.
        assert DecisionTable.peek_version(fleet.table_path) == 2
        assert TablePublisher(fleet.table_path).published() == {}
        assert report.final_versions == [2, 2]

    def test_poisoned_canary_rolls_back_everywhere(self, fleet):
        from repro.core.lookup import DecisionTable, TablePublisher

        poison = build_table()
        poison._table[:] = -1  # in-range cells, catastrophic answers
        stages = []
        report = fleet.rollout(
            poison,
            probation=0.1,
            monitor=lambda stage, info: stages.append(stage),
        )
        assert report.rolled_back and not report.committed
        assert "floor-rate" in report.reason
        assert stages[-1] == "rollback"
        assert "advance" not in stages  # stopped at the canary
        assert fleet.shard_table_versions() == [1, 1]
        assert DecisionTable.peek_version(fleet.table_path) == 1
        assert TablePublisher(fleet.table_path).published() == {}
        # The fleet is still serving on the old table afterwards.
        decision = fleet.decide("s-after", make_obs())
        assert 0 <= decision.quality < LADDER.levels

    def test_rollout_requires_a_published_table(self):
        service = ShardedDecisionService(
            ladder=LADDER,
            max_buffer=MAX_BUFFER,
            shards=2,
            deadline=DEADLINE,
            table_points=0,  # tier 1 disabled: nothing to roll out onto
            heartbeat_interval=0.05,
        )
        try:
            with pytest.raises(RuntimeError):
                service.rollout(build_table())
        finally:
            service.close()

    def test_fleet_health_reports_retry_budget(self, fleet):
        fleet.decide("s-0", make_obs())
        health = fleet.health()
        assert health.retries_granted == 0
        assert health.retries_denied == 0
        assert "retries_granted" in health.to_dict()
