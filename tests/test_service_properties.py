"""Property tests: the degradation ladder under adversarial solvers.

Satellite of the serving PR — Hypothesis drives the ladder with tier-0
solvers that are slow, raise, emit NaN, defer, or answer out of range,
under arbitrary remaining deadline budgets, and asserts the two serving
invariants that everything else is built on:

* the ladder **always** returns a rung inside the ladder, and
* the deadline budget is honored — tier 0 is only ever *started* when at
  least ``tier0_budget`` seconds remain, so any time burned past the
  deadline is attributable to a single in-flight solve (which the
  breaker then charges), never to the ladder descending.

Time is a fake monotonic clock, so "slow" is deterministic: a solver
that advances the clock by more than the remaining budget has overrun.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    TIER_SOLVER,
    CircuitBreaker,
    DegradationLadder,
)
from repro.sim.player import PlayerObservation
from repro.sim.video import BitrateLadder

# Hypothesis examples can't use function-scoped fixtures; one immutable
# module-level ladder is shared by every example.
LADDER = BitrateLadder([1.0, 3.0, 6.0, 12.0], segment_duration=2.0,
                       name="prop")
DEADLINE = 0.05


class FakeClock:
    def __init__(self) -> None:
        self.t = 100.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# --- adversarial tier-0 behaviours -----------------------------------
# Each example draws a *behaviour spec*; the solver is rebuilt fresh so
# examples never share state.
solver_behaviours = st.one_of(
    st.tuples(st.just("answer"), st.integers(min_value=-6, max_value=9)),
    st.tuples(st.just("nan"), st.just(0)),
    st.tuples(st.just("inf"), st.just(0)),
    st.tuples(st.just("raise"), st.just(0)),
    st.tuples(st.just("defer"), st.just(0)),
    st.tuples(
        st.just("slow"),
        st.floats(min_value=0.0, max_value=4.0 * DEADLINE,
                  allow_nan=False, allow_infinity=False),
    ),
)

previous_qualities = st.one_of(
    st.none(), st.integers(min_value=-3, max_value=LADDER.levels + 2)
)

remaining_budgets = st.floats(
    min_value=-DEADLINE, max_value=2.0 * DEADLINE,
    allow_nan=False, allow_infinity=False,
)


def make_solver(spec, clock):
    kind, value = spec
    calls = []

    def solver(obs):
        calls.append(1)
        if kind == "answer":
            return value
        if kind == "nan":
            return float("nan")
        if kind == "inf":
            return float("inf")
        if kind == "raise":
            raise RuntimeError("adversarial solver")
        if kind == "defer":
            return None
        clock.advance(value)  # "slow"
        return 1

    return solver, calls


def make_obs(prev, buffer_level):
    return PlayerObservation(
        wall_time=50.0,
        segment_index=7,
        buffer_level=buffer_level,
        max_buffer=20.0,
        previous_quality=prev,
        ladder=LADDER,
        history=(),
    )


@settings(max_examples=300, deadline=None)
@given(
    spec=solver_behaviours,
    prev=previous_qualities,
    remaining=remaining_budgets,
    buffer_level=st.floats(min_value=0.0, max_value=20.0,
                           allow_nan=False, allow_infinity=False),
    tier1_kind=st.sampled_from(["table", "raise", "defer", "disabled"]),
)
def test_ladder_always_returns_in_range_and_honors_budget(
    spec, prev, remaining, buffer_level, tier1_kind
):
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, cooldown=1.0, clock=clock)
    if tier1_kind == "table":
        tier1 = lambda obs: 1  # noqa: E731
    elif tier1_kind == "raise":
        tier1 = lambda obs: (_ for _ in ()).throw(KeyError("x"))  # noqa: E731
    elif tier1_kind == "defer":
        tier1 = lambda obs: None  # noqa: E731
    else:
        tier1 = None
    ladder = DegradationLadder(
        tier1=tier1,
        tier2=lambda obs: 0,
        breaker=breaker,
        deadline=DEADLINE,
        clock=clock,
    )
    solver, calls = make_solver(spec, clock)
    obs = make_obs(prev, buffer_level)
    started = clock()
    deadline_at = started + remaining

    decision = ladder.decide(obs, solver, deadline_at)

    # Invariant 1: always an in-range rung, whatever tier 0 did.
    assert isinstance(decision.quality, int)
    assert 0 <= decision.quality < LADDER.levels
    assert not isinstance(decision.quality, bool)
    assert math.isfinite(decision.quality)

    # Invariant 2: tier 0 is started only with at least tier0_budget left.
    if calls:
        assert remaining >= ladder.tier0_budget
    if remaining < ladder.tier0_budget:
        assert not calls
        assert decision.tier != TIER_SOLVER

    # Anything served from tier 0 past the deadline is flagged as an
    # overrun and charged to the breaker; the ladder itself never burns
    # time (only the 'slow' solver advances the fake clock), so time
    # past the deadline implies the solver ran slow.
    if calls and clock() > deadline_at:
        assert spec[0] == "slow"
        assert decision.overran or decision.tier != TIER_SOLVER
        assert breaker.failures_recorded >= 1

    # Breaker accounting is consistent: failures only from errors,
    # overruns, or adversarial answers — never from clean fast answers.
    if spec[0] == "answer" and 0 <= spec[1] < LADDER.levels and calls:
        assert breaker.failures_recorded == 0
        assert decision.quality == spec[1]
        assert decision.tier == TIER_SOLVER


@settings(max_examples=200, deadline=None)
@given(
    prev=previous_qualities,
    buffer_level=st.floats(min_value=-5.0, max_value=40.0,
                           allow_nan=False, allow_infinity=False),
)
def test_floor_quality_is_total(prev, buffer_level):
    """Tier 2 never raises and always lands inside the ladder."""
    clock = FakeClock()
    breaker = CircuitBreaker(clock=clock)
    ladder = DegradationLadder(
        tier1=None,
        tier2=lambda obs: (_ for _ in ()).throw(RuntimeError("rule down")),
        breaker=breaker,
        deadline=DEADLINE,
        clock=clock,
    )
    rung = ladder.floor_quality(make_obs(prev, max(0.0, buffer_level)))
    assert 0 <= rung < LADDER.levels


@settings(max_examples=100, deadline=None)
@given(
    specs=st.lists(solver_behaviours, min_size=5, max_size=40),
)
def test_breaker_eventually_shields_a_failing_solver(specs):
    """A run of consecutive tier-0 failures stops reaching the solver."""
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, cooldown=10.0, clock=clock)
    ladder = DegradationLadder(
        tier1=lambda obs: 1,
        tier2=lambda obs: 0,
        breaker=breaker,
        deadline=DEADLINE,
        clock=clock,
    )
    obs = make_obs(1, 8.0)
    opened_at_call = None
    for i, spec in enumerate(specs):
        solver, calls = make_solver(spec, clock)
        was_open = breaker.times_opened > 0 and not breaker.allow()
        decision = ladder.decide(obs, solver, clock() + DEADLINE)
        assert 0 <= decision.quality < LADDER.levels
        if was_open:
            # While open (within the cooldown) tier 0 is never probed.
            assert not calls
            assert decision.tier != TIER_SOLVER
        if breaker.times_opened and opened_at_call is None:
            opened_at_call = i
        clock.advance(1.0)  # step wall time, < cooldown
    # Three consecutive hard failures anywhere in the run must trip it.
    streak = 0
    for spec in specs[: opened_at_call + 1 if opened_at_call is not None
                      else len(specs)]:
        streak = streak + 1 if spec[0] == "raise" else 0
        if streak >= 3:
            assert breaker.times_opened >= 1
            break


class TestHalfOpenContention:
    """True thread contention at the open → half-open edge.

    The state machine promises that when N threads race ``allow()`` the
    instant the cooldown elapses, exactly ``half_open_successes`` of
    them win probe slots and everyone else keeps degrading.  A barrier
    releases all racers at once so the race is real, not sequential.
    """

    THREADS = 12
    ROUNDS = 20

    @staticmethod
    def _tripped_breaker(clock):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=1.0, clock=clock
        )
        breaker.record_failure()  # closed -> open
        clock.advance(1.5)  # cooldown elapsed; next allow() half-opens
        return breaker

    def _race_allow(self, breaker):
        barrier = threading.Barrier(self.THREADS)
        admitted = []
        admitted_lock = threading.Lock()

        def racer():
            barrier.wait()
            if breaker.allow():
                with admitted_lock:
                    admitted.append(threading.get_ident())

        threads = [
            threading.Thread(target=racer) for _ in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return admitted

    def test_exactly_one_probe_admitted_under_contention(self):
        for _ in range(self.ROUNDS):
            clock = FakeClock()
            breaker = self._tripped_breaker(clock)
            admitted = self._race_allow(breaker)
            # Exactly one racer holds the probe slot; the rest degrade.
            assert len(admitted) == 1
            assert breaker.state.value == "half-open"
            # Until the probe reports back, nobody else gets through.
            assert not breaker.allow()
            # The winning probe's success closes the breaker for all.
            breaker.record_success()
            assert breaker.state.value == "closed"
            assert breaker.allow()
            assert breaker.full_cycles() == 1

    def test_probe_failure_reopens_and_relocks_under_contention(self):
        clock = FakeClock()
        breaker = self._tripped_breaker(clock)
        admitted = self._race_allow(breaker)
        assert len(admitted) == 1
        breaker.record_failure()  # the probe failed: back to open
        assert breaker.state.value == "open"
        # A second stampede inside the new cooldown is fully refused.
        assert self._race_allow(breaker) == []
        # ... and after the next cooldown, again exactly one wins.
        clock.advance(1.5)
        assert len(self._race_allow(breaker)) == 1


# ----------------------------------------------------------------------
# AdaptiveGate AIMD invariants
# ----------------------------------------------------------------------
from repro.service import AdaptiveGate  # noqa: E402


latency_stream = st.lists(
    st.floats(min_value=0.0, max_value=4 * DEADLINE,
              allow_nan=False, allow_infinity=False),
    min_size=0, max_size=400,
)


def _driven_gate(latencies, max_in_flight=16, window=8):
    gate = AdaptiveGate(
        max_in_flight, DEADLINE, min_in_flight=2, window=window
    )
    for latency in latencies:
        gate.observe(latency)
    return gate


class TestAdaptiveGateAimdProperties:
    """Hypothesis: the AIMD limit trajectory honors its contract under
    arbitrary latency streams."""

    @settings(max_examples=200, deadline=None)
    @given(latencies=latency_stream)
    def test_limit_stays_within_floor_and_ceiling(self, latencies):
        gate = _driven_gate(latencies)
        snap = gate.snapshot()
        assert 2 <= snap["limit"] <= gate.max_in_flight
        assert 2 <= snap["min_limit_seen"] <= gate.max_in_flight
        assert snap["min_limit_seen"] <= snap["limit"]

    @settings(max_examples=200, deadline=None)
    @given(latencies=latency_stream)
    def test_decrease_only_on_p99_breach(self, latencies):
        """The limit is cut multiplicatively only in windows whose p99
        reached high_ratio * deadline; replaying the stream window by
        window predicts the gate's counters exactly."""
        window = 8
        gate = _driven_gate(latencies, window=window)
        expected_decreases = 0
        expected_increases = 0
        level = float(gate.max_in_flight)
        for start in range(0, len(latencies) - window + 1, window):
            chunk = sorted(latencies[start:start + window])
            p99 = chunk[min(len(chunk) - 1, int(0.99 * len(chunk)))]
            if p99 >= gate.high_ratio * DEADLINE:
                level = max(float(gate.min_in_flight), level * gate.decrease)
                expected_decreases += 1
            elif p99 < gate.low_ratio * DEADLINE:
                if level < gate.max_in_flight:
                    level = min(
                        float(gate.max_in_flight), level + gate.increase
                    )
                    expected_increases += 1
        assert gate.limit_decreases == expected_decreases
        assert gate.limit_increases == expected_increases
        assert gate.limit == max(gate.min_in_flight, int(level))

    @settings(max_examples=200, deadline=None)
    @given(latencies=latency_stream)
    def test_all_healthy_windows_never_decrease(self, latencies):
        """A stream that never breaches the deadline can only hold or
        grow the limit back toward the ceiling — never shrink it."""
        healthy = [min(lat, 0.4 * DEADLINE) for lat in latencies]
        gate = _driven_gate(healthy)
        assert gate.limit_decreases == 0
        assert gate.limit == gate.max_in_flight
        assert gate.snapshot()["min_limit_seen"] == gate.max_in_flight

    @settings(max_examples=200, deadline=None)
    @given(latencies=latency_stream)
    def test_new_arrival_headroom_never_exceeds_established(self, latencies):
        gate = _driven_gate(latencies)
        established = gate._limit_for(established=True)
        fresh = gate._limit_for(established=False)
        assert fresh <= established
        assert fresh >= gate.min_in_flight

    @settings(max_examples=100, deadline=None)
    @given(
        latencies=latency_stream,
        probes=st.integers(min_value=0, max_value=24),
    )
    def test_admission_respects_the_live_limit(self, latencies, probes):
        """try_acquire never admits past the current limit, and new
        arrivals stop at the headroom fraction of it."""
        gate = _driven_gate(latencies)
        admitted_new = 0
        for _ in range(probes):
            if not gate.try_acquire(established=False):
                break
            admitted_new += 1
        assert admitted_new <= gate._limit_for(established=False)
        for _ in range(admitted_new):
            gate.release()
        admitted = 0
        for _ in range(probes):
            if not gate.try_acquire(established=True):
                break
            admitted += 1
        assert admitted <= gate.limit
        for _ in range(admitted):
            gate.release()


# ----------------------------------------------------------------------
# Tier-1 table: one nearest-cell rule for a row and for a batch
# ----------------------------------------------------------------------
from repro.core.lookup import DecisionTable  # noqa: E402
from repro.sim.video import youtube_4k_ladder  # noqa: E402

TABLE = DecisionTable(
    youtube_4k_ladder(), 20.0, throughput_points=8, buffer_points=8
)

table_rows = st.lists(
    st.tuples(
        st.floats(),  # throughput, Mb/s: any float, NaN and ±inf included
        st.floats(),  # buffer level, seconds
        st.one_of(
            st.none(),
            st.integers(min_value=-3, max_value=TABLE.ladder.levels + 3),
        ),
    ),
    min_size=1, max_size=16,
)


@settings(max_examples=300, deadline=None)
@given(rows=table_rows)
def test_scalar_lookup_reads_the_batch_lookups_cell(rows):
    """``lookup`` answers every row exactly as ``lookup_batch`` does —
    out-of-range rungs, non-finite throughputs and buffers included —
    with a defer cell as ``None``."""
    tputs, buffers, prevs = zip(*rows)
    cells = TABLE.lookup_batch(
        np.array(tputs), np.array(buffers),
        np.array([-1 if p is None else p for p in prevs]),
    )
    for tput, buffer_level, prev, cell in zip(tputs, buffers, prevs, cells):
        expected = None if cell < 0 else int(cell)
        assert TABLE.lookup(tput, buffer_level, prev) == expected
