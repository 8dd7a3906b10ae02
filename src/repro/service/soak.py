"""Chaos-soak harness for the decision service.

``repro soak`` drives thousands of short synthetic sessions through the
serving layer from a pool of worker threads while injecting faults:

* **observation faults** — each session carries a seeded PR-1
  :class:`~repro.faults.plan.FaultPlan`; a fault on a segment corrupts the
  throughput sample the service sees (NaN/inf/zero/negative), exercising
  the sanitizer exactly like a hostile client SDK would;
* **solver faults** (single-process mode) — a seeded :class:`ChaosSolver`
  wraps every session's tier-0 solver with random crashes, random
  over-deadline sleeps, random NaN answers, and one *deterministic* burst
  of consecutive crashes sized to trip the circuit breaker, so every soak
  provably exercises the full open → half-open → closed cycle;
* **process faults** (sharded mode, ``shards > 0``) — the soak SIGKILLs a
  live shard worker mid-run and requires the fleet to re-home the dead
  shard's sessions onto survivors, restart the worker, and keep every
  answer inside the serving contract across the kill/re-home boundary.

Throughout, the harness checks the service's externally observable
invariants (every answer an in-range rung; latency bounded; session table
capped; overruns accounted to the breaker; breaker cycled) and reports
violations — a clean soak is the acceptance gate for the serving layer.
"""

from __future__ import annotations

import math
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..abr.base import PlayerObservation
from ..core.controller import SodaController
from ..core.lookup import DecisionTable
from ..faults.plan import FaultPlan
from ..prediction.base import ThroughputSample
from ..sim.video import BitrateLadder
from .batcher import MicroBatcher
from .breaker import CircuitBreaker
from .degrade import TIER_SOLVER
from .health import HealthSnapshot
from .service import DecisionService, Tier0
from .shard import (
    PROBE_COUNT,
    PROBE_SEED,
    REQUEST_SLACK,
    FleetHealth,
    RolloutReport,
    ShardedDecisionService,
)

__all__ = ["ChaosSolver", "SoakConfig", "SoakReport", "run_soak"]

#: scheduler headroom granted to non-solver answers before a latency is
#: called a violation: threads on a busy box can sit runnable for tens of
#: milliseconds through no fault of the service.  The *semantic* deadline
#: contract is verified deterministically (fake clock) in the unit tests.
SCHEDULING_SLACK = 0.25

#: probability that a chaos tier-0 call answers NaN (an unusable rung).
NAN_RATE = 0.01
#: canary probation window of the rollout scenario, seconds.
ROLLOUT_PROBATION = 0.4
#: seconds a SIGKILLed worker has to restart (a real process restart).
RESTART_BUDGET = 10.0


class ChaosSolver:
    """A misbehaving wrapper around one session's tier-0 solver.

    All randomness comes from a shared seeded generator and the burst
    schedule from a shared decision counter, so a soak with a fixed seed
    is reproducible call-for-call under the same thread interleaving.

    Args:
        inner: the real per-session solver.
        rng: shared seeded generator (guarded by ``lock``).
        lock: guards ``rng`` and ``counter`` across worker threads.
        counter: shared mutable call counter (single-element list).
        crash_rate: probability a call raises.
        slow_rate: probability a call sleeps past the deadline first.
        nan_rate: probability a call answers NaN (an unusable rung).
        slow_seconds: sleep length of a slow call.
        burst: predicate on the global call index; while it holds, the
            call raises unconditionally.  The soak uses "index past the
            burst start *and* the breaker has not opened yet", which
            guarantees exactly one deterministic trip per burst no
            matter how calls interleave.
    """

    def __init__(
        self,
        inner: Tier0,
        rng: random.Random,
        lock: threading.Lock,
        counter: List[int],
        crash_rate: float,
        slow_rate: float,
        nan_rate: float,
        slow_seconds: float,
        burst: Callable[[int], bool],
    ) -> None:
        self.inner = inner
        self.rng = rng
        self.lock = lock
        self.counter = counter
        self.crash_rate = crash_rate
        self.slow_rate = slow_rate
        self.nan_rate = nan_rate
        self.slow_seconds = slow_seconds
        self.burst = burst

    def __call__(self, obs: PlayerObservation) -> Optional[float]:
        with self.lock:
            index = self.counter[0]
            self.counter[0] += 1
            roll = self.rng.random()
        if self.burst(index):
            raise RuntimeError(f"chaos: burst crash at call {index}")
        if roll < self.crash_rate:
            raise RuntimeError(f"chaos: random crash at call {index}")
        if roll < self.crash_rate + self.slow_rate:
            time.sleep(self.slow_seconds)
            return self.inner(obs)
        if roll < self.crash_rate + self.slow_rate + self.nan_rate:
            return float("nan")
        return self.inner(obs)


@dataclass(frozen=True)
class SoakConfig:
    """Tuning of one chaos soak.

    The defaults make the required outcomes deterministic: the crash
    burst trips the breaker; the short cooldown lets it half-open and
    close while traffic still flows (tier-1 answers while open); slow
    solver calls hold admission slots long enough that other workers
    shed to tier 2.

    Attributes:
        sessions: synthetic sessions to run.
        segments_per_session: decisions per session.
        threads: worker threads driving sessions concurrently.
        seed: master seed for traffic, faults, and chaos.
        chaos: inject faults and require the chaos outcomes (breaker
            cycle, tier-1/tier-2 degradations).  ``False`` turns the
            harness into a clean steady-workload driver (``repro
            serve``): no solver faults, no observation corruption, and
            only the universal invariants are checked.
        deadline: per-decision budget handed to the service, seconds.
        think_seconds: mean per-segment pause of a client between
            requests (uniform on ``[0, 2 * think_seconds]``).  Zero
            turns the workload into a pure stampede, which sheds nearly
            everything and starves the solver tiers.
        max_in_flight: admission slots (small, to provoke shedding).
        max_sessions: session-table cap (smaller than ``sessions`` so
            LRU eviction is exercised).
        table_points: decision-table grid per axis (small: soaks build
            fast and tier-1 behaviour is identical at any grid size).
        fault_intensity: PR-1 fault-plan intensity for observation
            corruption, 0..1.
        crash_rate: random tier-0 crash probability.
        slow_rate: random tier-0 slow-call probability; a slow call
            sleeps ``1.6 × deadline``, so it always overruns.
        burst_at: global solver-call index where the deterministic crash
            burst starts; it lasts until the breaker opens.
        breaker_threshold: consecutive failures that trip the breaker.
        breaker_cooldown: seconds before an open breaker half-opens.
        shards: ``0`` soaks one in-process service; ``> 0`` soaks a
            :class:`~repro.service.shard.ShardedDecisionService` with
            that many worker processes.  Sharded chaos swaps solver
            faults for process faults: a worker is SIGKILLed mid-run.
        kill_at: front-end decision count at which the sharded soak
            kills a live worker; defaults to half the expected total.
        rollout: run the *rollout* chaos soak instead (needs
            ``shards >= 2``): mid-run a poisoned table (format-valid,
            every cell defer) is rolled out while a baseline worker is
            SIGKILLed during the canary's probation; the canary
            floor-rate spike must trigger automatic rollback, the fleet
            must converge back to the old version, and post-rollback
            table cells must be identical to pre-rollout.
        rollout_at: front-end decision count at which the rollout
            starts; defaults to a third of the expected total.
        tier0_chunk: sessions per batched tier-0 solver call inside the
            service's ``decide_many`` path (``1`` disables cross-session
            batching).
        batch_window: clean-serve only — when positive, client workers
            submit through a shared
            :class:`~repro.service.batcher.MicroBatcher` with this
            collection window (seconds) instead of calling ``decide``
            directly, so the batched tier-0 kernel sees real occupancy.
    """

    sessions: int = 200
    segments_per_session: int = 30
    threads: int = 8
    seed: int = 0
    chaos: bool = True
    deadline: float = 0.05
    think_seconds: float = 0.001
    max_in_flight: int = 4
    max_sessions: int = 64
    table_points: int = 12
    fault_intensity: float = 0.3
    crash_rate: float = 0.02
    slow_rate: float = 0.02
    burst_at: int = 200
    breaker_threshold: int = 5
    breaker_cooldown: float = 0.3
    shards: int = 0
    kill_at: Optional[int] = None
    rollout: bool = False
    rollout_at: Optional[int] = None
    tier0_chunk: int = 16
    batch_window: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_intensity <= 1.0:
            raise ValueError("fault_intensity must be in [0, 1]")
        if self.shards < 0:
            raise ValueError("shards must be non-negative")
        if self.rollout and self.shards < 2:
            raise ValueError("rollout needs shards >= 2 (canary + baseline)")
        if self.tier0_chunk < 1:
            raise ValueError("tier0_chunk must be at least 1")
        if self.batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        if self.batch_window > 0 and (self.chaos or self.shards > 0):
            raise ValueError("batch_window needs chaos=False and shards=0")


@dataclass
class SoakReport:
    """Everything a soak run observed.

    Attributes:
        config: the configuration that produced the run.
        decisions: total ``decide`` calls answered.
        elapsed: wall seconds the soak took.
        violations: invariant violations (empty means the soak passed).
        snapshot: the service's final health snapshot (single-process
            soaks; ``None`` for sharded runs).
        fleet: the final fleet health (sharded soaks; ``None`` for
            single-process runs).
        rollout_report: the rollout's outcome (rollout soaks only).
    """

    config: SoakConfig
    decisions: int
    elapsed: float
    violations: List[str] = field(default_factory=list)
    snapshot: Optional[HealthSnapshot] = None
    fleet: Optional[FleetHealth] = None
    rollout_report: Optional[RolloutReport] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def decisions_per_second(self) -> float:
        return self.decisions / self.elapsed if self.elapsed > 0 else 0.0


def _session_worker(
    soak,
    cfg: SoakConfig,
    queue: List[int],
    lock: threading.Lock,
    violations: List[str],
) -> None:
    """Pull session indices off the queue and stream each one.

    ``soak.service`` is anything with ``ladder`` / ``max_buffer`` /
    ``decide`` — the in-process :class:`DecisionService` or the sharded
    front end (which needs a larger ``soak.latency_slack``: a request
    that catches a worker dying pays up to two pipe round trips before
    its answer).  With a ``soak.batcher``, requests go through the shared
    :class:`~repro.service.batcher.MicroBatcher` instead: the worker
    offers its request, then polls the clock edge until its handle
    resolves — whichever worker's poll crosses a trigger flushes the
    whole collected batch, so concurrent workers batch each other.
    ``lock`` guards ``queue`` and ``violations``.
    """
    service, batcher = soak.service, soak.batcher
    levels = service.ladder.levels
    while True:
        with lock:
            if not queue:
                return
            index = queue.pop()
        session_id = f"soak-{index}"
        rng = random.Random((cfg.seed << 20) ^ index)
        intensity = cfg.fault_intensity if cfg.chaos else 0.0
        plan = FaultPlan.of_intensity(intensity, seed=cfg.seed).fork(index)
        bad: List[str] = []

        history: List[ThroughputSample] = []
        prev: Optional[int] = None
        buffer_level = 0.0
        wall = 0.0
        for segment in range(cfg.segments_per_session):
            if cfg.think_seconds > 0:
                time.sleep(rng.uniform(0.0, 2.0 * cfg.think_seconds))
            # Synthesize the download the client just finished, letting
            # the fault plan corrupt the throughput the service will see.
            true_tput = max(0.3, rng.lognormvariate(1.0, 0.6))
            fault = plan.on_attempt(wall, segment, 1, prev or 0)
            seen_tput = true_tput
            if fault.corrupt_throughput is not None:
                seen_tput = fault.corrupt_throughput
            duration = 0.4 + rng.random() * 1.2
            history.append(
                ThroughputSample(
                    start=wall,
                    duration=duration,
                    size=true_tput * duration,
                    throughput=seen_tput,
                )
            )
            if len(history) > 12:
                history.pop(0)
            wall += duration
            buffer_level = min(
                service.max_buffer,
                max(0.0, buffer_level + rng.uniform(-2.0, 3.0)),
            )

            obs = PlayerObservation(
                wall_time=wall,
                segment_index=segment,
                buffer_level=buffer_level,
                max_buffer=service.max_buffer,
                previous_quality=prev,
                ladder=service.ladder,
                history=tuple(history),
            )
            if batcher is not None:
                pending = batcher.offer(session_id, obs)
                while not pending.done:
                    if not batcher.poll():
                        time.sleep(batcher.window / 4)
                decision = pending.decision
            else:
                decision = service.decide(session_id, obs)

            # ---- per-call invariants --------------------------------
            if not (
                isinstance(decision.quality, int)
                and 0 <= decision.quality < levels
            ):
                bad.append(
                    f"{session_id}#{segment}: rung {decision.quality!r} "
                    f"outside [0, {levels})"
                )
            if not math.isfinite(decision.latency) or decision.latency < 0:
                bad.append(
                    f"{session_id}#{segment}: non-finite latency "
                    f"{decision.latency!r}"
                )
            elif decision.tier != TIER_SOLVER and not decision.overran:
                # Degraded answers must land within the budget (plus
                # scheduler slack); only a tier-0 solve may overrun, and
                # each overrun is charged to the breaker (checked
                # globally after the run).
                if decision.latency > cfg.deadline + soak.latency_slack:
                    bad.append(
                        f"{session_id}#{segment}: tier-{decision.tier} "
                        f"latency {decision.latency * 1e3:.1f} ms exceeds "
                        f"deadline {cfg.deadline * 1e3:.0f} ms + slack"
                    )
            prev = decision.quality
        if bad:
            with lock:
                violations.extend(bad)


def run_soak(
    cfg: SoakConfig,
    ladder: Optional[BitrateLadder] = None,
    max_buffer: float = 20.0,
    progress: Optional[Callable[[str], None]] = None,
) -> SoakReport:
    """Run one chaos soak and collect invariant violations.

    ``cfg.shards`` and ``cfg.rollout`` pick the scenario: one in-process
    service, a fleet with a worker SIGKILLed, or a poisoned rollout.

    Args:
        cfg: soak tuning.
        ladder: encoding ladder; defaults to the 6-rung YouTube 4K
            ladder the benches use.
        max_buffer: client buffer capacity, seconds.
        progress: optional line sink for phase messages.

    Returns:
        A :class:`SoakReport`; ``report.passed`` is the gate.
    """
    if ladder is None:
        from ..sim.video import youtube_4k_ladder

        ladder = youtube_4k_ladder()
    say = progress or (lambda line: None)
    built = "service" if cfg.shards == 0 else f"{cfg.shards}-shard fleet"
    say(
        f"building {built} (table {cfg.table_points}x{cfg.table_points}, "
        f"deadline {cfg.deadline * 1e3:.0f} ms) ..."
    )
    scenario = _InProcessSoak if cfg.shards == 0 else (
        _RolloutSoak if cfg.rollout else _FleetSoak
    )
    soak = scenario(cfg, ladder, max_buffer, say)
    # A fresh session at half a buffer: the harness's own probe requests.
    probe_obs = PlayerObservation(
        wall_time=0.0,
        segment_index=0,
        buffer_level=max_buffer / 2,
        max_buffer=max_buffer,
        previous_quality=None,
        ladder=ladder,
        history=(),
    )

    queue = list(range(cfg.sessions))
    lock = threading.Lock()
    violations: List[str] = []
    say(
        f"driving {cfg.sessions} sessions x {cfg.segments_per_session} "
        f"segments on {cfg.threads} threads ..."
    )
    started = time.perf_counter()
    workers = [
        threading.Thread(
            target=_session_worker,
            args=(soak, cfg, queue, lock, violations),
            name=f"soak-worker-{i}",
            daemon=True,
        )
        for i in range(cfg.threads)
    ]
    # Each fault thread returns once ``done`` is set, when the traffic
    # has ended, so every thread here is joined without a timeout.
    done = threading.Event()
    faults = [
        threading.Thread(target=fault, args=(done,), name=f"soak-fault-{i}",
                         daemon=True)
        for i, fault in enumerate(soak.faults)
    ]
    try:
        for thread in workers + faults:
            thread.start()
        for worker in workers:
            worker.join()
        done.set()
        for thread in faults:
            thread.join()
        probes = soak.settle(probe_obs, violations)
        elapsed = time.perf_counter() - started
    finally:
        outcome = soak.close()

    expected = cfg.sessions * cfg.segments_per_session + probes
    if outcome["decisions"] != expected:
        violations.append(
            f"answered {outcome['decisions']} decisions, expected {expected}"
        )
    return SoakReport(
        config=cfg, elapsed=elapsed, violations=violations, **outcome
    )


# ----------------------------------------------------------------------
class _InProcessSoak:
    """One in-process service; chaos wraps every tier-0 solver in a
    :class:`ChaosSolver`, so no fault thread is needed."""

    latency_slack = SCHEDULING_SLACK
    faults = ()

    def __init__(self, cfg: SoakConfig, ladder: BitrateLadder,
                 max_buffer: float, say: Callable[[str], None]) -> None:
        self.cfg = cfg
        self.say = say
        # The breaker's clock runs ahead of real time by whatever the drain
        # phase steps it, so the drain never waits out a cooldown.
        self.breaker_skew = 0.0
        breaker = CircuitBreaker(
            failure_threshold=cfg.breaker_threshold,
            cooldown=cfg.breaker_cooldown,
            clock=lambda: time.monotonic() + self.breaker_skew,
        )
        chaos_lock = threading.Lock()
        chaos_rng = random.Random(cfg.seed)
        chaos_counter = [0]

        def burst(index: int) -> bool:
            # Crash every solver call from burst_at until the breaker
            # trips: one guaranteed full trip regardless of thread
            # interleaving, and recovery probes see healthy calls again
            # immediately after.
            return index >= cfg.burst_at and breaker.times_opened == 0

        def chaos_factory(session_id: str,
                          controller: SodaController) -> Tier0:
            return ChaosSolver(
                controller.select_quality,
                rng=chaos_rng,
                lock=chaos_lock,
                counter=chaos_counter,
                crash_rate=cfg.crash_rate,
                slow_rate=cfg.slow_rate,
                nan_rate=NAN_RATE,
                slow_seconds=1.6 * cfg.deadline,
                burst=burst,
            )

        self.service = DecisionService(
            ladder,
            max_buffer,
            deadline=cfg.deadline,
            max_in_flight=cfg.max_in_flight,
            max_sessions=cfg.max_sessions,
            table_points=cfg.table_points,
            breaker=breaker,
            # A clean serve keeps the default tier-0 path: the service
            # stays batchable (a custom factory disables cross-session
            # batching).
            tier0_factory=chaos_factory if cfg.chaos else None,
            tier0_chunk=cfg.tier0_chunk,
        )
        self.batcher = MicroBatcher(
            self.service, window=cfg.batch_window, max_batch=cfg.tier0_chunk
        ) if cfg.batch_window > 0 else None

    def settle(self, probe_obs: PlayerObservation,
               violations: List[str]) -> int:
        """Drain, shed-probe and check; returns the probes it sent."""
        cfg, service = self.cfg, self.service
        if self.batcher is not None:
            self.batcher.close()

        # ---- drain phase: let the breaker finish its recovery cycle --
        # Short soaks can outrun the cooldown (the burst trips the breaker
        # but traffic ends before it may half-open), and on a loaded box
        # the traffic may be shed so heavily that it never reaches the
        # burst.  Send probes until the cycle completes: each one first
        # steps the breaker clock past the cooldown, so an open breaker
        # half-opens on the probe itself.  Probes advance the chaos
        # counter, so the burst trips the breaker if traffic did not;
        # after it, most probes succeed, and the probe count (not wall
        # time) bounds the phase.
        probes = 0
        if cfg.chaos or service.breaker.times_opened > 0:
            self.say("draining until the breaker closes ...")
            max_probes = cfg.burst_at + cfg.breaker_threshold + 64
            while service.breaker.full_cycles() < 1 and probes < max_probes:
                self.breaker_skew += cfg.breaker_cooldown
                service.decide("soak-drain", probe_obs)
                probes += 1

        # ---- deterministic shed probe --------------------------------
        # Shedding normally needs genuine slot contention (slow solver
        # calls pinning admission slots while other threads arrive),
        # which thread scheduling does not guarantee on every box.  If
        # the run produced no shed, manufacture one: hold every admission
        # slot and issue a single decision, which must be refused a slot
        # and answered from the tier-2 floor.  This makes the "chaos
        # exercises shedding" outcome a deterministic property of the
        # harness, like the breaker burst.
        if cfg.chaos and service.stats().tier2_decisions == 0:
            self.say("forcing one load-shed probe ...")
            held = 0
            while service.gate.try_acquire():
                held += 1
            try:
                probe = service.decide("soak-shed-probe", probe_obs)
                probes += 1
                if not probe.shed:
                    violations.append(
                        "shed probe was admitted with every slot held"
                    )
            finally:
                for _ in range(held):
                    service.gate.release()

        # ---- global invariants ---------------------------------------
        stats = service.stats()
        if stats.max_sessions_seen > cfg.max_sessions:
            violations.append(
                f"session table high-water {stats.max_sessions_seen} "
                f"exceeds cap {cfg.max_sessions}"
            )
        if stats.deadline_overruns > service.breaker.failures_recorded:
            violations.append(
                f"{stats.deadline_overruns} overruns but only "
                f"{service.breaker.failures_recorded} breaker failures "
                f"recorded"
            )
        if cfg.chaos:
            if service.breaker.full_cycles() < 1:
                violations.append(
                    "breaker never completed an open -> half-open -> "
                    "closed cycle"
                )
            if stats.tier1_decisions == 0:
                violations.append("chaos produced no tier-1 degradations")
            if stats.tier2_decisions == 0:
                violations.append("chaos produced no tier-2 degradations")
        return probes

    def close(self) -> dict:
        snapshot = self.service.health()
        return {"decisions": snapshot.stats.decisions, "snapshot": snapshot}


class _FleetSoak:
    """A sharded fleet with one worker SIGKILLed at ``kill_at``.

    Chaos here is process-level: observation faults still flow through
    the fault plans, but solver chaos stays off (each worker owns its
    breaker, so the deterministic burst guarantee does not compose) and
    the headline fault is a worker killed -9 while serving.  The run
    passes when every answer stayed inside the serving contract across
    the kill, at least one session was re-homed onto a survivor, and the
    supervisor restarted the dead slot, which then serves again.  The
    rollout scenario reuses its fleet, kill and restart wait.
    """

    batcher = None
    report: Optional[RolloutReport] = None

    def __init__(self, cfg: SoakConfig, ladder: BitrateLadder,
                 max_buffer: float, say: Callable[[str], None]) -> None:
        self.cfg = cfg
        self.say = say
        self.service = ShardedDecisionService(
            ladder,
            max_buffer,
            shards=cfg.shards,
            deadline=cfg.deadline,
            max_in_flight=max(cfg.max_in_flight, 8),
            max_sessions=cfg.max_sessions,
            table_points=cfg.table_points,
            heartbeat_interval=0.05,
            tier0_chunk=cfg.tier0_chunk,
        )
        # A request that catches the worker dying pays up to two full pipe
        # round trips (timeout on the dying shard, then the survivor).
        self.latency_slack = SCHEDULING_SLACK + 2.0 * (
            cfg.deadline + REQUEST_SLACK
        )
        total = cfg.sessions * cfg.segments_per_session
        self.kill_at = total // 2 if cfg.kill_at is None else cfg.kill_at
        self.rollout_at = (
            total // 3 if cfg.rollout_at is None else cfg.rollout_at
        )
        self.faults = [self._at(self.kill_at, self._kill)] if cfg.chaos else []
        self.killed: List[int] = []

    def _at(self, decisions: int, action: Callable[[], None]):
        """A fault: ``action()`` once ``decisions`` have been answered."""
        def fault(done: threading.Event) -> None:
            while not done.is_set() and self.service.decisions < decisions:
                time.sleep(0.002)
            if self.service.decisions >= decisions:
                action()
        return fault

    def _kill(self, spare: int = -1) -> None:
        """SIGKILL the first live worker other than shard ``spare``."""
        slot = next((i for i in self.service.live_shards() if i != spare),
                    None)
        pid = None if slot is None else self.service.worker_pids()[slot]
        if pid is None:
            return
        role = "baseline " if spare >= 0 else ""
        self.say(f"chaos: SIGKILL {role}shard {slot} worker (pid {pid}) ...")
        os.kill(pid, signal.SIGKILL)
        self.killed.append(slot)

    def _await_restart(self, violations: List[str]) -> bool:
        """Check the killed worker died and restarted; ``True`` if it did."""
        if not self.killed:
            return False
        slot = self.killed[0]
        self.say(f"waiting for shard {slot} to restart ...")
        give_up = time.perf_counter() + RESTART_BUDGET
        while slot not in self.service.live_shards():
            if time.perf_counter() >= give_up:
                violations.append(
                    f"killed shard {slot} was not restarted within "
                    f"{RESTART_BUDGET:.0f} s"
                )
                break
            time.sleep(0.05)
        counters = self.service.supervisor.counters()
        if counters["worker_deaths"] < 1:
            violations.append("worker SIGKILL was never observed as a death")
        if counters["worker_restarts"] < 1:
            violations.append("supervisor never restarted a worker")
        return slot in self.service.live_shards()

    def settle(self, probe_obs: PlayerObservation,
               violations: List[str]) -> int:
        """Probe the restarted slot and check; returns the probes sent."""
        restarted = self._await_restart(violations)
        if restarted:
            # ---- post-restart probe: the killed slot must serve again --
            slot = self.killed[0]
            probe_sid = next(
                f"soak-probe-{k}"
                for k in range(10_000)
                if self.service.home_shard(f"soak-probe-{k}") == slot
            )
            probe = self.service.decide(probe_sid, probe_obs)
            if probe.failover or probe.shard != slot:
                violations.append(
                    f"post-restart probe on shard {slot} answered from "
                    f"shard {probe.shard} (failover={probe.failover})"
                )
        if self.cfg.chaos:
            if not self.killed:
                violations.append(
                    f"chaos never killed a worker (kill_at={self.kill_at})"
                )
            if self.service.sessions_rehomed < 1:
                violations.append(
                    "no session was re-homed off the killed shard"
                )
        return int(restarted)

    def close(self) -> dict:
        return {"decisions": self.service.decisions,
                "fleet": self.service.close(), "rollout_report": self.report}


class _RolloutSoak(_FleetSoak):
    """A fleet through a poisoned rollout plus a worker SIGKILL.

    The double fault the rollout defends against: mid-run a *poisoned*
    decision table — format-valid, but every cell defer, so it passes
    every load-time check while being wrong everywhere — is rolled onto
    the canary shard, and as the canary enters probation a *baseline*
    worker is SIGKILLed.  The run passes when

    * the canary's floor-rate spike (probe defer fraction against the
      live-table baseline) triggers automatic rollback,
    * the fleet converges back onto the old table version — including
      the killed worker, whose restart reloads the live (old) file,
    * every request was answered in range and inside the budget across
      both faults, and
    * the post-rollback table cells are identical to the pre-rollout
      probe on every surviving shard.
    """

    def __init__(self, cfg: SoakConfig, ladder: BitrateLadder,
                 max_buffer: float, say: Callable[[str], None]) -> None:
        super().__init__(cfg, ladder, max_buffer, say)
        self.pre_probes = {
            i: self.service.table_probe(i, PROBE_SEED, PROBE_COUNT)
            for i in self.service.live_shards()
        }
        self.faults = [self._at(self.rollout_at, self._roll)]

    def _roll(self) -> None:
        """Canary the poisoned table; SIGKILL a baseline at probation."""
        self.say("chaos: rolling out a poisoned table (every cell defer) ...")
        poison = DecisionTable(
            self.service.ladder,
            self.service.max_buffer,
            throughput_points=self.cfg.table_points,
            buffer_points=self.cfg.table_points,
        )
        poison._table[:] = -1  # in-range per the format, wrong everywhere

        def monitor(stage: str, info: dict) -> None:
            if stage == "probation":
                self._kill(spare=info["shard"])

        self.report = report = self.service.rollout(
            poison,
            probation=ROLLOUT_PROBATION,
            monitor=monitor,
        )
        self.say(
            f"rollout settled: committed={report.committed} "
            f"rolled_back={report.rolled_back} ({report.reason})"
        )

    def settle(self, probe_obs: PlayerObservation,
               violations: List[str]) -> int:
        """Check rollback, restart and convergence; sends no probes."""
        service, report = self.service, self.report
        if report is None:
            violations.append(
                f"rollout never ran (rollout_at={self.rollout_at}, traffic "
                f"ended at {service.decisions})"
            )
        else:
            if report.committed:
                violations.append("poisoned table was committed fleet-wide")
            if not report.rolled_back:
                violations.append(
                    f"poisoned canary did not trigger rollback "
                    f"({report.reason})"
                )
            if "floor-rate" not in report.reason:
                violations.append(
                    f"rollback was not triggered by the canary floor-rate "
                    f"spike: {report.reason}"
                )
        if not self.killed:
            violations.append("chaos never killed a baseline worker")
        self._await_restart(violations)

        if report is not None:
            versions = service.shard_table_versions()
            stray = [
                (i, v) for i, v in enumerate(versions)
                if v != report.previous_version
            ]
            if stray:
                violations.append(
                    f"fleet did not converge to v{report.previous_version} "
                    f"after rollback: {stray}"
                )
            for i, pre in self.pre_probes.items():
                if pre is None:
                    continue
                post = service.table_probe(i, PROBE_SEED, PROBE_COUNT)
                if post is None:
                    violations.append(
                        f"shard {i} unreachable for the post-rollback probe"
                    )
                elif post[1] != pre[1]:
                    violations.append(
                        f"shard {i} post-rollback cells differ from "
                        f"pre-rollout (probe seed {PROBE_SEED})"
                    )
        return 0
