"""The multi-session ABR decision service.

:class:`DecisionService` is the long-lived front end the rest of the
package's pieces were built for: many concurrent streaming sessions, each
asking ``decide(session_id, observation)`` and each owed an answer within a
hard deadline.  One instance composes

* an :class:`~repro.service.admission.AdaptiveGate` (AIMD-bounded
  in-flight decisions; overload is shed to the tier-2 floor, never
  errored),
* a :class:`~repro.service.admission.SessionTable` (LRU-bounded per-session
  solver state),
* a :class:`~repro.service.breaker.CircuitBreaker` guarding the tier-0
  solver,
* a :class:`~repro.service.degrade.DegradationLadder` choosing between the
  full SODA solve, the precomputed
  :class:`~repro.core.lookup.DecisionTable`, and the stateless BBA rule by
  remaining deadline budget, and
* a :class:`~repro.service.health.LatencyRing` feeding the health snapshot.

Per-session state is a :class:`SodaController` (fast backend) plus sample
bookkeeping; the shared decision table and BBA rule are immutable after
construction and therefore safe to read from every worker thread.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..abr.base import PlayerObservation
from ..abr.bba import BbaController
from ..abr.resilient import sanitize_observation
from ..core.controller import SodaController, select_quality_batch
from ..core.lookup import DecisionTable
from ..core.objective import SodaConfig
from ..prediction.base import ThroughputSample
from ..sim.video import BitrateLadder
from .admission import AdaptiveGate, SessionTable
from .breaker import CircuitBreaker
from .degrade import (
    TIER_RULE,
    TIER_TABLE,
    DegradationLadder,
    ServiceStats,
    StatsCounters,
    TierDecision,
)
from .health import BatchCounters, HealthSnapshot, LatencyRing, build_snapshot

__all__ = [
    "Decision", "DecisionService", "SessionState", "pack_columns",
    "FLAG_DEFERRED", "FLAG_SOLVER_ERROR", "FLAG_OVERRAN", "FLAG_SHED",
    "FLAG_SANITIZED", "FLAG_FIELDS",
]

#: a per-session tier-0 solver: obs -> rung or None (defer)
Tier0 = Callable[[PlayerObservation], Optional[int]]

#: the boolean :class:`Decision` fields, in the bit order of the flag
#: column the batch paths return
_FLAG_NAMES = ("deferred", "solver_error", "overran", "shed", "sanitized")
FLAG_DEFERRED, FLAG_SOLVER_ERROR, FLAG_OVERRAN, FLAG_SHED, FLAG_SANITIZED = (
    1 << bit for bit in range(len(_FLAG_NAMES))
)
#: flag byte -> the :class:`Decision` keyword arguments it encodes
FLAG_FIELDS = tuple(
    {name: bool(bits >> bit & 1) for bit, name in enumerate(_FLAG_NAMES)}
    for bits in range(1 << len(_FLAG_NAMES))
)


def pack_columns(
    requests: Sequence[Tuple[str, PlayerObservation]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decision-table axes of each request, as aligned columns.

    Returns ``(last throughput, buffer level, previous rung)``: the
    throughput is ``-1`` for a request with no history yet and the rung
    ``-1`` for none — the inputs of
    :meth:`DecisionService.decide_columns` and of the shard wire.
    """
    n = len(requests)
    tputs = np.empty(n)
    buffers = np.empty(n)
    prevs = np.empty(n, dtype=np.int64)
    for i, (_sid, obs) in enumerate(requests):
        history = obs.history
        tputs[i] = history[-1].throughput if history else -1.0
        buffers[i] = obs.buffer_level
        prev = obs.previous_quality
        prevs[i] = -1 if prev is None else prev
    return tputs, buffers, prevs


@dataclass(frozen=True)
class Decision:
    """The service's answer to one ``decide`` call.

    Attributes:
        session_id: the session the answer belongs to.
        quality: the committed rung, always inside the ladder.
        tier: which degradation tier produced it (0/1/2).
        deferred: the tier answered "defer" and the previous rung is held.
        solver_error: the tier-0 solver raised and the ladder degraded.
        overran: the tier-0 solve finished past the deadline.
        shed: admission control refused a slot; the answer is the
            tier-2 floor.
        sanitized: the observation needed repair before deciding.
        latency: wall seconds this call took inside the service.
    """

    session_id: str
    quality: int
    tier: int
    deferred: bool = False
    solver_error: bool = False
    overran: bool = False
    shed: bool = False
    sanitized: bool = False
    latency: float = 0.0


class SessionState:
    """Per-session solver state stored in the admission table."""

    __slots__ = ("controller", "tier0", "last_fed", "decisions")

    def __init__(self, controller: SodaController, tier0: Tier0) -> None:
        self.controller = controller
        self.tier0 = tier0
        #: start time of the newest history sample already fed to the
        #: predictor, so repeated observations do not double-count.
        self.last_fed = float("-inf")
        self.decisions = 0


class DecisionService:
    """Deadline-aware, multi-session ABR decision service.

    Args:
        ladder: the encoding ladder all sessions share.
        max_buffer: client buffer capacity, seconds.
        config: SODA tuning; defaults to the fast solver backend (the
            reference backend is ~40× slower and would starve the
            deadline).
        deadline: per-decision wall-clock budget, seconds.
        max_in_flight: concurrent decisions before load shedding: the
            ceiling and starting limit of the AIMD
            :class:`~repro.service.admission.AdaptiveGate`.
        max_sessions: resident-session cap (LRU eviction beyond it).
        table_points: decision-table grid size per axis; ``0`` skips the
            table entirely (tier 1 disabled — degradation jumps from the
            solver straight to the buffer rule).
        table: a pre-built (typically memory-mapped, see
            :meth:`~repro.core.lookup.DecisionTable.load_mmap`) decision
            table to serve tier 1 from; overrides ``table_points`` so
            shard workers pay zero build cost.
        tier0_budget: minimum remaining deadline budget to attempt the
            tier-0 solver (default half the deadline).  Batch serving
            lowers the solver share by raising this toward the deadline.
            The table lookup keeps the ladder's default tier-1 budget.
        breaker: pre-built circuit breaker; a default one (5 consecutive
            failures, 1 s cooldown) is created when omitted.
        tier0_factory: ``(session_id, controller) -> tier0`` hook that
            builds the per-session solver callable.  The default calls
            ``controller.select_quality``; the chaos-soak harness swaps
            in slow/crashing wrappers here.  Supplying a factory also
            disables cross-session tier-0 batching (a wrapped solver
            cannot be proven equivalent to the batched kernel), so the
            batch paths fall back to the sequential per-request loop.
        tier0_chunk: sessions per batched tier-0 solver call inside
            :meth:`decide_many` / :meth:`decide_columns`; ``1`` disables
            batching.  Budget is re-checked between chunks, so a large
            batch still degrades mid-way when the deadline thins.
        clock: injectable monotonic time source shared by the ladder and
            breaker (deterministic tests use a fake clock).

    Raises:
        ValueError: on a non-positive deadline (other bounds are
            validated by the composed components).
    """

    def __init__(
        self,
        ladder: BitrateLadder,
        max_buffer: float,
        config: Optional[SodaConfig] = None,
        deadline: float = 0.05,
        max_in_flight: int = 64,
        max_sessions: int = 1024,
        table_points: int = 32,
        table: Optional[DecisionTable] = None,
        tier0_budget: Optional[float] = None,
        breaker: Optional[CircuitBreaker] = None,
        tier0_factory: Optional[
            Callable[[str, SodaController], Tier0]
        ] = None,
        tier0_chunk: int = 16,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        if tier0_chunk < 1:
            raise ValueError("tier0_chunk must be at least 1")
        self.ladder = ladder
        self.max_buffer = max_buffer
        self.config = config or SodaConfig(solver_backend="fast")
        self.deadline = deadline
        self.clock = clock or time.monotonic

        self.table: Optional[DecisionTable] = table
        if table is None and table_points:
            self.table = DecisionTable(
                ladder,
                max_buffer,
                config=self.config,
                throughput_points=table_points,
                buffer_points=table_points,
            )

        self.breaker = breaker or CircuitBreaker(clock=self.clock)
        self._rule = BbaController()  # stateless given obs: shareable
        self.degradation = DegradationLadder(
            tier1=(
                self.table.lookup_observation
                if self.table is not None
                else None
            ),
            tier2=self._rule.select_quality,
            breaker=self.breaker,
            deadline=deadline,
            tier0_budget=tier0_budget,
            clock=self.clock,
        )

        self.gate = AdaptiveGate(max_in_flight, deadline)
        self.sessions = SessionTable(max_sessions)
        self.counters = StatsCounters()
        self.latencies = LatencyRing()
        self.batches = BatchCounters()
        # Cross-session batching requires the *default* tier-0 path: the
        # batched kernel is differentially proven equivalent to
        # ``controller.select_quality``, not to arbitrary wrappers.
        self._batchable = tier0_factory is None
        self.tier0_chunk = int(tier0_chunk)
        self._tier0_factory = tier0_factory or (
            lambda session_id, controller: controller.select_quality
        )

    # ------------------------------------------------------------------
    def _new_session(self, session_id: str) -> SessionState:
        controller = SodaController(config=self.config)
        return SessionState(
            controller, self._tier0_factory(session_id, controller)
        )

    def _feed_history(
        self, state: SessionState, obs: PlayerObservation
    ) -> None:
        """Forward history samples the predictor has not seen yet."""
        for sample in obs.history:
            if sample.start > state.last_fed:
                state.controller.on_download(sample)
                state.last_fed = sample.start

    # ------------------------------------------------------------------
    def decide(
        self,
        session_id: str,
        obs: PlayerObservation,
        deadline_at: Optional[float] = None,
    ) -> Decision:
        """Answer one session's request; never raises, never blocks long.

        The deadline clock starts here unless the caller supplies an
        absolute ``deadline_at`` — a shard worker does, so budget spent
        in transit on the pipe still counts against the answer.  An
        observation that arrives corrupted is repaired first (the repair
        is counted); a request that finds no free decision slot is shed
        straight to the tier-2 floor without touching session state.
        """
        started = self.clock()
        if deadline_at is None:
            deadline_at = started + self.deadline

        clean = sanitize_observation(obs)
        sanitized = clean is not obs
        if sanitized:
            self.counters.bump("sanitized_observations")

        if not self.gate.try_acquire(established=session_id in self.sessions):
            tier = TierDecision(
                quality=self.degradation.floor_quality(clean), tier=TIER_RULE
            )
            self.counters.bump("shed")
            return self._finish(
                session_id, tier, started, shed=True, sanitized=sanitized
            )

        try:
            tier = self._decide_admitted(session_id, clean, deadline_at)
        finally:
            self.gate.release()
        return self._finish(
            session_id, tier, started, shed=False, sanitized=sanitized
        )

    def _decide_admitted(
        self,
        session_id: str,
        clean: PlayerObservation,
        deadline_at: float,
    ) -> TierDecision:
        """Ladder descent for one admitted, already-sanitized request."""
        entry, _created = self.sessions.checkout(
            session_id, lambda: self._new_session(session_id)
        )
        try:
            with entry.lock:
                state: SessionState = entry.state
                self._feed_history(state, clean)
                tier = self.degradation.decide(
                    clean, state.tier0, deadline_at
                )
                state.decisions += 1
        finally:
            self.sessions.checkin(entry)
        return tier

    def _decide_admitted_many(
        self,
        items: Sequence[Tuple[str, PlayerObservation]],
        deadline_at: float,
    ) -> List[TierDecision]:
        """Ladder descent for a chunk of admitted requests, tier-0 batched.

        All sessions' horizon solves run through one
        :func:`~repro.core.controller.select_quality_batch` call; the
        breaker grant, overrun check, defer resolution, and descent then
        run per session via
        :meth:`~repro.service.degrade.DegradationLadder.resolve_tier0`,
        so the per-request contract is identical to the sequential path.
        Entry locks are acquired in canonical (sorted session-id) order —
        the same discipline the shard scatter path uses — so concurrent
        batches over overlapping sessions cannot deadlock.

        Duplicate session ids within one chunk are solved in *waves*
        (first occurrences, then seconds, ...): a later duplicate's
        history feed must not reach the shared predictor before the
        earlier request's solve, or the batch would answer the earlier
        request from state the sequential path builds only afterwards.
        """
        tiers: List[Optional[TierDecision]] = [None] * len(items)
        remaining = list(range(len(items)))
        while remaining:
            seen: set = set()
            wave: List[int] = []
            rest: List[int] = []
            for j in remaining:
                sid = items[j][0]
                if sid in seen:
                    rest.append(j)
                else:
                    seen.add(sid)
                    wave.append(j)
            self._decide_admitted_wave(items, wave, tiers, deadline_at)
            remaining = rest
        return tiers  # type: ignore[return-value]

    def _decide_admitted_wave(
        self,
        items: Sequence[Tuple[str, PlayerObservation]],
        wave: List[int],
        tiers: List[Optional[TierDecision]],
        deadline_at: float,
    ) -> None:
        """Feed and solve one duplicate-free wave of a batched chunk."""
        entries: dict = {}
        for j in wave:
            sid = items[j][0]
            entry, _created = self.sessions.checkout(
                sid, lambda sid=sid: self._new_session(sid)
            )
            entries[sid] = entry
        ordered = [entries[sid] for sid in sorted(entries)]
        for entry in ordered:
            entry.lock.acquire()
        try:
            pairs: List[Tuple[SodaController, PlayerObservation]] = []
            slots: List[int] = []
            for j in wave:
                sid, clean = items[j]
                state: SessionState = entries[sid].state
                self._feed_history(state, clean)
                if (
                    self.degradation.tier0_affordable(deadline_at)
                    and self.breaker.allow()
                ):
                    pairs.append((state.controller, clean))
                    slots.append(j)
                else:
                    tiers[j] = self.degradation._descend(
                        clean, deadline_at, False, False
                    )
                state.decisions += 1
            if pairs:
                solve_started = self.clock()
                outcomes = select_quality_batch(pairs)
                self.batches.record(
                    len(pairs), self.clock() - solve_started
                )
                for j, outcome in zip(slots, outcomes):
                    tiers[j] = self.degradation.resolve_tier0(
                        items[j][1], outcome, deadline_at
                    )
        finally:
            for entry in reversed(ordered):
                entry.lock.release()
            for entry in ordered:
                self.sessions.checkin(entry)

    # ------------------------------------------------------------------
    def decide_many(
        self,
        requests: Sequence[Tuple[str, PlayerObservation]],
        deadline_at: Optional[float] = None,
    ) -> List[Decision]:
        """Answer a batch of requests under one shared deadline.

        Every request in the batch owes its answer by the *same*
        ``deadline_at`` (defaulting to now + the per-decision deadline),
        so the batch degrades exactly like a queue draining under load:
        requests at the front get full tier-0 solves while at least
        ``tier0_budget`` remains, and the moment the budget thins, the
        **entire remaining batch** is answered in one vectorized tier-1
        pass over the decision table (one NumPy gather instead of
        per-request solves), falling to the tier-2 floor when even the
        lookup budget is gone.  This is what makes 100k+ decisions/sec
        aggregate serving honest: the contract (in-range rung, within
        deadline) is identical to :meth:`decide`, only the quality tier
        rides the offered load.

        It is :meth:`decide_columns` over the requests' table axes
        (:func:`pack_columns`), except that the tier-0 prefix solves from
        each request's own sanitized observation, full download log
        included.  The batch claims a single admission slot (a shed batch
        is answered entirely from the floor), the gate observes one
        latency per batch, and every answer carries that batch latency.
        Per-session solver state is touched only by the tier-0 prefix —
        the vectorized tiers are stateless, so the monotone history-feed
        invariant is preserved.
        """
        started = self.clock()
        if deadline_at is None:
            deadline_at = started + self.deadline

        def tier0_obs(i: int) -> Tuple[PlayerObservation, bool]:
            obs = requests[i][1]
            clean = sanitize_observation(obs)
            return clean, clean is not obs

        session_ids = [sid for sid, _obs in requests]
        rungs, tiers, flags, latency = self._decide_batch(
            session_ids, pack_columns(requests), tier0_obs, started,
            deadline_at,
        )
        return [
            Decision(
                session_id=sid, quality=rung, tier=tier, latency=latency,
                **FLAG_FIELDS[bits],
            )
            for sid, rung, tier, bits in zip(
                session_ids, rungs.tolist(), tiers.tolist(), flags.tolist()
            )
        ]

    def decide_columns(
        self,
        session_ids: Sequence[str],
        throughputs: np.ndarray,
        buffers: np.ndarray,
        prevs: np.ndarray,
        deadline_at: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Answer a batch given only the decision-table axes.

        The columnar form of :meth:`decide_many` for high-volume
        ingestion: each request is ``(last throughput, buffer level,
        previous rung)`` — exactly what the vectorized tiers consume — so
        a batch crosses process boundaries as three NumPy arrays instead
        of N observation objects.  Semantics match :meth:`decide_many`
        except that the tier-0 prefix sees a synthetic one-sample history
        (the reported throughput, stamped now) rather than the client's
        full download log.  Non-finite or out-of-range inputs are clamped
        exactly like :meth:`~repro.core.lookup.DecisionTable.lookup_batch`
        — the sanitizer behaviour falls out of the table lookup itself.

        Args:
            session_ids: aligned session identifiers.
            throughputs: last measured throughput per request, Mb/s
                (``<= 0`` or non-finite meaning "no history yet").
            buffers: buffer level per request, seconds.
            prevs: previous rung per request, ``-1`` for none.
            deadline_at: absolute clock() value the answers are due by.

        Returns:
            ``(rungs, tiers, flags)`` aligned int64/int8/uint8 arrays;
            every rung is inside the ladder, and each flag byte ORs the
            ``FLAG_*`` bits of the answer's :class:`Decision` flags.
        """
        started = self.clock()
        if deadline_at is None:
            deadline_at = started + self.deadline
        tputs = np.asarray(throughputs, dtype=float)
        bufs = np.asarray(buffers, dtype=float)
        prev_arr = np.asarray(prevs, dtype=np.int64)

        def tier0_obs(i: int) -> Tuple[PlayerObservation, bool]:
            obs = self._obs_from_columns(tputs[i], bufs[i], prev_arr[i])
            return obs, False

        rungs, tiers, flags, _latency = self._decide_batch(
            session_ids, (tputs, bufs, prev_arr), tier0_obs, started,
            deadline_at,
        )
        return rungs, tiers, flags

    def _decide_batch(
        self,
        session_ids: Sequence[str],
        columns: Tuple[np.ndarray, np.ndarray, np.ndarray],
        tier0_obs: Callable[[int], Tuple[PlayerObservation, bool]],
        started: float,
        deadline_at: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """The one batch implementation behind both public batch paths.

        Runs admission, the chunked tier-0 prefix, the table tail, the
        floor and the accounting.  ``columns`` are the requests' table
        axes, read by the tail and the floor; ``tier0_obs(i)`` builds row
        ``i``'s tier-0 observation and reports whether it needed repair.
        Returns rungs, tiers, flag bytes and the batch latency.
        """
        n = len(session_ids)
        rungs = np.empty(n, dtype=np.int64)
        tiers = np.empty(n, dtype=np.int8)
        flags = np.zeros(n, dtype=np.uint8)
        if n == 0:
            return rungs, tiers, flags, 0.0

        if not self.gate.try_acquire():
            self.counters.bump("shed", n)
            self._floor_rows(columns, rungs, tiers, 0)
            flags[:] = FLAG_SHED
            latency = self.clock() - started
            self.latencies.record_many(latency, n)
            return rungs, tiers, flags, latency

        try:
            solved = 0
            chunk_size = self.tier0_chunk if self._batchable else 1
            # ---- tier-0 prefix: batched solver chunks while budget lasts
            while (
                solved < n
                and self.degradation.tier0_affordable(deadline_at)
            ):
                items: List[Tuple[str, PlayerObservation]] = []
                for i in range(solved, min(n, solved + chunk_size)):
                    obs, sanitized = tier0_obs(i)
                    if sanitized:
                        self.counters.bump("sanitized_observations")
                        flags[i] = FLAG_SANITIZED
                    items.append((session_ids[i], obs))
                if len(items) == 1:
                    chunk_tiers = [
                        self._decide_admitted(
                            items[0][0], items[0][1], deadline_at
                        )
                    ]
                else:
                    chunk_tiers = self._decide_admitted_many(
                        items, deadline_at
                    )
                for tier in chunk_tiers:
                    self.counters.record_tier(tier)
                    rungs[solved] = tier.quality
                    tiers[solved] = tier.tier
                    flags[solved] |= (
                        FLAG_DEFERRED * tier.deferred
                        | FLAG_SOLVER_ERROR * tier.solver_error
                        | FLAG_OVERRAN * tier.overran
                    )
                    solved += 1
            if solved < n:
                self._table_tail(
                    columns, rungs, tiers, flags, solved, deadline_at
                )
        finally:
            self.gate.release()
        latency = self.clock() - started
        self.latencies.record_many(latency, n)
        self.gate.observe(latency)
        return rungs, tiers, flags, latency

    def _table_tail(
        self,
        columns: Tuple[np.ndarray, np.ndarray, np.ndarray],
        rungs: np.ndarray,
        tiers: np.ndarray,
        flags: np.ndarray,
        start: int,
        deadline_at: float,
    ) -> None:
        """Fill rows ``[start:]`` in one table gather (the tier-2 floor
        when the table or its budget is gone)."""
        if (
            self.table is None
            or deadline_at - self.clock() < self.degradation.tier1_budget
        ):
            self._floor_rows(columns, rungs, tiers, start)
            return
        tputs, bufs, prevs = columns
        looked = self.table.lookup_batch(
            tputs[start:], bufs[start:], prevs[start:]
        )
        # lookup_batch treats an out-of-range prev as "no previous rung"
        # for indexing; a defer holds only a valid one and floors otherwise.
        levels = self.ladder.levels
        valid_prev = (prevs[start:] >= 0) & (prevs[start:] < levels)
        hold = (looked < 0) & valid_prev
        floor = (looked < 0) & ~valid_prev
        looked = np.where(hold, prevs[start:], looked)
        for j in np.nonzero(floor)[0]:
            looked[j] = self._floor_from_columns(
                bufs[start + j], prevs[start + j]
            )
        rungs[start:] = looked
        tiers[start:] = np.where(floor, TIER_RULE, TIER_TABLE)
        flags[start:] = np.where(hold, FLAG_DEFERRED, 0)
        floor_count = int(floor.sum())
        self.counters.record_batch(
            TIER_TABLE, len(looked) - floor_count, deferred=int(hold.sum())
        )
        self.counters.record_batch(TIER_RULE, floor_count)

    def _floor_rows(
        self,
        columns: Tuple[np.ndarray, np.ndarray, np.ndarray],
        rungs: np.ndarray,
        tiers: np.ndarray,
        start: int,
    ) -> None:
        """Answer rows ``[start:]`` from the tier-2 floor."""
        _tputs, bufs, prevs = columns
        for i in range(start, len(rungs)):
            rungs[i] = self._floor_from_columns(bufs[i], prevs[i])
        tiers[start:] = TIER_RULE
        self.counters.record_batch(TIER_RULE, len(rungs) - start)

    def _obs_from_columns(
        self, tput: float, buffer_level: float, prev: int
    ) -> PlayerObservation:
        """A minimal observation carrying the three column values."""
        now = self.clock()
        if np.isfinite(tput) and tput > 0:
            history: Tuple[ThroughputSample, ...] = (
                ThroughputSample(
                    start=now, duration=1.0, size=float(tput),
                    throughput=float(tput),
                ),
            )
        else:
            history = ()
        if not np.isfinite(buffer_level):
            buffer_level = 0.0
        levels = self.ladder.levels
        return PlayerObservation(
            wall_time=now,
            segment_index=0,
            buffer_level=float(min(max(buffer_level, 0.0), self.max_buffer)),
            max_buffer=self.max_buffer,
            previous_quality=int(prev) if 0 <= prev < levels else None,
            ladder=self.ladder,
            history=history,
        )

    def _floor_from_columns(self, buffer_level: float, prev: int) -> int:
        return self.degradation.floor_quality(
            self._obs_from_columns(-1.0, buffer_level, prev)
        )

    def _finish(
        self,
        session_id: str,
        tier: TierDecision,
        started: float,
        shed: bool,
        sanitized: bool,
    ) -> Decision:
        latency = self.clock() - started
        self.counters.record_tier(tier)
        self.latencies.record(latency)
        if not shed:
            self.gate.observe(latency)
        return Decision(
            session_id=session_id,
            quality=tier.quality,
            tier=tier.tier,
            deferred=tier.deferred,
            solver_error=tier.solver_error,
            overran=tier.overran,
            shed=shed,
            sanitized=sanitized,
            latency=latency,
        )

    # ------------------------------------------------------------------
    @property
    def table_version(self) -> int:
        """The live decision table's version (``0`` with tier 1 disabled)."""
        return self.table.version if self.table is not None else 0

    def set_table(self, table: Optional[DecisionTable]) -> int:
        """Swap the tier-1 decision table in place; returns its version.

        The table and its lookup closure are the only shared state the
        degradation ladder reads, and rebinding two attributes is atomic
        enough under the GIL: a request in flight keeps using whichever
        table object it already resolved, then the next request sees the
        new one — there is no partially-swapped state.  ``None`` disables
        tier 1 (the ladder jumps from the solver to the floor rule).
        """
        self.table = table
        self.degradation.tier1 = (
            table.lookup_observation if table is not None else None
        )
        return self.table_version

    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Counter snapshot with session-table figures folded in."""
        return dataclasses.replace(
            self.counters.snapshot(),
            sessions_created=self.sessions.created,
            sessions_evicted=self.sessions.evicted,
            sessions_active=len(self.sessions),
            max_sessions_seen=self.sessions.max_size_seen,
        )

    def health(self) -> HealthSnapshot:
        """Liveness/readiness/latency snapshot for pollers and artifacts."""
        return build_snapshot(
            self.stats(),
            self.breaker,
            self.latencies,
            self.deadline,
            table_version=self.table_version,
            admission=self.gate.snapshot(),
            batching=self.batches.snapshot(),
        )
