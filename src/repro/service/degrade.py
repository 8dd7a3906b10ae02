"""Three-tier graceful degradation for per-request ABR decisions.

Under a hard per-decision deadline the service can never answer "sorry,
the optimizer was slow" — it must always return *some* playable rung.  The
degradation ladder encodes the fallback order, each tier an order of
magnitude cheaper than the one above (measured on the 6-rung ladder):

* **tier 0** — the full :class:`~repro.core.controller.SodaController`
  horizon solve (fast backend, ~100 µs): highest quality decisions;
* **tier 1** — a precomputed :class:`~repro.core.lookup.DecisionTable`
  nearest-neighbour lookup (~10 µs): SODA's policy quantized to a grid;
* **tier 2** — the stateless BBA buffer rule (~1 µs): needs no throughput
  signal, no table, and cannot fail.

Tier choice is driven by the *remaining* deadline budget through an
injectable monotonic clock: tier 0 is attempted only while at least
``tier0_budget`` seconds remain (and the circuit breaker allows it),
tier 1 while ``tier1_budget`` remains, and tier 2 is the unconditional
floor.  A tier-0 exception or deadline overrun is reported to the breaker,
which eventually forces tier 1+ entirely (see
:mod:`repro.service.breaker`).

Every intervention is counted; :meth:`StatsCounters.snapshot` freezes the
counters into a :class:`ServiceStats` for the health endpoint.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..abr.base import PlayerObservation
from ..abr.resilient import validate_rung
from .breaker import CircuitBreaker

__all__ = [
    "TIER_SOLVER",
    "TIER_TABLE",
    "TIER_RULE",
    "TierDecision",
    "ServiceStats",
    "StatsCounters",
    "DegradationLadder",
    "floor_rung",
]

#: tier indices, in degradation order
TIER_SOLVER = 0
TIER_TABLE = 1
TIER_RULE = 2


def floor_rung(
    rule: Callable[[PlayerObservation], Optional[int]],
    obs: PlayerObservation,
) -> int:
    """A floor rule's answer: validated, and rung 0 when the rule raises
    or answers outside the ladder (the last line of defense)."""
    try:
        answer = rule(obs)
    except Exception:
        return 0
    rung = validate_rung(answer, obs.ladder.levels)
    return rung if rung is not None else 0


@dataclass(frozen=True)
class TierDecision:
    """Outcome of one ladder descent.

    Attributes:
        quality: the committed rung (always inside the ladder).
        tier: which tier produced it (0 solver, 1 table, 2 rule).
        deferred: the producing tier answered "defer" and the ladder
            resolved it to holding the previous rung.
        solver_error: tier 0 raised and the ladder degraded.
        overran: tier 0 finished past the decision deadline.
    """

    quality: int
    tier: int
    deferred: bool = False
    solver_error: bool = False
    overran: bool = False


@dataclass(frozen=True)
class ServiceStats:
    """Frozen counter snapshot of a decision service.

    Attributes:
        decisions: total ``decide`` calls answered.
        tier0_decisions: answers produced by the full solver.
        tier1_decisions: answers produced by the decision-table lookup.
        tier2_decisions: answers produced by the stateless buffer rule
            (including every shed request).
        shed: requests refused an in-flight slot and answered at tier 2.
        solver_errors: tier-0 exceptions contained by the ladder.
        deadline_overruns: tier-0 solves that finished past the deadline.
        deferrals_resolved: defer answers resolved to holding a rung.
        sanitized_observations: requests whose observation needed repair.
        sessions_created: session states created over the service lifetime.
        sessions_evicted: sessions LRU-evicted by the admission table.
        sessions_active: sessions currently resident.
        max_sessions_seen: high-water mark of resident sessions.
    """

    decisions: int = 0
    tier0_decisions: int = 0
    tier1_decisions: int = 0
    tier2_decisions: int = 0
    shed: int = 0
    solver_errors: int = 0
    deadline_overruns: int = 0
    deferrals_resolved: int = 0
    sanitized_observations: int = 0
    sessions_created: int = 0
    sessions_evicted: int = 0
    sessions_active: int = 0
    max_sessions_seen: int = 0

    @property
    def degraded_decisions(self) -> int:
        """Answers that did not come from the full solver."""
        return self.tier1_decisions + self.tier2_decisions

    def shed_rate(self) -> float:
        """Fraction of decisions answered by shedding."""
        return self.shed / self.decisions if self.decisions else 0.0


class StatsCounters:
    """Thread-safe mutable counters behind :class:`ServiceStats`."""

    _FIELDS = (
        "decisions", "tier0_decisions", "tier1_decisions", "tier2_decisions",
        "shed", "solver_errors", "deadline_overruns", "deferrals_resolved",
        "sanitized_observations",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for field in self._FIELDS:
            setattr(self, field, 0)

    def bump(self, field: str, amount: int = 1) -> None:
        """Atomically increment one counter."""
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def record_tier(self, decision: TierDecision) -> None:
        """Account one ladder answer (tier + intervention flags)."""
        self.record_tiers((decision,))

    def record_tiers(self, decisions: Sequence[TierDecision]) -> None:
        """Account a run of ladder answers in one lock trip, as
        :meth:`record_tier` accounts each (a tier-0 chunk's answers)."""
        with self._lock:
            self.decisions += len(decisions)
            for decision in decisions:
                if decision.tier == TIER_SOLVER:
                    self.tier0_decisions += 1
                elif decision.tier == TIER_TABLE:
                    self.tier1_decisions += 1
                else:
                    self.tier2_decisions += 1
                if decision.deferred:
                    self.deferrals_resolved += 1
                if decision.solver_error:
                    self.solver_errors += 1
                if decision.overran:
                    self.deadline_overruns += 1

    def record_batch(
        self, tier: int, count: int, deferred: int = 0
    ) -> None:
        """Account ``count`` same-tier answers in one lock trip.

        The vectorized batch path produces whole runs of tier-1/tier-2
        answers at once; per-answer locking would cost more than the
        answers themselves.
        """
        if count <= 0:
            return
        with self._lock:
            self.decisions += count
            if tier == TIER_SOLVER:
                self.tier0_decisions += count
            elif tier == TIER_TABLE:
                self.tier1_decisions += count
            else:
                self.tier2_decisions += count
            self.deferrals_resolved += deferred

    def snapshot(self) -> ServiceStats:
        """Freeze the current counters into a :class:`ServiceStats`.

        The session fields stay zero here; the service folds in its
        session table's figures (see ``DecisionService.stats``).
        """
        with self._lock:
            return ServiceStats(
                **{field: getattr(self, field) for field in self._FIELDS}
            )


class DegradationLadder:
    """Deadline-aware tier selection around one request.

    Args:
        tier1: the decision-table lookup, ``obs -> Optional[rung]``;
            ``None`` disables tier 1 (the ladder jumps straight to tier 2).
        tier2: the stateless floor rule, ``obs -> rung``; must be cheap
            and total — its answer is validated and floored to rung 0
            as the last line of defense.
        breaker: circuit breaker consulted before every tier-0 attempt
            and informed of tier-0 exceptions and deadline overruns.
        deadline: per-decision wall-clock budget, seconds.
        tier0_budget: minimum remaining budget to attempt the solver.
        tier1_budget: minimum remaining budget to attempt the lookup.
        clock: injectable monotonic time source shared with the breaker.

    Raises:
        ValueError: on non-positive deadline or inverted tier budgets.
    """

    def __init__(
        self,
        tier1: Optional[Callable[[PlayerObservation], Optional[int]]],
        tier2: Callable[[PlayerObservation], Optional[int]],
        breaker: CircuitBreaker,
        deadline: float = 0.05,
        tier0_budget: Optional[float] = None,
        tier1_budget: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        self.deadline = deadline
        self.tier0_budget = (
            0.5 * deadline if tier0_budget is None else tier0_budget
        )
        self.tier1_budget = (
            0.05 * deadline if tier1_budget is None else tier1_budget
        )
        if not 0 <= self.tier1_budget <= self.tier0_budget:
            raise ValueError("need 0 <= tier1_budget <= tier0_budget")
        self.tier1 = tier1
        self.tier2 = tier2
        self.breaker = breaker
        self.clock = clock or time.monotonic

    # ------------------------------------------------------------------
    def decide(
        self,
        obs: PlayerObservation,
        tier0: Callable[[PlayerObservation], Optional[int]],
        deadline_at: float,
    ) -> TierDecision:
        """Descend the ladder for one request; always returns a rung.

        Args:
            obs: the (already sanitized) player observation.
            tier0: this session's full solver — per-session state lives
                with the caller, so the solver arrives per call.
            deadline_at: absolute clock() value the answer is due by.
        """
        # ---- tier 0: the full horizon solve, breaker permitting -------
        if self.tier0_affordable(deadline_at) and self.breaker.allow():
            try:
                outcome = tier0(obs)
            except Exception as exc:
                outcome = exc
            return self.resolve_tier0(obs, outcome, deadline_at)
        return self._descend(obs, deadline_at, False, False)

    def tier0_affordable(self, deadline_at: float) -> bool:
        """Whether enough budget remains to attempt the full solver."""
        return deadline_at - self.clock() >= self.tier0_budget

    def resolve_tier0(
        self,
        obs: PlayerObservation,
        outcome,
        deadline_at: float,
    ) -> TierDecision:
        """Finish the ladder for a tier-0 attempt computed elsewhere.

        ``outcome`` is the solver's answer (rung or ``None`` for defer) or
        the exception it raised.  The batched tier-0 path solves many
        sessions in one kernel call and then runs each session's outcome
        through this method, so breaker accounting, overrun detection,
        defer resolution, and tier descent stay byte-identical to the
        sequential :meth:`decide`.  The caller must already hold a breaker
        ``allow()`` grant for the attempt.
        """
        levels = obs.ladder.levels
        solver_error = False
        overran = False
        if isinstance(outcome, BaseException):
            solver_error = True
            self.breaker.record_failure()
        else:
            # An answer past the deadline counts against the breaker,
            # but the work is already spent — serving the computed
            # rung beats burning more time in tier 1.  The breaker
            # will stop further exposure.
            overran = self.clock() > deadline_at
            if outcome is None:
                # A defer is a legitimate answer, not a failure.
                if overran:
                    self.breaker.record_failure()
                else:
                    self.breaker.record_success()
                held = validate_rung(obs.previous_quality, levels)
                if held is not None:
                    return TierDecision(
                        quality=held,
                        tier=TIER_SOLVER,
                        deferred=True,
                        overran=overran,
                    )
                # Nothing to hold at session start: descend a tier.
            else:
                rung = validate_rung(outcome, levels)
                if rung is None:
                    # Out-of-range/NaN answer: treat as an exception.
                    solver_error = True
                    self.breaker.record_failure()
                else:
                    if overran:
                        self.breaker.record_failure()
                    else:
                        self.breaker.record_success()
                    return TierDecision(
                        quality=rung, tier=TIER_SOLVER, overran=overran
                    )
        return self._descend(obs, deadline_at, solver_error, overran)

    def _descend(
        self,
        obs: PlayerObservation,
        deadline_at: float,
        solver_error: bool,
        overran: bool,
    ) -> TierDecision:
        """Tiers 1 and 2, carrying the tier-0 intervention flags."""
        levels = obs.ladder.levels

        # ---- tier 1: the precomputed decision table -------------------
        if (
            self.tier1 is not None
            and deadline_at - self.clock() >= self.tier1_budget
        ):
            try:
                answer = self.tier1(obs)
            except Exception:
                # A broken table must not masquerade as a defer — descend.
                resolved = None
            else:
                resolved = self._resolve(answer, obs, levels)
            if resolved is not None:
                rung, deferred = resolved
                return TierDecision(
                    quality=rung,
                    tier=TIER_TABLE,
                    deferred=deferred,
                    solver_error=solver_error,
                    overran=overran,
                )

        # ---- tier 2: the stateless floor rule -------------------------
        return TierDecision(
            quality=self.floor_quality(obs),
            tier=TIER_RULE,
            solver_error=solver_error,
            overran=overran,
        )

    # ------------------------------------------------------------------
    def floor_quality(self, obs: PlayerObservation) -> int:
        """The tier-2 answer: total, validated, floored to rung 0."""
        return floor_rung(self.tier2, obs)

    @staticmethod
    def _resolve(answer, obs: PlayerObservation, levels: int):
        """Validate a tier-1 answer; map defer to holding the previous rung.

        Returns ``(rung, was_deferred)`` or ``None`` when the answer is
        unusable and the ladder should descend to tier 2.
        """
        if answer is None:
            held = validate_rung(obs.previous_quality, levels)
            if held is None:
                return None
            return held, True
        rung = validate_rung(answer, levels)
        if rung is None:
            return None
        return rung, False
