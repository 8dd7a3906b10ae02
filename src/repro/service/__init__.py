"""The long-lived multi-session ABR decision service.

``repro.service`` turns the package's controllers into an operable
serving layer: :class:`DecisionService` answers
``decide(session_id, observation)`` for many concurrent sessions under a
hard per-decision deadline, degrading gracefully (full solve → table
lookup → buffer rule) instead of ever erroring, with a circuit breaker
around the solver, admission control with load shedding, LRU-bounded
session state, and a pollable health surface.  :class:`ShardedDecisionService`
scales that out: N supervised worker processes (heartbeats, bounded-backoff
restarts) behind a session-hashing front end sharing one memory-mapped
decision table, with session re-homing off dead shards, a columnar
``decide_many`` batch path, and fleet-level health rollups.  The chaos-soak
harness (:func:`run_soak`, ``repro soak``, ``--shards N`` for the fleet
variant with a mid-run worker SIGKILL) proves those properties under
injected faults.
"""

from .admission import (
    AdaptiveGate,
    RetryBudget,
    SessionEntry,
    SessionTable,
)
from .batcher import MicroBatcher, PendingDecision
from .breaker import BreakerOpenError, BreakerState, CircuitBreaker
from .degrade import (
    TIER_RULE,
    TIER_SOLVER,
    TIER_TABLE,
    DegradationLadder,
    ServiceStats,
    StatsCounters,
    TierDecision,
)
from .health import BatchCounters, HealthSnapshot, LatencyRing, build_snapshot
from .service import Decision, DecisionService, SessionState
from .shard import (
    FleetHealth,
    RolloutReport,
    ShardDecision,
    ShardedDecisionService,
)
from .soak import ChaosSolver, SoakConfig, SoakReport, run_soak
from .supervisor import RestartPolicy, Supervisor

__all__ = [
    "AdaptiveGate",
    "RetryBudget",
    "SessionEntry",
    "SessionTable",
    "MicroBatcher",
    "PendingDecision",
    "BreakerOpenError",
    "BreakerState",
    "CircuitBreaker",
    "BatchCounters",
    "TIER_SOLVER",
    "TIER_TABLE",
    "TIER_RULE",
    "DegradationLadder",
    "ServiceStats",
    "StatsCounters",
    "TierDecision",
    "HealthSnapshot",
    "LatencyRing",
    "build_snapshot",
    "Decision",
    "DecisionService",
    "SessionState",
    "FleetHealth",
    "RolloutReport",
    "ShardDecision",
    "ShardedDecisionService",
    "RestartPolicy",
    "Supervisor",
    "ChaosSolver",
    "SoakConfig",
    "SoakReport",
    "run_soak",
]
