"""SODA core: objective, solvers, controller, offline optimal, theory."""

from .controller import SodaController
from .fastpath import (
    PlanCache,
    monotone_candidate_count,
    monotone_candidates,
    product_candidates,
    solve_brute_force_fast,
    solve_monotonic_fast,
)
from .lookup import DecisionTable
from .objective import (
    DistortionFunction,
    SodaConfig,
    log_distortion,
    reciprocal_distortion,
)
from .offline import (
    OfflineSolution,
    RolloutResult,
    offline_optimal,
    rollout_time_based,
)
from .tuning import TuningResult, tune_soda
from .solver import PlanResult, plan_cost, solve_brute_force, solve_monotonic
from .theory import (
    DecayConstants,
    StreamingModel,
    check_assumption_a1,
    competitive_ratio_bound,
    decay_constants,
    error_aggregate,
    fit_decay_rate,
    horizon_requirement,
    monotonic_gamma_requirement,
    regret_bound_exact,
    regret_bound_inexact,
)

__all__ = [
    "SodaController",
    "SodaConfig",
    "DecisionTable",
    "TuningResult",
    "tune_soda",
    "DistortionFunction",
    "log_distortion",
    "reciprocal_distortion",
    "PlanResult",
    "plan_cost",
    "solve_monotonic",
    "solve_brute_force",
    "PlanCache",
    "monotone_candidates",
    "monotone_candidate_count",
    "product_candidates",
    "solve_monotonic_fast",
    "solve_brute_force_fast",
    "OfflineSolution",
    "RolloutResult",
    "offline_optimal",
    "rollout_time_based",
    "StreamingModel",
    "DecayConstants",
    "check_assumption_a1",
    "decay_constants",
    "horizon_requirement",
    "regret_bound_exact",
    "competitive_ratio_bound",
    "error_aggregate",
    "regret_bound_inexact",
    "monotonic_gamma_requirement",
    "fit_decay_rate",
]
