"""The SODA controller (paper §3.3 and §5).

``SodaController`` is the deployable, segment-based realisation of the
time-based design: Δt is set to the segment length (§5.1), predictions come
from a pluggable (by default simple) throughput predictor (§5.2), and each
decision runs Algorithm 1's monotonic search (§5.3), committing only the
first rung of the K-step plan.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..abr.base import AbrController, PlayerObservation
from ..prediction.base import ThroughputPredictor
from ..prediction.moving_average import SlidingWindowPredictor
from .fastpath import (
    PlanCache,
    SessionSolveRequest,
    _pred,
    solve_brute_force_fast,
    solve_monotonic_fast,
    solve_sessions_batch,
)
from .objective import SodaConfig
from .solver import _TOL, PlanResult, solve_brute_force, solve_monotonic

__all__ = ["SodaController", "select_quality_batch"]

#: (backend, brute-force?) → solver entry point
_SOLVERS = {
    ("reference", False): solve_monotonic,
    ("reference", True): solve_brute_force,
    ("fast", False): solve_monotonic_fast,
    ("fast", True): solve_brute_force_fast,
}

#: ``last_plan`` of a decision answered without a solve: infeasible, and no
#: candidate scored
_UNSOLVED = PlanResult(None, math.inf, (), 0)

#: guard band of :func:`_all_overflow` per unit of magnitude: 2⁻⁴⁹ = 16u
#: (u = 2⁻⁵³, the float64 unit roundoff), twice the 8u the closed form,
#: the kernel and the test's own rounding can differ by (DESIGN §8)
_GUARD = 2.0 ** -49


def _all_overflow(
    omega0: float, buffer_level: float, ladder, max_buffer: float
) -> bool:
    """Whether every candidate plan overflows the buffer at its first step.

    The top rung's first step ``buffer + ω₀·Δt/r_max − Δt`` lands beyond
    ``max_buffer + _TOL`` by more than a guard band, and a lower rung only
    lands higher, so both backends prune every candidate on their own
    first-step test, the horizon-1 retry included: the solve cannot change
    the answer.  The guard band covers the rounding gap between this
    expression and the kernel's ``ω₀·(Δt/r) + (buffer − Δt)``; a non-finite
    state makes it inf or NaN, so the test fails and the full path runs.
    """
    dt = ladder.segment_duration
    gain = omega0 * dt / ladder.max_bitrate
    x1 = buffer_level + gain - dt
    guard = _GUARD * (abs(buffer_level) + abs(gain) + dt + abs(max_buffer))
    return x1 - guard > max_buffer + _TOL


def _overflow_rung(
    buffer_level: float, target: float, first_cap: Optional[int], ladder
) -> Optional[int]:
    """SODA's answer when every rung overflows the model buffer.

    Defer while the buffer sits above target (Figure 5's blank region), but
    never below it: there the Δt model's overflow is an artifact, because
    the real player downloads exactly one segment and enforces buffer room
    itself.  So below target take the first-step cap, or the top rung.
    """
    if buffer_level > target:
        return None
    if first_cap is not None:
        return first_cap
    return ladder.levels - 1


@lru_cache(maxsize=64)
def _one_step(cfg: SodaConfig) -> SodaConfig:
    """``cfg`` at horizon 1 for the underflow retry, built once per config,
    so the retry neither revalidates a fresh config nor makes the bundle
    cache compare one field by field."""
    return cfg.with_(horizon=1)


#: a throughput forecast: one float for a constant forecast, or a
#: per-interval vector (DESIGN §8)
Prediction = Union[float, np.ndarray]


def _first(omega: Prediction) -> float:
    """ω₀ of a prediction, as a Python float."""
    return omega if isinstance(omega, float) else float(omega[0])


def _key_prediction(omega: Prediction, horizon: int):
    """The prediction :meth:`PlanCache.key` is handed for a ``horizon``-step
    solve: a float repeated ``horizon`` times, so its key is the key of
    the equal vector and a one-step key stays one entry long."""
    return (omega,) * horizon if isinstance(omega, float) else omega


def _fallback(obs: PlayerObservation) -> float:
    """The forecast that replaces a non-positive one: the last measured
    throughput if positive, else the lowest rung."""
    fallback = obs.last_throughput
    if fallback is None or fallback <= 0:
        fallback = obs.ladder.min_bitrate
    return fallback


class SodaController(AbrController):
    """Smoothness-optimized dynamic adaptive controller.

    Args:
        predictor: throughput predictor; defaults to the 10-second sliding
            window used in the production deployment (§6.3).  SODA is robust
            to prediction errors by design, so simple predictors suffice.
        config: weights, horizon, and solver options.

    The controller returns ``None`` (defer) when any download would overflow
    the buffer — the blank region of Figure 5 — and falls back to the lowest
    rung when the network is too slow for any feasible plan.

    A decision runs in this order: the first-step caps; then, when even the
    top rung's first step overflows the buffer, the closed-form answer with
    no solve and no plan-cache probe; otherwise the plan cache, the K-step
    solve, and — when that plan is infeasible — the horizon-1 retry and the
    fallback rules of :meth:`_finalize`.
    """

    name = "soda"

    def __init__(
        self,
        predictor: Optional[ThroughputPredictor] = None,
        config: Optional[SodaConfig] = None,
    ) -> None:
        super().__init__(predictor or SlidingWindowPredictor(window_seconds=10.0))
        self.config = config or SodaConfig()
        #: last plan produced, for diagnostics and the decision-diagram bench
        self.last_plan: Optional[PlanResult] = None
        # The plan cache only serves the fast backend: "reference" exists to
        # reproduce the recursive solver's behaviour exactly, which a
        # quantized-state cache would perturb.
        self._plan_cache: Optional[PlanCache] = None
        if self.config.plan_cache and self.config.solver_backend == "fast":
            self._plan_cache = PlanCache(
                buffer_quantum=self.config.cache_buffer_quantum,
                tput_quantum=self.config.cache_tput_quantum,
                max_entries=self.config.plan_cache_size,
            )

    # ------------------------------------------------------------------
    @property
    def plan_cache_hits(self) -> int:
        """Decisions answered by the per-session plan cache."""
        return 0 if self._plan_cache is None else self._plan_cache.hits

    @property
    def plan_cache_misses(self) -> int:
        """Decisions that required a fresh horizon solve."""
        return 0 if self._plan_cache is None else self._plan_cache.misses

    def reset(self) -> None:
        """Reset predictor state and start a fresh per-session plan cache."""
        super().reset()
        if self._plan_cache is not None:
            self._plan_cache.clear()

    # ------------------------------------------------------------------
    def select_quality(self, obs: PlayerObservation) -> Optional[int]:
        omega = self._predict_vector(obs, self.config.horizon)
        # The schema caps react on the freshest signal available: EMA-style
        # predictors recover slowly after an outage, which would pin the cap
        # below the ladder for many segments; the last measured sample lifts
        # it as soon as the network actually recovers.
        cap_tput = _first(omega)
        if obs.last_throughput is not None:
            cap_tput = max(cap_tput, obs.last_throughput)
        return self._select(
            omega,
            obs.buffer_level,
            obs.previous_quality,
            obs.ladder,
            obs.max_buffer,
            cap_tput,
        )

    def decide(
        self,
        throughput: float,
        buffer_level: float,
        prev_quality: Optional[int],
        ladder,
        max_buffer: float,
    ) -> Optional[int]:
        """Stateless single decision for a given situation.

        Used by the Figure 5 decision diagram and the Figure 8 solver-parity
        experiment, which sample (throughput, buffer, previous-rate)
        situations directly rather than running sessions.  Applies exactly
        the same fallback rules as :meth:`select_quality`.
        """
        omega = max(float(throughput), 0.0)
        return self._select(
            omega, buffer_level, prev_quality, ladder, max_buffer, omega
        )

    # ------------------------------------------------------------------
    def _select(
        self,
        omega: Prediction,
        buffer_level: float,
        prev_quality: Optional[int],
        ladder,
        max_buffer: float,
        cap_tput: float,
    ) -> Optional[int]:
        cfg = self.config
        dt = ladder.segment_duration
        first_cap = self._first_step_cap(
            cap_tput, buffer_level, max_buffer, ladder, cfg
        )
        if self._skips_solve(omega, buffer_level, ladder, max_buffer):
            self.last_plan = _UNSOLVED
            return _overflow_rung(
                buffer_level, cfg.resolve_target(max_buffer), first_cap,
                ladder,
            )
        plan = self._solve(
            omega, buffer_level, prev_quality, ladder, max_buffer, cfg, dt,
            first_cap,
        )
        return self._finalize(
            plan, omega, buffer_level, prev_quality, ladder, max_buffer,
            first_cap,
        )

    def _skips_solve(
        self, omega, buffer_level: float, ladder, max_buffer: float
    ) -> bool:
        """:func:`_all_overflow` for a prediction, which it validates exactly
        as the solve it skips would, so a bad vector still raises."""
        if not _all_overflow(_first(omega), buffer_level, ladder, max_buffer):
            return False
        _pred(omega, self.config.horizon)
        return True

    def _finalize(
        self,
        plan: PlanResult,
        omega: Prediction,
        buffer_level: float,
        prev_quality: Optional[int],
        ladder,
        max_buffer: float,
        first_cap: Optional[int],
    ) -> Optional[int]:
        """Fallback rules turning a solved plan into a committed rung.

        Split out of :meth:`_select` so callers that solve elsewhere —
        :func:`select_quality_batch`, the FastMPC-style
        :class:`~repro.core.lookup.DecisionTable` build and the population
        ``SolverBackend`` — apply byte-identical post-processing to each
        plan.  ``omega`` is the prediction the plan was solved for: a float
        for a constant forecast, which the horizon-1 retry solves as it is,
        or a vector, whose first entry the retry takes.  Both fallback
        rules read ω₀ as a Python float, the same IEEE value either way.
        """
        cfg = self.config
        dt = ladder.segment_duration
        if plan.quality is None and cfg.horizon > 1:
            # The model sees no feasible K-step plan (e.g. a deep throughput
            # drop makes future underflow unavoidable); degrade gracefully to
            # a one-step look-ahead before applying the hard fallbacks.
            plan = self._solve(
                omega if isinstance(omega, float) else omega[:1],
                buffer_level, prev_quality, ladder, max_buffer,
                _one_step(cfg), dt, first_cap,
            )
        self.last_plan = plan
        target = cfg.resolve_target(max_buffer)
        omega0 = _first(omega)

        if plan.quality is not None:
            if (
                prev_quality is not None
                and plan.quality > prev_quality
                and buffer_level > target
            ):
                # The plan switches up while the buffer is already above
                # target.  If holding the previous rung is only ruled out
                # because its model landing point overflows the buffer,
                # prefer *not downloading* (Figure 5's blank region): wait a
                # beat, let the buffer drain, and keep the bitrate smooth.
                x1_hold = (
                    buffer_level
                    + omega0 * dt / ladder.bitrate(prev_quality)
                    - dt
                )
                if x1_hold > max_buffer:
                    return None
            return plan.quality

        # Still infeasible.  Either every rung overflows the model buffer
        # (throughput far above the ladder; ``_select`` answers most of these
        # without solving), or the network is too slow for any plan: take
        # the lowest rung and accept the buffer drain.
        x1_fastest = buffer_level + omega0 * dt / ladder.max_bitrate - dt
        if x1_fastest > max_buffer:
            return _overflow_rung(buffer_level, target, first_cap, ladder)
        return 0

    # ------------------------------------------------------------------
    def _first_step_cap(
        self,
        omega0: float,
        buffer_level: float,
        max_buffer: float,
        ladder,
        cfg: SodaConfig,
    ):
        """Combined §5.1 schema caps on the committed rung.

        The one-rung-above-throughput cap plus the low-buffer download-time
        guard; returns ``None`` when neither is enabled.
        """
        caps = []
        if cfg.cap_one_rung_above:
            caps.append(ladder.ceil_quality_for_bitrate(omega0))
        if cfg.download_safety > 0:
            seg_len = ladder.segment_duration
            budget = max(cfg.download_safety * buffer_level, seg_len)
            caps.append(
                ladder.quality_for_bitrate(omega0 * budget / seg_len)
            )
        if not caps:
            return None
        return min(caps)

    def _solve(
        self,
        omega: Prediction,
        buffer_level: float,
        prev_quality: Optional[int],
        ladder,
        max_buffer: float,
        cfg: SodaConfig,
        dt: float,
        first_cap: Optional[int],
    ) -> PlanResult:
        cache = self._plan_cache
        key = None
        if cache is not None:
            key = cache.key(
                _key_prediction(omega, cfg.horizon), buffer_level,
                prev_quality, ladder, max_buffer, dt, first_cap,
            )
            hit = cache.get(key)
            if hit is not None:
                return hit
        solver = _SOLVERS[(cfg.solver_backend, cfg.use_brute_force)]
        plan = solver(
            omega,
            buffer_level,
            prev_quality,
            ladder,
            cfg,
            max_buffer,
            dt=dt,
            first_cap=first_cap,
        )
        if cache is not None:
            cache.put(key, plan)
        return plan

    def _predict_vector(self, obs: PlayerObservation, horizon: int) -> Prediction:
        """The forecast for the next ``horizon`` intervals, with safe
        cold-start fallbacks.

        A predictor whose class forecasts a constant (it inherits
        :meth:`ThroughputPredictor.predict`, see ``_constant_forecast``)
        is asked for :meth:`~ThroughputPredictor.predict_scalar` alone, and
        the forecast comes back as one Python float: the value the base
        ``predict`` would have repeated K times.  Any other predictor's
        ``predict`` vector comes back as a float64 array.  Both forms take
        the same fallback when the forecast is not positive (NaN is kept,
        as ``np.max`` keeps it): the last measured throughput if positive,
        else the lowest rung.
        """
        predictor = self.predictor
        if predictor is not None and getattr(
            predictor, "_constant_forecast", False
        ):
            omega = max(predictor.predict_scalar(obs.wall_time), 0.0)
            if omega <= 0.0:
                return float(_fallback(obs))
            return float(omega)
        omega = None
        if predictor is not None:
            omega = predictor.predict(
                obs.wall_time, horizon, obs.ladder.segment_duration
            )
        if omega is None or float(np.max(omega)) <= 0.0:
            omega = np.full(horizon, _fallback(obs))
        return np.asarray(omega, dtype=float)


# ----------------------------------------------------------------------
# Cross-session batched decisions
# ----------------------------------------------------------------------
def select_quality_batch(
    pairs: Sequence[Tuple[SodaController, PlayerObservation]],
) -> List[Union[Optional[int], BaseException]]:
    """Decide for many (controller, observation) pairs in one solver pass.

    Behaves exactly like calling ``ctrl.select_quality(obs)`` for each pair
    in order — same committed rungs and defers, same plan-cache hit/miss
    accounting, same ``last_plan`` side effects, set in request order — but
    the main horizon solves of all cache-missing sessions run through
    :func:`repro.core.fastpath.solve_sessions_batch`: one session-axis pass
    per (ladder, config, Δt) and prediction shape, whatever each row's
    previous rung.  Only the fast backend batches;
    reference-backend controllers fall back to the sequential path inline.
    A row whose every plan overflows the buffer is answered in closed form
    before the plan-cache probe and never enqueued, as in
    :meth:`SodaController._select`.  The horizon-1 infeasibility retry
    inside ``_finalize`` stays sequential (it reuses the untouched
    single-session code, so parity is by construction); it is not rare —
    on perfbench's sweep about one decision in six still takes it.

    Each row carries its prediction in the form
    :meth:`SodaController._predict_vector` gives it: a constant forecast
    stays one float through the caps, the all-overflow test, the
    plan-cache key (as a K-tuple), the solve request and ``_finalize``,
    exactly as on the sequential path.

    Faults are isolated per session: an exception raised while deciding for
    one pair (invalid prediction, corrupt observation, a raising solver) is
    returned *as that pair's result* instead of propagating, so one corrupt
    session cannot take down the whole batch.  Callers must therefore check
    ``isinstance(result, BaseException)`` before treating a result as a
    rung.
    """
    n = len(pairs)
    results: List[Union[Optional[int], BaseException]] = [None] * n
    done = [False] * n
    prepped: List[Optional[tuple]] = [None] * n
    pending: List[int] = []
    pending_reqs: List[SessionSolveRequest] = []
    # Within one batch, two sessions can share a plan-cache *and* a key
    # (same quantized state).  Sequentially the second request would hit
    # the entry the first one just stored; mark it a duplicate and resolve
    # it after the batch solve so the counters stay faithful.
    pending_key_owner: dict = {}
    dup = [False] * n
    # Rows answered in closed form, i → (controller, answer); their
    # ``last_plan`` is set in the second pass so it lands in request order.
    unsolved: dict = {}

    for i, (ctrl, obs) in enumerate(pairs):
        try:
            cfg = ctrl.config
            omega = ctrl._predict_vector(obs, cfg.horizon)
            cap_tput = _first(omega)
            if obs.last_throughput is not None:
                cap_tput = max(cap_tput, obs.last_throughput)
            if cfg.solver_backend != "fast":
                results[i] = ctrl._select(
                    omega, obs.buffer_level, obs.previous_quality,
                    obs.ladder, obs.max_buffer, cap_tput,
                )
                done[i] = True
                continue
            ladder = obs.ladder
            dt = ladder.segment_duration
            first_cap = ctrl._first_step_cap(
                cap_tput, obs.buffer_level, obs.max_buffer, ladder, cfg
            )
            if ctrl._skips_solve(omega, obs.buffer_level, ladder, obs.max_buffer):
                unsolved[i] = (ctrl, _overflow_rung(
                    obs.buffer_level, cfg.resolve_target(obs.max_buffer),
                    first_cap, ladder,
                ))
                continue
            cache = ctrl._plan_cache
            key = None
            plan = None
            if cache is not None:
                key = cache.key(
                    _key_prediction(omega, cfg.horizon), obs.buffer_level,
                    obs.previous_quality, ladder, obs.max_buffer, dt,
                    first_cap,
                )
                if (id(cache), key) in pending_key_owner:
                    dup[i] = True
                    prepped[i] = (ctrl, obs, omega, first_cap, cache, key, None)
                    continue
                plan = cache.get(key)
            if plan is None:
                # Validate before enqueueing so one bad prediction fails
                # alone rather than poisoning the shared batch call.  The
                # request carries the normalised value, so the batch only
                # re-checks a float or re-reads the same array; a constant
                # forecast is that float from the predictor on.
                pred = _pred(omega, cfg.horizon)
                if cache is not None:
                    pending_key_owner[(id(cache), key)] = i
                pending.append(i)
                pending_reqs.append(
                    SessionSolveRequest(
                        pred, float(obs.buffer_level), obs.previous_quality,
                        ladder, cfg, obs.max_buffer, dt=dt,
                        first_cap=first_cap,
                    )
                )
            prepped[i] = (ctrl, obs, omega, first_cap, cache, key, plan)
        except Exception as exc:  # per-session isolation
            results[i] = exc
            done[i] = True

    solved: dict = {}
    if pending_reqs:
        solved = dict(zip(pending, solve_sessions_batch(pending_reqs)))

    for i in range(n):
        if done[i]:
            continue
        if i in unsolved:
            ctrl, results[i] = unsolved[i]
            ctrl.last_plan = _UNSOLVED
            continue
        ctrl, obs, omega, first_cap, cache, key, plan = prepped[i]
        try:
            if i in solved:
                plan = solved[i]
                if cache is not None:
                    cache.put(key, plan)
            elif dup[i]:
                plan = cache.get(key)
                if plan is None:
                    # The owning request failed before storing: replicate
                    # the sequential get-miss → solve → put path verbatim.
                    cfg = ctrl.config
                    solver = _SOLVERS[(cfg.solver_backend, cfg.use_brute_force)]
                    plan = solver(
                        omega, obs.buffer_level, obs.previous_quality,
                        obs.ladder, cfg, obs.max_buffer,
                        dt=obs.ladder.segment_duration, first_cap=first_cap,
                    )
                    cache.put(key, plan)
            results[i] = ctrl._finalize(
                plan, omega, obs.buffer_level, obs.previous_quality,
                obs.ladder, obs.max_buffer, first_cap,
            )
        except Exception as exc:  # per-session isolation
            results[i] = exc
    return results
