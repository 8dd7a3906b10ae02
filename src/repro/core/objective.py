"""SODA's cost model (paper §3.1).

The time-based formulation scores a bitrate plan with three terms per
interval of length Δt:

* **distortion** — ``v(r) * (ω Δt / r)``: encoding distortion of the video
  downloaded during the interval, where ``ω Δt / r`` is how many video
  seconds a throughput of ω delivers at bitrate r;
* **buffer** — ``β * b(x)``: an asymmetric quadratic that steers the buffer
  level toward a target x̄, with a gentler slope (ε < 1) above the target;
* **switching** — ``γ * (v(r) − v(r_prev))²``: penalises quality changes in
  distortion space, so a one-rung hop at the top of the ladder costs less
  than a one-rung hop at the bottom, matching perceptual impact.

Distortion functions are normalised to [0, 1] over the ladder so that the
weights β and γ carry the same meaning across encodings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

__all__ = ["DistortionFunction", "reciprocal_distortion", "log_distortion", "SodaConfig"]


class DistortionFunction:
    """A positive, strictly decreasing, convex distortion curve v(r).

    Attributes:
        name: identifier used in configs and tables.
        fn: maps ``(r, r_min, r_max)`` to a distortion value.
    """

    def __init__(self, name: str, fn: Callable[[float, float, float], float]):
        self.name = name
        self._fn = fn

    def __call__(self, bitrate: float, r_min: float, r_max: float) -> float:
        if bitrate <= 0:
            raise ValueError("bitrate must be positive")
        return self._fn(bitrate, r_min, r_max)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DistortionFunction {self.name}>"


def _reciprocal(r: float, r_min: float, r_max: float) -> float:
    # v(r) = 1/r, normalised so v(r_min) = 1.
    return r_min / r


def _log(r: float, r_min: float, r_max: float) -> float:
    # v(r) = log(r_max/r), normalised to [δ, 1]; the small floor δ keeps the
    # function strictly positive as the paper requires.
    if r_max <= r_min:
        return 1.0
    floor = 0.02
    raw = math.log(r_max / r) / math.log(r_max / r_min)
    return floor + (1.0 - floor) * raw


#: v(r) = 1/r (normalised) — the form used in the paper's theory (§4).
reciprocal_distortion = DistortionFunction("reciprocal", _reciprocal)
#: v(r) = log(r_max/r) (normalised) — the alternative discussed in App. B.
log_distortion = DistortionFunction("log", _log)

_DISTORTIONS = {
    "reciprocal": reciprocal_distortion,
    "log": log_distortion,
}


@dataclass(frozen=True)
class SodaConfig:
    """All tunables of the SODA controller.

    Attributes:
        horizon: prediction horizon K in intervals (the paper caps the
            horizon at ~10 s of wall time; with 2 s segments K = 5).
        beta: weight β of the buffer-stability cost.
        gamma: weight γ of the switching cost.
        target_buffer: target buffer level x̄ in seconds; when None, the
            controller uses 80% of the player's max buffer (see
            :meth:`resolve_target`).  When every rung would overflow the
            buffer, the controller defers above this target and fetches
            below it.
        epsilon: roll-off factor ε < 1 applied above the target.
        distortion: "reciprocal" or "log".
        switch_event_cost: κ — additional per-event term of the switching
            cost, ``c(r, r') = (v(r) − v(r'))² + κ·1[r ≠ r']`` (still
            weighted by γ).  The paper's §3.1 notes the switching cost
            choice is flexible; a pure squared cost prefers many small
            steps over one jump, while the QoE metric of §6 counts switch
            *events*, so a small κ aligns the controller with the metric.
            Set to 0 for the pure squared cost used in the theory.
        cap_one_rung_above: the §5.1 schema heuristic — never pick a
            bitrate above min{r ∈ R : r ≥ ω̂}.  Applied only below the
            target buffer level, where long commitments are risky.  Off by
            default: in our simulations the EMA predictor's volatility
            makes the cap itself a source of forced switches on cellular
            networks (see the ablation bench), while the buffer-feasibility
            terms of the objective already provide the protection.
        download_safety: second §5.1 schema guard — when the buffer is low,
            cap the rung so one segment's predicted download time
            ``L·r/ω̂`` stays below ``download_safety × buffer``.  The
            time-based model assumes each commitment lasts Δt; this guard
            covers the gap between that model and whole-segment downloads.
            Set to 0 to disable.
        use_brute_force: replace Algorithm 1 by exhaustive search (used for
            Figure 8 and ablations; exponential in K).
        solver_backend: "fast" (default) runs the NumPy-vectorized batch
            solver of :mod:`repro.core.fastpath`, which scores the same
            candidate set as the recursive reference with identical
            tie-breaking (objectives agree up to floating-point
            association); "reference" keeps the recursive solvers of
            :mod:`repro.core.solver` (and disables the plan cache) for
            differential testing and debugging.
        plan_cache: let the controller reuse plans across decisions whose
            quantized (buffer, previous rung, prediction) state matches
            (fast backend only).  See :class:`repro.core.fastpath.PlanCache`
            for the correctness envelope.
        cache_buffer_quantum: buffer quantization step (seconds) of the
            plan-cache key; 0 requires exact-state matches.
        cache_tput_quantum: per-entry prediction quantization step (Mb/s)
            of the plan-cache key; 0 requires exact-state matches.
        plan_cache_size: maximum cached plans per session (LRU beyond it).
    """

    horizon: int = 5
    beta: float = 0.05
    gamma: float = 150.0
    target_buffer: float = None  # type: ignore[assignment]
    epsilon: float = 0.05
    distortion: str = "log"
    switch_event_cost: float = 0.08
    cap_one_rung_above: bool = False
    download_safety: float = 0.5
    use_brute_force: bool = False
    solver_backend: str = "fast"
    plan_cache: bool = True
    cache_buffer_quantum: float = 0.05
    cache_tput_quantum: float = 0.05
    plan_cache_size: int = 4096

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.beta < 0 or self.gamma < 0:
            raise ValueError("weights must be non-negative")
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must be in (0, 1]")
        if self.distortion not in _DISTORTIONS:
            raise ValueError(
                f"unknown distortion {self.distortion!r}; "
                f"choose from {sorted(_DISTORTIONS)}"
            )
        if self.target_buffer is not None and self.target_buffer <= 0:
            raise ValueError("target buffer must be positive")
        if self.download_safety < 0:
            raise ValueError("download_safety must be non-negative")
        if self.switch_event_cost < 0:
            raise ValueError("switch_event_cost must be non-negative")
        if self.solver_backend not in ("reference", "fast"):
            raise ValueError(
                f"unknown solver backend {self.solver_backend!r}; "
                "choose 'reference' or 'fast'"
            )
        if self.cache_buffer_quantum < 0 or self.cache_tput_quantum < 0:
            raise ValueError("plan-cache quanta must be non-negative")
        if self.plan_cache_size < 1:
            raise ValueError("plan_cache_size must be at least 1")

    # ------------------------------------------------------------------
    def with_(self, **changes) -> "SodaConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def distortion_fn(self) -> DistortionFunction:
        return _DISTORTIONS[self.distortion]

    def resolve_target(self, max_buffer: float) -> float:
        """Target buffer x̄: explicit value or 80% of the buffer cap."""
        if self.target_buffer is not None:
            return min(self.target_buffer, max_buffer)
        return 0.8 * max_buffer

    # ------------------------------------------------------------------
    def buffer_cost(self, x: float, target: float) -> float:
        """b(x): asymmetric quadratic around the target level (§3.1)."""
        dev = target - x
        if x <= target:
            return dev * dev
        return self.epsilon * dev * dev

    def switching_cost(self, v_now: float, v_prev: float) -> float:
        """c(r, r_prev) = (v(r) − v(r_prev))² (+ κ per event) in v-space."""
        d = v_now - v_prev
        cost = d * d
        if self.switch_event_cost > 0 and abs(d) > 1e-12:
            cost += self.switch_event_cost
        return cost
