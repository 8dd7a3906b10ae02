"""ResilientController: a graceful-degradation wrapper for any controller.

Production ABR stacks never let the optimizer take the player down: a
crashed solver, an over-budget solve, a NaN-poisoned throughput estimate, or
an out-of-range rung must all degrade to something safe.  This wrapper
bolts that armor onto any :class:`AbrController`:

* **observation sanitizing** — non-finite buffer/clock values are clamped,
  a previous rung outside the ladder is dropped, and corrupted throughput
  samples (NaN/inf/zero/negative) are repaired or dropped before the
  inner controller or its predictor sees them;
* **prediction clamping** — the inner controller's predictor is wrapped so
  NaN/inf forecasts collapse to a safe 0 (which the controllers' own
  fallbacks then handle);
* **exception containment** — an inner ``reset``/``on_download``/
  ``select_quality`` that raises is caught and the decision falls back;
* **rung validation** — anything that is not an integer rung inside the
  ladder falls back;
* **solve-time watchdog** — a decision that takes longer than
  ``solve_timeout`` wall seconds trips the watchdog; after
  ``max_watchdog_trips`` trips the inner controller is retired for the
  rest of the session;
* **defer-storm guard** — more than ``max_consecutive_defers`` successive
  ``None`` answers forces a fallback decision, so the wrapper can never
  livelock the player.

The fallback policy is buffer-based (BBA by default) because pure
buffer-based control needs no throughput signal at all — exactly the
degradation BOLA argues for when estimates go bad.  Every intervention is
counted (``fallback_decisions``, ``caught_exceptions``,
``sanitized_observations``, ``watchdog_trips``) and the player copies
``fallback_decisions`` into :class:`~repro.sim.player.SessionResult`.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Optional

import numpy as np

from ..prediction.base import ThroughputPredictor, ThroughputSample
from .base import AbrController, PlayerObservation
from .bba import BbaController

__all__ = [
    "ResilientController",
    "sanitize_observation",
    "sanitize_sample",
    "validate_rung",
]


# ----------------------------------------------------------------------
# Shared armor helpers.  These are module-level (not methods) because the
# decision service (:mod:`repro.service`) applies the same sanitizing and
# rung validation per request without instantiating a wrapper controller.
# ----------------------------------------------------------------------
def validate_rung(quality, levels: int) -> Optional[int]:
    """Return ``quality`` as a checked int rung, or ``None`` if unusable.

    Rejects non-integers, non-finite floats, floats with a fractional
    part, and anything outside ``[0, levels)``.
    """
    try:
        rung = int(quality)
    except (TypeError, ValueError, OverflowError):
        return None
    if isinstance(quality, float):
        if not math.isfinite(quality) or quality != rung:
            return None
    if not 0 <= rung < levels:
        return None
    return rung


def sanitize_sample(sample: ThroughputSample) -> Optional[ThroughputSample]:
    """Repair a corrupted download sample, or drop a hopeless one.

    Non-finite timings/sizes are unrecoverable (``None``); a NaN/inf/zero/
    negative throughput is recomputed from the transfer itself, which the
    client SDK always knows.
    """
    if (
        not math.isfinite(sample.start)
        or not math.isfinite(sample.duration)
        or not math.isfinite(sample.size)
        or sample.duration <= 0
        or sample.size < 0
    ):
        return None
    if math.isfinite(sample.throughput) and sample.throughput > 0:
        return sample
    rebuilt = sample.size / sample.duration
    if not math.isfinite(rebuilt) or rebuilt <= 0:
        return None
    return ThroughputSample(
        start=sample.start,
        duration=sample.duration,
        size=sample.size,
        throughput=rebuilt,
    )


def sanitize_observation(obs: PlayerObservation) -> PlayerObservation:
    """Clamp non-finite scalars, strip garbage history samples, and map a
    previous rung outside the ladder to ``None`` (no previous rung).

    Returns ``obs`` itself when nothing needed repair, so callers can
    count interventions with an identity check.
    """
    changes = {}
    prev = obs.previous_quality
    if prev is not None and validate_rung(prev, obs.ladder.levels) is None:
        changes["previous_quality"] = None
    if not math.isfinite(obs.buffer_level) or obs.buffer_level < 0:
        changes["buffer_level"] = 0.0
    elif obs.buffer_level > obs.max_buffer > 0:
        changes["buffer_level"] = obs.max_buffer
    if not math.isfinite(obs.wall_time) or obs.wall_time < 0:
        changes["wall_time"] = 0.0
    if not math.isfinite(obs.rebuffer_time) or obs.rebuffer_time < 0:
        changes["rebuffer_time"] = 0.0

    clean_history = []
    dropped = False
    for sample in obs.history:
        clean = sanitize_sample(sample)
        if clean is None:
            dropped = True
            continue
        if clean is not sample:
            dropped = True
        clean_history.append(clean)
    if dropped:
        changes["history"] = tuple(clean_history)

    if not changes:
        return obs
    return dataclasses.replace(obs, **changes)


class _SafePredictor(ThroughputPredictor):
    """Clamp a predictor's outputs to finite, non-negative values."""

    def __init__(self, inner: ThroughputPredictor) -> None:
        self.inner = inner
        self.name = f"safe({inner.name})"

    def reset(self) -> None:
        self.inner.reset()

    def update(self, sample: ThroughputSample) -> None:
        self.inner.update(sample)

    def predict_scalar(self, now: float) -> float:
        try:
            value = self.inner.predict_scalar(now)
        except Exception:
            return 0.0
        if not math.isfinite(value) or value < 0:
            return 0.0
        return value

    def predict(self, now: float, horizon: int, dt: float) -> np.ndarray:
        try:
            values = self.inner.predict(now, horizon, dt)
        except Exception:
            return np.zeros(horizon)
        values = np.asarray(values, dtype=float)
        return np.clip(np.nan_to_num(values, nan=0.0, posinf=0.0), 0.0, None)

    def __getattr__(self, name):
        # Delegate extras like the oracle family's ``attach_trace``.
        return getattr(self.inner, name)


class ResilientController(AbrController):
    """Wrap ``inner`` so no failure of it can break a session.

    Args:
        inner: the controller to protect.
        fallback: safe policy used when the inner controller misbehaves;
            defaults to buffer-based BBA (needs no throughput signal).
        solve_timeout: wall-clock budget per decision, seconds.
        max_watchdog_trips: after this many over-budget decisions the
            inner controller is retired for the rest of the session.
        max_consecutive_defers: successive ``None`` answers tolerated
            before the fallback decides instead.
        clock: monotonic time source used by the solve-time watchdog;
            defaults to :func:`time.monotonic`.  Injectable so watchdog
            trips are deterministically testable without real sleeps.
    """

    name = "resilient"

    def __init__(
        self,
        inner: AbrController,
        fallback: Optional[AbrController] = None,
        solve_timeout: float = 1.0,
        max_watchdog_trips: int = 5,
        max_consecutive_defers: int = 200,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if solve_timeout <= 0:
            raise ValueError("solve_timeout must be positive")
        if max_watchdog_trips < 1:
            raise ValueError("max_watchdog_trips must be at least 1")
        if max_consecutive_defers < 1:
            raise ValueError("max_consecutive_defers must be at least 1")
        super().__init__(predictor=None)
        self.inner = inner
        self.fallback = fallback or BbaController()
        self.solve_timeout = solve_timeout
        self.max_watchdog_trips = max_watchdog_trips
        self.max_consecutive_defers = max_consecutive_defers
        self.clock = clock or time.monotonic
        self.name = f"resilient({inner.name})"
        if inner.predictor is not None and not isinstance(
            inner.predictor, _SafePredictor
        ):
            inner.predictor = _SafePredictor(inner.predictor)
        # Share the (safe) predictor so run_session's oracle attachment
        # still reaches it through the wrapper.
        self.predictor = inner.predictor
        self._zero_counters()

    # ------------------------------------------------------------------
    def _zero_counters(self) -> None:
        self.fallback_decisions = 0
        self.caught_exceptions = 0
        self.sanitized_observations = 0
        self.watchdog_trips = 0
        self._defer_streak = 0
        self._inner_retired = False

    # The wrapped controller's predictor gets a ``__getattr__`` shim, but
    # the wrapper itself does not — surface the inner controller's plan
    # cache counters explicitly so ``simulate_session`` finds them here too.
    @property
    def plan_cache_hits(self) -> int:
        return int(getattr(self.inner, "plan_cache_hits", 0))

    @property
    def plan_cache_misses(self) -> int:
        return int(getattr(self.inner, "plan_cache_misses", 0))

    def reset(self) -> None:
        self._zero_counters()
        try:
            self.inner.reset()
        except Exception:
            self.caught_exceptions += 1
            self._inner_retired = True
        try:
            self.fallback.reset()
        except Exception:
            self.caught_exceptions += 1

    # ------------------------------------------------------------------
    def on_download(self, sample: ThroughputSample) -> None:
        clean = self._sanitize_sample(sample)
        if clean is None:
            self.sanitized_observations += 1
            return
        if clean is not sample:
            self.sanitized_observations += 1
        try:
            self.inner.on_download(clean)
        except Exception:
            self.caught_exceptions += 1
        try:
            self.fallback.on_download(clean)
        except Exception:
            self.caught_exceptions += 1

    def select_quality(self, obs: PlayerObservation) -> Optional[int]:
        obs = self._sanitize_observation(obs)
        if self._inner_retired:
            return self._fallback_decision(obs)

        started = self.clock()
        try:
            quality = self.inner.select_quality(obs)
        except Exception:
            self.caught_exceptions += 1
            return self._fallback_decision(obs)
        if self.clock() - started > self.solve_timeout:
            self.watchdog_trips += 1
            if self.watchdog_trips >= self.max_watchdog_trips:
                self._inner_retired = True
            return self._fallback_decision(obs)

        if quality is None:
            self._defer_streak += 1
            if self._defer_streak > self.max_consecutive_defers:
                return self._fallback_decision(obs)
            return None
        self._defer_streak = 0

        rung = self._validate_rung(quality, obs)
        if rung is None:
            return self._fallback_decision(obs)
        return rung

    # ------------------------------------------------------------------
    def _validate_rung(
        self, quality, obs: PlayerObservation
    ) -> Optional[int]:
        """Return a checked int rung, or ``None`` when it is unusable."""
        return validate_rung(quality, obs.ladder.levels)

    def _fallback_decision(self, obs: PlayerObservation) -> int:
        self.fallback_decisions += 1
        self._defer_streak = 0
        try:
            quality = self.fallback.select_quality(obs)
        except Exception:
            self.caught_exceptions += 1
            quality = 0
        rung = self._validate_rung(quality, obs) if quality is not None else None
        # The last line of defense must always produce a playable rung.
        return rung if rung is not None else 0

    # ------------------------------------------------------------------
    @staticmethod
    def _sanitize_sample(
        sample: ThroughputSample,
    ) -> Optional[ThroughputSample]:
        """Repair a corrupted download sample, or drop a hopeless one."""
        return sanitize_sample(sample)

    def _sanitize_observation(self, obs: PlayerObservation) -> PlayerObservation:
        """Clamp non-finite scalars and strip garbage history samples."""
        clean = sanitize_observation(obs)
        if clean is not obs:
            self.sanitized_observations += 1
        return clean
