"""Circuit breaker guarding the tier-0 solver of the decision service.

A long-lived service cannot let a misbehaving optimizer poison every
request: once the solver starts raising or blowing its deadline budget, the
cheapest defense is to stop calling it for a while and serve degraded
answers instead.  This module implements the classic closed → open →
half-open state machine (Nygard's *Release It!* pattern, as deployed in
front of every production ABR decision path):

* **closed** — requests flow to the solver; ``failure_threshold``
  *consecutive* failures (exceptions or deadline overruns) trip the
  breaker;
* **open** — the solver is not called at all (the degradation ladder is
  forced to tier 1+); after ``cooldown`` seconds the next permission check
  moves the breaker to half-open;
* **half-open** — a limited number of probe requests reach the solver;
  ``half_open_successes`` consecutive successes close the breaker, any
  failure re-opens it and restarts the cooldown.  At most
  ``half_open_successes`` probes may be *in flight* at once: when N
  threads race :meth:`CircuitBreaker.allow` at the open → half-open
  edge, exactly that many win the probe slots and everyone else keeps
  degrading until the probes report back.

The clock is injectable so tests (and the chaos-soak harness) can drive
transitions deterministically, and completed open → half-open → closed
cycles are counted so the health snapshot can prove one happened.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Callable, Optional

__all__ = ["BreakerOpenError", "BreakerState", "CircuitBreaker"]


class BreakerState(str, enum.Enum):
    """The three classic circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class BreakerOpenError(RuntimeError):
    """Raised by :meth:`CircuitBreaker.guard` when the breaker is open."""


class CircuitBreaker:
    """A thread-safe closed/open/half-open circuit breaker.

    Args:
        failure_threshold: consecutive failures that trip a closed breaker.
        cooldown: seconds an open breaker waits before half-opening.
        half_open_successes: consecutive successful probes required to
            close a half-open breaker.
        clock: monotonic time source; defaults to :func:`time.monotonic`.

    Raises:
        ValueError: on non-positive thresholds or cooldown.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown: float = 1.0,
        half_open_successes: int = 1,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown <= 0:
            raise ValueError("cooldown must be positive")
        if half_open_successes < 1:
            raise ValueError("half_open_successes must be at least 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.half_open_successes = half_open_successes
        self.clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._probes_in_flight = 0
        self._opened_at = 0.0
        self._full_cycles = 0
        self.times_opened = 0
        self.failures_recorded = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        """Current state (open → half-open promotion happens in ``allow``)."""
        with self._lock:
            return self._state

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether a request may reach the guarded solver right now.

        An open breaker whose cooldown has elapsed transitions to
        half-open here (permission checks are the only place the service
        observes time passing while the solver is idle).  Half-open
        grants at most ``half_open_successes`` concurrent probe slots;
        every granted slot must be paid back with exactly one
        :meth:`record_success` or :meth:`record_failure` (the degradation
        ladder guarantees this on every code path).
        """
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                if self.clock() - self._opened_at >= self.cooldown:
                    self._probe_successes = 0
                    self._probes_in_flight = 1
                    self._state = BreakerState.HALF_OPEN
                    return True
                return False
            # half-open: only the limited probe slots may flow
            if self._probes_in_flight < self.half_open_successes:
                self._probes_in_flight += 1
                return True
            return False

    def record_success(self) -> None:
        """Note a successful solver call."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state is BreakerState.HALF_OPEN:
                if self._probes_in_flight > 0:
                    self._probes_in_flight -= 1
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_successes:
                    # closed is reachable only from half-open, which is
                    # reachable only from open: this closes a full cycle
                    self._state = BreakerState.CLOSED
                    self._full_cycles += 1

    def record_failure(self) -> None:
        """Note a solver exception or deadline overrun."""
        with self._lock:
            self.failures_recorded += 1
            if self._state is BreakerState.HALF_OPEN:
                self._trip()
                return
            self._consecutive_failures += 1
            if (
                self._state is BreakerState.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        """Open the breaker and start the cooldown (lock held)."""
        self._consecutive_failures = 0
        self._probes_in_flight = 0
        self._opened_at = self.clock()
        self.times_opened += 1
        self._state = BreakerState.OPEN

    # ------------------------------------------------------------------
    def full_cycles(self) -> int:
        """Completed open → half-open → closed cycles."""
        with self._lock:
            return self._full_cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CircuitBreaker {self._state.value} "
            f"opened={self.times_opened} failures={self.failures_recorded}>"
        )
