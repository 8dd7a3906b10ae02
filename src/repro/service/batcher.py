"""Micro-batching front end for the decision service.

Cross-session batching (:func:`repro.core.fastpath.solve_sessions_batch`)
only pays off when requests actually arrive together.  A real ingest
stream delivers them one at a time, so :class:`MicroBatcher` holds each
arrival for at most a few milliseconds, hoping more arrive, then solves
the collected batch through :meth:`DecisionService.decide_many` — which
runs the whole tier-0 prefix through the batched kernel — and fans the
answers back out to the per-request handles.

The timing contract, driven entirely by an injectable monotonic clock so
tests can pin every edge:

* **window expiry** — a batch is never held longer than ``window``
  seconds after its first request arrived;
* **deadline pressure** — a batch is flushed the moment *any* collected
  request's remaining budget shrinks to its tier-0 reserve, so waiting
  for batch-mates can never push a request below the budget the full
  solver needs (``reserve`` defaults to the service ladder's
  ``tier0_budget``);
* **size cap** — a batch reaching ``max_batch`` requests flushes
  immediately (bigger batches stop amortizing and start adding latency);
* **drain on close** — :meth:`close` flushes whatever is pending; no
  request is ever dropped.

Every flush is counted by trigger on the service's
:class:`~repro.service.health.BatchCounters`, so occupancy and flush
causes show up in the health snapshot.

The batcher is synchronous by design: callers :meth:`offer` requests and
:meth:`poll` the clock edge (an ingest loop naturally does both per
arrival), or use :meth:`submit` to force an answer for the final request
of a quiet stream.  There is no background thread to supervise — the
sharded service already owns process lifecycle, and a thread would make
the fake-clock timing tests racy.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from ..abr.base import PlayerObservation
from .service import Decision, DecisionService

__all__ = ["MicroBatcher", "PendingDecision"]


class PendingDecision:
    """A handle for one offered request; resolved when its batch flushes.

    Attributes:
        session_id: the session the request belongs to.
        deadline_at: absolute clock() value the answer is due by.
        decision: the service's answer, ``None`` until the flush.
    """

    __slots__ = ("session_id", "obs", "deadline_at", "decision")

    def __init__(
        self,
        session_id: str,
        obs: PlayerObservation,
        deadline_at: float,
    ) -> None:
        self.session_id = session_id
        self.obs = obs
        self.deadline_at = deadline_at
        self.decision: Optional[Decision] = None

    @property
    def done(self) -> bool:
        return self.decision is not None


class MicroBatcher:
    """Collect decision requests for a few ms, solve them as one batch.

    The batcher reads the service's clock, so fake-clock tests drive both
    in lockstep.

    Args:
        service: the decision service answering flushed batches.
        window: maximum seconds a batch is held after its first request.
        max_batch: requests per batch before an immediate size flush.
        reserve: minimum remaining per-request budget below which the
            batch flushes instead of waiting (defaults to the service's
            tier-0 budget, so batching never costs a request its full
            solve).

    Raises:
        ValueError: on a non-positive window or batch size, or a
            negative reserve.
    """

    def __init__(
        self,
        service: DecisionService,
        window: float = 0.002,
        max_batch: int = 32,
        reserve: Optional[float] = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.service = service
        self.window = float(window)
        self.max_batch = int(max_batch)
        self.reserve = (
            service.degradation.tier0_budget if reserve is None else reserve
        )
        if self.reserve < 0:
            raise ValueError("reserve must be non-negative")
        self.clock = service.clock
        self._lock = threading.Lock()
        self._queue: List[PendingDecision] = []
        self._opened_at: Optional[float] = None
        self._closed = False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    def offer(
        self,
        session_id: str,
        obs: PlayerObservation,
        deadline_at: Optional[float] = None,
    ) -> PendingDecision:
        """Enqueue one request; returns its handle without blocking.

        The request's deadline clock starts now (unless an absolute
        ``deadline_at`` is supplied), so time spent waiting for
        batch-mates counts against its budget.  Reaching ``max_batch``
        flushes synchronously before returning, so the handle may already
        be resolved.

        Raises:
            RuntimeError: after :meth:`close`.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("offer after close")
            now = self.clock()
            if deadline_at is None:
                deadline_at = now + self.service.deadline
            pending = PendingDecision(session_id, obs, deadline_at)
            self._queue.append(pending)
            if self._opened_at is None:
                self._opened_at = now
            flush_now = len(self._queue) >= self.max_batch
        if flush_now:
            self.flush("size")
        return pending

    def due(self, now: Optional[float] = None) -> Optional[str]:
        """Why the pending batch should flush now, or ``None`` to wait.

        Checked in priority order: ``"size"`` (cap reached),
        ``"deadline"`` (some request's remaining budget is down to the
        reserve), ``"window"`` (the batch has been open a full window).
        """
        with self._lock:
            if not self._queue:
                return None
            if len(self._queue) >= self.max_batch:
                return "size"
            if now is None:
                now = self.clock()
            earliest = min(p.deadline_at for p in self._queue)
            if earliest - now <= self.reserve:
                return "deadline"
            if self._opened_at is not None and (
                now - self._opened_at >= self.window
            ):
                return "window"
            return None

    def poll(self, now: Optional[float] = None) -> List[Decision]:
        """Flush if a trigger has fired; returns the flushed decisions."""
        reason = self.due(now)
        if reason is None:
            return []
        return self.flush(reason)

    def flush(self, reason: str = "manual") -> List[Decision]:
        """Solve the pending batch now and fan the answers out."""
        with self._lock:
            batch = self._queue
            self._queue = []
            self._opened_at = None
        if not batch:
            return []
        self.service.batches.record_flush(reason)
        # The batch shares the *earliest* collected deadline, so no
        # request is served on a looser budget than it was promised.
        deadline_at = min(p.deadline_at for p in batch)
        decisions = self.service.decide_many(
            [(p.session_id, p.obs) for p in batch],
            deadline_at=deadline_at,
        )
        for pending, decision in zip(batch, decisions):
            pending.decision = decision
        return decisions

    def submit(
        self,
        session_id: str,
        obs: PlayerObservation,
        deadline_at: Optional[float] = None,
    ) -> Decision:
        """Offer one request and force an answer before returning.

        For the tail of a stream (no batch-mates coming): the request
        still joins whatever is already pending, so the flush it forces
        amortizes over the queue.
        """
        pending = self.offer(session_id, obs, deadline_at)
        if pending.decision is None:
            self.flush("manual")
        assert pending.decision is not None
        return pending.decision

    def close(self) -> List[Decision]:
        """Drain the pending batch and refuse further offers."""
        with self._lock:
            if self._closed:
                return []
            self._closed = True
        return self.flush("drain")
