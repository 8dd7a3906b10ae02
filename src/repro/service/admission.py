"""Admission control: bounded concurrency and bounded session memory.

Three resources of a long-lived decision service must be capped or heavy
traffic will eventually exhaust them:

* **in-flight decisions** — :class:`AdaptiveGate` hands out a bounded
  number of slots; a request that finds none is *shed*, which means it is
  answered by the tier-2 floor rule (load shedding degrades quality, it
  never errors).  The bound is an AIMD controller driven by measured tail
  latency against the decision deadline, and it sheds *new arrivals*
  before established sessions — a new viewer can safely start on the BBA
  floor, while yanking the solver away from a mid-stream session costs
  visible quality switches;
* **resident sessions** — :class:`SessionTable` keeps per-session solver
  state in an LRU-ordered map with a hard capacity; creating a session
  beyond the cap evicts the least-recently-used *idle* session (one with
  no decision in flight), so memory stays bounded no matter how many
  distinct viewers show up;
* **retries** — :class:`RetryBudget` caps re-route attempts to a small
  fraction of recent traffic (plus a burst floor), so a dead shard turns
  into a trickle of re-homes instead of a retry storm that doubles the
  load on the survivors.

All are plain ``threading`` primitives — the service runs decisions on a
thread pool, and every operation here is O(1) amortized.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Iterator, List, Optional, Tuple, TypeVar

__all__ = [
    "AdaptiveGate",
    "RetryBudget",
    "SessionEntry",
    "SessionTable",
]

T = TypeVar("T")


class AdaptiveGate:
    """A non-blocking semaphore over in-flight decision slots, with an
    AIMD controller on its limit.

    A request that finds no free slot is shed.  ``max_in_flight`` is the
    *ceiling*; the effective limit moves inside ``[min_in_flight,
    max_in_flight]`` driven by the tail of measured decision latencies
    against the deadline the degradation ladder is defending:

    * every ``window`` served decisions, the window's p99 is compared to
      the deadline: at or above ``high_ratio * deadline`` the limit is cut
      **multiplicatively** (fast back-off under queueing collapse), while
      below ``low_ratio * deadline`` it grows additively by ``increase``
      (slow recovery, the classic AIMD asymmetry);
    * new arrivals are held to ``new_headroom`` of the current limit, so
      sustained overload sheds sessions that have not started yet before
      it touches sessions mid-stream.

    Args:
        max_in_flight: the concurrency ceiling (and the starting limit).
        deadline: per-decision budget the p99 is compared against.
        min_in_flight: the floor the multiplicative decrease stops at.
        window: served decisions per AIMD adjustment round.
        decrease: multiplicative factor per unhealthy window, in (0, 1).
        new_headroom: fraction of the current limit available to
            not-yet-established sessions.

    Raises:
        ValueError: on inconsistent bounds or ratios.
    """

    #: additive step per healthy window
    increase = 1.0
    #: fraction of the deadline a window p99 must reach to be unhealthy
    high_ratio = 1.0
    #: fraction of the deadline a window p99 must stay under to be
    #: healthy (between the two ratios, the limit holds)
    low_ratio = 0.5

    def __init__(
        self,
        max_in_flight: int,
        deadline: float,
        min_in_flight: int = 1,
        window: int = 64,
        decrease: float = 0.5,
        new_headroom: float = 0.75,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        if not 1 <= min_in_flight <= max_in_flight:
            raise ValueError("need 1 <= min_in_flight <= max_in_flight")
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        if window < 1:
            raise ValueError("window must be at least 1")
        if not 0 < decrease < 1:
            raise ValueError("need 0 < decrease < 1")
        if not 0 < new_headroom <= 1:
            raise ValueError("need 0 < new_headroom <= 1")
        self.max_in_flight = max_in_flight
        self.deadline = deadline
        self.min_in_flight = min_in_flight
        self.window = window
        self.decrease = decrease
        self.new_headroom = new_headroom
        self._lock = threading.Lock()
        self._in_flight = 0
        self.shed = 0
        self.shed_new = 0
        self.max_in_flight_seen = 0
        self._level = float(max_in_flight)
        self._latencies: List[float] = []
        self.limit_increases = 0
        self.limit_decreases = 0
        self.min_limit_seen = max_in_flight

    def _limit_for(self, established: bool) -> int:
        """The in-flight bound applied to this request's priority class."""
        limit = max(self.min_in_flight, int(self._level))
        if established:
            return limit
        return max(self.min_in_flight, int(self._level * self.new_headroom))

    def try_acquire(self, established: bool = True) -> bool:
        """Claim a slot without blocking; ``False`` means shed the request.

        Args:
            established: the request belongs to a session the service
                already holds state for.  New arrivals (``False``) are
                held to a tighter bound under pressure — they can start
                on the tier-2 floor without a visible quality switch.
        """
        with self._lock:
            if self._in_flight >= self._limit_for(established):
                self.shed += 1
                if not established:
                    self.shed_new += 1
                return False
            self._in_flight += 1
            if self._in_flight > self.max_in_flight_seen:
                self.max_in_flight_seen = self._in_flight
            return True

    def release(self) -> None:
        """Return a slot claimed by :meth:`try_acquire`."""
        with self._lock:
            if self._in_flight <= 0:
                raise RuntimeError("release without a matching acquire")
            self._in_flight -= 1

    @property
    def limit(self) -> int:
        """The current in-flight bound for established sessions."""
        with self._lock:
            return max(self.min_in_flight, int(self._level))

    def observe(self, latency: float) -> None:
        """Feed one served-decision latency into the AIMD controller."""
        with self._lock:
            self._latencies.append(latency)
            if len(self._latencies) < self.window:
                return
            samples = sorted(self._latencies)
            self._latencies.clear()
            p99 = samples[min(len(samples) - 1, int(0.99 * len(samples)))]
            if p99 >= self.high_ratio * self.deadline:
                self._level = max(
                    float(self.min_in_flight), self._level * self.decrease
                )
                self.limit_decreases += 1
            elif p99 < self.low_ratio * self.deadline:
                if self._level < self.max_in_flight:
                    self._level = min(
                        float(self.max_in_flight),
                        self._level + self.increase,
                    )
                    self.limit_increases += 1
            limit = max(self.min_in_flight, int(self._level))
            if limit < self.min_limit_seen:
                self.min_limit_seen = limit

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "limit": max(self.min_in_flight, int(self._level)),
                "ceiling": self.max_in_flight,
                "in_flight": self._in_flight,
                "shed": self.shed,
                "shed_new": self.shed_new,
                "limit_increases": self.limit_increases,
                "limit_decreases": self.limit_decreases,
                "min_limit_seen": self.min_limit_seen,
            }


class RetryBudget:
    """A token bucket bounding retries to a fraction of real traffic.

    Every first-attempt request deposits ``ratio`` of a token; every
    retry withdraws a whole one.  The bucket is capped at ``burst`` (and
    starts full), so isolated failures retry instantly while a dead shard
    under sustained load can add at most ``ratio`` extra traffic — the
    difference between a re-home trickle and a retry storm.

    Args:
        ratio: long-run retries allowed per request, e.g. ``0.1``.
        burst: token cap (and initial balance).

    Raises:
        ValueError: on a non-positive ratio or burst.
    """

    def __init__(self, ratio: float = 0.1, burst: float = 10.0) -> None:
        if ratio <= 0 or burst < 1:
            raise ValueError("need ratio > 0 and burst >= 1")
        self.ratio = ratio
        self.burst = burst
        self._lock = threading.Lock()
        self._tokens = float(burst)
        self.retries_granted = 0
        self.retries_denied = 0

    def record_request(self, count: int = 1) -> None:
        """Deposit for ``count`` first-attempt requests."""
        if count <= 0:
            return
        with self._lock:
            self._tokens = min(self.burst, self._tokens + self.ratio * count)

    def try_retry(self) -> bool:
        """Withdraw one retry token; ``False`` means give up now."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.retries_granted += 1
                return True
            self.retries_denied += 1
            return False

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "tokens": self._tokens,
                "retries_granted": self.retries_granted,
                "retries_denied": self.retries_denied,
            }


class SessionEntry:
    """One resident session: caller-owned state plus an in-use latch.

    Attributes:
        session_id: the key this entry is stored under.
        state: opaque per-session state built by the table's factory
            (the service stores its solver + sample bookkeeping here).
        lock: serializes decisions for this session.
        in_use: set while a decision holds the entry, which exempts it
            from LRU eviction.
    """

    __slots__ = ("session_id", "state", "lock", "in_use")

    def __init__(self, session_id: str, state: object) -> None:
        self.session_id = session_id
        self.state = state
        self.lock = threading.Lock()
        self.in_use = False


class SessionTable:
    """An LRU-bounded map of :class:`SessionEntry` objects.

    Args:
        max_sessions: hard cap on resident sessions; creating one more
            evicts the least-recently-used idle entry first.

    Raises:
        ValueError: on a non-positive capacity.
    """

    def __init__(self, max_sessions: int) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        self.max_sessions = max_sessions
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, SessionEntry]" = OrderedDict()
        self.created = 0
        self.evicted = 0
        self.max_size_seen = 0

    # ------------------------------------------------------------------
    def checkout(
        self, session_id: str, factory: Callable[[], T]
    ) -> Tuple[SessionEntry, bool]:
        """Fetch (or create) a session and mark it in use.

        Returns ``(entry, created)``.  The caller must hold
        ``entry.lock`` while touching ``entry.state`` and call
        :meth:`checkin` when the decision completes.  When the table is
        full of busy sessions, the cap still holds: the *new* session is
        created but the oldest idle entry is evicted as soon as one
        exists (eviction is retried on every checkout).
        """
        with self._lock:
            entry = self._entries.get(session_id)
            created = entry is None
            if entry is None:
                entry = SessionEntry(session_id, factory())
                self._entries[session_id] = entry
                self.created += 1
            else:
                self._entries.move_to_end(session_id)
            entry.in_use = True
            self._evict_over_cap()
            size = len(self._entries)
            if size > self.max_size_seen:
                self.max_size_seen = size
            return entry, created

    def checkin(self, entry: SessionEntry) -> None:
        """Release an entry checked out by :meth:`checkout`."""
        with self._lock:
            entry.in_use = False
            self._evict_over_cap()

    def _evict_over_cap(self) -> None:
        """Drop LRU idle entries until the cap holds (lock held)."""
        while len(self._entries) > self.max_sessions:
            victim_id = None
            for session_id, entry in self._entries.items():
                if not entry.in_use:
                    victim_id = session_id
                    break
            if victim_id is None:
                # Every resident session has a decision in flight; the
                # next checkin retries.  max_in_flight bounds the excess.
                return
            del self._entries[victim_id]
            self.evicted += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._entries

    def ids(self) -> Iterator[str]:
        """Resident session ids, LRU first (snapshot)."""
        with self._lock:
            return iter(list(self._entries.keys()))

    def peek(self, session_id: str) -> Optional[SessionEntry]:
        """Fetch an entry without touching LRU order or the latch."""
        with self._lock:
            return self._entries.get(session_id)
