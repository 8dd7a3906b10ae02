"""Load generation: open-loop schedules timed from each request's due time.

Open loop: request ``k`` is due at ``t0 + k * interval`` whatever happened to
the requests before it.  One sender sends one request at a time; a request
whose due time has passed is sent at once, and its latency is timed from when
it was *due*, so a stall is charged to every request queued behind it, and
the generator's own lateness (send minus due) is reported.

Every timing is in seconds of the injected ``clock`` so tests can drive the
generator on a fake clock.
"""

from __future__ import annotations

import time
from typing import Callable, List, NamedTuple, Optional, Sequence


class Timing(NamedTuple):
    """One request: when it was due, sent, and answered (``None``: never)."""

    due: float
    start: float
    end: Optional[float]

    @property
    def lateness(self) -> float:
        return self.start - self.due

    @property
    def latency(self) -> Optional[float]:
        """Seconds from due time to answer."""
        return None if self.end is None else self.end - self.due


def open_loop(
    count: int,
    interval: float,
    send: Callable[[int], None],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    lead: float = 0.005,
) -> List[Timing]:
    """Send requests ``0..count-1`` on a fixed-interval schedule.

    ``send(k)`` performs request ``k`` and returns when it is answered; an
    exception counts the request as never answered.
    """
    t0 = clock() + lead
    timings: List[Timing] = []
    for k in range(count):
        due = t0 + k * interval
        now = clock()
        if now < due:
            sleep(due - now)
        start = clock()
        try:
            send(k)
            end: Optional[float] = clock()
        except Exception:
            end = None
        timings.append(Timing(due, start, end))
    return timings


def failed_answers(
    timings: Sequence[Timing],
    failovers: Sequence[int],
    deadline: float,
    answers_per_request: int = 1,
) -> int:
    """Answers that failed: every answer of a request that never came back
    or came back after ``deadline`` (timed from its due time), plus the
    ``failovers[k]`` answers of an on-time request ``k`` that the front end
    served from its failover floor."""
    failed = 0
    for timing, floor in zip(timings, failovers):
        if timing.latency is None or timing.latency > deadline:
            failed += answers_per_request
        else:
            failed += floor
    return failed
