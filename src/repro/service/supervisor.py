"""Worker supervision for the sharded decision service.

A sharded front end (:mod:`repro.service.shard`) owns N forked worker
processes, and production traffic does not pause while one of them
segfaults, wedges, or gets OOM-killed.  The :class:`Supervisor` is the
part that notices and repairs:

* a **monitor thread** polls every worker — first ``Process.is_alive``
  (catches SIGKILL instantly), then a ``ping`` heartbeat over the worker's
  pipe whenever the pipe is idle (catches a wedged-but-alive worker);
* a dead worker is **restarted with bounded exponential backoff**: a
  worker that keeps dying right after spawn doubles its restart delay up
  to a cap, while a worker that served for a while restarts at the base
  delay again;
* the front end **reports request failures** (send errors, response
  timeouts) here, which kills and marks the worker dead so routing can
  re-home its sessions onto survivors immediately.

Lock discipline (deadlock-free by construction): each slot has a *pipe
lock* serializing pipe I/O, and the supervisor has one short-lived
*metadata lock*.  The metadata lock is never held while acquiring a pipe
lock; heartbeats take pipe locks non-blocking (a busy pipe means the
worker is serving a request, which is proof of life enough).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

__all__ = ["RestartPolicy", "WorkerSlot", "Supervisor"]

#: seconds an idle worker may take to answer a heartbeat before it is
#: declared wedged
PING_TIMEOUT = 0.5


@dataclass(frozen=True)
class RestartPolicy:
    """Bounded exponential backoff for worker restarts.

    Attributes:
        base_delay: restart delay after a death that followed a healthy
            stretch of uptime, seconds.
        max_delay: backoff ceiling, seconds.
        min_uptime: uptime below which a death counts as "crashed right
            after spawn" and doubles the next delay.
    """

    base_delay: float = 0.1
    max_delay: float = 2.0
    min_uptime: float = 1.0

    def __post_init__(self) -> None:
        if self.base_delay <= 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 < base_delay <= max_delay")


class WorkerSlot:
    """One shard slot: a worker process, its pipe, and restart state.

    Attributes:
        index: the shard index this slot serves.
        lock: the pipe lock — held across every send/recv pair so
            request/response framing never interleaves.
        proc: the current worker process (``None`` before first spawn).
        conn: the parent end of the worker's duplex pipe.
        alive: whether the slot is believed serviceable.
        generation: how many processes have occupied this slot.
    """

    __slots__ = (
        "index", "lock", "proc", "conn", "alive", "generation",
        "spawned_at", "backoff", "next_restart_at",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.lock = threading.Lock()
        self.proc = None
        self.conn = None
        self.alive = False
        self.generation = 0
        self.spawned_at = 0.0
        self.backoff = 0.0
        self.next_restart_at = 0.0

    @property
    def pid(self) -> Optional[int]:
        proc = self.proc
        return proc.pid if proc is not None else None

    def call(self, message: tuple, timeout: float) -> tuple:
        """Send ``message`` and return the worker's reply; the caller holds
        :attr:`lock`.  Raises on a broken pipe or no reply in ``timeout``."""
        conn = self.conn
        conn.send(message)
        if not conn.poll(timeout):
            raise TimeoutError(f"shard {self.index}: no reply to {message[0]}")
        return conn.recv()


class Supervisor:
    """Keeps N shard workers alive: heartbeats, kills, bounded restarts.

    Args:
        slots: number of shard slots to supervise.
        spawn: ``(slot_index, generation) -> (process, conn)`` — forks a
            fresh worker for a slot; provided by the front end.
        heartbeat_interval: monitor poll period, seconds.
        policy: restart backoff tuning.
        clock: injectable monotonic time source.

    Raises:
        ValueError: on a non-positive slot count or interval.
    """

    def __init__(
        self,
        slots: int,
        spawn: Callable[[int, int], Tuple[object, object]],
        heartbeat_interval: float = 0.25,
        policy: Optional[RestartPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if slots < 1:
            raise ValueError("need at least one shard slot")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        self.policy = policy or RestartPolicy()
        self.heartbeat_interval = heartbeat_interval
        self.clock = clock or time.monotonic
        self.slots: List[WorkerSlot] = [WorkerSlot(i) for i in range(slots)]
        self._spawn = spawn
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # lifetime counters, guarded by _lock
        self.restarts = 0
        self.deaths = 0
        self.heartbeat_failures = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every worker and start the monitor thread."""
        for slot in self.slots:
            self._respawn(slot)
        self._thread = threading.Thread(
            target=self._monitor, name="shard-supervisor", daemon=True
        )
        self._thread.start()

    def stop_monitor(self) -> None:
        """Stop the monitor thread (workers keep running for drain)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # ------------------------------------------------------------------
    def is_alive(self, index: int) -> bool:
        with self._lock:
            return self.slots[index].alive

    def live_indices(self) -> List[int]:
        """Indices of currently serviceable slots."""
        with self._lock:
            return [s.index for s in self.slots if s.alive]

    def worker_pids(self) -> List[Optional[int]]:
        """Current worker pid per slot (``None`` for a dead slot)."""
        with self._lock:
            return [s.pid if s.alive else None for s in self.slots]

    def counters(self) -> dict:
        with self._lock:
            return {
                "worker_restarts": self.restarts,
                "worker_deaths": self.deaths,
                "heartbeat_failures": self.heartbeat_failures,
            }

    # ------------------------------------------------------------------
    def report_failure(self, index: int) -> None:
        """A request to this slot failed (send error / response timeout).

        Kills the process (it may be wedged mid-request) and marks the
        slot dead so routing re-homes its sessions.  Safe to call with
        the slot's pipe lock held — only the metadata lock is taken.
        """
        slot = self.slots[index]
        self._mark_dead(slot, killed=True)

    def _mark_dead(self, slot: WorkerSlot, killed: bool) -> None:
        with self._lock:
            if not slot.alive:
                return
            slot.alive = False
            self.deaths += 1
            uptime = self.clock() - slot.spawned_at
            if uptime >= self.policy.min_uptime or slot.backoff <= 0:
                slot.backoff = self.policy.base_delay
            else:
                slot.backoff = min(
                    slot.backoff * 2.0, self.policy.max_delay
                )
            slot.next_restart_at = self.clock() + slot.backoff
        proc = slot.proc
        if killed and proc is not None and proc.is_alive():
            proc.kill()
        if proc is not None:
            proc.join(timeout=1.0)

    def _respawn(self, slot: WorkerSlot) -> None:
        """Fork a fresh worker into a (dead or new) slot."""
        with self._lock:
            generation = slot.generation + 1
        proc, conn = self._spawn(slot.index, generation)
        with self._lock:
            old_conn = slot.conn
            slot.proc = proc
            slot.conn = conn
            slot.generation = generation
            slot.spawned_at = self.clock()
            slot.alive = True
            if generation > 1:
                self.restarts += 1
        if old_conn is not None:
            try:
                old_conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass

    # ------------------------------------------------------------------
    def _monitor(self) -> None:
        """Heartbeat / restart loop, one pass per interval."""
        while not self._stop.wait(self.heartbeat_interval):
            for slot in self.slots:
                try:
                    self._check(slot)
                except Exception:  # pragma: no cover - never kill the loop
                    continue

    def _check(self, slot: WorkerSlot) -> None:
        with self._lock:
            alive = slot.alive
            due = self.clock() >= slot.next_restart_at
        if not alive:
            if due:
                # Hold the pipe lock so no request races the conn swap.
                with slot.lock:
                    self._respawn(slot)
            return
        proc = slot.proc
        if proc is not None and not proc.is_alive():
            # Died outright (SIGKILL, OOM, crash): no heartbeat needed.
            self._mark_dead(slot, killed=False)
            return
        # Pipe busy means a request is in flight — proof of life.
        if not slot.lock.acquire(blocking=False):
            return
        try:
            slot.call(("ping",), PING_TIMEOUT)
        except Exception:
            with self._lock:
                self.heartbeat_failures += 1
            self._mark_dead(slot, killed=True)
        finally:
            slot.lock.release()

    # ------------------------------------------------------------------
    def kill_all(self) -> None:
        """Forcibly terminate every worker (shutdown of last resort)."""
        for slot in self.slots:
            proc = slot.proc
            if proc is not None and proc.is_alive():
                proc.kill()
            if proc is not None:
                proc.join(timeout=1.0)
            with self._lock:
                slot.alive = False
