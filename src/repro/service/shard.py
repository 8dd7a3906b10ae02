"""Sharded decision serving: N worker processes behind one front end.

One :class:`~repro.service.service.DecisionService` saturates a core at
roughly 20k single solves per second; an origin fleet needs more and,
just as importantly, needs one crashed optimizer to cost one shard, not
the whole tier.  :class:`ShardedDecisionService` provides both:

* **sharding** — ``session_id`` hashes (CRC-32) onto one of N forked
  worker processes, each running a full :class:`DecisionService`; the
  sticky mapping keeps a session's solver state on one worker;
* **shared table** — the tier-1 :class:`~repro.core.lookup.DecisionTable`
  is built once, published to a memory-mapped file
  (:meth:`~repro.core.lookup.DecisionTable.save_mmap`), and mapped
  read-only by every worker, so N shards share one copy of its pages;
* **supervision** — a :class:`~repro.service.supervisor.Supervisor`
  heartbeats every worker and restarts dead ones with bounded backoff;
* **re-homing** — sessions of a dead shard are re-routed to survivors
  (picked by rendezvous over the live set) where their solver state is
  rebuilt from the next observation; a stale answer is never served;
* **failover floor** — when no worker can answer (all dead, send failed,
  response timed out), the front end answers from its local tier-2 BBA
  rule, so the serving contract (in-range rung, bounded latency) holds
  even with zero live shards;
* **graceful drain** — :meth:`close` stops routing new work, collects
  each worker's final health snapshot over a ``stop`` handshake, and
  answers any late request from the floor instead of dropping it.

The wire protocol is deliberately tiny: a single observation crosses the
pipe as a flat tuple (the ladder is config, already held by both sides),
a batch as three NumPy columns answered by rung, tier and flag columns,
and every request carries its send timestamp so pipe transit counts
against the decision deadline (``fork`` guarantees a shared
``CLOCK_MONOTONIC``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..abr.base import PlayerObservation
from ..abr.bba import BbaController
from ..core.lookup import DecisionTable, TablePublisher
from ..core.objective import SodaConfig
from ..prediction.base import ThroughputSample
from ..runner.executor import spawn_worker
from ..sim.video import BitrateLadder
from .admission import RetryBudget
from .degrade import TIER_RULE, floor_rung
from .health import LatencyRing
from .service import FLAG_FIELDS, Decision, DecisionService, pack_columns
from .supervisor import Supervisor

__all__ = [
    "FleetHealth",
    "RolloutReport",
    "ShardDecision",
    "ShardedDecisionService",
    "WorkerSpec",
    "decode_observation",
    "encode_observation",
]

#: seconds past the deadline the front end waits for a worker's answer
#: before declaring the worker wedged
REQUEST_SLACK = 0.25
#: bound on the sticky re-home map (oldest overrides evicted first)
MAX_REHOMES = 4096

# Rollout canary rules: shards swapped per wave once the canary clears,
# the deterministic cell probe, the largest allowed canary-minus-baseline
# rise in probe defer fraction or windowed floor rate and in windowed
# solver-error rate, and the factor over the baseline p99 a canary p99
# past the deadline must stay under.
ROLLOUT_WAVE_SIZE = 1
PROBE_SEED, PROBE_COUNT = 17, 128
FLOOR_RATE_MARGIN = 0.2
ERROR_RATE_MARGIN = 0.05
P99_FACTOR = 4.0


@dataclass(frozen=True)
class ShardDecision(Decision):
    """A :class:`Decision` annotated with how the fleet produced it.

    Attributes:
        shard: the shard slot that answered (``-1`` for a front-end
            failover answer).
        rehomed: the session was served away from its home shard.
        failover: no worker answered; the front end served its local
            tier-2 floor.
    """

    shard: int = -1
    rehomed: bool = False
    failover: bool = False


# ----------------------------------------------------------------------
# wire codec: observations and decisions as flat tuples
# ----------------------------------------------------------------------
def encode_observation(obs: PlayerObservation) -> tuple:
    """Flatten an observation for the pipe (the ladder stays behind)."""
    return (
        obs.wall_time,
        obs.segment_index,
        obs.buffer_level,
        obs.max_buffer,
        obs.previous_quality,
        tuple(
            (s.start, s.duration, s.size, s.throughput) for s in obs.history
        ),
        obs.rebuffer_time,
        obs.playing,
    )


def decode_observation(data: tuple, ladder: BitrateLadder) -> PlayerObservation:
    """Rebuild an observation against the worker's own ladder."""
    (
        wall_time, segment_index, buffer_level, max_buffer,
        previous_quality, history, rebuffer_time, playing,
    ) = data
    return PlayerObservation(
        wall_time=wall_time,
        segment_index=segment_index,
        buffer_level=buffer_level,
        max_buffer=max_buffer,
        previous_quality=previous_quality,
        ladder=ladder,
        history=tuple(ThroughputSample(*s) for s in history),
        rebuffer_time=rebuffer_time,
        playing=playing,
    )


def _encode_decision(d: Decision) -> tuple:
    return (
        d.quality, d.tier, d.deferred, d.solver_error, d.overran,
        d.shed, d.sanitized,
    )


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerSpec:
    """Everything a shard worker needs to build its decision service.

    Inherited through ``fork`` (never pickled), so ``tier0_factory`` may
    be any live callable — the chaos soak injects crashing solvers here.
    ``table_path`` points at the mmap-published decision table; ``None``
    disables tier 1 in the workers.
    """

    ladder: BitrateLadder
    max_buffer: float
    config: Optional[SodaConfig]
    deadline: float
    max_in_flight: int
    max_sessions: int
    table_path: Optional[str]
    tier0_budget: Optional[float] = None
    tier0_factory: Optional[object] = None
    tier0_chunk: int = 16


def _worker_main(conn, spec: WorkerSpec, slot: int, generation: int) -> None:
    """Shard worker body: one DecisionService, one request/response loop."""
    table = (
        DecisionTable.load_mmap(spec.table_path)
        if spec.table_path is not None
        else None
    )
    service = DecisionService(
        ladder=spec.ladder,
        max_buffer=spec.max_buffer,
        config=spec.config,
        deadline=spec.deadline,
        max_in_flight=spec.max_in_flight,
        max_sessions=spec.max_sessions,
        table_points=0,
        table=table,
        tier0_budget=spec.tier0_budget,
        tier0_factory=spec.tier0_factory,
        tier0_chunk=spec.tier0_chunk,
    )
    ladder = spec.ladder
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            tag = msg[0]
            if tag == "decide":
                _, session_id, data, sent_at = msg
                decision = service.decide(
                    session_id,
                    decode_observation(data, ladder),
                    deadline_at=sent_at + spec.deadline,
                )
                conn.send(("ok", _encode_decision(decision)))
            elif tag == "vbatch":
                _, sids, tputs, bufs, prevs, sent_at = msg
                conn.send((
                    "ok",
                    service.decide_columns(
                        sids, tputs, bufs, prevs,
                        deadline_at=sent_at + spec.deadline,
                    ),
                ))
            elif tag == "health":
                conn.send(("health", service.health().to_dict()))
            elif tag == "table":
                # Swap the tier-1 table in place: map the new file, then
                # rebind — the worker keeps serving throughout.  A bad
                # file is answered as an error and the old table stays.
                _, path = msg
                try:
                    new_table = (
                        DecisionTable.load_mmap(path)
                        if path is not None
                        else None
                    )
                    conn.send(("ok", service.set_table(new_table)))
                except Exception as exc:
                    conn.send(("error", f"table swap failed: {exc}"))
            elif tag == "tableprobe":
                _, seed, count = msg
                current = service.table
                if current is None:
                    conn.send(("ok", (0, [])))
                else:
                    conn.send((
                        "ok",
                        (current.version, current.probe_cells(seed, count)),
                    ))
            elif tag == "ping":
                conn.send(("pong", slot, generation))
            elif tag == "stop":
                conn.send(("bye", service.health().to_dict()))
                break
            else:  # unknown request: answer rather than wedge the pipe
                conn.send(("error", f"unknown request {tag!r}"))
    finally:
        conn.close()


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetHealth:
    """One observable moment of the whole shard fleet.

    Attributes:
        shards: configured shard count.
        live_shards: shards currently serviceable.
        ready: the fleet should receive traffic (at least one live
            shard and not draining).
        decisions: answers the front end returned (including failovers).
        failovers: answers served from the front-end floor.
        sessions_rehomed: re-home assignments made after shard deaths.
        worker_restarts: workers respawned by the supervisor.
        worker_deaths: worker deaths observed.
        heartbeat_failures: live-but-unresponsive workers killed.
        latency: end-to-end p50/p95/p99 over the front-end ring, seconds.
        latency_max: worst end-to-end latency observed, seconds.
        latency_samples: lifetime count of front-end latencies.
        deadline: per-decision budget, seconds.
        rollup: per-shard counter snapshots summed across live shards
            (``decisions``, ``evictions``, ``sheds``, tier counts, ...).
        per_shard: each shard's own health dict (``{"live": False}`` for
            a dead slot); each entry carries its slot's ``restarts``
            count and, when live, the ``table_version`` it serves.
        table_versions: per-slot decision-table version (``-1`` for a
            dead or unreachable slot) — a mixed fleet mid-rollout is
            observable here.
        retries_granted: re-route attempts the retry budget allowed.
        retries_denied: re-route attempts the retry budget refused
            (the request fell to the front-end floor instead).
    """

    shards: int
    live_shards: int
    ready: bool
    decisions: int
    failovers: int
    sessions_rehomed: int
    worker_restarts: int
    worker_deaths: int
    heartbeat_failures: int
    latency: Dict[str, float]
    latency_max: float
    latency_samples: int
    deadline: float
    rollup: Dict[str, float]
    per_shard: List[dict]
    table_versions: List[int] = dataclasses.field(default_factory=list)
    retries_granted: int = 0
    retries_denied: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


@dataclass(frozen=True)
class RolloutReport:
    """The outcome of one :meth:`ShardedDecisionService.rollout`.

    Attributes:
        target_version: version of the candidate table.
        previous_version: version the fleet served before the rollout.
        committed: the candidate was promoted fleet-wide.
        rolled_back: the rollout was reverted (``reason`` says why).
        reason: human-readable verdict ("committed" on success).
        canary_shard: the slot that served the canary.
        waves: shard indices swapped per wave (the canary is wave 0).
        stages: the state machine's visited stages, in order.
        probe_seed / probe_count: the deterministic cell-probe identity,
            so an operator can reproduce the comparison.
        baseline_defer_fraction: defer fraction of the probe against the
            live table before the canary swap.
        canary_defer_fraction: defer fraction of the same probe against
            the candidate on the canary (``-1`` if never measured).
        final_versions: per-slot table version after the rollout settled
            (``-1`` for a dead slot).
    """

    target_version: int
    previous_version: int
    committed: bool
    rolled_back: bool
    reason: str
    canary_shard: int
    waves: List[List[int]]
    stages: List[str]
    probe_seed: int
    probe_count: int
    baseline_defer_fraction: float
    canary_defer_fraction: float
    final_versions: List[int]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _defer_fraction(cells: Sequence[int]) -> float:
    """Fraction of probed cells that are defer (``-1``) — the canary
    comparison's floor-rate proxy (an all-defer table probes as 1.0)."""
    if not cells:
        return -1.0
    return sum(1 for c in cells if c < 0) / len(cells)


def _stat_window(
    before: Optional[dict], after: Optional[dict]
) -> Optional[Dict[str, float]]:
    """Windowed per-shard rates between two health snapshots; ``None``
    when the shard was dead at either end or served nothing between."""
    if not before or not after:
        return None
    if not before.get("live") or not after.get("live"):
        return None
    b, a = before.get("stats", {}), after.get("stats", {})
    decisions = a.get("decisions", 0) - b.get("decisions", 0)
    if decisions <= 0:
        return None
    return {
        "decisions": float(decisions),
        "floor_rate": (
            a.get("tier2_decisions", 0) - b.get("tier2_decisions", 0)
        ) / decisions,
        "error_rate": (
            a.get("solver_errors", 0) - b.get("solver_errors", 0)
        ) / decisions,
    }


def _roll_up(per_shard: Sequence[dict]) -> Dict[str, float]:
    """Sum each live shard's counters into one fleet-level dict."""
    rollup: Dict[str, float] = {}
    for snapshot in per_shard:
        if not snapshot.get("live"):
            continue
        stats = snapshot.get("stats", {})
        for key, value in stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                rollup[key] = rollup.get(key, 0) + value
        for key in ("evictions", "sheds"):
            value = snapshot.get(key, 0)
            rollup[key] = rollup.get(key, 0) + value
        batching = snapshot.get("batching", {})
        for key, value in batching.items():
            # Per-shard means/costs do not sum; rebuild them below from
            # the raw counters.  max_batch rolls up as a fleet max.
            if key in ("mean_occupancy", "amortized_ms"):
                continue
            name = f"batching_{key}"
            if key == "max_batch":
                rollup[name] = max(rollup.get(name, 0), value)
            else:
                rollup[name] = rollup.get(name, 0) + value
    batches = rollup.get("batching_batches", 0)
    batched = rollup.get("batching_batched_decisions", 0)
    if batched:
        rollup["batching_mean_occupancy"] = batched / batches
        rollup["batching_amortized_ms"] = (
            1000.0 * rollup.get("batching_batch_time_total", 0.0) / batched
        )
    return rollup


# ----------------------------------------------------------------------
class ShardedDecisionService:
    """Front end hashing sessions onto N supervised shard workers.

    Args:
        ladder: the encoding ladder all sessions share.
        max_buffer: client buffer capacity, seconds.
        config: SODA tuning forwarded to every worker.
        shards: worker process count.
        deadline: per-decision wall-clock budget, seconds (anchored at
            the front-end send time, so pipe transit counts).
        max_in_flight: per-worker admission bound.
        max_sessions: per-worker resident-session cap.
        table_points: grid size for the shared decision table; ``0``
            disables tier 1 fleet-wide.
        table_path: pre-published table file to map instead of building
            one (validated up front; see
            :meth:`~repro.core.lookup.DecisionTable.load_mmap`).
        tier0_budget: tier-0 ladder budget forwarded to workers.
        tier0_factory: per-session solver hook forwarded to workers
            (inherited via fork — the chaos soak injects faults here).
        tier0_chunk: sessions per batched tier-0 solver call inside each
            worker's batch path (``1`` disables cross-session batching).
        heartbeat_interval: supervisor heartbeat period, seconds.
        clock: injectable monotonic time source.

    Raises:
        ValueError: on a non-positive shard count.
        RuntimeError: when the platform has no ``fork`` start method.
    """

    def __init__(
        self,
        ladder: BitrateLadder,
        max_buffer: float,
        config: Optional[SodaConfig] = None,
        shards: int = 2,
        deadline: float = 0.05,
        max_in_flight: int = 64,
        max_sessions: int = 1024,
        table_points: int = 32,
        table_path: Optional[str] = None,
        tier0_budget: Optional[float] = None,
        tier0_factory: Optional[object] = None,
        tier0_chunk: int = 16,
        heartbeat_interval: float = 0.1,
        clock=None,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        self.ladder = ladder
        self.max_buffer = max_buffer
        # Same default the per-process service uses: the fast backend
        # (table build and worker solvers must agree on the policy).
        self.config = config = config or SodaConfig(solver_backend="fast")
        self.shards = shards
        self.deadline = deadline
        self.clock = clock or time.monotonic

        # ---- publish the shared decision table ------------------------
        self._owns_table = False
        if table_path is None and table_points:
            built = DecisionTable(
                ladder,
                max_buffer,
                config=config,
                throughput_points=table_points,
                buffer_points=table_points,
            )
            fd, table_path = tempfile.mkstemp(
                prefix="soda-table-", suffix=".sodatbl"
            )
            os.close(fd)
            built.save_mmap(table_path)
            self._owns_table = True
        if table_path is not None:
            # Validate the file now: a corrupt table should fail loudly
            # at startup, not as N identical worker crash loops.
            DecisionTable.load_mmap(table_path)
        self.table_path = table_path

        self._spec = WorkerSpec(
            ladder=ladder,
            max_buffer=max_buffer,
            config=config,
            deadline=deadline,
            max_in_flight=max_in_flight,
            max_sessions=max_sessions,
            table_path=table_path,
            tier0_budget=tier0_budget,
            tier0_factory=tier0_factory,
            tier0_chunk=tier0_chunk,
        )

        self._rule = BbaController()  # front-end failover floor
        self.latencies = LatencyRing()
        self._counter_lock = threading.Lock()
        self._decisions = 0
        self._failovers = 0
        self._route_lock = threading.Lock()
        self._rehomes: "OrderedDict[str, int]" = OrderedDict()
        self._rehomed_total = 0
        # A dead shard re-homes as a bounded trickle, never a retry storm.
        self.retry_budget = RetryBudget()
        self._rollout_lock = threading.Lock()
        self._closing = False
        self._closed = False
        self._final_health: Optional[FleetHealth] = None

        self.supervisor = Supervisor(
            shards,
            spawn=self._spawn,
            heartbeat_interval=heartbeat_interval,
            clock=self.clock,
        )
        try:
            self.supervisor.start()
        except Exception:
            self._cleanup_table()
            raise

    # ------------------------------------------------------------------
    def _spawn(self, slot: int, generation: int):
        spawned = spawn_worker(
            _worker_main, (self._spec, slot, generation), duplex=True
        )
        if spawned is None:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "sharded serving requires the fork start method"
            )
        return spawned

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def home_shard(self, session_id: str) -> int:
        """The shard a session hashes to when every slot is live."""
        return zlib.crc32(session_id.encode()) % self.shards

    def _route(self, session_id: str) -> Tuple[Optional[int], bool]:
        """Pick the slot to serve a session; re-home off dead shards.

        Returns ``(slot_index, rehomed)``; ``(None, False)`` when no
        shard is live.  Re-homes are sticky: once a session moves to a
        survivor its solver state lives there, so it stays until that
        survivor itself dies.
        """
        home = self.home_shard(session_id)
        with self._route_lock:
            override = self._rehomes.get(session_id)
            if override is not None:
                if self.supervisor.is_alive(override):
                    self._rehomes.move_to_end(session_id)
                    return override, True
                del self._rehomes[session_id]
            if self.supervisor.is_alive(home):
                return home, False
            live = self.supervisor.live_indices()
            if not live:
                return None, False
            target = live[zlib.crc32(session_id.encode()) % len(live)]
            self._rehomes[session_id] = target
            self._rehomed_total += 1
            while len(self._rehomes) > MAX_REHOMES:
                self._rehomes.popitem(last=False)
            return target, True

    def rehomed_sessions(self) -> Dict[str, int]:
        """Copy of the current session → survivor-shard overrides."""
        with self._route_lock:
            return dict(self._rehomes)

    @property
    def sessions_rehomed(self) -> int:
        with self._route_lock:
            return self._rehomed_total

    @property
    def failovers(self) -> int:
        with self._counter_lock:
            return self._failovers

    @property
    def decisions(self) -> int:
        with self._counter_lock:
            return self._decisions

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def decide(self, session_id: str, obs: PlayerObservation) -> ShardDecision:
        """Answer one request through the session's (live) shard.

        Never raises: worker death, a broken pipe, or a response timeout
        all collapse to the front-end floor answer with ``failover=True``
        (and the worker reported dead so re-homing kicks in).
        """
        started = self.clock()
        rehomed = False
        if not self._closing:
            self.retry_budget.record_request()
            payload = ("decide", session_id, encode_observation(obs), started)
            # Two routing attempts: a request that catches a shard dying
            # is re-routed once — by then the slot is marked dead, so the
            # second _route re-homes onto a survivor immediately instead
            # of burning the request on the floor.  The second attempt
            # spends a retry token: when a dead shard pushes the retry
            # rate past the budget, the overflow falls to the floor
            # instead of doubling the load on the survivors.
            for attempt in range(2):
                slot_index, rehomed = self._route(session_id)
                if slot_index is None:
                    break
                reply = self._call(
                    slot_index, payload, self.deadline + REQUEST_SLACK,
                    since=started,
                )
                if reply is not None:
                    return self._from_wire(
                        session_id, reply[1], slot_index, rehomed, started
                    )
                if attempt == 0 and not self.retry_budget.try_retry():
                    break
        return self._failover(session_id, obs, started, rehomed)

    def _call(
        self, slot_index: int, message: tuple, timeout: float,
        since: Optional[float] = None,
    ) -> Optional[tuple]:
        """One round trip to a live slot's worker; ``None`` when the slot
        is dead or the trip fails, and then the worker is reported dead
        so routing re-homes its sessions.

        ``timeout`` runs from when the slot's lock is held, or, given
        ``since``, from that clock() value (at least 10 ms remain).
        """
        slot = self.supervisor.slots[slot_index]
        with slot.lock:
            if not self.supervisor.is_alive(slot_index):
                return None
            if since is not None:
                timeout = max(0.01, since + timeout - self.clock())
            try:
                return slot.call(message, timeout)
            except Exception:
                self.supervisor.report_failure(slot_index)
                return None

    def decide_many(
        self,
        requests: Sequence[Tuple[str, PlayerObservation]],
    ) -> List[ShardDecision]:
        """Scatter a batch across shards, gather under one deadline.

        Sub-batches are sent to every target shard first and only then
        collected, so shards compute concurrently; a shard that fails
        mid-batch answers its whole sub-batch from the front-end floor.

        Each request crosses the pipe as its decision-table coordinates
        (last throughput, buffer, previous rung) packed into NumPy
        columns (:func:`~repro.service.service.pack_columns`) and the
        worker answers through
        :meth:`~repro.service.service.DecisionService.decide_columns`:
        the vectorized tiers consume nothing else, and the wire cost per
        item drops an order of magnitude, which is what sustains 100k+
        decisions/sec aggregate on the batch path.  The tier-0 prefix
        therefore sees a one-sample history; :meth:`decide` is the path
        that ships a client's whole download log.
        """
        started = self.clock()
        n = len(requests)
        if n == 0:
            return []
        decisions: List[Optional[ShardDecision]] = [None] * n
        groups: Dict[int, List[int]] = {}
        floors: List[int] = []
        rehomed: List[bool] = [False] * n
        for i, (sid, _obs) in enumerate(requests):
            # a draining fleet routes nowhere: every row takes the floor
            slot_index, moved = None, False
            if not self._closing:
                slot_index, moved = self._route(sid)
            rehomed[i] = moved
            if slot_index is None:
                floors.append(i)
            else:
                groups.setdefault(slot_index, []).append(i)

        tputs, bufs, prevs = pack_columns(requests)
        order = sorted(groups)
        acquired: List[int] = []
        sent: Dict[int, bool] = {}
        failover_count = 0
        try:
            # scatter: lock slots in index order, push every sub-batch
            for slot_index in order:
                slot = self.supervisor.slots[slot_index]
                slot.lock.acquire()
                acquired.append(slot_index)
                sent[slot_index] = False
                if not self.supervisor.is_alive(slot_index):
                    continue
                indices = groups[slot_index]
                idx = np.asarray(indices)
                request = (
                    "vbatch",
                    [requests[i][0] for i in indices],
                    tputs[idx], bufs[idx], prevs[idx],
                    started,
                )
                try:
                    slot.conn.send(request)
                    sent[slot_index] = True
                except Exception:
                    self.supervisor.report_failure(slot_index)
            # gather: collect replies in the same order
            budget_until = started + self.deadline + REQUEST_SLACK
            for slot_index in order:
                indices = groups[slot_index]
                slot = self.supervisor.slots[slot_index]
                payload = None
                if sent[slot_index]:
                    try:
                        remaining = max(0.01, budget_until - self.clock())
                        if not slot.conn.poll(remaining):
                            raise TimeoutError("shard batch timed out")
                        _tag, payload = slot.conn.recv()
                        if len(payload[0]) != len(indices):
                            raise ValueError("shard answered a short batch")
                    except Exception:
                        self.supervisor.report_failure(slot_index)
                        payload = None
                if payload is None:
                    for i in indices:
                        sid, obs = requests[i]
                        decisions[i] = self._failover_decision(
                            sid, obs, started, rehomed[i]
                        )
                        failover_count += 1
                    continue
                latency = self.clock() - started
                rungs, tiers, flags = (column.tolist() for column in payload)
                for j, i in enumerate(indices):
                    decisions[i] = ShardDecision(
                        session_id=requests[i][0],
                        quality=rungs[j],
                        tier=tiers[j],
                        latency=latency,
                        shard=slot_index,
                        rehomed=rehomed[i],
                        **FLAG_FIELDS[flags[j]],
                    )
        finally:
            for slot_index in acquired:
                self.supervisor.slots[slot_index].lock.release()

        for i in floors:
            sid, obs = requests[i]
            decisions[i] = self._failover_decision(sid, obs, started, rehomed[i])
            failover_count += 1
        self._account(
            n, failovers=failover_count, latency=self.clock() - started
        )
        return decisions  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _failover_decision(
        self, session_id: str, obs: PlayerObservation, started: float,
        rehomed: bool,
    ) -> ShardDecision:
        return ShardDecision(
            session_id=session_id,
            quality=floor_rung(self._rule.select_quality, obs),
            tier=TIER_RULE,
            latency=self.clock() - started,
            shard=-1,
            rehomed=rehomed,
            failover=True,
        )

    def _failover(
        self, session_id: str, obs: PlayerObservation, started: float,
        rehomed: bool,
    ) -> ShardDecision:
        decision = self._failover_decision(session_id, obs, started, rehomed)
        self._account(1, failovers=1, latency=decision.latency)
        return decision

    def _from_wire(
        self, session_id: str, wire: tuple, shard: int, rehomed: bool,
        started: float,
    ) -> ShardDecision:
        latency = self.clock() - started
        quality, tier, deferred, solver_error, overran, shed, sanitized = wire
        decision = ShardDecision(
            session_id=session_id,
            quality=quality,
            tier=tier,
            deferred=deferred,
            solver_error=solver_error,
            overran=overran,
            shed=shed,
            sanitized=sanitized,
            latency=latency,
            shard=shard,
            rehomed=rehomed,
        )
        self._account(1, failovers=0, latency=latency)
        return decision

    def _account(self, count: int, failovers: int, latency: float) -> None:
        with self._counter_lock:
            self._decisions += count
            self._failovers += failovers
        self.latencies.record_many(latency, count)

    # ------------------------------------------------------------------
    # live table rollout
    # ------------------------------------------------------------------
    def table_probe(
        self, slot_index: int, seed: int, count: int
    ) -> Optional[Tuple[int, List[int]]]:
        """One shard's ``(table_version, probed cells)``; ``None`` when
        the shard is dead or unreachable.

        The probe is deterministic (see
        :meth:`~repro.core.lookup.DecisionTable.probe_cells`), so the
        same ``(seed, count)`` against two shards — or the same shard at
        two times — compares cell-for-cell.
        """
        reply = self._call(slot_index, ("tableprobe", seed, count), 2.0)
        if reply is None or reply[0] != "ok":
            return None
        version, cells = reply[1]
        return int(version), list(cells)

    def shard_table_versions(self) -> List[int]:
        """Per-slot table version right now (``-1`` for a dead slot)."""
        versions = []
        for i in range(self.shards):
            probe = self.table_probe(i, 0, 0)
            versions.append(probe[0] if probe is not None else -1)
        return versions

    def _swap_table(self, slot_index: int, path: str) -> Optional[int]:
        """Tell one worker to remap its table; returns the version it
        now serves, or ``None`` on failure (worker reported dead)."""
        reply = self._call(slot_index, ("table", path), 2.0)
        if reply is None or reply[0] != "ok":
            return None
        return int(reply[1])

    def rollout(
        self,
        table: DecisionTable,
        probation: float = 0.5,
        monitor=None,
    ) -> RolloutReport:
        """Canary a new decision table onto the fleet, or roll it back.

        The state machine: *publish* the candidate beside the live file
        (next monotonic version), swap it onto one *canary* shard via the
        ``table`` control message (no process restart), hold a
        *probation* window under live traffic, then either *advance*
        wave-by-wave and *commit* (promote the candidate over the live
        path and converge every shard onto it) or *rollback* (re-swap
        every touched shard onto the live path, which still holds the old
        bytes, and unpublish the candidate).  Workers that die and
        restart mid-rollout reload ``spec.table_path`` — the live path —
        so both terminal states are naturally convergent; a final
        convergence pass re-swaps any straggler.

        The canary verdict combines a deterministic table probe (defer
        fraction of the same sampled cells, candidate vs live — the
        poisoned-table detector) with windowed floor-rate /
        solver-error-rate deltas against the baseline shards and a p99
        comparison against the deadline, each held to this module's
        rollout constants (``FLOOR_RATE_MARGIN``, ``ERROR_RATE_MARGIN``,
        ``P99_FACTOR``; ``ROLLOUT_WAVE_SIZE`` shards per wave).

        Args:
            table: the candidate (its version is assigned here).
            probation: seconds of live traffic the canary must survive.
            monitor: optional ``(stage, info) -> None`` callback fired at
                every stage transition (the chaos soak keys its fault
                injection off this).

        Raises:
            RuntimeError: when tier 1 is disabled (no live table file)
                or the service is draining.
        """
        if self.table_path is None:
            raise RuntimeError("rollout requires tier-1 serving (a table)")
        if self._closing:
            raise RuntimeError("cannot roll out a table while draining")
        with self._rollout_lock:
            return self._rollout_locked(
                table, probation, monitor or (lambda stage, info: None),
            )

    def _rollout_locked(self, table, probation, notify) -> RolloutReport:
        publisher = TablePublisher(self.table_path)
        previous_version = publisher.live_version()
        path, version = publisher.publish(table)
        stages: List[str] = []
        waves: List[List[int]] = []
        swapped: List[int] = []
        base_frac = -1.0
        canary_frac = -1.0

        def stage(name: str, **info) -> None:
            stages.append(name)
            notify(name, dict(info, version=version, path=path))

        def report(committed: bool, rolled_back: bool, reason: str,
                   canary: int) -> RolloutReport:
            return RolloutReport(
                target_version=version,
                previous_version=previous_version,
                committed=committed,
                rolled_back=rolled_back,
                reason=reason,
                canary_shard=canary,
                waves=waves,
                stages=stages,
                probe_seed=PROBE_SEED,
                probe_count=PROBE_COUNT,
                baseline_defer_fraction=base_frac,
                canary_defer_fraction=canary_frac,
                final_versions=self.shard_table_versions(),
            )

        stage("publish")
        live = self.supervisor.live_indices()
        if not live:
            publisher.unpublish(path)
            stage("abort")
            return report(False, False, "no live shards", -1)
        canary = live[0]
        baseline_shards = live[1:]

        # Baselines before anything changes: the live table's probe
        # (against the canary itself, still on the old version) and each
        # shard's counter snapshot to window the probation deltas.
        base_probe = self.table_probe(canary, PROBE_SEED, PROBE_COUNT)
        base_frac = _defer_fraction(base_probe[1]) if base_probe else -1.0
        base_stats = {i: self._shard_snapshot(i) for i in live}

        if self._swap_table(canary, path) != version:
            self._revert(swapped, publisher, path, previous_version)
            stage("rollback", reason="canary swap failed")
            return report(False, True, "canary swap failed", canary)
        swapped.append(canary)
        waves.append([canary])
        stage("canary", shard=canary)

        stage("probation", shard=canary, seconds=probation)
        deadline = self.clock() + probation
        while self.clock() < deadline and not self._closing:
            time.sleep(min(0.02, probation))

        verdict, canary_frac = self._judge_canary(
            canary, baseline_shards, version, base_frac, base_stats,
        )
        if verdict is not None:
            self._revert(swapped, publisher, path, previous_version)
            stage("rollback", reason=verdict)
            return report(False, True, verdict, canary)

        # Advance wave-by-wave over whatever is live now (a shard that
        # died during probation restarts on the old table; the commit
        # convergence pass picks it up).
        remaining = [
            i for i in self.supervisor.live_indices() if i not in swapped
        ]
        for start in range(0, len(remaining), ROLLOUT_WAVE_SIZE):
            wave = remaining[start:start + ROLLOUT_WAVE_SIZE]
            for i in wave:
                if self._swap_table(i, path) == version:
                    swapped.append(i)
            waves.append(wave)
            stage("advance", shards=wave)
            for i in wave:
                probe = self.table_probe(i, PROBE_SEED, PROBE_COUNT)
                if probe is None or probe[0] != version:
                    continue  # died or restarted: convergence handles it
                frac = _defer_fraction(probe[1])
                if base_frac >= 0 and frac - base_frac > FLOOR_RATE_MARGIN:
                    why = (
                        f"wave shard {i} floor-rate spike: probe defer "
                        f"fraction {frac:.2f} vs baseline {base_frac:.2f}"
                    )
                    self._revert(swapped, publisher, path, previous_version)
                    stage("rollback", reason=why)
                    return report(False, True, why, canary)

        # Commit: the candidate becomes the live file, every shard is
        # converged onto the live path (also catching workers that
        # restarted mid-rollout), and the side file is retired.
        publisher.promote(path)
        for i in self.supervisor.live_indices():
            self._swap_table(i, self.table_path)
        publisher.unpublish(path)
        stage("commit")
        return report(True, False, "committed", canary)

    def _judge_canary(
        self, canary, baseline_shards, version, base_frac, base_stats,
    ) -> Tuple[Optional[str], float]:
        """The probation verdict: ``(reason-to-rollback or None,
        canary probe defer fraction)``."""
        probe = self.table_probe(canary, PROBE_SEED, PROBE_COUNT)
        if probe is None:
            return "canary unreachable at end of probation", -1.0
        canary_version, cells = probe
        if canary_version != version:
            return (
                f"canary restarted off the candidate (serving "
                f"v{canary_version})",
                -1.0,
            )
        frac = _defer_fraction(cells)
        if base_frac >= 0 and frac - base_frac > FLOOR_RATE_MARGIN:
            return (
                f"canary floor-rate spike: probe defer fraction "
                f"{frac:.2f} vs baseline {base_frac:.2f}",
                frac,
            )

        after = {
            i: self._shard_snapshot(i) for i in [canary] + baseline_shards
        }
        canary_window = _stat_window(base_stats.get(canary), after[canary])
        baseline_windows = [
            w for i in baseline_shards
            if (w := _stat_window(base_stats.get(i), after[i])) is not None
        ]
        if canary_window is not None and baseline_windows:
            base_floor = sum(
                w["floor_rate"] for w in baseline_windows
            ) / len(baseline_windows)
            base_error = sum(
                w["error_rate"] for w in baseline_windows
            ) / len(baseline_windows)
            if canary_window["floor_rate"] - base_floor > FLOOR_RATE_MARGIN:
                return (
                    f"canary floor rate {canary_window['floor_rate']:.2f} "
                    f"vs baseline {base_floor:.2f}",
                    frac,
                )
            if canary_window["error_rate"] - base_error > ERROR_RATE_MARGIN:
                return (
                    f"canary solver-error rate "
                    f"{canary_window['error_rate']:.2f} vs baseline "
                    f"{base_error:.2f}",
                    frac,
                )
        canary_p99 = after[canary].get("latency", {}).get("p99", 0.0)
        base_p99 = max(
            (
                after[i].get("latency", {}).get("p99", 0.0)
                for i in baseline_shards if after[i].get("live")
            ),
            default=0.0,
        )
        if canary_p99 > self.deadline and (
            base_p99 <= 0 or canary_p99 > P99_FACTOR * base_p99
        ):
            return (
                f"canary p99 {canary_p99 * 1e3:.2f} ms breaches the "
                f"deadline ({self.deadline * 1e3:.2f} ms)",
                frac,
            )
        return None, frac

    def _revert(
        self, swapped: List[int], publisher: TablePublisher, path: str,
        previous_version: int,
    ) -> None:
        """Roll every touched shard back onto the live (old) table and
        retire the candidate file; stragglers are converged by version."""
        for i in dict.fromkeys(swapped):
            self._swap_table(i, self.table_path)
        for i in self.supervisor.live_indices():
            probe = self.table_probe(i, 0, 0)
            if probe is not None and probe[0] != previous_version:
                self._swap_table(i, self.table_path)
        publisher.unpublish(path)

    # ------------------------------------------------------------------
    # health and lifecycle
    # ------------------------------------------------------------------
    def worker_pids(self) -> List[Optional[int]]:
        return self.supervisor.worker_pids()

    def live_shards(self) -> List[int]:
        return self.supervisor.live_indices()

    def _shard_snapshot(self, slot_index: int) -> dict:
        """One shard's health dict over the pipe (dead → ``live: False``)."""
        restarts = max(0, self.supervisor.slots[slot_index].generation - 1)
        reply = self._call(slot_index, ("health",), 1.0)
        if reply is None:
            return {"live": False, "shard": slot_index, "restarts": restarts}
        payload = reply[1]
        payload["shard"] = slot_index
        payload["restarts"] = restarts
        return payload

    def health(self) -> FleetHealth:
        """Fleet snapshot: per-shard healths plus the summed rollup."""
        per_shard = [self._shard_snapshot(i) for i in range(self.shards)]
        return self._build_health(per_shard)

    def _build_health(self, per_shard: List[dict]) -> FleetHealth:
        live = sum(1 for s in per_shard if s.get("live"))
        counters = self.supervisor.counters()
        retry = self.retry_budget.snapshot()
        with self._counter_lock:
            decisions = self._decisions
            failovers = self._failovers
        return FleetHealth(
            shards=self.shards,
            live_shards=live,
            ready=live > 0 and not self._closing,
            decisions=decisions,
            failovers=failovers,
            sessions_rehomed=self.sessions_rehomed,
            worker_restarts=counters["worker_restarts"],
            worker_deaths=counters["worker_deaths"],
            heartbeat_failures=counters["heartbeat_failures"],
            latency=self.latencies.percentiles(),
            latency_max=self.latencies.max_seen,
            latency_samples=self.latencies.total_recorded,
            deadline=self.deadline,
            rollup=_roll_up(per_shard),
            per_shard=per_shard,
            table_versions=[
                int(s.get("table_version", -1)) if s.get("live") else -1
                for s in per_shard
            ],
            retries_granted=retry["retries_granted"],
            retries_denied=retry["retries_denied"],
        )

    # ------------------------------------------------------------------
    def close(self) -> FleetHealth:
        """Graceful drain: stop routing, collect finals, stop workers.

        Any request arriving after this starts is answered from the
        front-end floor (tier 2) — never dropped.  Each worker gets a
        ``stop`` handshake and its final health snapshot is folded into
        the returned fleet health; a worker that does not acknowledge in
        time is killed.
        """
        if self._closed:
            assert self._final_health is not None
            return self._final_health
        self._closing = True
        self.supervisor.stop_monitor()
        per_shard: List[dict] = []
        for slot in self.supervisor.slots:
            snapshot = {"live": False, "shard": slot.index}
            with slot.lock:
                if self.supervisor.is_alive(slot.index):
                    try:
                        _tag, payload = slot.call(("stop",), 2.0)
                        payload["shard"] = slot.index
                        snapshot = payload
                    except Exception:
                        pass
            snapshot["restarts"] = max(0, slot.generation - 1)
            per_shard.append(snapshot)
        self.supervisor.kill_all()
        health = self._build_health(per_shard)
        self._cleanup_table()
        self._final_health = health
        self._closed = True
        return health

    def _cleanup_table(self) -> None:
        if self._owns_table and self.table_path is not None:
            publisher = TablePublisher(self.table_path)
            for published_path in publisher.published().values():
                publisher.unpublish(published_path)
            try:
                os.unlink(self.table_path)
            except OSError:
                pass
            self._owns_table = False

    def __enter__(self) -> "ShardedDecisionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
