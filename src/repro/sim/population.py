"""Population-scale fleet simulation: 1M+ crash-survivable coarse sessions.

The paper's headline claim is fleet-level — consistent quality across a
production population of heterogeneous devices (Fig. 13) — but the
fine-grained simulators top out at tens of concurrent clients.  This
module trades per-segment fidelity for population scale: sessions live in
flat NumPy arrays (buffer, rung, throughput state, remaining duration)
advanced in fixed coarse ticks, with controller decisions served through
vectorized batch entry points (``DecisionTable.lookup_batch``,
``solve_sessions_batch``, or a live ``ShardedDecisionService``), so the
hot loop never drops to per-session Python.

Four pieces:

* **arrival process** (:class:`ArrivalModel`) — diurnal Poisson with
  flash-crowd bursts, a device-family mix reusing the HTML5/TV/STB
  volatility profiles behind the Figure 13 bench, and engagement-driven
  abandonment via ``analysis.engagement.sample_watch_fractions``;
* **vectorized event core** (:class:`PopulationSim.step`) — per-tick AR(1)
  throughput evolution, batched decisions, coarse buffer/rebuffer
  dynamics, and hazard-based early abandonment, all masked-array math;
* **correlated fault storms** (:mod:`repro.faults.storm`) — regional
  bandwidth collapses, CDN outage windows, and flash-crowd admission
  pressure applied to masked slices of the session arrays;
* **crash-survivable execution** — periodic atomic checkpoints
  (write-temp-fsync-rename, like ``runner.journal``) of the *full*
  population state including the RNG stream, so a run SIGKILLed mid-sweep
  resumes from its last checkpoint to fleet aggregates bit-identical to
  an uninterrupted run.  Test hook: ``REPRO_POP_KILL_AFTER=n`` SIGKILLs
  the process after its *n*-th checkpoint lands, mirroring
  ``REPRO_JOURNAL_KILL_AFTER``.

Aggregation is streaming (:class:`FleetAggregator`): fixed-bin histograms,
exact SLO threshold counts, and per-cohort counters — nothing ever
materializes a million per-session result objects.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.storm import StormSchedule
from .video import BitrateLadder, prime_video_live_ladder

__all__ = [
    "CohortSpec",
    "PopulationConfig",
    "ArrivalModel",
    "FleetAggregator",
    "FleetReport",
    "PopulationSim",
    "TableBackend",
    "SolverBackend",
    "ServiceBackend",
    "default_cohorts",
]

#: test-only crash hook: SIGKILL after the n-th checkpoint of this process
_KILL_ENV = "REPRO_POP_KILL_AFTER"

#: checkpoint format version (bumped on incompatible layout changes)
_CKPT_VERSION = 1


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CohortSpec:
    """One device-family cohort of the population.

    Attributes:
        name: family label (as in Figure 13).
        weight: relative share of arrivals.
        mean_mbps: typical downlink of the family, Mb/s.
        rsd: relative standard deviation of the family's links (drives
            the AR(1) volatility of each session's throughput walk).
    """

    name: str
    weight: float
    mean_mbps: float
    rsd: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("cohort weight must be positive")
        if self.mean_mbps <= 0 or self.rsd < 0:
            raise ValueError("cohort needs positive mean and rsd >= 0")


def default_cohorts() -> Tuple[CohortSpec, ...]:
    """The Figure 13 device families as population cohorts.

    Reuses the volatility profiles behind
    ``benchmarks/bench_fig13_production.py`` (via
    :data:`repro.analysis.production.DEVICE_FAMILIES`); weights reflect a
    browser-heavy fleet.
    """
    from ..analysis.production import DEVICE_FAMILIES

    weights = {"html5": 0.5, "smart-tv": 0.3, "set-top-box": 0.2}
    return tuple(
        CohortSpec(f.name, weights.get(f.name, 1.0), f.mean_mbps, f.rsd)
        for f in DEVICE_FAMILIES
    )


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs of one population run.

    Everything here is JSON-serializable; the canonical hash of the
    resolved config is stamped into checkpoints so ``--resume`` refuses a
    mismatched configuration, exactly like the run journal.

    Attributes:
        sessions: expected total arrivals over the run (the realized
            Poisson count varies around it; flash-crowd storms add on
            top).
        duration_hours: simulated span.
        tick_seconds: coarse event-core step.
        seed: master seed; one NumPy generator drives every draw in a
            fixed per-tick order, which is what makes checkpoint/resume
            bit-exact.
        capacity: concurrent-session slab size; ``0`` sizes it
            automatically from the peak arrival rate (arrivals beyond a
            full slab are *shed* and counted per cohort — admission
            pressure is a first-class outcome, not an error).
        regions / cdns: cohort axes fault storms target.
        diurnal_amplitude: relative swing of the sinusoidal arrival rate.
        diurnal_period_hours: diurnal cycle length; ``0`` compresses one
            full cycle into the run (useful for short sweeps and bench).
        flash_crowds: burst windows built into the arrival plan.
        flash_crowd_mass: fraction of all arrivals concentrated in them.
        flash_crowd_minutes: width of each burst window.
        content_minutes: nominal content length a session could watch.
        engagement_noise: per-session watch-fraction noise (Figure 1).
        abandon_scale: multiplier on the engagement hazard that converts
            QoE debt (switches, rebuffering) into mid-session
            abandonment.
        ar_coefficient: AR(1) coefficient of each session's
            log-throughput walk.
        max_buffer: client buffer capacity, seconds.
        rebuffer_slo: the fleet SLO on per-session rebuffer ratio; its
            breach rate is tracked exactly, per cohort.
        storm_intensity: correlated-fault-storm intensity (``0`` = no
            storms); the schedule is regenerated deterministically from
            (spec, seed) on resume.
        table_points: grid points per axis of the decision table the
            default backend builds.
    """

    sessions: int = 100_000
    duration_hours: float = 2.0
    tick_seconds: float = 2.0
    seed: int = 0
    capacity: int = 0
    regions: int = 8
    cdns: int = 3
    diurnal_amplitude: float = 0.6
    diurnal_period_hours: float = 0.0
    flash_crowds: int = 2
    flash_crowd_mass: float = 0.15
    flash_crowd_minutes: float = 4.0
    content_minutes: float = 40.0
    engagement_noise: float = 0.05
    abandon_scale: float = 6.0
    ar_coefficient: float = 0.9
    max_buffer: float = 20.0
    rebuffer_slo: float = 0.02
    storm_intensity: float = 0.0
    table_points: int = 32

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ValueError("sessions must be positive")
        if self.duration_hours <= 0 or self.tick_seconds <= 0:
            raise ValueError("duration and tick must be positive")
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")
        if self.regions < 1 or self.cdns < 1:
            raise ValueError("need at least one region and one CDN")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.flash_crowds < 0 or not 0.0 <= self.flash_crowd_mass < 1.0:
            raise ValueError("flash crowd settings out of range")
        if not 0.0 <= self.ar_coefficient < 1.0:
            raise ValueError("ar_coefficient must be in [0, 1)")
        if self.max_buffer <= 0 or self.content_minutes <= 0:
            raise ValueError("max_buffer and content_minutes must be positive")
        if not 0.0 <= self.rebuffer_slo <= 1.0:
            raise ValueError("rebuffer_slo must be in [0, 1]")
        if self.storm_intensity < 0:
            raise ValueError("storm_intensity must be non-negative")

    @property
    def horizon_seconds(self) -> float:
        return self.duration_hours * 3600.0

    @property
    def n_ticks(self) -> int:
        return int(math.ceil(self.horizon_seconds / self.tick_seconds))

    def spec_dict(self, cohorts: Sequence[CohortSpec]) -> Dict:
        """The canonical spec (config + resolved cohorts) for hashing."""
        return {
            "population": dataclasses.asdict(self),
            "cohorts": [dataclasses.asdict(c) for c in cohorts],
        }


# ----------------------------------------------------------------------
# arrival process
# ----------------------------------------------------------------------
class ArrivalModel:
    """Per-tick expected arrivals: diurnal Poisson plus flash crowds.

    The expected-rate curve is a *pure function* of the config: a raised
    sinusoid carrying ``1 - flash_crowd_mass`` of the mass, plus one
    raised-cosine bump per flash crowd carrying the rest.  Burst centers
    come from a dedicated generator seeded from the config seed, so the
    curve — like the storm schedule — needs no checkpoint state.  Only
    the Poisson *realization* draws from the simulation's stream.
    """

    def __init__(self, config: PopulationConfig) -> None:
        cfg = config
        ticks = cfg.n_ticks
        t = (np.arange(ticks) + 0.5) * cfg.tick_seconds
        period = cfg.diurnal_period_hours * 3600.0
        if period <= 0:
            period = cfg.horizon_seconds
        # Trough at the start of the cycle, peak mid-cycle.
        shape = 1.0 + cfg.diurnal_amplitude * np.sin(
            2.0 * np.pi * t / period - 0.5 * np.pi
        )
        burst_mass = (
            cfg.sessions * cfg.flash_crowd_mass if cfg.flash_crowds else 0.0
        )
        base = shape * ((cfg.sessions - burst_mass) / shape.sum())

        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 0xA771])
        )
        self.burst_windows: List[Tuple[float, float]] = []
        bursts = np.zeros(ticks)
        width = cfg.flash_crowd_minutes * 60.0
        for _ in range(cfg.flash_crowds):
            center = float(
                rng.uniform(0.2 * cfg.horizon_seconds,
                            0.8 * cfg.horizon_seconds)
            )
            start, end = center - width / 2.0, center + width / 2.0
            self.burst_windows.append((start, end))
            inside = (t >= start) & (t < end)
            if not inside.any():
                inside = np.zeros(ticks, dtype=bool)
                inside[min(int(center / cfg.tick_seconds), ticks - 1)] = True
            bump = np.zeros(ticks)
            bump[inside] = 1.0 + np.cos(
                2.0 * np.pi * (t[inside] - center) / width
            )
            bursts += bump * (burst_mass / cfg.flash_crowds / bump.sum())
        self._tick_seconds = cfg.tick_seconds
        #: expected arrivals per tick (sums to ``config.sessions``)
        self.expected: np.ndarray = base + bursts

    def burst_fraction(self) -> float:
        """Fraction of expected arrival mass inside burst windows."""
        if not self.burst_windows:
            return 0.0
        t = (np.arange(len(self.expected)) + 0.5) * self._tick_seconds
        inside = np.zeros(len(self.expected), dtype=bool)
        for start, end in self.burst_windows:
            inside |= (t >= start) & (t < end)
        return float(self.expected[inside].sum() / self.expected.sum())


# ----------------------------------------------------------------------
# streaming aggregation
# ----------------------------------------------------------------------
def _histogram(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Fixed-edge histogram counts (values clipped into the outer bins)."""
    idx = np.clip(
        np.searchsorted(edges, values, side="right") - 1, 0, len(edges) - 2
    )
    return np.bincount(idx, minlength=len(edges) - 1).astype(np.int64)


def _hist_quantile(edges: np.ndarray, counts: np.ndarray, q: float) -> float:
    """Deterministic quantile estimate from fixed-bin counts."""
    total = int(counts.sum())
    if total == 0:
        return 0.0
    target = q * total
    cum = np.cumsum(counts)
    bin_idx = int(np.searchsorted(cum, target, side="left"))
    bin_idx = min(bin_idx, len(counts) - 1)
    before = float(cum[bin_idx - 1]) if bin_idx else 0.0
    inside = float(counts[bin_idx])
    frac = 0.0 if inside == 0 else min(max((target - before) / inside, 0.0), 1.0)
    left, right = float(edges[bin_idx]), float(edges[bin_idx + 1])
    return left + frac * (right - left)


class FleetAggregator:
    """Streaming per-cohort fleet aggregates; never stores per-session rows.

    Finished sessions fold in as vectorized chunks: exact counters (per
    cohort: arrivals, shed, completed, abandoned, censored, SLO-threshold
    attainment), exact metric sums, and fixed-bin histograms from which
    the report derives QoE distributions and rebuffer-SLO curves.  All
    state is integer counts and float64 sums, so it serializes exactly
    into checkpoints and two runs that saw the same sessions produce
    bit-identical reports.
    """

    #: rebuffer-ratio attainment thresholds of the SLO curve
    SLO_THRESHOLDS = (0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1)

    def __init__(
        self,
        cohorts: Sequence[str],
        bitrate_cap: float,
        rebuffer_slo: float = 0.02,
    ) -> None:
        self.cohorts = list(cohorts)
        self.rebuffer_slo = float(rebuffer_slo)
        thresholds = set(self.SLO_THRESHOLDS) | {self.rebuffer_slo}
        self.slo_thresholds = tuple(sorted(thresholds))
        c = len(self.cohorts)
        self.rebuf_edges = np.concatenate(
            [[0.0], np.geomspace(1e-4, 1.0, 64)]
        )
        self.bitrate_edges = np.linspace(0.0, max(bitrate_cap, 1e-6), 65)
        self.switch_edges = np.linspace(0.0, 30.0, 61)
        self.counters = {
            name: np.zeros(c, dtype=np.int64)
            for name in ("arrivals", "shed", "completed", "abandoned",
                         "censored")
        }
        self.slo_counts = np.zeros(
            (c, len(self.slo_thresholds)), dtype=np.int64
        )
        self.rebuf_hist = np.zeros((c, len(self.rebuf_edges) - 1), np.int64)
        self.bitrate_hist = np.zeros((c, len(self.bitrate_edges) - 1), np.int64)
        self.switch_hist = np.zeros((c, len(self.switch_edges) - 1), np.int64)
        self.sums = {
            name: np.zeros(c, dtype=np.float64)
            for name in ("played", "rebuffer", "switches", "bitrate_seconds")
        }

    # ------------------------------------------------------------------
    def record_arrivals(self, families: np.ndarray, admitted: int) -> None:
        """Account one tick's arrivals; entries past ``admitted`` were shed."""
        c = len(self.cohorts)
        self.counters["arrivals"] += np.bincount(families, minlength=c)
        if admitted < len(families):
            self.counters["shed"] += np.bincount(
                families[admitted:], minlength=c
            )

    def fold(
        self,
        families: np.ndarray,
        played: np.ndarray,
        rebuffer: np.ndarray,
        switches: np.ndarray,
        bitrate_seconds: np.ndarray,
        abandoned: np.ndarray,
    ) -> None:
        """Fold one chunk of finished sessions into the aggregates."""
        if len(families) == 0:
            return
        c = len(self.cohorts)
        self.counters["completed"] += np.bincount(
            families[~abandoned], minlength=c
        )
        self.counters["abandoned"] += np.bincount(
            families[abandoned], minlength=c
        )
        wall = played + rebuffer
        ratio = np.where(wall > 0, rebuffer / np.maximum(wall, 1e-12), 0.0)
        mean_bitrate = np.where(
            played > 0, bitrate_seconds / np.maximum(played, 1e-12), 0.0
        )
        switch_rate = np.where(
            played > 0, switches * 60.0 / np.maximum(played, 1e-12), 0.0
        )
        for ci in range(c):
            mask = families == ci
            if not mask.any():
                continue
            self.rebuf_hist[ci] += _histogram(self.rebuf_edges, ratio[mask])
            self.bitrate_hist[ci] += _histogram(
                self.bitrate_edges, mean_bitrate[mask]
            )
            self.switch_hist[ci] += _histogram(
                self.switch_edges, switch_rate[mask]
            )
            for ti, threshold in enumerate(self.slo_thresholds):
                self.slo_counts[ci, ti] += int(
                    np.count_nonzero(ratio[mask] <= threshold)
                )
            self.sums["played"][ci] += float(played[mask].sum())
            self.sums["rebuffer"][ci] += float(rebuffer[mask].sum())
            self.sums["switches"][ci] += float(switches[mask].sum())
            self.sums["bitrate_seconds"][ci] += float(
                bitrate_seconds[mask].sum()
            )

    def record_censored(self, families: np.ndarray) -> None:
        """Count sessions still active when the run ended (no QoE fold)."""
        if len(families):
            self.counters["censored"] += np.bincount(
                families, minlength=len(self.cohorts)
            )

    # ------------------------------------------------------------------
    def finished(self) -> int:
        return int(
            self.counters["completed"].sum() + self.counters["abandoned"].sum()
        )

    def slo_curve(self) -> Dict[str, float]:
        """Fleet rebuffer-SLO attainment at each threshold."""
        finished = self.finished()
        totals = self.slo_counts.sum(axis=0)
        return {
            f"{threshold:g}": (
                float(totals[i]) / finished if finished else 1.0
            )
            for i, threshold in enumerate(self.slo_thresholds)
        }

    def to_dict(self) -> Dict:
        """Deterministic fleet summary (the checkpoint-equal report body)."""
        out: Dict = {"cohorts": {}, "slo_curve": self.slo_curve()}
        slo_idx = self.slo_thresholds.index(self.rebuffer_slo)
        for ci, name in enumerate(self.cohorts):
            finished = int(
                self.counters["completed"][ci] + self.counters["abandoned"][ci]
            )
            wall = float(
                self.sums["played"][ci] + self.sums["rebuffer"][ci]
            )
            cohort = {
                key: int(self.counters[key][ci]) for key in self.counters
            }
            cohort["abandon_rate"] = (
                float(self.counters["abandoned"][ci]) / finished
                if finished else 0.0
            )
            cohort["shed_rate"] = (
                float(self.counters["shed"][ci])
                / max(int(self.counters["arrivals"][ci]), 1)
            )
            cohort["slo_attainment"] = (
                float(self.slo_counts[ci, slo_idx]) / finished
                if finished else 1.0
            )
            cohort["rebuffer_ratio_overall"] = (
                float(self.sums["rebuffer"][ci]) / wall if wall > 0 else 0.0
            )
            cohort["mean_bitrate"] = (
                float(self.sums["bitrate_seconds"][ci])
                / max(float(self.sums["played"][ci]), 1e-12)
                if self.sums["played"][ci] > 0 else 0.0
            )
            cohort["percentiles"] = {
                "rebuffer_ratio": {
                    f"p{int(q * 100)}": _hist_quantile(
                        self.rebuf_edges, self.rebuf_hist[ci], q
                    )
                    for q in (0.5, 0.9, 0.99)
                },
                "mean_bitrate": {
                    f"p{int(q * 100)}": _hist_quantile(
                        self.bitrate_edges, self.bitrate_hist[ci], q
                    )
                    for q in (0.1, 0.5, 0.9)
                },
                "switches_per_minute": {
                    f"p{int(q * 100)}": _hist_quantile(
                        self.switch_edges, self.switch_hist[ci], q
                    )
                    for q in (0.5, 0.9, 0.99)
                },
            }
            out["cohorts"][name] = cohort
        totals = {
            key: int(self.counters[key].sum()) for key in self.counters
        }
        finished = self.finished()
        totals["finished"] = finished
        totals["slo_attainment"] = (
            float(self.slo_counts[:, slo_idx].sum()) / finished
            if finished else 1.0
        )
        out["fleet"] = totals
        return out

    # ------------------------------------------------------------------
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Every mutable aggregate as named arrays, for checkpointing."""
        state = {
            "agg_slo_counts": self.slo_counts,
            "agg_rebuf_hist": self.rebuf_hist,
            "agg_bitrate_hist": self.bitrate_hist,
            "agg_switch_hist": self.switch_hist,
        }
        for key, arr in self.counters.items():
            state[f"agg_counter_{key}"] = arr
        for key, arr in self.sums.items():
            state[f"agg_sum_{key}"] = arr
        return state

    def restore_arrays(self, state: Dict[str, np.ndarray]) -> None:
        self.slo_counts = state["agg_slo_counts"].copy()
        self.rebuf_hist = state["agg_rebuf_hist"].copy()
        self.bitrate_hist = state["agg_bitrate_hist"].copy()
        self.switch_hist = state["agg_switch_hist"].copy()
        for key in self.counters:
            self.counters[key] = state[f"agg_counter_{key}"].copy()
        for key in self.sums:
            self.sums[key] = state[f"agg_sum_{key}"].copy()


# ----------------------------------------------------------------------
# decision backends
# ----------------------------------------------------------------------
class TableBackend:
    """Default backend: one shared ``DecisionTable`` answered in bulk.

    This is the FastMPC-style serving tier the sharded workers map; here
    it answers the whole active population in one
    :meth:`~repro.core.lookup.DecisionTable.lookup_batch` gather per tick.
    """

    name = "table"

    def __init__(
        self,
        ladder: BitrateLadder,
        max_buffer: float,
        table_points: int = 32,
        table=None,
    ) -> None:
        if table is None:
            from ..core.lookup import DecisionTable

            table = DecisionTable(
                ladder,
                max_buffer,
                throughput_points=max(table_points, 2),
                buffer_points=max(table_points, 2),
            )
        self.table = table

    def decide(
        self,
        throughputs: np.ndarray,
        buffers: np.ndarray,
        prev_rungs: np.ndarray,
        session_ids: Sequence[str],
        wall_time: float,
    ) -> np.ndarray:
        return self.table.lookup_batch(throughputs, buffers, prev_rungs)

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


class SolverBackend:
    """Exact tier-0 backend: cross-session batched horizon solves.

    Applies SODA's rules in the online order, exactly as
    :class:`~repro.core.lookup.DecisionTable` builds a cell: the
    first-step caps first; a row whose every plan overflows the buffer
    takes the closed-form answer with no solve; the rest of the active
    population goes through
    :func:`repro.core.fastpath.solve_sessions_batch` — one session-axis
    pass over every previous rung — with the caps in the solve, and
    ``SodaController._finalize`` adds the horizon-1 retry and the defer
    and top-rung fallbacks.  Each row's prediction is one float, the
    constant forecast ``decide`` builds, from the caps to ``_finalize``.
    A defer answers ``-1``, as
    :class:`TableBackend` does.  Every decision is what
    ``SodaController.decide`` returns for the row's state, making this the
    reference point for how much fleet QoE the table approximation costs.
    """

    name = "solver"

    def __init__(self, ladder: BitrateLadder, max_buffer: float) -> None:
        from ..core.controller import SodaController
        from ..core.objective import SodaConfig

        self.ladder = ladder
        self.max_buffer = float(max_buffer)
        self.config = SodaConfig(plan_cache=False)
        self._controller = SodaController(config=self.config)

    def decide(
        self,
        throughputs: np.ndarray,
        buffers: np.ndarray,
        prev_rungs: np.ndarray,
        session_ids: Sequence[str],
        wall_time: float,
    ) -> np.ndarray:
        from ..core.controller import _all_overflow, _overflow_rung
        from ..core.fastpath import SessionSolveRequest, solve_sessions_batch

        controller, cfg, ladder = self._controller, self.config, self.ladder
        max_buffer = self.max_buffer
        target = cfg.resolve_target(max_buffer)
        out = np.empty(len(throughputs), dtype=np.int64)
        rows, requests = [], []
        for i in range(len(throughputs)):
            omega = max(float(throughputs[i]), 1e-6)
            buffer_level = float(buffers[i])
            first_cap = controller._first_step_cap(
                omega, buffer_level, max_buffer, ladder, cfg
            )
            if _all_overflow(omega, buffer_level, ladder, max_buffer):
                decision = _overflow_rung(
                    buffer_level, target, first_cap, ladder
                )
                out[i] = -1 if decision is None else decision
                continue
            rows.append(i)
            requests.append(SessionSolveRequest(
                omega=omega,
                buffer_level=buffer_level,
                prev_quality=(
                    None if prev_rungs[i] < 0 else int(prev_rungs[i])
                ),
                ladder=ladder,
                cfg=cfg,
                max_buffer=max_buffer,
                first_cap=first_cap,
            ))
        plans = solve_sessions_batch(requests)
        for i, req, plan in zip(rows, requests, plans):
            decision = controller._finalize(
                plan, req.omega, req.buffer_level, req.prev_quality, ladder,
                max_buffer, req.first_cap,
            )
            out[i] = -1 if decision is None else decision
        return out

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


class ServiceBackend:
    """Live-service backend: decisions stream through a sharded fleet.

    Wraps :class:`repro.service.ShardedDecisionService` and feeds each
    tick's active population through ``decide_many`` (the columnar wire
    path), which turns a population run into a fleet-scale soak: worker
    SIGKILLs, fault storms, and flash crowds all land on the same run.
    Service answers are not bit-deterministic (timeouts, failovers), so
    serve mode refuses checkpoints.
    """

    name = "service"

    def __init__(self, service, ladder: BitrateLadder, max_buffer: float) -> None:
        self.service = service
        self.ladder = ladder
        self.max_buffer = float(max_buffer)
        self.failovers = 0
        self.latencies: List[float] = []
        self._health = None

    def decide(
        self,
        throughputs: np.ndarray,
        buffers: np.ndarray,
        prev_rungs: np.ndarray,
        session_ids: Sequence[str],
        wall_time: float,
    ) -> np.ndarray:
        from ..prediction.base import ThroughputSample
        from .player import PlayerObservation

        requests = []
        for i, sid in enumerate(session_ids):
            tput = float(throughputs[i])
            history = ()
            if tput > 0:
                history = (
                    ThroughputSample(
                        start=wall_time, duration=1.0, size=tput,
                        throughput=tput,
                    ),
                )
            prev = None if prev_rungs[i] < 0 else int(prev_rungs[i])
            requests.append((sid, PlayerObservation(
                wall_time=wall_time,
                segment_index=0,
                buffer_level=float(buffers[i]),
                max_buffer=self.max_buffer,
                previous_quality=prev,
                ladder=self.ladder,
                history=history,
            )))
        started = time.perf_counter()
        decisions = self.service.decide_many(requests)
        self.latencies.append(time.perf_counter() - started)
        out = np.empty(len(decisions), dtype=np.int64)
        for i, decision in enumerate(decisions):
            self.failovers += bool(decision.failover)
            out[i] = -1 if decision.deferred else int(decision.quality)
        return out

    def close(self) -> None:
        if self._health is None:
            self._health = self.service.close()

    @property
    def fleet_health(self):
        return self._health


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
@dataclass
class FleetReport:
    """Outcome of one population run.

    ``fleet`` is derived purely from checkpointed state, so an
    interrupted-and-resumed run reports a ``fleet`` dict *identical* to
    an uninterrupted one; wall-clock fields (``elapsed``) and the
    serve-mode ``service`` section are outside that contract.
    """

    fleet: Dict
    ticks: int
    decisions: int
    elapsed: float
    concurrency: Dict
    backend: str
    resumed_from_tick: int = 0
    service: Optional[Dict] = None

    def sessions_per_second(self) -> float:
        finished = self.fleet.get("fleet", {}).get("finished", 0)
        return finished / self.elapsed if self.elapsed > 0 else 0.0

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# the simulator
# ----------------------------------------------------------------------
class PopulationSim:
    """A vectorized population of coarse streaming sessions.

    Args:
        config: run parameters.
        ladder: encoding ladder every session uses (defaults to the
            production live ladder).
        backend: decision backend (defaults to a :class:`TableBackend`
            built from the config's grid size).
        cohorts: device-family mix (defaults to the Figure 13 families).
        checkpoint_path: when set, the full population state is
            checkpointed here every ``checkpoint_every`` ticks
            (atomic write-temp-fsync-rename).
        checkpoint_every: checkpoint cadence in ticks (``0`` disables).
        storms: explicit storm schedule; defaults to
            ``StormSchedule.generate`` from ``config.storm_intensity``.
    """

    def __init__(
        self,
        config: PopulationConfig,
        ladder: Optional[BitrateLadder] = None,
        backend=None,
        cohorts: Optional[Sequence[CohortSpec]] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 0,
        storms: Optional[StormSchedule] = None,
    ) -> None:
        self.config = config
        self.ladder = ladder or prime_video_live_ladder()
        self.cohorts = tuple(cohorts) if cohorts else default_cohorts()
        if not self.cohorts:
            raise ValueError("need at least one cohort")
        self.backend = backend or TableBackend(
            self.ladder, config.max_buffer, table_points=config.table_points
        )
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = int(checkpoint_every)
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        self.arrivals = ArrivalModel(config)
        if storms is not None:
            self.storms = storms
        elif config.storm_intensity > 0:
            self.storms = StormSchedule.generate(
                config.horizon_seconds,
                config.regions,
                config.cdns,
                intensity=config.storm_intensity,
                seed=config.seed,
            )
        else:
            self.storms = StormSchedule()

        weights = np.asarray([c.weight for c in self.cohorts], dtype=float)
        self._cohort_cum = np.cumsum(weights / weights.sum())
        self._cohort_mean = np.asarray(
            [c.mean_mbps for c in self.cohorts], dtype=float
        )
        # Stationary log-std matching each cohort's RSD, converted to the
        # AR(1) innovation scale: std_innov = std_log * sqrt(1 - a^2).
        std_log = np.sqrt(np.log1p(np.asarray(
            [c.rsd ** 2 for c in self.cohorts], dtype=float
        )))
        self._cohort_innov = std_log * math.sqrt(
            1.0 - config.ar_coefficient ** 2
        )
        self._bitrates = np.asarray(self.ladder.bitrates, dtype=float)

        from ..analysis.engagement import EngagementModel

        self.engagement = EngagementModel()

        capacity = config.capacity or self._auto_capacity()
        self.capacity = capacity
        self._rng = np.random.default_rng(config.seed)
        self.tick = 0
        self.decisions = 0
        self._session_serial = 0
        self._checkpoints_written = 0
        self.resumed_from_tick = 0

        z = np.zeros
        self.active = z(capacity, dtype=bool)
        self.family = z(capacity, dtype=np.int16)
        self.region = z(capacity, dtype=np.int16)
        self.cdn = z(capacity, dtype=np.int16)
        self.serial = z(capacity, dtype=np.int64)
        self.log_mean = z(capacity)
        self.log_tput = z(capacity)
        self.innov = z(capacity)
        self.buffer = z(capacity)
        self.rung = np.full(capacity, -1, dtype=np.int16)
        self.remaining = z(capacity)
        self.played = z(capacity)
        self.rebuffer = z(capacity)
        self.switches = z(capacity, dtype=np.int64)
        self.bitrate_seconds = z(capacity)
        self.concurrency = z(config.n_ticks, dtype=np.int64)

        self.agg = FleetAggregator(
            [c.name for c in self.cohorts],
            bitrate_cap=float(self._bitrates[-1]),
            rebuffer_slo=config.rebuffer_slo,
        )

    # ------------------------------------------------------------------
    def _auto_capacity(self) -> int:
        """Slab size from the peak arrival rate and mean watch length."""
        cfg = self.config
        peak_per_second = float(self.arrivals.expected.max()) / cfg.tick_seconds
        peak_per_second *= max(
            (e.magnitude for e in self.storms.events
             if e.kind.value == "flash-crowd"),
            default=1.0,
        ) if hasattr(self, "storms") else 1.0
        mean_watch = 0.22 * cfg.content_minutes * 60.0
        return max(1024, int(1.6 * peak_per_second * mean_watch))

    def config_hash(self) -> str:
        from ..runner.journal import config_hash

        return config_hash(self.config.spec_dict(self.cohorts))

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the whole population by one tick.

        Draw order is fixed — arrivals, arrival attributes, throughput
        innovations, abandonment uniforms — and every draw size depends
        only on checkpointed state, which is what makes the stream (and
        therefore the whole run) bit-reproducible across a resume.
        """
        cfg = self.config
        dt = cfg.tick_seconds
        t = self.tick * dt

        expected = float(self.arrivals.expected[self.tick])
        expected *= self.storms.arrival_factor(t)
        arriving = int(self._rng.poisson(expected))
        if arriving:
            self._admit(arriving)

        # AR(1) log-throughput walk over the whole slab: inactive slots
        # evolve harmlessly, keeping the draw branch-free and fixed-size.
        noise = self._rng.standard_normal(self.capacity)
        self.log_tput += (
            (cfg.ar_coefficient - 1.0) * (self.log_tput - self.log_mean)
            + self.innov * noise
        )
        abandon_u = self._rng.random(self.capacity)

        idx = np.flatnonzero(self.active)
        self.concurrency[self.tick] = idx.size
        if idx.size == 0:
            self.tick += 1
            return

        tput = np.exp(self.log_tput[idx])
        factors = self.storms.throughput_factors(
            t, self.region[idx], self.cdn[idx]
        )
        if factors is not None:
            tput = tput * factors

        prev = self.rung[idx].astype(np.int64)
        rungs = np.asarray(self.backend.decide(
            tput, self.buffer[idx], prev,
            self._session_ids(idx), t,
        ), dtype=np.int64)
        self.decisions += idx.size

        # Coarse dynamics: a session downloading rung r gains
        # tput/bitrate[r] seconds of video per wall second, plays out of
        # the buffer, and rebuffers for whatever the buffer cannot cover.
        safe_rung = np.clip(rungs, 0, None)
        download = np.where(
            rungs >= 0, tput / self._bitrates[safe_rung], 0.0
        )
        buf = self.buffer[idx] + download * dt
        play = np.minimum(buf, dt)
        buf = np.minimum(buf - play, cfg.max_buffer)
        rebuf_tick = dt - play

        switched = (rungs >= 0) & (prev >= 0) & (rungs != prev)
        new_rung = np.where(rungs >= 0, rungs, prev)
        held = np.clip(new_rung, 0, None)
        self.switches[idx] += switched
        self.rung[idx] = new_rung.astype(np.int16)
        self.buffer[idx] = buf
        self.played[idx] += play
        self.rebuffer[idx] += rebuf_tick
        self.bitrate_seconds[idx] += np.where(
            new_rung >= 0, self._bitrates[held], 0.0
        ) * play
        self.remaining[idx] -= play

        # Engagement-driven abandonment: QoE debt this tick (a switch, a
        # rebuffered fraction) becomes a proportional leave hazard using
        # the Figure 1 / [7] sensitivities of the engagement model.
        base_seconds = self.engagement.base_minutes * 60.0
        hazard = cfg.abandon_scale * dt / base_seconds * (
            self.engagement.switch_sensitivity * switched
            + self.engagement.rebuffer_sensitivity * (rebuf_tick / dt)
        )
        leave = abandon_u[idx] < -np.expm1(-hazard)
        finished = self.remaining[idx] <= 1e-9
        done = leave | finished
        if done.any():
            done_idx = idx[done]
            self.agg.fold(
                self.family[done_idx].astype(np.int64),
                self.played[done_idx],
                self.rebuffer[done_idx],
                self.switches[done_idx].astype(np.float64),
                self.bitrate_seconds[done_idx],
                abandoned=(leave & ~finished)[done],
            )
            self.active[done_idx] = False
        self.tick += 1

    def _admit(self, arriving: int) -> None:
        """Admit up to ``arriving`` new sessions; overflow is shed.

        Attribute draws cover *all* arrivals (shed included) so the RNG
        stream depends only on the arrival count, never on how full the
        slab happened to be.
        """
        cfg = self.config
        rng = self._rng
        fam = np.searchsorted(
            self._cohort_cum, rng.random(arriving), side="right"
        ).astype(np.int64)
        fam = np.minimum(fam, len(self.cohorts) - 1)
        region = rng.integers(0, cfg.regions, size=arriving)
        cdn = rng.integers(0, cfg.cdns, size=arriving)
        spread = rng.normal(0.0, 0.3, size=arriving)
        mean_mbps = self._cohort_mean[fam] * np.exp(spread - 0.045)
        watch_fraction = self.engagement.sample_watch_fractions(
            np.zeros(arriving), noise=cfg.engagement_noise, rng=rng
        )
        intended = watch_fraction * cfg.content_minutes * 60.0

        free = np.flatnonzero(~self.active)
        admitted = min(arriving, free.size)
        self.agg.record_arrivals(fam, admitted)
        if admitted == 0:
            return
        slots = free[:admitted]
        self.active[slots] = True
        self.family[slots] = fam[:admitted]
        self.region[slots] = region[:admitted]
        self.cdn[slots] = cdn[:admitted]
        self.serial[slots] = self._session_serial + np.arange(admitted)
        self._session_serial += admitted
        self.log_mean[slots] = np.log(mean_mbps[:admitted])
        self.log_tput[slots] = self.log_mean[slots]
        self.innov[slots] = self._cohort_innov[fam[:admitted]]
        self.buffer[slots] = 0.0
        self.rung[slots] = -1
        self.remaining[slots] = intended[:admitted]
        self.played[slots] = 0.0
        self.rebuffer[slots] = 0.0
        self.switches[slots] = 0
        self.bitrate_seconds[slots] = 0.0

    def _session_ids(self, idx: np.ndarray) -> List[str]:
        """Stable ids for the service backend (slot + reuse generation)."""
        if not isinstance(self.backend, ServiceBackend):
            return []
        serial = self.serial
        return [f"s{i}g{serial[i]}" for i in idx]

    # ------------------------------------------------------------------
    # run / finalize
    # ------------------------------------------------------------------
    def run(
        self,
        progress: Optional[Callable[[str], None]] = None,
        until: Optional[int] = None,
        on_tick: Optional[Callable[[int], None]] = None,
    ) -> Optional[FleetReport]:
        """Step to ``until`` (or the end) and return the report.

        Returns ``None`` when stopped early by ``until`` — the run is
        only finalized (censoring, report) at its true end, so partial
        legs compose with checkpoint/resume.
        """
        cfg = self.config
        stop = cfg.n_ticks if until is None else min(until, cfg.n_ticks)
        started = time.perf_counter()
        report_every = max(stop // 10, 1)
        while self.tick < stop:
            self.step()
            if on_tick is not None:
                on_tick(self.tick)
            if (
                self.checkpoint_every
                and self.checkpoint_path
                and self.tick % self.checkpoint_every == 0
                and self.tick < cfg.n_ticks
            ):
                self.save_checkpoint()
            if progress is not None and self.tick % report_every == 0:
                progress(
                    f"tick {self.tick}/{cfg.n_ticks} "
                    f"active={int(self.active.sum())} "
                    f"finished={self.agg.finished()}"
                )
        if self.tick < cfg.n_ticks:
            return None
        return self._finalize(time.perf_counter() - started)

    def _finalize(self, elapsed: float) -> FleetReport:
        from ..qoe.aggregate import DistributionSummary

        live = np.flatnonzero(self.active)
        if live.size:
            self.agg.record_censored(self.family[live].astype(np.int64))
            self.active[live] = False
        concurrency = DistributionSummary.of_array(
            self.concurrency.astype(float)
        )
        service_section: Optional[Dict] = None
        if isinstance(self.backend, ServiceBackend):
            self.backend.close()
            health = self.backend.fleet_health
            latency = (
                DistributionSummary.of_array(np.asarray(self.backend.latencies))
                if self.backend.latencies else None
            )
            service_section = {
                "failovers": self.backend.failovers,
                "fleet_health": json.loads(health.to_json())
                if health is not None else None,
                "batch_latency": dataclasses.asdict(latency)
                if latency is not None else None,
            }
        return FleetReport(
            fleet=self.agg.to_dict(),
            ticks=self.tick,
            decisions=self.decisions,
            elapsed=elapsed,
            concurrency=dataclasses.asdict(concurrency),
            backend=getattr(self.backend, "name", "custom"),
            resumed_from_tick=self.resumed_from_tick,
            service=service_section,
        )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def save_checkpoint(self) -> None:
        """Atomically write the full population state.

        Same discipline as the run journal: the ``.npz`` is written to a
        temporary sibling, fsynced, and renamed over the target — a
        SIGKILL at any instant leaves either the previous checkpoint or
        the new one, never a torn file.  Honors ``REPRO_POP_KILL_AFTER``.
        """
        if not self.checkpoint_path:
            raise ValueError("no checkpoint_path configured")
        meta = json.dumps({
            "version": _CKPT_VERSION,
            "config_hash": self.config_hash(),
            "tick": self.tick,
            "decisions": self.decisions,
            "session_serial": self._session_serial,
            "rng_state": self._rng.bit_generator.state,
        })
        arrays: Dict[str, np.ndarray] = {
            "meta": np.asarray(meta),
            "active": self.active,
            "family": self.family,
            "region": self.region,
            "cdn": self.cdn,
            "serial": self.serial,
            "log_mean": self.log_mean,
            "log_tput": self.log_tput,
            "innov": self.innov,
            "buffer": self.buffer,
            "rung": self.rung,
            "remaining": self.remaining,
            "played": self.played,
            "rebuffer": self.rebuffer,
            "switches": self.switches,
            "bitrate_seconds": self.bitrate_seconds,
            "concurrency": self.concurrency,
        }
        arrays.update(self.agg.state_arrays())
        directory = os.path.dirname(os.path.abspath(self.checkpoint_path)) or "."
        tmp = os.path.join(
            directory,
            f".{os.path.basename(self.checkpoint_path)}.{os.getpid()}.tmp",
        )
        try:
            with open(tmp, "wb") as handle:
                np.savez(handle, **arrays)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.checkpoint_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        self._checkpoints_written += 1
        self._maybe_kill()

    def _maybe_kill(self) -> None:
        """Honor the REPRO_POP_KILL_AFTER crash-test hook."""
        raw = os.environ.get(_KILL_ENV, "")
        try:
            threshold = int(raw) if raw else 0
        except ValueError:
            threshold = 0
        if threshold > 0 and self._checkpoints_written >= threshold:
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover

    @classmethod
    def resume(
        cls,
        checkpoint_path: str,
        config: PopulationConfig,
        ladder: Optional[BitrateLadder] = None,
        backend=None,
        cohorts: Optional[Sequence[CohortSpec]] = None,
        checkpoint_every: int = 0,
        storms: Optional[StormSchedule] = None,
    ) -> "PopulationSim":
        """Rebuild a simulator from its last checkpoint.

        The checkpoint's config hash must match ``config`` (the arrival
        plan and storm schedule are *regenerated* from it, so a changed
        config would silently diverge) — a mismatch raises
        :class:`repro.runner.journal.ConfigMismatchError`.
        """
        from ..runner.journal import ConfigMismatchError, JournalError

        sim = cls(
            config, ladder=ladder, backend=backend, cohorts=cohorts,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every, storms=storms,
        )
        try:
            with np.load(checkpoint_path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"][()]))
                if int(meta.get("version", -1)) != _CKPT_VERSION:
                    raise JournalError(
                        f"{checkpoint_path}: unsupported checkpoint version"
                    )
                if meta["config_hash"] != sim.config_hash():
                    raise ConfigMismatchError(
                        f"{checkpoint_path}: checkpoint was written under "
                        f"config {meta['config_hash']}, current config is "
                        f"{sim.config_hash()}; refusing to resume"
                    )
                loaded = {key: data[key] for key in data.files}
        except (OSError, ValueError, KeyError) as exc:
            if isinstance(exc, (ConfigMismatchError, JournalError)):
                raise
            raise JournalError(
                f"{checkpoint_path}: unusable population checkpoint ({exc})"
            ) from exc
        if len(loaded["active"]) != sim.capacity:
            # capacity is derived from config, so this only triggers on a
            # hand-tampered file; refuse rather than mis-map slots.
            raise JournalError(
                f"{checkpoint_path}: checkpoint capacity "
                f"{len(loaded['active'])} does not match {sim.capacity}"
            )
        sim.tick = int(meta["tick"])
        sim.decisions = int(meta["decisions"])
        sim._session_serial = int(meta["session_serial"])
        sim.resumed_from_tick = sim.tick
        rng = np.random.default_rng()
        rng.bit_generator.state = meta["rng_state"]
        sim._rng = rng
        for name in (
            "active", "family", "region", "cdn", "serial", "log_mean",
            "log_tput", "innov", "buffer", "rung", "remaining", "played",
            "rebuffer", "switches", "bitrate_seconds", "concurrency",
        ):
            setattr(sim, name, loaded[name].copy())
        sim.agg.restore_arrays(loaded)
        return sim
