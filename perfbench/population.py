"""``population``: the fleet simulator, closed loop on one thread.

``PopulationSim`` with its default ``TableBackend`` (a 32x32 table over the
10-rung live ladder) and fault storms on runs complete populations back to
back until the run's seconds are spent; the set-up's table is shared by the
runs after the first.  The population sizing peaks near 25k active sessions
per tick, so ``sim.population``, ``faults.storm`` and ``lookup_batch`` do the
work; the player, controller and service layers are idle.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional

from common import (
    SETUP_REPEATS,
    Outcome,
    cold_setups,
    digest,
    load_golden,
    ms_percentiles,
    peak_rss_mb,
    seed_for,
    share,
    timed_phase,
)
from tracing import SpanSet, Tracer

#: one population run: 450 ticks of 4 s, peaking near 25k sessions per tick,
#: on a fixed slab so per-tick work does not follow the arrival bursts
POPULATION = dict(sessions=100_000, duration_hours=0.5, tick_seconds=4.0,
                  content_minutes=20.0, storm_intensity=1.0, capacity=65_536)
#: The storm scenario is fixed (seed 0 draws a CDN outage and a regional
#: collapse); ``--seed`` varies arrivals, cohorts and throughput walks.  A
#: seeded scenario would swing per-run work twofold whenever it drew a
#: flash-crowd storm that fills the slab.
STORM_SEED = 0
#: the fixed probe whose digest golden.json records
GOLDEN = dict(sessions=10_000, duration_hours=0.25, tick_seconds=4.0,
              content_minutes=20.0, storm_intensity=1.0, seed=20240801)


def _config(**fields):
    from repro.sim.population import PopulationConfig

    return PopulationConfig(**fields)


def _consistent(sim, report) -> bool:
    """Every arrival is shed, finished or censored; every active session
    of every tick got exactly one decision."""
    fleet = report.fleet["fleet"]
    accounted = fleet["shed"] + fleet["finished"] + fleet["censored"]
    return (
        fleet["arrivals"] == accounted
        and report.decisions == int(sim.concurrency.sum())
        and report.ticks == sim.config.n_ticks
    )


def run_pass(seed: int, seconds: float, tracer: Optional[Tracer], full: bool) -> Outcome:
    """One pass of ``population``; ``full`` times several cold set-ups."""
    from repro.faults.storm import StormSchedule
    from repro.sim.population import PopulationSim

    out = Outcome()
    config = _config(**POPULATION, seed=seed_for(seed, 0))
    storms = StormSchedule.generate(
        config.horizon_seconds, config.regions, config.cdns,
        intensity=config.storm_intensity, seed=STORM_SEED,
    )
    setup_s, first = cold_setups(
        lambda: PopulationSim(config, storms=storms), lambda sim: None,
        SETUP_REPEATS if full else 1,
    )
    backend = first.backend

    ticks: List[float] = []
    run_rates: List[float] = []
    rows = finished = runs = 0
    consistent = True
    digests = []
    elapsed = 0.0
    window_lo = time.perf_counter_ns()
    with timed_phase():
        sim = first
        while elapsed < seconds:
            started = time.perf_counter()
            if sim is None:
                config = _config(**POPULATION, seed=seed_for(seed, runs))
                sim = PopulationSim(config, backend=backend, storms=storms)
            last = [time.perf_counter()]

            def on_tick(_tick: int) -> None:
                now = time.perf_counter()
                ticks.append(now - last[0])
                last[0] = now

            report = sim.run(on_tick=on_tick)
            run_seconds = time.perf_counter() - started
            elapsed += run_seconds
            run_rates.append(report.decisions / run_seconds)
            runs += 1
            rows += report.decisions
            finished += report.fleet["fleet"]["finished"]
            consistent &= _consistent(sim, report)
            digests.append(digest(report.fleet)[:12])
            sim = None
    window_hi = time.perf_counter_ns()

    out.attempted, out.failed = len(ticks), 0
    out.metrics = {
        "setup_s": setup_s,
        **ms_percentiles(ticks),
        # the median run, so a stall moves one run, not the figure
        "decisions_per_s": statistics.median(run_rates),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.extra = {
        "sessions_per_s": (finished / elapsed, "sessions/s"),
        "fail_share": (share(out.failed, out.attempted), "fraction"),
    }
    out.notes.append(
        f"{runs} runs, {len(ticks)} ticks, {rows} decisions, {finished} "
        f"sessions finished in {elapsed:.2f} s; fleet digests {' '.join(digests)}"
    )
    out.check(consistent, "population: a run's report does not account for "
                          "every arrival and every active session-tick")
    golden_sim = PopulationSim(_config(**GOLDEN), backend=backend)
    out.check(
        digest(golden_sim.run().fleet) == load_golden("population"),
        "population: golden probe digest differs from the one recorded in golden.json",
    )

    if tracer is not None:
        from layers import layer_metrics, roots_between, waterfall

        spans = SpanSet(tracer.export())
        out.layers = layer_metrics(spans, (window_lo, window_hi), {}, {})
        roots = roots_between(
            spans, ["sim.population.run", "sim.population.init"],
            window_lo, window_hi,
        )
        out.waterfall, out.layers["waterfall.closure"] = waterfall(
            spans, roots, 0.0, elapsed
        )
        out.layers["trace.spans"] = float(len(spans.spans))
        out.spans = spans
    return out
