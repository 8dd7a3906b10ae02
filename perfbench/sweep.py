"""``sweep``: the paper's evaluation loop, closed loop on one thread.

SODA (``standard_controllers()["soda"]``: EMA predictor, fast backend) runs
over fresh puffer/5g/4g synthetic traces with their live profiles through
``run_suite(jobs=1)``, one round of every dataset after another, until the
run's seconds are spent.  The player, predictor, S=1 kernel, plan cache,
QoE scoring and audit do the work; the service, shard and table layers are
idle.
"""

from __future__ import annotations

import statistics
import time
from array import array
from typing import Dict, List, Optional

import numpy as np

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
from tracing import SpanSet, Tracer, patched

DATASETS = ("puffer", "5g", "4g")
SESSION_SECONDS = 480.0
TRACES_PER_SUITE = 4
#: the fixed probe whose digest golden.json records
GOLDEN_SEED = 20240801
GOLDEN_SECONDS = 120.0


def _traces(name: str, count: int, seconds: float, seed: int):
    from repro.traces import DATASET_FACTORIES

    return DATASET_FACTORIES[name]().dataset(count, seconds, seed=seed)


def _profiles(seconds: float) -> Dict[str, object]:
    from repro.sim.profiles import live_profile

    return {
        name: live_profile(session_seconds=seconds, cellular=name != "puffer")
        for name in DATASETS
    }


class _Suites:
    """Runs suites while capturing each session's rung sequence."""

    def __init__(self) -> None:
        import repro.analysis.harness as harness

        self.harness = harness
        self._rungs: List[List[int]] = []
        original = harness.run_session

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            self._rungs.append(list(result.qualities))
            return result

        self._capture = capture

    def run(self, controllers, traces, profile, name):
        """``(suite, rung sequences)``; the suite is ``None`` if it raised."""
        self._rungs = []
        with patched(self.harness, "run_session", self._capture):
            try:
                suite = self.harness.run_suite(
                    controllers, traces, profile, name, jobs=1
                )
            except Exception:
                suite = None
        return suite, self._rungs


def _rows(name: str, traces, suite, rungs) -> List[dict]:
    from repro.runner import metrics_to_dict

    metrics = suite.per_controller["soda"]
    return [
        {
            "dataset": name,
            "trace": trace.name,
            "qoe": metrics_to_dict(m),
            "rungs": r,
        }
        for trace, m, r in zip(traces, metrics, rungs)
    ]


def golden_rows() -> List[dict]:
    """The fixed probe: one short trace per dataset, checked by digest."""
    from repro.analysis.harness import standard_controllers

    controllers = {"soda": standard_controllers()["soda"]}
    profiles = _profiles(GOLDEN_SECONDS)
    suites = _Suites()
    rows: List[dict] = []
    for i, name in enumerate(DATASETS):
        traces = _traces(name, 1, GOLDEN_SECONDS, seed_for(GOLDEN_SEED, i))
        suite, rungs = suites.run(controllers, traces, profiles[name], name)
        if suite is None:
            return []
        rows.extend(_rows(name, traces, suite, rungs))
    return rows


def run_pass(seed: int, seconds: float, tracer: Optional[Tracer], full: bool) -> Outcome:
    """One pass of ``sweep``; ``full`` times several cold set-ups."""
    from repro.analysis.harness import standard_controllers
    from repro.core.controller import SodaController

    out = Outcome()
    warm = {
        name: _traces(name, 1, SESSION_SECONDS, seed_for(seed, 1_000_000, i))
        for i, name in enumerate(DATASETS)
    }

    def setup():
        """Controllers and profiles, then one warm-up session per dataset."""
        controllers = {"soda": standard_controllers()["soda"]}
        profiles = _profiles(SESSION_SECONDS)
        suites = _Suites()
        for name in DATASETS:
            suites.run(controllers, warm[name], profiles[name], name)
        return controllers, profiles

    setup_s, (controllers, profiles) = cold_setups(
        setup, lambda state: None, SETUP_REPEATS if full else 1
    )

    suites = _Suites()
    latencies = array("q")  # ns per decision; compact, so memory tracks the program
    clock_ns = time.perf_counter_ns
    original_select = SodaController.select_quality

    def timed_select(controller, obs):
        started = clock_ns()
        answer = original_select(controller, obs)
        latencies.append(clock_ns() - started)
        return answer

    first_round: List[dict] = []  # rows digested for cross-commit comparison
    #: per round: (decisions made, seconds the round's suites took)
    rounds: List[tuple] = []
    sessions = failed = 0
    levels_ok = True
    elapsed = 0.0
    window_lo = clock_ns()
    with timed_phase(), patched(SodaController, "select_quality", timed_select):
        while elapsed < seconds:
            # inputs for the round, generated off the clock
            batch = [
                (name, _traces(name, TRACES_PER_SUITE, SESSION_SECONDS,
                               seed_for(seed, len(rounds), i)))
                for i, name in enumerate(DATASETS)
            ]
            first = len(latencies)
            round_seconds = 0.0
            for name, traces in batch:
                started = time.perf_counter()
                suite, rungs = suites.run(controllers, traces, profiles[name], name)
                round_seconds += time.perf_counter() - started
                sessions += len(traces)
                if suite is None:
                    failed += len(traces)
                    continue
                failed += suite.failure_count + suite.flagged_count
                levels = profiles[name].ladder.levels
                levels_ok &= all(0 <= q < levels for seq in rungs for q in seq)
                if not rounds:
                    first_round.extend(_rows(name, traces, suite, rungs))
            elapsed += round_seconds
            rounds.append((len(latencies) - first, round_seconds))
    window_hi = clock_ns()

    out.attempted, out.failed = sessions, failed
    out.metrics = {
        "setup_s": setup_s,
        **ms_percentiles(np.frombuffer(latencies, dtype=np.int64) / 1e9),
        # the median round, so a stall moves one round, not the figure
        "decisions_per_s": statistics.median(n / t for n, t in rounds),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.extra = {
        "sessions_per_s": (sessions / elapsed, "sessions/s"),
        "fail_share": (share(failed, sessions), "fraction"),
    }
    out.notes.append(
        f"{sessions} sessions, {len(latencies)} decisions in {elapsed:.2f} s; "
        f"first-round digest {digest(first_round)[:16]}"
    )
    out.check(levels_ok, "sweep: a committed rung is outside the ladder")
    probe = golden_rows()
    out.check(
        bool(probe) and digest(probe) == load_golden("sweep"),
        "sweep: golden probe digest differs from the one recorded in golden.json",
    )

    if tracer is not None:
        from layers import layer_metrics, roots_between, waterfall

        spans = SpanSet(tracer.export())
        out.layers = layer_metrics(spans, (window_lo, window_hi), {}, {})
        roots = roots_between(spans, ["runner.suite"], window_lo, window_hi)
        out.waterfall, out.layers["waterfall.closure"] = waterfall(
            spans, roots, 0.0, elapsed
        )
        out.layers["trace.spans"] = float(len(spans.spans))
        out.spans = spans
    return out
