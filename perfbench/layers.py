"""Which entry points each layer is traced at, and its per-layer metrics.

Every span name maps to the layer it measures (``LAYER_OF``).  ``install``
patches the entry points; ``layer_metrics`` reduces the spans of a traced
pass to the per-layer metrics BENCHMARK.json lists (``PER_LAYER``); a layer
a workload never calls reports ``0``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from tracing import END, NAME, PARENT, SIZE, START, SpanSet, Tracer, traced_worker_main

#: per-layer metric → unit, in BENCHMARK.json order
PER_LAYER = {
    "sim.player.self_us_per_segment": "us",
    "sim.player.asks_per_segment": "ratio",
    "sim.network.download_us": "us",
    "prediction.predict_us": "us",
    "prediction.update_us": "us",
    "core.controller.self_us": "us",
    "core.controller.decisions": "count",
    "core.fastpath.solve_us": "us",
    "core.fastpath.solves_per_decision": "ratio",
    "core.fastpath.h1_retry_ratio": "ratio",
    "core.fastpath.candidates_per_solve": "count",
    "core.fastpath.batch_sessions": "count",
    "core.fastpath.batch_us_per_session": "us",
    "core.fastpath.cache_hit_ratio": "ratio",
    "core.fastpath.cache_key_us": "us",
    "core.lookup.build_s": "s",
    "core.lookup.gather_ns_per_row": "ns",
    "service.columns_us_per_row": "us",
    "service.tier0": "count",
    "service.tier1": "count",
    "service.tier2": "count",
    "service.shed": "count",
    "service.overruns": "count",
    "service.sessions_created": "count",
    "service.sessions_evicted": "count",
    "service.batch_occupancy": "count",
    "service.shard.batch_overhead_ms": "ms",
    "service.shard.failovers": "count",
    "service.shard.restarts": "count",
    "sim.population.step_self_ms": "ms",
    "sim.population.decide_ms": "ms",
    "sim.population.rows_per_tick": "count",
    "qoe.score_us_per_session": "us",
    "runner.audit.us_per_session": "us",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.sent_rate": "1/s",
    "waterfall.closure": "ratio",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}

#: span name → layer it is charged to in the waterfall
LAYER_OF = {
    "loadgen.batch": "loadgen",
    "runner.suite": "runner",
    "runner.audit": "runner.audit",
    "qoe.score": "qoe",
    "sim.player": "sim.player",
    "sim.network.download": "sim.network",
    "sim.network.bits": "sim.network",
    "prediction.predict": "prediction",
    "prediction.update": "prediction",
    "core.controller.decide": "core.controller",
    "core.controller.batch": "core.controller",
    "core.fastpath.solve": "core.fastpath",
    "core.fastpath.batch": "core.fastpath",
    "core.fastpath.cache_key": "core.fastpath.PlanCache",
    "core.fastpath.cache_get": "core.fastpath.PlanCache",
    "core.lookup.build": "core.lookup",
    "core.lookup.gather": "core.lookup",
    "core.lookup.lookup": "core.lookup",
    "service.decide_columns": "service",
    "service.shard.decide_many": "service.shard",
    "sim.population.init": "sim.population",
    "sim.population.run": "sim.population",
    "sim.population.step": "sim.population",
    "sim.population.decide": "sim.population",
    "sim.population.fold": "sim.population",
    "faults.storm": "faults.storm",
}


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, name)


def _length(position: int):
    return lambda args, kwargs, result: len(args[position])


def install(tracer: Tracer) -> None:
    """Patch every traced entry point; ``tracer.restore()`` undoes it.

    Must run before a shard fleet forks, so workers inherit the wrappers.
    """
    import repro.analysis.harness as harness
    import repro.core.controller as controller
    import repro.service.service as service_module
    import repro.service.shard as shard
    import repro.sim.session as session
    from repro.core.fastpath import PlanCache
    from repro.core.lookup import DecisionTable
    from repro.faults.storm import StormSchedule
    from repro.prediction.ema import EmaPredictor
    from repro.prediction.moving_average import SlidingWindowPredictor
    from repro.service import DecisionService, ShardedDecisionService
    from repro.sim.network import ThroughputTrace
    from repro.sim.population import FleetAggregator, PopulationSim, TableBackend

    patch = tracer.patch
    # runner / qoe: names run_suite's session thunk calls through
    patch(harness, "run_suite", "runner.suite")
    patch(harness, "qoe_from_session", "qoe.score")
    patch(harness, "audit_session", "runner.audit")
    # player and network
    patch(session, "simulate_session", "sim.player",
          lambda a, k, r: 0 if r is None else r.num_segments)
    patch(ThroughputTrace, "download_time", "sim.network.download")
    patch(ThroughputTrace, "bits_between", "sim.network.bits")
    # predictors of the sweep (EMA) and of the service (sliding window)
    for cls in (EmaPredictor, SlidingWindowPredictor):
        patch(cls, "predict", "prediction.predict")
        patch(cls, "update", "prediction.update")
    # controller: single decisions and the service's batched tier 0
    patch(controller.SodaController, "select_quality", "core.controller.decide")
    patch(service_module, "select_quality_batch", "core.controller.batch",
          _length(0))
    # fastpath: the S=1 kernel as the controller binds it, the session
    # axis, and the plan cache (a length-1 key is a horizon-1 re-solve)
    patch(controller._SOLVERS, ("fast", False), "core.fastpath.solve",
          lambda a, k, r: 0 if r is None else r.evaluations)
    patch(controller, "solve_sessions_batch", "core.fastpath.batch", _length(0))
    patch(PlanCache, "key", "core.fastpath.cache_key",
          lambda a, k, r: 1 if isinstance(a[1], float) else len(a[1]))
    patch(PlanCache, "get", "core.fastpath.cache_get",
          lambda a, k, r: int(r is not None))
    # decision table
    patch(DecisionTable, "__init__", "core.lookup.build")
    patch(DecisionTable, "lookup_batch", "core.lookup.gather", _length(1))
    patch(DecisionTable, "lookup_observation", "core.lookup.lookup")
    # service and its shard front end
    patch(DecisionService, "decide_columns", "service.decide_columns", _length(1))
    patch(ShardedDecisionService, "decide_many", "service.shard.decide_many",
          _length(1))
    tracer.replace(shard, "_worker_main",
                   traced_worker_main(tracer, shard._worker_main))
    # population and fault storms
    patch(PopulationSim, "__init__", "sim.population.init")
    patch(PopulationSim, "run", "sim.population.run")
    patch(PopulationSim, "step", "sim.population.step",
          lambda a, k, r: int(a[0].concurrency[a[0].tick - 1]))
    patch(TableBackend, "decide", "sim.population.decide", _length(1))
    patch(FleetAggregator, "fold", "sim.population.fold")
    patch(StormSchedule, "arrival_factor", "faults.storm")
    patch(StormSchedule, "throughput_factors", "faults.storm")


# ----------------------------------------------------------------------
class _Stat:
    __slots__ = ("count", "total", "self_total", "size")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.self_total = 0
        self.size = 0

    def mean_us(self) -> float:
        return self.total / self.count / 1e3 if self.count else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: SpanSet,
    window: Tuple[int, int],
    counters: Dict[str, float],
    loadgen: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics from the spans that started inside ``window``
    (nanoseconds); ``core.lookup.build_s`` counts every table build, which
    happens in set-up.  ``counters`` carries the service's own tier and
    session counters over the window, ``loadgen`` the generator's figures.
    """
    lo, hi = window
    stats: Dict[str, _Stat] = defaultdict(_Stat)
    builds: List[int] = []
    batch_overheads: List[int] = []
    h1 = 0  # plan-cache keys over a one-step prediction: horizon-1 re-solves
    for i, span in enumerate(spans.spans):
        name = span[NAME]
        if name == "core.lookup.build":
            builds.append(span[END] - span[START])
            continue
        if not lo <= span[START] <= hi:
            continue
        st = stats[name]
        st.count += 1
        st.total += span[END] - span[START]
        st.self_total += spans.self_time(i)
        st.size += span[SIZE]
        if name == "core.fastpath.cache_key" and span[SIZE] == 1:
            h1 += 1
        elif name == "service.shard.decide_many":
            kids = spans.children[i]
            if kids:
                slowest = max(spans.duration(c) for c in kids)
                batch_overheads.append(spans.duration(i) - slowest)

    s = stats.__getitem__
    player, decide, batch = s("sim.player"), s("core.controller.decide"), s("core.controller.batch")
    decisions = decide.count + batch.size
    solve, fbatch = s("core.fastpath.solve"), s("core.fastpath.batch")
    key, get = s("core.fastpath.cache_key"), s("core.fastpath.cache_get")
    gather = s("core.lookup.gather")
    columns = s("service.decide_columns")
    step, pop_decide = s("sim.population.step"), s("sim.population.decide")
    return {
        "sim.player.self_us_per_segment": _ratio(player.self_total / 1e3, player.size),
        "sim.player.asks_per_segment": _ratio(decide.count, player.size),
        "sim.network.download_us": s("sim.network.download").mean_us(),
        "prediction.predict_us": s("prediction.predict").mean_us(),
        "prediction.update_us": s("prediction.update").mean_us(),
        "core.controller.self_us": _ratio((decide.self_total + batch.self_total) / 1e3, decisions),
        "core.controller.decisions": float(decisions),
        "core.fastpath.solve_us": solve.mean_us(),
        "core.fastpath.solves_per_decision": _ratio(solve.count, decisions),
        "core.fastpath.h1_retry_ratio": _ratio(h1, decisions),
        "core.fastpath.candidates_per_solve": _ratio(solve.size, solve.count),
        "core.fastpath.batch_sessions": _ratio(fbatch.size, fbatch.count),
        "core.fastpath.batch_us_per_session": _ratio(fbatch.total / 1e3, fbatch.size),
        "core.fastpath.cache_hit_ratio": _ratio(get.size, get.count),
        "core.fastpath.cache_key_us": key.mean_us(),
        "core.lookup.build_s": float(np.mean(builds)) / 1e9 if builds else 0.0,
        "core.lookup.gather_ns_per_row": _ratio(gather.total, gather.size),
        "service.columns_us_per_row": _ratio(columns.total / 1e3, columns.size),
        "service.tier0": counters.get("tier0_decisions", 0.0),
        "service.tier1": counters.get("tier1_decisions", 0.0),
        "service.tier2": counters.get("tier2_decisions", 0.0),
        "service.shed": counters.get("shed", 0.0),
        "service.overruns": counters.get("deadline_overruns", 0.0),
        "service.sessions_created": counters.get("sessions_created", 0.0),
        "service.sessions_evicted": counters.get("sessions_evicted", 0.0),
        "service.batch_occupancy": _ratio(batch.size, batch.count),
        "service.shard.batch_overhead_ms": (
            float(np.mean(batch_overheads)) / 1e6 if batch_overheads else 0.0
        ),
        "service.shard.failovers": counters.get("failovers", 0.0),
        "service.shard.restarts": counters.get("worker_restarts", 0.0),
        "sim.population.step_self_ms": _ratio(step.self_total / 1e6, step.count),
        "sim.population.decide_ms": pop_decide.mean_us() / 1e3,
        "sim.population.rows_per_tick": _ratio(step.size, step.count),
        "qoe.score_us_per_session": s("qoe.score").mean_us(),
        "runner.audit.us_per_session": s("runner.audit").mean_us(),
        "loadgen.lag_p99_ms": loadgen.get("lag_p99_ms", 0.0),
        "loadgen.sent_rate": loadgen.get("sent_rate", 0.0),
    }


def waterfall(
    spans: SpanSet,
    roots: Sequence[int],
    wait_s: float,
    e2e_s: float,
) -> Tuple[List[tuple], float]:
    """Blocking-path self time per layer over ``roots``, plus generator
    wait, against the traced end-to-end time.

    Returns ``(rows, closure)``: rows are ``(layer, seconds, share of e2e)``
    sorted by time, and closure is ``(sum of rows) / e2e``.
    """
    per_layer: Dict[str, int] = defaultdict(int)
    for root in roots:
        spans.blocking(root, per_layer, layer_of)
    seconds = {layer: ns / 1e9 for layer, ns in per_layer.items()}
    if wait_s:
        seconds["loadgen.wait"] = wait_s
    rows = sorted(
        ((layer, t, _ratio(t, e2e_s)) for layer, t in seconds.items()),
        key=lambda row: -row[1],
    )
    return rows, _ratio(sum(seconds.values()), e2e_s)


def roots_between(spans: SpanSet, names: Sequence[str], lo: int, hi: int) -> List[int]:
    """Root spans called ``names`` that started inside ``[lo, hi]``."""
    wanted = set(names)
    return [
        i for i, sp in enumerate(spans.spans)
        if sp[PARENT] < 0 and sp[NAME] in wanted and lo <= sp[START] <= hi
    ]
