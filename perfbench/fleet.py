"""``fleet``: open-loop columnar batches into a sharded decision fleet.

A :class:`~repro.service.ShardedDecisionService` with one shard worker per
core, the 6-rung YouTube 4K ladder, a 20 s buffer, the 50 ms deadline and a
32x32 tier-1 table built and published into the checkout receives 256-row
batches through ``decide_many`` (the ``vbatch`` path population serve mode
uses) at a fixed cadence.  Rows are drawn from a session pool larger than the
fleet's resident cap, so session state stays cold and the deadline budget,
not the work, sets latency: the tier-0 prefix runs until half the deadline
is left and the rest of the batch is one table gather.
"""

from __future__ import annotations

import bisect
import math
import os
import tempfile
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from common import (
    SETUP_REPEATS,
    Outcome,
    cold_setups,
    ms_percentiles,
    peak_rss_mb,
    seed_for,
    share,
    timed_phase,
)
from loadgen import failed_answers, open_loop
from tracing import END, NAME, SPANS_KEY, START, SpanSet, Tracer

#: the decision deadline; an answer later than this (from its due time) fails
DEADLINE_S = 0.05
#: Figure 9 statistics of the puffer/5g/4g datasets: mean Mb/s, RSD
FIG9 = np.array([[57.1, 0.472], [31.3, 1.33], [13.0, 0.806]])
AR = 0.9
MAX_BUFFER = 20.0
TABLE_POINTS = 32
#: one shard worker per core
CORES = len(os.sched_getaffinity(0))
POOL = 6000
BATCH = 256
CADENCE = 12.5
WARMUP_ROWS = 64


def _walks(rng: np.random.Generator, sessions: int, steps: int) -> np.ndarray:
    """Per-session AR(1) log-throughput walks (Mb/s), ``sessions x steps``;
    each session's level and volatility come from one dataset's Figure 9
    statistics, jittered."""
    pick = rng.integers(0, len(FIG9), sessions)
    mean = FIG9[pick, 0] * np.exp(rng.normal(0.0, 0.25, sessions))
    rsd = FIG9[pick, 1] * rng.uniform(0.8, 1.2, sessions)
    sigma = np.sqrt(np.log1p(rsd ** 2))
    mu = np.log(mean) - 0.5 * sigma ** 2
    x = mu + sigma * rng.standard_normal(sessions)
    innovation = sigma * math.sqrt(1.0 - AR ** 2)
    out = np.empty((sessions, steps))
    for t in range(steps):
        x = mu + AR * (x - mu) + innovation * rng.standard_normal(sessions)
        out[:, t] = np.exp(x)
    return out


class _Inputs:
    """Batches drawn from the pool; each row carries its session's next
    throughput sample, a buffer level and a previous rung (``-1``: none)."""

    def __init__(self, seed: int, ladder, batches: int, size: int) -> None:
        from repro.prediction.base import ThroughputSample
        from repro.sim.player import PlayerObservation

        rng = np.random.default_rng(seed_for(seed, 2))
        steps = 64
        walks = _walks(rng, POOL, steps)
        draws = np.zeros(POOL, dtype=np.int64)
        self.requests: List[List[tuple]] = []
        self.columns: List[tuple] = []
        for _ in range(batches):
            ids = rng.choice(POOL, size, replace=False)
            tput = walks[ids, draws[ids] % steps]
            draws[ids] += 1
            bufs = rng.uniform(0.0, MAX_BUFFER, size)
            prevs = rng.integers(-1, ladder.levels, size)
            self.columns.append((tput, bufs, prevs))
            self.requests.append([
                (f"pool-{i}", PlayerObservation(
                    wall_time=0.0, segment_index=0, buffer_level=float(b),
                    max_buffer=MAX_BUFFER,
                    previous_quality=None if p < 0 else int(p), ladder=ladder,
                    history=(ThroughputSample(0.0, 1.0, float(t), float(t)),),
                ))
                for i, t, b, p in zip(ids.tolist(), tput, bufs, prevs)
            ])


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half: as robust to a few stalled samples as the
    median, without the median's rounding to one sample's value."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return float(np.mean(middle))


def _setup(table_path: str, ladder, warm: List[tuple]):
    """Build and publish the tier-1 table, fork the fleet, warm it up."""
    from repro.core.lookup import DecisionTable
    from repro.core.objective import SodaConfig
    from repro.service import ShardedDecisionService

    table = DecisionTable(
        ladder, MAX_BUFFER, config=SodaConfig(solver_backend="fast"),
        throughput_points=TABLE_POINTS, buffer_points=TABLE_POINTS,
    )
    table.save_mmap(table_path)
    service = ShardedDecisionService(
        ladder=ladder, max_buffer=MAX_BUFFER, shards=CORES,
        deadline=DEADLINE_S, table_path=table_path,
    )
    service.decide_many(warm)
    return table, service, table_path


def _teardown(state) -> None:
    _table, service, path = state
    service.close()
    os.unlink(path)


def _counters(before, after) -> Dict[str, float]:
    """Service counters over the timed window (fleet health deltas)."""
    keys = ("tier0_decisions", "tier1_decisions", "tier2_decisions", "shed",
            "deadline_overruns", "sessions_created", "sessions_evicted")
    out = {k: float(after.rollup.get(k, 0) - before.rollup.get(k, 0)) for k in keys}
    out["failovers"] = float(after.failovers - before.failovers)
    out["worker_restarts"] = float(after.worker_restarts - before.worker_restarts)
    return out


def run_pass(seed: int, seconds: float, tracer: Optional[Tracer], full: bool) -> Outcome:
    """One pass of ``fleet``; ``full`` times several cold set-ups."""
    from repro.sim.video import youtube_4k_ladder

    ladder = youtube_4k_ladder()
    out = Outcome()
    count = int(CADENCE * seconds)
    warm = _Inputs(seed_for(seed, 7), ladder, 1, WARMUP_ROWS).requests[0]
    work = tempfile.gettempdir()  # run.py points it into the checkout
    setup_s, (table, service, path) = cold_setups(
        lambda: _setup(os.path.join(work, f"table-{os.getpid()}.sodatbl"), ladder, warm),
        _teardown,
        SETUP_REPEATS if full else 1,
    )
    # Made after the fleet forks, so workers never inherit (and collect) them.
    inputs = _Inputs(seed, ladder, count, BATCH)
    answers: List[Optional[tuple]] = [None] * count

    def send(k: int) -> None:
        if tracer is not None:
            tracer.set_rid(k)
            with tracer.span("loadgen.batch"):
                decisions = service.decide_many(inputs.requests[k])
        else:
            decisions = service.decide_many(inputs.requests[k])
        answers[k] = (
            np.array([d.quality for d in decisions]),
            np.array([d.tier for d in decisions]),
            np.array([d.failover for d in decisions]),
        )

    try:
        before = service.health()
        with timed_phase():
            window_lo = time.perf_counter_ns()
            timings = open_loop(count, 1.0 / CADENCE, send)
            window_hi = time.perf_counter_ns()
        rss = peak_rss_mb(service.worker_pids())
    finally:
        final = service.close()
        os.unlink(path)

    rows = count * BATCH
    latencies = [t.latency for t in timings if t.latency is not None]
    tier0_per_batch = [0 if a is None else int((a[1] == 0).sum()) for a in answers]
    failed = failed_answers(
        timings,
        [BATCH if a is None else int(a[2].sum()) for a in answers],
        DEADLINE_S,
        BATCH,
    )
    out.attempted, out.failed = rows, failed
    out.metrics = {
        "setup_s": setup_s,
        **ms_percentiles(latencies),
        # per batch, so one stalled batch cannot move the figure
        "decisions_per_s": interquartile_mean(tier0_per_batch) * CADENCE,
        "peak_rss_mb": rss,
    }
    out.extra["tier0_share"] = (share(sum(tier0_per_batch), rows), "fraction")
    out.extra["fail_share"] = (share(failed, rows), "fraction")

    # ---- correctness: tier-1 rows equal an off-clock table gather ----
    bad = tier1 = 0
    for k, answer in enumerate(answers):
        if answer is None or len(answer[0]) != BATCH:
            bad += BATCH
            continue
        rungs, tiers, _ = answer
        bad += int(((rungs < 0) | (rungs >= ladder.levels)).sum())
        tput, bufs, prevs = inputs.columns[k]
        expect = table.lookup_batch(tput, bufs, prevs)
        expect = np.where(expect < 0, prevs, expect)
        one = tiers == 1
        tier1 += int(one.sum())
        bad += int((rungs[one] != expect[one]).sum())
    out.notes.append(f"{count} batches of {BATCH}; {tier1} tier-1 answers checked")
    out.check(bad == 0, "fleet: an answer is missing, out of range, or a tier-1 "
                        "answer differs from the off-clock table gather")

    if tracer is not None:
        from layers import layer_metrics, roots_between, waterfall

        spans = SpanSet(tracer.export())
        # Worker spans join the front-end batch span they ran inside:
        # batches go one at a time, so containment is unambiguous.
        batch_spans = sorted(
            (sp[START], sp[END], i) for i, sp in enumerate(spans.spans)
            if sp[NAME] == "service.shard.decide_many"
        )
        starts = [b[0] for b in batch_spans]

        def parent_of(span) -> int:
            j = bisect.bisect_right(starts, span[START]) - 1
            if j >= 0 and span[END] <= batch_spans[j][1]:
                return batch_spans[j][2]
            return -1

        for shard in final.per_shard:
            spans.adopt(shard.get(SPANS_KEY, []), parent_of)
        lateness = [t.lateness for t in timings]
        out.layers = layer_metrics(
            spans, (window_lo, window_hi), _counters(before, final),
            {
                "lag_p99_ms": float(np.percentile(lateness, 99)) * 1e3,
                "sent_rate": (count - 1) / (timings[-1].start - timings[0].start),
            },
        )
        roots = roots_between(spans, ["loadgen.batch"], window_lo, window_hi)
        out.waterfall, out.layers["waterfall.closure"] = waterfall(
            spans, roots, sum(lateness), sum(latencies)
        )
        out.layers["trace.spans"] = float(len(spans.spans))
        out.spans = spans
    return out
