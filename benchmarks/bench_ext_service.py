"""Extension: decision-service throughput and tail latency.

The serving layer (:mod:`repro.service`) promises every session an answer
within a hard per-decision deadline while many sessions share one
instance.  Three benches live here:

* the single-process bench drives one :class:`DecisionService` from
  concurrent client threads on the 6-rung ladder and gates aggregate
  throughput of at least ``REQUIRED_DECISIONS_PER_SEC`` decisions/sec
  with p99 decision latency under the configured deadline, and
* the sharded bench drives a :class:`ShardedDecisionService` fleet over
  the columnar ``decide_many`` batch path and gates
  ``REQUIRED_SHARD_DECISIONS_PER_SEC`` aggregate decisions/sec with p99
  batch latency under the shard deadline, and
* the overload bench pins a deliberately slow solver behind the
  adaptive admission gate, measures sustained capacity closed-loop,
  then offers at least twice that load and gates p99 latency still
  under the deadline — overload is absorbed by shedding to the floor
  rule (recorded as a shed rate), never by queueing past the budget.

All three append run entries (modes ``in-process``, ``sharded-batch``
and ``overload``) to the ``BENCH_service.json`` perf journal for CI
trend tracking.  Run
``python benchmarks/bench_ext_service.py --shards N --out
BENCH_service.json`` for the sharded bench standalone, or add
``--overload`` for the overload bench.
"""

import os
import sys
import threading
import time

try:
    import repro  # noqa: F401
except ImportError:  # script mode without PYTHONPATH=src
    sys.path.insert(
        0,
        os.path.abspath(
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        ),
    )

from repro.service import DecisionService, ShardedDecisionService
from repro.sim.player import PlayerObservation
from repro.prediction.base import ThroughputSample
from repro.sim.video import youtube_4k_ladder

#: decisions per worker thread in the timed section
DECISIONS_PER_THREAD = int(
    os.environ.get("REPRO_BENCH_SERVICE_DECISIONS", "2000")
)
THREADS = int(os.environ.get("REPRO_BENCH_SERVICE_THREADS", "4"))
DEADLINE = 0.05
MAX_BUFFER = 20.0
#: acceptance floor for aggregate decision throughput
REQUIRED_DECISIONS_PER_SEC = 1000.0

#: sharded bench knobs — the batch path must clear 100k decisions/sec
SHARDS = int(os.environ.get("REPRO_BENCH_SHARDS", "2"))
SHARD_BATCH = int(os.environ.get("REPRO_BENCH_SHARD_BATCH", "4096"))
SHARD_DEADLINE = float(os.environ.get("REPRO_BENCH_SHARD_DEADLINE", "0.05"))
SHARD_SECONDS = float(os.environ.get("REPRO_BENCH_SHARD_SECONDS", "3.0"))
REQUIRED_SHARD_DECISIONS_PER_SEC = float(
    os.environ.get("REPRO_BENCH_SHARD_REQUIRED", "100000")
)
JOURNAL = os.environ.get("REPRO_BENCH_SERVICE_JOURNAL", "BENCH_service.json")

#: overload bench knobs — a slow solver bounds capacity so 2x load is cheap
OVERLOAD_DEADLINE = 0.05
OVERLOAD_SOLVE_SECONDS = 0.002
OVERLOAD_BASE_THREADS = int(
    os.environ.get("REPRO_BENCH_OVERLOAD_THREADS", "4")
)
OVERLOAD_FACTOR = int(os.environ.get("REPRO_BENCH_OVERLOAD_FACTOR", "4"))
OVERLOAD_DECISIONS = int(
    os.environ.get("REPRO_BENCH_OVERLOAD_DECISIONS", "300")
)


def _drive(service, ladder, thread_index, decisions):
    """One synthetic client: a fixed session asking back-to-back."""
    session_id = f"bench-{thread_index}"
    prev = None
    buffer_level = 8.0
    for segment in range(decisions):
        obs = PlayerObservation(
            wall_time=2.0 * segment,
            segment_index=segment,
            buffer_level=buffer_level,
            max_buffer=MAX_BUFFER,
            previous_quality=prev,
            ladder=ladder,
            history=(),
        )
        decision = service.decide(session_id, obs)
        prev = decision.quality
        # A gentle buffer walk keeps the solver off trivial fixed points.
        buffer_level = 4.0 + (buffer_level + 1.7) % 12.0


def _shard_requests(ladder, count):
    """A batch of single-sample observations spread over throughputs."""
    requests = []
    for i in range(count):
        tput = 1.0e6 + 3.3e4 * (i % 29)
        requests.append((
            f"bench-shard-{i}",
            PlayerObservation(
                wall_time=float(i),
                segment_index=i,
                buffer_level=4.0 + (i * 1.7) % 12.0,
                max_buffer=MAX_BUFFER,
                previous_quality=i % ladder.levels,
                ladder=ladder,
                history=(
                    ThroughputSample(
                        start=0.0, duration=1.0, size=tput, throughput=tput
                    ),
                ),
            ),
        ))
    return requests


def run_shard_bench(shards=SHARDS, seconds=SHARD_SECONDS, batch=SHARD_BATCH):
    """Drive the columnar batch path across a shard fleet; return metrics."""
    ladder = youtube_4k_ladder()
    service = ShardedDecisionService(
        ladder=ladder,
        max_buffer=MAX_BUFFER,
        shards=shards,
        deadline=SHARD_DEADLINE,
        tier0_budget=0.9 * SHARD_DEADLINE,
        max_in_flight=64,
    )
    try:
        requests = _shard_requests(ladder, batch)
        service.decide_many(requests)  # warm worker caches off the clock
        total = 0
        failovers = 0
        latencies = []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            t0 = time.perf_counter()
            decisions = service.decide_many(requests)
            latencies.append(time.perf_counter() - t0)
            total += len(decisions)
            failovers += sum(1 for d in decisions if d.failover)
        elapsed = time.perf_counter() - started
    finally:
        fleet = service.close()
    latencies.sort()
    rate = total / elapsed

    def _pct(q):
        return latencies[min(len(latencies) - 1, int(q * (len(latencies) - 1)))]

    return {
        "mode": "sharded-batch",
        "shards": shards,
        "ladder": ladder.name,
        "batch": batch,
        "decisions_timed": total,
        "decisions_per_second": round(rate, 1),
        "deadline_seconds": SHARD_DEADLINE,
        "failovers": failovers,
        "worker_restarts": fleet.worker_restarts,
        "latency": {
            "p50_seconds": round(_pct(0.50), 6),
            "p95_seconds": round(_pct(0.95), 6),
            "p99_seconds": round(_pct(0.99), 6),
            "max_seconds": round(latencies[-1], 6),
        },
    }


def _print_shard_entry(entry):
    from conftest import banner

    latency = entry["latency"]
    print(banner("Sharded decision-service batch throughput"))
    print(f"{'shards':>8} {'batch':>8} {'decisions':>10} {'rate/s':>10} "
          f"{'p50 ms':>8} {'p99 ms':>8}")
    print(f"{entry['shards']:>8} {entry['batch']:>8} "
          f"{entry['decisions_timed']:>10} "
          f"{entry['decisions_per_second']:>10.0f} "
          f"{latency['p50_seconds'] * 1e3:>8.2f} "
          f"{latency['p99_seconds'] * 1e3:>8.2f}")
    print(f"failovers={entry['failovers']} "
          f"worker_restarts={entry['worker_restarts']}")


def _assert_shard_gates(entry):
    rate = entry["decisions_per_second"]
    p99 = entry["latency"]["p99_seconds"]
    assert rate >= REQUIRED_SHARD_DECISIONS_PER_SEC, (
        f"sharded batch path below "
        f"{REQUIRED_SHARD_DECISIONS_PER_SEC:,.0f} decisions/sec: {rate:,.0f}/s"
    )
    assert p99 < SHARD_DEADLINE, (
        f"sharded batch p99 {p99 * 1e3:.1f} ms at or above the "
        f"{SHARD_DEADLINE * 1e3:.0f} ms deadline"
    )
    assert entry["failovers"] == 0, "clean workload hit the failover floor"


def _slow_tier0_factory(session_id, controller):
    """A solver that takes ~OVERLOAD_SOLVE_SECONDS: caps capacity low."""
    inner = controller.select_quality

    def solve(*args, **kwargs):
        time.sleep(OVERLOAD_SOLVE_SECONDS)
        return inner(*args, **kwargs)

    return solve


def _overload_drive(service, ladder, session_id, decisions, out):
    """Closed-loop client timing every call; appends latencies to out."""
    prev = None
    buffer_level = 8.0
    latencies = []
    for segment in range(decisions):
        obs = PlayerObservation(
            wall_time=2.0 * segment,
            segment_index=segment,
            buffer_level=buffer_level,
            max_buffer=MAX_BUFFER,
            previous_quality=prev,
            ladder=ladder,
            history=(),
        )
        t0 = time.perf_counter()
        decision = service.decide(session_id, obs)
        latencies.append(time.perf_counter() - t0)
        prev = decision.quality
        buffer_level = 4.0 + (buffer_level + 1.7) % 12.0
    out.append(latencies)


def _overload_phase(service, ladder, session_ids, decisions):
    """Run one closed-loop phase; return (rate, p99, all_latencies)."""
    buckets = []
    started = time.perf_counter()
    workers = [
        threading.Thread(
            target=_overload_drive,
            args=(service, ladder, sid, decisions, buckets),
        )
        for sid in session_ids
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - started
    latencies = sorted(lat for bucket in buckets for lat in bucket)
    rate = len(latencies) / elapsed
    p99 = latencies[min(len(latencies) - 1, int(0.99 * (len(latencies) - 1)))]
    return rate, p99, latencies


def run_overload_bench(
    base_threads=OVERLOAD_BASE_THREADS,
    factor=OVERLOAD_FACTOR,
    decisions=OVERLOAD_DECISIONS,
):
    """Measure capacity, then offer >= 2x and verify shed-not-queue."""
    ladder = youtube_4k_ladder()
    service = DecisionService(
        ladder,
        MAX_BUFFER,
        deadline=OVERLOAD_DEADLINE,
        max_in_flight=base_threads,
        max_sessions=base_threads * factor * 2,
        table_points=16,
        tier0_factory=_slow_tier0_factory,
    )
    established = [f"ovl-{i}" for i in range(base_threads)]
    # Establish the baseline sessions (and warm their solvers) off the
    # clock so phase 1 measures steady-state capacity, not cold starts.
    for sid in established:
        _overload_drive(service, ladder, sid, 20, [])
    shed_before = service.health().stats.shed

    capacity, p99_base, _ = _overload_phase(
        service, ladder, established, decisions
    )
    shed_base = service.health().stats.shed - shed_before

    # Phase 2: the established sessions keep asking while factor-1 times
    # as many brand-new arrivals pile on — offered load is a closed loop
    # over factor * base_threads clients against a base_threads-wide gate.
    arrivals = [f"ovl-new-{i}" for i in range((factor - 1) * base_threads)]
    offered, p99_over, latencies = _overload_phase(
        service, ladder, established + arrivals, decisions
    )
    snapshot = service.health()
    shed_over = snapshot.stats.shed - shed_base - shed_before
    answered = (factor * base_threads) * decisions

    return {
        "mode": "overload",
        "threads_base": base_threads,
        "threads_overload": factor * base_threads,
        "decisions_per_thread": decisions,
        "deadline_seconds": OVERLOAD_DEADLINE,
        "solver_seconds": OVERLOAD_SOLVE_SECONDS,
        "capacity_per_second": round(capacity, 1),
        "offered_per_second": round(offered, 1),
        "overload_ratio": round(offered / capacity, 2) if capacity else 0.0,
        "answered": answered,
        "shed_baseline": shed_base,
        "shed_overload": shed_over,
        "shed_rate_overload": round(shed_over / answered, 4),
        "latency": {
            "p99_baseline_seconds": round(p99_base, 6),
            "p99_overload_seconds": round(p99_over, 6),
            "max_overload_seconds": round(latencies[-1], 6),
        },
        "admission": snapshot.admission,
    }


def _print_overload_entry(entry):
    from conftest import banner

    latency = entry["latency"]
    print(banner("Decision-service overload shedding"))
    print(f"capacity {entry['capacity_per_second']:,.0f}/s "
          f"({entry['threads_base']} threads) -> offered "
          f"{entry['offered_per_second']:,.0f}/s "
          f"({entry['threads_overload']} threads, "
          f"{entry['overload_ratio']:.1f}x)")
    print(f"p99 baseline {latency['p99_baseline_seconds'] * 1e3:.2f} ms, "
          f"overload {latency['p99_overload_seconds'] * 1e3:.2f} ms "
          f"(deadline {entry['deadline_seconds'] * 1e3:.0f} ms)")
    print(f"shed: baseline={entry['shed_baseline']} "
          f"overload={entry['shed_overload']} "
          f"({entry['shed_rate_overload']:.1%} of overload requests)")


def _assert_overload_gates(entry):
    latency = entry["latency"]
    assert entry["overload_ratio"] >= 2.0, (
        f"overload phase offered only {entry['overload_ratio']:.1f}x "
        f"sustained capacity; the bench needs >= 2x to say anything"
    )
    assert latency["p99_overload_seconds"] < entry["deadline_seconds"], (
        f"p99 {latency['p99_overload_seconds'] * 1e3:.1f} ms at or above "
        f"the {entry['deadline_seconds'] * 1e3:.0f} ms deadline under "
        f"{entry['overload_ratio']:.1f}x load"
    )
    assert entry["shed_overload"] > 0, (
        "overload phase shed nothing — the gate never engaged, so the "
        "load was not actually past capacity"
    )


def test_service_throughput_and_tail_latency(benchmark):
    from conftest import banner, run_once
    from repro.cli import _append_perf_entry

    ladder = youtube_4k_ladder()
    assert ladder.levels >= 6
    service = DecisionService(
        ladder,
        MAX_BUFFER,
        deadline=DEADLINE,
        max_in_flight=max(THREADS * 2, 8),
        max_sessions=max(THREADS * 2, 8),
        table_points=16,
    )

    def experiment():
        # Warm each session's solver and plan cache off the clock.
        for i in range(THREADS):
            _drive(service, ladder, i, 50)
        started = time.perf_counter()
        workers = [
            threading.Thread(
                target=_drive,
                args=(service, ladder, i, DECISIONS_PER_THREAD),
            )
            for i in range(THREADS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        elapsed = time.perf_counter() - started
        return elapsed

    elapsed = run_once(benchmark, experiment)
    timed = THREADS * DECISIONS_PER_THREAD
    rate = timed / elapsed
    snapshot = service.health()
    stats = snapshot.stats
    latency = snapshot.latency

    print(banner("Decision-service throughput and tail latency"))
    print(f"{'threads':>8} {'decisions':>10} {'rate/s':>10} "
          f"{'p50 ms':>8} {'p95 ms':>8} {'p99 ms':>8}")
    print(f"{THREADS:>8} {timed:>10} {rate:>10.0f} "
          f"{latency['p50'] * 1e3:>8.3f} {latency['p95'] * 1e3:>8.3f} "
          f"{latency['p99'] * 1e3:>8.3f}")
    print(f"tier mix: solver={stats.tier0_decisions} "
          f"table={stats.tier1_decisions} rule={stats.tier2_decisions} "
          f"shed={stats.shed}")

    _append_perf_entry(JOURNAL, {
        "mode": "in-process",
        "ladder": ladder.name,
        "levels": ladder.levels,
        "threads": THREADS,
        "decisions_timed": timed,
        "decisions_per_second": round(rate, 1),
        "deadline_seconds": DEADLINE,
        "latency": {
            **{f"{k}_seconds": round(v, 6) for k, v in latency.items()},
            "max_seconds": round(snapshot.latency_max, 6),
        },
        "tier0_decisions": stats.tier0_decisions,
        "tier1_decisions": stats.tier1_decisions,
        "tier2_decisions": stats.tier2_decisions,
        "shed": stats.shed,
    })
    print(f"appended run to {JOURNAL}")

    assert rate >= REQUIRED_DECISIONS_PER_SEC, (
        f"service below {REQUIRED_DECISIONS_PER_SEC:.0f} decisions/sec: "
        f"{rate:.0f}/s"
    )
    assert latency["p99"] < DEADLINE, (
        f"p99 latency {latency['p99'] * 1e3:.1f} ms at or above the "
        f"{DEADLINE * 1e3:.0f} ms deadline"
    )
    # The clean workload must be answered by the solver, not by shedding.
    assert stats.tier0_decisions > 0.9 * stats.decisions


def test_sharded_batch_throughput(benchmark):
    from conftest import run_once
    from repro.cli import _append_perf_entry

    entry = run_once(benchmark, run_shard_bench)
    _print_shard_entry(entry)
    _append_perf_entry(JOURNAL, entry)
    print(f"appended run to {JOURNAL}")
    _assert_shard_gates(entry)


def test_overload_shedding(benchmark):
    from conftest import run_once
    from repro.cli import _append_perf_entry

    entry = run_once(benchmark, run_overload_bench)
    _print_overload_entry(entry)
    _append_perf_entry(JOURNAL, entry)
    print(f"appended run to {JOURNAL}")
    _assert_overload_gates(entry)


def main(argv=None):
    import argparse

    from repro.cli import _append_perf_entry

    parser = argparse.ArgumentParser(
        description="Sharded decision-service batch throughput bench"
    )
    parser.add_argument("--shards", type=int, default=SHARDS)
    parser.add_argument("--batch", type=int, default=SHARD_BATCH)
    parser.add_argument(
        "--seconds", type=float, default=SHARD_SECONDS,
        help="length of the timed section",
    )
    parser.add_argument(
        "--out", default=None,
        help="perf journal to append this run to (e.g. BENCH_service.json)",
    )
    parser.add_argument(
        "--overload", action="store_true",
        help="run the overload-shedding bench instead of the sharded one",
    )
    args = parser.parse_args(argv)
    if args.overload:
        entry = run_overload_bench()
        _print_overload_entry(entry)
        if args.out:
            _append_perf_entry(args.out, entry)
            print(f"appended run to {args.out}")
        _assert_overload_gates(entry)
        return 0
    entry = run_shard_bench(
        shards=args.shards, seconds=args.seconds, batch=args.batch
    )
    _print_shard_entry(entry)
    if args.out:
        _append_perf_entry(args.out, entry)
        print(f"appended run to {args.out}")
    _assert_shard_gates(entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
