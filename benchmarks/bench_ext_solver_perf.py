"""Extension: fast-path solver throughput vs the recursive reference.

The ROADMAP's scale target needs per-decision solve cost off the critical
path.  This bench times ``solve_monotonic`` / ``solve_brute_force`` against
their vectorized fast-path counterparts on the standard |R|=8 ladder with
the paper's K=5 horizon, verifies the two backends commit *identical*
decisions on every timed case, and writes a JSON artifact
(``solver_perf.json``) with decisions/sec and speedups for CI trend
tracking.  The fast monotonic path must clear 2x; in practice it lands
well above that, and the plan cache pushes end-to-end sessions further.

The *amortized* mode (``test_amortized_batch_cost``) measures the
cross-session batched kernel instead: per-decision cost of
``solve_sessions_batch`` at batch sizes 1/8/32/128 over one shared
bundle, gated at a ≥3x amortized speedup at batch 32 vs batch 1 with the
batch-32 p99 wall time under the serving deadline.  A second population
rotates through all seven anchors of the ladder (no previous rung, and
every rung), as a serving chunk does: a 16-request mixed batch must cost
at most 2/3 per decision of solving the same requests one at a time with
``solve_monotonic_fast`` (≥1.5x).  The curve and the mixed-anchor point
are appended to the root-level ``BENCH_service.json`` perf journal (mode
``amortized``).
"""

import json
import os
import random
import time

import numpy as np
from conftest import banner, run_once

from repro.core.fastpath import (
    SessionSolveRequest,
    solve_brute_force_fast,
    solve_monotonic_fast,
    solve_sessions_batch,
)
from repro.core.objective import SodaConfig
from repro.core.solver import solve_brute_force, solve_monotonic
from repro.sim.video import youtube_4k_ladder

#: decision situations per timed backend
CASES = int(os.environ.get("REPRO_BENCH_SOLVER_CASES", "600"))
MAX_BUFFER = 25.0
ARTIFACT = os.environ.get("REPRO_BENCH_ARTIFACT", "solver_perf.json")
JOURNAL = os.environ.get("REPRO_BENCH_SERVICE_JOURNAL", "BENCH_service.json")
#: acceptance floor for the monotonic fast path
REQUIRED_SPEEDUP = 2.0
#: acceptance floor for batch-32 amortization over batch-1
REQUIRED_AMORTIZED_SPEEDUP = 3.0
#: acceptance floor for a mixed-anchor batch over single solves
REQUIRED_MIXED_SPEEDUP = 1.5
#: batch size of the mixed-anchor gate (the service's default tier-0 chunk)
MIXED_BATCH = 16
#: serving deadline the batch-32 p99 must stay under, seconds
SERVING_DEADLINE = 0.05
BATCH_SIZES = (1, 8, 32, 128)


def _situations(ladder, seed=11):
    rng = random.Random(seed)
    cases = []
    for _ in range(CASES):
        tput = float(rng.uniform(0.2, 30.0))
        buf = rng.uniform(0.0, MAX_BUFFER)
        prev = rng.choice([None] + list(range(ladder.levels)))
        cases.append((np.full(5, tput), buf, prev))
    return cases


def _time_backend(solver, cases, ladder, cfg):
    decisions = []
    start = time.perf_counter()
    for omega, buf, prev in cases:
        plan = solver(omega, buf, prev, ladder, cfg, MAX_BUFFER)
        decisions.append(plan.quality)
    elapsed = time.perf_counter() - start
    return decisions, len(cases) / elapsed


def test_solver_fast_path_speedup(benchmark):
    ladder = youtube_4k_ladder()
    assert ladder.levels >= 6
    cases = _situations(ladder)
    mono_cfg = SodaConfig(horizon=5)
    brute_cfg = SodaConfig(horizon=5, use_brute_force=True)

    def experiment():
        # warm the candidate-bundle caches so steady-state cost is measured
        for omega, buf, prev in cases[:10]:
            solve_monotonic_fast(omega, buf, prev, ladder, mono_cfg, MAX_BUFFER)
            solve_brute_force_fast(omega, buf, prev, ladder, brute_cfg, MAX_BUFFER)
        out = {}
        for name, ref, fast, cfg in (
            ("monotonic", solve_monotonic, solve_monotonic_fast, mono_cfg),
            ("brute_force", solve_brute_force, solve_brute_force_fast, brute_cfg),
        ):
            ref_decisions, ref_rate = _time_backend(ref, cases, ladder, cfg)
            fast_decisions, fast_rate = _time_backend(fast, cases, ladder, cfg)
            out[name] = {
                "reference_decisions_per_sec": round(ref_rate, 1),
                "fast_decisions_per_sec": round(fast_rate, 1),
                "speedup": round(fast_rate / ref_rate, 2),
                "identical_decisions": ref_decisions == fast_decisions,
                "cases": len(cases),
            }
        return out

    results = run_once(benchmark, experiment)

    print(banner("Solver throughput: reference recursion vs fast path"))
    print(f"{'solver':<12} {'reference/s':>12} {'fast/s':>12} {'speedup':>8}")
    for name, row in results.items():
        print(
            f"{name:<12} {row['reference_decisions_per_sec']:>12.0f} "
            f"{row['fast_decisions_per_sec']:>12.0f} "
            f"{row['speedup']:>7.2f}x"
        )

    artifact = {
        "ladder": ladder.name,
        "levels": ladder.levels,
        "horizon": 5,
        "results": results,
    }
    with open(ARTIFACT, "w", encoding="utf-8") as f:
        json.dump(artifact, f, indent=2)
        f.write("\n")
    print(f"wrote {ARTIFACT}")

    for name, row in results.items():
        assert row["identical_decisions"], (
            f"{name}: fast path committed different decisions"
        )
    assert results["monotonic"]["speedup"] >= REQUIRED_SPEEDUP, (
        f"monotonic fast path below {REQUIRED_SPEEDUP}x: "
        f"{results['monotonic']['speedup']}x"
    )


# ----------------------------------------------------------------------
def _session_population(ladder, cfg, size, seed=23, anchors=(3,)):
    """``size`` live states whose previous rungs rotate through
    ``anchors``; the default shares one bundle (the service's hot case)."""
    rng = random.Random(seed)
    return [
        SessionSolveRequest(
            omega=float(rng.uniform(0.2, 30.0)),
            buffer_level=rng.uniform(0.0, MAX_BUFFER),
            prev_quality=anchors[j % len(anchors)],
            ladder=ladder,
            cfg=cfg,
            max_buffer=MAX_BUFFER,
        )
        for j in range(size)
    ]


def _solve_one_at_a_time(requests):
    """The S=1 baseline: each request through ``solve_monotonic_fast``."""
    for req in requests:
        solve_monotonic_fast(
            req.omega, req.buffer_level, req.prev_quality, req.ladder,
            req.cfg, req.max_buffer,
        )


def test_amortized_batch_cost(benchmark):
    """Amortized mode: per-decision cost of the batched kernel vs size."""
    ladder = youtube_4k_ladder()
    cfg = SodaConfig(horizon=5)
    every_anchor = (None,) + tuple(range(ladder.levels))

    def experiment():
        # warm the bundle cache so the fixed per-call overhead measured
        # is dispatch + array assembly, not one-off candidate enumeration
        solve_sessions_batch(
            _session_population(ladder, cfg, 7, anchors=every_anchor)
        )

        # equivalence smoke: the timed kernel is the proven-identical one
        check = _session_population(ladder, cfg, 64, seed=5)
        check += _session_population(
            ladder, cfg, 64, seed=5, anchors=every_anchor
        )
        for req, plan in zip(check, solve_sessions_batch(check)):
            single = solve_monotonic_fast(
                req.omega, req.buffer_level, req.prev_quality, ladder,
                cfg, MAX_BUFFER,
            )
            assert plan.quality == single.quality
            assert plan.objective == single.objective

        mixed = _session_population(
            ladder, cfg, MIXED_BATCH, anchors=every_anchor
        )
        # Timed cases, interleaved: the one-anchor curve by batch size,
        # then the mixed-anchor batch and its one-at-a-time baseline.
        timed = {
            size: (
                lambda p=_session_population(ladder, cfg, size):
                solve_sessions_batch(p),
                size,
            )
            for size in BATCH_SIZES
        }
        timed["mixed"] = (lambda: solve_sessions_batch(mixed), MIXED_BATCH)
        timed["mixed_single"] = (
            lambda: _solve_one_at_a_time(mixed), MIXED_BATCH
        )
        # Per-size timing, two estimators:
        #  - amortized cost: min over interleaved trials of the trial's
        #    mean call time.  The min estimates intrinsic cost — a
        #    scheduler preemption or GC pause can only inflate a trial,
        #    never deflate it — and interleaving the sizes means slow
        #    machine-wide drift hits every size equally instead of
        #    skewing the ratio the gate is built on.
        #  - p99: over individual call times, for the deadline check.
        trials, samples = 30, {name: [] for name in timed}
        calls = {name: [] for name in timed}
        for _ in range(trials):
            for name, (run, size) in timed.items():
                repeats = max(4, 400 // size)
                start = time.perf_counter()
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    run()
                    calls[name].append(time.perf_counter() - t0)
                samples[name].append(
                    (time.perf_counter() - start) / repeats
                )
        out = {}
        for name, (_run, size) in timed.items():
            per_call = calls[name]
            per_call.sort()
            p99 = per_call[min(len(per_call) - 1, int(0.99 * len(per_call)))]
            out[name] = {
                "per_decision_us": 1e6 * min(samples[name]) / size,
                "batch_p99_ms": 1e3 * p99,
                "calls": len(per_call),
            }
        return out

    results = run_once(benchmark, experiment)

    print(banner("Amortized per-decision cost vs batch size"))
    print(f"{'batch':>6} {'us/decision':>12} {'batch p99':>10} {'speedup':>8}")
    base = results[1]["per_decision_us"]
    for size in BATCH_SIZES:
        row = results[size]
        print(
            f"{size:>6} {row['per_decision_us']:>12.2f} "
            f"{row['batch_p99_ms']:>8.3f}ms "
            f"{base / row['per_decision_us']:>7.2f}x"
        )

    mixed_us = results["mixed"]["per_decision_us"]
    single_us = results["mixed_single"]["per_decision_us"]
    mixed_speedup = single_us / mixed_us
    print(
        f"mixed anchors, batch {MIXED_BATCH}: {mixed_us:.2f} us/decision; "
        f"one at a time: {single_us:.2f} us/decision ({mixed_speedup:.2f}x)"
    )

    from repro.cli import _append_perf_entry

    speedup_at_32 = base / results[32]["per_decision_us"]
    _append_perf_entry(JOURNAL, {
        "mode": "amortized",
        "ladder": ladder.name,
        "horizon": 5,
        "batch_sizes": list(BATCH_SIZES),
        "per_decision_us": {
            str(size): round(results[size]["per_decision_us"], 3)
            for size in BATCH_SIZES
        },
        "batch_p99_ms": {
            str(size): round(results[size]["batch_p99_ms"], 4)
            for size in BATCH_SIZES
        },
        "speedup_at_32": round(speedup_at_32, 2),
        "mixed_anchor": {
            "batch_size": MIXED_BATCH,
            "per_decision_us": round(mixed_us, 3),
            "one_at_a_time_us": round(single_us, 3),
            "speedup": round(mixed_speedup, 2),
        },
    })
    print(f"appended amortized curve to {JOURNAL}")

    assert speedup_at_32 >= REQUIRED_AMORTIZED_SPEEDUP, (
        f"batch-32 amortization below {REQUIRED_AMORTIZED_SPEEDUP}x: "
        f"{speedup_at_32:.2f}x"
    )
    assert results[32]["batch_p99_ms"] <= SERVING_DEADLINE * 1e3, (
        f"batch-32 p99 {results[32]['batch_p99_ms']:.3f} ms exceeds the "
        f"{SERVING_DEADLINE * 1e3:.0f} ms serving deadline"
    )
    assert mixed_speedup >= REQUIRED_MIXED_SPEEDUP, (
        f"mixed-anchor batch {MIXED_BATCH} below {REQUIRED_MIXED_SPEEDUP}x "
        f"over single solves: {mixed_speedup:.2f}x"
    )
