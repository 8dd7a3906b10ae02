"""Command-line interface: run experiments without writing code.

Subcommands:

* ``compare`` — controller suite over a synthetic dataset (a mini Fig. 10);
* ``session`` — one session of one controller on a trace/scenario, with an
  optional event timeline;
* ``trace`` — generate a synthetic trace to CSV or summarise a trace file;
* ``decide`` — a single SODA decision for a (throughput, buffer, prev) situation;
* ``tune`` — grid-search SODA weights for a dataset;
* ``robustness`` — QoE-degradation curves under injected download faults;
* ``serve`` — the multi-session decision service under a clean synthetic
  workload, with a health-snapshot report;
* ``soak`` — the chaos-soak harness: the same service under injected
  solver and observation faults, gated on its serving invariants; with
  ``--shards N`` the sharded fleet instead, where chaos SIGKILLs a
  worker mid-run and the gate adds re-homing and restart; with
  ``--rollout`` the double-fault rollout soak, where a poisoned table is
  canaried while a baseline worker is SIGKILLed and the gate adds
  automatic rollback, version convergence, and cell identity;
* ``population`` — the vectorized population simulator: 1M+ coarse
  fleet sessions with diurnal/flash-crowd arrivals, correlated fault
  storms, atomic checkpoints with ``--resume`` (bit-identical
  aggregates), and a ``--serve`` mode that drives every decision
  through the live sharded service;
* ``table`` — build a memory-mapped decision table file (versioned,
  checksummed) or inspect one;
* ``learn`` — the offline learning pipeline (``extract``, ``bc``,
  ``finetune``, ``distill``, ``eval``): demonstration datasets from
  journaled ``compare --log-decisions`` runs, behavior cloning,
  RL fine-tuning, distillation to a servable decision table, and a
  stability evaluation against SODA (with an optional 2-shard canary
  rollout check).

``compare`` and ``robustness`` accept the experiment-runner options
``--jobs N`` (supervised worker pool with crash containment),
``--journal out.jsonl`` (atomic JSONL run journal), ``--resume`` (skip
sessions already journaled under the same config), ``--session-timeout``
(per-session wall-clock budget), and ``--strict-audit`` (exit 2 when any
completed session is flagged by the invariant auditor).

Run ``python -m repro.cli <subcommand> --help`` for options.  Operational
errors (missing files, bad values) exit with code 2 and a one-line message.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .abr import (
    BbaController,
    BolaController,
    DynamicController,
    FuguController,
    HybController,
    PidController,
    RateController,
    RobustMpcController,
)
from .analysis import (
    qoe_table,
    run_suite,
    standard_controllers,
    sweep_fault_intensity,
)
from .core.controller import SodaController
from .core.objective import SodaConfig
from .core.tuning import tune_soda
from .qoe import qoe_from_session
from .runner import JournalError
from .sim.events import TimelineRecorder
from .sim.profiles import live_profile
from .sim.session import run_session
from .traces import DATASET_FACTORIES, load_bandwidth_csv
from .traces import scenarios as scenario_lib

__all__ = ["main", "build_parser"]

_CONTROLLERS = {
    "soda": SodaController,
    "hyb": HybController,
    "bola": BolaController,
    "dynamic": DynamicController,
    "mpc": RobustMpcController,
    "fugu": FuguController,
    "bba": BbaController,
    "pid": PidController,
    "rate": RateController,
}

# Scenario factories, re-parameterised so events scale with the duration.
_SCENARIOS = {
    "step-down": lambda duration: scenario_lib.step_down(
        at=0.4 * duration, duration=duration
    ),
    "step-up": lambda duration: scenario_lib.step_up(
        at=0.4 * duration, duration=duration
    ),
    "spike": lambda duration: scenario_lib.spike(
        at=0.4 * duration, width=0.05 * duration, duration=duration
    ),
    "outage": lambda duration: scenario_lib.outage(
        at=0.4 * duration, width=0.05 * duration, duration=duration
    ),
    "ramp": lambda duration: scenario_lib.ramp(duration=duration),
    "oscillation": lambda duration: scenario_lib.oscillation(
        period=duration / 8.0, duration=duration
    ),
    "sawtooth": lambda duration: scenario_lib.sawtooth(
        period=duration / 5.0, duration=duration
    ),
}


def _add_runner_args(p: argparse.ArgumentParser) -> None:
    """Experiment-runner options shared by compare/robustness."""
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; >1 fans sessions out to a "
                        "supervised pool with crash containment")
    p.add_argument("--journal",
                   help="JSONL run journal; every completed session is "
                        "flushed atomically (with --dataset all, the "
                        "dataset name is appended to the path)")
    p.add_argument("--resume", action="store_true",
                   help="replay the journal and skip completed sessions "
                        "(refuses a config-hash mismatch)")
    p.add_argument("--session-timeout", type=float, default=None,
                   help="per-session wall-clock budget in seconds, "
                        "enforced by killing the worker (--jobs > 1)")
    p.add_argument("--strict-audit", action="store_true",
                   help="exit 2 when any completed session is flagged "
                        "by the invariant auditor")


def _print_failures(result) -> None:
    """One-line per-controller failure summary, on stderr."""
    for line in result.failure_lines():
        print(f"repro: warning: {line}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SODA (SIGCOMM 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="controller suite over a dataset")
    p.add_argument("--dataset", choices=[*DATASET_FACTORIES, "all"],
                   default="puffer")
    p.add_argument("--sessions", type=int, default=6)
    p.add_argument("--duration", type=float, default=480.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--solver-backend", choices=["reference", "fast"],
                   default="fast",
                   help="SODA horizon solver: the vectorized fast path "
                        "(default) or the recursive reference")
    p.add_argument("--log-decisions", action="store_true",
                   help="record every controller answer on each session "
                        "record (demonstration data for 'repro learn'; "
                        "changes the journal config hash)")
    _add_runner_args(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("session", help="run one controller on one trace")
    p.add_argument("controller", choices=sorted(_CONTROLLERS))
    p.add_argument("--scenario", choices=sorted(_SCENARIOS), default="outage")
    p.add_argument("--trace-csv", help="time,bandwidth CSV instead of a scenario")
    p.add_argument("--duration", type=float, default=300.0)
    p.add_argument("--timeline", action="store_true",
                   help="print the event timeline")
    p.set_defaults(func=_cmd_session)

    p = sub.add_parser("trace", help="generate or summarise a trace")
    p.add_argument("--dataset", choices=sorted(DATASET_FACTORIES),
                   default="puffer")
    p.add_argument("--duration", type=float, default=600.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write time,bandwidth CSV here")
    p.add_argument("--summarize", help="summarise an existing CSV instead")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "robustness",
        help="QoE degradation of the controller suite under injected faults",
    )
    p.add_argument("--dataset", choices=sorted(DATASET_FACTORIES),
                   default="puffer")
    p.add_argument("--sessions", type=int, default=4)
    p.add_argument("--duration", type=float, default=240.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--intensities", default="0,0.1,0.2,0.4",
                   help="comma-separated fault intensities, ascending")
    p.add_argument("--resilient", action="store_true",
                   help="wrap every controller in ResilientController")
    _add_runner_args(p)
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser("decide", help="one SODA decision for a situation")
    p.add_argument("--throughput", type=float, required=True,
                   help="predicted throughput, Mb/s")
    p.add_argument("--buffer", type=float, required=True,
                   help="buffer level, seconds")
    p.add_argument("--solver-backend", choices=["reference", "fast"],
                   default="fast",
                   help="horizon solver backend for this decision")
    p.add_argument("--prev", type=int, default=None,
                   help="previous rung index (omit at session start)")
    p.add_argument("--max-buffer", type=float, default=20.0)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("tune", help="grid-search SODA weights on a dataset")
    p.add_argument("--dataset", choices=sorted(DATASET_FACTORIES),
                   default="puffer")
    p.add_argument("--sessions", type=int, default=4)
    p.add_argument("--duration", type=float, default=300.0)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser(
        "serve",
        help="drive the decision service with a clean synthetic workload",
    )
    _add_service_args(p)
    p.set_defaults(func=_cmd_serve, chaos=False)

    p = sub.add_parser(
        "soak",
        help="chaos-soak the decision service and check its invariants",
    )
    _add_service_args(p)
    p.add_argument("--intensity", type=float, default=0.3,
                   help="observation fault-plan intensity, 0..1")
    p.add_argument("--crash-rate", type=float, default=0.02,
                   help="random tier-0 crash probability")
    p.add_argument("--slow-rate", type=float, default=0.02,
                   help="random over-deadline tier-0 sleep probability")
    p.add_argument("--burst-at", type=int, default=200,
                   help="tier-0 call count at which the crash burst "
                        "starts (trips the breaker once)")
    p.add_argument("--kill-at", type=int, default=None,
                   help="with --shards: decision count at which a live "
                        "worker is SIGKILLed (default: half the run)")
    p.add_argument("--rollout", action="store_true",
                   help="with --shards >= 2: roll out a poisoned table "
                        "mid-run (plus a baseline worker SIGKILL) and "
                        "gate on automatic canary rollback")
    p.add_argument("--rollout-at", type=int, default=None,
                   help="decision count at which the rollout starts "
                        "(default: a third of the run)")
    p.add_argument("--rollout-report",
                   help="write the rollout/rollback report JSON here")
    p.set_defaults(func=_cmd_serve, chaos=True)

    p = sub.add_parser(
        "population",
        help="vectorized population simulation: 1M+ coarse fleet sessions",
    )
    p.add_argument("--sessions", type=int, default=100_000,
                   help="expected arrivals over the run")
    p.add_argument("--duration-hours", type=float, default=2.0,
                   help="simulated span, hours")
    p.add_argument("--tick", type=float, default=2.0,
                   help="event-core step, seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--capacity", type=int, default=0,
                   help="concurrent-session slab size (0 = auto from the "
                        "peak arrival rate; overflow arrivals are shed)")
    p.add_argument("--regions", type=int, default=8)
    p.add_argument("--cdns", type=int, default=3)
    p.add_argument("--flash-crowds", type=int, default=2,
                   help="flash-crowd bursts built into the arrival plan")
    p.add_argument("--storm-intensity", type=float, default=0.0,
                   help="correlated fault-storm intensity (0 = none)")
    p.add_argument("--content-minutes", type=float, default=40.0)
    p.add_argument("--max-buffer", type=float, default=20.0)
    p.add_argument("--table-points", type=int, default=32,
                   help="decision-table grid points per axis")
    p.add_argument("--backend", choices=["table", "solver"],
                   default="table",
                   help="decision backend: shared lookup table (default) "
                        "or exact cross-session batched tier-0 solves")
    p.add_argument("--checkpoint",
                   help="checkpoint file (.npz); the full population "
                        "state is written atomically every "
                        "--checkpoint-every ticks")
    p.add_argument("--checkpoint-every", type=int, default=50,
                   help="checkpoint cadence in ticks")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint if it exists (refuses "
                        "a config-hash mismatch); final aggregates are "
                        "bit-identical to an uninterrupted run")
    p.add_argument("--serve", action="store_true",
                   help="drive decisions through a live sharded decision "
                        "service (fleet-scale soak; excludes checkpoints)")
    p.add_argument("--shards", type=int, default=2,
                   help="with --serve: shard worker count")
    p.add_argument("--deadline", type=float, default=0.05,
                   help="with --serve: per-decision budget, seconds")
    p.add_argument("--kill-at", type=int, default=None,
                   help="with --serve: tick at which one live shard "
                        "worker is SIGKILLed (chaos)")
    p.add_argument("--report",
                   help="write the fleet report JSON (SLO curve, "
                        "per-cohort QoE distributions) here")
    p.add_argument("--out",
                   help="append a perf entry to this JSON trajectory file")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress lines")
    p.set_defaults(func=_cmd_population)

    p = sub.add_parser(
        "table",
        help="build or inspect a memory-mapped decision table file",
    )
    tsub = p.add_subparsers(dest="table_command", required=True)
    tp = tsub.add_parser("build", help="precompute a table and publish it")
    tp.add_argument("out", help="destination .sodatbl file")
    tp.add_argument("--table-points", type=int, default=32,
                    help="grid points per axis")
    tp.add_argument("--max-buffer", type=float, default=20.0,
                    help="client buffer capacity, seconds")
    tp.add_argument("--solver-backend", choices=["reference", "fast"],
                    default="fast")
    tp.add_argument("--table-version", type=int, default=None,
                    help="monotonic table version to stamp into the header "
                         "(default: 1)")
    tp.set_defaults(func=_cmd_table_build)
    tp = tsub.add_parser("inspect", help="validate and summarise a table file")
    tp.add_argument("path", help=".sodatbl file to inspect")
    tp.set_defaults(func=_cmd_table_inspect)

    p = sub.add_parser(
        "learn",
        help="offline learning pipeline: journals -> BC -> fine-tune "
             "-> distill -> serve",
    )
    lsub = p.add_subparsers(dest="learn_command", required=True)

    lp = lsub.add_parser(
        "extract", help="demonstration JSONL from a --log-decisions journal"
    )
    lp.add_argument("--journal", required=True,
                    help="source run journal (plain or gzip JSONL)")
    lp.add_argument("--out", required=True,
                    help="demonstration file to write (.gz compresses)")
    lp.add_argument("--controller", default="soda",
                    help="teacher whose decisions to keep")
    lp.set_defaults(func=_cmd_learn_extract)

    lp = lsub.add_parser(
        "bc", help="behavior-clone a greedy policy from demonstrations"
    )
    lp.add_argument("--demos", required=True, help="demonstration file")
    lp.add_argument("--out", required=True, help="policy JSON to write")
    lp.add_argument("--smoothing", type=float, default=0.5,
                    help="Laplace pseudo-count per action")
    lp.add_argument("--buffer-buckets", type=int, default=8)
    lp.add_argument("--throughput-buckets", type=int, default=8)
    lp.add_argument("--coverage-json",
                    help="write the state-coverage report JSON here")
    lp.set_defaults(func=_cmd_learn_bc)

    lp = lsub.add_parser(
        "finetune",
        help="RL fine-tuning: warm-start the Q-learner from a cloned "
             "policy, anchored to the teacher",
    )
    lp.add_argument("--policy", required=True, help="cloned policy JSON")
    lp.add_argument("--out", required=True,
                    help="fine-tuned policy JSON to write")
    lp.add_argument("--dataset", choices=sorted(DATASET_FACTORIES),
                    default="puffer")
    lp.add_argument("--sessions", type=int, default=4,
                    help="fine-tuning traces")
    lp.add_argument("--duration", type=float, default=240.0)
    lp.add_argument("--episodes", type=int, default=40)
    lp.add_argument("--anchor-epsilon", type=float, default=0.3,
                    help="per-decision probability of taking the "
                         "teacher's action (0 disables the anchor)")
    lp.add_argument("--epsilon-start", type=float, default=0.15)
    lp.add_argument("--epsilon-end", type=float, default=0.02)
    lp.add_argument("--seed", type=int, default=0)
    lp.set_defaults(func=_cmd_learn_finetune)

    lp = lsub.add_parser(
        "distill",
        help="render a policy onto a dense servable decision-table file",
    )
    lp.add_argument("--policy", required=True, help="policy JSON to distill")
    lp.add_argument("--out", required=True, help=".sodatbl file to write")
    lp.add_argument("--table-points", type=int, default=32,
                    help="grid points per axis")
    lp.add_argument("--table-version", type=int, default=1,
                    help="monotonic table version stamped into the header")
    lp.set_defaults(func=_cmd_learn_distill)

    lp = lsub.add_parser(
        "eval",
        help="stability evaluation of learned policies vs SODA on the "
             "robustness sweep",
    )
    lp.add_argument("--policy", required=True,
                    help="cloned policy JSON to evaluate")
    lp.add_argument("--finetuned",
                    help="fine-tuned policy JSON to evaluate alongside")
    lp.add_argument("--distilled",
                    help="distilled .sodatbl to evaluate at tier-1 lookup "
                         "semantics (adds a solver-table head-to-head)")
    lp.add_argument("--dataset", choices=sorted(DATASET_FACTORIES),
                    default="puffer")
    lp.add_argument("--sessions", type=int, default=4)
    lp.add_argument("--duration", type=float, default=240.0)
    lp.add_argument("--seed", type=int, default=1)
    lp.add_argument("--intensities", default="0,0.2",
                    help="comma-separated fault intensities, ascending")
    lp.add_argument("--jobs", type=int, default=1)
    lp.add_argument("--serve-check", action="store_true",
                    help="with --distilled: canary-roll the table onto a "
                         "live 2-shard service and require a commit")
    lp.add_argument("--out",
                    help="append the evaluation summary to this JSON "
                         "perf-trajectory file")
    lp.set_defaults(func=_cmd_learn_eval)

    return parser


def _add_service_args(p: argparse.ArgumentParser) -> None:
    """Workload/service options shared by serve/soak."""
    p.add_argument("--sessions", type=int, default=200,
                   help="synthetic streaming sessions to drive")
    p.add_argument("--segments", type=int, default=30,
                   help="decisions per session")
    p.add_argument("--threads", type=int, default=8,
                   help="concurrent client worker threads")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deadline", type=float, default=0.05,
                   help="per-decision budget, seconds")
    p.add_argument("--table-points", type=int, default=12,
                   help="tier-1 decision-table grid points per axis "
                        "(0 disables the table)")
    p.add_argument("--max-sessions", type=int, default=64,
                   help="resident-session cap (LRU eviction beyond it)")
    p.add_argument("--max-in-flight", type=int, default=4,
                   help="concurrent decision slots before load shedding")
    p.add_argument("--shards", type=int, default=0,
                   help="serve from a sharded fleet of this many worker "
                        "processes (0: one in-process service)")
    p.add_argument("--tier0-chunk", type=int, default=16,
                   help="sessions per batched tier-0 solver call in the "
                        "service's batch paths (1 disables cross-session "
                        "batching)")
    p.add_argument("--batch-window", type=float, default=0.0,
                   help="micro-batch collection window in seconds for the "
                        "clean serve workload (0 disables the "
                        "micro-batcher; requires --shards 0)")
    p.add_argument("--health-json",
                   help="write the final health snapshot JSON here "
                        "(the fleet health with --shards)")
    p.add_argument("--out",
                   help="append a perf summary entry (decisions/sec, "
                        "latency percentiles) to this JSON file")


# ----------------------------------------------------------------------
def _cmd_compare(args: argparse.Namespace) -> int:
    if args.resume and not args.journal:
        raise ValueError("--resume requires --journal")
    names = list(DATASET_FACTORIES) if args.dataset == "all" else [args.dataset]
    failed = 0
    flagged = 0
    for name in names:
        traces = DATASET_FACTORIES[name]().dataset(
            args.sessions, args.duration, seed=args.seed
        )
        profile = live_profile(
            session_seconds=args.duration, cellular=name in ("5g", "4g")
        )
        journal = args.journal
        if journal and len(names) > 1:
            journal = f"{journal}.{name}"
        suite = run_suite(
            standard_controllers(
                soda_config=SodaConfig(solver_backend=args.solver_backend)
            ),
            traces,
            profile,
            name,
            jobs=args.jobs,
            journal=journal,
            resume=args.resume,
            session_timeout=args.session_timeout,
            log_decisions=args.log_decisions,
        )
        print(f"\n=== {name} ({args.sessions} × {args.duration:.0f}s) ===")
        summaries = suite.summaries()
        if summaries:
            print(qoe_table(summaries))
        else:
            print("(every session failed — see the failure summary)")
        _print_failures(suite)
        failed += suite.failure_count
        flagged += suite.flagged_count
    if args.strict_audit and flagged:
        raise ValueError(
            f"--strict-audit: {flagged} session(s) flagged by the "
            f"invariant auditor"
        )
    return 1 if failed else 0


def _cmd_session(args: argparse.Namespace) -> int:
    if args.trace_csv:
        trace = load_bandwidth_csv(args.trace_csv)
    else:
        trace = _SCENARIOS[args.scenario](args.duration)
    profile = live_profile(session_seconds=min(args.duration, trace.duration))
    controller = _CONTROLLERS[args.controller]()
    recorder = TimelineRecorder(controller)
    result = run_session(recorder, trace, profile.ladder, profile.player)
    metrics = qoe_from_session(result)
    print(f"controller={controller.name} trace={trace.name or 'csv'}")
    print(f"qoe={metrics.qoe:.3f} utility={metrics.utility:.3f} "
          f"rebuf={metrics.rebuffer_ratio:.4f} "
          f"switch={metrics.switching_rate:.3f} "
          f"abandonments={result.abandonments}")
    if args.timeline:
        print(recorder.timeline(result).render(limit=80))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.summarize:
        trace = load_bandwidth_csv(args.summarize)
        stats = trace.stats()
        print(f"{args.summarize}: duration={stats.duration:.0f}s "
              f"mean={stats.mean:.2f} Mb/s rsd={stats.rsd:.1%} "
              f"min={stats.minimum:.2f} max={stats.maximum:.2f}")
        return 0
    trace = DATASET_FACTORIES[args.dataset]().generate(
        args.duration, seed=args.seed
    )
    stats = trace.stats()
    print(f"generated {args.dataset} trace: mean={stats.mean:.2f} Mb/s "
          f"rsd={stats.rsd:.1%}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write("time,bandwidth\n")
            t = 0.0
            for duration, bandwidth in zip(trace.durations, trace.bandwidths):
                f.write(f"{t:.3f},{bandwidth:.6f}\n")
                t += duration
            f.write(f"{t:.3f},{trace.bandwidths[-1]:.6f}\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    try:
        intensities = [float(x) for x in args.intensities.split(",") if x]
    except ValueError:
        raise ValueError(
            f"--intensities must be comma-separated numbers, "
            f"got {args.intensities!r}"
        )
    if not intensities:
        raise ValueError("--intensities must name at least one level")
    if args.resume and not args.journal:
        raise ValueError("--resume requires --journal")
    traces = DATASET_FACTORIES[args.dataset]().dataset(
        args.sessions, args.duration, seed=args.seed
    )
    profile = live_profile(
        session_seconds=args.duration, cellular=args.dataset in ("5g", "4g")
    )
    report = sweep_fault_intensity(
        traces,
        profile,
        intensities=sorted(intensities),
        seed=args.seed,
        resilient=args.resilient,
        dataset_name=args.dataset,
        jobs=args.jobs,
        journal=args.journal,
        resume=args.resume,
        session_timeout=args.session_timeout,
    )
    mode = " (resilient wrappers)" if args.resilient else ""
    print(f"=== robustness: {args.dataset} "
          f"({args.sessions} × {args.duration:.0f}s){mode} ===")
    print(report.render())
    _print_failures(report)
    if args.strict_audit and report.flagged_count:
        raise ValueError(
            f"--strict-audit: {report.flagged_count} session(s) flagged "
            f"by the invariant auditor"
        )
    return 1 if report.failure_count else 0


def _cmd_decide(args: argparse.Namespace) -> int:
    profile = live_profile()
    controller = SodaController(
        config=SodaConfig(solver_backend=args.solver_backend)
    )
    decision = controller.decide(
        args.throughput, args.buffer, args.prev, profile.ladder,
        args.max_buffer,
    )
    if decision is None:
        print("decision: defer (no download — overflow region)")
    else:
        print(f"decision: rung {decision} "
              f"({profile.ladder.bitrate(decision):.2f} Mb/s)")
    plan = controller.last_plan
    if plan is not None and plan.feasible:
        print(f"planned sequence: {list(plan.sequence)} "
              f"(objective {plan.objective:.4f}, "
              f"{plan.evaluations} candidates scored)")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    traces = DATASET_FACTORIES[args.dataset]().dataset(
        args.sessions, args.duration, seed=args.seed
    )
    profile = live_profile(
        session_seconds=args.duration, cellular=args.dataset in ("5g", "4g")
    )
    result = tune_soda(traces, profile)
    print(result.render(n=8))
    best = result.best.config
    print(f"\nbest: beta={best.beta} gamma={best.gamma} "
          f"kappa={best.switch_event_cost} target={best.target_buffer}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Shared implementation of ``serve`` (clean) and ``soak`` (chaos)."""
    from .service import SoakConfig, run_soak

    cfg = SoakConfig(
        sessions=args.sessions,
        segments_per_session=args.segments,
        threads=args.threads,
        seed=args.seed,
        chaos=args.chaos,
        deadline=args.deadline,
        max_in_flight=args.max_in_flight,
        max_sessions=args.max_sessions,
        table_points=args.table_points,
        fault_intensity=getattr(args, "intensity", 0.0),
        crash_rate=getattr(args, "crash_rate", 0.0),
        slow_rate=getattr(args, "slow_rate", 0.0),
        burst_at=getattr(args, "burst_at", 200),
        shards=args.shards,
        kill_at=getattr(args, "kill_at", None),
        rollout=getattr(args, "rollout", False),
        rollout_at=getattr(args, "rollout_at", None),
        tier0_chunk=args.tier0_chunk,
        batch_window=args.batch_window,
    )
    report = run_soak(cfg, progress=lambda line: print(f"  {line}"))
    mode = "soak" if args.chaos else "serve"
    print(f"\n=== {mode}: {report.decisions} decisions in "
          f"{report.elapsed:.2f}s "
          f"({report.decisions_per_second():.0f}/s) ===")
    if report.fleet is not None:
        fleet = report.fleet
        print(f"fleet: shards={fleet.shards} "
              f"deaths={fleet.worker_deaths} "
              f"restarts={fleet.worker_restarts} "
              f"rehomed={fleet.sessions_rehomed} "
              f"failovers={fleet.failovers}")
        print(f"fleet: table_versions={fleet.table_versions} "
              f"per-shard restarts="
              f"{[s.get('restarts', 0) for s in fleet.per_shard]} "
              f"retries granted={fleet.retries_granted} "
              f"denied={fleet.retries_denied}")
        if report.rollout_report is not None:
            roll = report.rollout_report
            outcome = "committed" if roll.committed else (
                "rolled back" if roll.rolled_back else "aborted"
            )
            print(f"rollout: v{roll.previous_version} -> "
                  f"v{roll.target_version} {outcome} ({roll.reason})")
        rollup = fleet.rollup
        print(f"rollup: tiers solver={rollup.get('tier0_decisions', 0):.0f} "
              f"table={rollup.get('tier1_decisions', 0):.0f} "
              f"rule={rollup.get('tier2_decisions', 0):.0f} "
              f"(evictions={rollup.get('evictions', 0):.0f}, "
              f"sheds={rollup.get('sheds', 0):.0f})")
        if rollup.get("batching_batches"):
            print(f"batching: batches="
                  f"{rollup['batching_batches']:.0f} "
                  f"occupancy="
                  f"{rollup.get('batching_mean_occupancy', 0.0):.1f} "
                  f"amortized="
                  f"{rollup.get('batching_amortized_ms', 0.0):.3f}ms")
        lat = fleet.latency
        latency_max = fleet.latency_max
        health_json = fleet.to_json()
    else:
        snapshot = report.snapshot
        stats = snapshot.stats
        print(f"tiers: solver={stats.tier0_decisions} "
              f"table={stats.tier1_decisions} rule={stats.tier2_decisions} "
              f"(shed={stats.shed}, {stats.shed_rate():.1%})")
        print(f"armor: solver_errors={stats.solver_errors} "
              f"overruns={stats.deadline_overruns} "
              f"sanitized={stats.sanitized_observations} "
              f"deferrals={stats.deferrals_resolved}")
        print(f"sessions: created={stats.sessions_created} "
              f"evicted={stats.sessions_evicted} "
              f"high-water={stats.max_sessions_seen}")
        print(f"breaker: state={snapshot.breaker_state} "
              f"opened={snapshot.breaker_times_opened} "
              f"full_cycles={snapshot.breaker_full_cycles}")
        batching = snapshot.batching
        if batching.get("batches"):
            print(f"batching: batches={batching['batches']:.0f} "
                  f"decisions={batching['batched_decisions']:.0f} "
                  f"occupancy={batching['mean_occupancy']:.1f} "
                  f"max={batching['max_batch']:.0f} "
                  f"amortized={batching['amortized_ms']:.3f}ms")
        lat = snapshot.latency
        latency_max = snapshot.latency_max
        health_json = snapshot.to_json()
    print(f"latency: p50={lat['p50'] * 1e3:.2f}ms "
          f"p95={lat['p95'] * 1e3:.2f}ms p99={lat['p99'] * 1e3:.2f}ms "
          f"max={latency_max * 1e3:.1f}ms "
          f"(deadline {args.deadline * 1e3:.0f}ms)")
    if args.health_json:
        with open(args.health_json, "w", encoding="utf-8") as f:
            f.write(health_json)
            f.write("\n")
        print(f"wrote {args.health_json}")
    rollout_report_path = getattr(args, "rollout_report", None)
    if rollout_report_path:
        if report.rollout_report is None:
            print(f"repro: warning: no rollout ran; skipping "
                  f"{rollout_report_path}", file=sys.stderr)
        else:
            with open(rollout_report_path, "w", encoding="utf-8") as f:
                f.write(report.rollout_report.to_json())
                f.write("\n")
            print(f"wrote {rollout_report_path}")
    if args.out:
        _append_perf_entry(args.out, {
            "mode": mode,
            "shards": args.shards,
            "decisions": report.decisions,
            "elapsed": report.elapsed,
            "decisions_per_second": report.decisions_per_second(),
            "latency": dict(lat),
            "latency_max": latency_max,
            "deadline": args.deadline,
            "violations": len(report.violations),
            "batching": (
                {k: v for k, v in report.fleet.rollup.items()
                 if k.startswith("batching_")}
                if report.fleet is not None
                else dict(report.snapshot.batching)
            ),
        })
        print(f"appended perf entry to {args.out}")
    if report.violations:
        print(f"\n{len(report.violations)} invariant violation(s):",
              file=sys.stderr)
        for line in report.violations[:20]:
            print(f"repro: violation: {line}", file=sys.stderr)
        return 1
    print("\nall serving invariants held")
    return 0


def _append_perf_entry(path: str, entry: dict) -> None:
    """Append one run entry to a ``{"runs": [...]}`` perf-trajectory file.

    The journal is long-lived and hand-edited in practice, so a
    malformed prior file (or malformed entries inside it) must not cost
    the run that just finished: bad content is skipped with a stderr
    warning and the fresh entry is still appended.
    """
    import json
    import time as _time

    entry = dict(entry)
    entry["timestamp"] = _time.strftime(
        "%Y-%m-%dT%H:%M:%SZ", _time.gmtime()
    )
    runs = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            existing = json.load(f)
    except FileNotFoundError:
        existing = {"runs": []}
    except (OSError, ValueError) as exc:
        print(f"repro: warning: --out file {path} is not a perf journal "
              f"({exc}); starting a fresh one", file=sys.stderr)
        existing = {"runs": []}
    prior = existing.get("runs", []) if isinstance(existing, dict) else None
    if prior is None:
        print(f"repro: warning: --out file {path} has no 'runs' list; "
              f"starting a fresh one", file=sys.stderr)
        prior = []
    elif not isinstance(prior, list):
        print(f"repro: warning: --out file {path} 'runs' is not a list; "
              f"starting a fresh one", file=sys.stderr)
        prior = []
    for i, run in enumerate(prior):
        if isinstance(run, dict):
            runs.append(run)
        else:
            print(f"repro: warning: skipping malformed entry {i} in "
                  f"{path} ({type(run).__name__})", file=sys.stderr)
    runs.append(entry)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"runs": runs}, f, indent=2, sort_keys=True)
        f.write("\n")


def _cmd_population(args: argparse.Namespace) -> int:
    import os

    from .sim.population import (
        PopulationConfig,
        PopulationSim,
        ServiceBackend,
        SolverBackend,
    )

    if args.serve and (args.checkpoint or args.resume):
        raise ValueError(
            "--serve answers are not bit-deterministic (timeouts, "
            "failovers); checkpoints/--resume require the table or "
            "solver backend"
        )
    if args.resume and not args.checkpoint:
        raise ValueError("--resume requires --checkpoint")

    config = PopulationConfig(
        sessions=args.sessions,
        duration_hours=args.duration_hours,
        tick_seconds=args.tick,
        seed=args.seed,
        capacity=args.capacity,
        regions=args.regions,
        cdns=args.cdns,
        flash_crowds=args.flash_crowds,
        content_minutes=args.content_minutes,
        max_buffer=args.max_buffer,
        storm_intensity=args.storm_intensity,
        table_points=args.table_points,
    )

    ladder = live_profile().ladder
    backend = None
    service = None
    kill_state = {"done": False}
    if args.serve:
        from .service import ShardedDecisionService

        service = ShardedDecisionService(
            ladder,
            config.max_buffer,
            shards=max(args.shards, 1),
            deadline=args.deadline,
            table_points=args.table_points,
            max_sessions=1 << 20,
        )
        backend = ServiceBackend(service, ladder, config.max_buffer)
    elif args.backend == "solver":
        backend = SolverBackend(ladder, config.max_buffer)

    def on_tick(tick: int) -> None:
        if (
            args.serve
            and args.kill_at is not None
            and tick >= args.kill_at
            and not kill_state["done"]
        ):
            import signal as _signal

            live = service.live_shards()
            if live:
                pid = service.worker_pids()[live[0]]
                os.kill(pid, _signal.SIGKILL)
                kill_state["done"] = True
                if not args.quiet:
                    print(f"chaos: SIGKILLed shard {live[0]} worker "
                          f"(pid {pid}) at tick {tick}")

    resumed = bool(
        args.resume and args.checkpoint and os.path.exists(args.checkpoint)
    )
    cadence = args.checkpoint_every if args.checkpoint else 0
    if resumed:
        sim = PopulationSim.resume(
            args.checkpoint, config, ladder=ladder, backend=backend,
            checkpoint_every=cadence,
        )
        if not args.quiet:
            print(f"resumed from {args.checkpoint} at tick {sim.tick}")
    else:
        sim = PopulationSim(
            config, ladder=ladder, backend=backend,
            checkpoint_path=args.checkpoint, checkpoint_every=cadence,
        )

    progress = None if args.quiet else (lambda line: print(line))
    try:
        report = sim.run(progress=progress, on_tick=on_tick)
    finally:
        if backend is not None and hasattr(backend, "close"):
            backend.close()

    fleet = report.fleet["fleet"]
    print(f"\npopulation: {fleet['arrivals']} arrivals over "
          f"{report.ticks} ticks ({config.duration_hours:g}h sim) "
          f"in {report.elapsed:.1f}s wall "
          f"[{report.backend} backend, {report.decisions} decisions]")
    print(f"  finished {fleet['finished']} "
          f"(completed {fleet['completed']}, abandoned {fleet['abandoned']}) "
          f"shed {fleet['shed']} censored {fleet['censored']}")
    print(f"  rebuffer-SLO (<= {config.rebuffer_slo:g}) attainment: "
          f"{fleet['slo_attainment']:.4f}")
    for name, cohort in report.fleet["cohorts"].items():
        print(f"  {name}: {cohort['arrivals']} arrivals, "
              f"slo {cohort['slo_attainment']:.4f}, "
              f"abandon {cohort['abandon_rate']:.4f}, "
              f"shed {cohort['shed_rate']:.4f}, "
              f"mean bitrate {cohort['mean_bitrate']:.2f} Mb/s")
    if report.service is not None:
        health = report.service.get("fleet_health") or {}
        print(f"  service: failovers={report.service['failovers']} "
              f"worker_deaths={health.get('worker_deaths', 0)} "
              f"restarts={health.get('worker_restarts', 0)} "
              f"rehomed={health.get('sessions_rehomed', 0)}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(report.to_json())
            f.write("\n")
        print(f"wrote {args.report}")
    if args.out:
        _append_perf_entry(args.out, {
            "mode": "population",
            "backend": report.backend,
            "sessions": args.sessions,
            "finished": fleet["finished"],
            "ticks": report.ticks,
            "decisions": report.decisions,
            "elapsed": report.elapsed,
            "sessions_per_second": report.sessions_per_second(),
            "slo_attainment": fleet["slo_attainment"],
            "storm_intensity": args.storm_intensity,
            "resumed_from_tick": report.resumed_from_tick,
        })
        print(f"appended perf entry to {args.out}")
    return 0


def _cmd_table_build(args: argparse.Namespace) -> int:
    from .core.lookup import DecisionTable
    from .sim.profiles import live_profile as _profile

    if args.table_points < 2:
        raise ValueError("--table-points must be at least 2")
    ladder = _profile().ladder
    table = DecisionTable(
        ladder,
        args.max_buffer,
        config=SodaConfig(solver_backend=args.solver_backend),
        throughput_points=args.table_points,
        buffer_points=args.table_points,
    )
    table.save_mmap(args.out, version=args.table_version)
    shape = table.shape
    print(f"wrote {args.out}: v{table.version}, {shape[0]}x{shape[1]} grid, "
          f"{shape[2]} prev slots, built in {table.stats.build_seconds:.2f}s")
    return 0


def _cmd_table_inspect(args: argparse.Namespace) -> int:
    from .core.lookup import DecisionTable

    table = DecisionTable.load_mmap(args.path)
    header, _, _ = DecisionTable._read_header(args.path)
    shape = table.shape
    print(f"{args.path}: valid decision table")
    print(f"  table version: {table.version}, "
          f"crc32: {header.get('crc32', 0):#010x} (verified)")
    print(f"  grid: {shape[0]} throughput x {shape[1]} buffer points, "
          f"{shape[2]} prev slots, {table.ladder.levels} rungs")
    print(f"  throughput range: {table.tput_grid[0]:.2f}"
          f"-{table.tput_grid[-1]:.2f} Mb/s; "
          f"buffer 0-{table.buffer_grid[-1]:.1f}s")
    print(f"  originally built in {table.stats.build_seconds:.2f}s")
    return 0


# ----------------------------------------------------------------------
def _cmd_learn_extract(args: argparse.Namespace) -> int:
    from .learn import extract_demonstrations

    report = extract_demonstrations(
        args.journal, args.out, controller=args.controller
    )
    skipped = f" ({report.skipped} session(s) skipped)" if report.skipped else ""
    print(f"extracted {report.decisions} decisions from {report.sessions} "
          f"'{report.controller}' session(s) -> {report.path}{skipped}")
    return 0


def _cmd_learn_bc(args: argparse.Namespace) -> int:
    import json

    from .learn import fit_bc, load_demonstrations

    dataset = load_demonstrations(
        args.demos,
        buffer_buckets=args.buffer_buckets,
        throughput_buckets=args.throughput_buckets,
    )
    policy, coverage = fit_bc(dataset, smoothing=args.smoothing)
    policy.save(args.out)
    print(f"cloned '{dataset.controller}' from {dataset.decisions} decisions "
          f"into {args.out} ({len(policy.values)} states)")
    print(coverage.render())
    if args.coverage_json:
        with open(args.coverage_json, "w", encoding="utf-8") as f:
            json.dump(coverage.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.coverage_json}")
    return 0


def _cmd_learn_finetune(args: argparse.Namespace) -> int:
    from .learn import PolicyTable, finetune, policy_from_q

    policy = PolicyTable.load(args.policy)
    traces = DATASET_FACTORIES[args.dataset]().dataset(
        args.sessions, args.duration, seed=args.seed
    )
    profile = live_profile(
        session_seconds=args.duration, cellular=args.dataset in ("5g", "4g")
    )
    agent = finetune(
        policy,
        traces,
        player_config=profile.player,
        episodes=args.episodes,
        epsilon_start=args.epsilon_start,
        epsilon_end=args.epsilon_end,
        anchor_epsilon=args.anchor_epsilon,
        seed=args.seed,
    )
    tuned = policy_from_q(agent, policy.ladder, policy.max_buffer, name="ft")
    tuned.save(args.out)
    print(f"fine-tuned '{policy.name}' over {args.episodes} episodes on "
          f"{len(traces)} {args.dataset} trace(s) "
          f"(anchor ε={args.anchor_epsilon:g}): "
          f"{len(tuned.values)} states -> {args.out}")
    return 0


def _cmd_learn_distill(args: argparse.Namespace) -> int:
    import numpy as np

    from .learn import PolicyTable, distill_policy

    if args.table_points < 2:
        raise ValueError("--table-points must be at least 2")
    policy = PolicyTable.load(args.policy)
    table = distill_policy(
        policy,
        throughput_points=args.table_points,
        buffer_points=args.table_points,
        version=args.table_version,
    )
    table.save_mmap(args.out)
    shape = table.shape
    defer_fraction = float(np.mean(table._table < 0))
    print(f"distilled '{policy.name}' -> {args.out}: v{table.version}, "
          f"{shape[0]}x{shape[1]} grid, {shape[2]} prev slots, "
          f"defer fraction {defer_fraction:.1%}, "
          f"built in {table.stats.build_seconds:.2f}s")
    return 0


def _cmd_learn_eval(args: argparse.Namespace) -> int:
    from .core.lookup import DecisionTable
    from .learn import (
        PolicyController,
        PolicyTable,
        TableController,
        evaluate_stability,
    )

    try:
        intensities = sorted(float(x) for x in args.intensities.split(",") if x)
    except ValueError:
        raise ValueError(
            f"--intensities must be comma-separated numbers, "
            f"got {args.intensities!r}"
        )
    if not intensities:
        raise ValueError("--intensities must name at least one level")
    if args.serve_check and not args.distilled:
        raise ValueError("--serve-check requires --distilled")

    traces = DATASET_FACTORIES[args.dataset]().dataset(
        args.sessions, args.duration, seed=args.seed
    )
    profile = live_profile(
        session_seconds=args.duration, cellular=args.dataset in ("5g", "4g")
    )

    policies = {}
    cloned = PolicyTable.load(args.policy)
    policies[cloned.name or "bc"] = lambda p=cloned: PolicyController(p)
    if args.finetuned:
        tuned = PolicyTable.load(args.finetuned)
        name = tuned.name if tuned.name not in policies else "ft"
        policies[name] = lambda p=tuned: PolicyController(p)
    distilled = None
    if args.distilled:
        distilled = DecisionTable.load_mmap(args.distilled)
        policies["distilled"] = (
            lambda t=distilled: TableController(t, name="distilled")
        )
        solver_table = DecisionTable(
            profile.ladder,
            distilled.max_buffer,
            throughput_points=distilled.shape[0],
            buffer_points=distilled.shape[1],
        )
        policies["solver-table"] = (
            lambda t=solver_table: TableController(t, name="solver-table")
        )

    report, summary = evaluate_stability(
        policies,
        traces,
        profile,
        intensities=intensities,
        seed=args.seed,
        dataset_name=args.dataset,
        jobs=args.jobs,
    )
    print(f"=== learn eval: {args.dataset} "
          f"({args.sessions} × {args.duration:.0f}s) ===")
    print(report.render())
    for name, row in summary.items():
        delta = "" if name == "soda" else (
            f"  [vs soda: qoe {row['qoe_delta']:+.3f} "
            f"switch {row['switch_delta']:+.3f} "
            f"rebuf {row['rebuffer_delta']:+.4f}]"
        )
        print(f"{name}: qoe={row['qoe_faulted']:.3f} "
              f"switch={row['switching_rate']:.3f} "
              f"rebuf={row['rebuffer_ratio']:.4f}{delta}")
    _print_failures(report)

    committed = None
    if args.serve_check:
        from .service import ShardedDecisionService

        service = ShardedDecisionService(
            profile.ladder,
            distilled.max_buffer,
            shards=2,
            deadline=0.25,
            table_points=10,
        )
        try:
            roll = service.rollout(distilled, probation=0.2)
        finally:
            service.close()
        committed = roll.committed
        outcome = "committed" if roll.committed else (
            f"rolled back ({roll.reason})" if roll.rolled_back
            else f"aborted ({roll.reason})"
        )
        print(f"serve-check: rollout v{roll.previous_version} -> "
              f"v{roll.target_version} {outcome} on 2 shards")

    if args.out:
        _append_perf_entry(args.out, {
            "mode": "learn-eval",
            "dataset": args.dataset,
            "sessions": args.sessions,
            "intensities": intensities,
            "summary": summary,
            "serve_check_committed": committed,
        })
        print(f"appended perf entry to {args.out}")
    if report.failure_count:
        return 1
    if committed is False:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, JournalError) as exc:
        # Operational errors (missing trace file, malformed CSV, bad
        # argument values, unusable/mismatched journals) get a one-line
        # message, not a traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
