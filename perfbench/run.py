"""Benchmark entry point.

    python3 perfbench/run.py --workload sweep|fleet|population \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: it benchmarks the ``repro`` package under
``src/`` next to this directory.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the workload twice on the same inputs, once
traced and once not, and reports the per-layer metrics, the waterfall and
the tracing overhead.  Both print every metric by name with its unit, then
one JSON line ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is 1 when a correctness check failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

#: workload (the module with its ``run_pass``) → the e2e metric the tracing
#: overhead is read from: throughput for closed loops, p50 for open ones
WORKLOADS = {
    "sweep": "decisions_per_s",
    "fleet": "p50_ms",
    "population": "decisions_per_s",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_repro():
    """Import ``repro`` from this checkout's ``src/`` or fail loudly."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def _print_metrics(title, metrics, units):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")


def _write_spans(spans, workload, seed) -> str:
    import numpy as np

    from tracing import END, NAME, PARENT, RID, SIZE, START

    names = sorted({s[NAME] for s in spans.spans})
    code = {n: i for i, n in enumerate(names)}
    path = os.path.join(WORK, f"trace-{workload}-{seed}.npz")
    np.savez_compressed(
        path,
        names=np.asarray(names),
        name=np.asarray([code[s[NAME]] for s in spans.spans], dtype=np.int16),
        start=np.asarray([s[START] for s in spans.spans], dtype=np.int64),
        end=np.asarray([s[END] for s in spans.spans], dtype=np.int64),
        parent=np.asarray([s[PARENT] for s in spans.spans], dtype=np.int64),
        size=np.asarray([s[SIZE] for s in spans.spans], dtype=np.int64),
        rid=np.asarray([repr(s[RID]) for s in spans.spans]),
    )
    return path


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    _import_repro()
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    # Anything the program puts in a temp file stays inside the checkout.
    tempfile.tempdir = os.path.join(WORK, "tmp")

    from common import E2E_UNITS
    from layers import PER_LAYER, install
    from tracing import Tracer

    overhead_metric = WORKLOADS[args.workload]
    run_pass = importlib.import_module(args.workload).run_pass

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if not args.trace:
        out = run_pass(args.seed, args.seconds, None, True)
        metrics = {name: out.metrics[name] for name in E2E_UNITS}
        _print_metrics("end-to-end:", metrics, E2E_UNITS)
        outcomes = [out]
    else:
        # Traced pass first, so its set-up (a table build, say) runs cold.
        tracer = Tracer()
        install(tracer)
        try:
            traced = run_pass(args.seed, args.seconds / 2, tracer, False)
        finally:
            tracer.restore()
        # Write the spans out and let them go before the untraced pass.
        span_count = len(traced.spans.spans)
        span_file = _write_spans(traced.spans, args.workload, args.seed)
        traced.spans = None
        plain = run_pass(args.seed, args.seconds / 2, None, False)
        before = plain.metrics[overhead_metric]
        after = traced.metrics[overhead_metric]
        overhead = (before / after - 1.0) if overhead_metric == "decisions_per_s" \
            else (after / before - 1.0)
        traced.layers["trace.overhead"] = overhead
        shown = [m for m in E2E_UNITS if m in plain.metrics and m != "setup_s"]
        _print_metrics("end-to-end, untraced pass:",
                       {m: plain.metrics[m] for m in shown}, E2E_UNITS)
        _print_metrics("end-to-end, traced pass:",
                       {m: traced.metrics[m] for m in shown}, E2E_UNITS)
        print(f"tracing overhead: {overhead:+.1%} on {overhead_metric} "
              f"({span_count} spans)")
        print("waterfall (blocking-path self time per layer):")
        for layer, seconds, frac in traced.waterfall:
            print(f"  {layer:<28} {seconds * 1e3:>12.2f} ms {frac:>8.1%}")
        print(f"  closure {traced.layers['waterfall.closure']:.4f} "
              f"(layers + generator wait over traced end-to-end time)")
        metrics = {name: traced.layers[name] for name in PER_LAYER}
        _print_metrics("per-layer:", metrics, PER_LAYER)
        print(f"spans written to {span_file}")
        outcomes = [traced, plain]

    first = outcomes[0]
    print("workload figures:")
    for name, (value, unit) in first.extra.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    problems = [p for o in outcomes for p in o.problems]
    for o in outcomes:
        for note in o.notes:
            print(f"note: {note}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    units = PER_LAYER if args.trace else E2E_UNITS
    print(json.dumps({
        "correct": not problems,
        "attempted": int(first.attempted),
        "failed": int(first.failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
