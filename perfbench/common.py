"""Pieces every workload shares: results, cold set-ups, memory, digests."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

#: end-to-end metric → unit, as BENCHMARK.json declares them
E2E_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "decisions_per_s": "decisions/s",
    "peak_rss_mb": "MiB",
}

#: cold set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3


@dataclass
class Outcome:
    """What one pass of a workload measured and checked.

    ``metrics`` holds the end-to-end metrics of BENCHMARK.json; ``extra``
    the workload's own headline figures (``sessions_per_s``,
    ``tier0_share``, ``fail_share``) printed by name with their units.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, tuple] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: traced passes: per-layer metrics, waterfall rows, and the spans
    layers: Dict[str, float] = field(default_factory=dict)
    waterfall: List[tuple] = field(default_factory=list)
    spans: Optional[object] = None

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


# ----------------------------------------------------------------------
def seed_for(*parts: int) -> int:
    """A 32-bit seed derived from the workload seed and a sub-stream id."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def digest(obj) -> str:
    """SHA-256 of ``obj`` as canonical JSON (floats by ``repr``)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(name: str) -> Optional[str]:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
    with open(path) as fh:
        return json.load(fh).get(name)


@contextmanager
def timed_phase():
    """Collect, then freeze, everything the inputs and set-up allocated, so
    the collector never rescans the benchmark's own long-lived data while
    the clock runs; objects the program allocates are collected as usual."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


# ----------------------------------------------------------------------
def cold_setups(
    setup: Callable[[], object],
    teardown: Callable[[object], None],
    repeats: int = SETUP_REPEATS,
):
    """Run ``setup`` ``repeats`` times from a cold process; return
    ``(median seconds, the last set-up's result)``.

    The first ``repeats - 1`` set-ups run in forked children (torn down
    there) so in-process caches a set-up fills never make a later one look
    cheaper; the last runs here and its result is kept.  Call before the
    process starts any thread.
    """
    times = [_setup_in_child(setup, teardown) for _ in range(repeats - 1)]
    started = time.perf_counter()
    kept = setup()
    times.append(time.perf_counter() - started)
    return statistics.median(times), kept


def _setup_in_child(setup, teardown) -> float:
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: time one set-up, report it, never return
        code = 1
        try:
            os.close(read_fd)
            started = time.perf_counter()
            kept = setup()
            elapsed = time.perf_counter() - started
            teardown(kept)
            os.write(write_fd, repr(elapsed).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks = []
    while True:
        chunk = os.read(read_fd, 64)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(read_fd)
    _, status = os.waitpid(pid, 0)
    if status != 0 or not chunks:
        raise RuntimeError("set-up failed in a forked child")
    return float(b"".join(chunks))


# ----------------------------------------------------------------------
def peak_rss_mb(worker_pids: Iterable[Optional[int]] = ()) -> float:
    """Peak resident memory (``VmHWM``) of this process plus the given
    live workers, MiB."""
    total_kb = _vm_hwm_kb("self")
    for pid in worker_pids:
        if pid is not None:
            total_kb += _vm_hwm_kb(str(pid))
    return total_kb / 1024.0


def _vm_hwm_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    if pid == "self":
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return 0


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def ms_percentiles(latencies_s: Sequence[float]) -> Dict[str, float]:
    arr = np.asarray(latencies_s, dtype=float)
    return {
        "p50_ms": float(np.percentile(arr, 50)) * 1e3,
        "p99_ms": float(np.percentile(arr, 99)) * 1e3,
    }

