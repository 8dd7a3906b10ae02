"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py

They pin what the benchmark's numbers rest on: the digest check, open-loop
lateness accounting, span self time and the blocking path, failure counting,
and that tracing patches come off again.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

from common import digest, load_golden  # noqa: E402
from layers import waterfall  # noqa: E402
from loadgen import Timing, failed_answers, open_loop  # noqa: E402
from tracing import SpanSet, Tracer, blocking_children, self_time  # noqa: E402


class FakeClock:
    """Seconds that advance only when someone sleeps or works."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
def test_golden_digest_rejects_a_perturbed_rung():
    import sweep

    rows = sweep.golden_rows()
    assert digest(rows) == load_golden("sweep")
    rows[1]["rungs"][7] = (rows[1]["rungs"][7] + 1) % 6
    assert digest(rows) != load_golden("sweep")


def test_stalled_request_charges_lateness_to_requests_behind_it():
    clock = FakeClock()

    def send(k):
        clock.sleep(0.100 if k == 2 else 0.001)  # request 2 stalls 100 ms

    timings = open_loop(8, 0.010, send, clock=clock, sleep=clock.sleep, lead=0.0)
    assert [round(t.lateness, 6) for t in timings[:3]] == [0.0, 0.0, 0.0]
    # request 3 was due at 30 ms but could only go at 120 ms, and so on:
    # the stall's wait lands on every request queued behind it.
    assert timings[3].lateness == pytest.approx(0.090)
    assert timings[4].lateness == pytest.approx(0.081)
    assert timings[3].latency == pytest.approx(0.091)
    assert all(t.lateness > 0.05 for t in timings[3:])


def test_self_time_subtracts_child_spans():
    parent = ("p", 0, 100, -1, None, 0)
    children = [("a", 10, 30, 0, None, 0), ("b", 40, 70, 0, None, 0)]
    assert self_time(parent, children) == 50
    # overlapping children are counted once
    overlapping = [("a", 10, 30, 0, None, 0), ("b", 20, 50, 0, None, 0)]
    assert self_time(parent, overlapping) == 60


def test_blocking_path_keeps_only_the_last_of_parallel_children():
    parent = ("front", 0, 100, -1, None, 0)
    shards = [(1, ("w0", 5, 60, 0, None, 0)), (2, ("w1", 10, 90, 0, None, 0))]
    assert blocking_children(parent, shards) == [2]
    sequential = [(1, ("a", 5, 40, 0, None, 0)), (2, ("b", 50, 90, 0, None, 0))]
    assert blocking_children(parent, sequential) == [2, 1]


def test_waterfall_closes_over_nested_and_parallel_spans():
    spans = SpanSet([
        ("loadgen.batch", 0, 100, -1, 0, 0),
        ("service.shard.decide_many", 2, 98, 0, 0, 0),
        ("service.decide_columns", 5, 60, 1, 0, 0),
        ("service.decide_columns", 10, 90, 1, 0, 0),
        ("core.lookup.gather", 70, 80, 3, 0, 0),
    ])
    rows, closure = waterfall(spans, [0], wait_s=20e-9, e2e_s=120e-9)
    assert closure == pytest.approx(1.0)
    by_layer = {layer: seconds for layer, seconds, _ in rows}
    assert by_layer["service"] == pytest.approx(70e-9)  # slowest shard only
    assert by_layer["service.shard"] == pytest.approx(16e-9)
    assert by_layer["loadgen.wait"] == pytest.approx(20e-9)


def test_fail_share_counts_late_and_failover_answers():
    deadline = 0.050
    timings = [
        Timing(0.0, 0.0, 0.010),   # on time
        Timing(0.0, 0.0, 0.060),   # late
        Timing(0.0, 0.001, 0.020),  # on time, but from the failover floor
        Timing(0.0, 0.0, None),    # never answered
    ]
    assert failed_answers(timings, [0, 0, 1, 0], deadline) == 3
    # batches: a late or lost batch fails every answer in it
    assert failed_answers(timings, [0, 0, 3, 0], deadline, 8) == 8 + 3 + 8


def test_tracer_records_spans_and_restores_patches():
    class Layer:
        def work(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n * 2

    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    original_work = Layer.work
    tracer.patch(Layer, "work", "outer")
    tracer.patch(Layer, "inner", "inner", lambda a, k, r: a[1])
    tracer.set_rid("r1")
    assert Layer().work(3) == 7
    tracer.restore()
    assert Layer.work is original_work
    spans = SpanSet(tracer.export())
    names = [s[0] for s in spans.spans]
    assert names == ["outer", "inner"]
    assert spans.spans[1][3] == 0 and spans.spans[1][4] == "r1"
    assert spans.spans[1][5] == 3
    assert spans.self_time(0) == spans.duration(0) - spans.duration(1)
