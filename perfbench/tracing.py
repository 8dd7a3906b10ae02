"""Span tracing from outside the program.

The benchmark measures each ``repro`` layer without touching ``src/``: a
:class:`Tracer` replaces a layer's public entry points (class methods,
module-level names other modules call through, dict entries such as
``core.controller._SOLVERS``) with wrappers that record one span per call.

A span is ``(name, start_ns, end_ns, parent, rid, size)``: ``parent`` is the
index of the enclosing span in the same process (``-1`` for a root), ``rid``
the request id the load generator (or a shard worker, from the message it
received) set on the calling thread, and ``size`` an optional count taken
from the call (rows in a batch, candidates scored, a plan-cache hit).  Spans
stay in per-thread memory and are exported when the run ends; shard workers
hand theirs back inside the ``stop`` handshake when the fleet drains.

The analysis half computes a span's *self time* (its duration minus the part
of it its children cover) and the *blocking path* through a span tree: of
children that overlap in time (shard workers serving one batch in
parallel), only the one that ends last blocks the parent.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: field order of an exported span
NAME, START, END, PARENT, RID, SIZE = range(6)

Span = Tuple[str, int, int, int, object, int]


@contextmanager
def patched(owner, attr, replacement):
    """Rebind ``owner.attr`` (``owner[attr]`` for a dict) to
    ``replacement`` for the duration of the block; yields the original."""
    if isinstance(owner, dict):
        original = owner[attr]
        owner[attr] = replacement
        try:
            yield original
        finally:
            owner[attr] = original
        return
    own = attr in vars(owner)
    original = vars(owner)[attr] if own else getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


class _Buffer:
    """One thread's spans plus its stack of open span indices."""

    __slots__ = ("spans", "stack")

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []


class Tracer:
    """Records spans around patched entry points; restores them on exit.

    Args:
        clock: integer nanosecond clock shared by every process of a run.
            ``time.perf_counter_ns`` reads ``CLOCK_MONOTONIC`` on Linux,
            which forked shard workers share with the front end.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self._patches = ExitStack()
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span (a forked worker starts empty)."""
        self._lock = threading.Lock()
        self._buffers: List[_Buffer] = []
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            self._local.rid = None
            with self._lock:
                self._buffers.append(buf)
        return buf

    def set_rid(self, rid) -> None:
        """Tag spans the calling thread records from now on."""
        self._buffer()
        self._local.rid = rid

    def wrap(self, name: str, fn: Callable, size: Optional[Callable] = None):
        """``fn`` recording one span per call; ``size(args, kwargs, result)``
        supplies the span's count (``result`` is ``None`` if ``fn`` raised)."""
        tracer = self
        clock = self.clock

        def traced(*args, **kwargs):
            local = tracer._local
            buf = getattr(local, "buf", None) or tracer._buffer()
            spans = buf.spans
            stack = buf.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (
                    name, start, end, parent, local.rid,
                    size(args, kwargs, result) if size is not None else 0,
                )

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        buf = self._buffer()
        idx = len(buf.spans)
        buf.spans.append(None)
        parent = buf.stack[-1] if buf.stack else -1
        buf.stack.append(idx)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            buf.stack.pop()
            buf.spans[idx] = (name, start, end, parent, self._local.rid, 0)

    # ------------------------------------------------------------------
    def patch(self, owner, attr, name: str, size: Optional[Callable] = None):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a
        traced wrapper; :meth:`restore` puts the original back."""
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self.replace(owner, attr, self.wrap(name, original, size))

    def replace(self, owner, attr, replacement) -> None:
        """Rebind ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.enter_context(patched(owner, attr, replacement))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        self._patches.close()

    # ------------------------------------------------------------------
    def export(self) -> List[Span]:
        """Every finished span of this process, parents re-indexed into the
        returned list (spans still open are dropped with their subtrees)."""
        out: List[Span] = []
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            remap: Dict[int, int] = {}
            for i, span in enumerate(list(buf.spans)):
                if span is None:
                    continue
                parent = span[PARENT]
                if parent >= 0:
                    if parent not in remap:
                        continue
                    parent = remap[parent]
                remap[i] = len(out)
                out.append(span[:PARENT] + (parent,) + span[PARENT + 1:])
        return out


# ----------------------------------------------------------------------
# shard workers: spans recorded after fork travel back on the stop reply
# ----------------------------------------------------------------------
SPANS_KEY = "perfbench_spans"


class _TracedConn:
    """A worker's pipe end that tags spans with the request they serve and
    attaches the worker's spans to its final ``bye`` health reply."""

    def __init__(self, conn, tracer: Tracer) -> None:
        self._conn = conn
        self._tracer = tracer

    def recv(self):
        msg = self._conn.recv()
        # a columnar batch is tagged with the front end's send time
        self._tracer.set_rid(("vbatch", msg[-1]) if msg[0] == "vbatch" else None)
        return msg

    def send(self, obj) -> None:
        if obj and obj[0] == "bye":
            payload = dict(obj[1])
            payload[SPANS_KEY] = self._tracer.export()
            obj = ("bye", payload)
        self._conn.send(obj)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def traced_worker_main(tracer: Tracer, original: Callable) -> Callable:
    """Wrap a shard worker's entry point (installed before the fleet forks)."""

    def worker_main(conn, *args):
        tracer.reset()
        original(_TracedConn(conn, tracer), *args)

    return worker_main


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
class SpanSet:
    """Spans of one run, merged across processes, with their tree."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        self.children: Dict[int, List[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[PARENT] >= 0:
                self.children[span[PARENT]].append(i)

    def adopt(self, foreign: Sequence[Span], parent_of: Callable) -> None:
        """Append another process's spans; ``parent_of(root_span)`` names
        the local span each foreign root ran under (or ``-1``)."""
        base = len(self.spans)
        for span in foreign:
            parent = span[PARENT]
            parent = parent + base if parent >= 0 else parent_of(span)
            self.spans.append(span[:PARENT] + (parent,) + span[PARENT + 1:])
            if parent >= 0:
                self.children[parent].append(len(self.spans) - 1)

    def duration(self, i: int) -> int:
        span = self.spans[i]
        return span[END] - span[START]

    def self_time(self, i: int) -> int:
        """Duration minus the union of the children's intervals."""
        return self_time(self.spans[i], [self.spans[c] for c in self.children[i]])

    def blocking(self, i: int, out: Dict[str, int], layer_of: Callable) -> None:
        """Add the self time of every span on ``i``'s blocking path to
        ``out[layer_of(name)]``."""
        stack = [i]
        while stack:
            j = stack.pop()
            path = blocking_children(
                self.spans[j], [(c, self.spans[c]) for c in self.children[j]]
            )
            covered = sum(self.duration(c) for c in path)
            out[layer_of(self.spans[j][NAME])] += self.duration(j) - covered
            stack.extend(path)


def self_time(span: Span, children: Sequence[Span]) -> int:
    """``span``'s duration minus the part of it covered by ``children``."""
    covered = 0
    cursor = span[START]
    for child in sorted(children, key=lambda c: c[START]):
        lo = max(child[START], cursor)
        hi = min(child[END], span[END])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span[END] - span[START]) - covered


def blocking_children(span: Span, children: Sequence[Tuple[int, Span]]) -> List[int]:
    """Children on the blocking path: walking back from the parent's end,
    each next child is the latest-ending one that finished before the
    previously chosen child started.  Sequential children are all chosen;
    of overlapping ones only the last to finish is."""
    path: List[int] = []
    cursor = span[END]
    for idx, child in sorted(children, key=lambda c: c[1][END], reverse=True):
        if child[END] <= cursor and child[START] >= span[START]:
            path.append(idx)
            cursor = child[START]
    return path
