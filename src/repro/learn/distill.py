"""Distillation: a learned policy as a dense, servable decision grid.

The sparse policy table becomes a dense int8
:class:`~repro.core.lookup.DecisionTable` on the same wire format the
solver-derived tables use (``save_mmap``/``load_mmap``, CRC-checksummed,
versioned), so a learned policy plugs into the entire serving stack
unchanged: :class:`~repro.core.lookup.TablePublisher` publishes it,
:meth:`~repro.service.shard.ShardedDecisionService.rollout` canaries it
wave-by-wave with automatic rollback, and every shard worker memory-maps
the same pages.

Grid cells map through the policy's own decision rule
(:meth:`~repro.learn.bc.PolicyTable.decide`): visited states keep their
greedy action, learned defers become the table's ``-1`` defer cells
(tier 1 resolves those by holding the previous rung), and unvisited
states distill to the safe-hold fallback — never to defer, so low
demonstration coverage cannot inflate the defer fraction the rollout
canary probes.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..abr.base import AbrController, PlayerObservation
from ..abr.rl import encode_state
from ..core.lookup import _DEFER, DecisionTable, TableStats
from ..core.objective import SodaConfig
from .bc import PolicyTable

__all__ = ["distill_policy", "TableController"]


def distill_policy(
    policy: PolicyTable,
    throughput_points: int = 48,
    buffer_points: int = 48,
    version: int = 1,
    config: Optional[SodaConfig] = None,
) -> DecisionTable:
    """Render a policy onto a dense (throughput × buffer × prev) grid.

    The grid axes match the solver-built tables exactly (log-spaced
    throughput over 1/4×..4× the ladder span, linear buffer, prev-rung
    axis with slot 0 = "no previous rung"), so a distilled table is a
    drop-in tier-1 replacement: same lookup code, same mmap format, same
    rollout machinery.

    Args:
        policy: the (cloned or fine-tuned) policy to distill.
        throughput_points / buffer_points: grid resolution; resolutions
            beyond the policy's bucket counts cost nothing but land on
            the same cells.
        version: monotonic table version stamped into the header.
        config: SODA config recorded in the header (the distilled table
            never solves, but the wire format carries one); defaults to
            the stock fast-backend config.

    Raises:
        ValueError: degenerate grid sizes or version.
    """
    if throughput_points < 2 or buffer_points < 2:
        raise ValueError("grids need at least two points per axis")
    if version < 1:
        raise ValueError("table version must be at least 1")
    start = time.perf_counter()
    ladder = policy.ladder
    table = DecisionTable.__new__(DecisionTable)
    table.ladder = ladder
    table.max_buffer = policy.max_buffer
    table.config = config or SodaConfig(solver_backend="fast")
    table.version = version
    table._set_grids(
        np.geomspace(
            0.25 * ladder.min_bitrate, 4.0 * ladder.max_bitrate,
            throughput_points,
        ),
        np.linspace(0.0, policy.max_buffer, buffer_points),
    )
    grid = np.full(
        (throughput_points, buffer_points, ladder.levels + 1),
        _DEFER,
        dtype=np.int8,
    )
    for ti, tput in enumerate(table._tput_grid):
        for bi, buf in enumerate(table._buffer_grid):
            for prev_axis in range(ladder.levels + 1):
                prev = None if prev_axis == 0 else prev_axis - 1
                state = encode_state(
                    float(buf),
                    float(tput),
                    prev,
                    policy.max_buffer,
                    ladder.min_bitrate,
                    ladder.max_bitrate,
                    policy.buffer_buckets,
                    policy.throughput_buckets,
                )
                decision = policy.decide(state, prev)
                grid[ti, bi, prev_axis] = (
                    _DEFER if decision is None else decision
                )
    table._table = grid
    table.stats = TableStats(
        cells=int(grid.size),
        build_seconds=time.perf_counter() - start,
        memory_bytes=int(grid.nbytes),
    )
    return table


class TableController(AbrController):
    """Serve any :class:`DecisionTable` as an ABR controller.

    Tier-1 semantics in controller form: every decision is a
    nearest-neighbour ``lookup_observation``, and a defer cell returns
    ``None`` (the player idles briefly and asks again).  This is how the
    distilled and solver-built tables are compared head-to-head through
    the ordinary QoE pipeline.
    """

    def __init__(self, table: DecisionTable, name: str = "table") -> None:
        super().__init__(predictor=None)
        self.table = table
        self.name = name

    def select_quality(self, obs: PlayerObservation) -> Optional[int]:
        decision = self.table.lookup_observation(obs)
        if decision is not None and not 0 <= decision < obs.ladder.levels:
            return obs.ladder.levels - 1
        return decision
