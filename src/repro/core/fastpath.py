"""NumPy-vectorized fast path for the horizon solvers (drop-in).

The reference solvers in :mod:`repro.core.solver` walk the candidate tree
with a Python recursion — clear, but the per-decision cost dominates
large-scale sweeps.  This module replaces the recursion with four pieces:

* **candidate enumeration caches** — all monotonic rung sequences for a
  given (available levels, horizon, direction) are enumerated once, in the
  exact lexicographic order the reference DFS visits them, and memoised as
  index matrices (:func:`monotone_candidates` / :func:`product_candidates`);
* **horizon-major candidate bundles** — everything that does not depend on
  the live (prediction, buffer) state — per-step ``Δt/r`` factors and their
  prefix sums, distortion values and row sums, and the full switching-cost
  term — is precomputed per (ladder, config, previous rung) into a
  :class:`_Bundle` whose per-step arrays are stored ``(K, candidates)``, so
  a horizon reduction is a few whole-array operations at any candidate
  count;
* **two scoring kernels** over those bundles — :func:`_solve_bundle` for
  one decision (S=1), and the session-axis kernel :func:`_solve_segments`
  behind :func:`solve_sessions_batch`, which scores many sessions on their
  own anchors' bundles in one pass.  Both add every per-step term with
  :func:`_horizon_sum`, left to right, and run each candidate through the
  same operations in the same order, so a batched plan is bit-identical
  to the single solve;
* **a per-session plan cache** (:class:`PlanCache`) keyed by quantized
  (buffer, previous rung, prediction vector) state, consulted by
  :class:`~repro.core.controller.SodaController` before solving.

``solve_monotonic_fast`` / ``solve_brute_force_fast`` mirror the reference
signatures.  Objectives agree with the reference up to floating-point
association (the vectorized kernel sums the same terms in a different
order), which the differential suite bounds at the solver tolerance; the
candidate sets and the first-found-minimum tie-breaking are identical, so
committed decisions match the reference except at exact cost ties between
distinct sequences.

On the fast path :attr:`PlanResult.evaluations` reports the number of
candidate *sequences* scored (the §5.3 C(|R|+K, K) quantity, see
:func:`monotone_candidate_count`), whereas the reference recursion counts
feasible node expansions; per-backend the number is meaningful, across
backends it is not comparable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.video import BitrateLadder
from .objective import _DISTORTIONS, SodaConfig
from .solver import _TOL, PlanResult

__all__ = [
    "monotone_candidates",
    "product_candidates",
    "monotone_candidate_count",
    "solve_monotonic_fast",
    "solve_brute_force_fast",
    "solve_sessions_batch",
    "SessionSolveRequest",
    "PlanCache",
]


# ----------------------------------------------------------------------
# Candidate enumeration (cached per (levels, horizon) shape)
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def monotone_candidates(levels: int, horizon: int) -> np.ndarray:
    """All non-decreasing sequences of ``horizon`` values in [0, levels).

    Rows are in lexicographic order — the order the reference SearchUp DFS
    reaches its leaves — so first-occurrence ``argmin`` reproduces the
    reference tie-breaking.  Shape ``(C(levels+horizon-1, horizon), horizon)``.
    """
    if levels < 1 or horizon < 1:
        raise ValueError("need at least one level and one interval")
    rows = list(itertools.combinations_with_replacement(range(levels), horizon))
    out = np.asarray(rows, dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def product_candidates(levels: int, horizon: int) -> np.ndarray:
    """All ``levels**horizon`` sequences, in the brute-force DFS order."""
    if levels < 1 or horizon < 1:
        raise ValueError("need at least one level and one interval")
    if levels ** horizon > 4_000_000:
        raise ValueError(
            f"brute-force candidate set {levels}^{horizon} is too large"
        )
    rows = list(itertools.product(range(levels), repeat=horizon))
    out = np.asarray(rows, dtype=np.int64)
    out.setflags(write=False)
    return out


def monotone_candidate_count(
    levels: int, horizon: int, prev_quality: Optional[int]
) -> int:
    """Sequences the fast monotonic solver scores for one situation.

    From anchor ``a`` that is ``C(|R|-a+K-1, K)`` non-decreasing plus
    ``C(a+K, K)`` non-increasing sequences (the constant plan appears in
    both, exactly as the reference searches it twice); with no anchor both
    directions span the full ladder.  With an anchor the total is bounded
    by the paper's C(|R|+K, K).
    """
    if prev_quality is None:
        return 2 * math.comb(levels + horizon - 1, horizon)
    up = math.comb(levels - prev_quality + horizon - 1, horizon)
    down = math.comb(prev_quality + horizon, horizon)
    return up + down


@lru_cache(maxsize=256)
def _ladder_arrays(
    bitrates: Tuple[float, ...], distortion: str
) -> Tuple[np.ndarray, np.ndarray]:
    """(rates, v) arrays for a ladder signature, memoised across calls."""
    fn = _DISTORTIONS[distortion]
    rates = np.asarray(bitrates, dtype=float)
    v = np.asarray(
        [fn(r, bitrates[0], bitrates[-1]) for r in bitrates], dtype=float
    )
    rates.setflags(write=False)
    v.setflags(write=False)
    return rates, v


# ----------------------------------------------------------------------
# Per-(ladder, config, anchor) candidate bundles
# ----------------------------------------------------------------------
def _horizon_sum(terms: np.ndarray) -> np.ndarray:
    """``Σ_k terms[k]`` over the leading (horizon) axis, left to right.

    The sum is ``((t₀ + t₁) + t₂) + …``, one whole-array add per step.
    Every per-step sum of both kernels and of the bundle precompute goes
    through here, so the bits of an objective are fixed by this code, not
    by how NumPy happens to order a reduction (DESIGN §8).
    """
    total = terms[0].copy()
    for row in terms[1:]:
        total += row
    return total


class _Bundle:
    """Everything about a candidate set that the live state cannot change.

    Candidates are the SearchUp block before the SearchDown block, each in
    reference DFS order.  The per-step arrays are horizon-major, shape
    ``(K, count)``, and are the bundle's only copy: ``gain_base[k]`` holds
    step k's ``Δt/r`` for every candidate, ``cum_gain_base`` its running
    sum along the steps, and ``vq`` the distortion values, so a kernel
    reduces or sums over the horizon with a few whole-array operations at
    any candidate count.  Per candidate it also keeps the first rung, the
    distortion row sum ``Σ_k v_k·Δt/r_k`` and the fully precomputed
    switching-cost row sum ``γ·Σ_k c(r_k, r_{k-1})``, both summed by
    :func:`_horizon_sum`, and the sequence as a Python tuple ready to
    return.
    """

    __slots__ = (
        "first_rungs", "max_first_rung", "gain_base", "cum_gain_base", "vq",
        "dist_row_base", "switch_row", "dt_ramp", "count", "sequences",
    )

    def __init__(
        self,
        candidates: np.ndarray,
        cfg: SodaConfig,
        rates: np.ndarray,
        v: np.ndarray,
        dt: float,
        anchor_v: Optional[float],
    ) -> None:
        count, horizon = candidates.shape
        steps = np.ascontiguousarray(candidates.T)
        self.first_rungs = steps[0].copy()
        self.max_first_rung = int(self.first_rungs.max())
        self.gain_base = dt / rates[steps]
        # Prefix sums and distortion row sums let a *constant* prediction —
        # the common case online — skip the per-call cumsum and distortion
        # sum: with ω_k ≡ ω the trajectory is ω·cumsum(Δt/r) - k·Δt and the
        # distortion term is ω·Σ_k v_k·Δt/r_k.
        self.cum_gain_base = np.cumsum(self.gain_base, axis=0)
        self.vq = v[steps]
        self.dist_row_base = _horizon_sum(self.vq * self.gain_base)
        d = np.empty_like(self.vq)
        d[1:] = self.vq[1:] - self.vq[:-1]
        d[0] = 0.0 if anchor_v is None else self.vq[0] - anchor_v
        switch = d * d
        if cfg.switch_event_cost > 0:
            switch += cfg.switch_event_cost * (np.abs(d) > 1e-12)
        if anchor_v is None:
            switch[0] = 0.0
        self.switch_row = cfg.gamma * _horizon_sum(switch)
        self.dt_ramp = dt * np.arange(1, horizon + 1)[:, None]
        self.count = count
        self.sequences = list(map(tuple, candidates.tolist()))


@lru_cache(maxsize=4096)
def _monotone_bundle(
    bitrates: Tuple[float, ...],
    cfg: SodaConfig,
    prev_quality: Optional[int],
    dt: float,
) -> _Bundle:
    """SearchUp ∪ SearchDown candidates for one anchored situation."""
    rates, v = _ladder_arrays(bitrates, cfg.distortion)
    levels = len(bitrates)
    if prev_quality is None:
        up = monotone_candidates(levels, cfg.horizon)
        down = (levels - 1) - monotone_candidates(levels, cfg.horizon)
        anchor_v = None
    else:
        up = prev_quality + monotone_candidates(
            levels - prev_quality, cfg.horizon
        )
        down = prev_quality - monotone_candidates(
            prev_quality + 1, cfg.horizon
        )
        anchor_v = float(v[prev_quality])
    candidates = np.concatenate([up, down], axis=0)
    return _Bundle(candidates, cfg, rates, v, dt, anchor_v)


@lru_cache(maxsize=4096)
def _brute_bundle(
    bitrates: Tuple[float, ...],
    cfg: SodaConfig,
    prev_quality: Optional[int],
    dt: float,
) -> _Bundle:
    """All |R|^K candidates for one anchored situation."""
    rates, v = _ladder_arrays(bitrates, cfg.distortion)
    candidates = product_candidates(len(bitrates), cfg.horizon)
    anchor_v = None if prev_quality is None else float(v[prev_quality])
    return _Bundle(candidates, cfg, rates, v, dt, anchor_v)


# ----------------------------------------------------------------------
# The vectorized scoring kernel
# ----------------------------------------------------------------------
def _pred(omega, horizon: int):
    """Normalise a prediction to a scalar (constant ω) or a K-vector.

    Mirrors the validation of :func:`repro.core.solver._prepare`, but
    collapses constant vectors to a scalar so the kernel can use the
    bundle's precomputed prefix sums.  A normalised prediction normalises
    to itself: a float stays the same float and a 1-D vector the same
    array.
    """
    if type(omega) is float or type(omega) is int:
        # Hot path: plain scalars skip the np.ndim dispatch entirely.
        w = float(omega)
        if w < 0:
            raise ValueError("throughput predictions must be non-negative")
        return w
    if np.ndim(omega) == 0:
        w = float(omega)
        if w < 0:
            raise ValueError("throughput predictions must be non-negative")
        return w
    arr = np.atleast_1d(np.asarray(omega, dtype=float))
    # The checks run on Python floats, which compare exactly as the array
    # does (NaN included); on a K-vector, array reductions cost several
    # times more than the whole list pass.
    values = arr.ravel().tolist()
    if len(values) == 1:
        w = values[0]
        if w < 0:
            raise ValueError("throughput predictions must be non-negative")
        return w
    if len(values) != horizon:
        raise ValueError(
            f"prediction length {len(values)} does not match horizon {horizon}"
        )
    if any(v < 0 for v in values):
        raise ValueError("throughput predictions must be non-negative")
    w = values[0]
    if all(v == w for v in values):
        return w
    return arr if arr.ndim == 1 else arr.ravel()


@lru_cache(maxsize=64)
def _buffer_weights(cfg: SodaConfig) -> np.ndarray:
    """``[β·ε, β]``: the buffer-cost weight of a step above the target
    x̄ (index 0) and at or below it (index 1), so a kernel reads each
    step's weight from its ``x ≤ x̄`` test with one ``take``."""
    weights = np.array([cfg.beta * cfg.epsilon, cfg.beta])
    weights.setflags(write=False)
    return weights


def _solve_bundle(
    bundle: _Bundle,
    omega,
    buffer_level: float,
    cfg: SodaConfig,
    target: float,
    max_buffer: float,
    first_cap: Optional[int],
    terminal_weight: float,
) -> PlanResult:
    """Score every candidate of ``bundle`` for one live state, pick the best.

    The S=1 kernel.  ``omega`` is a scalar (constant prediction,
    precomputed prefix-sum path) or a per-interval vector.  Each
    candidate's objective is ``((distortion + buffer cost) + switching) +
    terminal``, with both per-step sums taken by :func:`_horizon_sum`.
    ``argmin`` takes the first occurrence, and rows are ordered exactly as
    the reference DFS visits sequences (SearchUp block first), so exact
    ties resolve the same way the recursion resolves them.
    """
    if isinstance(omega, float):
        # Constant prediction: trajectory and distortion from prefix sums.
        x = omega * bundle.cum_gain_base
        x += buffer_level - bundle.dt_ramp                # buffer trajectory
        total = omega * bundle.dist_row_base              # distortion term
    else:
        gain = omega[:, None] * bundle.gain_base          # ω_k·Δt/r_k
        x = np.cumsum(gain, axis=0)
        x += buffer_level - bundle.dt_ramp
        gain *= bundle.vq
        total = _horizon_sum(gain)
    feasible = (x.min(axis=0) >= -_TOL) & (x.max(axis=0) <= max_buffer + _TOL)

    dev = target - x
    dev *= dev                                            # (x̄ - x_k)²
    dev *= _buffer_weights(cfg).take((x <= target).view(np.int8))
    total += _horizon_sum(dev)                            # β·b(x) term
    total += bundle.switch_row                            # γ·c(·,·) term
    if terminal_weight > 0:
        t_dev = x[-1] - target
        total += (terminal_weight * t_dev) * t_dev

    evaluations = bundle.count
    if first_cap is not None and first_cap < bundle.max_first_rung:
        allowed = bundle.first_rungs <= first_cap
        evaluations = int(np.count_nonzero(allowed))
        feasible &= allowed
    total = np.where(feasible, total, math.inf)

    best = int(np.argmin(total))
    objective = float(total[best])
    if not math.isfinite(objective):
        return PlanResult(None, math.inf, (), evaluations)
    seq = bundle.sequences[best]
    return PlanResult(seq[0], objective, seq, evaluations)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def solve_monotonic_fast(
    omega: Sequence[float] | float,
    buffer_level: float,
    prev_quality: Optional[int],
    ladder: BitrateLadder,
    cfg: SodaConfig,
    max_buffer: float,
    dt: Optional[float] = None,
    first_cap: Optional[int] = None,
    terminal_weight: float = 0.0,
) -> PlanResult:
    """Vectorized drop-in for :func:`repro.core.solver.solve_monotonic`."""
    dt = ladder.segment_duration if dt is None else dt
    pred = _pred(omega, cfg.horizon)
    bundle = _monotone_bundle(tuple(ladder.bitrates), cfg, prev_quality, dt)
    return _solve_bundle(
        bundle, pred, float(buffer_level), cfg, cfg.resolve_target(max_buffer),
        max_buffer, first_cap, terminal_weight,
    )


def solve_brute_force_fast(
    omega: Sequence[float] | float,
    buffer_level: float,
    prev_quality: Optional[int],
    ladder: BitrateLadder,
    cfg: SodaConfig,
    max_buffer: float,
    dt: Optional[float] = None,
    first_cap: Optional[int] = None,
    terminal_weight: float = 0.0,
) -> PlanResult:
    """Vectorized drop-in for :func:`repro.core.solver.solve_brute_force`."""
    dt = ladder.segment_duration if dt is None else dt
    pred = _pred(omega, cfg.horizon)
    bundle = _brute_bundle(tuple(ladder.bitrates), cfg, prev_quality, dt)
    return _solve_bundle(
        bundle, pred, float(buffer_level), cfg, cfg.resolve_target(max_buffer),
        max_buffer, first_cap, terminal_weight,
    )


# ----------------------------------------------------------------------
# Cross-session batched solving
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class SessionSolveRequest:
    """One session's live decision state for :func:`solve_sessions_batch`.

    Mirrors the argument list of :func:`solve_monotonic_fast` — ``omega``
    may be a scalar or a horizon-length vector; ``dt=None`` defaults to the
    ladder's segment duration, exactly as the single-session entry point
    does.  ``omega`` may also be the value :func:`_pred` normalised it to,
    as :func:`~repro.core.controller.select_quality_batch` stores it: the
    batch normalises that to the same float or the same array, and a
    constant prediction then costs only a float check.
    """

    omega: Sequence[float] | float
    buffer_level: float
    prev_quality: Optional[int]
    ladder: BitrateLadder
    cfg: SodaConfig
    max_buffer: float
    dt: Optional[float] = None
    first_cap: Optional[int] = None
    terminal_weight: float = 0.0


# Cap on elements per (candidate rows × horizon) scoring pass, summed over
# the pass's sessions, so a large fleet over a brute-force bundle cannot
# balloon transient arrays; sessions beyond the cap are scored in
# successive passes.
_BATCH_ELEMENT_BUDGET = 2_000_000


def _solve_segments(
    bundles: Sequence[_Bundle],
    omegas: np.ndarray,
    scalar: bool,
    buffers: np.ndarray,
    cfg: SodaConfig,
    targets: np.ndarray,
    max_buffers: np.ndarray,
    caps: Sequence[Optional[int]],
    terminal_weights: np.ndarray,
) -> List[PlanResult]:
    """Score S sessions, each on its own anchor's bundle, in one pass.

    The session-axis kernel.  Session ``s``'s candidate block,
    ``bundles[s]``, is laid end to end with the others along one row
    axis, so the per-step arrays are ``(K, Σ count)``; its live state
    (``ω``, buffer, target, buffer cap, first-rung cap, terminal weight)
    is repeated over its block's rows.  Every row then goes through the
    operations of :func:`_solve_bundle`, in the same order and on the
    same operands — elementwise products and sums, exact ``min``/``max``
    over the steps, :func:`_horizon_sum` — so its score is bit-identical
    to the S=1 kernel's.  The pick is a first-occurrence argmin within
    each session's segment: the segment minimum, then the first row of
    the segment holding it.
    """
    count_list = [b.count for b in bundles]
    counts = np.asarray(count_list, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    dt_ramp = bundles[0].dt_ramp
    if scalar:
        # Constant predictions: prefix-sum path, ω repeated per row.
        omega_rows = np.repeat(omegas, counts)
        x = np.concatenate([b.cum_gain_base for b in bundles], axis=1)
        x *= omega_rows
        total = np.concatenate([b.dist_row_base for b in bundles])
        total *= omega_rows
    else:
        gain = np.concatenate([b.gain_base for b in bundles], axis=1)
        gain *= np.repeat(omegas.T, counts, axis=1)
        x = np.cumsum(gain, axis=0)
        gain *= np.concatenate([b.vq for b in bundles], axis=1)
        total = _horizon_sum(gain)
        del gain
    x += np.repeat(buffers - dt_ramp, counts, axis=1)
    feasible = x.min(axis=0) >= -_TOL
    feasible &= x.max(axis=0) <= np.repeat(max_buffers + _TOL, counts)

    target_rows = np.repeat(targets, counts)
    # The S=1 kernel skips the terminal term entirely when the weight is
    # zero (0·inf² would poison otherwise-feasible rows), so it applies
    # only to the rows of sessions that carry one.
    weighted = None
    if (terminal_weights > 0).any():
        tw_rows = np.repeat(terminal_weights, counts)
        weighted = np.flatnonzero(tw_rows > 0)
        t_dev = x[-1, weighted] - target_rows[weighted]
        t_term = (tw_rows[weighted] * t_dev) * t_dev
    below = x <= target_rows
    dev = np.subtract(target_rows, x, out=x)              # x is spent
    dev *= dev
    dev *= _buffer_weights(cfg).take(below.view(np.int8))
    total += _horizon_sum(dev)
    total += np.concatenate([b.switch_row for b in bundles])
    if weighted is not None:
        total[weighted] += t_term

    evaluations = count_list
    limits = [
        b.max_first_rung if c is None else min(c, b.max_first_rung)
        for b, c in zip(bundles, caps)
    ]
    if any(lim < b.max_first_rung for lim, b in zip(limits, bundles)):
        allowed = np.concatenate([b.first_rungs for b in bundles])
        allowed = allowed <= np.repeat(limits, counts)
        evaluations = np.add.reduceat(allowed, starts, dtype=np.intp).tolist()
        feasible &= allowed
    np.copyto(total, math.inf, where=~feasible)

    # First-occurrence argmin per segment: the first row at or after each
    # segment's start that holds the segment's minimum.  A segment whose
    # minimum is not finite (all rows infeasible, or a NaN score, which
    # the S=1 argmin would pick) has no plan, whatever row is picked.
    seg_min = np.minimum.reduceat(total, starts)
    hits = np.flatnonzero(total == np.repeat(seg_min, counts))
    if hits.size:
        best = hits[np.minimum(np.searchsorted(hits, starts), hits.size - 1)]
    else:
        best = starts
    objectives = total[best].tolist()
    best_in_block = (best - starts).tolist()
    plans: List[PlanResult] = []
    for s, finite in enumerate(np.isfinite(seg_min).tolist()):
        if not finite:
            plans.append(PlanResult(None, math.inf, (), evaluations[s]))
            continue
        seq = bundles[s].sequences[best_in_block[s]]
        plans.append(PlanResult(seq[0], objectives[s], seq, evaluations[s]))
    return plans


def solve_sessions_batch(
    requests: Sequence[SessionSolveRequest],
) -> List[PlanResult]:
    """Solve many sessions' decisions in a few vectorized passes.

    Requests are grouped by ``(ladder, config, Δt)`` and by whether the
    prediction normalises to a scalar (constant ω) or a genuine
    per-interval vector, because the single-session kernel uses different
    (bit-inequivalent) arithmetic for the two.  The previous rung is not
    part of the key: each group is scored by one call of the session-axis
    kernel, :func:`_solve_segments`, which lays every session's own
    anchor bundle end to end (brute-force bundles when
    ``cfg.use_brute_force``).  Ladder and config are compared by identity
    (the service shares one of each across sessions); equal-but-distinct
    objects fall into separate, equally correct groups.  Per-session
    anchor, ``target``/``max_buffer``/``first_cap``/``terminal_weight``
    vary freely inside a group.  A group whose rows × horizon exceed
    ``_BATCH_ELEMENT_BUDGET`` is scored in successive passes.

    Results come back in request order and each equals, bit for bit, what
    :func:`solve_monotonic_fast` (or the brute variant, per
    ``cfg.use_brute_force``) returns for that request alone.  Invalid
    predictions raise ``ValueError`` exactly as the single-session entry
    points do — callers wanting per-session fault isolation should
    pre-validate (see ``repro.core.controller.select_quality_batch``).
    """
    results: List[Optional[PlanResult]] = [None] * len(requests)
    # Group by *identity* of (ladder, config): hashing a SodaConfig and
    # rebuilding the bitrate tuple per request is measurable at serving
    # batch sizes, while id() is a dict probe on two ints.  The service
    # shares one ladder and one config object across every session, so
    # identity grouping loses no batching there; distinct-but-equal
    # objects merely split into smaller (still correct) groups.
    groups: Dict[tuple, tuple] = {}
    for i, req in enumerate(requests):
        dt = req.dt
        if dt is None:
            dt = req.ladder.segment_duration
        pred = _pred(req.omega, req.cfg.horizon)
        scalar = isinstance(pred, float)
        key = (id(req.ladder), id(req.cfg), dt, scalar)
        entry = groups.get(key)
        if entry is None:
            groups[key] = entry = (req, dt, scalar, [], [])
        entry[3].append(i)
        entry[4].append(pred)
    for first_req, dt, scalar, idx, preds in groups.values():
        cfg = first_req.cfg
        bitrates = tuple(first_req.ladder.bitrates)
        bundle_fn = _brute_bundle if cfg.use_brute_force else _monotone_bundle
        by_anchor: Dict[Optional[int], _Bundle] = {}
        bundles, buf_list, mb_list, tw_list, caps = [], [], [], [], []
        for i in idx:
            r = requests[i]
            bundle = by_anchor.get(r.prev_quality)
            if bundle is None:
                bundle = bundle_fn(bitrates, cfg, r.prev_quality, dt)
                by_anchor[r.prev_quality] = bundle
            bundles.append(bundle)
            buf_list.append(r.buffer_level)
            mb_list.append(r.max_buffer)
            tw_list.append(r.terminal_weight)
            caps.append(r.first_cap)
        omegas = np.asarray(preds, dtype=float)
        buffers = np.asarray(buf_list, dtype=float)
        max_buffers = np.asarray(mb_list, dtype=float)
        terminal_weights = np.asarray(tw_list, dtype=float)
        if cfg.target_buffer is None:
            # cfg.resolve_target's 0.8·max_buffer branch, vectorized
            # (scalar × float64 array is the identical IEEE multiply)
            targets = 0.8 * max_buffers
        else:
            targets = np.asarray(
                [cfg.resolve_target(m) for m in mb_list], dtype=float
            )
        # Successive passes of whole sessions, each within the budget.
        row_budget = max(1, _BATCH_ELEMENT_BUDGET // cfg.horizon)
        lo = 0
        while lo < len(idx):
            hi, rows = lo + 1, bundles[lo].count
            while hi < len(idx) and rows + bundles[hi].count <= row_budget:
                rows += bundles[hi].count
                hi += 1
            sl = slice(lo, hi)
            plans = _solve_segments(
                bundles[sl], omegas[sl], scalar, buffers[sl], cfg,
                targets[sl], max_buffers[sl], caps[sl],
                terminal_weights[sl],
            )
            for i, plan in zip(idx[sl], plans):
                results[i] = plan
            lo = hi
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Per-session plan cache
# ----------------------------------------------------------------------
class PlanCache:
    """LRU cache of solved plans keyed by quantized decision state.

    The key quantizes the buffer level and each entry of the prediction
    vector to configurable quanta, so nearby states share one solve.  Two
    states mapping to the same key differ by at most half a quantum per
    component — the *correctness envelope*: the cached plan is the exact
    optimum of a state within that distance, not necessarily of the queried
    state.  A quantum of 0 disables rounding (exact-state hits only).  The
    key also carries the ladder signature, horizon (via the prediction
    length), Δt, buffer cap, previous rung, and first-rung cap, so a hit
    can never cross sessions with different geometry.

    Attributes:
        hits: lookups answered from the cache since the last :meth:`clear`.
        misses: lookups that fell through to the solver.
    """

    def __init__(
        self,
        buffer_quantum: float = 0.05,
        tput_quantum: float = 0.05,
        max_entries: int = 4096,
    ) -> None:
        if buffer_quantum < 0 or tput_quantum < 0:
            raise ValueError("cache quanta must be non-negative")
        if max_entries < 1:
            raise ValueError("cache needs room for at least one plan")
        self.buffer_quantum = float(buffer_quantum)
        self.tput_quantum = float(tput_quantum)
        self.max_entries = int(max_entries)
        self._entries: dict = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and zero the counters (new session)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def key(
        self,
        omega: np.ndarray,
        buffer_level: float,
        prev_quality: Optional[int],
        ladder: BitrateLadder,
        max_buffer: float,
        dt: float,
        first_cap: Optional[int],
    ) -> tuple:
        qb = self.buffer_quantum
        qt = self.tput_quantum
        # Non-finite components (corrupted throughput samples under fault
        # injection) cannot be rounded; key them by repr so the lookup is a
        # guaranteed miss instead of a crash.
        if qb > 0 and math.isfinite(buffer_level):
            buf = round(buffer_level / qb)
        else:
            buf = buffer_level
        def _q(w: float):
            if qt > 0 and math.isfinite(w):
                return round(w / qt)
            return repr(w)
        if isinstance(omega, float):
            pred = (_q(omega),)
        else:
            pred = tuple(_q(float(w)) for w in omega)
        return (
            tuple(ladder.bitrates),
            dt,
            max_buffer,
            prev_quality,
            first_cap,
            buf,
            pred,
        )

    def get(self, key: tuple) -> Optional[PlanResult]:
        plan = self._entries.get(key)
        if plan is None:
            self.misses += 1
            return None
        self.hits += 1
        return plan

    def put(self, key: tuple, plan: PlanResult) -> None:
        if key in self._entries:
            self._entries[key] = plan
            return
        if len(self._entries) >= self.max_entries:
            # dicts iterate in insertion order: evict the oldest plan.
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = plan
