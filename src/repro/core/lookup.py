"""FastMPC-style offline decision tables (the §5.3 alternative).

FastMPC [17] sidesteps online optimisation by enumerating all combinations
of discretised throughput, buffer level, and previous bitrate offline and
shipping a lookup table.  The paper argues (§5.3) this is neither flexible
nor scalable: the table is specific to one ladder / buffer cap / segment
length and must be rebuilt whenever anything changes — untenable for live
streaming.

This module implements the approach faithfully so the trade-off can be
*measured*: :class:`DecisionTable` precomputes SODA's decision on a grid
and answers lookups by nearest-neighbour; the ablation bench compares its
build cost, memory, and off-grid decision accuracy against Algorithm 1's
on-the-fly solve.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import shutil
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.video import BitrateLadder
from .controller import _SOLVERS, SodaController, _all_overflow, _overflow_rung
from .objective import SodaConfig

__all__ = ["DecisionTable", "TableFormatError", "TablePublisher"]

#: table cell meaning "defer / no download"
_DEFER = -1

#: file magic of the memory-mapped table format (version byte included)
_MMAP_MAGIC = b"SODATBL\x01"


class TableFormatError(ValueError):
    """A decision-table file is missing, corrupt, or truncated.

    Subclasses :class:`ValueError` so the CLI's operational-error handler
    turns it into a one-line exit-2 message instead of a traceback.
    """


@dataclass(frozen=True)
class TableStats:
    """Build statistics of a decision table.

    Attributes:
        cells: number of precomputed decisions.
        build_seconds: wall time spent building.
        memory_bytes: size of the decision array.
    """

    cells: int
    build_seconds: float
    memory_bytes: int


class DecisionTable:
    """A precomputed (throughput × buffer × previous-rung) decision grid.

    Args:
        ladder: the encoding ladder the table is specific to.
        max_buffer: the buffer cap the table is specific to.
        config: SODA tuning baked into the table.
        throughput_points: log-spaced throughput grid size.
        buffer_points: linear buffer grid size.
        throughput_range: (min, max) throughput covered, Mb/s; defaults to
            0.25× the lowest rung .. 4× the highest rung.

    Raises:
        ValueError: on degenerate grid sizes or ranges.
    """

    def __init__(
        self,
        ladder: BitrateLadder,
        max_buffer: float,
        config: Optional[SodaConfig] = None,
        throughput_points: int = 48,
        buffer_points: int = 48,
        throughput_range: Optional[Sequence[float]] = None,
        version: int = 1,
    ) -> None:
        if throughput_points < 2 or buffer_points < 2:
            raise ValueError("grids need at least two points per axis")
        if max_buffer <= 0:
            raise ValueError("max_buffer must be positive")
        if version < 1:
            raise ValueError("table version must be at least 1")
        self.ladder = ladder
        self.max_buffer = max_buffer
        self.config = config or SodaConfig()
        #: monotonic publish version; rollouts compare these across shards
        self.version = version

        if throughput_range is None:
            throughput_range = (
                0.25 * ladder.min_bitrate,
                4.0 * ladder.max_bitrate,
            )
        lo, hi = throughput_range
        if not 0 < lo < hi:
            raise ValueError("need 0 < throughput lo < hi")
        self._tput_grid = np.geomspace(lo, hi, throughput_points)
        self._buffer_grid = np.linspace(0.0, max_buffer, buffer_points)
        # previous rung axis: index 0 encodes "no previous rung".
        self._table = np.full(
            (throughput_points, buffer_points, ladder.levels + 1),
            _DEFER,
            dtype=np.int8,
        )
        self.stats = self._build()

    # ------------------------------------------------------------------
    def _build(self) -> TableStats:
        """Solve every cell with the online path's own solver and rules.

        The first-step caps and the all-overflow test depend only on
        (throughput, buffer), so each such pair computes them once for all
        previous rungs; where every plan overflows, the whole previous-rung
        row takes the closed-form answer.  Every other cell runs the
        backend's single-session solver on the scalar prediction and the
        same ``SodaController._finalize`` the online path uses, keeping the
        table cell-for-cell identical to the per-cell ``decide`` loop on
        either backend.
        """
        start = time.perf_counter()
        cfg = self.config
        ladder, max_buffer = self.ladder, self.max_buffer
        controller = SodaController(config=cfg)
        solve = _SOLVERS[(cfg.solver_backend, cfg.use_brute_force)]
        target = cfg.resolve_target(max_buffer)
        for ti, tput in enumerate(self._tput_grid):
            omega = np.full(cfg.horizon, max(float(tput), 0.0))
            pred = float(omega[0])
            for bi, buf in enumerate(self._buffer_grid.tolist()):
                cap = controller._first_step_cap(
                    pred, buf, max_buffer, ladder, cfg
                )
                if _all_overflow(pred, buf, ladder, max_buffer):
                    decision = _overflow_rung(buf, target, cap, ladder)
                    self._table[ti, bi, :] = (
                        _DEFER if decision is None else decision
                    )
                    continue
                for prev_axis in range(ladder.levels + 1):
                    prev = None if prev_axis == 0 else prev_axis - 1
                    plan = solve(
                        pred, buf, prev, ladder, cfg, max_buffer,
                        first_cap=cap,
                    )
                    decision = controller._finalize(
                        plan, omega, buf, prev, ladder, max_buffer, cap,
                    )
                    self._table[ti, bi, prev_axis] = (
                        _DEFER if decision is None else decision
                    )
        elapsed = time.perf_counter() - start
        return TableStats(
            cells=int(self._table.size),
            build_seconds=elapsed,
            memory_bytes=int(self._table.nbytes),
        )

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int, int]:
        """Table dimensions: (throughput, buffer, prev-rung) axes."""
        return tuple(self._table.shape)

    @property
    def tput_grid(self) -> np.ndarray:
        """The throughput axis, Mb/s (read-only view)."""
        return self._tput_grid

    @property
    def buffer_grid(self) -> np.ndarray:
        """The buffer axis, seconds (read-only view)."""
        return self._buffer_grid

    def lookup(
        self,
        throughput: float,
        buffer_level: float,
        prev_quality: Optional[int],
    ) -> Optional[int]:
        """Nearest-neighbour decision (what FastMPC does at runtime): one
        row of :meth:`lookup_batch`, so the two clamp alike."""
        decision = int(self.lookup_batch(
            [throughput], [buffer_level],
            [-1 if prev_quality is None else prev_quality],
        )[0])
        return None if decision == _DEFER else decision

    def lookup_observation(self, obs) -> Optional[int]:
        """Answer a :class:`~repro.sim.player.PlayerObservation` lookup.

        Maps the observation onto the table axes (last measured
        throughput, buffer level, previous rung); with no history yet the
        throughput axis clamps to the grid minimum, which the table
        resolves exactly like FastMPC's cold start.  This is the tier-1
        entry point of the decision service (:mod:`repro.service`).
        """
        throughput = obs.last_throughput
        return self.lookup(
            -1.0 if throughput is None else throughput,
            obs.buffer_level,
            obs.previous_quality,
        )

    def lookup_batch(
        self,
        throughputs: np.ndarray,
        buffer_levels: np.ndarray,
        prev_qualities: np.ndarray,
    ) -> np.ndarray:
        """Vectorized nearest-neighbour lookup over aligned arrays.

        Args:
            throughputs: measured throughputs, Mb/s; non-finite or
                non-positive entries clamp to the grid minimum (the same
                cold-start rule as :meth:`lookup_observation`).
            buffer_levels: buffer levels, seconds; clipped into
                ``[0, max_buffer]`` (non-finite treated as empty).
            prev_qualities: previous rung per entry, ``-1`` meaning "no
                previous rung"; out-of-range entries are treated as -1.

        Returns:
            An int array of decisions aligned with the inputs, ``-1``
            encoding defer.  :meth:`lookup` is its one-row form.
        """
        tput = np.asarray(throughputs, dtype=float).copy()
        bad = ~np.isfinite(tput) | (tput <= 0)
        tput[bad] = float(self._tput_grid[0])
        buf = np.nan_to_num(
            np.asarray(buffer_levels, dtype=float), nan=0.0,
            posinf=self.max_buffer, neginf=0.0,
        )
        buf = np.clip(buf, 0.0, self.max_buffer)
        ti = self._nearest(np.log(self._tput_grid), np.log(tput))
        bi = self._nearest(self._buffer_grid, buf)
        prev = np.asarray(prev_qualities, dtype=np.int64)
        prev = np.where(
            (prev < 0) | (prev >= self.ladder.levels), -1, prev
        )
        return self._table[ti, bi, prev + 1].astype(np.int64)

    @staticmethod
    def _nearest(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Indices of the grid points nearest to ``values`` (ties low,
        matching ``np.argmin`` over absolute distances)."""
        idx = np.searchsorted(grid, values)
        lo = np.clip(idx - 1, 0, len(grid) - 1)
        hi = np.clip(idx, 0, len(grid) - 1)
        pick_lo = (values - grid[lo]) <= (grid[hi] - values)
        return np.where(pick_lo, lo, hi)

    def probe_cells(self, seed: int, count: int) -> List[int]:
        """A deterministic sample of raw cells for canary comparison.

        The same ``(seed, count)`` against the same table shape always
        reads the same cells, so two probes are comparable: a canary
        shard on a candidate table versus a baseline shard on the live
        one (defer-fraction delta), or the same shard before and after a
        rollback (cell identity).  Values are raw — ``-1`` is defer.
        """
        if count <= 0:
            return []
        rng = np.random.default_rng(seed)
        flat = rng.integers(0, self._table.size, size=count)
        return [int(c) for c in self._table.reshape(-1)[flat]]

    # ------------------------------------------------------------------
    def save_mmap(self, path: str, version: Optional[int] = None) -> None:
        """Publish the table as a single memory-mappable file.

        Layout: an 8-byte magic, a big-endian ``uint64`` header length, a
        JSON header (ladder, grids, config, shape, monotonic table
        version, CRC-32 payload checksum), then the raw ``int8`` decision
        array.  The write is atomic (temp file + rename) so a crashed
        publisher never leaves a half-written table where workers may
        find it.  ``version`` overrides (and updates) the table's own
        publish version — :class:`TablePublisher` stamps the next
        monotonic one here.
        """
        if version is not None:
            if version < 1:
                raise ValueError("table version must be at least 1")
            self.version = version
        payload = np.ascontiguousarray(self._table, dtype=np.int8).tobytes()
        header = {
            "version": 2,
            "table_version": self.version,
            "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
            "ladder": {
                "bitrates": list(self.ladder.bitrates),
                "segment_duration": self.ladder.segment_duration,
                "name": self.ladder.name,
                "size_variation": self.ladder.size_variation,
            },
            "max_buffer": self.max_buffer,
            "config": dataclasses.asdict(self.config),
            "tput_grid": [float(x) for x in self._tput_grid],
            "buffer_grid": [float(x) for x in self._buffer_grid],
            "shape": list(self._table.shape),
            "build_seconds": self.stats.build_seconds,
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(_MMAP_MAGIC)
            f.write(struct.pack(">Q", len(blob)))
            f.write(blob)
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)

    @staticmethod
    def _read_header(path: str) -> Tuple[dict, int, int]:
        """Parse the file header; returns ``(header, offset, file_size)``.

        Raises:
            TableFormatError: bad magic, unreadable file, or a header
                that does not parse.
        """
        try:
            size = os.path.getsize(path)
            with open(path, "rb") as f:
                magic = f.read(len(_MMAP_MAGIC))
                if magic != _MMAP_MAGIC:
                    raise TableFormatError(
                        f"{path}: not a decision-table file (bad magic)"
                    )
                (hlen,) = struct.unpack(">Q", f.read(8))
                if hlen <= 0 or hlen > size:
                    raise TableFormatError(
                        f"{path}: corrupt decision-table header length"
                    )
                try:
                    header = json.loads(f.read(hlen).decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise TableFormatError(
                        f"{path}: corrupt decision-table header ({exc})"
                    ) from None
        except OSError as exc:
            raise TableFormatError(
                f"{path}: cannot read decision table ({exc})"
            ) from None
        return header, len(_MMAP_MAGIC) + 8 + hlen, size

    @classmethod
    def peek_version(cls, path: str) -> int:
        """The published table version of a file, without mapping it.

        Raises:
            TableFormatError: the file is not a decision table.
        """
        header, _offset, _size = cls._read_header(path)
        try:
            return int(header.get("table_version", 1))
        except (TypeError, ValueError):
            raise TableFormatError(
                f"{path}: corrupt decision-table version"
            ) from None

    @classmethod
    def load_mmap(cls, path: str) -> "DecisionTable":
        """Open a published table read-only with zero build cost.

        The decision array is memory-mapped, so N worker processes opening
        the same file share one copy of the pages.  Any structural problem
        (bad magic, unparsable header, truncated array, out-of-range
        cells, a payload that fails its CRC-32 checksum) raises
        :class:`TableFormatError` with a one-line message.

        Raises:
            TableFormatError: the file is not a usable decision table.
        """
        header, offset, size = cls._read_header(path)

        try:
            shape = tuple(int(x) for x in header["shape"])
            ladder_spec = header["ladder"]
            ladder = BitrateLadder(
                ladder_spec["bitrates"],
                segment_duration=ladder_spec["segment_duration"],
                name=ladder_spec.get("name", ""),
                size_variation=ladder_spec.get("size_variation", 0.0),
            )
            config = SodaConfig(**header["config"])
            tput_grid = np.asarray(header["tput_grid"], dtype=float)
            buffer_grid = np.asarray(header["buffer_grid"], dtype=float)
            max_buffer = float(header["max_buffer"])
            version = int(header.get("table_version", 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise TableFormatError(
                f"{path}: corrupt decision-table header ({exc})"
            ) from None

        cells = int(np.prod(shape))
        if len(shape) != 3 or cells <= 0:
            raise TableFormatError(
                f"{path}: corrupt decision-table shape {shape}"
            )
        if size != offset + cells:
            raise TableFormatError(
                f"{path}: truncated decision table "
                f"(expected {offset + cells} bytes, found {size})"
            )
        if (
            shape[0] != len(tput_grid)
            or shape[1] != len(buffer_grid)
            or shape[2] != ladder.levels + 1
        ):
            raise TableFormatError(
                f"{path}: decision-table shape {shape} does not match "
                f"its grids"
            )
        table = np.memmap(
            path, dtype=np.int8, mode="r", offset=offset, shape=shape
        )
        expected_crc = header.get("crc32")
        if expected_crc is not None:
            actual = zlib.crc32(table.tobytes()) & 0xFFFFFFFF
            if actual != int(expected_crc):
                raise TableFormatError(
                    f"{path}: decision-table payload checksum mismatch "
                    f"(expected {int(expected_crc):#010x}, "
                    f"found {actual:#010x})"
                )
        if int(table.min()) < _DEFER or int(table.max()) >= ladder.levels:
            raise TableFormatError(
                f"{path}: decision table holds out-of-range cells"
            )

        self = cls.__new__(cls)
        self.ladder = ladder
        self.max_buffer = max_buffer
        self.config = config
        self.version = version
        self._tput_grid = tput_grid
        self._buffer_grid = buffer_grid
        self._table = table
        self.stats = TableStats(
            cells=cells,
            build_seconds=float(header.get("build_seconds", 0.0)),
            memory_bytes=int(table.nbytes),
        )
        return self

    def agreement_with_solver(
        self, samples: int = 2000, seed: int = 0
    ) -> float:
        """Fraction of random off-grid situations where the table matches
        an on-the-fly Algorithm 1 solve."""
        rng = np.random.default_rng(seed)
        controller = SodaController(config=self.config)
        agree = 0
        for _ in range(samples):
            tput = float(
                rng.uniform(self._tput_grid[0], self._tput_grid[-1])
            )
            buf = float(rng.uniform(0.0, self.max_buffer))
            prev_axis = int(rng.integers(0, self.ladder.levels + 1))
            prev = None if prev_axis == 0 else prev_axis - 1
            if self.lookup(tput, buf, prev) == controller.decide(
                tput, buf, prev, self.ladder, self.max_buffer
            ):
                agree += 1
        return agree / samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DecisionTable v{self.version} {self._table.shape} "
            f"{self.stats.memory_bytes / 1024:.0f} KiB "
            f"built in {self.stats.build_seconds:.2f}s>"
        )


class TablePublisher:
    """Publishes versioned decision-table files beside the live one.

    The *live* file is whatever the serving fleet currently memory-maps.
    :meth:`publish` never touches it: each new table lands at
    ``<live>.v<N>`` (atomic temp-file + rename via
    :meth:`DecisionTable.save_mmap`) under the next monotonic version, so
    a rollout can canary the new file on one shard and roll back by
    simply pointing workers at the old path again.  :meth:`promote`
    atomically replaces the live file once a rollout completes, so worker
    restarts pick up the new version.

    Args:
        live_path: the table file the fleet serves from; it does not
            need to exist yet (publishing beside a missing live file
            starts at version 1).
    """

    def __init__(self, live_path: str) -> None:
        if not live_path:
            raise ValueError("live_path must be a non-empty path")
        self.live_path = live_path

    # ------------------------------------------------------------------
    def live_version(self) -> int:
        """Version of the live file; ``0`` when there is none."""
        try:
            return DecisionTable.peek_version(self.live_path)
        except TableFormatError:
            return 0

    def published(self) -> Dict[int, str]:
        """Map of published version → path among ``<live>.v*`` siblings.

        Files that are not parseable decision tables are skipped — a
        crashed publisher's leftovers never wedge the next rollout.
        """
        versions: Dict[int, str] = {}
        for path in glob.glob(glob.escape(self.live_path) + ".v*"):
            suffix = path[len(self.live_path) + 2:]
            if not suffix.isdigit():
                continue
            try:
                versions[DecisionTable.peek_version(path)] = path
            except TableFormatError:
                continue
        return versions

    def next_version(self) -> int:
        """The next monotonic version across the live file and siblings."""
        return max([self.live_version(), *self.published().keys()], default=0) + 1

    # ------------------------------------------------------------------
    def publish(self, table: DecisionTable) -> Tuple[str, int]:
        """Write ``table`` beside the live file under the next version.

        Returns ``(path, version)``.  The write is atomic and the live
        file is untouched — nothing serves the new table until a rollout
        swaps workers onto the returned path.
        """
        version = self.next_version()
        path = f"{self.live_path}.v{version}"
        table.save_mmap(path, version=version)
        return path, version

    def promote(self, path: str) -> None:
        """Atomically make a published file the live one.

        Uses a hard link + rename (same-directory, so never cross-device)
        with a copy fallback; workers already mapping the old inode keep
        their pages, while every future open — worker restarts included —
        sees the promoted version.
        """
        DecisionTable.peek_version(path)  # refuse to promote a non-table
        tmp = f"{self.live_path}.promote.{os.getpid()}"
        try:
            os.link(path, tmp)
        except OSError:
            shutil.copy2(path, tmp)
        os.replace(tmp, self.live_path)

    def unpublish(self, path: str) -> None:
        """Best-effort removal of a published (e.g. rolled-back) file."""
        try:
            os.unlink(path)
        except OSError:
            pass
