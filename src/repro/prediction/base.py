"""Throughput predictor interface.

Every ABR controller in this package that uses throughput predictions
receives them through a :class:`ThroughputPredictor`.  Predictors are fed one
:class:`ThroughputSample` per completed segment download and asked for a
piecewise-constant forecast of the next ``horizon`` intervals of ``dt``
seconds each — exactly the prediction model of the paper's §3.2.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["ThroughputSample", "ThroughputPredictor"]


@dataclass(frozen=True)
class ThroughputSample:
    """One completed download, as observed by the player.

    Attributes:
        start: wall-clock time the download began, seconds.
        duration: how long the transfer took, seconds.
        size: payload size in megabits.
        throughput: measured throughput ``size / duration`` in Mb/s.
    """

    start: float
    duration: float
    size: float
    throughput: float

    @staticmethod
    def from_download(start: float, duration: float, size: float) -> "ThroughputSample":
        """Build a sample, deriving throughput from size and duration."""
        if duration <= 0:
            raise ValueError("download duration must be positive")
        return ThroughputSample(
            start=start, duration=duration, size=size, throughput=size / duration
        )

    @property
    def end(self) -> float:
        """Wall-clock time the download finished."""
        return self.start + self.duration


class ThroughputPredictor(abc.ABC):
    """Predicts average throughput for the next ``horizon`` time intervals.

    Subclasses implement :meth:`predict_scalar`; the default :meth:`predict`
    repeats that scalar across the horizon (a constant throughput function,
    which §3.2 notes is what typical predictors output).  Predictors that can
    produce a different value per future interval override :meth:`predict`.

    Whether a class forecasts a constant is decided once, when the class
    is defined: ``_constant_forecast`` is true exactly when the class
    inherits this base's :meth:`predict`.  SODA then asks such a predictor
    for :meth:`predict_scalar` alone and carries the forecast as one float
    (DESIGN §8); a wrapper patched onto ``predict`` later, as a tracer
    does, changes neither the flag nor that path.
    """

    #: human-readable name used in result tables
    name: str = "predictor"

    #: whether :meth:`predict` is this base's, i.e. the forecast is
    #: :meth:`predict_scalar` repeated; set per class at definition
    _constant_forecast: bool = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._constant_forecast = cls.predict is ThroughputPredictor.predict

    def reset(self) -> None:
        """Forget all history (start of a new session)."""

    def update(self, sample: ThroughputSample) -> None:
        """Ingest one completed download."""

    @abc.abstractmethod
    def predict_scalar(self, now: float) -> float:
        """Single throughput estimate (Mb/s) for the immediate future.

        Args:
            now: current wall-clock time, seconds.  Most predictors ignore
                this; oracle predictors use it to index the trace.

        Returns:
            Estimated throughput in Mb/s.  Implementations must return a
            non-negative value and may return 0 before any history exists.
        """

    def predict(self, now: float, horizon: int, dt: float) -> np.ndarray:
        """Per-interval forecast ω̂ for the next ``horizon`` intervals.

        Args:
            now: current wall-clock time.
            horizon: number of future intervals (K).
            dt: interval length in seconds (Δt).

        Returns:
            Array of ``horizon`` non-negative throughputs in Mb/s.
        """
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        if dt <= 0:
            raise ValueError("dt must be positive")
        return np.full(horizon, max(self.predict_scalar(now), 0.0))
