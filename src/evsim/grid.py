"""Transformer-level load aggregation, capacity headroom and overload accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .timebase import Timestamp


@dataclass(frozen=True)
class Transformer:
    """The single aggregate limit of the distribution network.

    buffer_kw is dispatch headroom only; overloads are always counted
    against the raw capacity.
    """

    capacity_kw: float
    buffer_kw: float = 0.0

    def __post_init__(self):
        if self.capacity_kw <= 0:
            raise ValueError("capacity must be positive")
        if not (0 <= self.buffer_kw < self.capacity_kw):
            raise ValueError("buffer must be in [0, capacity)")


@dataclass
class LoadSeries:
    """Aggregate power at the transformer, one value per tick."""

    start: Timestamp
    resolution_minutes: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.resolution_minutes <= 0:
            raise ValueError("resolution must be positive")
        if self.values.ndim != 1:
            raise ValueError("values must be one-dimensional")

    def __eq__(self, other):
        if not isinstance(other, LoadSeries):
            return NotImplemented
        return self.start == other.start \
            and self.resolution_minutes == other.resolution_minutes \
            and np.array_equal(self.values, other.values)

    def minute_of(self, index: int) -> int:
        return self.start.minutes + index * self.resolution_minutes

    def slice_minutes(self, start_minute: int, end_minute: int) -> "LoadSeries":
        """Subseries covering [start_minute, end_minute), clipped to the data."""
        res = self.resolution_minutes
        lo = max(0, (start_minute - self.start.minutes) // res)
        hi = min(len(self.values), (end_minute - self.start.minutes) // res)
        return LoadSeries(Timestamp(self.start.minutes + lo * res), res,
                          self.values[lo:hi])


@dataclass(frozen=True)
class OverloadEvent:
    """A maximal contiguous run of ticks with load above capacity."""

    start: Timestamp
    duration_minutes: int
    peak_excess_kw: float


def available_capacity(tr: Transformer, baseload_total_kw):
    """Dispatch budget: capacity minus buffer minus baseload, floored at 0;
    elementwise for an array of baseload totals."""
    return np.maximum(0.0, tr.capacity_kw - tr.buffer_kw - baseload_total_kw)


def detect_overloads(series: LoadSeries, tr: Transformer) -> list[OverloadEvent]:
    """Find maximal runs of ticks where load exceeds the raw capacity; an
    event lasts its tick count times the series resolution."""
    # tiny tolerance so a dispatch that exactly fills the budget is not
    # flagged through float round-off in the grant sums
    over = series.values > tr.capacity_kw + 1e-9
    if not over.any():
        return []
    # run boundaries via sign changes of the boolean mask
    padded = np.diff(np.concatenate(([0], over.view(np.int8), [0])))
    starts = np.flatnonzero(padded == 1)
    ends = np.flatnonzero(padded == -1)
    res = series.resolution_minutes
    events = []
    for s, e in zip(starts, ends):
        peak = float(series.values[s:e].max() - tr.capacity_kw)
        events.append(OverloadEvent(Timestamp(series.minute_of(int(s))),
                                    int(e - s) * res, peak))
    return events


def hourly_max(series: LoadSeries) -> LoadSeries:
    """Per clock hour, the maximum load among member ticks.

    A trailing partial hour is dropped; the series must start on an hour
    boundary (spans are configured as whole days).
    """
    if 60 % series.resolution_minutes != 0:
        raise ValueError("resolution must divide 60")
    if series.start.minutes % 60 != 0:
        raise ValueError("series must start on an hour boundary")
    per_hour = 60 // series.resolution_minutes
    n_hours = len(series.values) // per_hour
    trimmed = series.values[:n_hours * per_hour]
    maxima = trimmed.reshape(n_hours, per_hour).max(axis=1)
    return LoadSeries(series.start, 60, maxima)
