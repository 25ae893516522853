"""Transformer-level load aggregation, capacity headroom and overload accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .strategies import CAPACITY_EPS
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
        for name in ("capacity_kw", "buffer_kw"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.capacity_kw <= 0:
            raise ValueError("capacity must be positive")
        if not (0 <= self.buffer_kw < self.capacity_kw):
            raise ValueError("buffer must be in [0, capacity)")


class LoadSeries:
    """Aggregate power at the transformer, one value per tick, held as runs of
    equal value: run k holds ``run_values[k]`` on the ticks from
    ``run_starts[k]`` up to the next run's start, the last up to ``n_ticks``.

    Runs are maximal on bit patterns, so -0.0 next to 0.0 starts a run.
    ``values`` expands the runs to one value per tick, at O(ticks) memory;
    ``==`` compares tick by tick, as on those values.
    """

    __slots__ = ("start", "resolution_minutes", "n_ticks", "run_starts", "run_values")

    def __init__(self, start: Timestamp, resolution_minutes: int, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        self._set(start, resolution_minutes, len(values),
                  *_joined(np.arange(len(values)), values))

    @classmethod
    def from_runs(cls, start: Timestamp, resolution_minutes: int, n_ticks: int,
                  run_starts, run_values) -> "LoadSeries":
        """The series of ``n_ticks`` ticks whose runs start on the increasing
        ticks ``run_starts``, the first 0, with ``run_values``; neighbouring
        runs of one bit pattern are joined."""
        starts = np.asarray(run_starts, dtype=np.int64)
        values = np.asarray(run_values, dtype=float)
        if starts.shape != values.shape or starts.ndim != 1:
            raise ValueError("runs need one start and one value each")
        if n_ticks == 0:
            ordered = len(starts) == 0
        else:
            ordered = len(starts) > 0 and starts[0] == 0 and starts[-1] < n_ticks \
                and not (starts[1:] <= starts[:-1]).any()
        if not ordered:
            raise ValueError("run starts must rise from 0 below the tick count")
        series = cls.__new__(cls)
        series._set(start, resolution_minutes, n_ticks, *_joined(starts, values))
        return series

    def _set(self, start, resolution_minutes, n_ticks, run_starts, run_values):
        if resolution_minutes <= 0:
            raise ValueError("resolution must be positive")
        run_starts.flags.writeable = run_values.flags.writeable = False
        self.start, self.resolution_minutes, self.n_ticks = start, resolution_minutes, n_ticks
        self.run_starts, self.run_values = run_starts, run_values

    def __reduce__(self):
        # rebuilt through from_runs, so a copy's runs are read-only too
        return LoadSeries.from_runs, (self.start, self.resolution_minutes, self.n_ticks,
                                      self.run_starts, self.run_values)

    def __repr__(self) -> str:
        return (f"LoadSeries({self.start!r}, {self.resolution_minutes}, "
                f"n_ticks={self.n_ticks}, runs={len(self.run_starts)})")

    @property
    def values(self) -> np.ndarray:
        """One value per tick: O(ticks) memory."""
        return np.repeat(self.run_values, np.diff(self.run_starts, append=self.n_ticks))

    def run_of(self, ticks):
        """The index of the run holding each tick."""
        return np.searchsorted(self.run_starts, ticks, side="right") - 1

    def __eq__(self, other):
        if not isinstance(other, LoadSeries):
            return NotImplemented
        # every tick shares its value with the latest run start of either
        # series at or before it
        cuts = np.concatenate((self.run_starts, other.run_starts))
        return self.start == other.start \
            and self.resolution_minutes == other.resolution_minutes \
            and self.n_ticks == other.n_ticks \
            and bool((self.run_values[self.run_of(cuts)]
                      == other.run_values[other.run_of(cuts)]).all())

    def minute_of(self, index: int) -> int:
        return self.start.minutes + index * self.resolution_minutes

    def slice_minutes(self, start_minute: int, end_minute: int) -> "LoadSeries":
        """Subseries covering [start_minute, end_minute), clipped to the data."""
        res = self.resolution_minutes
        lo = max(0, (start_minute - self.start.minutes) // res)
        hi = min(self.n_ticks, (end_minute - self.start.minutes) // res)
        k0, k1 = self.run_of(lo), np.searchsorted(self.run_starts, hi)
        starts = np.maximum(self.run_starts[k0:k1] - lo, 0) if hi > lo else []
        return LoadSeries.from_runs(Timestamp(self.start.minutes + lo * res), res,
                                    max(0, hi - lo), starts,
                                    self.run_values[k0:k0 + len(starts)])


def _joined(starts: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs with each neighbour of the same bit pattern joined to the one before."""
    bits = values.view(np.int64)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=keep[1:])
    return starts[keep], values[keep]


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
    # the dispatchers' slack: a dispatch that fills its budget, up to the
    # float round-off of the grant sums, is no overload
    over = series.run_values > tr.capacity_kw + CAPACITY_EPS
    if not over.any():
        return []
    # the first and the one-past-last run of each event, from sign changes
    # of the boolean mask over runs
    padded = np.diff(np.concatenate(([0], over.view(np.int8), [0])))
    firsts = np.flatnonzero(padded == 1)
    lasts = np.flatnonzero(padded == -1)
    ticks = np.append(series.run_starts, series.n_ticks)
    res = series.resolution_minutes
    events = []
    for f, e in zip(firsts.tolist(), lasts.tolist()):
        peak = float(series.run_values[f:e].max() - tr.capacity_kw)
        events.append(OverloadEvent(Timestamp(series.minute_of(int(ticks[f]))),
                                    int(ticks[e] - ticks[f]) * res, peak))
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
    n_hours = series.n_ticks // per_hour
    if n_hours == 0:
        return LoadSeries(series.start, 60, [])
    # hour h holds runs first[h] .. last[h]: the maxima of runs
    # [first[h], first[h + 1]), taken in order, and then of its last run,
    # which the next hour may share
    hour_starts = np.arange(0, n_hours * per_hour, per_hour)
    first = series.run_of(hour_starts)
    last = series.run_of(hour_starts + (per_hour - 1))
    values = series.run_values[:last[-1] + 1]
    maxima = np.maximum(np.maximum.reduceat(values, first), values[last])
    return LoadSeries(series.start, 60, maxima)
