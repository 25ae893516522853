"""Hourly spot prices, distribution tariffs (fixed or time-of-use) and CO2 intensity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .timebase import EPOCH, SimulationSpan, Timestamp


class CoverageError(ValueError):
    """Hourly data (baseload, price or CO2 intensity) does not cover a span."""


def hours_covering(start: Timestamp, n_hours: int, span: SimulationSpan) -> slice:
    """The hours of ``span`` in hourly data of ``n_hours`` values from ``start``."""
    end = start.minutes + 60 * n_hours
    if start.minutes > span.start.minutes or end < span.end.minutes:
        raise CoverageError(
            f"data covers [{start.isoformat()}, {Timestamp(end).isoformat()})"
            f" but span is [{span.start.isoformat()}, {span.end.isoformat()})")
    lo = (span.start.minutes - start.minutes) // 60
    return slice(lo, lo + span.n_hours)


@dataclass
class HourlySeries:
    """One value per clock hour from `start`; base for spot and CO2 series.
    ``check`` holds the rule of the values: the constructor checks all of
    them, and ``slice_hours`` the slice it returns, as they may change in place."""

    start: Timestamp
    values: np.ndarray

    def __post_init__(self):
        if self.start.minutes % 60 != 0:
            raise ValueError("hourly series must start on an hour boundary")
        self.values = np.asarray(self.values, dtype=float)
        self.check(self.values)

    def check(self, values: np.ndarray) -> None:
        if values.ndim != 1:
            raise ValueError("hourly series must be one-dimensional")
        if not np.isfinite(values).all():
            raise ValueError("series contains non-finite values")

    @property
    def n_hours(self) -> int:
        return len(self.values)

    def slice_hours(self, span: SimulationSpan) -> np.ndarray:
        """Hourly values over the span (must be covered), checked."""
        values = self.values[hours_covering(self.start, self.n_hours, span)]
        self.check(values)
        return values

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.start == other.start and np.array_equal(self.values, other.values)


class SpotPriceSeries(HourlySeries):
    """Hourly electricity spot price, DKK/kWh; negative prices allowed."""


class Co2IntensitySeries(HourlySeries):
    """Hourly grid emission intensity, kg CO2 per kWh."""

    def check(self, values: np.ndarray) -> None:
        super().check(values)
        if (values < 0).any():
            raise ValueError("CO2 intensity must be non-negative")


@dataclass(frozen=True)
class TouBand:
    season: str          # "all", "summer" or "winter"
    start_hour: int      # inclusive
    end_hour: int        # exclusive, 1..24
    dkk_per_kwh: float


TARIFF_MODES = ("fixed", "time_of_use")

# Danish-style season split: April to September is summer
SUMMER_MONTHS = (4, 5, 6, 7, 8, 9)


def _rate_table(bands: list[TouBand]) -> np.ndarray:
    """The (winter, summer) x hour-of-day rates of ``bands``, which must give
    each hour of season "all", or of "summer" and "winter", one valid rate."""
    if not bands:
        raise ValueError("tariff needs at least one band")
    seasons = {b.season for b in bands}
    if seasons not in ({"all"}, {"summer", "winter"}):
        raise ValueError("bands must use season 'all' or both 'summer' and 'winter'")
    table, covered = np.empty((2, 24)), np.zeros((2, 24))     # rows: winter, summer
    for season in sorted(seasons):
        rows = slice(0, 2) if season == "all" else int(season == "summer")
        for b in bands:
            if b.season != season:
                continue
            if not (0 <= b.start_hour < b.end_hour <= 24):
                raise ValueError(f"bad band hours {b.start_hour}..{b.end_hour}")
            if not math.isfinite(b.dkk_per_kwh):
                raise ValueError(f"tariff rate {b.dkk_per_kwh} is not finite")
            if b.dkk_per_kwh < 0:
                raise ValueError("tariff rates must be non-negative")
            table[rows, b.start_hour:b.end_hour] = b.dkk_per_kwh
            covered[rows, b.start_hour:b.end_hour] += 1
        if (covered[rows] != 1).any():
            raise ValueError(f"season {season!r} bands do not partition the 24 hours")
    return table


@dataclass
class DistributionTariff:
    """Distribution grid tariff: hour-of-day bands for the whole year (season
    "all") or for summer and winter. A flat rate is one band of 24 hours. Each
    ``hourly_rates`` checks the bands again: they may change in place."""

    bands: list[TouBand]

    def __post_init__(self):
        _rate_table(self.bands)

    def hourly_rates(self, span: SimulationSpan) -> np.ndarray:
        """The rate of each hour of the span: a (winter, summer) x hour-of-day
        table looked up by each hour's month and hour of day."""
        hours = span.start.minutes // 60 + np.arange(span.n_hours)     # since EPOCH
        # datetime64[M] counts months from 1970-01, so % 12 + 1 is the month
        months = (np.datetime64(EPOCH, "h") + hours).astype("datetime64[M]").astype(int)
        summer = np.isin(months % 12 + 1, SUMMER_MONTHS)
        return _rate_table(self.bands)[summer.astype(int), hours % 24]
