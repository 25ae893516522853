"""Simulation clock: minute-resolution timestamps and run spans."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import lru_cache

EPOCH = datetime(2000, 1, 1)

MINUTES_PER_DAY = 24 * 60


@dataclass(frozen=True, order=True, slots=True)
class Timestamp:
    """A point in simulated time, stored as whole minutes since 2000-01-01."""

    minutes: int

    def __post_init__(self):
        if self.minutes < 0:
            raise ValueError(f"timestamp before epoch: {self.minutes}")

    @classmethod
    def from_datetime(cls, dt: datetime) -> "Timestamp":
        delta = dt - EPOCH
        total = delta.days * MINUTES_PER_DAY + delta.seconds // 60
        return cls(total)

    @classmethod
    def from_iso(cls, text: str) -> "Timestamp":
        """A local time on a whole minute; a UTC offset or seconds are rejected."""
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is not None:
            raise ValueError(f"timestamp {text!r} has a UTC offset; local time expected")
        if dt.second or dt.microsecond:
            raise ValueError(f"timestamp {text!r} is not on a whole minute")
        return cls.from_datetime(dt)

    def to_datetime(self) -> datetime:
        return EPOCH + timedelta(minutes=self.minutes)

    def isoformat(self) -> str:
        return self.to_datetime().isoformat(timespec="minutes")

    @property
    def year(self) -> int:
        return self.to_datetime().year

    @property
    def weekday(self) -> int:
        """Monday == 0, per datetime convention; 2000-01-01 was a Saturday."""
        return (self.minutes // MINUTES_PER_DAY + 5) % 7


@lru_cache(maxsize=None)
def year_start_minutes(year: int) -> int:
    return Timestamp.from_datetime(datetime(year, 1, 1)).minutes


@dataclass(frozen=True)
class SimulationSpan:
    """Half-open simulation window [start, end) with its tick resolution."""

    start: Timestamp
    end: Timestamp
    tick_minutes: int = 1

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError("span start must precede end")
        if self.tick_minutes <= 0:
            raise ValueError("tick must be positive")
        if 60 % self.tick_minutes != 0:
            raise ValueError("tick must divide 60 so hours aggregate exactly")
        # hourly data and the run's hours align to whole hours; a tick that
        # divides 60 then divides the span too
        if self.start.minutes % 60 or self.end.minutes % 60:
            raise ValueError("span must start and end on whole hours")

    @property
    def n_ticks(self) -> int:
        return (self.end.minutes - self.start.minutes) // self.tick_minutes

    @property
    def n_hours(self) -> int:
        return (self.end.minutes - self.start.minutes) // 60

    @property
    def n_days(self) -> int:
        return (self.end.minutes - self.start.minutes) // MINUTES_PER_DAY

    def years(self) -> list[int]:
        """Calendar years touched by the span, in order."""
        return list(range(self.start.year, Timestamp(self.end.minutes - 1).year + 1))

    def year_bounds(self) -> list[tuple[int, int, int]]:
        """``(year, first minute, end minute)`` of each calendar year the span
        touches, clipped to the span."""
        return [(y, max(self.start.minutes, year_start_minutes(y)),
                 min(self.end.minutes, year_start_minutes(y + 1))) for y in self.years()]
