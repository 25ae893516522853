"""EV catalog, vehicles and their charge rules, stochastic adoption and daily driving."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from datetime import MAXYEAR
from operator import attrgetter

import numpy as np

from .columns import Columns
from .timebase import EPOCH, MINUTES_PER_DAY, Timestamp, year_start_minutes

log = logging.getLogger(__name__)

SOC_EPS = 1e-6


@dataclass(frozen=True)
class EvModel:
    name: str
    battery_kwh: float
    max_rate_kw: float
    market_share: float

    def __post_init__(self):
        for name in ("battery_kwh", "max_rate_kw"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{self.name}: {name} must be finite")
        if self.battery_kwh <= 0 or self.max_rate_kw <= 0:
            raise ValueError(f"{self.name}: battery and rate must be positive")
        if not (0 <= self.market_share <= 1):
            raise ValueError(f"{self.name}: market share out of [0, 1]")


def validate_catalog(models: list[EvModel]) -> None:
    total = sum(m.market_share for m in models)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"market shares sum to {total}, expected 1")


@dataclass(frozen=True)
class Vehicle:
    """One EV as a run starts it. Its id is its household's: each household
    owns at most one EV, and its charging is billed to that household."""

    id: int
    model: EvModel
    soc_kwh: float
    desired_target_kwh: float = 0.0    # 0.0: a full battery

    def __post_init__(self):
        if self.desired_target_kwh == 0.0:
            object.__setattr__(self, "desired_target_kwh", self.model.battery_kwh)
        if not (0 <= self.soc_kwh <= self.model.battery_kwh + SOC_EPS):
            raise ValueError("state of charge out of battery bounds")
        if not (0 < self.desired_target_kwh <= self.model.battery_kwh + SOC_EPS):
            raise ValueError("target out of (0, battery capacity]")


def satisfied(soc_kwh: float, target_kwh: float) -> bool:
    """Whether a state of charge meets its target, within SOC_EPS."""
    return soc_kwh >= target_kwh - SOC_EPS


@dataclass(frozen=True, slots=True)
class TripEvent:
    departure: Timestamp
    arrival: Timestamp
    energy_kwh: float


class Trips(Columns):
    """A plan's trips as departure and arrival minutes and energies, one
    typed array each; indexing and iteration yield ``TripEvent``."""

    __slots__ = ()
    typecodes = "qqd"
    values_of = attrgetter("departure.minutes", "arrival.minutes", "energy_kwh")

    @staticmethod
    def element(departure: int, arrival: int, energy_kwh: float) -> TripEvent:
        return TripEvent(Timestamp(departure), Timestamp(arrival), energy_kwh)


@dataclass(frozen=True)
class AdoptionCurve:
    """Cumulative adopters per year, interpreted with piecewise-constant
    annual intensity equal to the yearly increments."""

    breakpoints: tuple[tuple[int, int], ...]   # (year, cumulative adopters)

    def __post_init__(self):
        if not self.breakpoints:
            raise ValueError("empty adoption curve")
        object.__setattr__(self, "breakpoints", tuple(sorted(map(tuple, self.breakpoints))))
        prev_year, prev = None, 0
        for year, cum in self.breakpoints:
            if year == prev_year:
                raise ValueError(f"adoption curve: the year {year} is listed twice")
            # a year's adoptions fall in [year, year + 1): from the epoch, and year + 1
            # must be a datetime year
            if not EPOCH.year <= year < MAXYEAR:
                raise ValueError(f"adoption curve: the year {year} is outside "
                                 f"{EPOCH.year}..{MAXYEAR - 1}")
            if not (cum >= 0 and float(cum).is_integer()):
                raise ValueError(f"adoption curve: the cumulative count of {year} must be "
                                 f"a whole number, not negative, got {cum!r}")
            if cum < prev:
                raise ValueError("adoption curve must be non-decreasing")
            prev_year, prev = year, cum

    @property
    def final_value(self) -> int:
        return self.breakpoints[-1][1]

    @property
    def final_year(self) -> int:
        return self.breakpoints[-1][0]

    def check_households(self, households: int) -> None:
        """Reject a curve with more adopters than ``households``."""
        if self.final_value > households:
            raise ValueError(f"curve reaches {self.final_value} adopters"
                             f" but the scenario has {households} households")

    def yearly_increments(self) -> list[tuple[int, int]]:
        """(year, new adopters that year) for every year on the curve."""
        out = []
        prev_cum = 0
        prev_year = None
        for year, cum in self.breakpoints:
            if prev_year is not None:
                # linear fill over any gap between listed years
                span = year - prev_year
                step = (cum - prev_cum) / span
                acc = prev_cum
                for k in range(span):
                    nxt = prev_cum + step * (k + 1)
                    out.append((prev_year + 1 + k, round(nxt) - round(acc)))
                    acc = nxt
            else:
                out.append((year, cum))
            prev_year, prev_cum = year, cum
        return out


@dataclass(frozen=True)
class DrivingPattern:
    """Daily one-trip driving model; all times are minutes into the day."""

    departure_mean_min: float = 450.0    # 07:30
    departure_std_min: float = 60.0
    arrival_mean_min: float = 990.0      # 16:30
    arrival_std_min: float = 90.0
    trip_energy_mean_kwh: float = 8.0
    trip_energy_std_kwh: float = 3.0
    weekday_trip_prob: float = 1.0
    weekend_trip_prob: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"driving {f.name} must be finite")
        if min(self.departure_std_min, self.arrival_std_min, self.trip_energy_std_kwh) < 0:
            raise ValueError("standard deviations must be non-negative")
        if not (0 <= self.weekday_trip_prob <= 1 and 0 <= self.weekend_trip_prob <= 1):
            raise ValueError("trip probabilities must be in [0, 1]")


@dataclass(frozen=True)
class AdoptionEvent:
    household_id: int
    at: Timestamp
    model: EvModel


def sample_adoptions(curve: AdoptionCurve, household_ids: list[int],
                     catalog: list[EvModel],
                     rng: np.random.Generator) -> list[AdoptionEvent]:
    """Draw adoption times as an inhomogeneous Poisson process.

    Intensity is piecewise-constant per year at the curve's annual
    increment, capped so cumulative adoptions never exceed the curve's
    final value; any shortfall is filled at the curve's end so full
    adoption is reached. Each household adopts at most once.
    """
    cap = min(curve.final_value, len(household_ids))
    order = list(household_ids)
    rng.shuffle(order)
    shares = np.array([m.market_share for m in catalog])
    shares = shares / shares.sum()

    events: list[AdoptionEvent] = []

    def adopt(minute: int) -> None:
        hid = order[len(events)]
        model = catalog[int(rng.choice(len(catalog), p=shares))]
        events.append(AdoptionEvent(hid, Timestamp(minute), model))

    for year, increment in curve.yearly_increments():
        if increment <= 0 or len(events) >= cap:
            continue
        y0 = year_start_minutes(year)
        y1 = year_start_minutes(year + 1)
        n = int(rng.poisson(increment))
        n = min(n, cap - len(events))
        minutes = np.sort(rng.integers(y0, y1, size=n))
        for m in minutes:
            adopt(int(m))

    # force full adoption by curve end (cap already limits the total)
    end_minute = year_start_minutes(curve.final_year + 1) - 1
    while len(events) < cap:
        adopt(end_minute)
    return events


def draw_daily_trip(v: Vehicle, day_start: Timestamp, pattern: DrivingPattern,
                    rng: np.random.Generator) -> tuple[int, int, float] | None:
    """The draws of one calendar day: None, or one home-away-home trip as its
    departure minute, arrival minute and energy."""
    weekend = day_start.weekday >= 5
    prob = pattern.weekend_trip_prob if weekend else pattern.weekday_trip_prob
    if rng.random() >= prob:
        return None

    dep = int(round(rng.normal(pattern.departure_mean_min, pattern.departure_std_min)))
    dep = min(max(dep, 0), MINUTES_PER_DAY - 2)
    arr = int(round(rng.normal(pattern.arrival_mean_min, pattern.arrival_std_min)))
    tries = 0
    while arr <= dep and tries < 50:
        arr = int(round(rng.normal(pattern.arrival_mean_min, pattern.arrival_std_min)))
        tries += 1
    if arr <= dep:
        arr = dep + 1
    arr = min(arr, MINUTES_PER_DAY - 1)

    energy = float(rng.normal(pattern.trip_energy_mean_kwh, pattern.trip_energy_std_kwh))
    energy = max(0.0, energy)
    if energy > v.model.battery_kwh:
        log.warning("trip energy %.1f kWh above %s battery, clamped",
                    energy, v.model.name)
        energy = 0.9 * v.model.battery_kwh

    base = day_start.minutes
    return base + dep, base + arr, energy


def drain_trip(vehicle_id: int, soc_kwh: float, energy_kwh: float) -> float:
    """The state of charge after a completed trip takes its energy, floored at 0."""
    new_soc = soc_kwh - energy_kwh
    if new_soc < 0:
        log.warning("vehicle %d ran out of charge on trip (soc %.2f, trip %.2f)",
                    vehicle_id, soc_kwh, energy_kwh)
        new_soc = 0.0
    return new_soc
