"""Synthetic stand-ins for the proprietary consumption, price and CO2 data.

Defaults are calibrated so 126 households peak around 150-200 kW in the
evening, leaving EV growth to drive the grid toward saturation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import HouseholdBaseload
from .rng import RngStreams
from .tariffs import Co2IntensitySeries, SpotPriceSeries
from .timebase import SimulationSpan


@dataclass
class SyntheticBaseloadSpec:
    mean_daily_kwh: float = 10.0
    morning_peak_weight: float = 0.8
    evening_peak_weight: float = 2.2
    weekend_factor: float = 1.1
    noise_std: float = 0.1          # relative, per household-day


def _diurnal_weights(morning: float, evening: float) -> np.ndarray:
    hours = np.arange(24)
    base = np.full(24, 0.5)
    shape = base \
        + morning * np.exp(-0.5 * ((hours - 8) / 2.0) ** 2) \
        + evening * np.exp(-0.5 * ((hours - 18) / 2.5) ** 2)
    return shape / shape.sum()


def generate_baseload(spec: SyntheticBaseloadSpec, household_ids: list[int],
                      span: SimulationSpan, streams: RngStreams) -> HouseholdBaseload:
    """Per-household hourly load, deterministic per (seed, household id): each
    household's daily kWh times one diurnal shape, kept as those factors."""
    if span.start.minutes % (24 * 60) or span.end.minutes % (24 * 60):
        raise ValueError("synthetic baseload needs a whole-day span")
    n_days = span.n_days
    weights = _diurnal_weights(spec.morning_peak_weight, spec.evening_peak_weight)

    first_wd = span.start.weekday
    weekend = np.array([((first_wd + d) % 7) >= 5 for d in range(n_days)])
    day_factor = np.where(weekend, spec.weekend_factor, 1.0)

    daily = np.empty((len(household_ids), n_days))
    # HouseholdBaseload rejects the values that overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for row, hid in enumerate(household_ids):
            rng = streams.stream(f"baseload/{hid}")
            noise = np.maximum(0.0, 1.0 + rng.normal(0.0, spec.noise_std, size=n_days)) \
                if spec.noise_std > 0 else np.ones(n_days)
            daily[row] = spec.mean_daily_kwh * day_factor * noise
    return HouseholdBaseload(span.start, list(household_ids), daily=daily, weights=weights)


@dataclass
class SyntheticPriceSpec:
    mean_dkk_per_kwh: float = 1.0
    diurnal_amplitude: float = 0.3
    noise_std: float = 0.05
    floor: float | None = None      # None allows negative hours


def generate_spot(spec: SyntheticPriceSpec, span: SimulationSpan,
                  streams: RngStreams) -> SpotPriceSeries:
    """Hourly spot price with a morning/evening double peak plus noise."""
    values = _price_like(spec, span, streams.stream("spot"))
    return SpotPriceSeries(span.start, values)


@dataclass
class SyntheticCo2Spec:
    mean_kg_per_kwh: float = 0.15
    diurnal_amplitude: float = 0.05
    noise_std: float = 0.01


def generate_co2(spec: SyntheticCo2Spec, span: SimulationSpan,
                 streams: RngStreams) -> Co2IntensitySeries:
    price_like = SyntheticPriceSpec(spec.mean_kg_per_kwh, spec.diurnal_amplitude,
                                    spec.noise_std, floor=0.0)
    values = _price_like(price_like, span, streams.stream("co2"))
    return Co2IntensitySeries(span.start, values)


def _price_like(spec: SyntheticPriceSpec, span: SimulationSpan,
                rng: np.random.Generator) -> np.ndarray:
    n = span.n_hours
    hour_of_day = (np.arange(n) + span.start.minutes // 60) % 24
    shape = np.cos((hour_of_day - 9) / 24 * 2 * np.pi) \
        + 0.6 * np.cos((hour_of_day - 18) / 12 * 2 * np.pi)
    values = spec.mean_dkk_per_kwh + spec.diurnal_amplitude * shape / 1.6
    if spec.noise_std > 0:
        values = values + rng.normal(0.0, spec.noise_std, size=n)
    if spec.floor is not None:
        values = np.maximum(spec.floor, values)
    return values
