"""Per-year key performance indicators and baseline comparison tables."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .grid import OverloadEvent


@dataclass
class KpiReport:
    year: int
    overload_count: int
    avg_charging_cost_dkk_per_kwh: float | None
    avg_total_bill_dkk: float | None
    avg_total_co2_kg: float | None
    dissatisfaction_count: int
    load_factor: float | None
    dso_revenue_dkk: float


@dataclass(frozen=True)
class ComparisonRow:
    metric: str
    value: float | None
    baseline: float | None
    pct_difference: float | None    # None when not applicable


def round_half_away(x: float) -> float:
    """Round to 2 decimals, half away from zero: the convention of reported
    figures."""
    return float(Decimal(repr(x)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def pct_difference(value: float, baseline: float) -> float | None:
    """(value - baseline) / baseline in percent, 2 decimals; for a zero
    baseline, 0.0 when the value is zero too, else None. None as well when
    the percentage is not a finite number: a value or baseline that is
    infinite or NaN, or a quotient that overflows."""
    if baseline == 0:
        return 0.0 if value == 0 else None
    pct = (value - baseline) / baseline * 100.0
    return round_half_away(pct) if math.isfinite(pct) else None


def load_factor(values) -> float | None:
    """Mean load divided by peak load; scale invariant. None, not applicable,
    for a series without a positive peak (an empty one too)."""
    values = np.asarray(values, float)
    peak = float(values.max(initial=0.0))
    if peak <= 0:
        return None
    return float(values.mean()) / peak


# the seven headline metrics, in the order of kpi.csv and comparison.csv, each
# as its kpi.csv column, its KpiReport field (comparison.csv's metric name) and
# the decimals kpi.csv gives it (None: a count, written as it is)
KPI_METRICS = (
    ("overload_count", "overload_count", None),
    ("avg_charging_cost", "avg_charging_cost_dkk_per_kwh", 4),
    ("avg_total_bill", "avg_total_bill_dkk", 2),
    ("avg_total_co2", "avg_total_co2_kg", 4),
    ("dissatisfaction", "dissatisfaction_count", None),
    ("load_factor", "load_factor", 4),
    ("dso_revenue", "dso_revenue_dkk", 2),
)


def compare_reports(a: KpiReport, b: KpiReport) -> list[ComparisonRow]:
    """Per-metric percentage difference of report `a` against baseline `b`."""
    if a.year != b.year:
        raise ValueError(f"comparing different years: {a.year} vs {b.year}")
    rows = []
    for _, name, _ in KPI_METRICS:
        va, vb = getattr(a, name), getattr(b, name)
        if va is None or vb is None:
            rows.append(ComparisonRow(name, va, vb, None))
        else:
            va, vb = float(va), float(vb)
            rows.append(ComparisonRow(name, va, vb, pct_difference(va, vb)))
    return rows


@dataclass
class YearLedger:
    """Everything the engine records about one calendar year of one run."""

    year: int
    hourly_max_load: np.ndarray = field(default_factory=lambda: np.empty(0))
    overload_events: list[OverloadEvent] = field(default_factory=list)
    # per-household totals for the year, keyed by household id
    baseload_cost: dict[int, float] = field(default_factory=dict)
    baseload_tariff: dict[int, float] = field(default_factory=dict)
    baseload_co2: dict[int, float] = field(default_factory=dict)
    charging_kwh: dict[int, float] = field(default_factory=dict)
    charging_cost: dict[int, float] = field(default_factory=dict)
    charging_tariff: dict[int, float] = field(default_factory=dict)
    charging_co2: dict[int, float] = field(default_factory=dict)
    ev_households: list[int] = field(default_factory=list)
    dissatisfaction_count: int = 0


# the overload KPI of each unit a scenario may count in, from a year's events;
# hours are the clock hours in which some event has a minute
OVERLOAD_UNITS = {
    "hours": lambda events: len({h for e in events for h in range(
        e.start.minutes // 60, (e.start.minutes + e.duration_minutes - 1) // 60 + 1)}),
    "events": len,
    "minutes": lambda events: sum(e.duration_minutes for e in events),
}


def check_overload_unit(unit: str) -> str:
    """``unit``, if it is one of ``OVERLOAD_UNITS``."""
    if unit not in OVERLOAD_UNITS:
        raise ValueError(f"unknown overload unit {unit!r}; valid: {', '.join(OVERLOAD_UNITS)}")
    return unit


def assemble_report(ledger: YearLedger, overload_unit: str = "hours") -> KpiReport:
    """Fold one year's ledger into the seven headline indicators.

    Per-user averages divide by the number of EV-owning households at
    year end; a year without any charged energy reports the per-user
    metrics as not-applicable (None), and a year without any load its load
    factor.
    """
    check_overload_unit(overload_unit)

    total_kwh = sum(ledger.charging_kwh.values())
    if total_kwh > 0:
        avg_cost = sum(ledger.charging_cost.values()) / total_kwh
    else:
        avg_cost = None

    ev_hh = ledger.ev_households
    if ev_hh:
        bills = [ledger.baseload_cost.get(h, 0.0) + ledger.charging_cost.get(h, 0.0)
                 for h in ev_hh]
        co2s = [ledger.baseload_co2.get(h, 0.0) + ledger.charging_co2.get(h, 0.0)
                for h in ev_hh]
        avg_bill = float(np.mean(bills))
        avg_co2 = float(np.mean(co2s))
    else:
        avg_bill = None
        avg_co2 = None

    revenue = sum(ledger.baseload_tariff.values()) + sum(ledger.charging_tariff.values())

    return KpiReport(
        year=ledger.year,
        overload_count=OVERLOAD_UNITS[overload_unit](ledger.overload_events),
        avg_charging_cost_dkk_per_kwh=avg_cost,
        avg_total_bill_dkk=avg_bill,
        avg_total_co2_kg=avg_co2,
        dissatisfaction_count=ledger.dissatisfaction_count,
        load_factor=load_factor(ledger.hourly_max_load),
        dso_revenue_dkk=revenue,
    )
