from dataclasses import fields

import numpy as np
import pytest

from evsim.engine import ExperimentSpec, VehiclePlan, simulate
from evsim.fleet import Trips, Vehicle
from evsim.kpi import (KPI_METRICS, KpiReport, YearLedger,
                       assemble_report, compare_reports, load_factor, pct_difference,
                       round_half_away)
from evsim.tariffs import DistributionTariff, TouBand
from evsim.timebase import Timestamp

from conftest import LEAF, flat_data, make_span


def report(**overrides):
    base = dict(year=2039, overload_count=0, avg_charging_cost_dkk_per_kwh=1.0,
                avg_total_bill_dkk=10_000.0, avg_total_co2_kg=500.0,
                dissatisfaction_count=0, load_factor=0.25,
                dso_revenue_dkk=150_000.0)
    base.update(overrides)
    return KpiReport(**base)


def charging_ledger(kwh, cost):
    """A year's ledger with per-household charged energy and its cost."""
    led = YearLedger(year=2039, hourly_max_load=np.array([100.0, 300.0]))
    led.charging_kwh = dict(enumerate(kwh, 1))
    led.charging_cost = dict(enumerate(cost, 1))
    led.ev_households = sorted(led.charging_kwh)
    return led


def charge_from(hour, data, tariff_mode="fixed"):
    """Year report of a run where one LEAF plugs in at `hour` of the first
    day needing one hour at full rate (3.7 kWh)."""
    span = make_span()
    vehicle = Vehicle(id=1, model=LEAF,
                      soc_kwh=LEAF.battery_kwh - 3.7)
    plan = VehiclePlan(vehicle, Timestamp(span.start.minutes + hour * 60), Trips())
    spec = ExperimentSpec("t", "traditional", span, tariff_mode=tariff_mode)
    return simulate(spec, data, [plan]).reports[0]


class TestLoadFactor:
    def test_constant_is_one(self):
        assert load_factor(np.full(100, 321.0)) == pytest.approx(1.0)

    def test_two_point_example(self):
        assert load_factor(np.array([100.0, 300.0])) == pytest.approx(0.6667, abs=1e-4)

    def test_scale_invariance(self):
        values = np.random.default_rng(1).uniform(10, 400, 200)
        assert load_factor(values) == pytest.approx(load_factor(values / 2))

    def test_all_zero_undefined(self):
        assert load_factor(np.zeros(10)) is None
        assert load_factor(np.zeros(0)) is None


class TestAvgChargingCost:
    def test_flat_rate(self):
        rep = assemble_report(charging_ledger([5.0, 5.0], [5 * 1.3495, 5 * 1.3495]))
        assert rep.avg_charging_cost_dkk_per_kwh == pytest.approx(1.3495)

    def test_weighted_mean(self):
        rep = assemble_report(charging_ledger([1.0, 1.0], [1.0, 2.0]))
        assert rep.avg_charging_cost_dkk_per_kwh == pytest.approx(1.5)

    def test_shifting_to_cheap_hours_lowers_cost(self):
        data = flat_data(make_span(), n_households=1, base_kw=0.0, tariff=0.0)
        data.spot.values[:12] = 2.0               # 1.0 from noon on
        expensive = charge_from(0, data).avg_charging_cost_dkk_per_kwh
        shifted = charge_from(12, data).avg_charging_cost_dkk_per_kwh
        assert expensive == pytest.approx(2.0)
        assert shifted == pytest.approx(1.0)

    def test_zero_energy_undefined(self):
        rep = assemble_report(charging_ledger([0.0], [0.0]))
        assert rep.avg_charging_cost_dkk_per_kwh is None


class TestDsoRevenue:
    def test_fixed_tariff(self):
        span = make_span()                        # 48 hours
        data = flat_data(span, n_households=10, base_kw=1.0, tariff=0.5)
        out = simulate(ExperimentSpec("t", "traditional", span), data, [])
        assert out.reports[0].dso_revenue_dkk == pytest.approx(10 * 48 * 0.5)

    def test_zero_consumption(self):
        rep = assemble_report(charging_ledger([0.0], [0.0]))
        assert rep.dso_revenue_dkk == 0.0

    def test_peak_to_offpeak_shift_lowers_revenue(self):
        data = flat_data(make_span(), n_households=1, base_kw=0.5)
        data.tariffs["time_of_use"] = DistributionTariff([
            TouBand("all", 0, 17, 0.2), TouBand("all", 17, 20, 1.0),
            TouBand("all", 20, 24, 0.2)])
        peaky = charge_from(17, data, "time_of_use").dso_revenue_dkk
        shifted = charge_from(21, data, "time_of_use").dso_revenue_dkk
        assert peaky - shifted == pytest.approx(3.7 * (1.0 - 0.2))


class TestPctDifference:
    def test_reference_values(self):
        assert pct_difference(0.252, 0.2048) == 23.05
        assert pct_difference(0.2977, 0.2025) == 47.01
        assert pct_difference(1.3482, 1.3495) == -0.10
        assert pct_difference(147_006.17, 168_397.66) == -12.70

    def test_zero_baseline_not_applicable(self):
        assert pct_difference(5.0, 0.0) is None
        assert pct_difference(0.0, 0.0) == 0.0

    def test_non_finite_not_applicable(self):
        inf, nan = float("inf"), float("nan")
        for value, baseline in [(inf, 1.0), (-inf, 2.0), (nan, 1.0), (inf, 0.0),
                                (nan, 0.0), (1.0, inf), (1.0, -inf), (1.0, nan),
                                (inf, inf), (1e308, 1e-10)]:
            assert pct_difference(value, baseline) is None, (value, baseline)

    def test_half_away_from_zero(self):
        assert round_half_away(0.005) == 0.01
        assert round_half_away(-0.005) == -0.01


class TestCompareReports:
    def test_identical_reports_all_zero(self):
        rows = compare_reports(report(), report())
        assert all(r.pct_difference == 0.0 for r in rows)

    def test_load_factor_row(self):
        rows = compare_reports(report(load_factor=0.252),
                               report(load_factor=0.2048))
        by_name = {r.metric: r for r in rows}
        assert by_name["load_factor"].pct_difference == 23.05

    def test_year_mismatch(self):
        with pytest.raises(ValueError):
            compare_reports(report(year=2038), report(year=2039))

    def test_none_metric_marked_na(self):
        rows = compare_reports(report(avg_charging_cost_dkk_per_kwh=None),
                               report())
        by_name = {r.metric: r for r in rows}
        assert by_name["avg_charging_cost_dkk_per_kwh"].pct_difference is None


class TestAssembleReport:
    def ledger(self, **overrides):
        led = YearLedger(year=2039, hourly_max_load=np.array([100.0, 300.0]))
        led.baseload_cost = {1: 100.0, 2: 200.0}
        led.baseload_tariff = {1: 30.0, 2: 60.0}
        led.baseload_co2 = {1: 10.0, 2: 20.0}
        led.charging_kwh = {1: 10.0}
        led.charging_cost = {1: 13.0}
        led.charging_tariff = {1: 3.0}
        led.charging_co2 = {1: 1.5}
        led.ev_households = [1]
        for k, v in overrides.items():
            setattr(led, k, v)
        return led

    def test_fields(self):
        rep = assemble_report(self.ledger())
        assert rep.avg_charging_cost_dkk_per_kwh == pytest.approx(1.3)
        assert rep.avg_total_bill_dkk == pytest.approx(113.0)
        assert rep.avg_total_co2_kg == pytest.approx(11.5)
        assert rep.dso_revenue_dkk == pytest.approx(93.0)
        assert rep.load_factor == pytest.approx(200.0 / 300.0)

    def test_revenue_not_above_total_bills(self):
        led = self.ledger()
        rep = assemble_report(led)
        total_bills = sum(led.baseload_cost.values()) + sum(led.charging_cost.values())
        assert rep.dso_revenue_dkk <= total_bills

    def test_year_without_evs(self):
        led = self.ledger(charging_kwh={}, charging_cost={}, charging_tariff={},
                          charging_co2={}, ev_households=[])
        rep = assemble_report(led)
        assert rep.avg_charging_cost_dkk_per_kwh is None
        assert rep.avg_total_bill_dkk is None
        assert rep.dissatisfaction_count == 0

    def test_year_without_load_has_no_load_factor(self):
        rep = assemble_report(self.ledger(hourly_max_load=np.zeros(24)))
        assert rep.load_factor is None

    def test_overload_units(self):
        from evsim.grid import OverloadEvent
        from evsim.timebase import Timestamp
        # the third event crosses into the hour after its start
        events = [OverloadEvent(Timestamp(17 * 60), 18, 74.16),
                  OverloadEvent(Timestamp(18 * 60), 60, 55.27),
                  OverloadEvent(Timestamp(19 * 60 + 50), 20, 3.5)]
        led = self.ledger(overload_events=events)
        assert assemble_report(led, "hours").overload_count == 4
        assert assemble_report(led, "events").overload_count == 3
        assert assemble_report(led, "minutes").overload_count == 98
        with pytest.raises(ValueError):
            assemble_report(led, "days")


def test_kpi_metrics_are_the_report_fields_in_order():
    # kpi.csv, comparison.csv and `evsim compare` all read this one table
    assert [name for _, name, _ in KPI_METRICS] == [f.name for f in fields(KpiReport)][1:]
