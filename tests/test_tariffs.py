from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsim.engine import ExperimentSpec, VehiclePlan, simulate
from evsim.fleet import Trips, Vehicle
from evsim.tariffs import (Co2IntensitySeries, CoverageError, DistributionTariff,
                           SpotPriceSeries, TouBand)
from evsim.timebase import SimulationSpan, Timestamp

from conftest import LEAF, flat_data, make_span

T0 = Timestamp.from_iso("2036-06-01T00:00")


def at(minutes: int) -> Timestamp:
    return Timestamp(T0.minutes + minutes)


def fixed(rate=0.30):
    return DistributionTariff([TouBand("all", 0, 24, rate)])


def tou_peak_17_20(peak=1.0, offpeak=0.2):
    return DistributionTariff([
        TouBand("all", 0, 17, offpeak),
        TouBand("all", 17, 20, peak),
        TouBand("all", 20, 24, offpeak)])


def charging_report(kwh, **prices):
    """KPIs of a two-day run in which one LEAF, plugged in from the start,
    charges `kwh` next to a zero baseload; `prices` go to flat_data."""
    span = make_span()
    vehicle = Vehicle(id=1, model=LEAF,
                      soc_kwh=LEAF.battery_kwh - kwh)
    data = flat_data(span, n_households=1, base_kw=0.0, **prices)
    out = simulate(ExperimentSpec("t", "traditional", span), data,
                   [VehiclePlan(vehicle, span.start, Trips())])
    return out.reports[0]


def test_quote_fixed_sum():
    rep = charging_report(10.0, spot=1.0, tariff=0.30, addons=0.05)
    assert rep.avg_charging_cost_dkk_per_kwh == pytest.approx(1.35)
    assert rep.dso_revenue_dkk == pytest.approx(3.0)


def test_quote_tou_peak_lookup():
    rates = tou_peak_17_20().hourly_rates(SimulationSpan(T0, at(24 * 60)))
    assert rates[18] == pytest.approx(1.0)
    assert rates[12] == pytest.approx(0.2)
    # band edges: start hour inclusive, end hour exclusive
    assert rates[16:21].tolist() == [0.2, 1.0, 1.0, 1.0, 0.2]


def test_negative_spot_passes_through():
    rep = charging_report(10.0, spot=-0.05, tariff=0.30)
    assert rep.avg_charging_cost_dkk_per_kwh == pytest.approx(0.25)


def test_out_of_coverage_raises():
    spot = SpotPriceSeries(T0, np.full(24, 1.0))
    with pytest.raises(CoverageError):
        spot.slice_hours(SimulationSpan(T0, at(25 * 60)))


def test_series_compare_by_value():
    spot = SpotPriceSeries(T0, np.arange(24.0))
    assert spot == SpotPriceSeries(T0, np.arange(24.0))
    changed = np.arange(24.0)
    changed[7] = -1.0
    for other in (SpotPriceSeries(T0, changed), SpotPriceSeries(at(60), np.arange(24.0)),
                  SpotPriceSeries(T0, np.arange(23.0)), Co2IntensitySeries(T0, np.arange(24.0))):
        assert spot != other and other != spot


def test_hour_constancy():
    # an hour's rate does not depend on where the span starts
    tariff = tou_peak_17_20()
    day = tariff.hourly_rates(SimulationSpan(T0, at(24 * 60)))
    for h in range(24):
        assert tariff.hourly_rates(SimulationSpan(at(h * 60), at(h * 60 + 60)))[0] == day[h]


def test_cost_and_co2_examples():
    rep = charging_report(10.0, spot=1.3495, tariff=0.0, co2=0.5)
    assert rep.avg_charging_cost_dkk_per_kwh == pytest.approx(1.3495)
    assert rep.avg_total_bill_dkk == pytest.approx(13.495)
    assert rep.avg_total_co2_kg == pytest.approx(5.0)
    assert rep.dso_revenue_dkk == 0.0


@settings(max_examples=20, deadline=None)
@given(st.floats(0.5, 15), st.floats(0.5, 15))
def test_cost_linearity(a, b):
    prices = dict(spot=1.1, tariff=0.3, addons=0.05)
    bill = charging_report(a + b, **prices).avg_total_bill_dkk
    assert bill == pytest.approx(charging_report(a, **prices).avg_total_bill_dkk +
                                 charging_report(b, **prices).avg_total_bill_dkk,
                                 rel=1e-9, abs=1e-9)


def test_tou_partition_enforced():
    with pytest.raises(ValueError):
        DistributionTariff([TouBand("all", 0, 12, 0.2)])
    with pytest.raises(ValueError):
        DistributionTariff([
            TouBand("all", 0, 13, 0.2), TouBand("all", 12, 24, 0.3)])   # overlap


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf"), -0.1])
def test_band_rate_must_be_finite_and_non_negative(rate):
    with pytest.raises(ValueError):
        DistributionTariff([TouBand("all", 0, 24, rate)])
    with pytest.raises(ValueError):
        DistributionTariff([TouBand("summer", 0, 24, 0.2),
                            TouBand("winter", 0, 17, 0.2), TouBand("winter", 17, 24, rate)])


def test_one_band_rates_equal_a_flat_array():
    # a fixed rate is one 24-hour band: each hour's rate is that float, bit for
    # bit, on both sides of a year boundary and in both seasons
    span = SimulationSpan(Timestamp.from_iso("2036-12-30T05:00"),
                          Timestamp.from_iso("2037-07-02T00:00"))
    for rate in (0.3, 0.1 + 0.2, 0.0, 1 / 3):
        rates = fixed(rate).hourly_rates(span)
        want = np.full(span.n_hours, rate)
        assert rates.dtype == want.dtype and rates.tobytes() == want.tobytes()


def oracle_rates(tariff, span):
    """Each hour's rate from datetime's calendar, band by band: April to
    September is summer."""
    rates = []
    for h in range(span.n_hours):
        t = span.start.to_datetime() + timedelta(hours=h)
        season = "summer" if 4 <= t.month <= 9 else "winter"
        rates.append(next(b.dkk_per_kwh for b in tariff.bands if b.season in ("all", season)
                          and b.start_hour <= t.hour < b.end_hour))
    return rates


def test_seasonal_bands():
    tariff = DistributionTariff([
        TouBand("summer", 0, 17, 0.2), TouBand("summer", 17, 20, 0.8),
        TouBand("summer", 20, 24, 0.25),
        TouBand("winter", 0, 17, 0.3), TouBand("winter", 17, 20, 1.2),
        TouBand("winter", 20, 24, 0.35)])
    # the 2036 leap day and both season edges of 2035, 2036 and 2037
    span = SimulationSpan(Timestamp.from_iso("2035-03-01T00:00"),
                          Timestamp.from_iso("2037-11-01T00:00"))
    for t in (tariff, tou_peak_17_20()):
        assert t.hourly_rates(span).tolist() == oracle_rates(t, span)

    rates = tariff.hourly_rates(span)

    def rate(iso):
        return rates[(Timestamp.from_iso(iso).minutes - span.start.minutes) // 60]

    assert rate("2036-06-15T18:00") == pytest.approx(0.8)
    assert rate("2036-01-15T18:00") == pytest.approx(1.2)
    assert rate("2036-02-29T18:00") == pytest.approx(1.2)
    assert (rate("2036-03-31T23:00"), rate("2036-04-01T00:00")) == (0.35, 0.2)
    assert (rate("2036-09-30T23:00"), rate("2036-10-01T00:00")) == (0.25, 0.3)


def test_every_minute_maps_to_one_rate():
    tariff = tou_peak_17_20()
    span = SimulationSpan(T0, at(7 * 24 * 60))
    rates = tariff.hourly_rates(span)
    assert len(rates) == span.n_hours
    assert set(np.round(rates, 6)) == {0.2, 1.0}


def test_co2_series_rejects_negative():
    with pytest.raises(ValueError):
        Co2IntensitySeries(T0, np.array([0.1, -0.2]))


@pytest.mark.parametrize("band, match", [
    (TouBand("all", 0, 24, 5.0), "season 'all' bands do not partition the 24 hours"),
    (TouBand("all", 0, 24, float("nan")), "tariff rate nan is not finite")],
    ids=["overlapping", "nan"])
def test_bands_changed_in_place_rejected_when_priced(band, match):
    # tariff objects may change in place: a band appended to a valid tariff
    # once priced every hour at its own rate, or, with a NaN rate, raised an
    # AssertionError. Pricing raises the constructor's error instead.
    tariff = tou_peak_17_20()
    tariff.bands.append(band)
    with pytest.raises(ValueError, match=match):
        tariff.hourly_rates(SimulationSpan(T0, at(24 * 60)))
    with pytest.raises(ValueError, match=match):
        DistributionTariff(tariff.bands)
