import math
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from scipy import stats

from evsim import strategies
from evsim.engine import ExperimentSpec, VehiclePlan, build_fleet, simulate
from evsim.fleet import (AdoptionCurve, DrivingPattern, EvModel, TripEvent, Trips,
                         Vehicle, draw_daily_trip, drain_trip, sample_adoptions,
                         satisfied, validate_catalog)
from evsim.rng import RngStreams
from evsim.timebase import Timestamp

from conftest import FAST, LEAF, flat_data, make_span
from reference_engine import invariants_checked


def make_vehicle(model=LEAF, soc=20.0, target=0.0):
    return Vehicle(id=1, model=model, soc_kwh=soc, desired_target_kwh=target)


def charge_window(model, soc, minutes):
    """Simulate one vehicle plugged in at the span start that leaves after
    `minutes`, on an unconstrained transformer under traditional charging,
    next to a constant 0.5 kW household baseload."""
    span = make_span()
    departure = Timestamp(span.start.minutes + minutes)
    trips = [TripEvent(departure, Timestamp(departure.minutes + 60), 0.0)]
    plans = [VehiclePlan(make_vehicle(model, soc), span.start, Trips.of(trips))]
    return simulate(ExperimentSpec("t", "traditional", span),
                    flat_data(span, n_households=1, base_kw=0.5), plans)


class TestCatalog:
    def test_share_sum_enforced(self):
        bad = [EvModel("a", 40, 11, 0.5), EvModel("b", 40, 11, 0.4)]
        with pytest.raises(ValueError):
            validate_catalog(bad)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            EvModel("x", 0, 11, 1.0)
        with pytest.raises(ValueError):
            EvModel("x", 40, -1, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["battery_kwh", "max_rate_kw"])
    def test_non_finite_fields_rejected(self, field, bad):
        # an infinite rate once charged a 40 kWh battery to an infinite state
        values = {"battery_kwh": 40.0, "max_rate_kw": 11.0, field: bad}
        with pytest.raises(ValueError, match=f"x: {field} must be finite"):
            EvModel("x", market_share=1.0, **values)


class TestChargeStep:
    def test_one_hour_at_rate(self):
        out = charge_window(LEAF, 20.0, 60)
        assert out.sessions[0].delivered_kwh == pytest.approx(3.7)
        assert out.vehicles[0].final_soc_kwh == pytest.approx(40.0)

    def test_idempotent_at_target(self):
        out = charge_window(LEAF, 40.0, 60)
        assert out.sessions[0].delivered_kwh == 0.0
        assert (out.load.values == 0.5).all()

    def test_clamps_at_target_and_releases(self):
        out = charge_window(FAST, 59.0, 15)     # 2.75 kWh would overshoot
        assert out.sessions[0].delivered_kwh == pytest.approx(1.0)
        assert out.load.values[6:15].max() == 0.5   # released after ~5.5 min
        assert out.dissatisfactions == []

    def test_rejects_grant_above_rate(self, monkeypatch):
        def doubled(self, budget):
            for r in self.records:
                r.grant = 2 * r.rate
            return self.records.copy()
        monkeypatch.setattr(strategies.TraditionalDispatcher, "grants", doubled)
        with pytest.raises(AssertionError), invariants_checked():
            charge_window(LEAF, 20.0, 60)


class TestTripEnergy:
    def test_drain(self):
        assert drain_trip(1, 30.0, 8.0) == pytest.approx(22.0)

    def test_floor_at_zero(self, caplog):
        with caplog.at_level("WARNING"):
            assert drain_trip(1, 5.0, 8.0) == 0.0
        assert "vehicle 1 ran out of charge" in caplog.text

    def test_zero_energy_identity(self):
        assert drain_trip(1, 30.0, 0.0) == 30.0


class TestSatisfaction:
    def test_boundary_exact_target_is_satisfied(self):
        assert satisfied(40.0, 40.0) and satisfied(40.0 - 1e-7, 40.0)
        assert not satisfied(40.0 - 1e-5, 40.0)
        assert charge_window(LEAF, 40.0, 60).dissatisfactions == []

    def test_leaf_overnight_window_infeasible(self):
        # 3.7 kW for the 6 hours from 23:00 to 05:00 at 5/40 kWh: 22.2 < 35 needed
        out = charge_window(LEAF, 5.0, 6 * 60)
        assert out.sessions[0].delivered_kwh == pytest.approx(22.2)
        assert [vid for _, vid in out.dissatisfactions] == [1]
        assert out.reports[0].dissatisfaction_count == 1

    def test_fast_twin_same_window_satisfied(self):
        out = charge_window(FAST, 25.0, 6 * 60)  # needs 35 kWh, could get 66
        assert out.sessions[0].delivered_kwh == pytest.approx(35.0)
        assert out.dissatisfactions == []


class TestAdoption:
    def test_flat_curve_no_adoptions(self):
        curve = AdoptionCurve([(2020, 0), (2025, 0)])
        events = sample_adoptions(curve, list(range(10)), [LEAF, FAST],
                                  RngStreams(1).stream("adoption"))
        assert events == []

    @pytest.mark.parametrize("bad", [math.nan, 2.5, -1, math.inf])
    def test_count_must_be_whole_and_non_negative(self, bad):
        with pytest.raises(ValueError, match="cumulative count of 2035 must be a whole"):
            AdoptionCurve([(2030, 0), (2035, bad)])

    @pytest.mark.parametrize("points, message", [
        ([(2030, 5), (2030, 28)], "the year 2030 is listed twice"),
        ([(2030, 5), (2035, 9), (2030, 5)], "the year 2030 is listed twice"),
        ([(1999, 5), (2038, 28)], "the year 1999 is outside 2000..9998"),
        ([(2030, 5), (9999, 28)], "the year 9999 is outside 2000..9998"),
    ])
    def test_years_repeated_or_out_of_range_rejected(self, points, message):
        # each once failed in every experiment that sampled adoptions from it
        with pytest.raises(ValueError, match=message):
            AdoptionCurve(points)

    def test_years_at_the_ends_of_the_range_sample(self):
        curve = AdoptionCurve([(2000, 1), (9998, 3)])
        events = sample_adoptions(curve, [1, 2, 3], [LEAF],
                                  RngStreams(2).stream("adoption"))
        assert len(events) == 3
        assert all(2000 <= e.at.year <= 9998 for e in events)

    def test_full_adoption_by_curve_end(self):
        curve = AdoptionCurve([(2020, 3), (2021, 8), (2022, 12)])
        ids = list(range(12))
        events = sample_adoptions(curve, ids, [LEAF, FAST],
                                  RngStreams(5).stream("adoption"))
        assert len(events) == 12
        assert sorted(e.household_id for e in events) == ids
        end = Timestamp.from_iso("2023-01-01T00:00")
        assert all(e.at.minutes < end.minutes for e in events)

    def test_poisson_moments_first_year(self):
        curve = AdoptionCurve([(2019 + y, 10 * y) for y in range(1, 13)] + [(2032, 126)])
        counts = []
        for seed in range(400):
            rng = RngStreams(seed).stream("adoption")
            events = sample_adoptions(curve, list(range(126)), [LEAF, FAST], rng)
            counts.append(sum(1 for e in events if e.at.year == 2020))
        mean = np.mean(counts)
        assert mean == pytest.approx(10.0, abs=3 * np.sqrt(10 / 400))
        assert 0.8 < np.var(counts) / mean < 1.25

    def test_model_shares_chi_square(self):
        catalog = [EvModel("a", 40, 3.7, 0.3), EvModel("b", 40, 11, 0.45),
                   EvModel("c", 60, 11, 0.25)]
        curve = AdoptionCurve([(2020, 126)])
        names = []
        for seed in range(100):
            rng = RngStreams(1000 + seed).stream("adoption")
            names += [e.model.name for e in
                      sample_adoptions(curve, list(range(126)), catalog, rng)]
        observed = [names.count(m.name) for m in catalog]
        expected = [m.market_share * len(names) for m in catalog]
        _, p = stats.chisquare(observed, expected)
        assert p > 0.01


class TestDailyTrips:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", [f.name for f in fields(DrivingPattern)])
    def test_non_finite_fields_rejected(self, field, bad):
        # a NaN departure mean once reached build_fleet, which failed to round it
        with pytest.raises(ValueError, match=f"driving {field} must be finite"):
            DrivingPattern(**{field: bad})

    def test_zero_probability_no_trip(self):
        pattern = DrivingPattern(weekday_trip_prob=0.0, weekend_trip_prob=0.0)
        v = make_vehicle()
        day = Timestamp.from_iso("2036-01-07T00:00")
        assert draw_daily_trip(v, day, pattern, RngStreams(3).stream("t")) is None

    def test_departure_mean(self):
        pattern = DrivingPattern(departure_mean_min=450, departure_std_min=60)
        rng = RngStreams(11).stream("trips")
        v = make_vehicle()
        day = Timestamp.from_iso("2036-01-07T00:00")   # a Monday
        deps = []
        for _ in range(10_000):
            departure, _, _ = draw_daily_trip(v, day, pattern, rng)
            deps.append(departure % (24 * 60))
        assert np.mean(deps) == pytest.approx(450, abs=2)

    def test_arrival_after_departure(self):
        # overlapping distributions force the resample rule to kick in
        pattern = DrivingPattern(departure_mean_min=700, departure_std_min=120,
                                 arrival_mean_min=760, arrival_std_min=120)
        rng = RngStreams(12).stream("trips")
        v = make_vehicle()
        day = Timestamp.from_iso("2036-01-07T00:00")
        for _ in range(2000):
            departure, arrival, _ = draw_daily_trip(v, day, pattern, rng)
            assert arrival > departure
            assert departure // 1440 == arrival // 1440

    def test_energy_clamped_to_battery(self):
        pattern = DrivingPattern(trip_energy_mean_kwh=100, trip_energy_std_kwh=0)
        rng = RngStreams(13).stream("trips")
        v = make_vehicle()
        day = Timestamp.from_iso("2036-01-07T00:00")
        _, _, energy = draw_daily_trip(v, day, pattern, rng)
        assert energy == pytest.approx(0.9 * LEAF.battery_kwh)

    def test_build_fleet_draws_each_day_as_draw_daily_trip(self):
        # a span starting at noon, and adoptions inside it: the trips of the
        # days before a vehicle joins are drawn and dropped
        span = make_span("2036-01-01T12:00", "2037-01-01T00:00")
        data = flat_data(span, n_households=8,
                         curve=AdoptionCurve([(2035, 3), (2036, 8)]))
        spec = ExperimentSpec(id="t", strategy="edf", span=span, seed=4)
        plans = build_fleet(spec, data)
        assert any(p.adoption.minutes > span.start.minutes for p in plans)
        for p in plans:
            rng = RngStreams(spec.seed).stream(f"trips/{p.vehicle.id}")
            start, end = p.adoption.minutes, span.end.minutes
            draws = [draw_daily_trip(p.vehicle, Timestamp(day * 1440), data.driving, rng)
                     for day in range(-(-start // 1440), end // 1440)]
            want = [trip for trip in draws
                    if trip is not None and trip[0] >= start and trip[1] < end]
            assert isinstance(p.trips, Trips) and list(zip(*p.trips.columns)) == want
        assert sum(len(p.trips) for p in plans) > 100


def test_vehicle_invariants():
    with pytest.raises(ValueError):
        Vehicle(id=1, model=LEAF, soc_kwh=41.0)
    # a NaN target is never met: the engine once put 177.6 kWh into a 40 kWh battery
    for target in (math.nan, -5.0, 41.0):
        with pytest.raises(ValueError, match="target out of"):
            Vehicle(id=1, model=LEAF, soc_kwh=10.0, desired_target_kwh=target)
    v = Vehicle(id=1, model=LEAF, soc_kwh=10.0)
    assert v.desired_target_kwh == LEAF.battery_kwh
    with pytest.raises(FrozenInstanceError):
        v.soc_kwh = 20.0
