import copy
import gc
import logging
import pickle
import re
import shutil
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from evsim import engine
from evsim.engine import (ExperimentSpec, HouseholdBaseload, Sessions, VehiclePlan,
                          build_fleet, run_experiment, simulate)
from evsim.fleet import AdoptionCurve, DrivingPattern, EvModel, TripEvent, Trips, Vehicle
from evsim.grid import LoadSeries, hourly_max
from evsim.rng import RngStreams
from evsim.scenario import load_scenario
from evsim.strategies import STRATEGY_NAMES
from evsim.synth import (SyntheticBaseloadSpec, SyntheticPriceSpec, generate_baseload,
                         generate_spot)
from evsim.tariffs import CoverageError, DistributionTariff, SpotPriceSeries, TouBand
from evsim.timebase import SimulationSpan, Timestamp

from conftest import FAST, LEAF, flat_data, make_span
from reference_engine import first_difference, invariants_checked, simulate_ticks

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "perfbench" / "scenarios"


def spec_for(span, strategy="round_robin", **kw):
    return ExperimentSpec(id="t", strategy=strategy, span=span, **kw)


def plan(vid, model, soc, adoption, trips, target=0.0):
    v = Vehicle(id=vid, model=model, soc_kwh=soc, desired_target_kwh=target)
    return VehiclePlan(v, adoption, Trips.of(trips))


def minute(span, offset):
    return Timestamp(span.start.minutes + offset)


class TestPhaseOrder:
    def test_departure_closes_session_before_dispatch(self, two_day_span):
        span = two_day_span
        data = flat_data(span, n_households=1, base_kw=0.0)
        # 40 kWh deficit at 3.7 kW: still charging at the 08:00 departure
        trips = [TripEvent(minute(span, 8 * 60), minute(span, 16 * 60), 5.0)]
        plans = [plan(1, LEAF, 0.0, span.start, trips)]
        out = simulate(spec_for(span, "traditional"), data, plans)
        assert out.load.values[8 * 60 - 1] == pytest.approx(3.7)
        assert out.load.values[8 * 60] == 0.0     # departed before dispatch
        session = out.sessions[0]
        assert session.unplug.minutes == span.start.minutes + 8 * 60

    def test_mid_interval_arrival_waits_for_boundary(self, two_day_span):
        span = two_day_span
        data = flat_data(span, n_households=1, base_kw=0.0)
        # arrival at 16:07; Round Robin cycles on 15-minute boundaries
        trips = [TripEvent(minute(span, 8 * 60), minute(span, 16 * 60 + 7), 5.0)]
        plans = [plan(1, FAST, 60.0, span.start, trips)]
        out = simulate(spec_for(span, "round_robin"), data, plans)
        arr = 16 * 60 + 7
        assert out.load.values[arr:16 * 60 + 15].max() == 0.0
        assert out.load.values[16 * 60 + 15] == pytest.approx(11.0)

    def test_traditional_charges_immediately_at_arrival(self, two_day_span):
        span = two_day_span
        data = flat_data(span, n_households=1, base_kw=0.0)
        trips = [TripEvent(minute(span, 8 * 60), minute(span, 16 * 60 + 7), 5.0)]
        plans = [plan(1, FAST, 60.0, span.start, trips)]
        out = simulate(spec_for(span, "traditional"), data, plans)
        assert out.load.values[16 * 60 + 7] == pytest.approx(11.0)

    def test_event_keys_decode_in_processing_order(self, two_day_span):
        # adoptions, departures and arrivals of three vehicles, 9 the largest
        # id, meet in minute t: by minute, then kind, then vehicle id
        span = two_day_span
        t = 8 * 60

        def trip(dep, arr):
            return TripEvent(minute(span, dep), minute(span, arr), 1.0)
        plans = [plan(9, LEAF, 0.0, minute(span, t), [trip(t, t + 5), trip(t + 9, t + 20)]),
                 plan(2, LEAF, 0.0, minute(span, t), [trip(t, t + 9)]),
                 plan(4, LEAF, 0.0, minute(span, 0), [trip(t - 9, t), trip(t + 1, t + 5)])]
        run = engine._Run(spec_for(span), flat_data(span, n_households=9), plans)
        # a key holds its plan's place in id order, which places the records
        assert [r.vid for r in run.records] == [2, 4, 9]
        want = sorted([(p.adoption.minutes, engine._ADOPT, p.vehicle.id) for p in plans]
                      + [(tr.departure.minutes, engine._DEPART, p.vehicle.id)
                         for p in plans for tr in p.trips]
                      + [(tr.arrival.minutes, engine._ARRIVE, p.vehicle.id)
                         for p in plans for tr in p.trips])
        decoded = [(mk // engine._KINDS, mk % engine._KINDS, run.records[k].vid)
                   for mk, k in (divmod(key, len(plans)) for key in run.events)]
        assert decoded == want
        assert sum(m == span.start.minutes + t for m, _, _ in decoded) == 5


class TestCompletionHorizon:
    def test_released_at_the_first_stop_on_its_finishing_tick(self, two_day_span,
                                                              monkeypatch):
        # 6 kW at a 1-minute tick is 0.1 kWh a tick: 1.05 kWh to go takes ten
        # whole ticks and half of the eleventh, so the target falls on tick 10
        model = EvModel("six", battery_kwh=40.0, max_rate_kw=6.0, market_share=1.0)
        spans = []
        charge = engine._Run.charge

        def recorded(run, i, j, base_kw):
            charge(run, i, j, base_kw)
            spans.append((i, j, [r.vid for r in run.grants]))
        monkeypatch.setattr(engine._Run, "charge", recorded)
        out = simulate(spec_for(two_day_span, "traditional"),
                       flat_data(two_day_span, n_households=1),
                       [plan(1, model, 38.95, two_day_span.start, [])])
        assert spans[0] == (0, 11, [])
        assert out.vehicles[0].final_soc_kwh == pytest.approx(40.0)


class TestHoldLast:
    def test_released_capacity_not_reallocated_mid_interval(self, two_day_span):
        span = two_day_span
        data = flat_data(span, n_households=2, base_kw=0.0, capacity=11.0)
        # both plugged from start; only one fits; v1 finishes mid-interval
        plans = [plan(1, FAST, 59.5, span.start, [], target=60.0),
                 plan(2, FAST, 0.0, span.start, [])]
        out = simulate(spec_for(span, "round_robin"), data, plans)
        # v1 needs 0.5 kWh -> ~3 minutes at 11 kW, releases mid-interval
        assert out.load.values[0] == pytest.approx(11.0)
        assert out.load.values[4] == 0.0           # released, not reallocated
        assert out.load.values[15] == pytest.approx(11.0)   # v2 from boundary

    def test_grants_constant_between_boundaries(self, two_day_span):
        span = two_day_span
        data = flat_data(span, n_households=3, base_kw=0.0, capacity=22.0)
        plans = [plan(i, FAST, 0.0, span.start, []) for i in (1, 2, 3)]
        out = simulate(spec_for(span, "round_robin"), data, plans)
        window = out.load.values[:15]
        assert (window == window[0]).all()

    @pytest.mark.parametrize("strategy", ["fcfs", "round_robin", "edf"])
    def test_depart_and_return_within_an_interval(self, two_day_span, strategy):
        # vehicle 2 charges from minute 0, leaves at 5 and is back at 10, before
        # the 15-minute boundary: the dispatchers see it at both boundaries, so
        # it keeps its FCFS admission and its Round Robin streak while 3 waits
        span = two_day_span
        data = flat_data(span, n_households=3, base_kw=0.0, capacity=22.0)
        spec = spec_for(span, strategy, decision_interval_min=15)

        def plans():
            trips = [TripEvent(minute(span, 5), minute(span, 10), 0.5)]
            return [plan(vid, FAST, 0.0, span.start, trips if vid == 2 else [])
                    for vid in (1, 2, 3)]

        with invariants_checked():
            out = simulate(spec, data, plans())
        assert first_difference(out, simulate_ticks(spec, data, plans())) is None


class TestDeterminism:
    def test_same_spec_same_output(self):
        span = make_span("2036-01-01T00:00", "2036-01-08T00:00")
        data = flat_data(span, n_households=5,
                         curve=AdoptionCurve([(2035, 5)]))
        s = spec_for(span, "fcfs", seed=7)
        a = run_experiment(s, data)
        # a freshly built ScenarioData: nothing of the first run is reused
        b = run_experiment(s, flat_data(span, n_households=5,
                                        curve=AdoptionCurve([(2035, 5)])))
        assert np.array_equal(a.load.values, b.load.values)
        assert a.reports == b.reports
        assert a.sessions == b.sessions

    def test_different_seed_different_fleet(self):
        span = make_span("2036-01-01T00:00", "2036-01-08T00:00")
        data = flat_data(span, n_households=5, curve=AdoptionCurve([(2035, 5)]))
        a = run_experiment(spec_for(span, "fcfs", seed=1), data)
        b = run_experiment(spec_for(span, "fcfs", seed=2), data)
        assert not np.array_equal(a.load.values, b.load.values)


class TestConservationAndBounds:
    @pytest.mark.parametrize("strategy", ["traditional", "round_robin", "fcfs",
                                          "equal_charge", "edf"])
    def test_energy_balance_per_vehicle(self, strategy):
        span = make_span("2036-01-01T00:00", "2036-01-15T00:00")
        data = flat_data(span, n_households=6, capacity=20.0,
                         curve=AdoptionCurve([(2035, 6)]))
        from evsim.engine import build_fleet
        s = spec_for(span, strategy, seed=3)
        plans = build_fleet(s, data)
        with invariants_checked():
            out = simulate(s, data, plans)
        for v in out.vehicles:
            balance = v.delivered_kwh - v.trip_drain_kwh \
                - (v.final_soc_kwh - v.initial_soc_kwh)
            assert abs(balance) < 1e-6


class TestInputHandling:
    def test_span_beyond_series_raises_named_coverage_error(self):
        span = make_span("2036-01-01T00:00", "2036-01-03T00:00")
        data = flat_data(span, n_households=1)
        long_span = make_span("2036-01-01T00:00", "2036-01-05T00:00")
        with pytest.raises(CoverageError, match="2036-01-0"):
            simulate(spec_for(long_span, "traditional"), data, [])

    def test_series_longer_than_span_truncated(self):
        long_span = make_span("2036-01-01T00:00", "2036-01-10T00:00")
        data = flat_data(long_span, n_households=1)
        short = make_span("2036-01-02T00:00", "2036-01-04T00:00")
        out = simulate(spec_for(short, "traditional"), data, [])
        assert len(out.load.values) == short.n_ticks

    def test_interval_not_dividing_the_hour_rejected(self, two_day_span):
        # grants held across an hour start would keep the previous hour's
        # budget: with a 45-minute edf interval, two 11 kW vehicles and a 30 kW
        # transformer whose baseload steps from 1 to 25 kW at 01:00 overloaded
        with pytest.raises(ValueError, match="decision_interval_min must divide 60"):
            spec_for(two_day_span, "edf", decision_interval_min=45)
        assert spec_for(two_day_span, "edf", decision_interval_min=60).interval == 60

    @pytest.mark.parametrize("vid, arrivals, match", [
        # no household has the id -1, which the keys could not hold before
        pytest.param(-1, [16 * 60], "household -1 is not", id="-1-arrivals0-negative"),
        (1, [40 * 60, 16 * 60], "arrival order")])
    def test_plan_the_event_keys_cannot_hold_rejected(self, two_day_span, vid, arrivals,
                                                      match):
        span = two_day_span
        data = flat_data(span, n_households=1, base_kw=0.0)
        trips = [TripEvent(minute(span, a - 60), minute(span, a), 1.0) for a in arrivals]
        with pytest.raises(ValueError, match=match):
            simulate(spec_for(span, "edf"), data, [plan(vid, LEAF, 0.0, span.start, trips)])

    @pytest.mark.parametrize("trips", [
        [(480, 960, -5.0)], [(480, 960, 1.0), (1900, 2000, float("nan"))],
        [(480, 960, float("inf"))], [(960, 480, 1.0)], [(480, 480, 1.0)],
        [(100, 960, 1.0)], [(480, 960, 1.0), (900, 1000, 1.0)],
        [(480, 960, 1.0), (960, 1000, 1.0)],
    ], ids=["negative_energy", "nan_energy", "infinite_energy", "reversed",
            "no_duration", "before_adoption", "overlapping", "departs_as_the_last_arrives"])
    def test_trips_the_engine_cannot_take_rejected(self, two_day_span, trips):
        # a trip of -5 kWh once left a 40 kWh battery at 45 kWh, and one of
        # nan kWh its state of charge at nan
        span = two_day_span
        data = flat_data(span, n_households=2, base_kw=0.0)
        events = [TripEvent(minute(span, d), minute(span, a), e) for d, a, e in trips]
        plans = [plan(1, LEAF, 0.0, span.start, []),
                 plan(2, LEAF, LEAF.battery_kwh, minute(span, 120), events)]
        d, a, e = trips[-1]
        want = f"vehicle 2: trip {len(trips) - 1} (minutes {span.start.minutes + d} " \
            f"to {span.start.minutes + a}, {e} kWh) must depart at or after minute"
        with pytest.raises(ValueError, match=re.escape(want)):
            simulate(spec_for(span, "edf"), data, plans)

    @pytest.mark.parametrize("n_trips", [0, 1])
    def test_trips_given_as_a_list_rejected(self, two_day_span, n_trips):
        span = two_day_span
        data = flat_data(span, n_households=2, base_kw=0.0)
        trips = [TripEvent(minute(span, 8 * 60), minute(span, 16 * 60), 5.0)][:n_trips]
        vehicle = Vehicle(id=2, model=LEAF, soc_kwh=0.0)
        plans = [plan(1, LEAF, 0.0, span.start, []), VehiclePlan(vehicle, span.start, trips)]
        with pytest.raises(TypeError, match="vehicle 2: trips must be Trips, not list"):
            simulate(spec_for(span, "edf"), data, plans)

    def test_repeated_vehicle_id_rejected(self, two_day_span):
        span = two_day_span
        data = flat_data(span, n_households=1, base_kw=0.0)
        trips = [TripEvent(minute(span, 8 * 60), minute(span, 16 * 60), 5.0)]
        plans = [plan(1, LEAF, 0.0, span.start, trips), plan(1, FAST, 0.0, span.start, [])]
        with pytest.raises(ValueError, match="vehicle id 1 is in more than one plan"):
            simulate(spec_for(span, "edf"), data, plans)

    @pytest.mark.parametrize("vid", [0, 99],
                             ids=["id_below_the_households", "household_not_in_scenario"])
    def test_vehicle_billed_to_another_household_rejected(self, two_day_span, vid):
        # a vehicle's charging is billed to the household of its id
        span = two_day_span
        data = flat_data(span, n_households=2)
        v = Vehicle(id=vid, model=LEAF, soc_kwh=0.0)
        with pytest.raises(ValueError, match=f"vehicle {vid}: household {vid} is not"):
            simulate(spec_for(span, "traditional"), data,
                     [VehiclePlan(v, span.start, Trips())])

    def test_plan_naming_no_household_rejected_before_the_first_tick(
            self, two_day_span, monkeypatch):
        span = two_day_span
        spans = []
        charge = engine._Run.charge

        def counted(run, i, j, base_kw):
            spans.append((i, j))
            charge(run, i, j, base_kw)
        monkeypatch.setattr(engine._Run, "charge", counted)
        plans = [plan(1, LEAF, 0.0, span.start, []), plan(7, LEAF, 0.0, span.start, [])]
        with pytest.raises(ValueError, match="vehicle 7: household 7 is not one of"):
            simulate(spec_for(span, "traditional"), flat_data(span, n_households=2), plans)
        assert spans == []

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_large_sparse_and_negative_ids_run_as_small_ones(self, two_day_span, strategy):
        # ids in the same order give the same run: a key holds a plan's place
        # in id order, not its id, so no id is too large or negative for it
        span = two_day_span
        ids, small = (-5, 3, 123_456_789_012_345_678), (1, 2, 3)
        base_kw = np.random.default_rng(5).uniform(0.0, 2.0, (3, span.n_hours))
        spec = spec_for(span, strategy, decision_interval_min=5)

        def plans(vids):
            trips = [[TripEvent(minute(span, 7 * 60), minute(span, 17 * 60), 12.0)],
                     [TripEvent(minute(span, 7 * 60), minute(span, 16 * 60), 9.0),
                      TripEvent(minute(span, 31 * 60), minute(span, 40 * 60), 20.0)], []]
            # given out of id order, which the run's records restore
            return [plan(vids[k], model, 5.0, start, trips[k], target=model.battery_kwh)
                    for k, model, start in [(2, FAST, minute(span, 60)),
                                            (0, LEAF, span.start), (1, FAST, span.start)]]

        def run(vids):
            data = flat_data(span, base_kw=base_kw, capacity=14.0, ids=vids)
            with invariants_checked():
                return simulate(spec, data, plans(vids))
        out, want = run(ids), run(small)
        to_small = dict(zip(ids, small)).__getitem__
        relabelled = replace(
            out, sessions=Sessions.of(replace(s, vehicle_id=to_small(s.vehicle_id))
                                      for s in out.sessions),
            dissatisfactions=[(t, to_small(v)) for t, v in out.dissatisfactions],
            vehicles=[replace(v, vehicle_id=to_small(v.vehicle_id)) for v in out.vehicles],
            delivered_by_year={y: {to_small(v): kwh for v, kwh in d.items()}
                               for y, d in out.delivered_by_year.items()})
        assert first_difference(relabelled, want) is None
        assert [list(d) for d in relabelled.delivered_by_year.values()] == \
            [list(d) for d in want.delivered_by_year.values()]
        assert want.dissatisfactions and len(want.sessions) == 6

    def test_unknown_strategy_rejected(self, two_day_span):
        with pytest.raises(ValueError, match="valid"):
            ExperimentSpec(id="x", strategy="fastest_first", span=two_day_span)

    def test_unknown_tariff_mode_rejected(self, two_day_span):
        with pytest.raises(ValueError, match="unknown tariff mode 'bogus'"):
            ExperimentSpec(id="x", strategy="edf", span=two_day_span, tariff_mode="bogus")


class TestBaseloadIsolation:
    def test_strategies_differ_only_in_charging(self):
        span = make_span("2036-01-01T00:00", "2036-01-08T00:00")
        data = flat_data(span, n_households=5, capacity=15.0,
                         curve=AdoptionCurve([(2035, 5)]))
        a = run_experiment(spec_for(span, "traditional", seed=4), data)
        b = run_experiment(spec_for(span, "round_robin", seed=4), data)
        # load energy = household baseload + delivered charging, in both runs
        base_kwh = data.baseload.block().sum()
        for out in (a, b):
            delivered = sum(v.delivered_kwh for v in out.vehicles)
            assert out.load.values.sum() / 60 == pytest.approx(base_kwh + delivered)
        # same fleet, same trips: charging dispatch is the only difference
        assert sum(sum(d.values()) for d in a.delivered_by_year.values()) > 0


class TestOverloads:
    @pytest.mark.parametrize("tick", [1, 5, 15])
    def test_same_overload_count_at_any_tick(self, tick):
        span = make_span(tick=tick)
        base_kw = np.ones(span.n_hours)
        base_kw[17:20] = 10.0                    # 20 kW on 10 kW, 17:00-20:00
        data = flat_data(span, n_households=2, base_kw=base_kw, capacity=10.0)
        out = simulate(spec_for(span, "traditional", decision_interval_min=15),
                       data, [])
        assert out.reports[0].overload_count == 3            # hours
        assert [(e.start.minutes - span.start.minutes, e.duration_minutes)
                for e in out.overload_events] == [(17 * 60, 180)]


class TestDissatisfaction:
    def test_missed_target_counts_once_per_departure(self, two_day_span):
        span = two_day_span
        data = flat_data(span, n_households=1, base_kw=0.0, capacity=400.0)
        day = 24 * 60
        trips = [TripEvent(minute(span, 5 * 60), minute(span, 23 * 60), 35.0),
                 TripEvent(minute(span, day + 5 * 60), minute(span, day + 23 * 60), 35.0)]
        plans = [plan(1, LEAF, 40.0, span.start, trips)]
        out = simulate(spec_for(span, "traditional"), data, plans)
        # second departure at 05:00 after 23:00 arrival: 3.7 kW cannot refill 35 kWh
        assert len(out.dissatisfactions) == 1
        assert out.dissatisfactions[0][1] == 1
        assert out.reports[0].dissatisfaction_count == 1


@pytest.fixture
def count_physics(monkeypatch):
    """The experiment ids of the charging-physics passes run since the fixture
    started."""
    calls = []
    charge = engine._charge

    def counted(*args, **kwargs):
        calls.append(args[0].id)
        return charge(*args, **kwargs)
    monkeypatch.setattr(engine, "_charge", counted)
    return calls


class TestSharedPhysics:
    """Experiments that differ only in their tariff share one physics pass,
    and ``run_experiment`` builds each (seed, span) fleet once."""

    def test_simulate_leaves_the_plans_as_it_found_them(self):
        span = make_span("2036-01-01T00:00", "2036-01-08T00:00")
        data = flat_data(span, n_households=6, capacity=20.0,
                         curve=AdoptionCurve([(2035, 6)]))
        s = spec_for(span, "edf", seed=3)
        plans = build_fleet(s, data)
        before = copy.deepcopy(plans)
        with invariants_checked():
            out = simulate(s, data, plans)
        assert out.sessions and plans == before

    def test_demo_matrix_in_reverse_shares_physics(self, tmp_path, count_physics):
        shutil.copy(SCENARIOS / "tou_tariff.csv", tmp_path)
        ini = (SCENARIOS / "demo_matrix.ini").read_text().replace(
            "span_end = 2039-01-08T00:00", "span_end = 2039-01-03T00:00")
        (tmp_path / "small.ini").write_text(ini)
        scn = load_scenario(tmp_path / "small.ini")
        specs = scn.experiments[::-1]
        assert specs[0].tariff_mode == "time_of_use" and len(specs) == 10
        outs = [run_experiment(s, scn.data) for s in specs]
        assert len(count_physics) == 5
        # a tariff pair shares its pass's lists themselves
        first_of_pass = {}
        for s, out in zip(specs, outs):
            first = first_of_pass.setdefault(s.physics_key, out)
            assert out.sessions is first.sessions and out.vehicles is first.vehicles
        assert len(first_of_pass) == 5
        for s, out in zip(specs, outs):
            fresh = build_fleet(s, scn.data)
            assert first_difference(out, simulate_ticks(s, scn.data, fresh)) is None, s.id

    def test_dense_feeder_day_equals_the_tick_loop(self, tmp_path):
        # hundreds of requesters, and spans of one or two ticks between stops
        shutil.copy(SCENARIOS / "dense_adoption_curve.csv", tmp_path)
        ini = (SCENARIOS / "dense_feeder.ini").read_text().replace(
            "span_end = 2039-01-06T00:00", "span_end = 2039-01-04T00:00")
        (tmp_path / "dense.ini").write_text(ini)
        scn = load_scenario(tmp_path / "dense.ini")
        outs = [run_experiment(s, scn.data) for s in scn.experiments]
        assert len(outs) == 5
        for s, out in zip(scn.experiments, outs):
            fresh = build_fleet(s, scn.data)
            assert first_difference(out, simulate_ticks(s, scn.data, fresh)) is None, s.id

    def test_fleet_changed_in_place_gets_a_fresh_pass(self, count_physics):
        span = make_span("2036-01-01T00:00", "2036-01-04T00:00")
        data = flat_data(span, n_households=4, capacity=12.0,
                         curve=AdoptionCurve([(2035, 4)]))
        s = spec_for(span, "fcfs", seed=5)
        plans = build_fleet(s, data)
        first = simulate(s, data, plans)
        plans[0].vehicle = replace(plans[0].vehicle, soc_kwh=0.0)
        again = simulate(s, data, plans)
        assert len(count_physics) == 2
        assert first_difference(first, again) is not None
        fresh = build_fleet(s, data)
        fresh[0].vehicle = replace(fresh[0].vehicle, soc_kwh=0.0)
        assert first_difference(again, simulate_ticks(s, data, fresh)) is None

    def test_fleet_of_the_caller_gets_a_pass_of_its_own(self, count_physics):
        span = make_span("2036-01-01T00:00", "2036-01-04T00:00")
        data = flat_data(span, n_households=4, capacity=12.0,
                         curve=AdoptionCurve([(2035, 4)]))
        s = spec_for(span, "fcfs", seed=5)
        plans = build_fleet(s, data)
        first = simulate(s, data, plans)
        again = simulate(s, data, plans)
        assert len(count_physics) == 2 and len(data._physics) == 0
        assert first_difference(first, again) is None

    def test_registered_pass_serves_only_its_own_fleet(self, count_physics):
        span = make_span("2036-01-01T00:00", "2036-01-04T00:00")
        data = flat_data(span, n_households=4, capacity=12.0,
                         curve=AdoptionCurve([(2035, 4)]))
        s = spec_for(span, "fcfs", seed=5)
        shared = run_experiment(s, data)
        own = simulate(s, data, build_fleet(s, data))
        assert len(count_physics) == 2 and own._physics is not shared._physics
        assert list(data._physics.keys()) == [s.physics_key]
        assert data._physics[s.physics_key] is shared._physics
        assert first_difference(shared, own) is None

    def test_strategies_on_one_seed_and_span_build_one_fleet(self, monkeypatch):
        span = make_span("2036-01-01T00:00", "2036-01-04T00:00")
        data = flat_data(span, n_households=4, curve=AdoptionCurve([(2035, 4)]))
        calls = []

        def counted(spec, *args):
            calls.append(spec.strategy)
            return build_fleet(spec, *args)
        monkeypatch.setattr(engine, "build_fleet", counted)
        outs = [run_experiment(spec_for(span, name, seed=2), data)
                for name in ("traditional", "edf")]
        assert calls == ["traditional"]
        assert outs[0]._physics.fleet is outs[1]._physics.fleet

    def test_inputs_cannot_change_in_place(self):
        span = make_span("2036-01-01T00:00", "2036-01-04T00:00")
        data = flat_data(span, n_households=4, curve=AdoptionCurve([(2035, 4)]))
        for d in (data, pickle.loads(pickle.dumps(data)), copy.deepcopy(data)):
            with pytest.raises(FrozenInstanceError):
                d.driving = DrivingPattern(trip_energy_mean_kwh=20.0)
            with pytest.raises(ValueError, match="read-only"):
                d.baseload.matrix[0, 0] = 1.0

    def test_factor_inputs_cannot_change_in_place(self):
        span = make_span("2036-01-01T00:00", "2036-01-04T00:00")
        data = replace(flat_data(span, n_households=4, curve=AdoptionCurve([(2035, 4)])),
                       baseload=generate_baseload(SyntheticBaseloadSpec(), [1, 2, 3, 4],
                                                  span, RngStreams(2)))
        for d in (data, pickle.loads(pickle.dumps(data)), copy.deepcopy(data)):
            assert d.baseload.matrix is None and d.baseload == data.baseload
            for factor in (d.baseload.daily, d.baseload.weights):
                with pytest.raises(ValueError, match="read-only"):
                    factor[0] = 1.0

    def test_replaced_data_builds_its_own_fleet(self):
        span = make_span("2036-01-01T00:00", "2036-01-04T00:00")
        data = flat_data(span, n_households=4, curve=AdoptionCurve([(2035, 4)]))
        s = spec_for(span, "edf", seed=2)
        first = run_experiment(s, data)
        longer = replace(data, driving=DrivingPattern(trip_energy_mean_kwh=20.0))
        second = run_experiment(s, longer)     # while first is alive
        assert sum(v.trip_drain_kwh for v in second.vehicles) > \
            sum(v.trip_drain_kwh for v in first.vehicles)
        fresh = build_fleet(s, longer)
        assert first_difference(second, simulate_ticks(s, longer, fresh)) is None

    def test_dropped_outputs_release_fleet_and_physics(self):
        span = make_span("2036-01-01T00:00", "2036-01-04T00:00")
        data = flat_data(span, n_households=4, curve=AdoptionCurve([(2035, 4)]))
        outs = [run_experiment(spec_for(span, name, seed=2), data)
                for name in ("traditional", "edf")]
        assert len(data._physics) == 2
        assert outs[0]._physics.fleet is outs[1]._physics.fleet
        first_plan = weakref.ref(outs[0]._physics.fleet[0])
        del outs
        gc.collect()
        assert len(data._physics) == 0 and first_plan() is None

    def test_copies_start_without_fleets_and_passes(self):
        span = make_span("2036-01-01T00:00", "2036-01-04T00:00")
        data = flat_data(span, n_households=4, curve=AdoptionCurve([(2035, 4)]))
        out = run_experiment(spec_for(span, "edf", seed=2), data)
        assert out._physics.fleet and len(data._physics) == 1
        for other in (copy.copy(data), copy.deepcopy(data),
                      pickle.loads(pickle.dumps(data))):
            assert len(other._physics) == 0
            assert other.transformer == data.transformer
        assert pickle.loads(pickle.dumps(out))._physics is None

    def test_outputs_compare_by_value(self):
        span = make_span("2036-01-01T00:00", "2036-01-04T00:00")
        data = flat_data(span, n_households=4, capacity=12.0,
                         curve=AdoptionCurve([(2035, 4)]))
        trad, edf = (run_experiment(spec_for(span, name, seed=2), data)
                     for name in ("traditional", "edf"))
        # what a --parallel worker sends back; the per-trip and per-session
        # values carry no __dict__
        assert trad.sessions and trad == pickle.loads(pickle.dumps(trad))
        trip = trad._physics.fleet[0].trips[0]
        for value in (trip, trip.arrival, trad.sessions[0]):
            assert not hasattr(value, "__dict__")
            assert copy.deepcopy(value) == value == pickle.loads(pickle.dumps(value))
        assert hash(pickle.loads(pickle.dumps(trip))) == hash(trip)
        assert trad.load == pickle.loads(pickle.dumps(trad.load))
        assert trad != edf and trad.load != edf.load

    def test_output_holds_no_trip_or_session_objects(self):
        # the fleet an output keeps alive holds its trips, and the physics
        # pass its sessions, as numbers: records are built only on demand
        span = make_span("2036-01-01T00:00", "2036-01-08T00:00")
        data = flat_data(span, n_households=6, capacity=20.0,
                         curve=AdoptionCurve([(2035, 6)]))

        def records_alive():
            gc.collect()
            return sum(isinstance(o, (TripEvent, engine.ChargeSession))
                       for o in gc.get_objects())
        before = records_alive()
        out = run_experiment(spec_for(span, "edf", seed=3), data)
        assert len(out.sessions) > 0
        assert sum(len(p.trips) for p in out._physics.fleet) > 0
        assert records_alive() == before

    def test_tariff_pair_prices_its_pass_alike(self, count_physics):
        # a time-of-use tariff at the fixed rate, across a year boundary: the
        # pair's outputs are equal, though each pricing pass builds its own
        # delivered_by_year
        span = make_span("2036-12-30T00:00", "2037-01-02T00:00")
        data = flat_data(span, n_households=4, capacity=30.0,
                         curve=AdoptionCurve([(2035, 4)]))
        flat_tou = DistributionTariff([TouBand("all", 0, 24, 0.3)])
        data = replace(data, tariffs={**data.tariffs, "time_of_use": flat_tou})
        fixed, tou = (run_experiment(spec_for(span, "edf", seed=2, tariff_mode=mode), data)
                      for mode in ("fixed", "time_of_use"))
        assert len(count_physics) == 1
        assert fixed.sessions is tou.sessions and fixed.vehicles is tou.vehicles
        assert fixed.delivered_by_year is not tou.delivered_by_year
        assert list(fixed.delivered_by_year) == [2036, 2037]
        assert all(fixed.delivered_by_year.values())
        assert fixed.delivered_by_year == tou.delivered_by_year
        assert fixed.reports == tou.reports

    def test_live_pass_priced_with_the_inputs_changed_in_place(self, count_physics):
        # the spot, CO2 and tariff objects may change in place, since every
        # call prices afresh: a tariff sibling reuses the live pass and prices
        # it as a fresh scenario with the new inputs would
        span = make_span("2036-12-30T00:00", "2037-01-02T00:00")
        data = flat_data(span, n_households=4, capacity=30.0,
                         curve=AdoptionCurve([(2035, 4)]))
        data.tariffs["time_of_use"] = DistributionTariff([TouBand("all", 0, 24, 0.3)])
        fixed = run_experiment(spec_for(span, "edf", seed=2), data)
        data.tariffs["time_of_use"] = DistributionTariff([
            TouBand("all", 0, 17, 0.2), TouBand("all", 17, 20, 1.5), TouBand("all", 20, 24, 0.2)])
        data.spot.values[::5] = 2.5
        tou_spec = spec_for(span, "edf", seed=2, tariff_mode="time_of_use")
        tou = run_experiment(tou_spec, data)
        assert count_physics == ["t"] and tou.sessions is fixed.sessions
        fresh = run_experiment(tou_spec, replace(
            data, spot=SpotPriceSeries(span.start, data.spot.values.copy()),
            tariffs=dict(data.tariffs)))
        assert len(count_physics) == 2 and fresh.sessions is not tou.sessions
        assert first_difference(tou, fresh) is None
        assert tou.reports != fixed.reports
        data.spot.values[7] = np.nan
        with pytest.raises(ValueError, match="series contains non-finite values"):
            run_experiment(spec_for(span, "edf", seed=2), data)
        assert len(count_physics) == 2 and fixed._physics is tou._physics

    @pytest.mark.parametrize("name, change, match", [
        ("co2", lambda s: s.values.fill(-1.0), "CO2 intensity must be non-negative"),
        ("spot", lambda s: s.values.__setitem__(5, np.nan), "series contains non-finite values"),
        ("spot", lambda s: setattr(s, "values", np.stack([s.values, s.values], axis=1)),
         "hourly series must be one-dimensional")],
        ids=["negative_co2", "nan_spot", "two_dimensional_spot"])
    def test_series_checked_when_priced(self, count_physics, name, change, match):
        # a negative CO2 intensity once gave a negative CO2 KPI, a NaN spot
        # price a NaN bill, and a 2-D series (accepted when built) a numpy
        # broadcast error; each raises the constructor's error before charging
        span = make_span()
        data = flat_data(span)
        series = getattr(data, name)
        change(series)
        with pytest.raises(ValueError, match=match):
            simulate(spec_for(span, "edf"), data, [plan(1, LEAF, 0.0, span.start, [])])
        assert count_physics == []
        with pytest.raises(ValueError, match=match):
            type(series)(series.start, series.values)

    def test_trip_clamp_warned_once_per_run(self, caplog):
        # seed 1 draws exactly one trip above the 10 kWh battery
        span = make_span("2036-01-01T00:00", "2036-01-04T00:00")
        tiny = EvModel("tiny", battery_kwh=10.0, max_rate_kw=3.7, market_share=1.0)
        data = flat_data(span, n_households=2, catalog=[tiny],
                         driving=DrivingPattern(trip_energy_mean_kwh=6.0))
        with caplog.at_level(logging.WARNING, logger="evsim.fleet"):
            outs = [run_experiment(spec_for(span, name, seed=1), data)
                    for name in ("traditional", "fcfs", "edf")]
        clamped = [r for r in caplog.records if "clamped" in r.getMessage()]
        assert len(outs) == 3 and len(clamped) == 1


def synthetic_data(span, n_households=10, capacity=30.0):
    """Scenario data whose baseload and spot price vary from hour to hour: the
    synthetic ones of ``span``, the baseload held as daily factors."""
    ids = list(range(1, n_households + 1))
    streams = RngStreams(3)
    return replace(flat_data(span, n_households=n_households, capacity=capacity,
                             curve=AdoptionCurve([(span.start.year - 1, n_households)])),
                   baseload=generate_baseload(SyntheticBaseloadSpec(), ids, span, streams),
                   spot=generate_spot(SyntheticPriceSpec(), span, streams))


def as_matrix(data):
    """``data`` with its baseload's values held as one matrix."""
    b = data.baseload
    return replace(data, baseload=HouseholdBaseload(b.start, b.household_ids, b.block()))


class TestBaseloadForms:
    # across the 2027/2028 year boundary and the 2028 leap day
    SPAN = make_span("2027-12-29T00:00", "2028-03-02T00:00")

    @pytest.mark.parametrize("start, end", [
        ("2027-12-29T00:00", "2028-03-02T00:00"),
        # starts and ends inside a day, so each year's block is cut inside one
        ("2027-12-30T05:00", "2028-03-01T17:00"),
        # a first year of one hour: a one-column block
        ("2027-12-31T23:00", "2028-01-01T07:00"),
    ])
    @pytest.mark.parametrize("strategy", ["traditional", "edf"])
    def test_matrix_and_factor_forms_give_equal_outputs(self, start, end, strategy):
        factors = synthetic_data(self.SPAN)
        matrix = as_matrix(factors)
        assert matrix.baseload.matrix is not None and factors.baseload.matrix is None
        s = spec_for(make_span(start, end), strategy, seed=4)
        outs = [simulate(s, d, build_fleet(s, d)) for d in (factors, matrix)]
        assert first_difference(*outs) is None
        assert len(outs[0].reports) == 2 and outs[0].reports[0].avg_total_bill_dkk > 0

    def test_one_hour_year_sums_as_the_whole_span(self):
        # numpy sums a lone column pairwise: the engine's one-hour block of
        # the first year must still give the per-tick loop's row-order sums
        # (for these 16 households, that hour's pairwise sum differs)
        data = synthetic_data(self.SPAN, n_households=16)
        s = spec_for(make_span("2027-12-31T23:00", "2028-01-01T07:00"), "edf", seed=4)
        out = simulate(s, data, build_fleet(s, data))
        reference = simulate_ticks(s, data, build_fleet(s, data))
        assert first_difference(out, reference) is None

    @pytest.mark.parametrize("strategy", ["traditional", "edf"])
    def test_charging_across_new_year_lands_in_both_years(self, strategy):
        # vehicle 1 charges from 23:00 on 31 December into the new year;
        # vehicle 2 is full before midnight
        data = synthetic_data(self.SPAN, n_households=2)
        s = spec_for(make_span("2027-12-31T20:00", "2028-01-01T04:00"), strategy, seed=4)

        def plans():
            return [plan(1, LEAF, 10.0, Timestamp.from_iso("2027-12-31T23:00"), []),
                    plan(2, FAST, 50.0, Timestamp.from_iso("2027-12-31T20:00"), [])]
        out = simulate(s, data, plans())
        reference = simulate_ticks(s, data, plans())
        assert first_difference(out, reference) is None
        by_year = out.delivered_by_year
        assert [list(d) for d in by_year.values()] == \
            [list(d) for d in reference.delivered_by_year.values()] == [[2, 1], [1]]
        assert by_year[2027][1] > 0 and by_year[2028][1] > 0
        assert by_year[2027][1] + by_year[2028][1] == pytest.approx(out.vehicles[0].delivered_kwh)

    def test_first_year_without_charging_keeps_its_year(self):
        data = synthetic_data(self.SPAN, n_households=2)
        s = spec_for(make_span("2027-12-31T00:00", "2028-01-02T00:00"), "edf", seed=4)

        def plans():
            return [plan(1, LEAF, 10.0, Timestamp.from_iso("2028-01-01T06:00"), [])]
        out = simulate(s, data, plans())
        assert first_difference(out, simulate_ticks(s, data, plans())) is None
        assert list(out.delivered_by_year) == [2027, 2028]
        assert out.delivered_by_year[2027] == {} and out.delivered_by_year[2028][1] > 0
        first = out.reports[0]
        assert first.avg_charging_cost_dkk_per_kwh is None and first.avg_total_bill_dkk is None

    def test_forms_of_equal_values_compare_equal(self):
        factors = synthetic_data(self.SPAN).baseload
        matrix = as_matrix(synthetic_data(self.SPAN)).baseload
        assert factors == matrix and matrix == factors and factors == copy.deepcopy(factors)
        values = factors.block().copy()
        values[3, 100] = np.nextafter(values[3, 100], np.inf)
        for other in (HouseholdBaseload(factors.start, factors.household_ids, values),
                      HouseholdBaseload(Timestamp(factors.start.minutes + 60),
                                        factors.household_ids, factors.block()),
                      HouseholdBaseload(factors.start, factors.household_ids,
                                        factors.block()[:, :-1])):
            assert factors != other and other != factors

    def test_equality_reads_the_factors_block_by_block(self, monkeypatch):
        span = make_span("2027-01-01T00:00", "2030-01-01T00:00")
        baseload = synthetic_data(span, n_households=2).baseload
        other = copy.deepcopy(baseload)
        widths = []
        block = HouseholdBaseload.block

        def recording(self, lo=0, hi=None, buffer=None):
            out = block(self, lo, hi, buffer)
            widths.append(out.shape[1])
            return out
        monkeypatch.setattr(HouseholdBaseload, "block", recording)
        assert baseload == other
        assert sum(widths) == 2 * span.n_hours and max(widths) <= 31 * 24

    @pytest.mark.parametrize("form", [
        {"matrix": np.ones(2)},
        {"daily": np.ones(2), "weights": np.ones(24)},
        {"daily": np.ones((2, 2)), "weights": np.ones(23)},
    ])
    def test_misshapen_forms_rejected(self, form):
        with pytest.raises(ValueError, match="baseload must be a"):
            HouseholdBaseload(Timestamp(0), [1, 2], **form)

    @pytest.mark.parametrize("bad, message", [
        ({-1: np.nan}, "baseload values must be finite"),
        ({-1: -1.0}, "baseload must be non-negative"),
        ({0: -1.0, -1: np.nan}, "baseload values must be finite"),
    ])
    @pytest.mark.parametrize("where", ["matrix", "daily"])
    def test_values_checked_up_to_the_last_block(self, where, bad, message):
        # two blocks and a day; the bad values lie in the first and the last
        # hour of the matrix, or the first and the last day of the factors
        days = 2 * engine._BLOCK_HOURS // 24 + 1
        values = np.ones((2, days if where == "daily" else 24 * days))
        for at, value in bad.items():
            values[1, at] = value
        form = {"matrix": values} if where == "matrix" else \
            {"daily": values, "weights": np.full(24, 1 / 24)}
        with pytest.raises(ValueError, match=message):
            HouseholdBaseload(Timestamp(0), [1, 2], **form)

    def test_checking_a_paper_scale_matrix_takes_a_block_at_a_time(self):
        # 20 years of 126 households: the checks may add one block's
        # temporaries to the matrix, not whole-matrix ones
        tracemalloc.start()
        try:
            matrix = np.zeros((126, 175_320))     # its pages are only read
            HouseholdBaseload(Timestamp(0), range(1, 127), matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix.nbytes + 2 * 2**20

    @pytest.mark.parametrize("daily, weights", [
        ([[1.0, 2.0]], [0.5] * 24),
        ([[-1.0, 2.0]], [0.5] * 24),
        ([[1.0, 2.0]], [-0.5] + [0.5] * 23),
        ([[-1.0, -2.0]], [-0.5] * 24),
        ([[0.0, -0.0]], [-0.5] + [0.5] * 23),
        ([[np.nan, 1.0]], [-0.5] + [0.5] * 23),
        ([[np.nan, np.nan]], [-0.5] + [0.5] * 23),
        ([[np.inf, 1.0]], [0.0] * 24),
        ([[np.inf, 1.0]], [np.nan] + [-0.5] * 23),
        ([[1e-200, 2e-200], [0.0, 0.0]], [-1e-200] + [0.5] * 23),   # rounds to -0.0
        ([[1e-160, 2e-160]], [-1e-160] + [0.5] * 23),                 # a denormal below 0
        ([[1.0], [2.0], [-3.0]], [0.0] * 23 + [1e-300]),
        ([[1e300, 1.0]], [1e10] * 24),                              # products overflow
    ])
    def test_factors_rejected_exactly_when_their_matrix_would_be(self, daily, weights):
        def rejection(**form):
            try:
                HouseholdBaseload(Timestamp(0), list(range(len(daily))), **form)
            except ValueError as exc:
                assert "non-negative" in str(exc) or "finite" in str(exc)
                return str(exc)
            return None
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            matrix = np.stack([np.outer(row, weights).ravel() for row in daily])
        assert rejection(daily=daily, weights=weights) == rejection(matrix=matrix)

    @pytest.mark.parametrize("where", ["matrix", "daily"])
    def test_repeated_household_ids_rejected(self, where):
        # the load would count both rows, the bills price the id once
        form = {"matrix": np.ones((3, 48))} if where == "matrix" else \
            {"daily": np.ones((3, 2)), "weights": np.full(24, 1 / 24)}
        with pytest.raises(ValueError, match="baseload household id 2 is repeated"):
            HouseholdBaseload(Timestamp(0), [2, 1, 2], **form)

    @pytest.mark.parametrize("hid", [2**63, -2**63 - 1])
    def test_household_id_beyond_64_bits_rejected(self, hid):
        # such a vehicle once ran its whole span, and its first session then
        # failed with a bare OverflowError; -2**63 and 2**63 - 1 run
        with pytest.raises(ValueError, match=f"household id {hid} does not fit in 64 bits"):
            HouseholdBaseload(Timestamp(0), [1, hid], np.ones((2, 48)))
        span = make_span()
        data = flat_data(span, ids=[-2**63, 2**63 - 1])
        plans = [plan(hid, LEAF, 0.0, span.start, [], target=10.0)
                 for hid in (2**63 - 1, -2**63)]
        out = simulate(spec_for(span, "edf"), data, plans)
        assert [s.vehicle_id for s in out.sessions] == [-2**63, 2**63 - 1]
        assert out.delivered_by_year[2036] == {-2**63: pytest.approx(10.0),
                                               2**63 - 1: pytest.approx(10.0)}

    @pytest.mark.parametrize("hid", [2.5, "2"])
    def test_household_id_not_an_integer_rejected(self, hid):
        # a vehicle of id 2.5 once charged and then failed with a bare
        # TypeError in the session arrays; "2" failed with one here
        with pytest.raises(ValueError, match=re.escape(f"household id {hid!r} is not an integer")):
            HouseholdBaseload(Timestamp(0), [1, hid], np.ones((2, 48)))

    def test_numpy_integer_household_id_runs(self):
        span = make_span()
        data = flat_data(span, ids=[1, np.int64(7)])
        out = simulate(spec_for(span, "edf"), data,
                       [plan(7, LEAF, 0.0, span.start, [], target=10.0)])
        assert [s.vehicle_id for s in out.sessions] == [7]
        assert out.delivered_by_year[2036] == {7: pytest.approx(10.0)}
        assert out.reports[0].avg_charging_cost_dkk_per_kwh == pytest.approx(1.3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["matrix", "daily", "weights"])
    def test_non_finite_values_rejected(self, where, bad):
        # HourlySeries rejects them too; a library matrix once summed to inf and nan
        form = {"matrix": np.ones((2, 48))} if where == "matrix" else \
            {"daily": np.ones((2, 2)), "weights": np.full(24, 1 / 24)}
        form[where].flat[1] = bad
        with pytest.raises(ValueError, match="baseload values must be finite"):
            HouseholdBaseload(Timestamp(0), [1, 2], **form)


def test_scenario_households_are_the_baseloads():
    # the pricing pass bills baseload row k to household k, whatever the labels
    scn = load_scenario(ROOT / "demos" / "neighborhood.ini")
    base = scn.data.baseload
    ids = base.household_ids[::-1]
    other = replace(scn.data, baseload=HouseholdBaseload(
        base.start, ids, daily=base.daily, weights=base.weights))
    assert scn.data.household_ids == base.household_ids and other.household_ids == ids


def test_scenario_data_rejects_an_unknown_overload_unit():
    # at construction, not in the pricing pass after the whole charging pass
    scn = load_scenario(ROOT / "demos" / "neighborhood.ini")
    with pytest.raises(ValueError, match="overload unit 'days'"):
        replace(scn.data, overload_unit="days")


def test_scenario_data_rejects_a_curve_above_its_households():
    scn = load_scenario(ROOT / "demos" / "neighborhood.ini")
    with pytest.raises(ValueError, match="127 adopters but the scenario has 126 households"):
        replace(scn.data, adoption_curve=AdoptionCurve([(2039, 127)]))


def test_scenario_data_compares_by_value():
    scn = load_scenario(ROOT / "demos" / "neighborhood.ini")
    for other in (copy.deepcopy(scn.data), pickle.loads(pickle.dumps(scn.data))):
        assert scn.data == other
    spot = scn.data.spot
    values = spot.values.copy()
    values[5] += 0.01
    assert scn.data != replace(scn.data, spot=SpotPriceSeries(spot.start, values))
    assert scn.data != replace(scn.data, baseload=HouseholdBaseload(
        scn.data.baseload.start, scn.data.household_ids, scn.data.baseload.block() * 2))
    assert scn.data != replace(scn.data, baseload=HouseholdBaseload(
        scn.data.baseload.start, scn.data.household_ids[::-1], scn.data.baseload.block()))


def _band(season="all", start_hour=0, end_hour=24):
    return TouBand(season, start_hour, end_hour, 0.1)


@pytest.mark.parametrize("build, match", [
    (lambda: HouseholdBaseload(Timestamp(0), [1]), "needs a matrix, or daily factors"),
    (lambda: HouseholdBaseload(Timestamp(0), [1], np.ones((1, 24)), np.ones((1, 1)),
                               np.ones(24)), "needs a matrix, or daily factors"),
    (lambda: HouseholdBaseload(Timestamp(30), [1], np.ones((1, 24))),
     "baseload must start on an hour boundary"),
    (lambda: HouseholdBaseload(Timestamp(0), [1, 2], np.ones((1, 24))),
     "rows must match household count"),
    (lambda: EvModel("x", 40.0, 7.4, 1.5), "market share out of"),
    (lambda: AdoptionCurve([]), "empty adoption curve"),
    (lambda: LoadSeries(Timestamp(0), 1, np.ones((2, 2))), "one-dimensional"),
    (lambda: LoadSeries(Timestamp(0), 0, np.ones(3)), "resolution must be positive"),
    (lambda: hourly_max(LoadSeries(Timestamp(0), 7, np.ones(70))), "must divide 60"),
    (lambda: hourly_max(LoadSeries(Timestamp(30), 1, np.ones(120))),
     "series must start on an hour boundary"),
    (lambda: SpotPriceSeries(Timestamp(30), np.ones(3)),
     "hourly series must start on an hour boundary"),
    (lambda: DistributionTariff([]), "at least one band"),
    (lambda: DistributionTariff([_band(), _band("summer")]), "bands must use season"),
    (lambda: DistributionTariff([_band(start_hour=5, end_hour=3)]), "bad band hours 5..3"),
    (lambda: SimulationSpan(Timestamp(0), Timestamp(60), 0), "tick must be positive"),
], ids=["baseload-no-form", "baseload-both-forms", "baseload-start", "baseload-rows",
        "market-share", "empty-curve", "load-2d", "load-resolution", "hourly-max-resolution",
        "hourly-max-start", "hourly-start", "no-bands", "mixed-seasons", "band-hours",
        "span-tick"])
def test_constructor_rejects(build, match):
    with pytest.raises(ValueError, match=match):
        build()
