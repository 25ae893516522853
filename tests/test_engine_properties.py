"""Random small scenarios at tick 1, 5 and 15, with every strategy: the
engine's invariants hold, and its output equals the per-tick reference loop's
exactly (``tests/reference_engine.py``)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evsim import engine, strategies
from evsim.engine import ExperimentSpec, VehiclePlan, build_fleet, simulate
from evsim.fleet import DrivingPattern, EvModel, TripEvent, Trips, Vehicle
from evsim.strategies import STRATEGY_NAMES
from evsim.timebase import Timestamp

from conftest import LEAF, flat_data, make_span
from reference_engine import first_difference, invariants_checked, main, simulate_ticks
from test_outputs_cli import SHORT_INI
from test_scenario import write_scenario


@st.composite
def scenarios(draw):
    tick = draw(st.sampled_from([1, 5, 15]))
    start, end = draw(st.sampled_from([("2036-01-01T00:00", "2036-01-03T00:00"),
                                       ("2035-12-31T00:00", "2036-01-02T00:00")]))
    span = make_span(start, end, tick=tick)
    n_models = draw(st.integers(1, 3))
    catalog = [EvModel(f"m{k}", battery_kwh=draw(st.floats(10.0, 100.0)),
                       max_rate_kw=draw(st.sampled_from([2.3, 3.7, 7.4, 11.0, 22.0])),
                       market_share=1.0 / n_models) for k in range(n_models)]
    capacity = draw(st.floats(2.0, 60.0))
    n_households = draw(st.integers(1, 6))
    # household ids 1 to n, or sparse, large or negative ones in any row order
    ids = draw(st.just(range(1, n_households + 1)) | st.lists(
        st.integers(-20, 20) | st.integers(-2**63, 2**63 - 1),
        min_size=n_households, max_size=n_households, unique=True))
    driving = DrivingPattern(trip_energy_mean_kwh=draw(st.floats(2.0, 30.0)))
    buffer_kw = draw(st.floats(0.0, 0.5)) * capacity
    # an hourly baseload that moves the budget from hour to hour
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = flat_data(span, ids=ids, capacity=capacity,
                     buffer_kw=buffer_kw, catalog=catalog, driving=driving,
                     base_kw=rng.uniform(0.0, 2.0, (n_households, span.n_hours)))
    # decision intervals: the multiples of the tick that divide 60
    interval = draw(st.sampled_from([m for m in range(tick, 61, tick) if 60 % m == 0]))
    spec = ExperimentSpec(id="p", strategy=draw(st.sampled_from(STRATEGY_NAMES)),
                          span=span, seed=draw(st.integers(0, 1000)),
                          decision_interval_min=interval)
    # per vehicle: start charge, target and an adoption minute inside the span
    tweaks = draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.5, 1.0),
                                     st.integers(0, 24 * 60 - 1) | st.none()),
                           min_size=n_households, max_size=n_households))
    return spec, data, tweaks


def fleet(spec, data, tweaks):
    plans = build_fleet(spec, data)
    for p, (soc_frac, target_frac, adopt_at) in zip(plans, tweaks):
        battery = p.vehicle.model.battery_kwh
        p.vehicle = replace(p.vehicle, soc_kwh=soc_frac * battery,
                            desired_target_kwh=target_frac * battery)
        if adopt_at is not None:
            p.adoption = Timestamp(spec.span.start.minutes + adopt_at)
            p.trips = Trips.of(t for t in p.trips
                               if t.departure.minutes > p.adoption.minutes)
    return plans


# EDF admits both vehicles at once and vehicle 2 departs first: a grant list in
# deadline order, not id order, fails invariants_checked
_SPAN = make_span("2036-01-01T00:00", "2036-01-03T00:00")
EDF_DEADLINES_OUT_OF_ID_ORDER = (
    ExperimentSpec(id="p", strategy="edf", span=_SPAN, seed=1, decision_interval_min=1),
    flat_data(_SPAN, n_households=2, capacity=60.0), [(0.0, 1.0, None)] * 2)


def check_engine(scenario):
    """The engine's invariants hold on ``scenario``, and its output equals the
    per-tick loop's and a fresh rerun's."""
    spec, data, tweaks = scenario
    with invariants_checked():
        out = simulate(spec, data, fleet(spec, data, tweaks))

    reference = simulate_ticks(spec, data, fleet(spec, data, tweaks))
    assert first_difference(out, reference) is None
    # first_difference compares these dicts without order, but the ledgers'
    # float sums follow the order in which the hours booked the vehicles
    assert [list(d) for d in out.delivered_by_year.values()] == \
        [list(d) for d in reference.delivered_by_year.values()]
    # a fresh ScenarioData holds no physics pass to reuse: a real rerun
    assert first_difference(out, simulate(spec, replace(data), fleet(spec, data, tweaks))) \
        is None

    for v in out.vehicles:
        balance = v.delivered_kwh - v.trip_drain_kwh - (v.final_soc_kwh - v.initial_soc_kwh)
        assert abs(balance) < 1e-6

    # capacity safety: every hour starts on a decision boundary, so the
    # coordinated strategies keep charging within the hour's budget
    if spec.strategy != "traditional":
        tr = data.transformer
        base = np.repeat(data.baseload.block().sum(axis=0), 60 // spec.span.tick_minutes)
        limit = np.maximum(tr.capacity_kw - tr.buffer_kw, base)
        assert (out.load.values <= limit + 1e-6).all()


# CI runs check_engine on 1000 examples
@given(scenarios())
@example(EDF_DEADLINES_OUT_OF_ID_ORDER)
@settings(max_examples=60, deadline=None)
def test_invariants_and_reference_equality(scenario):
    check_engine(scenario)


@pytest.mark.parametrize("tick", [1, 5, 15])
def test_tiny_grant_finishes_on_the_reference_tick(tick):
    # water-filling grants the whole 6e-8 kW budget, which closes a 2e-6 kWh
    # gap after about 2000 minutes of float adds: the engine must jump to the
    # same finishing tick as the per-tick loop
    span = make_span(tick=tick)
    data = flat_data(span, n_households=1, base_kw=1.0, capacity=1.0 + 6e-8)
    spec = ExperimentSpec(id="t", strategy="equal_charge", span=span)

    def plans():
        v = Vehicle(id=1, model=LEAF, soc_kwh=LEAF.battery_kwh - 2e-6)
        return [VehiclePlan(v, span.start, Trips())]

    with invariants_checked():
        out = simulate(spec, data, plans())
    assert first_difference(out, simulate_ticks(spec, data, plans())) is None
    assert out.vehicles[0].final_soc_kwh == pytest.approx(LEAF.battery_kwh, abs=1e-12)


@pytest.mark.parametrize("broken", ["grants_out_of_id_order", "grants_above_budget",
                                    "grant_to_a_vehicle_not_requesting",
                                    "soc_above_battery"])
def test_invariants_checked_fires(monkeypatch, broken):
    # two LEAF-class vehicles (3.7 kW each) behind 5 kW: one fits the budget
    span = make_span()
    data = flat_data(span, n_households=2, base_kw=0.0, capacity=5.0)
    strategy, soc, trips = "traditional", 20.0, Trips()
    if broken == "grants_out_of_id_order":
        grants = strategies.TraditionalDispatcher.grants
        monkeypatch.setattr(strategies.TraditionalDispatcher, "grants",
                            lambda self, budget: grants(self, budget)[::-1])
    elif broken == "grants_above_budget":
        # EDF admitting as if the budget were unlimited
        monkeypatch.setattr(strategies.EdfDispatcher, "grants", lambda self, budget:
                            strategies._admit((e[3] for e in self.order), math.inf))
        strategy = "edf"
    elif broken == "grant_to_a_vehicle_not_requesting":
        # a vehicle at its target on the first tick stays among the requesters
        monkeypatch.setattr(strategies.TraditionalDispatcher, "leave",
                            lambda self, vid: None)
        soc = LEAF.battery_kwh - 0.01
    else:
        # a full battery that a trip fills instead of draining
        monkeypatch.setattr(engine, "drain_trip", lambda vid, soc, energy: soc + energy)
        soc = LEAF.battery_kwh
        trips = Trips.of([TripEvent(Timestamp(span.start.minutes + 60),
                                    Timestamp(span.start.minutes + 120), 5.0)])
    plans = [VehiclePlan(Vehicle(id=vid, model=LEAF, soc_kwh=soc),
                         span.start, trips) for vid in (1, 2)]
    spec = ExperimentSpec(id="t", strategy=strategy, span=span)
    with pytest.raises(AssertionError), invariants_checked():
        simulate(spec, data, plans)


@pytest.mark.parametrize("tick", [1, 15])
def test_differential_script_passes(tmp_path, tick, capsys):
    ini = SHORT_INI.replace("span_end = 2036-01-08T00:00",
                            f"span_end = 2036-01-04T00:00\ntick_minutes = {tick}")
    assert main([str(write_scenario(tmp_path, ini))]) == 0
    assert capsys.readouterr().out.count(": identical") == len(STRATEGY_NAMES)
