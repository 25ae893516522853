import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsim.engine import ExperimentSpec, VehiclePlan, simulate
from evsim.fleet import Vehicle
from evsim.grid import (LoadSeries, Transformer, available_capacity,
                        detect_overloads, hourly_max)
from evsim.timebase import Timestamp

from conftest import FAST, LEAF, flat_data, make_span

T0 = Timestamp.from_iso("2032-01-29T00:00")


def simulated_load(base_kw_by_household, vehicles=()):
    """Transformer load of a one-day traditional run with constant household
    baseloads and (model, soc) vehicles plugged in from the start."""
    span = make_span("2036-01-01T00:00", "2036-01-02T00:00")
    data = flat_data(span, n_households=len(base_kw_by_household),
                     base_kw=np.asarray(base_kw_by_household)[:, None])
    plans = [VehiclePlan(Vehicle(id=i + 1, household_id=i + 1, model=model,
                                 soc_kwh=soc), span.start, [])
             for i, (model, soc) in enumerate(vehicles)]
    return simulate(ExperimentSpec("t", "traditional", span), data, plans).load.values


def test_transformer_load_examples():
    assert (simulated_load([120.0]) == 120.0).all()
    load = simulated_load([100.0, 50.0], [(FAST, 0.0), (LEAF, 0.0)])
    assert load[0] == pytest.approx(164.7)
    assert load[6 * 60] == pytest.approx(153.7)    # FAST full after ~5.5 h
    assert load[-1] == 150.0                        # LEAF full after ~11 h
    assert (simulated_load([0.0] * 125 + [1.0]) == 1.0).all()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0, 50), min_size=1, max_size=20))
def test_transformer_load_permutation_invariant(base):
    if sum(base) == 0:
        base = base + [1.0]     # an all-zero load has no load factor
    forward = simulated_load(base)
    assert forward == pytest.approx(np.full(len(forward), sum(base)))
    assert simulated_load(list(reversed(base))) == pytest.approx(forward)


def test_available_capacity_examples():
    assert available_capacity(Transformer(400), 150) == 250
    assert available_capacity(Transformer(400, 20), 390) == 0      # clamped
    assert available_capacity(Transformer(400), 0) == 400
    hourly = available_capacity(Transformer(400, 20), np.array([150.0, 390.0, 0.0]))
    assert hourly.tolist() == [230.0, 0.0, 380.0]


def test_transformer_invariants():
    with pytest.raises(ValueError):
        Transformer(0)
    with pytest.raises(ValueError):
        Transformer(400, 400)
    with pytest.raises(ValueError):
        Transformer(400, -1)


def test_detect_overloads_none():
    series = LoadSeries(T0, 1, np.full(120, 399.0))
    assert detect_overloads(series, Transformer(400)) == []


def test_detect_overloads_single_evening_excursion():
    # 18 consecutive minutes at capacity + 74.16 starting 17:00
    values = np.full(24 * 60, 300.0)
    start = 17 * 60
    values[start:start + 18] = 474.16
    events = detect_overloads(LoadSeries(T0, 1, values), Transformer(400))
    assert len(events) == 1
    ev = events[0]
    assert ev.duration_minutes == 18
    assert ev.peak_excess_kw == pytest.approx(74.16)
    assert ev.start.minutes == T0.minutes + start


def test_detect_overloads_maximality():
    values = np.full(60, 100.0)
    values[10] = 500.0
    values[30] = 450.0
    events = detect_overloads(LoadSeries(T0, 1, values), Transformer(400))
    assert [e.duration_minutes for e in events] == [1, 1]


@given(st.lists(st.floats(0, 800), min_size=1, max_size=300),
       st.sampled_from([1, 5, 15]))
def test_overload_durations_match_minute_count(values, resolution):
    arr = np.array(values)
    tr = Transformer(400)
    events = detect_overloads(LoadSeries(T0, resolution, arr), tr)
    assert sum(e.duration_minutes for e in events) == \
        resolution * int((arr > 400).sum())
    for e in events:
        assert e.peak_excess_kw > 0
        assert (e.start.minutes - T0.minutes) % resolution == 0


def test_hourly_max_examples():
    constant = LoadSeries(T0, 1, np.full(60, 300.0))
    assert hourly_max(constant).values.tolist() == [300.0]

    spike = np.full(60, 300.0)
    spike[42] = 474.16
    assert hourly_max(LoadSeries(T0, 1, spike)).values.tolist() == [474.16]

    partial = LoadSeries(T0, 1, np.full(90, 1.0))   # 1.5 hours
    assert len(hourly_max(partial).values) == 1


@given(st.lists(st.floats(0, 500), min_size=60, max_size=240))
def test_hourly_max_dominates_mean(values):
    series = LoadSeries(T0, 1, np.array(values))
    hmax = hourly_max(series).values
    n = len(hmax)
    means = np.array(values[:n * 60]).reshape(n, 60).mean(axis=1)
    assert (hmax >= means - 1e-12).all()
