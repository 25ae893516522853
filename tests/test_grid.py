import copy
import csv
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsim.engine import ExperimentSpec, VehiclePlan, simulate
from evsim.fleet import Trips, Vehicle
from evsim.grid import (LoadSeries, Transformer, available_capacity,
                        detect_overloads, hourly_max)
from evsim.outputs import _worst_day, write_all, write_load_csv
from evsim.strategies import CAPACITY_EPS
from evsim.timebase import Timestamp

from conftest import FAST, LEAF, flat_data, make_span

T0 = Timestamp.from_iso("2032-01-29T00:00")


def simulated_load(base_kw_by_household, vehicles=()):
    """Transformer load of a one-day traditional run with constant household
    baseloads and (model, soc) vehicles plugged in from the start."""
    span = make_span("2036-01-01T00:00", "2036-01-02T00:00")
    data = flat_data(span, n_households=len(base_kw_by_household),
                     base_kw=np.asarray(base_kw_by_household)[:, None])
    plans = [VehiclePlan(Vehicle(id=i + 1, model=model,
                                 soc_kwh=soc), span.start, Trips())
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["capacity_kw", "buffer_kw"])
def test_transformer_rejects_non_finite_values(field, bad):
    values = {"capacity_kw": 400.0, "buffer_kw": 20.0, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Transformer(**values)


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


def test_a_dispatch_that_fills_its_budget_is_no_overload():
    # the dispatchers admit grants up to the budget plus CAPACITY_EPS: a load
    # at capacity plus that slack is none, the next float up is one
    limit = 400.0 + CAPACITY_EPS
    values = np.array([limit, np.nextafter(limit, np.inf), limit])
    events = detect_overloads(LoadSeries(T0, 1, values), Transformer(400.0))
    assert [(e.start.minutes - T0.minutes, e.duration_minutes) for e in events] == [(1, 1)]


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


# The run-based grid functions against per-tick numpy on the expanded values.
# The reference engine calls these same functions, so it cannot check them.

def runs(*pairs):
    """Per-tick values of (length, value) runs."""
    return np.concatenate([np.full(n, v, dtype=float) for n, v in pairs])


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def tick_overloads(values, capacity, start, res):
    """(start minute, duration, peak excess) of each run of ticks above capacity."""
    events, k = [], 0
    while k < len(values):
        if values[k] > capacity + CAPACITY_EPS:
            e = k
            while e < len(values) and values[e] > capacity + CAPACITY_EPS:
                e += 1
            events.append((start + k * res, (e - k) * res,
                           float(values[k:e].max() - capacity)))
            k = e
        else:
            k += 1
    return events


# -0.0 next to 0.0; runs of length 1; runs across hour boundaries and the
# 256-row write blocks; a trailing partial hour; an overload over several runs
RUN_CASES = {
    "signed_zeros": runs((3, -0.0), (2, 0.0), (1, -0.0), (60, 0.0), (59, -0.0), (1, 0.0)),
    "length_one": np.arange(150, dtype=float) % 7,
    "across_hours_and_blocks": runs((55, 1.0), (10, 2.0), (180, 3.0), (30, 4.0),
                                    (300, 5.0), (5, 6.0), (1, 7.0), (19, 8.0)),
    "partial_hour": runs((61, 5.0), (30, 9.0), (4, 1.0)),
    "overload_over_runs": runs((50, 100.0), (3, 401.0), (1, 450.5), (7, 420.0),
                               (1, 400.0), (2, 405.0), (2, 400.0 + 2e-9), (56, 0.0)),
}
CASE_IDS = list(RUN_CASES)


def test_runs_are_maximal_on_bit_patterns():
    series = LoadSeries(T0, 1, RUN_CASES["signed_zeros"])
    assert series.run_starts.tolist() == [0, 3, 5, 6, 66, 125]
    assert bits(series.run_values).tolist() == bits([-0.0, 0.0, -0.0, 0.0, -0.0, 0.0]).tolist()
    # runs given with equal neighbours are joined; NaN joins NaN of its bits
    joined = LoadSeries.from_runs(T0, 1, 9, [0, 2, 4, 6], [1.0, 1.0, np.nan, np.nan])
    assert joined.run_starts.tolist() == [0, 4] and joined.n_ticks == 9


def test_copies_keep_the_runs_read_only():
    series = LoadSeries(T0, 1, RUN_CASES["signed_zeros"])
    for copied in (series, pickle.loads(pickle.dumps(series)), copy.deepcopy(series)):
        assert copied == series
        assert bits(copied.run_values).tolist() == bits(series.run_values).tolist()
        for runs_array in (copied.run_starts, copied.run_values):
            with pytest.raises(ValueError, match="read-only"):
                runs_array[0] = 1


@pytest.mark.parametrize("starts, values, n_ticks", [
    ([1, 2], [1.0, 2.0], 5), ([0, 2, 2], [1.0, 2.0, 3.0], 5), ([0, 5], [1.0, 2.0], 5),
    ([0], [1.0, 2.0], 5), ([], [], 5), ([0], [1.0], 0)])
def test_from_runs_rejects_misplaced_starts(starts, values, n_ticks):
    with pytest.raises(ValueError):
        LoadSeries.from_runs(T0, 1, n_ticks, starts, values)


@pytest.mark.parametrize("case", CASE_IDS)
def test_values_and_equality_are_per_tick(case):
    values = RUN_CASES[case]
    series = LoadSeries(T0, 1, values)
    assert bits(series.values).tolist() == bits(values).tolist()
    # the same ticks cut into single-tick runs, and -0.0 against 0.0
    assert series == LoadSeries.from_runs(T0, 1, len(values), np.arange(len(values)), values)
    assert series == LoadSeries(T0, 1, np.where(values == 0.0, 0.0, values))
    changed = values.copy()
    changed[-1] += 1.0
    assert series != LoadSeries(T0, 1, changed)
    assert series != LoadSeries(T0, 1, values[:-1])
    assert LoadSeries(T0, 1, [np.nan]) != LoadSeries(T0, 1, [np.nan])


@pytest.mark.parametrize("case", CASE_IDS)
@pytest.mark.parametrize("resolution", [1, 15])
def test_hourly_max_matches_per_tick(case, resolution):
    values = RUN_CASES[case]
    per_hour = 60 // resolution
    n_hours = len(values) // per_hour
    want = values[:n_hours * per_hour].reshape(n_hours, per_hour).max(axis=1)
    got = hourly_max(LoadSeries(T0, resolution, values))
    assert got.resolution_minutes == 60 and got.start == T0
    assert bits(got.values).tolist() == bits(want).tolist()


@pytest.mark.parametrize("case", CASE_IDS)
@pytest.mark.parametrize("resolution", [1, 5])
def test_detect_overloads_matches_per_tick(case, resolution):
    values = RUN_CASES[case]
    got = detect_overloads(LoadSeries(T0, resolution, values), Transformer(400))
    assert [(e.start.minutes, e.duration_minutes, e.peak_excess_kw) for e in got] == \
        tick_overloads(values, 400, T0.minutes, resolution)
    if case == "overload_over_runs":
        assert [(e.duration_minutes, e.peak_excess_kw) for e in got] == \
            [(11 * resolution, pytest.approx(50.5)), (4 * resolution, pytest.approx(5.0))]


@pytest.mark.parametrize("case", CASE_IDS)
def test_slice_minutes_matches_per_tick(case):
    values = RUN_CASES[case]
    series = LoadSeries(T0, 5, values)
    n = len(values)
    # bounds inside runs, on run starts, off the tick grid and outside the data
    for lo, hi in [(0, n), (1, n - 1), (3, 4), (54, 66), (55, 65), (7, 7), (9, 2),
                   (-10, 3), (n - 2, n + 10), (n + 3, n + 9)]:
        part = series.slice_minutes(T0.minutes + 5 * lo + 2, T0.minutes + 5 * hi + 1)
        want = values[max(lo, 0):min(hi, n)]
        assert part.start.minutes == T0.minutes + 5 * max(lo, 0)
        assert bits(part.values).tolist() == bits(want).tolist()
        assert part == LoadSeries(part.start, 5, want)


@pytest.mark.parametrize("case", CASE_IDS)
def test_worst_day_matches_per_tick(case):
    values = RUN_CASES[case]
    start = Timestamp.from_iso("2036-03-01T22:00")
    series = LoadSeries(start, 15, values)
    minute = series.minute_of(int(np.argmax(values)))
    out = SimpleNamespace(overload_events=[], load=series)
    assert _worst_day(out) == minute - minute % (24 * 60)


@pytest.mark.parametrize("case", CASE_IDS)
@pytest.mark.parametrize("resolution", [1, 15])
def test_load_csv_matches_per_tick(tmp_path, case, resolution):
    # the series starts a few rows before a year boundary
    values = RUN_CASES[case]
    series = LoadSeries(Timestamp.from_iso("2036-12-31T23:00"), resolution, values)
    write_load_csv(tmp_path / "runs.csv", series)
    with open(tmp_path / "ticks.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp_iso8601", "load_kw"])
        for i, v in enumerate(values):
            w.writerow([Timestamp(series.minute_of(i)).isoformat(), f"{v:.6f}"])
    assert (tmp_path / "runs.csv").read_bytes() == (tmp_path / "ticks.csv").read_bytes()
    if case == "signed_zeros":
        assert b",-0.000000\r\n" in (tmp_path / "runs.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 70),
                          st.sampled_from([-0.0, 0.0, 1.0, 399.0, 400.0, 401.0, 450.25])),
                min_size=1, max_size=12),
       st.sampled_from([1, 5, 15]))
def test_drawn_runs_match_per_tick(pairs, resolution):
    values = runs(*pairs)
    series = LoadSeries(T0, resolution, values)
    assert bits(series.values).tolist() == bits(values).tolist()
    per_hour = 60 // resolution
    n_hours = len(values) // per_hour
    want = values[:n_hours * per_hour].reshape(n_hours, per_hour).max(axis=1)
    assert bits(hourly_max(series).values).tolist() == bits(want).tolist()
    got = detect_overloads(series, Transformer(400))
    assert [(e.start.minutes, e.duration_minutes, e.peak_excess_kw) for e in got] == \
        tick_overloads(values, 400, T0.minutes, resolution)


def test_engine_and_writers_expand_no_minute_series(tmp_path, monkeypatch):
    # a two-day run and its output directory: only the day zoom expands a
    # slice of the minute load, and no more than a day of it
    expanded = []
    values = LoadSeries.values

    def recording(self):
        expanded.append((self.resolution_minutes, self.n_ticks))
        return values.fget(self)
    monkeypatch.setattr(LoadSeries, "values", property(recording))
    span = make_span("2036-01-01T00:00", "2036-01-03T00:00")
    data = flat_data(span, n_households=3, capacity=4.0)
    plans = [VehiclePlan(Vehicle(id=i, model=FAST, soc_kwh=10.0),
                         span.start, Trips()) for i in (1, 2)]
    out = simulate(ExperimentSpec("t", "traditional", span), data, plans)
    base = simulate(ExperimentSpec("b", "edf", span), data, plans)
    assert out.overload_events
    write_all(tmp_path / "t", out, "hash", 4.0, baseline=base)
    assert expanded and all(res == 60 or n <= 24 * 60 for res, n in expanded)
