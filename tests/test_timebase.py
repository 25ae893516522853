from datetime import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evsim.timebase import MINUTES_PER_DAY, SimulationSpan, Timestamp


def test_calendar_round_trip_examples():
    for iso in ["2020-01-01T00:00", "2032-12-31T23:59", "2036-02-29T12:30"]:
        t = Timestamp.from_iso(iso)
        assert t.isoformat() == iso


@given(st.integers(min_value=0, max_value=40 * 366 * MINUTES_PER_DAY))
def test_calendar_round_trip_property(minutes):
    t = Timestamp(minutes)
    assert Timestamp.from_datetime(t.to_datetime()).minutes == minutes
    assert t.weekday == t.to_datetime().weekday()


def test_derived_fields():
    t = Timestamp.from_datetime(datetime(2036, 1, 29, 17, 5))
    assert t.year == 2036
    assert t.isoformat() == "2036-01-29T17:05"
    assert t.weekday == datetime(2036, 1, 29).weekday()


def test_negative_rejected():
    with pytest.raises(ValueError):
        Timestamp(-1)


def test_year_minutes_regular_and_leap():
    def year_span(y):
        return SimulationSpan(Timestamp.from_iso(f"{y}-01-01T00:00"),
                              Timestamp.from_iso(f"{y + 1}-01-01T00:00"))
    assert year_span(2037).n_ticks == 525_600
    assert year_span(2036).n_ticks == 527_040   # leap year


def test_span_invariants():
    t0 = Timestamp.from_iso("2030-01-01T00:00")
    t1 = Timestamp.from_iso("2030-01-02T00:00")
    with pytest.raises(ValueError):
        SimulationSpan(t1, t0)
    with pytest.raises(ValueError):
        SimulationSpan(t0, t1, tick_minutes=7)   # does not divide 60
    for start, end in [(Timestamp(t0.minutes + 30), t1), (t0, Timestamp(t1.minutes - 1))]:
        with pytest.raises(ValueError, match="whole hours"):
            SimulationSpan(start, end)
    span = SimulationSpan(t0, t1, tick_minutes=15)
    assert span.n_ticks == 96
    assert span.n_hours == 24


def test_span_years():
    span = SimulationSpan(Timestamp.from_iso("2031-06-01T00:00"),
                          Timestamp.from_iso("2033-01-01T00:00"))
    assert span.years() == [2031, 2032]
    # starts and ends mid-year: the first and last years are clipped
    start, y2032, y2033, end = (Timestamp.from_iso(iso).minutes for iso in (
        "2031-06-01T00:00", "2032-01-01T00:00", "2033-01-01T00:00", "2033-03-01T05:00"))
    assert SimulationSpan(Timestamp(start), Timestamp(end)).year_bounds() == [
        (2031, start, y2032), (2032, y2032, y2033), (2033, y2033, end)]
