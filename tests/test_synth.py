import tracemalloc

import numpy as np
import pytest

from evsim.rng import RngStreams
from evsim.synth import (SyntheticBaseloadSpec, SyntheticCo2Spec,
                         SyntheticPriceSpec, generate_baseload, generate_co2,
                         generate_spot)
from evsim.timebase import SimulationSpan, Timestamp

from conftest import make_span

YEAR = SimulationSpan(Timestamp.from_iso("2036-01-01T00:00"),
                      Timestamp.from_iso("2037-01-01T00:00"))


class TestBaseload:
    def test_annual_energy_near_target(self):
        spec = SyntheticBaseloadSpec(mean_daily_kwh=10.0)
        bl = generate_baseload(spec, [1, 2, 3], YEAR, RngStreams(1))
        per_hh = bl.block().sum(axis=1)
        # 366 days in 2036, weekends scaled by 1.1
        target = 10.0 * 366
        assert np.all(per_hh > target * 0.95)
        assert np.all(per_hh < target * 1.15)

    def test_weekday_days_repeat_without_noise(self):
        spec = SyntheticBaseloadSpec(noise_std=0.0)
        span = make_span("2036-01-04T00:00", "2036-01-11T00:00")  # Fri..Fri
        bl = generate_baseload(spec, [1], span, RngStreams(0))
        days = bl.block()[0].reshape(7, 24)
        # 2036-01-04 is a Friday; Mon..Fri shapes identical
        assert np.array_equal(days[0], days[3])
        assert not np.array_equal(days[0], days[1])     # Saturday scaled

    def test_weekend_factor(self):
        spec = SyntheticBaseloadSpec(noise_std=0.0, weekend_factor=2.0)
        span = make_span("2036-01-04T00:00", "2036-01-06T00:00")  # Fri, Sat
        bl = generate_baseload(spec, [1], span, RngStreams(0))
        fri, sat = bl.block()[0][:24], bl.block()[0][24:]
        assert sat.sum() == pytest.approx(2.0 * fri.sum())

    def test_evening_peak_dominates(self):
        spec = SyntheticBaseloadSpec(noise_std=0.0)
        span = make_span("2036-01-04T00:00", "2036-01-05T00:00")
        bl = generate_baseload(spec, [1], span, RngStreams(0))
        day = bl.block()[0]
        assert int(day.argmax()) == 18
        assert day[18] > day[8] > day[3]

    def test_households_independent_but_deterministic(self):
        spec = SyntheticBaseloadSpec()
        span = make_span("2036-01-04T00:00", "2036-01-11T00:00")
        a = generate_baseload(spec, [1, 2], span, RngStreams(5))
        b = generate_baseload(spec, [1, 2], span, RngStreams(5))
        assert np.array_equal(a.block(), b.block())
        assert not np.array_equal(a.block()[0], a.block()[1])

    def test_twenty_years_hold_one_factor_per_household_day(self):
        span = make_span("2020-01-01T00:00", "2040-01-01T00:00")
        tracemalloc.start()
        bl = generate_baseload(SyntheticBaseloadSpec(), list(range(1, 127)), span,
                               RngStreams(0))
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert bl.matrix is None and bl.n_hours == span.n_hours
        assert bl.daily.shape == (126, span.n_days) and bl.weights.shape == (24,)
        factors = bl.daily.nbytes + bl.weights.nbytes
        assert factors == (126 * span.n_days + 24) * 8
        # the factors are 7.4 MB; the hourly matrix would be 177 MB
        assert held < factors + 2 ** 20

    def test_partial_day_rejected(self):
        span = make_span("2036-01-04T00:00", "2036-01-04T06:00")
        with pytest.raises(ValueError, match="whole-day"):
            generate_baseload(SyntheticBaseloadSpec(), [1], span, RngStreams(0))


class TestPriceAndCo2:
    def test_spot_mean_and_coverage(self):
        spot = generate_spot(SyntheticPriceSpec(mean_dkk_per_kwh=1.0), YEAR,
                             RngStreams(2))
        assert len(spot.values) == YEAR.n_hours
        assert spot.values.mean() == pytest.approx(1.0, abs=0.02)

    def test_co2_non_negative(self):
        co2 = generate_co2(SyntheticCo2Spec(mean_kg_per_kwh=0.02, noise_std=0.05),
                           YEAR, RngStreams(3))
        assert (co2.values >= 0).all()

    def test_diurnal_shape_without_noise(self):
        spec = SyntheticPriceSpec(noise_std=0.0)
        span = make_span("2036-01-04T00:00", "2036-01-06T00:00")
        spot = generate_spot(spec, span, RngStreams(0))
        day = spot.values[:24]
        assert np.array_equal(day, spot.values[24:])
        assert day.max() > day.min()

    def test_series_independent_of_each_other(self):
        streams = RngStreams(7)
        spot = generate_spot(SyntheticPriceSpec(), YEAR, streams)
        co2 = generate_co2(SyntheticCo2Spec(), YEAR, streams)
        spot2 = generate_spot(SyntheticPriceSpec(), YEAR, RngStreams(7))
        assert np.array_equal(spot.values, spot2.values)
        assert len(co2.values) == YEAR.n_hours
