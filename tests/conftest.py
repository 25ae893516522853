import numpy as np
import pytest

from evsim.engine import HouseholdBaseload, ScenarioData
from evsim.fleet import AdoptionCurve, DrivingPattern, EvModel
from evsim.grid import Transformer
from evsim.tariffs import Co2IntensitySeries, DistributionTariff, SpotPriceSeries, TouBand
from evsim.timebase import SimulationSpan, Timestamp

LEAF = EvModel("leaf-class", battery_kwh=40.0, max_rate_kw=3.7, market_share=0.5)
FAST = EvModel("fast-class", battery_kwh=60.0, max_rate_kw=11.0, market_share=0.5)


def make_span(start="2036-01-01T00:00", end="2036-01-03T00:00", tick=1):
    return SimulationSpan(Timestamp.from_iso(start), Timestamp.from_iso(end), tick)


def flat_data(span, n_households=2, base_kw=0.5, capacity=400.0, buffer_kw=0.0,
              spot=1.0, tariff=0.3, co2=0.1, addons=0.0, catalog=None,
              curve=None, driving=None, overload_unit="hours", ids=None):
    """Scenario data with constant prices, handy for crafted runs. ``base_kw``
    broadcasts to the (households, hours) baseload matrix. The households are
    ``ids`` if given, else 1 to ``n_households``."""
    ids = list(range(1, n_households + 1)) if ids is None else list(ids)
    n_households = len(ids)
    n_hours = span.n_hours
    baseload = HouseholdBaseload(span.start, ids,
                                 np.full((n_households, n_hours), base_kw))
    return ScenarioData(
        transformer=Transformer(capacity, buffer_kw),
        baseload=baseload,
        spot=SpotPriceSeries(span.start, np.full(n_hours, spot)),
        co2=Co2IntensitySeries(span.start, np.full(n_hours, co2)),
        tariffs={"fixed": DistributionTariff([TouBand("all", 0, 24, tariff)])},
        catalog=catalog or [LEAF, FAST],
        adoption_curve=curve or AdoptionCurve([(span.start.year - 1, n_households)]),
        driving=driving or DrivingPattern(),
        addons_dkk_per_kwh=addons,
        overload_unit=overload_unit,
    )


@pytest.fixture
def two_day_span():
    return make_span()
