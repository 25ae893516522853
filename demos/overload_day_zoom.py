"""
Zooming in on an overload day
=============================

Runs an uncoordinated winter month, finds the day with the worst transformer
excursion, and renders the minute-level load of that day against a
round-robin run of the same fleet.
"""

from pathlib import Path

from evsim import (AdoptionCurve, DistributionTariff, DrivingPattern,
                   ExperimentSpec, RngStreams, ScenarioData, SimulationSpan,
                   Timestamp, TouBand, Transformer, run_experiment)
from evsim.scenario import DEFAULT_CATALOG_FILE, read_catalog_csv
from evsim.svgplot import day_zoom_svg
from evsim.synth import (SyntheticBaseloadSpec, SyntheticCo2Spec,
                         SyntheticPriceSpec, generate_baseload, generate_co2,
                         generate_spot)

span = SimulationSpan(Timestamp.from_iso("2039-01-01T00:00"),
                      Timestamp.from_iso("2039-02-01T00:00"))
households = list(range(1, 127))
streams = RngStreams(7)
data = ScenarioData(
    transformer=Transformer(capacity_kw=400.0),
    baseload=generate_baseload(SyntheticBaseloadSpec(), households, span, streams),
    spot=generate_spot(SyntheticPriceSpec(), span, streams),
    co2=generate_co2(SyntheticCo2Spec(), span, streams),
    tariffs={"fixed": DistributionTariff([TouBand("all", 0, 24, 0.30)])},
    catalog=read_catalog_csv(DEFAULT_CATALOG_FILE),
    adoption_curve=AdoptionCurve([(2038, 126)]),
    driving=DrivingPattern(),
)

uncoordinated = run_experiment(
    ExperimentSpec(id="traditional", strategy="traditional", span=span, seed=7),
    data)
coordinated = run_experiment(
    ExperimentSpec(id="round_robin", strategy="round_robin", span=span, seed=7),
    data)

# the day containing the event with the largest excess
worst = max(uncoordinated.overload_events, key=lambda e: e.peak_excess_kw)
day_start = worst.start.minutes - worst.start.minutes % (24 * 60)
print(f"worst excursion: {worst.peak_excess_kw:.1f} kW above capacity "
      f"for {worst.duration_minutes} min starting {worst.start.isoformat()}")

top = uncoordinated.load.slice_minutes(day_start, day_start + 24 * 60).values
bottom = coordinated.load.slice_minutes(day_start, day_start + 24 * 60).values
svg = day_zoom_svg(top, bottom, 400.0, "traditional", "round_robin",
                   f"Transformer load on {Timestamp(day_start).isoformat()[:10]}")

out = Path("demo_output")
out.mkdir(exist_ok=True)
(out / "overload_day.svg").write_text(svg)
print(f"wrote {out / 'overload_day.svg'}")
