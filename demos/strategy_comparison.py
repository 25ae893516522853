"""
Comparing charging strategies on one synthetic year
===================================================

Builds a 126-household neighborhood behind a 400 kW transformer, lets every
household adopt an EV, and runs the same seeded year once per strategy.
Writes an SVG load profile per strategy and prints the headline indicators.
"""

from pathlib import Path

import numpy as np

from evsim import (AdoptionCurve, DistributionTariff, DrivingPattern,
                   ExperimentSpec, RngStreams, ScenarioData, SimulationSpan,
                   Timestamp, TouBand, Transformer, run_experiment)
from evsim.scenario import DEFAULT_CATALOG_FILE, read_catalog_csv
from evsim.strategies import STRATEGY_NAMES
from evsim.svgplot import load_profile_svg
from evsim.synth import (SyntheticBaseloadSpec, SyntheticCo2Spec,
                         SyntheticPriceSpec, generate_baseload, generate_co2,
                         generate_spot)

# one simulated year at full adoption
span = SimulationSpan(Timestamp.from_iso("2039-01-01T00:00"),
                      Timestamp.from_iso("2040-01-01T00:00"))
households = list(range(1, 127))

# all synthetic inputs come from one seed, so the comparison is apples to apples
streams = RngStreams(2039)
data = ScenarioData(
    transformer=Transformer(capacity_kw=400.0),
    baseload=generate_baseload(SyntheticBaseloadSpec(), households, span, streams),
    spot=generate_spot(SyntheticPriceSpec(), span, streams),
    co2=generate_co2(SyntheticCo2Spec(), span, streams),
    tariffs={"fixed": DistributionTariff([TouBand("all", 0, 24, 0.30)])},
    catalog=read_catalog_csv(DEFAULT_CATALOG_FILE),
    adoption_curve=AdoptionCurve([(2038, 126)]),   # everyone owns an EV already
    driving=DrivingPattern(),
)

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

print(f"{'strategy':14s} {'overload_h':>10s} {'dissat':>6s} "
      f"{'load_factor':>11s} {'cost DKK/kWh':>12s}")
for name in STRATEGY_NAMES:
    spec = ExperimentSpec(id=name, strategy=name, span=span, seed=2039)
    out = run_experiment(spec, data)
    rep = out.reports[0]
    cost = rep.avg_charging_cost_dkk_per_kwh
    print(f"{name:14s} {rep.overload_count:10d} {rep.dissatisfaction_count:6d} "
          f"{rep.load_factor:11.4f} {cost:12.4f}")

    svg = load_profile_svg(out.hourly_max.values, 400.0,
                           f"Hourly-max load over the year, {name}")
    (out_dir / f"profile_{name}.svg").write_text(svg)

print(f"\nload profiles written to {out_dir}/")
