"""Deterministic multi-agent simulator of EV home charging behind one
distribution transformer, with five dispatch strategies and yearly KPIs."""

from .engine import (ExperimentSpec, HouseholdBaseload, ScenarioData,
                     SimulationOutput, VehiclePlan, build_fleet, run_experiment,
                     simulate)
from .fleet import (AdoptionCurve, DrivingPattern, EvModel, TripEvent, Trips,
                    Vehicle, sample_adoptions)
from .grid import (LoadSeries, OverloadEvent, Transformer, available_capacity,
                   detect_overloads, hourly_max)
from .kpi import (KpiReport, YearLedger, assemble_report, load_factor,
                  pct_difference)
from .rng import RngStreams
from .scenario import Scenario, ScenarioError, load_scenario
from .strategies import STRATEGY_NAMES
from .tariffs import (Co2IntensitySeries, DistributionTariff, SpotPriceSeries,
                      TouBand)
from .timebase import SimulationSpan, Timestamp

__version__ = "0.1.0"
