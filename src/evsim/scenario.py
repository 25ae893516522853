"""Scenario files: flat key=value config with sections, CSV ingestion, validation.

Every dataset invariant (coverage, monotone timestamps, market-share sums,
adoption-curve totals) is checked eagerly at load so runs fail fast. A key
left out of a section takes the default of the dataclass the section builds.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import ExperimentSpec, HouseholdBaseload, ScenarioData
from .fleet import AdoptionCurve, DrivingPattern, EvModel, validate_catalog
from .grid import Transformer
from .kpi import OVERLOAD_UNITS
from .rng import RngStreams, parse_seed
from .strategies import STRATEGY_NAMES
from .synth import (SyntheticBaseloadSpec, SyntheticCo2Spec, SyntheticPriceSpec,
                    generate_baseload, generate_co2, generate_spot)
from .tariffs import (Co2IntensitySeries, DistributionTariff, SpotPriceSeries,
                      TouBand, hours_covering)
from .timebase import SimulationSpan, Timestamp

DEFAULT_CATALOG_FILE = Path(__file__).parent / "data" / "default_catalog.csv"
DEFAULT_CURVE_FILE = Path(__file__).parent / "data" / "default_adoption_curve.csv"


class ScenarioError(ValueError):
    """A scenario file or referenced dataset violates an invariant."""

    def __init__(self, file: str, where: str, message: str):
        self.file = file
        self.where = where
        super().__init__(f"{file}: [{where}] {message}")


def _real(raw) -> float:
    """A finite float; ``float`` alone takes nan and inf."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


@contextmanager
def _rejected_as(file: str, where: str):
    """Report a ValueError raised inside as a ScenarioError at ``where``."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(file, where, str(exc)) from exc


def _parse_rows(path: Path, header: list[str], parse) -> Iterator[tuple[int, object]]:
    """``(line, parse(row))`` for each body row of a CSV file with ``header``;
    a ValueError from ``parse`` names the row's line."""
    try:
        with open(path, newline="") as fh:
            rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh)) if row]
    except OSError as exc:
        raise ScenarioError(str(path), "file", str(exc)) from exc
    if not rows or [c.strip() for c in rows[0][1]] != header:
        raise ScenarioError(str(path), "line 1", f"expected header {','.join(header)}")
    for line, row in rows[1:]:
        # not _rejected_as: a context manager per row doubles the read time of
        # a long-form baseload
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} columns, got {len(row)}")
            value = parse(row)
        except ValueError as exc:
            raise ScenarioError(str(path), f"line {line}", str(exc)) from exc
        yield line, value


def read_hourly_series_csv(path: Path, value_column: str) -> tuple[Timestamp, np.ndarray]:
    """`timestamp_iso8601,<value>` with strict hourly steps, no gaps or dups."""
    rows = list(_parse_rows(path, ["timestamp_iso8601", value_column],
                            lambda row: (Timestamp.from_iso(row[0]).minutes, _real(row[1]))))
    if not rows:
        raise ScenarioError(str(path), "body", "series is empty")
    start = rows[0][1][0]
    for k, (line, (m, _)) in enumerate(rows):
        if m != start + 60 * k:
            raise ScenarioError(str(path), f"line {line}",
                                "gap or duplicate timestamp (hourly steps required)")
    return Timestamp(start), np.array([v for _, (_, v) in rows])


def read_baseload_csv(path: Path, household_ids: list[int]) -> HouseholdBaseload:
    """Long-form per-household hourly load: timestamp_iso8601,household_id,load_kw."""
    series: dict[int, list[tuple[int, float]]] = {hid: [] for hid in household_ids}

    def parse(row):
        m, hid, kw = Timestamp.from_iso(row[0]).minutes, int(row[1]), _real(row[2])
        if hid not in series:
            raise ValueError(f"unknown household id {hid}")
        return hid, m, kw

    for _, (hid, m, kw) in _parse_rows(
            path, ["timestamp_iso8601", "household_id", "load_kw"], parse):
        series[hid].append((m, kw))
    lengths = {len(v) for v in series.values()}
    if len(lengths) != 1:
        raise ScenarioError(str(path), "body",
                            "households have differing series lengths")
    n = lengths.pop()
    if n == 0:
        raise ScenarioError(str(path), "body", "baseload is empty")
    start = series[household_ids[0]][0][0]
    matrix = np.empty((len(household_ids), n))
    for row_i, hid in enumerate(household_ids):
        for k, (m, kw) in enumerate(series[hid]):
            if m != start + 60 * k:
                raise ScenarioError(str(path), f"household {hid}",
                                    "gap or duplicate timestamp")
            matrix[row_i, k] = kw
    return HouseholdBaseload(Timestamp(start), list(household_ids), matrix)


def read_catalog_csv(path: Path) -> list[EvModel]:
    models = [m for _, m in _parse_rows(
        path, ["name", "battery_kwh", "max_rate_kw", "market_share"],
        lambda row: EvModel(row[0].strip(), _real(row[1]), _real(row[2]), _real(row[3])))]
    with _rejected_as(str(path), "body"):
        validate_catalog(models)
    return models


def read_adoption_curve_csv(path: Path) -> AdoptionCurve:
    points = [p for _, p in _parse_rows(path, ["year", "cumulative_adopters"],
                                        lambda row: (int(row[0]), int(row[1])))]
    with _rejected_as(str(path), "body"):
        return AdoptionCurve(points)


def read_tou_tariff_csv(path: Path) -> list[TouBand]:
    return [band for _, band in _parse_rows(
        path, ["season", "start_hour", "end_hour", "dkk_per_kwh"],
        lambda row: TouBand(row[0].strip(), int(row[1]), int(row[2]), _real(row[3])))]


@dataclass
class Scenario:
    """A fully validated scenario: immutable inputs plus the experiment list."""

    path: Path
    data: ScenarioData
    span: SimulationSpan
    seed: int
    experiments: list[ExperimentSpec]
    content_hash: str

    def experiment(self, exp_id: str) -> ExperimentSpec:
        for e in self.experiments:
            if e.id == exp_id:
                return e
        raise KeyError(exp_id)


def _get(cfg, section: str, key: str, path: str, cast=str, default=None):
    try:
        raw = cfg.get(section, key)
    except (configparser.NoSectionError, configparser.NoOptionError):
        if default is not None:
            return default
        raise ScenarioError(path, f"{section}.{key}", "missing required key")
    try:
        return cast(raw)
    except ValueError as exc:
        raise ScenarioError(path, f"{section}.{key}", f"bad value {raw!r}: {exc}")


def _section(cfg, section: str, path: str, cls, keys: dict):
    """``cls`` built from the keys of ``section``, each mapped by ``keys`` to
    its field and cast; a key left out keeps the field's default."""
    fields = {field: _get(cfg, section, key, path, cast)
              for key, (field, cast) in keys.items() if cfg.has_option(section, key)}
    with _rejected_as(path, section):
        return cls(**fields)


def _time_of_day(text: str) -> float:
    """Minutes into the day of an ``HH:MM`` time."""
    hh, mm = map(int, text.strip().split(":"))
    if not (0 <= hh < 24 and 0 <= mm < 60):
        raise ValueError("time of day out of range")
    return float(hh * 60 + mm)


def _reals(*keys: str) -> dict:
    return {key: (key, _real) for key in keys}


_SYNTHETIC = {
    "baseload": (SyntheticBaseloadSpec, _reals(
        "mean_daily_kwh", "morning_peak_weight", "evening_peak_weight", "weekend_factor",
        "noise_std")),
    "spot": (SyntheticPriceSpec, _reals("mean_dkk_per_kwh", "diurnal_amplitude",
                                        "noise_std")),
    "co2": (SyntheticCo2Spec, _reals("mean_kg_per_kwh", "diurnal_amplitude",
                                     "noise_std")),
}
_DRIVING_KEYS = {
    "departure_mean": ("departure_mean_min", _time_of_day),
    "arrival_mean": ("arrival_mean_min", _time_of_day),
    **_reals("departure_std_min", "arrival_std_min", "trip_energy_mean_kwh",
             "trip_energy_std_kwh", "weekday_trip_prob", "weekend_trip_prob"),
}


def _resolve(base: Path, rel: str) -> Path:
    p = Path(rel)
    return p if p.is_absolute() else base.parent / p


def load_scenario(path: str | Path, seed_override: int | None = None) -> Scenario:
    """Parse and eagerly validate a scenario file and everything it references."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(str(path), "file", str(exc)) from exc
    content_hash = hashlib.sha256(text.encode()).hexdigest()

    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cfg.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(str(path), "syntax", str(exc)) from exc

    sp = str(path)
    households = _get(cfg, "scenario", "households", sp, int)
    if households <= 0:
        raise ScenarioError(sp, "scenario.households", "must be positive")
    household_ids = list(range(1, households + 1))
    seed = _get(cfg, "scenario", "seed", sp, parse_seed, default=0)
    if seed_override is not None:
        with _rejected_as(sp, "seed_override"):
            seed = parse_seed(seed_override)
    tick = _get(cfg, "scenario", "tick_minutes", sp, int, default=1)
    span = _parse_span(cfg, "scenario", sp, tick)

    capacity_kw = _get(cfg, "transformer", "capacity_kw", sp, _real)
    buffer_kw = _get(cfg, "transformer", "buffer_kw", sp, _real, default=0.0)
    with _rejected_as(sp, "transformer"):
        transformer = Transformer(capacity_kw, buffer_kw)

    streams = RngStreams(seed)

    def dataset(section: str, read, generate):
        """The section's hourly dataset, from its CSV file or generated from its
        synthetic spec; it must cover the span, which the engine reads."""
        src = _get(cfg, section, "source", sp, str, default="synthetic").strip()
        has_path = cfg.has_option(section, "path")
        if src == "csv" and not has_path:
            raise ScenarioError(sp, f"{section}.path", "csv source needs a path")
        if src == "synthetic" and has_path:
            raise ScenarioError(sp, section,
                                "exactly one of synthetic spec or path allowed")
        if src not in ("csv", "synthetic"):
            raise ScenarioError(sp, f"{section}.source", f"unknown source {src!r}")
        with _rejected_as(sp, section):
            if src == "csv":
                series = read(_resolve(path, cfg.get(section, "path")))
            else:
                series = generate(_section(cfg, section, sp, *_SYNTHETIC[section]))
            hours_covering(series.start, series.n_hours, span)
        return series

    baseload = dataset("baseload", lambda p: read_baseload_csv(p, household_ids),
                       lambda spec: generate_baseload(spec, household_ids, span, streams))
    spot = dataset("spot",
                   lambda p: SpotPriceSeries(*read_hourly_series_csv(p, "dkk_per_kwh")),
                   lambda spec: generate_spot(spec, span, streams))
    co2 = dataset("co2",
                  lambda p: Co2IntensitySeries(*read_hourly_series_csv(p, "kg_per_kwh")),
                  lambda spec: generate_co2(spec, span, streams))

    # tariffs
    tariffs: dict[str, DistributionTariff] = {}
    fixed_rate = _get(cfg, "tariff", "fixed_dkk_per_kwh", sp, _real, default=0.30)
    with _rejected_as(sp, "tariff"):
        tariffs["fixed"] = DistributionTariff([TouBand("all", 0, 24, fixed_rate)])
        if cfg.has_option("tariff", "tou_path"):
            bands = read_tou_tariff_csv(_resolve(path, cfg.get("tariff", "tou_path")))
            tariffs["time_of_use"] = DistributionTariff(bands)
    addons = _get(cfg, "tariff", "addons_dkk_per_kwh", sp, _real, default=0.0)

    catalog_path = _resolve(path, cfg.get("catalog", "path")) \
        if cfg.has_option("catalog", "path") else DEFAULT_CATALOG_FILE
    catalog = read_catalog_csv(catalog_path)

    curve_path = _resolve(path, cfg.get("adoption", "path")) \
        if cfg.has_option("adoption", "path") else DEFAULT_CURVE_FILE
    curve = read_adoption_curve_csv(curve_path)
    if curve.final_value > households:
        raise ScenarioError(str(curve_path), "body",
                            f"curve reaches {curve.final_value} adopters"
                            f" but the scenario has {households} households")

    driving = _section(cfg, "driving", sp, DrivingPattern, _DRIVING_KEYS)

    overload_unit = _get(cfg, "kpi", "overload_unit", sp, str, default="hours").strip()
    if overload_unit not in OVERLOAD_UNITS:
        raise ScenarioError(sp, "kpi.overload_unit", "must be one of "
                            f"{', '.join(OVERLOAD_UNITS)}, got {overload_unit!r}")

    data = ScenarioData(
        transformer=transformer, baseload=baseload, spot=spot, co2=co2, tariffs=tariffs, catalog=catalog,
        adoption_curve=curve, driving=driving, addons_dkk_per_kwh=addons,
        overload_unit=overload_unit)

    return Scenario(path=path, data=data, span=span, seed=seed,
                    experiments=_parse_experiments(cfg, sp, span, seed, tariffs),
                    content_hash=content_hash)


def _parse_span(cfg, section: str, path: str, tick: int) -> SimulationSpan:
    start = _get(cfg, section, "span_start", path, Timestamp.from_iso)
    end = _get(cfg, section, "span_end", path, Timestamp.from_iso)
    with _rejected_as(path, section):
        return SimulationSpan(start, end, tick)


def _parse_experiments(cfg, path: str, default_span: SimulationSpan, seed: int,
                       tariffs: dict[str, DistributionTariff]) -> list[ExperimentSpec]:
    """The experiment of each ``experiment.<id>`` section, checked as it is
    read; ids are unique, as section names are. Without such sections, one
    experiment per strategy over the scenario span, traditional the baseline."""
    ids = [s.split(".", 1)[1] for s in cfg.sections() if s.startswith("experiment.")]
    if not ids:
        return [ExperimentSpec(id=name, strategy=name, span=default_span, seed=seed,
                               baseline_id=None if name == "traditional" else "traditional")
                for name in STRATEGY_NAMES]

    specs: list[ExperimentSpec] = []
    for exp_id in ids:
        section = f"experiment.{exp_id}"
        # evsim run writes each experiment to <out>/<id>, beside baseload_hourly.csv
        if exp_id in ("", ".", "..", "baseload_hourly.csv") or "/" in exp_id \
                or "\\" in exp_id:
            raise ScenarioError(path, section, f"experiment id {exp_id!r} does not name "
                                "a directory of its own inside the output directory")
        strategy = _get(cfg, section, "strategy", path).strip()
        span = default_span
        if cfg.has_option(section, "span_start") or cfg.has_option(section, "span_end"):
            span = _parse_span(cfg, section, path, default_span.tick_minutes)
        interval = _get(cfg, section, "decision_interval_min", path, int) \
            if cfg.has_option(section, "decision_interval_min") else None
        tariff_mode = _get(cfg, section, "tariff_mode", path, default="fixed").strip()
        exp_seed = _get(cfg, section, "seed", path, parse_seed, default=seed)
        baseline = _get(cfg, section, "baseline", path, default="").strip() or None
        with _rejected_as(path, section):
            specs.append(ExperimentSpec(
                id=exp_id, strategy=strategy, span=span, tariff_mode=tariff_mode,
                seed=exp_seed, decision_interval_min=interval,
                baseline_id=baseline))
        if span.start.minutes < default_span.start.minutes or \
                span.end.minutes > default_span.end.minutes:
            raise ScenarioError(path, section,
                                "experiment span must lie within the scenario span")
        if tariff_mode not in tariffs:
            raise ScenarioError(path, section, f"scenario defines no {tariff_mode!r} tariff"
                                " (add tariff.tou_path for time_of_use)")
        if baseline is not None and baseline not in ids:
            raise ScenarioError(path, section, f"unknown baseline {baseline!r}")
    return specs
