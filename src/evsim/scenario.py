"""Scenario files: flat key=value config with sections, CSV ingestion, validation.

Every dataset invariant (coverage, monotone timestamps, market-share sums,
adoption-curve totals) is checked eagerly at load so runs fail fast. Each
section's keys become fields of the dataclass it builds: a key left out, in
any section, takes its field's default, and a key is required exactly when
its field has none. Values are read verbatim (``%`` is no interpolation), and
a key that nothing reads is rejected at ``[section.key]``.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import hashlib
import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import MISSING, dataclass
from pathlib import Path

import numpy as np

from .engine import ExperimentSpec, HouseholdBaseload, ScenarioData
from .fleet import AdoptionCurve, DrivingPattern, EvModel, validate_catalog
from .grid import Transformer
from .kpi import check_overload_unit
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


def _hourly_values(path: Path, rows: list, start: int) -> list:
    """The values of ``(line, (minute, value))`` rows in strict hourly steps
    from the minute ``start``: no gaps or duplicates."""
    for k, (line, (m, _)) in enumerate(rows):
        if m != start + 60 * k:
            raise ScenarioError(str(path), f"line {line}",
                                "gap or duplicate timestamp (hourly steps required)")
    return [v for _, (_, v) in rows]


def read_hourly_series_csv(path: Path, value_column: str) -> tuple[Timestamp, np.ndarray]:
    """`timestamp_iso8601,<value>` with strict hourly steps."""
    rows = list(_parse_rows(path, ["timestamp_iso8601", value_column],
                            lambda row: (Timestamp.from_iso(row[0]).minutes, _real(row[1]))))
    if not rows:
        raise ScenarioError(str(path), "body", "series is empty")
    start = rows[0][1][0]
    return Timestamp(start), np.array(_hourly_values(path, rows, start))


def read_baseload_csv(path: Path, household_ids: list[int]) -> HouseholdBaseload:
    """Long-form per-household hourly load: timestamp_iso8601,household_id,load_kw;
    every household in strict hourly steps from the same start."""
    series: dict[int, list[tuple[int, tuple[int, float]]]] = {hid: [] for hid in household_ids}

    def parse(row):
        m, hid, kw = Timestamp.from_iso(row[0]).minutes, int(row[1]), _real(row[2])
        if hid not in series:
            raise ValueError(f"unknown household id {hid}")
        return hid, (m, kw)

    for line, (hid, point) in _parse_rows(
            path, ["timestamp_iso8601", "household_id", "load_kw"], parse):
        series[hid].append((line, point))
    if len({len(v) for v in series.values()}) != 1:
        raise ScenarioError(str(path), "body", "households have differing series lengths")
    if not series[household_ids[0]]:
        raise ScenarioError(str(path), "body", "baseload is empty")
    start = series[household_ids[0]][0][1][0]
    matrix = np.array([_hourly_values(path, series[hid], start) for hid in household_ids])
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


class _Config(configparser.ConfigParser):
    """A scenario file's sections, with values read verbatim (no ``%``
    interpolation) and ``#`` comments after them; notes each key read."""

    def __init__(self):
        super().__init__(interpolation=None, inline_comment_prefixes=("#",))
        self.read_keys: set[tuple[str, str]] = set()

    def get(self, section, option, **kwargs):
        value = super().get(section, option, **kwargs)
        self.read_keys.add((section, self.optionxform(option)))
        return value

    def unread(self) -> list[str]:
        """``section.key`` of each key that no ``get`` read; a key of the
        default section is read when any section read it."""
        keys = [(s, k) for s in self.sections() for k in self._sections[s]]
        anywhere = {k for _, k in self.read_keys}
        return [f"{s}.{k}" for s, k in keys if (s, k) not in self.read_keys] \
            + [f"{self.default_section}.{k}" for k in self.defaults() if k not in anywhere]


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


def _fields(cfg, section: str, path: str, cls, keys: dict, given=()) -> dict:
    """The fields of ``cls`` that ``keys`` maps the keys of ``section`` to,
    each with its cast. A key left out keeps its field's default; the key of
    a field without a default that is not ``given`` is required."""
    required = {f.name for f in dataclasses.fields(cls) if f.name not in given
                and f.default is MISSING and f.default_factory is MISSING}
    return {field: _get(cfg, section, key, path, cast) for key, (field, cast) in keys.items()
            if field in required or cfg.has_option(section, key)}


def _section(cfg, section: str, path: str, cls, keys: dict, **given):
    """``cls`` built from the ``given`` fields and the ``_fields`` read from
    ``section``, which take precedence; a ValueError of ``cls`` names ``section``."""
    fields = given | _fields(cfg, section, path, cls, keys, given)
    with _rejected_as(path, section):
        return cls(**fields)


def _time_of_day(text: str) -> float:
    """Minutes into the day of an ``HH:MM`` time."""
    hh, mm = map(int, text.split(":"))
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
_SPAN_KEYS = {"span_start": ("start", Timestamp.from_iso),
              "span_end": ("end", Timestamp.from_iso)}
_EXPERIMENT_KEYS = {
    "strategy": ("strategy", str), "decision_interval_min": ("decision_interval_min", int),
    "tariff_mode": ("tariff_mode", str), "seed": ("seed", parse_seed),
    "baseline": ("baseline_id", lambda raw: raw or None)}     # empty: no baseline
_DRIVING_KEYS = {
    "departure_mean": ("departure_mean_min", _time_of_day),
    "arrival_mean": ("arrival_mean_min", _time_of_day),
    **_reals("departure_std_min", "arrival_std_min", "trip_energy_mean_kwh",
             "trip_energy_std_kwh", "weekday_trip_prob", "weekend_trip_prob"),
}


def load_scenario(path: str | Path, seed_override: int | None = None) -> Scenario:
    """Parse and eagerly validate a scenario file and everything it references."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(str(path), "file", str(exc)) from exc
    content_hash = hashlib.sha256(text.encode()).hexdigest()

    cfg = _Config()
    try:
        cfg.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(str(path), "syntax", str(exc)) from exc

    sp = str(path)
    resolve = path.parent.joinpath     # a relative path is the scenario file's
    households = _get(cfg, "scenario", "households", sp, int)
    if households <= 0:
        raise ScenarioError(sp, "scenario.households", "must be positive")
    household_ids = list(range(1, households + 1))
    seed = _get(cfg, "scenario", "seed", sp, parse_seed, default=0)
    if seed_override is not None:
        with _rejected_as(sp, "seed_override"):
            seed = parse_seed(seed_override)
    span = _section(cfg, "scenario", sp, SimulationSpan,
                    {"tick_minutes": ("tick_minutes", int), **_SPAN_KEYS})
    transformer = _section(cfg, "transformer", sp, Transformer,
                           _reals("capacity_kw", "buffer_kw"))

    streams = RngStreams(seed)

    def dataset(section: str, read, generate):
        """The section's hourly dataset, from the CSV file at its required
        ``path`` or generated from its synthetic spec; it must cover the span,
        which the engine reads. Only a CSV source reads ``path``, so the
        unread-key rule rejects a ``path`` beside a synthetic one."""
        src = _get(cfg, section, "source", sp, str, default="synthetic")
        if src not in ("csv", "synthetic"):
            raise ScenarioError(sp, f"{section}.source", f"unknown source {src!r}")
        with _rejected_as(sp, section):
            if src == "csv":
                series = read(_get(cfg, section, "path", sp, resolve))
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

    fixed_rate = _get(cfg, "tariff", "fixed_dkk_per_kwh", sp, _real, default=0.30)
    with _rejected_as(sp, "tariff"):
        tariffs = {"fixed": DistributionTariff([TouBand("all", 0, 24, fixed_rate)])}
        if cfg.has_option("tariff", "tou_path"):
            bands = read_tou_tariff_csv(resolve(cfg.get("tariff", "tou_path")))
            tariffs["time_of_use"] = DistributionTariff(bands)

    catalog = read_catalog_csv(_get(cfg, "catalog", "path", sp, resolve,
                                    default=DEFAULT_CATALOG_FILE))
    curve_path = _get(cfg, "adoption", "path", sp, resolve, default=DEFAULT_CURVE_FILE)
    curve = read_adoption_curve_csv(curve_path)
    with _rejected_as(str(curve_path), "body"):
        curve.check_households(households)

    driving = _section(cfg, "driving", sp, DrivingPattern, _DRIVING_KEYS)

    data = ScenarioData(
        transformer=transformer, baseload=baseload, spot=spot, co2=co2, tariffs=tariffs,
        catalog=catalog, adoption_curve=curve, driving=driving,
        **_fields(cfg, "tariff", sp, ScenarioData, _reals("addons_dkk_per_kwh")),
        **_fields(cfg, "kpi", sp, ScenarioData,
                  {"overload_unit": ("overload_unit", check_overload_unit)}))

    experiments = _parse_experiments(cfg, sp, span, seed, data)
    unread = cfg.unread()
    if unread:
        raise ScenarioError(sp, unread[0], "nothing reads this key")
    return Scenario(path=path, data=data, span=span, seed=seed, experiments=experiments,
                    content_hash=content_hash)


def _parse_experiments(cfg, path: str, default_span: SimulationSpan, seed: int,
                       data: ScenarioData) -> list[ExperimentSpec]:
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
        span = default_span
        if cfg.has_option(section, "span_start") or cfg.has_option(section, "span_end"):
            span = _section(cfg, section, path, SimulationSpan, _SPAN_KEYS,
                            tick_minutes=default_span.tick_minutes)
        spec = _section(cfg, section, path, ExperimentSpec, _EXPERIMENT_KEYS,
                        id=exp_id, span=span, seed=seed)
        if span.start < default_span.start or span.end > default_span.end:
            raise ScenarioError(path, section,
                                "experiment span must lie within the scenario span")
        with _rejected_as(path, section):
            data.tariff(spec.tariff_mode)
        if spec.baseline_id is not None and spec.baseline_id not in ids:
            raise ScenarioError(path, section, f"unknown baseline {spec.baseline_id!r}")
        specs.append(spec)
    return specs
