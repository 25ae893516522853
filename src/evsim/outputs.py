"""Per-experiment output emission: CSVs, run manifest and SVG plots."""

from __future__ import annotations

import csv
import shutil
from collections import Counter
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .engine import ExperimentSpec, SimulationOutput
from .grid import LoadSeries
from .kpi import KPI_METRICS, KpiReport, compare_reports
from .svgplot import bar_chart_svg, day_zoom_svg, load_profile_svg
from .timebase import EPOCH, MINUTES_PER_DAY, Timestamp

KPI_HEADER = ["experiment_id", "year", *(column for column, _, _ in KPI_METRICS)]

# the files a charging-physics pass determines alone: the same bytes for every
# experiment priced from that pass
PHYSICS_FILES = ("load_minute.csv", "load_hourly_max.csv", "overloads.csv",
                 "sessions.csv", "dissatisfactions.csv")

_EPOCH_DAY = np.datetime64(EPOCH, "D")
_HHMM = [f"T{h:02d}:{m:02d}" for h in range(24) for m in range(60)]   # by minute of day
_ROWS_PER_WRITE = 256


def _fmt(value, decimals: int) -> str:
    if value is None:
        return "na"
    return f"{value:.{decimals}f}"


def _stamps(minutes) -> list[str]:
    """``Timestamp(m).isoformat()`` of each minute m: each distinct day's date
    formatted once, joined to the time of day from a table."""
    days, minute_of_day = np.divmod(np.asarray(minutes, dtype=np.int64), MINUTES_PER_DAY)
    distinct, which = np.unique(days, return_inverse=True)
    dates = np.datetime_as_string(_EPOCH_DAY + distinct, unit="D").tolist()
    return [dates[k] + _HHMM[m] for k, m in zip(which.tolist(), minute_of_day.tolist())]


def _write_table(path: Path, header: list[str], row_format: str, n_rows: int,
                 columns) -> None:
    """A CSV of ``header``, then n_rows rows, each ``row_format`` % one row of
    the columns that ``columns(lo, hi)`` gives for rows [lo, hi). A block of
    rows takes one %-format, so the text in memory stays small;
    ``row_format`` ends in csv.writer's line end, CR LF."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, n_rows, _ROWS_PER_WRITE):
            hi = min(lo + _ROWS_PER_WRITE, n_rows)
            fields = tuple(chain.from_iterable(zip(*columns(lo, hi))))
            fh.write(row_format * (hi - lo) % fields)


def write_load_csv(path: Path, series: LoadSeries, column: str = "load_kw") -> None:
    """One row per tick, written a block of rows at a time; each run of equal
    load in a block has its value formatted once, then joined to its rows'
    stamps."""
    first, res, n = series.start.minutes, series.resolution_minutes, series.n_ticks
    starts, values = series.run_starts, series.run_values
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["timestamp_iso8601", column])
        for lo in range(0, n, _ROWS_PER_WRITE):
            hi = min(lo + _ROWS_PER_WRITE, n)
            k0, k1 = int(series.run_of(lo)), int(series.run_of(hi - 1)) + 1
            stamps = _stamps(first + res * np.arange(lo, hi))
            cuts = [0, *(starts[k0 + 1:k1] - lo).tolist(), hi - lo]
            fh.write("".join(t.join(stamps[a:b]) + t for a, b, t in zip(
                cuts, cuts[1:], [f",{v:.6f}\r\n" for v in values[k0:k1].tolist()])))


def write_kpi_csv(path: Path, experiment_id: str, reports: list[KpiReport]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(KPI_HEADER)
        for r in reports:
            w.writerow([experiment_id, r.year, *(
                getattr(r, name) if decimals is None else _fmt(getattr(r, name), decimals)
                for _, name, decimals in KPI_METRICS)])


def read_kpi_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != KPI_HEADER:
            raise ValueError(f"{path}: not a KPI csv (header mismatch)")
        return list(reader)


def write_comparison_csv(path: Path, reports: list[KpiReport],
                         baseline_reports: list[KpiReport]) -> None:
    """Each metric of each year of ``reports`` that the baseline reports too,
    against the baseline's, under the columns that ``evsim compare`` prints."""
    base_by_year = {r.year: r for r in baseline_reports}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["year", "metric", "value", "baseline", "pct_difference"])
        for rep in reports:
            if rep.year in base_by_year:
                for r in compare_reports(rep, base_by_year[rep.year]):
                    w.writerow([rep.year, r.metric, _fmt(r.value, 6), _fmt(r.baseline, 6),
                                _fmt(r.pct_difference, 2)])


def write_overloads_csv(path: Path, out: SimulationOutput) -> None:
    events = out.overload_events
    _write_table(path, ["start_iso8601", "duration_minutes", "peak_excess_kw"],
                 "%s,%d,%.4f\r\n", len(events), lambda lo, hi: (
                     _stamps([e.start.minutes for e in events[lo:hi]]),
                     [e.duration_minutes for e in events[lo:hi]],
                     [e.peak_excess_kw for e in events[lo:hi]]))


def write_sessions_csv(path: Path, out: SimulationOutput) -> None:
    vids, plug_ins, unplugs, kwhs = out.sessions.columns
    _write_table(path, ["vehicle_id", "plug_in_iso8601", "unplug_iso8601",
                        "delivered_kwh"], "%d,%s,%s,%.6f\r\n", len(vids), lambda lo, hi: (
                     vids[lo:hi], _stamps(plug_ins[lo:hi]), _stamps(unplugs[lo:hi]),
                     kwhs[lo:hi]))


def write_dissatisfactions_csv(path: Path, out: SimulationOutput) -> None:
    events = out.dissatisfactions
    _write_table(path, ["timestamp_iso8601", "vehicle_id"], "%s,%d\r\n", len(events),
                 lambda lo, hi: (_stamps([t.minutes for t, _ in events[lo:hi]]),
                                 [vid for _, vid in events[lo:hi]]))


def write_baseload_csv(path: Path, baseload) -> None:
    """Long-form per-household hourly baseload, matching the ingestion schema:
    a row per hour and household, the hours read one ``blocks()`` block at a
    time."""
    ids = np.asarray(baseload.household_ids)
    loads = chain.from_iterable(block.T.ravel().tolist() for block in baseload.blocks())

    def columns(lo, hi):
        hours, which = np.divmod(np.arange(lo, hi), len(ids))
        return (_stamps(baseload.start.minutes + 60 * hours), ids[which].tolist(),
                list(islice(loads, hi - lo)))
    _write_table(path, ["timestamp_iso8601", "household_id", "load_kw"], "%s,%d,%.6f\r\n",
                 len(ids) * baseload.n_hours, columns)


def write_manifest(path: Path, scenario_hash: str, spec: ExperimentSpec) -> None:
    lines = [
        f"scenario_sha256 = {scenario_hash}",
        f"experiment_id = {spec.id}",
        f"strategy = {spec.strategy}",
        f"seed = {spec.seed}",
        f"span_start = {spec.span.start.isoformat()}",
        f"span_end = {spec.span.end.isoformat()}",
        f"tick_minutes = {spec.span.tick_minutes}",
        f"decision_interval_min = {spec.interval}",
        f"tariff_mode = {spec.tariff_mode}",
    ]
    path.write_text("\n".join(lines) + "\n")


def emit_plots(out_dir: Path, out: SimulationOutput, capacity_kw: float,
               baseline: SimulationOutput | None = None) -> None:
    """Annual load profile, dissatisfaction bars and (with a baseline) a
    day-zoom overload comparison on the worst baseline day."""
    (out_dir / "load_profile.svg").write_text(load_profile_svg(
        out.hourly_max.values, capacity_kw,
        f"Hourly-max grid load, {out.spec.id}"))

    counts = Counter(vid for _, vid in out.dissatisfactions)
    (out_dir / "dissatisfaction.svg").write_text(bar_chart_svg(
        [counts[vid] for vid in sorted(counts)],
        f"Dissatisfaction events per user, {out.spec.id}"))

    if baseline is not None:
        day = _worst_day(baseline)
        top = baseline.load.slice_minutes(day, day + MINUTES_PER_DAY).values
        bottom = out.load.slice_minutes(day, day + MINUTES_PER_DAY).values
        (out_dir / "day_zoom.svg").write_text(day_zoom_svg(
            top, bottom, capacity_kw,
            baseline.spec.id, out.spec.id,
            f"Grid load on {Timestamp(day).isoformat()[:10]}"))


def _worst_day(out: SimulationOutput) -> int:
    """Start minute of the day with the largest load peak (overload day if any)."""
    if out.overload_events:
        peak_event = max(out.overload_events, key=lambda e: e.peak_excess_kw)
        minute = peak_event.start.minutes
    else:
        # the first tick of the first run that holds the largest load
        load = out.load
        minute = load.minute_of(int(load.run_starts[np.argmax(load.run_values)]))
    return minute - minute % MINUTES_PER_DAY


def write_all(out_dir: Path, out: SimulationOutput, scenario_hash: str,
              capacity_kw: float, baseline: SimulationOutput | None = None,
              physics_from: Path | None = None) -> None:
    """Write one experiment's output directory.

    ``physics_from`` is the directory of an experiment already written from
    the same charging-physics pass as ``out``; its ``PHYSICS_FILES`` are
    copied byte for byte in place of being formatted again.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(out_dir / "manifest.txt", scenario_hash, out.spec)
    if physics_from is None:
        write_load_csv(out_dir / "load_minute.csv", out.load)
        write_load_csv(out_dir / "load_hourly_max.csv", out.hourly_max)
        write_overloads_csv(out_dir / "overloads.csv", out)
        write_sessions_csv(out_dir / "sessions.csv", out)
        write_dissatisfactions_csv(out_dir / "dissatisfactions.csv", out)
    else:
        for name in PHYSICS_FILES:
            shutil.copyfile(physics_from / name, out_dir / name)
    write_kpi_csv(out_dir / "kpi.csv", out.spec.id, out.reports)
    if baseline is not None:
        write_comparison_csv(out_dir / "comparison.csv", out.reports, baseline.reports)
    emit_plots(out_dir, out, capacity_kw, baseline)
