"""Per-experiment output emission: CSVs, run manifest and SVG plots."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .engine import ExperimentSpec, SimulationOutput
from .grid import LoadSeries
from .kpi import ComparisonRow, KpiReport, compare_reports
from .svgplot import bar_chart_svg, day_zoom_svg, load_profile_svg
from .timebase import EPOCH, Timestamp

KPI_HEADER = ["experiment_id", "year", "overload_count", "avg_charging_cost",
              "avg_total_bill", "avg_total_co2", "dissatisfaction",
              "load_factor", "dso_revenue"]

_EPOCH_MINUTE = np.datetime64(EPOCH, "m")
_ROWS_PER_WRITE = 256


def _fmt(value, decimals: int) -> str:
    if value is None:
        return "na"
    return f"{value:.{decimals}f}"


def write_load_csv(path: Path, series: LoadSeries, column: str = "load_kw") -> None:
    res = series.resolution_minutes
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["timestamp_iso8601", column])
        # the rows csv.writer would write (its line ends are \r\n), formatted a
        # block at a time so the text in memory stays small
        for lo in range(0, len(series.values), _ROWS_PER_WRITE):
            values = series.values[lo:lo + _ROWS_PER_WRITE].tolist()
            minutes = series.start.minutes + res * np.arange(lo, lo + len(values))
            stamps = np.datetime_as_string(_EPOCH_MINUTE + minutes, unit="m").tolist()
            fh.write("".join(f"{t},{v:.6f}\r\n" for t, v in zip(stamps, values)))


def write_kpi_csv(path: Path, experiment_id: str, reports: list[KpiReport]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(KPI_HEADER)
        for r in reports:
            w.writerow([experiment_id, r.year, r.overload_count,
                        _fmt(r.avg_charging_cost_dkk_per_kwh, 4),
                        _fmt(r.avg_total_bill_dkk, 2),
                        _fmt(r.avg_total_co2_kg, 4),
                        r.dissatisfaction_count,
                        _fmt(r.load_factor, 4),
                        _fmt(r.dso_revenue_dkk, 2)])


def read_kpi_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != KPI_HEADER:
            raise ValueError(f"{path}: not a KPI csv (header mismatch)")
        return list(reader)


def write_comparison_csv(path: Path, rows: list[ComparisonRow]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "value", "baseline", "pct_difference"])
        for r in rows:
            pct = "na" if r.pct_difference is None else f"{r.pct_difference:.2f}"
            w.writerow([r.metric,
                        "na" if r.value is None else f"{r.value:.6f}",
                        "na" if r.baseline is None else f"{r.baseline:.6f}",
                        pct])


def write_overloads_csv(path: Path, out: SimulationOutput) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["start_iso8601", "duration_minutes", "peak_excess_kw"])
        for e in out.overload_events:
            w.writerow([e.start.isoformat(), e.duration_minutes,
                        f"{e.peak_excess_kw:.4f}"])


def write_sessions_csv(path: Path, out: SimulationOutput) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["vehicle_id", "plug_in_iso8601", "unplug_iso8601",
                    "delivered_kwh"])
        for s in out.sessions:
            w.writerow([s.vehicle_id, s.plug_in.isoformat(), s.unplug.isoformat(),
                        f"{s.delivered_kwh:.6f}"])


def write_dissatisfactions_csv(path: Path, out: SimulationOutput) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp_iso8601", "vehicle_id"])
        for t, vid in out.dissatisfactions:
            w.writerow([t.isoformat(), vid])


def write_baseload_csv(path: Path, baseload) -> None:
    """Long-form per-household hourly baseload, matching the ingestion schema."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp_iso8601", "household_id", "load_kw"])
        n_hours = baseload.matrix.shape[1]
        for h in range(n_hours):
            ts = Timestamp(baseload.start.minutes + 60 * h).isoformat()
            for row, hid in enumerate(baseload.household_ids):
                w.writerow([ts, hid, f"{baseload.matrix[row, h]:.6f}"])


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

    counts: dict[int, int] = {}
    for _, vid in out.dissatisfactions:
        counts[vid] = counts.get(vid, 0) + 1
    labels = [str(i + 1) for i in range(len(counts))]
    (out_dir / "dissatisfaction.svg").write_text(bar_chart_svg(
        labels, [counts[vid] for vid in sorted(counts)],
        f"Dissatisfaction events per user, {out.spec.id}",
        y_label="events"))

    if baseline is not None:
        day = _worst_day(baseline, capacity_kw)
        top = baseline.load.slice_minutes(day, day + 24 * 60).values
        bottom = out.load.slice_minutes(day, day + 24 * 60).values
        (out_dir / "day_zoom.svg").write_text(day_zoom_svg(
            top, bottom, capacity_kw,
            baseline.spec.id, out.spec.id,
            f"Grid load on {Timestamp(day).isoformat()[:10]}"))


def _worst_day(out: SimulationOutput, capacity_kw: float) -> int:
    """Start minute of the day with the largest load peak (overload day if any)."""
    if out.overload_events:
        peak_event = max(out.overload_events, key=lambda e: e.peak_excess_kw)
        minute = peak_event.start.minutes
    else:
        idx = int(np.argmax(out.load.values))
        minute = out.load.minute_of(idx)
    return minute - minute % (24 * 60)


def write_all(out_dir: Path, out: SimulationOutput, scenario_hash: str,
              capacity_kw: float, baseline: SimulationOutput | None = None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(out_dir / "manifest.txt", scenario_hash, out.spec)
    write_load_csv(out_dir / "load_minute.csv", out.load)
    write_load_csv(out_dir / "load_hourly_max.csv", out.hourly_max)
    write_kpi_csv(out_dir / "kpi.csv", out.spec.id, out.reports)
    write_overloads_csv(out_dir / "overloads.csv", out)
    write_sessions_csv(out_dir / "sessions.csv", out)
    write_dissatisfactions_csv(out_dir / "dissatisfactions.csv", out)
    if baseline is not None:
        rows: list[ComparisonRow] = []
        base_by_year = {r.year: r for r in baseline.reports}
        for rep in out.reports:
            if rep.year in base_by_year:
                rows.extend(compare_reports(rep, base_by_year[rep.year]))
        write_comparison_csv(out_dir / "comparison.csv", rows)
    emit_plots(out_dir, out, capacity_kw, baseline)
