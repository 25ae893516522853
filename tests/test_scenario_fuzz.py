"""Random scenario files written from the real key set, with small CSVs where a
key names one: ``evsim validate`` accepts or rejects each (exit 0 or 1, never
2), and every accepted scenario, cut to two days, runs each experiment under
``invariants_checked()`` and equals the per-tick reference loop exactly.

Most values are drawn from their valid range; each key is occasionally given
a value that load_scenario must reject, each CSV file a row of the wrong
width, each timestamp a UTC offset or seconds, the adoption curve a repeated
year or one out of range, and each experiment an id that names no output
directory of its own.
"""

import tempfile
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evsim.cli import main
from evsim.engine import build_fleet, simulate
from evsim.scenario import load_scenario
from evsim.strategies import STRATEGY_NAMES
from evsim.tariffs import TARIFF_MODES
from evsim.timebase import SimulationSpan, Timestamp

from reference_engine import first_difference, invariants_checked, simulate_ticks

CUT_MINUTES = 2 * 24 * 60
ISO = "%Y-%m-%dT%H:%M"


def mostly(good, bad):
    """``good`` about 29 times in 30, else ``bad``; the bad case sits inside the
    range, away from the ends that Hypothesis tries first."""
    return st.integers(0, 29).flatmap(lambda k: bad if k == 13 else good)


def real(lo, hi, bad=("nan", "inf", "-1", "much")):
    return mostly(st.floats(lo, hi).map(lambda x: f"{x:.6g}"), st.sampled_from(bad))


def optional(values):
    """A key's value, or None to leave the key out."""
    return st.none() | values


def hourly_csv(column, start, hours, values):
    rows = [f"{(start + timedelta(hours=h)).strftime(ISO)},{v:.6g}"
            for h, v in zip(range(hours), values)]
    return "\n".join([f"timestamp_iso8601,{column}", *rows]) + "\n"


@st.composite
def series_window(draw, start, end):
    """The hours a CSV series covers: mostly the span, sometimes more or less."""
    lead = draw(mostly(st.sampled_from([0, 0, 2]), st.just(-1)))
    tail = draw(mostly(st.sampled_from([0, 0, 3]), st.just(-1)))
    first = start - timedelta(hours=lead)
    hours = int((end - start).total_seconds() // 3600) + lead + tail
    return first, max(hours, 1)


@st.composite
def tou_bands(draw):
    def partition(season):
        cuts = sorted(draw(st.sets(st.integers(1, 23), max_size=4)))
        edges = [0, *cuts, 24]
        return [(season, a, b, draw(st.floats(0.0, 1.0)))
                for a, b in zip(edges, edges[1:])]

    bands = partition("all") if draw(st.booleans()) \
        else partition("summer") + partition("winter")
    if draw(mostly(st.just(False), st.just(True))):
        bands = bands[1:] if len(bands) > 1 else [("all", 0, 23, 0.1)]   # a gap
    rows = [f"{s},{a},{b},{v:.4f}" for s, a, b, v in bands]
    return "\n".join(["season,start_hour,end_hour,dkk_per_kwh", *rows]) + "\n"


@st.composite
def ragged(draw, text):
    """CSV ``text``, now and then with one body row a column short or long."""
    rows = text.splitlines()
    if len(rows) < 2 or not draw(mostly(st.just(False), st.just(True))):
        return text
    k = draw(st.integers(1, len(rows) - 1))
    rows[k] = rows[k].rsplit(",", 1)[0] if draw(st.booleans()) else rows[k] + ",1"
    return "\n".join(rows) + "\n"


OFF_MINUTE = st.sampled_from(["+01:00", ":30"])   # a UTC offset, or seconds


@st.composite
def off_minute_stamp(draw, text):
    """CSV ``text`` whose first column is a timestamp, now and then with one
    body row's stamp given a UTC offset or seconds."""
    rows = text.splitlines()
    if len(rows) < 2 or not draw(mostly(st.just(False), st.just(True))):
        return text
    k = draw(st.integers(1, len(rows) - 1))
    rows[k] = rows[k].replace(",", draw(OFF_MINUTE) + ",", 1)
    return "\n".join(rows) + "\n"


@st.composite
def scenario_files(draw):
    """(INI text, {file name: CSV text})."""
    files: dict[str, str] = {}
    sections: list[tuple[str, dict]] = []

    households = draw(mostly(st.integers(1, 6), st.sampled_from([0, -2])))
    n = max(households, 1)
    tick = draw(optional(mostly(st.sampled_from([1, 5, 15, 2, 3, 4, 6, 10, 12, 20, 30, 60]),
                                st.sampled_from([7, 0, -5]))))
    # across a year boundary, a leap day, or neither; whole days mostly
    day = draw(st.sampled_from(["2035-12-30", "2036-02-27", "2036-06-10", "2039-03-30"]))
    start = datetime.fromisoformat(day) + timedelta(
        hours=draw(mostly(st.just(0), st.sampled_from([3, -24 * 365 * 40]))))
    length = draw(mostly(st.integers(1, 3).map(lambda d: 24 * d),
                         st.sampled_from([0, 5, -24])))
    end = start + timedelta(hours=length)
    start_text = draw(mostly(st.just(start.strftime(ISO)),
                             st.just(start.strftime(ISO)[:-2] + "30")
                             | OFF_MINUTE.map(start.strftime(ISO).__add__)))
    sections.append(("scenario", {
        "households": households,
        "seed": draw(optional(mostly(st.integers(0, 10**6), st.sampled_from([-1, "x"])))),
        "tick_minutes": tick,
        "span_start": start_text,
        "span_end": end.strftime(ISO)}))

    capacity = draw(st.floats(1.0, 12.0 * n))
    sections.append(("transformer", {
        "capacity_kw": draw(mostly(st.just(f"{capacity:.6g}"),
                                   st.sampled_from(["0", "-5", "nan"]))),
        "buffer_kw": draw(optional(mostly(
            st.floats(0.0, 0.6).map(lambda f: f"{f * capacity:.6g}"),
            st.just(f"{capacity:.6g}"))))}))

    if draw(st.booleans()):
        first, hours = draw(series_window(start, end))
        kws = draw(st.lists(st.floats(0.0, 3.0), min_size=n * hours, max_size=n * hours))
        negative = draw(mostly(st.none(), st.integers(0, n * hours - 1)))
        if negative is not None:
            kws[negative] = -1.0
        rows = ["timestamp_iso8601,household_id,load_kw"]
        for k, kw in enumerate(kws):
            stamp = (first + timedelta(hours=k % hours)).strftime(ISO)
            rows.append(f"{stamp},{k // hours + 1},{kw:.6g}")
        files["baseload.csv"] = "\n".join(rows) + "\n"
        sections.append(("baseload", {"source": "csv", "path": "baseload.csv"}))
    else:
        sections.append(("baseload", {
            "mean_daily_kwh": draw(optional(real(0.0, 30.0))),
            "morning_peak_weight": draw(optional(real(0.0, 3.0))),
            "evening_peak_weight": draw(optional(real(0.0, 3.0))),
            "weekend_factor": draw(optional(real(0.5, 1.5))),
            "noise_std": draw(optional(real(0.0, 0.5)))}))

    for name, column, mean_key in (("spot", "dkk_per_kwh", "mean_dkk_per_kwh"),
                                   ("co2", "kg_per_kwh", "mean_kg_per_kwh")):
        if draw(st.booleans()):
            first, hours = draw(series_window(start, end))
            values = draw(st.lists(st.floats(0.0, 2.0), min_size=hours, max_size=hours))
            files[f"{name}.csv"] = hourly_csv(column, first, hours, values)
            sections.append((name, {"source": "csv", "path": f"{name}.csv"}))
        else:
            sections.append((name, {
                mean_key: draw(optional(real(0.0, 2.0))),
                "diurnal_amplitude": draw(optional(real(0.0, 0.5))),
                "noise_std": draw(optional(real(0.0, 0.1)))}))

    tariff = {"fixed_dkk_per_kwh": draw(optional(real(0.0, 1.0))),
              "addons_dkk_per_kwh": draw(optional(real(-0.5, 1.0)))}
    if draw(st.booleans()):
        files["tou.csv"] = draw(tou_bands())
        tariff["tou_path"] = "tou.csv"
    sections.append(("tariff", tariff))

    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        shares = {1: ["1"], 2: ["0.5", "0.5"], 3: ["0.25", "0.25", "0.5"]}[k]
        if draw(mostly(st.just(False), st.just(True))):
            shares[0] = "0.9"
        rows = [f"m{i},{draw(mostly(st.floats(10.0, 100.0), st.just(0.0))):.6g},"
                f"{draw(st.sampled_from([2.3, 3.7, 7.4, 11.0, 22.0]))},{shares[i]}"
                for i in range(k)]
        files["catalog.csv"] = "\n".join(["name,battery_kwh,max_rate_kw,market_share",
                                          *rows]) + "\n"
        sections.append(("catalog", {"path": "catalog.csv"}))

    if draw(mostly(st.just(True), st.just(False))):
        # the default curve reaches 126 adopters: more than any drawn household
        # count. Mostly every adopter has its EV before the span starts.
        years = sorted(draw(st.sets(st.integers(start.year - 4, start.year - 1),
                                    min_size=1, max_size=3))
                       | draw(st.sets(st.sampled_from([start.year, start.year + 1]),
                                      max_size=1)))
        final = n - draw(st.integers(0, n))      # full adoption is the simplest case
        counts = sorted(draw(st.lists(st.integers(0, final), min_size=len(years) - 1,
                                      max_size=len(years) - 1))) + [final]
        if draw(mostly(st.just(False), st.just(True))):
            counts[-1] = n + 1
        rows = [f"{y},{c}" for y, c in zip(years, counts)]
        # a repeated year, or one before 2000 or after 9998, where no run can sample
        extra = draw(mostly(st.none(), st.sampled_from(
            [(years[0], counts[0]), (1999, counts[0]), (9999, counts[-1])])))
        if extra is not None:
            rows.append("%d,%d" % extra)
        files["curve.csv"] = "\n".join(["year,cumulative_adopters", *rows]) + "\n"
        sections.append(("adoption", {"path": "curve.csv"}))

    clock = mostly(st.tuples(st.integers(0, 23), st.integers(0, 59)).map(
        lambda t: f"{t[0]:02d}:{t[1]:02d}"),
        st.sampled_from(["24:00", "7", "7:30:00", "7:75", "07:-5", "-1:30", "12:60"]))
    sections.append(("driving", {
        "departure_mean": draw(optional(clock)),
        "departure_std_min": draw(optional(real(0.0, 120.0))),
        "arrival_mean": draw(optional(clock)),
        "arrival_std_min": draw(optional(real(0.0, 180.0))),
        "trip_energy_mean_kwh": draw(optional(real(0.0, 40.0))),
        "trip_energy_std_kwh": draw(optional(real(0.0, 10.0))),
        "weekday_trip_prob": draw(optional(real(0.0, 1.0, bad=("1.5", "-0.5", "nan")))),
        "weekend_trip_prob": draw(optional(real(0.0, 1.0, bad=("1.5", "-0.5", "nan"))))}))

    sections.append(("kpi", {"overload_unit": draw(optional(mostly(
        st.sampled_from(["hours", "events", "minutes"]), st.just("days"))))}))

    ids = [draw(mostly(st.just(f"e{k}"), st.sampled_from(
        ["", ".", "..", "a/b", "/some/dir", "a\\b", "baseload_hourly.csv"])))
        for k in range(draw(st.integers(0, 3)))]
    for exp_id in ids:
        spec = {"strategy": draw(mostly(st.sampled_from(STRATEGY_NAMES), st.just("greedy"))),
                "tariff_mode": draw(optional(mostly(st.sampled_from(TARIFF_MODES),
                                                    st.just("flat")))),
                "decision_interval_min": draw(optional(mostly(
                    st.sampled_from([1, 2, 5, 10, 15, 20, 30, 60]),
                    st.sampled_from([45, 7, -5, 0])))),
                "seed": draw(optional(mostly(st.integers(0, 10**6), st.just(-3)))),
                "baseline": draw(optional(mostly(st.sampled_from(ids), st.just("nobody"))))}
        if draw(st.booleans()):
            lo = draw(st.integers(0, max(length // 24 - 1, 0)))
            hi = draw(st.integers(lo + 1, max(length // 24, lo + 1)))
            spec["span_start"] = (start + timedelta(days=lo)).strftime(ISO)
            spec["span_end"] = (start + timedelta(days=hi)).strftime(ISO)
        sections.append((f"experiment.{exp_id}", spec))

    ini = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()
                                           if v is not None) + "\n"
                  for name, keys in sections)
    stamped = {name: draw(off_minute_stamp(text)) if text.startswith("timestamp") else text
               for name, text in files.items()}
    return ini, {name: draw(ragged(text)) for name, text in stamped.items()}


def cut(spec):
    span = spec.span
    end = min(span.end.minutes, span.start.minutes + CUT_MINUTES)
    return replace(spec, span=SimulationSpan(span.start, Timestamp(end), span.tick_minutes))


def check_scenario(files):
    """The two claims on one drawn scenario; a long run by hand can give
    this to ``given`` with a larger example count."""
    ini, csvs = files
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in csvs.items():
            (Path(tmp) / name).write_text(text)
        path = Path(tmp) / "scenario.ini"
        path.write_text(ini)
        code = main(["validate", str(path)])
        assert code in (0, 1)
        if code == 1:
            return
        scn = load_scenario(path)
        for spec in map(cut, scn.experiments):
            with invariants_checked():
                out = simulate(spec, scn.data, build_fleet(spec, scn.data))
            reference = simulate_ticks(spec, scn.data, build_fleet(spec, scn.data))
            assert first_difference(out, reference) is None


@given(scenario_files())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_validate_never_crashes_and_accepted_scenarios_run(files):
    check_scenario(files)
