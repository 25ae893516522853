import concurrent.futures
import csv
import functools
import logging
import pickle
import shutil
from concurrent.futures import Future
from multiprocessing import get_context
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from evsim import cli, outputs
from evsim.cli import main
from evsim.engine import (ChargeSession, HouseholdBaseload, ScenarioData, Sessions,
                          run_experiment)
from evsim.grid import LoadSeries, OverloadEvent
from evsim.kpi import KPI_METRICS, KpiReport
from evsim.outputs import (comparison_rows, read_kpi_csv, write_all, write_baseload_csv,
                           write_dissatisfactions_csv, write_kpi_csv, write_load_csv,
                           write_overloads_csv, write_sessions_csv)
from evsim.scenario import load_scenario
from evsim.svgplot import _polyline, bar_chart_svg, day_zoom_svg, load_profile_svg
from evsim.timebase import Timestamp

from test_scenario import CATALOG, CURVE, write_scenario

ROOT = Path(__file__).resolve().parents[1]

SHORT_INI = """\
[scenario]
households = 4
seed = 11
span_start = 2036-01-01T00:00
span_end = 2036-01-08T00:00

[transformer]
capacity_kw = 400

[catalog]
path = catalog.csv

[adoption]
path = curve.csv
"""


# a fixed/time-of-use pair per strategy on a tight transformer; edf_tou's
# baseline is of another pass, so an --experiment edf_tou run formats its files
TOU_INI = SHORT_INI.replace("capacity_kw = 400", "capacity_kw = 8") + """
[tariff]
tou_path = tou.csv

[experiment.trad_fixed]
strategy = traditional

[experiment.edf_fixed]
strategy = edf
baseline = trad_fixed

[experiment.trad_tou]
strategy = traditional
tariff_mode = time_of_use

[experiment.edf_tou]
strategy = edf
tariff_mode = time_of_use
baseline = trad_fixed
"""


@pytest.fixture
def scenario_path(tmp_path):
    return write_scenario(tmp_path, SHORT_INI)


@pytest.fixture
def tou_scenario_path(tmp_path):
    (tmp_path / "tou.csv").write_text(
        "season,start_hour,end_hour,dkk_per_kwh\n"
        "all,0,17,0.2\nall,17,20,1.0\nall,20,24,0.2\n")
    return write_scenario(tmp_path, TOU_INI)


def tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture
def fake_pool(monkeypatch):
    """An in-process stand-in for the --parallel pool: it pickles each task and
    result as a worker process would, and starts no process. ``pools`` lists
    each pool's worker count; the task of a pass that runs an experiment in
    ``failing`` raises, as a worker that dies does."""
    state = SimpleNamespace(pools=[], failing=set())

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            state.pools.append(max_workers)
            initializer(*pickle.loads(pickle.dumps(initargs)))    # one worker's start

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fn, args = pickle.loads(pickle.dumps((fn, args)))
            done = Future()
            if state.failing & {s.id for s in args[0]}:
                done.set_exception(RuntimeError("worker died"))
            else:
                done.set_result(pickle.loads(pickle.dumps(fn(*args))))
            return done

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli, "_worker_data", None)
    return state


def failing_run_experiment(monkeypatch, failing):
    """Patch the CLI's run_experiment to raise for the experiment id ``failing``."""
    def run(spec, data):
        if spec.id == failing:
            raise RuntimeError(f"{spec.id} broke")
        return run_experiment(spec, data)
    monkeypatch.setattr(cli, "run_experiment", run)


class TestCliRun:
    def test_run_writes_all_outputs(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", str(scenario_path), "--out", str(out),
                   "--experiment", "round_robin"])
        assert rc == 0
        exp = out / "round_robin"
        assert sorted(p.name for p in exp.iterdir()) == sorted((
            "manifest.txt", "load_minute.csv", "load_hourly_max.csv",
            "kpi.csv", "overloads.csv", "sessions.csv",
            "dissatisfactions.csv", "comparison.csv",
            "load_profile.svg", "dissatisfaction.svg", "day_zoom.svg"))
        # the household baseload is written once per run, at hourly resolution
        rows = (out / "baseload_hourly.csv").read_text().splitlines()
        assert rows[0] == "timestamp_iso8601,load_kw"
        assert len(rows) == 1 + 7 * 24
        # the referenced baseline ran too
        assert (out / "traditional" / "kpi.csv").exists()
        assert "round_robin: ok" in capsys.readouterr().out

    def test_rerun_byte_identical(self, scenario_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(scenario_path), "--out", str(a),
                     "--experiment", "edf"]) == 0
        assert main(["run", str(scenario_path), "--out", str(b),
                     "--experiment", "edf"]) == 0
        for name in ("kpi.csv", "load_minute.csv", "sessions.csv"):
            assert (a / "edf" / name).read_bytes() == \
                (b / "edf" / name).read_bytes()

    def test_unknown_experiment_is_validation_error(self, scenario_path, tmp_path):
        rc = main(["run", str(scenario_path), "--out", str(tmp_path / "o"),
                   "--experiment", "nope"])
        assert rc == 1

    def test_out_that_is_a_file_fails_before_any_experiment(self, scenario_path,
                                                           tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return run_experiment(*args)
        monkeypatch.setattr(cli, "run_experiment", counted)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", str(scenario_path), "--out", str(taken)]) == 2
        assert calls == []

    def test_comparison_names_the_year_of_each_row(self, tmp_path):
        ini = SHORT_INI.replace("span_start = 2036-01-01T00:00",
                                "span_start = 2035-12-29T00:00")
        out = tmp_path / "out"
        assert main(["run", str(write_scenario(tmp_path, ini)), "--out", str(out),
                     "--experiment", "edf"]) == 0
        with open(out / "edf" / "comparison.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["year", "metric", "value", "baseline", "pct_difference"]
        assert [(r[0], r[1]) for r in rows[1:]] == [
            (year, name) for year in ("2035", "2036") for _, name, _ in KPI_METRICS]

    def test_manifest_records_provenance(self, scenario_path, tmp_path):
        out = tmp_path / "out"
        main(["run", str(scenario_path), "--out", str(out),
              "--experiment", "traditional"])
        text = (out / "traditional" / "manifest.txt").read_text()
        assert "strategy = traditional" in text
        assert "seed = 11" in text
        assert "scenario_sha256 = " in text

    def test_parallel_matches_serial(self, tou_scenario_path, tmp_path):
        a, b = tmp_path / "ser", tmp_path / "par"
        assert main(["run", str(tou_scenario_path), "--out", str(a)]) == 0
        assert main(["run", str(tou_scenario_path), "--out", str(b),
                     "--parallel", "2"]) == 0
        serial = tree(a)
        assert len(serial) == 1 + 4 * 9 + 2 * 2
        assert tree(b) == serial

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_parallel_below_one_is_a_usage_error(self, scenario_path, tmp_path, capsys, n):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(scenario_path), "--out", str(tmp_path / "o"), "--parallel", n])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--parallel" in err and "must be at least 1" in err
        assert not (tmp_path / "o").exists()

    def test_parallel_workers_share_one_load_and_one_worker_per_pass(
            self, tou_scenario_path, tmp_path, monkeypatch, fake_pool):
        pools, loads = fake_pool.pools, []
        load = cli.load_scenario

        def counted(*args, **kwargs):
            loads.append(args)
            return load(*args, **kwargs)
        monkeypatch.setattr(cli, "load_scenario", counted)
        serial = tmp_path / "serial"
        assert main(["run", str(tou_scenario_path), "--out", str(serial)]) == 0
        assert pools == [] and len(loads) == 1
        for n in ("2", "64"):
            out = tmp_path / n
            assert main(["run", str(tou_scenario_path), "--out", str(out),
                         "--parallel", n]) == 0
            assert tree(out) == tree(serial)
        # two physics passes (traditional and edf), so two workers at most
        assert pools == [2, 2] and len(loads) == 3
        # one pass needs no pool
        assert main(["run", str(tou_scenario_path), "--out", str(tmp_path / "one"),
                     "--parallel", "4", "--experiment", "trad_tou"]) == 0
        assert pools == [2, 2] and len(loads) == 4

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_parallel_sends_the_scenario_once_per_worker(self, scenario_path, tmp_path,
                                                         monkeypatch, method):
        # each of the five passes' tasks once pickled the whole scenario data;
        # the pool's initializer hands it to each worker, under fork unpickled
        pickled = []
        getstate = ScenarioData.__getstate__

        def counted(self):
            pickled.append(self)
            return getstate(self)
        monkeypatch.setattr(ScenarioData, "__getstate__", counted)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
            concurrent.futures.ProcessPoolExecutor, mp_context=get_context(method)))
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["run", str(scenario_path), "--out", str(parallel), "--parallel", "2"]) == 0
        assert len(pickled) <= (0 if method == "fork" else 2)
        assert main(["run", str(scenario_path), "--out", str(serial)]) == 0
        assert tree(parallel) == tree(serial) and len(pickled) <= 2

    def test_physics_files_formatted_once_per_pass(self, tou_scenario_path,
                                                   tmp_path, monkeypatch):
        written = []
        write = outputs.write_load_csv

        def counted(path, *args, **kwargs):
            written.append(f"{path.parent.name}/{path.name}")
            return write(path, *args, **kwargs)
        monkeypatch.setattr(outputs, "write_load_csv", counted)
        full = tmp_path / "full"
        assert main(["run", str(tou_scenario_path), "--out", str(full)]) == 0
        assert sorted(written) == ["edf_fixed/load_hourly_max.csv",
                                   "edf_fixed/load_minute.csv", "full/baseload_hourly.csv",
                                   "trad_fixed/load_hourly_max.csv",
                                   "trad_fixed/load_minute.csv"]
        # the copies are what the experiment writes when it runs alone
        alone = tmp_path / "alone"
        assert main(["run", str(tou_scenario_path), "--out", str(alone),
                     "--experiment", "edf_tou"]) == 0
        assert tree(full / "edf_tou") == tree(alone / "edf_tou")
        assert (full / "edf_tou" / "overloads.csv").read_bytes() == \
            (full / "edf_fixed" / "overloads.csv").read_bytes()

    def test_failed_experiment_is_reported_and_the_rest_written(
            self, tou_scenario_path, tmp_path, capsys, monkeypatch):
        full, out = tmp_path / "full", tmp_path / "out"
        assert main(["run", str(tou_scenario_path), "--out", str(full)]) == 0
        capsys.readouterr()
        failing_run_experiment(monkeypatch, "edf_fixed")
        assert main(["run", str(tou_scenario_path), "--out", str(out)]) == 2
        std = capsys.readouterr()
        assert std.err.splitlines() == ["edf_fixed: FAILED: edf_fixed broke"]
        assert sorted(std.out.splitlines()) == sorted(
            f"{e}: ok -> {out / e}" for e in ("trad_fixed", "trad_tou", "edf_tou"))
        assert not (out / "edf_fixed").exists()
        for e in ("trad_fixed", "trad_tou", "edf_tou"):
            assert tree(out / e) == tree(full / e), e

    def test_failed_baseline_leaves_its_dependents_without_comparison(
            self, tou_scenario_path, tmp_path, capsys, monkeypatch):
        full, out = tmp_path / "full", tmp_path / "out"
        assert main(["run", str(tou_scenario_path), "--out", str(full)]) == 0
        capsys.readouterr()
        failing_run_experiment(monkeypatch, "trad_fixed")
        assert main(["run", str(tou_scenario_path), "--out", str(out)]) == 2
        std = capsys.readouterr()
        assert std.err.splitlines() == ["trad_fixed: FAILED: trad_fixed broke"]
        assert sorted(std.out.splitlines()) == sorted(
            f"{e}: ok -> {out / e}" for e in ("edf_fixed", "trad_tou", "edf_tou"))
        assert not (out / "trad_fixed").exists()
        assert tree(out / "trad_tou") == tree(full / "trad_tou")
        # a dependent is written as if it had no baseline
        for e in ("edf_fixed", "edf_tou"):
            want = {p: b for p, b in tree(full / e).items()
                    if p.name not in ("comparison.csv", "day_zoom.svg")}
            assert tree(out / e) == want, e

    def test_parallel_failed_task_fails_its_whole_pass(
            self, tou_scenario_path, tmp_path, capsys, fake_pool):
        full, out = tmp_path / "full", tmp_path / "out"
        assert main(["run", str(tou_scenario_path), "--out", str(full)]) == 0
        capsys.readouterr()
        fake_pool.failing = {"edf_tou"}
        assert main(["run", str(tou_scenario_path), "--out", str(out),
                     "--parallel", "2"]) == 2
        std = capsys.readouterr()
        assert sorted(std.err.splitlines()) == ["edf_fixed: FAILED: worker died",
                                                "edf_tou: FAILED: worker died"]
        assert sorted(std.out.splitlines()) == sorted(
            f"{e}: ok -> {out / e}" for e in ("trad_fixed", "trad_tou"))
        assert sorted(p.name for p in out.iterdir()) == [
            "baseload_hourly.csv", "trad_fixed", "trad_tou"]
        for e in ("trad_fixed", "trad_tou"):
            assert tree(out / e) == tree(full / e), e

    def test_baselines_of_baselines_run_too(self, tmp_path):
        ini = SHORT_INI.replace("span_end = 2036-01-08T00:00", "span_end = 2036-01-02T00:00") \
            + "\n[experiment.c]\nstrategy = traditional\n" \
            + "\n[experiment.b]\nstrategy = fcfs\nbaseline = c\n" \
            + "\n[experiment.a]\nstrategy = edf\nbaseline = b\n"
        path = write_scenario(tmp_path, ini)
        full, alone = tmp_path / "full", tmp_path / "alone"
        assert main(["run", str(path), "--out", str(full)]) == 0
        assert main(["run", str(path), "--out", str(alone), "--experiment", "a"]) == 0
        assert (alone / "b" / "comparison.csv").exists()
        assert tree(alone / "b") == tree(full / "b")
        assert tree(alone / "a") == tree(full / "a")


class TestCliValidate:
    def test_valid_scenario(self, scenario_path, capsys):
        assert main(["validate", str(scenario_path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_scenario_exit_1(self, tmp_path, capsys):
        bad = write_scenario(tmp_path, SHORT_INI.replace("capacity_kw = 400",
                                                         "capacity_kw = much"))
        assert main(["validate", str(bad)]) == 1
        assert "validation error" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.ini")]) == 1

    @pytest.mark.parametrize("old, new, where, csv_datasets", [
        ("span_end = 2036-01-08T00:00", "span_end = 2035-12-25T00:00", "scenario", False),
        ("span_end = 2036-01-08T00:00", "span_end = 2036-01-07T12:00", "baseload", False),
        ("path = curve.csv\n", "path = curve.csv\n[experiment.x]\nstrategy = edf\n"
         "span_start = 2036-01-02T00:00\nspan_end = 2036-01-02T00:00\n", "experiment.x",
         False),
        ("span_start = 2036-01-01T00:00", "span_start = notadate", "scenario.span_start",
         False),
        ("span_start = 2036-01-01T00:00", "span_start = 2036-01-01T00:00+05:00",
         "scenario.span_start", False),
        ("span_end = 2036-01-08T00:00", "span_end = 2036-01-08T00:00:30",
         "scenario.span_end", False),
        ("seed = 11", "seed = 11\ntick_minutes = 7", "scenario", False),
        ("capacity_kw = 400", "capacity_kw = 400\nbuffer_kw = 400", "transformer", False),
        # a CSV baseload takes any span
        ("span_start = 2036-01-01T00:00", "span_start = 2036-01-01T00:30", "scenario", True),
        ("span_end = 2036-01-08T00:00", "span_end = 2036-01-07T23:30", "scenario", True),
        ("path = curve.csv\n", "path = curve.csv\n[experiment.x]\nstrategy = edf\n"
         "span_start = 2036-01-02T00:30\nspan_end = 2036-01-03T00:00\n", "experiment.x",
         False),
        ("seed = 11", "seed = -1", "scenario.seed", False),
        ("path = curve.csv\n", "path = curve.csv\n[experiment.x]\nstrategy = edf\n"
         "seed = -1\n", "experiment.x.seed", False),
        ("path = curve.csv\n", "path = curve.csv\n[baseload]\nmean_daily_kwh = nan\n",
         "baseload.mean_daily_kwh", False),
        # the synthetic baseload's daily factors and diurnal weights, held
        # apart, still reject any negative product
        ("path = curve.csv\n", "path = curve.csv\n[baseload]\nmean_daily_kwh = -5\n",
         "baseload", False),
        ("path = curve.csv\n", "path = curve.csv\n[baseload]\nmorning_peak_weight = -1\n",
         "baseload", False),
        ("path = curve.csv\n", "path = curve.csv\n[driving]\ndeparture_std_min = -5\n",
         "driving", False),
        ("path = curve.csv\n", "path = curve.csv\n[driving]\nweekend_trip_prob = 1.5\n",
         "driving", False),
        ("path = curve.csv\n", "path = curve.csv\n[driving]\ndeparture_mean = 24:00\n",
         "driving.departure_mean", False),
        ("path = curve.csv\n", "path = curve.csv\n[driving]\ndeparture_mean = 7:75\n",
         "driving.departure_mean", False),
        ("path = curve.csv\n", "path = curve.csv\n[driving]\ndeparture_mean = 07:-5\n",
         "driving.departure_mean", False),
        *(("path = curve.csv\n", f"path = curve.csv\n[experiment.{exp_id}]\nstrategy = edf\n",
           f"experiment.{exp_id}", False)
          for exp_id in ("..", "", ".", "/some/dir", "a\\b", "baseload_hourly.csv")),
        # 0 is no interval, not the strategy's default
        ("path = curve.csv\n", "path = curve.csv\n[experiment.x]\nstrategy = edf\n"
         "decision_interval_min = 0\n", "experiment.x", False),
        ("path = curve.csv\n", "path = curve.csv\n[kpi]\noverload_unit = days\n",
         "kpi.overload_unit", False),
        # a value is read verbatim: % is no interpolation
        ("path = curve.csv\n", "path = curve.csv\n[kpi]\noverload_unit = 100%\n",
         "kpi.overload_unit", False),
        ("households = 4", "households = 0", "scenario.households", False),
        # the curve's final count of 4 against the households
        ("households = 4", "households = 3", "body", False),
        ("large,60,11,0.4", "large,60,11,0.3", "body", False),
        ("path = curve.csv\n", "path = curve.csv\n[experiment.x]\nstrategy = edf\n"
         "tariff_mode = time_of_use\n", "experiment.x", False),
        ("path = curve.csv\n", "path = curve.csv\n[experiment.x]\nstrategy = edf\n"
         "baseline = nobody\n", "experiment.x", False),
        # a key that nothing reads
        ("path = curve.csv\n", "path = curve.csv\n[experiment.x]\nstrategy = edf\n"
         "tarif_mode = time_of_use\n", "experiment.x.tarif_mode", False),
        ("path = curve.csv\n", "path = curve.csv\n[driving]\ndeparture_mean_min = 300\n",
         "driving.departure_mean_min", False),
        ("path = curve.csv\n", "path = curve.csv\n[scenrio]\ntick_minutes = 15\n",
         "scenrio.tick_minutes", False),
        ("path = data/spot.csv\n", "path = data/spot.csv\nmean_dkk_per_kwh = 1.0\n",
         "spot.mean_dkk_per_kwh", True),
        ("capacity_kw = 400", "capacity_kw = 400\ncapacity_kw = 500", "syntax", False),
        ("path = catalog.csv", "path = absent.csv", "file", False),
        ("path = curve.csv\n", "path = curve.csv\n[spot]\nsource = csv\n", "spot.path",
         False),
        ("path = curve.csv\n", "path = curve.csv\n[spot]\nsource = excel\n",
         "spot.source", False),
    ], ids=["end_before_start", "part_day_synthetic_baseload", "empty_experiment_span",
            "start_not_a_date", "start_with_utc_offset", "end_with_seconds",
            "tick_not_dividing_60", "buffer_not_below_capacity",
            "start_off_the_hour", "end_off_the_hour", "experiment_start_off_the_hour",
            "negative_seed", "negative_experiment_seed", "non_finite_value",
            "negative_daily_kwh", "negative_diurnal_weight", "negative_std", "probability_above_one", "time_of_day_out_of_range",
            "minute_above_59", "negative_minute", "id_parent_of_out", "id_out_itself",
            "id_dot", "id_absolute_path", "id_with_backslash", "id_of_the_baseload_file",
            "zero_decision_interval", "unknown_overload_unit", "percent_sign",
            "no_households", "curve_above_households", "shares_not_summing_to_1",
            "time_of_use_without_tou_path", "unknown_baseline", "misspelt_key",
            "key_of_another_section", "misspelt_section", "synthetic_key_beside_csv",
            "repeated_key", "absent_catalog_file", "csv_source_without_path",
            "unknown_source"])
    def test_invalid_value_names_its_section_or_key(self, tmp_path, capsys, old, new,
                                                    where, csv_datasets):
        """One table entry per loader rule: the scenario, its catalog and its
        curve with ``old`` replaced by ``new`` break that rule alone, which
        ``evsim validate`` reports at ``where``. With ``csv_datasets``, the
        baseload, spot and CO2 series are CSV files that gen-synthetic wrote."""
        ini = SHORT_INI
        if csv_datasets:
            assert main(["gen-synthetic", str(write_scenario(tmp_path, SHORT_INI)),
                         "--out", str(tmp_path / "data")]) == 0
            ini += "".join(f"\n[{s}]\nsource = csv\npath = data/{s}.csv\n"
                           for s in ("baseload", "spot", "co2"))
        assert any(old in text for text in (ini, CATALOG, CURVE))
        bad = write_scenario(tmp_path, *(text.replace(old, new)
                                         for text in (ini, CATALOG, CURVE)))
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "validation error" in err and f"[{where}]" in err

    def test_overflowing_synthetic_baseload_rejected(self, tmp_path, capsys):
        # every key is a finite real, but 1.5e308 kWh on weekend days times the
        # households' noise passes the largest float
        demo = ROOT / "demos"
        shutil.copy(demo / "tou_tariff.csv", tmp_path)
        ini = (demo / "neighborhood.ini").read_text().replace(
            "span_end = 2039-04-01T00:00", "span_end = 2039-01-08T00:00")
        path = tmp_path / "overflow.ini"
        path.write_text(ini + "\n[baseload]\nmean_daily_kwh = 1e308\nweekend_factor = 1.5\n")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "validation error" in err and "[baseload]" in err and "finite" in err

    @pytest.mark.parametrize("rows, year", [
        (["2035,2", "2035,4"], 2035), (["1999,2", "2037,4"], 1999),
        (["2035,2", "9999,4"], 9999),
    ], ids=["repeated_year", "year_before_2000", "year_9999"])
    def test_curve_no_run_can_sample_exit_1(self, tmp_path, capsys, rows, year):
        # each once passed validate, then failed every experiment of a run
        curve = "\n".join(["year,cumulative_adopters", *rows]) + "\n"
        path = write_scenario(tmp_path, SHORT_INI, curve=curve)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "validation error" in err and "[body]" in err and f"year {year}" in err

    def test_short_csv_row_names_its_line(self, tmp_path, capsys):
        catalog = CATALOG.replace("small,40,3.7,0.6", "small,40")
        assert main(["validate", str(write_scenario(tmp_path, SHORT_INI, catalog))]) == 1
        err = capsys.readouterr().err
        assert "validation error" in err and "[line 2]" in err

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_bad_seed_override_exit_1(self, scenario_path, monkeypatch, capsys, seed):
        monkeypatch.setenv("EVSIM_SEED", seed)
        assert main(["validate", str(scenario_path)]) == 1
        assert "[env]" in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit, where", [
        ("baseload.csv", lambda rows: rows[:1] + [rows[1].rsplit(",", 1)[0] + ",-1"]
         + rows[2:], "baseload"),
        ("spot.csv", lambda rows: rows[:-1], "spot"),
        ("co2.csv", lambda rows: rows[:1] + rows[2:], "co2"),
        ("spot.csv", lambda rows: rows[:2] + [rows[2].replace(",", "+01:00,", 1)]
         + rows[3:], "line 3"),
        ("baseload.csv", lambda rows: rows[:1] + [rows[1].replace(",", ":30,", 1)]
         + rows[2:], "line 2"),
        # household 1's second hour repeats its first
        ("baseload.csv", lambda rows: rows[:5] + [rows[5].replace("T01:00", "T00:00")]
         + rows[6:], "line 6"),
        ("spot.csv", lambda rows: rows[:1], "body"),
        ("baseload.csv", lambda rows: rows[:1], "body"),
    ], ids=["negative_baseload", "spot_ends_before_the_span", "co2_starts_after_it",
            "spot_stamp_with_utc_offset", "baseload_stamp_with_seconds",
            "baseload_repeated_hour", "empty_spot", "empty_baseload"])
    def test_invalid_dataset_names_its_section(self, tmp_path, capsys, name, edit, where):
        # the datasets are checked at load, not when an experiment slices them
        assert main(["gen-synthetic", str(write_scenario(tmp_path, SHORT_INI)),
                     "--out", str(tmp_path / "data")]) == 0
        path = tmp_path / "data" / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        sections = "".join(f"\n[{s}]\nsource = csv\npath = data/{s}.csv\n"
                           for s in ("baseload", "spot", "co2"))
        assert main(["validate", str(write_scenario(tmp_path, SHORT_INI + sections))]) == 1
        err = capsys.readouterr().err
        assert "validation error" in err and f"[{where}]" in err


class TestCoarseTick:
    @pytest.mark.parametrize("tick", [5, 15, 4])
    def test_default_matrix_validates_and_runs(self, tmp_path, tick):
        # no [experiment.*] sections: the strategy defaults round up to a
        # multiple of the tick that divides 60 (15 minutes -> 20 at tick 4)
        ini = SHORT_INI.replace("span_end = 2036-01-08T00:00",
                                f"span_end = 2036-01-03T00:00\ntick_minutes = {tick}")
        path = write_scenario(tmp_path, ini)
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        for exp_id, interval in (("edf", tick), ("round_robin", 20 if tick == 4 else 15)):
            manifest = (out / exp_id / "manifest.txt").read_text()
            assert f"decision_interval_min = {interval}\n" in manifest


class TestSeedEnv:
    def test_env_overrides_scenario_seed(self, scenario_path, monkeypatch, capsys):
        monkeypatch.setenv("EVSIM_SEED", "1234")
        main(["validate", str(scenario_path)])
        assert "seed 1234" in capsys.readouterr().out

    def test_bad_env_seed_exit_1(self, scenario_path, monkeypatch):
        monkeypatch.setenv("EVSIM_SEED", "banana")
        assert main(["validate", str(scenario_path)]) == 1


class TestLogEnv:
    def test_level_name_in_any_case(self, scenario_path, monkeypatch):
        levels = []
        monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
        monkeypatch.setenv("EVSIM_LOG", "debug")
        assert main(["validate", str(scenario_path)]) == 0
        assert levels == ["DEBUG"]

    def test_unknown_level_is_validation_error(self, scenario_path, monkeypatch, capsys):
        monkeypatch.setenv("EVSIM_LOG", "bogus")
        assert main(["validate", str(scenario_path)]) == 1
        err = capsys.readouterr().err
        assert err == "validation error: EVSIM_LOG: [env] unknown logging level 'bogus'\n"


class TestGenSynthetic:
    def test_roundtrip_through_ingestion(self, scenario_path, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["gen-synthetic", str(scenario_path),
                     "--out", str(data_dir)]) == 0
        # feed the emitted CSVs back in as explicit sources
        ini = SHORT_INI + (
            "\n[baseload]\nsource = csv\npath = data/baseload.csv\n"
            "\n[spot]\nsource = csv\npath = data/spot.csv\n"
            "\n[co2]\nsource = csv\npath = data/co2.csv\n")
        path2 = tmp_path / "scenario2.ini"
        path2.write_text(ini)
        sc1 = load_scenario(scenario_path)
        sc2 = load_scenario(path2)
        assert np.allclose(sc1.data.baseload.block(), sc2.data.baseload.block())
        assert np.allclose(sc1.data.spot.values, sc2.data.spot.values)


def rep(lf, year=2036):
    return KpiReport(year, 0, 1.0, 100.0, 10.0, 0, lf, 1000.0)


class TestCompare:
    def test_compare_two_kpi_files(self, tmp_path, capsys):
        write_kpi_csv(tmp_path / "a.csv", "a", [rep(0.252)])
        write_kpi_csv(tmp_path / "b.csv", "b", [rep(0.2048)])
        assert main(["compare", str(tmp_path / "a.csv"),
                     str(tmp_path / "b.csv")]) == 0
        out = capsys.readouterr().out
        assert "2036,load_factor,0.252000,0.204800,23.05" in out.splitlines()
        assert "2036,overload_count,0.000000,0.000000,0.00" in out.splitlines()

    @pytest.mark.parametrize("value, baseline, row", [
        (float("inf"), 0.2048, "2036,load_factor,inf,0.204800,na"),
        (0.252, float("inf"), "2036,load_factor,0.252000,inf,na")])
    def test_non_finite_kpi_compares_as_na(self, tmp_path, capsys, value, baseline,
                                           row):
        write_kpi_csv(tmp_path / "a.csv", "a", [rep(value)])
        write_kpi_csv(tmp_path / "b.csv", "b", [rep(baseline)])
        assert main(["compare", str(tmp_path / "a.csv"),
                     str(tmp_path / "b.csv")]) == 0
        out = capsys.readouterr().out
        assert row in out.splitlines() and "nan" not in out

    def test_na_cell_compares_as_na_and_a_year_without_baseline_is_skipped(
            self, tmp_path, capsys):
        write_kpi_csv(tmp_path / "a.csv", "a", [KpiReport(2036, 0, None, None, None, 0,
                                                          0.25, 1000.0),
                                                KpiReport(2037, 1, 1.0, 100.0, 10.0, 0,
                                                          0.3, 1100.0)])
        write_kpi_csv(tmp_path / "b.csv", "b", [KpiReport(2036, 0, 1.0, 100.0, 10.0, 0,
                                                          0.2, 1000.0)])
        assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "year,metric,value,baseline,pct_difference"
        assert "2036,avg_charging_cost_dkk_per_kwh,na,1.000000,na" in lines
        assert "2036,load_factor,0.250000,0.200000,25.00" in lines
        assert len(lines) == 1 + len(KPI_METRICS)
        assert not any(line.startswith("2037,") for line in lines)

    def test_non_kpi_file_exit_2(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("foo,bar\n1,2\n")
        assert main(["compare", str(p), str(p)]) == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda cells: cells[:7] + ["abc"] + cells[8:], "could not convert"),
        (lambda cells: cells[:-1], "shorter"),
        (lambda cells: cells + ["1"], "longer"),
        (lambda cells: cells[:-1] + ["na"], "could not convert"),
        (lambda cells: cells[:2] + ["1.5"] + cells[3:], "invalid literal for int"),
    ], ids=["bad_figure", "8_cells", "10_cells", "na_revenue", "fractional_count"])
    def test_row_it_could_not_have_written_exit_2(self, tmp_path, capsys, edit, message):
        good = tmp_path / "good.csv"
        write_kpi_csv(good, "a", [rep(0.25), rep(0.3, year=2037)])
        header, first, second = good.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n{first}\n{','.join(edit(second.split(',')))}\n")
        with pytest.raises(ValueError, match=f"bad.csv: line 3: .*{message}"):
            read_kpi_csv(bad)
        assert main(["compare", str(bad), str(good)]) == 2
        assert capsys.readouterr().out == ""

    def test_compare_prints_the_rows_of_comparison_csv(self, tmp_path, capsys):
        ini = SHORT_INI.replace("span_start = 2036-01-01T00:00",
                                "span_start = 2035-12-29T00:00")
        scn = load_scenario(write_scenario(tmp_path, ini))
        spec = next(s for s in scn.experiments if s.id == "edf")
        base_spec = next(s for s in scn.experiments if s.id == spec.baseline_id)
        out, base = run_experiment(spec, scn.data), run_experiment(base_spec, scn.data)
        for s, res, against in ((spec, out, base), (base_spec, base, None)):
            write_all(tmp_path / s.id, res, scn.content_hash,
                      scn.data.transformer.capacity_kw, against)
        kpi_a, kpi_b = tmp_path / spec.id / "kpi.csv", tmp_path / base_spec.id / "kpi.csv"
        assert main(["compare", str(kpi_a), str(kpi_b)]) == 0
        printed = capsys.readouterr().out
        assert printed == "".join(",".join(row) + "\n" for row in comparison_rows(
            read_kpi_csv(kpi_a), read_kpi_csv(kpi_b)))
        with open(tmp_path / spec.id / "comparison.csv", newline="") as fh:
            in_file = [row[:2] for row in csv.reader(fh)]
        assert [line.split(",")[:2] for line in printed.splitlines()] == in_file
        assert {year for year, _ in in_file[1:]} == {"2035", "2036"}


class TestKpiCsvRoundtrip:
    def test_read_back(self, tmp_path):
        written = [KpiReport(2036, 3, 1.349512, 12000.4987, 450.25004, 7, 0.204812,
                             168397.661),
                   KpiReport(2037, 0, None, None, None, 0, None, 0.0)]
        write_kpi_csv(tmp_path / "k.csv", "exp", written)
        back = read_kpi_csv(tmp_path / "k.csv")
        assert back == [KpiReport(2036, 3, 1.3495, 12000.50, 450.2500, 7, 0.2048, 168397.66),
                        written[1]]
        assert [type(v) for v in vars(back[0]).values()] == [int, int, float, float, float,
                                                             int, float, float]


class TestLoadCsv:
    @pytest.mark.parametrize("resolution", [1, 15, 60])
    def test_bytes_match_row_by_row_csv_writer(self, tmp_path, resolution):
        # across a year boundary and several write blocks, with negative zero
        # and large values
        start = Timestamp.from_iso("2036-12-31T22:00")
        values = np.random.default_rng(resolution).normal(100.0, 300.0, 2500)
        values[:3] = (-0.0, 0.0, 1e7 / 3)
        series = LoadSeries(start, resolution, values)
        write_load_csv(tmp_path / "fast.csv", series, "dkk_per_kwh")
        with open(tmp_path / "rows.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["timestamp_iso8601", "dkk_per_kwh"])
            for i, v in enumerate(values):
                w.writerow([Timestamp(series.minute_of(i)).isoformat(), f"{v:.6f}"])
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_stamps_across_a_leap_day(self, tmp_path):
        # Feb 28 -> Feb 29 -> Mar 1 of a leap year, minute by minute
        start = Timestamp.from_iso("2036-02-28T12:00")
        series = LoadSeries(start, 1, np.arange(3 * 24 * 60, dtype=float))
        write_load_csv(tmp_path / "fast.csv", series)
        rows = [[Timestamp(series.minute_of(i)).isoformat(), f"{v:.6f}"]
                for i, v in enumerate(series.values)]
        assert rows[720][0] == "2036-02-29T00:00" and rows[2160][0] == "2036-03-01T00:00"
        assert (tmp_path / "fast.csv").read_bytes() == _row_by_row(
            tmp_path / "rows.csv", ["timestamp_iso8601", "load_kw"], rows)


def _row_by_row(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


# empty, one row, and either side of the 256-row write blocks
BLOCK_LENGTHS = [0, 1, 255, 256, 257, 700]


class TestBatchedRowWriters:
    """The row writers format a block of rows at a time; their bytes are the
    row-by-row csv.writer's."""

    @staticmethod
    def stamps(n, seed):
        # minutes across a year boundary
        start = Timestamp.from_iso("2036-12-31T20:00").minutes
        minutes = start + np.random.default_rng(seed).integers(0, 600, n)
        return [Timestamp(int(m)) for m in minutes]

    @staticmethod
    def floats(n, seed):
        values = np.random.default_rng(seed).normal(10.0, 3e4, n)
        values[:3] = (-0.0, 0.0, 1e7 / 3)[:n]
        return values.tolist()

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_sessions(self, tmp_path, n):
        plug, unplug = self.stamps(n, 1), self.stamps(n, 2)
        sessions = [ChargeSession(vid, a, b, kwh) for vid, a, b, kwh
                    in zip(range(1000, 1000 + n), plug, unplug, self.floats(n, 3))]
        write_sessions_csv(tmp_path / "fast.csv",
                           SimpleNamespace(sessions=Sessions.of(sessions)))
        want = _row_by_row(
            tmp_path / "rows.csv",
            ["vehicle_id", "plug_in_iso8601", "unplug_iso8601", "delivered_kwh"],
            [[s.vehicle_id, s.plug_in.isoformat(), s.unplug.isoformat(),
              f"{s.delivered_kwh:.6f}"] for s in sessions])
        assert (tmp_path / "fast.csv").read_bytes() == want

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_dissatisfactions(self, tmp_path, n):
        events = list(zip(self.stamps(n, 4), range(n)))
        write_dissatisfactions_csv(tmp_path / "fast.csv",
                                   SimpleNamespace(dissatisfactions=events))
        want = _row_by_row(tmp_path / "rows.csv", ["timestamp_iso8601", "vehicle_id"],
                           [[t.isoformat(), vid] for t, vid in events])
        assert (tmp_path / "fast.csv").read_bytes() == want

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_overloads(self, tmp_path, n):
        events = [OverloadEvent(t, 15 * k, kw) for k, (t, kw)
                  in enumerate(zip(self.stamps(n, 5), self.floats(n, 6)))]
        write_overloads_csv(tmp_path / "fast.csv", SimpleNamespace(overload_events=events))
        want = _row_by_row(
            tmp_path / "rows.csv", ["start_iso8601", "duration_minutes", "peak_excess_kw"],
            [[e.start.isoformat(), e.duration_minutes, f"{e.peak_excess_kw:.4f}"]
             for e in events])
        assert (tmp_path / "fast.csv").read_bytes() == want

    @pytest.mark.parametrize("form, households, hours", [
        *(("matrix", h, n) for h, n in [(1, 0), (1, 1), (5, 51), (1, 256), (257, 1)]),
        # the factors hold whole days: 0, 24, 240 and 264 rows
        *(("daily", h, 24) for h in (0, 1, 10, 11)),
        # across the first 744-hour block of each form
        ("matrix", 2, 31 * 24 + 1), ("daily", 2, 32 * 24),
    ])
    def test_baseload(self, tmp_path, monkeypatch, form, households, hours):
        rng = np.random.default_rng(hours)
        columns = hours if form == "matrix" else hours // 24
        values = rng.uniform(0.0, 30.0, (households, columns))
        values.flat[:3] = (-0.0, 0.0, 1e7 / 3)[:values.size]
        kwargs = {"matrix": values} if form == "matrix" else \
            {"daily": values, "weights": rng.uniform(0.0, 0.2, 24)}
        ids = rng.permutation(10 * households + 1)[:households].tolist()
        # from the year's last evening into the next year
        baseload = HouseholdBaseload(Timestamp.from_iso("2036-12-31T20:00"), ids, **kwargs)
        want = _row_by_row(
            tmp_path / "rows.csv", ["timestamp_iso8601", "household_id", "load_kw"],
            [[Timestamp(baseload.start.minutes + 60 * h).isoformat(), hid, f"{kw:.6f}"]
             for h, loads in enumerate(baseload.block().T) for hid, kw in zip(ids, loads)])
        widths = []
        block = HouseholdBaseload.block

        def recording(self, lo=0, hi=None, buffer=None):
            out = block(self, lo, hi, buffer)
            widths.append(out.shape[1])
            return out
        monkeypatch.setattr(HouseholdBaseload, "block", recording)
        write_baseload_csv(tmp_path / "fast.csv", baseload)
        assert (tmp_path / "fast.csv").read_bytes() == want
        assert max(widths, default=0) <= 31 * 24     # read a block at a time

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 3000])
    def test_polyline_points(self, n):
        rng = np.random.default_rng(n)
        xs = rng.uniform(-2e4, 2e4, n)
        ys = rng.normal(0.0, 5e4, n)
        if n:
            xs[0], ys[0] = -0.0, 12345.675
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        assert _polyline(xs, ys) == \
            f'<polyline fill="none" stroke="#1f6fb2" stroke-width="1.0" points="{pts}"/>'


class TestSvg:
    def test_svg_documents_well_formed(self):
        import xml.etree.ElementTree as ET
        docs = [
            load_profile_svg(np.linspace(100, 420, 500), 400.0, "title"),
            day_zoom_svg(np.full(1440, 390.0), np.full(1440, 350.0), 400.0,
                         "a", "b", "day"),
            bar_chart_svg([3, 5], "bars"),
            bar_chart_svg([], "empty"),
        ]
        for doc in docs:
            root = ET.fromstring(doc)
            assert root.tag.endswith("svg")
