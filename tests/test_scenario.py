import numpy as np
import pytest

from evsim.fleet import DrivingPattern
from evsim.rng import RngStreams
from evsim.scenario import (Scenario, ScenarioError, load_scenario,
                            read_adoption_curve_csv, read_baseload_csv,
                            read_catalog_csv, read_hourly_series_csv)
from evsim.synth import (SyntheticBaseloadSpec, SyntheticCo2Spec, SyntheticPriceSpec,
                         generate_baseload, generate_co2, generate_spot)

CATALOG = """\
name,battery_kwh,max_rate_kw,market_share
small,40,3.7,0.6
large,60,11,0.4
"""

CURVE = """\
year,cumulative_adopters
2035,2
2037,4
"""

BASE_INI = """\
[scenario]
households = 4
seed = 11
span_start = 2036-01-01T00:00
span_end = 2036-02-01T00:00

[transformer]
capacity_kw = 400
buffer_kw = 10

[catalog]
path = catalog.csv

[adoption]
path = curve.csv
"""


def write_scenario(tmp_path, ini=BASE_INI, catalog=CATALOG, curve=CURVE):
    (tmp_path / "catalog.csv").write_text(catalog)
    (tmp_path / "curve.csv").write_text(curve)
    p = tmp_path / "scenario.ini"
    p.write_text(ini)
    return p


class TestLoadScenario:
    def test_minimal_synthetic_scenario(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path))
        assert isinstance(sc, Scenario)
        assert sc.seed == 11
        assert sc.data.transformer.capacity_kw == 400
        assert sc.data.baseload.block().shape == (4, 31 * 24)
        assert len(sc.data.spot.values) == 31 * 24
        # default experiment matrix: one per strategy, traditional baseline
        assert [e.id for e in sc.experiments] == \
            ["traditional", "round_robin", "fcfs", "equal_charge", "edf"]
        assert sc.experiment("edf").baseline_id == "traditional"
        assert sc.experiment("traditional").baseline_id is None
        with pytest.raises(KeyError):
            sc.experiment("absent")
        assert len(sc.content_hash) == 64

    def test_seed_override(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path), seed_override=99)
        assert sc.seed == 99
        assert sc.experiments[0].seed == 99

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_bad_seed_override_rejected(self, tmp_path, seed):
        with pytest.raises(ScenarioError, match="64 unsigned bits") as err:
            load_scenario(write_scenario(tmp_path), seed_override=seed)
        assert err.value.where == "seed_override"

    def test_omitted_keys_take_the_dataclass_defaults(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path))
        assert sc.data.driving == DrivingPattern()
        streams = RngStreams(sc.seed)
        assert np.array_equal(sc.data.baseload.block(), generate_baseload(
            SyntheticBaseloadSpec(), list(sc.data.household_ids), sc.span, streams).block())
        assert np.array_equal(sc.data.spot.values,
                              generate_spot(SyntheticPriceSpec(), sc.span, streams).values)
        assert np.array_equal(sc.data.co2.values,
                              generate_co2(SyntheticCo2Spec(), sc.span, streams).values)

    def test_explicit_experiments(self, tmp_path):
        ini = BASE_INI + """
[experiment.base]
strategy = traditional

[experiment.rr30]
strategy = round_robin
decision_interval_min = 30
baseline = base
"""
        sc = load_scenario(write_scenario(tmp_path, ini))
        assert [e.id for e in sc.experiments] == ["base", "rr30"]
        assert sc.experiment("rr30").interval == 30
        assert sc.experiment("rr30").baseline_id == "base"

    def test_interval_not_a_multiple_of_the_tick_rejected(self, tmp_path):
        ini = BASE_INI.replace("span_end = 2036-02-01T00:00",
                               "span_end = 2036-02-01T00:00\ntick_minutes = 5") \
            + "\n[experiment.a]\nstrategy = edf\ndecision_interval_min = 7\n"
        with pytest.raises(ScenarioError, match="decision_interval_min"):
            load_scenario(write_scenario(tmp_path, ini))

    def test_interval_not_dividing_the_hour_rejected(self, tmp_path):
        ini = BASE_INI + "\n[experiment.a]\nstrategy = edf\ndecision_interval_min = 45\n"
        with pytest.raises(ScenarioError, match="decision_interval_min must divide 60"):
            load_scenario(write_scenario(tmp_path, ini))

    def test_unknown_baseline_rejected(self, tmp_path):
        ini = BASE_INI + "\n[experiment.a]\nstrategy = edf\nbaseline = nope\n"
        with pytest.raises(ScenarioError, match="baseline"):
            load_scenario(write_scenario(tmp_path, ini))

    def test_tou_experiment_without_tou_tariff(self, tmp_path):
        ini = BASE_INI + "\n[experiment.a]\nstrategy = edf\ntariff_mode = time_of_use\n"
        with pytest.raises(ScenarioError, match="time_of_use"):
            load_scenario(write_scenario(tmp_path, ini))

    def test_tou_tariff_loaded(self, tmp_path):
        (tmp_path / "tou.csv").write_text(
            "season,start_hour,end_hour,dkk_per_kwh\n"
            "all,0,17,0.2\nall,17,20,1.0\nall,20,24,0.2\n")
        ini = BASE_INI + "\n[tariff]\ntou_path = tou.csv\n" \
            "\n[experiment.a]\nstrategy = edf\ntariff_mode = time_of_use\n"
        sc = load_scenario(write_scenario(tmp_path, ini))
        assert "time_of_use" in sc.data.tariffs

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.ini")

    def test_missing_required_key(self, tmp_path):
        ini = BASE_INI.replace("households = 4\n", "")
        with pytest.raises(ScenarioError, match="households"):
            load_scenario(write_scenario(tmp_path, ini))

    def test_curve_exceeding_households(self, tmp_path):
        curve = "year,cumulative_adopters\n2035,50\n"
        with pytest.raises(ScenarioError, match="household"):
            load_scenario(write_scenario(tmp_path, curve=curve))

    def test_bad_market_shares(self, tmp_path):
        catalog = CATALOG.replace("0.4", "0.3")
        with pytest.raises(ScenarioError, match="share"):
            load_scenario(write_scenario(tmp_path, catalog=catalog))

    def test_synthetic_and_path_mutually_exclusive(self, tmp_path):
        # only a csv source reads path, so the unread-key rule rejects it
        ini = BASE_INI + "\n[spot]\npath = spot.csv\n"
        with pytest.raises(ScenarioError, match=r"\[spot\.path\] nothing reads this key"):
            load_scenario(write_scenario(tmp_path, ini))

    def test_experiment_span_outside_scenario(self, tmp_path):
        ini = BASE_INI + ("\n[experiment.a]\nstrategy = edf\n"
                          "span_start = 2035-12-01T00:00\n"
                          "span_end = 2036-01-15T00:00\n")
        with pytest.raises(ScenarioError, match="within"):
            load_scenario(write_scenario(tmp_path, ini))

    def test_defaults_used_without_catalog_section(self, tmp_path):
        ini = BASE_INI.replace("households = 4", "households = 200")
        ini = "\n".join(l for l in ini.splitlines()
                        if "catalog" not in l and "curve" not in l
                        and l != "[adoption]")
        sc = load_scenario(write_scenario(tmp_path, ini))
        assert len(sc.data.catalog) == 5
        assert sc.data.adoption_curve.final_value == 126

    def test_structured_error_fields(self, tmp_path):
        ini = BASE_INI.replace("capacity_kw = 400", "capacity_kw = lots")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(write_scenario(tmp_path, ini))
        assert exc.value.where == "transformer.capacity_kw"
        assert "scenario.ini" in exc.value.file


class TestCsvReaders:
    def test_hourly_series_roundtrip(self, tmp_path):
        p = tmp_path / "spot.csv"
        p.write_text("timestamp_iso8601,dkk_per_kwh\n"
                     "2036-01-01T00:00,1.5\n2036-01-01T01:00,0.8\n")
        start, values = read_hourly_series_csv(p, "dkk_per_kwh")
        assert start.isoformat() == "2036-01-01T00:00"
        assert list(values) == [1.5, 0.8]

    def test_hourly_series_gap_rejected(self, tmp_path):
        p = tmp_path / "spot.csv"
        p.write_text("timestamp_iso8601,dkk_per_kwh\n"
                     "2036-01-01T00:00,1.5\n2036-01-01T02:00,0.8\n")
        with pytest.raises(ScenarioError, match="gap"):
            read_hourly_series_csv(p, "dkk_per_kwh")

    def test_hourly_series_wrong_header(self, tmp_path):
        p = tmp_path / "spot.csv"
        p.write_text("time,price\n2036-01-01T00:00,1.5\n")
        with pytest.raises(ScenarioError, match="header"):
            read_hourly_series_csv(p, "dkk_per_kwh")

    def test_baseload_long_form(self, tmp_path):
        p = tmp_path / "base.csv"
        p.write_text("timestamp_iso8601,household_id,load_kw\n"
                     "2036-01-01T00:00,1,0.5\n2036-01-01T00:00,2,0.7\n"
                     "2036-01-01T01:00,1,0.6\n2036-01-01T01:00,2,0.8\n")
        bl = read_baseload_csv(p, [1, 2])
        assert bl.block().shape == (2, 2)
        assert bl.block()[1, 1] == 0.8

    def test_baseload_unknown_household(self, tmp_path):
        p = tmp_path / "base.csv"
        p.write_text("timestamp_iso8601,household_id,load_kw\n"
                     "2036-01-01T00:00,9,0.5\n")
        with pytest.raises(ScenarioError, match="unknown household"):
            read_baseload_csv(p, [1])

    def test_baseload_ragged_lengths(self, tmp_path):
        p = tmp_path / "base.csv"
        p.write_text("timestamp_iso8601,household_id,load_kw\n"
                     "2036-01-01T00:00,1,0.5\n2036-01-01T00:00,2,0.7\n"
                     "2036-01-01T01:00,1,0.6\n")
        with pytest.raises(ScenarioError, match="differing"):
            read_baseload_csv(p, [1, 2])

    def test_catalog_reader(self, tmp_path):
        p = tmp_path / "catalog.csv"
        p.write_text(CATALOG)
        models = read_catalog_csv(p)
        assert [m.name for m in models] == ["small", "large"]

    def test_curve_non_monotone_rejected(self, tmp_path):
        p = tmp_path / "curve.csv"
        p.write_text("year,cumulative_adopters\n2035,5\n2036,3\n")
        with pytest.raises(ScenarioError):
            read_adoption_curve_csv(p)

    def test_curve_negative_count_rejected(self, tmp_path):
        p = tmp_path / "curve.csv"
        p.write_text("year,cumulative_adopters\n2030,-1\n2035,5\n")
        with pytest.raises(ScenarioError, match=r"\[body\].*count of 2030"):
            read_adoption_curve_csv(p)


def test_scenario_runs_end_to_end(tmp_path):
    from evsim.engine import run_experiment
    sc = load_scenario(write_scenario(tmp_path))
    out = run_experiment(sc.experiment("round_robin"), sc.data)
    assert len(out.load.values) == 31 * 24 * 60
    assert len(out.reports) == 1
    assert out.reports[0].year == 2036
