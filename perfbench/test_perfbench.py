"""Self-checks of the benchmark's correctness checks: they must bite.

    PYTHONPATH=src python3 -m pytest perfbench

Each test runs a two-day copy of the demo matrix (or one experiment of it)
through worker.run_workload, corrupts one result, and expects the affected
experiment to be counted as failed.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import worker  # noqa: E402

import evsim.cli  # noqa: E402
import evsim.engine  # noqa: E402
import evsim.outputs  # noqa: E402
import evsim.scenario  # noqa: E402

SEED = 2039


@pytest.fixture
def scenario(tmp_path, monkeypatch):
    """A two-day demo matrix; evsim attributes the worker wraps are restored."""
    for module, attr in ((evsim.cli, "load_scenario"), (evsim.cli, "run_experiment"),
                         (evsim.scenario, "load_scenario"),
                         (evsim.engine, "simulate"), (evsim.outputs, "write_kpi_csv")):
        monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.setenv("EVSIM_SEED", str(SEED))
    shutil.copy(HERE / "scenarios" / "tou_tariff.csv", tmp_path)
    text = (HERE / "scenarios" / "demo_matrix.ini").read_text()
    path = tmp_path / "small.ini"
    path.write_text(text.replace("span_end = 2039-01-08T00:00",
                                 "span_end = 2039-01-03T00:00"))
    return path


def _run(path: Path, experiment=None, reference=None) -> dict:
    return worker.run_workload(path, experiment, SEED, path.parent / "out",
                               reference=reference)


def test_clean_run_passes_and_is_deterministic(scenario, monkeypatch):
    first = _run(scenario)
    assert first["experiments"] == 10
    assert first["failed"] == 0, first["problems"]
    again = _run(scenario, reference=first["kpi_rows"])
    assert again["failed"] == 0, again["problems"]
    assert again["digest"] == first["digest"]


def test_corrupted_kpi_csv_counts_as_failed(scenario, monkeypatch):
    write = evsim.outputs.write_kpi_csv

    def corrupt(path, experiment_id, reports):
        write(path, experiment_id, reports)
        if experiment_id == "edf_fixed":
            rows = checks.read_rows(path)
            rows[0][8] = f"{float(rows[0][8]) * 1.001:.2f}"     # dso_revenue
            checks.write_rows(path, rows)
    monkeypatch.setattr(evsim.outputs, "write_kpi_csv", corrupt)
    result = _run(scenario)
    assert result["failed"] == 1
    assert any("edf_fixed" in p and "dso_revenue" in p for p in result["problems"])


def test_reference_mismatch_counts_as_failed(scenario):
    reference = _run(scenario, "edf_tou")["kpi_rows"]
    drifted = [row[:] for row in reference]
    drifted[0][3] = repr(float(drifted[0][3]) * (1 + 1e-9))   # passes
    assert _run(scenario, "edf_tou", reference=drifted)["failed"] == 0
    drifted[0][3] = repr(float(drifted[0][3]) * (1 + 1e-5))   # fails
    assert _run(scenario, "edf_tou", reference=drifted)["failed"] == 1
    wrong_count = [row[:] for row in reference]
    wrong_count[0][6] = str(int(wrong_count[0][6]) + 1)        # dissatisfaction
    assert _run(scenario, "edf_tou", reference=wrong_count)["failed"] == 1


@pytest.mark.parametrize("breakage, message", [("conservation", "energy residual"),
                                               ("overload", "overloads under edf")])
def test_broken_invariant_counts_as_failed(scenario, monkeypatch, breakage, message):
    simulate = evsim.engine.simulate

    def broken(spec, data, plans, *args, **kwargs):
        out = simulate(spec, data, plans, *args, **kwargs)
        if breakage == "conservation":
            out.vehicles[0].final_soc_kwh += 1e-3
        else:
            out.reports[0].overload_count += 1
        return out
    monkeypatch.setattr(evsim.engine, "simulate", broken)
    result = _run(scenario, "edf_tou")
    assert result["failed"] == 1
    assert any(message in p for p in result["problems"])


def test_raised_experiment_counts_as_failed(scenario, monkeypatch):
    simulate = evsim.engine.simulate

    def flaky(spec, *args, **kwargs):
        if spec.id == "rr_tou":
            raise RuntimeError("boom")
        return simulate(spec, *args, **kwargs)
    monkeypatch.setattr(evsim.engine, "simulate", flaky)
    result = _run(scenario)
    assert result["experiments"] == 10
    assert result["failed"] == 1
    assert any("rr_tou raised" in p for p in result["problems"])
