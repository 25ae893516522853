"""Golden regression: two scenarios must reproduce their committed fixtures.

- ``SHORT_INI`` (4 households, one week, one experiment per strategy): the KPI
  tables, baseline comparisons and per-vehicle delivered energy.
- ``golden/binding/binding.ini`` (28 households, 20 +- 6 kWh trips, two weeks
  behind a transformer that binds, so the strategies differ): each
  experiment's KPI table and dissatisfactions, and the sha256 of every file
  it writes (its CSVs, manifest and plots), so the output bytes are pinned.

After a deliberate change of behaviour, regenerate the fixtures with
``PYTHONPATH=src python tests/test_golden.py`` and record why in CHANGES.md.
"""

import csv
import hashlib
import tempfile
from pathlib import Path

import pytest

from evsim.engine import run_experiment
from evsim.outputs import write_all
from evsim.scenario import load_scenario

from test_outputs_cli import SHORT_INI
from test_scenario import write_scenario

GOLDEN = Path(__file__).parent / "golden"
BINDING = GOLDEN / "binding"
BINDING_INPUTS = ("binding.ini", "adoption_curve.csv")
DELIVERED_TOL_KWH = 1e-9


def _run_all(scenario: Path, out: Path):
    """Every experiment of the scenario, each written to `out`/<id>."""
    scn = load_scenario(scenario)
    results = {s.id: run_experiment(s, scn.data) for s in scn.experiments}
    for s in scn.experiments:
        write_all(out / s.id, results[s.id], scn.content_hash,
                  scn.data.transformer.capacity_kw, results.get(s.baseline_id))
    return scn, results


def write_short_fixtures(work: Path, dest: Path) -> None:
    """Run every SHORT_INI experiment in `work` and write its fixtures to `dest`."""
    work.mkdir(parents=True, exist_ok=True)
    scn, results = _run_all(write_scenario(work, SHORT_INI), work / "out")
    dest.mkdir(parents=True, exist_ok=True)
    for s in scn.experiments:
        for name in ("kpi.csv", "comparison.csv"):
            if (work / "out" / s.id / name).exists():
                (dest / f"{s.id}_{name}").write_bytes((work / "out" / s.id / name).read_bytes())
    with open(dest / "delivered_kwh.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["experiment_id", "vehicle_id", "delivered_kwh"])
        for exp_id, out in results.items():
            for v in out.vehicles:
                w.writerow([exp_id, v.vehicle_id, repr(v.delivered_kwh)])


def write_binding_fixtures(work: Path, dest: Path) -> None:
    """Run every binding experiment in `work` and write its fixtures to `dest`."""
    scn, _ = _run_all(BINDING / "binding.ini", work)
    dest.mkdir(parents=True, exist_ok=True)
    digests = []
    for s in scn.experiments:
        for name in ("kpi.csv", "dissatisfactions.csv"):
            (dest / f"{s.id}_{name}").write_bytes((work / s.id / name).read_bytes())
        for path in sorted((work / s.id).iterdir()):
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            digests.append(f"{sha}  {s.id}/{path.name}\n")
    (dest / "outputs.sha256").write_text("".join(digests))


def _fixtures(directory: Path) -> list[str]:
    """The names of the fixture files in `directory`, not the binding inputs."""
    return sorted(p.name for p in directory.iterdir()
                  if p.is_file() and p.name not in BINDING_INPUTS)


def _delivered(path: Path) -> dict[tuple[str, str], float]:
    with open(path, newline="") as fh:
        return {(r["experiment_id"], r["vehicle_id"]): float(r["delivered_kwh"])
                for r in csv.DictReader(fh)}


def test_short_scenario_matches_golden(tmp_path):
    actual = tmp_path / "golden"
    write_short_fixtures(tmp_path / "run", actual)
    names = _fixtures(GOLDEN)
    assert _fixtures(actual) == names
    for name in names:
        if name == "delivered_kwh.csv":
            continue
        assert (actual / name).read_text() == (GOLDEN / name).read_text(), name
    want = _delivered(GOLDEN / "delivered_kwh.csv")
    got = _delivered(actual / "delivered_kwh.csv")
    assert got.keys() == want.keys()
    for key, kwh in want.items():
        assert got[key] == pytest.approx(kwh, rel=0, abs=DELIVERED_TOL_KWH), key


def test_binding_scenario_matches_golden(tmp_path):
    actual = tmp_path / "binding"
    write_binding_fixtures(tmp_path / "run", actual)
    names = _fixtures(BINDING)
    assert _fixtures(actual) == names
    for name in names:
        assert (actual / name).read_text() == (BINDING / name).read_text(), name


def test_binding_fixture_binds():
    """The binding scenario is in the regime it is there for: traditional
    overloads and some coordinated strategy leaves users unsatisfied."""
    kpi = {}
    for path in BINDING.glob("*_kpi.csv"):
        with open(path, newline="") as fh:
            (row,) = csv.DictReader(fh)
        kpi[row["experiment_id"]] = row
    assert sorted(kpi) == ["edf", "equal_charge", "fcfs", "round_robin", "traditional"]
    assert int(kpi["traditional"]["overload_count"]) > 0
    assert any(int(r["dissatisfaction"]) > 0 for r in kpi.values())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_short_fixtures(Path(tmp) / "short", GOLDEN)
        write_binding_fixtures(Path(tmp) / "binding", BINDING)
    print(f"wrote {GOLDEN}")
