"""Golden regression: the SHORT_INI scenario (4 households, one week, one
experiment per strategy) must reproduce the committed KPI tables, baseline
comparisons and per-vehicle delivered energy.

After a deliberate change of behaviour, regenerate the fixtures with
``PYTHONPATH=src python tests/test_golden.py`` and record why in CHANGES.md.
"""

import csv
import tempfile
from pathlib import Path

import pytest

from evsim.engine import run_experiment
from evsim.outputs import write_all
from evsim.scenario import load_scenario

from test_outputs_cli import SHORT_INI
from test_scenario import write_scenario

GOLDEN = Path(__file__).parent / "golden"
DELIVERED_TOL_KWH = 1e-9


def write_fixtures(work: Path, dest: Path) -> None:
    """Run every SHORT_INI experiment in `work` and copy its fixtures to `dest`."""
    work.mkdir(parents=True, exist_ok=True)
    scn = load_scenario(write_scenario(work, SHORT_INI))
    results = {s.id: run_experiment(s, scn.data) for s in scn.experiments}
    dest.mkdir(parents=True, exist_ok=True)
    for s in scn.experiments:
        out_dir = work / "out" / s.id
        write_all(out_dir, results[s.id], scn.content_hash,
                  scn.data.transformer.capacity_kw, results.get(s.baseline_id))
        for name in ("kpi.csv", "comparison.csv"):
            if (out_dir / name).exists():
                (dest / f"{s.id}_{name}").write_bytes((out_dir / name).read_bytes())
    with open(dest / "delivered_kwh.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["experiment_id", "vehicle_id", "delivered_kwh"])
        for exp_id, out in results.items():
            for v in out.vehicles:
                w.writerow([exp_id, v.vehicle_id, repr(v.delivered_kwh)])


def _delivered(path: Path) -> dict[tuple[str, str], float]:
    with open(path, newline="") as fh:
        return {(r["experiment_id"], r["vehicle_id"]): float(r["delivered_kwh"])
                for r in csv.DictReader(fh)}


def test_short_scenario_matches_golden(tmp_path):
    actual = tmp_path / "golden"
    write_fixtures(tmp_path / "run", actual)
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in actual.iterdir()) == names
    for name in names:
        if name == "delivered_kwh.csv":
            continue
        assert (actual / name).read_text() == (GOLDEN / name).read_text(), name
    want = _delivered(GOLDEN / "delivered_kwh.csv")
    got = _delivered(actual / "delivered_kwh.csv")
    assert got.keys() == want.keys()
    for key, kwh in want.items():
        assert got[key] == pytest.approx(kwh, rel=0, abs=DELIVERED_TOL_KWH), key


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(Path(tmp), GOLDEN)
    print(f"wrote {GOLDEN}")
