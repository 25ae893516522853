"""Correctness checks applied to every experiment a benchmark run executes.

Each check returns a list of problems; an experiment with any problem, or
one that raised, counts as failed. The checks are:

* reference KPIs: at the reference seed, every KPI of every experiment and
  year matches the stored reference. Integer KPIs must be equal; float KPIs
  may differ by a relative ``FLOAT_RTOL``, which admits accumulation-order
  drift of about 1e-9 kWh but not a change to the physics;
* written ``kpi.csv``: the file an experiment wrote holds the same values as
  its in-memory reports, to the printed precision;
* energy conservation per vehicle: initial + delivered - trip drain = final
  state of charge, within ``CONSERVATION_KWH``;
* capacity safety: coordinated strategies never overload;
* determinism: the KPI digest is identical across repetitions at one seed
  (compared by the caller, which sees every repetition).
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9
CONSERVATION_KWH = 1e-6

# Column order of evsim's kpi.csv; the reference files use the same header.
KPI_COLUMNS = ["experiment_id", "year", "overload_count", "avg_charging_cost",
               "avg_total_bill", "avg_total_co2", "dissatisfaction",
               "load_factor", "dso_revenue"]
INT_COLUMNS = {"year", "overload_count", "dissatisfaction"}


def kpi_rows(exp_id: str, reports) -> list[list[str]]:
    """Full-precision KPI rows of one experiment, as strings (repr floats)."""
    def text(v):
        return "na" if v is None else repr(float(v))
    return [[exp_id, str(r.year), str(r.overload_count),
             text(r.avg_charging_cost_dkk_per_kwh), text(r.avg_total_bill_dkk),
             text(r.avg_total_co2_kg), str(r.dissatisfaction_count),
             text(r.load_factor), text(r.dso_revenue_dkk)] for r in reports]


def digest(rows: list[list[str]], files: list[Path] = ()) -> str:
    """sha256 over KPI rows and the bytes of written files, in order."""
    h = hashlib.sha256()
    for row in rows:
        h.update(",".join(row).encode() + b"\n")
    for f in files:
        h.update(f.read_bytes())
    return h.hexdigest()


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != KPI_COLUMNS:
        raise ValueError(f"{path}: header is not {','.join(KPI_COLUMNS)}")
    return rows[1:]


def write_rows(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(KPI_COLUMNS)
        w.writerows(rows)


def _printed_tolerance(text: str) -> float:
    """Half a unit in the last printed decimal place."""
    decimals = len(text.split(".", 1)[1]) if "." in text else 0
    return 0.5 * 10.0 ** -decimals


def compare_rows(actual: list[list[str]], expected: list[list[str]],
                 rounded: bool = False) -> list[str]:
    """Differences between two KPI tables keyed by (experiment, year).

    With ``rounded`` the actual values were printed to a fixed number of
    decimals, so each may also differ by half a unit in its last place.
    """
    problems = []
    want = {(r[0], r[1]): r for r in expected}
    got = {(r[0], r[1]): r for r in actual}
    if want.keys() != got.keys():
        problems.append(f"rows {sorted(got)} != expected {sorted(want)}")
    for key in sorted(want.keys() & got.keys()):
        for col, a, e in zip(KPI_COLUMNS[2:], got[key][2:], want[key][2:]):
            if col in INT_COLUMNS or "na" in (a, e):
                ok = a == e
            else:
                atol = FLOAT_ATOL + (_printed_tolerance(a) if rounded else 0.0)
                ok = math.isclose(float(a), float(e), rel_tol=FLOAT_RTOL,
                                  abs_tol=atol)
            if not ok:
                problems.append(f"{key[0]} {key[1]} {col}: {a} != {e}")
    return problems


def conservation_problems(exp_id: str, vehicles) -> list[str]:
    """Vehicles whose state-of-charge ledger does not balance."""
    out = []
    for v in vehicles:
        residual = (v.initial_soc_kwh + v.delivered_kwh - v.trip_drain_kwh
                    - v.final_soc_kwh)
        if not abs(residual) <= CONSERVATION_KWH:
            out.append(f"{exp_id} vehicle {v.vehicle_id}: energy residual "
                       f"{residual:.3g} kWh")
    return out


def overload_problems(exp_id: str, strategy: str, reports) -> list[str]:
    """A coordinated strategy that overloaded the transformer."""
    if strategy == "traditional":
        return []
    return [f"{exp_id} {r.year}: {r.overload_count} overloads under {strategy}"
            for r in reports if r.overload_count != 0]
