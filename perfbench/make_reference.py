"""Regenerate reference/<workload>.csv: full-precision KPIs at the reference seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run only after a deliberate change to the simulated behaviour, and record
why in the change that commits the new files.
"""

from __future__ import annotations

import sys

import checks
from run import HERE, REFERENCE_SEED, WORK, run_worker
from worker import WORKLOADS


def main(names: list[str]) -> int:
    for workload in names or WORKLOADS:
        result = run_worker("run", workload, REFERENCE_SEED, "--out",
                         str(WORK / "out" / workload))
        if result["failed"] or result["problems"]:
            print(f"{workload}: checks failed: {result['problems']}",
                  file=sys.stderr)
            return 1
        path = HERE / "reference" / f"{workload}.csv"
        checks.write_rows(path, result["kpi_rows"])
        print(f"{workload}: {len(result['kpi_rows'])} rows -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
