"""Command-line entry point: run, validate, gen-synthetic, compare.

Exit codes: 0 ok, 1 validation error, 2 runtime error.
EVSIM_SEED overrides the scenario seed. EVSIM_LOG sets the logging level by
name, in any case (default WARNING).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import outputs
from .engine import SimulationOutput, run_experiment
from .grid import LoadSeries
from .rng import parse_seed
from .scenario import Scenario, ScenarioError, load_scenario

log = logging.getLogger("evsim")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="evsim",
                                description="EV home-charging grid simulator")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run scenario experiments")
    run.add_argument("scenario")
    run.add_argument("--experiment", action="append", default=None,
                     metavar="ID", help="run only these experiment ids")
    run.add_argument("--out", default="out", metavar="DIR")
    run.add_argument("--parallel", type=_positive_int, default=1, metavar="N",
                     help="worker processes, at most one per physics pass")

    val = sub.add_parser("validate", help="validate a scenario file")
    val.add_argument("scenario")

    gen = sub.add_parser("gen-synthetic",
                         help="write the scenario's synthetic datasets as CSV")
    gen.add_argument("scenario")
    gen.add_argument("--out", required=True, metavar="DIR")

    cmp_ = sub.add_parser("compare", help="percentage-difference table of two KPI CSVs")
    cmp_.add_argument("kpi_a")
    cmp_.add_argument("kpi_b")
    return p


def _seed_override() -> int | None:
    raw = os.environ.get("EVSIM_SEED")
    if raw is None:
        return None
    try:
        return parse_seed(raw)
    except ValueError as exc:
        raise ScenarioError("EVSIM_SEED", "env", f"bad value {raw!r}: {exc}")


def _load(path: str) -> Scenario:
    return load_scenario(path, seed_override=_seed_override())


def _run_specs(specs, data) -> dict[str, SimulationOutput | Exception]:
    """Each experiment's output, or the exception it raised: one failure must
    not sink the rest."""
    ran: dict[str, SimulationOutput | Exception] = {}
    for s in specs:
        try:
            ran[s.id] = run_experiment(s, data)
        except Exception as exc:
            ran[s.id] = exc
    return ran


# a --parallel worker's scenario data, handed over once by the pool's initializer
_worker_data = None


def _take_data(data) -> None:
    global _worker_data
    _worker_data = data


def _run_group(specs) -> dict[str, SimulationOutput | Exception]:
    return _run_specs(specs, _worker_data)


def cmd_run(args) -> int:
    scn = _load(args.scenario)
    specs = scn.experiments
    if args.experiment:
        unknown = [e for e in args.experiment if all(s.id != e for s in specs)]
        if unknown:
            known = ", ".join(s.id for s in specs)
            raise ScenarioError(args.scenario, "experiments",
                                f"unknown experiment(s) {unknown}; available: {known}")
        # the selected experiments, their baselines, theirs in turn, and so on
        needed = set(args.experiment)
        for _ in specs:     # no chain of baselines has more links than specs
            needed |= {s.baseline_id for s in specs if s.id in needed and s.baseline_id}
        specs = [s for s in specs if s.id in needed]

    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    # one --parallel task per charging-physics pass, run on the loaded data,
    # which each worker takes once: under fork without a pickle
    groups: dict[tuple, list] = {}
    for s in specs:
        groups.setdefault(s.physics_key, []).append(s)
    workers = min(args.parallel, len(groups))
    if workers > 1:
        # imported here: the serial path, and every other command, starts no pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_take_data,
                                 initargs=(scn.data,)) as pool:
            futures = [(group, pool.submit(_run_group, group)) for group in groups.values()]
        ran: dict[str, SimulationOutput | Exception] = {}
        for group, fut in futures:
            try:
                ran.update(fut.result())
            except Exception as exc:   # the task itself failed
                ran.update(dict.fromkeys((s.id for s in group), exc))
    else:
        ran = _run_specs(specs, scn.data)
    results = {s.id: ran[s.id] for s in specs
               if isinstance(ran[s.id], SimulationOutput)}
    failures = {s.id: ran[s.id] for s in specs if s.id not in results}

    baseload = scn.data.baseload
    outputs.write_load_csv(out_root / "baseload_hourly.csv",
                           LoadSeries(baseload.start, 60, baseload.hourly_total()))
    # by physics key: the directory the pass's physics files were written to
    # first; experiments with one key have the same physics, byte for byte
    physics_dirs: dict[tuple, Path] = {}
    for s in specs:
        if s.id not in results:
            continue
        out = results[s.id]
        baseline = results.get(s.baseline_id) if s.baseline_id else None
        outputs.write_all(out_root / s.id, out, scn.content_hash,
                          scn.data.transformer.capacity_kw, baseline,
                          physics_dirs.get(s.physics_key))
        physics_dirs.setdefault(s.physics_key, out_root / s.id)
        print(f"{s.id}: ok -> {out_root / s.id}")

    for exp_id, exc in failures.items():
        print(f"{exp_id}: FAILED: {exc}", file=sys.stderr)
    return EXIT_RUNTIME if failures else EXIT_OK


def cmd_validate(args) -> int:
    scn = _load(args.scenario)
    print(f"{args.scenario}: valid "
          f"({len(scn.data.household_ids)} households, "
          f"{len(scn.experiments)} experiments, seed {scn.seed})")
    return EXIT_OK


def cmd_gen_synthetic(args) -> int:
    scn = _load(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs.write_baseload_csv(out / "baseload.csv", scn.data.baseload)
    for name, series, column in (("spot.csv", scn.data.spot, "dkk_per_kwh"),
                                 ("co2.csv", scn.data.co2, "kg_per_kwh")):
        outputs.write_load_csv(out / name, LoadSeries(series.start, 60, series.values),
                               column)
    print(f"wrote baseload.csv, spot.csv, co2.csv to {out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    reports = [outputs.read_kpi_csv(Path(p)) for p in (args.kpi_a, args.kpi_b)]
    for row in outputs.comparison_rows(*reports):
        print(",".join(row))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "validate": cmd_validate,
                "gen-synthetic": cmd_gen_synthetic, "compare": cmd_compare}
    try:
        level = os.environ.get("EVSIM_LOG", "WARNING")     # a level's name, in any case
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise ScenarioError("EVSIM_LOG", "env", f"unknown logging level {level!r}")
        logging.basicConfig(level=level.upper())
        return handlers[args.command](args)
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        log.exception("runtime failure")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
