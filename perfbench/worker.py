"""One benchmark process: run a workload once, or only its set-up, or the
dispatcher micro-benchmark, and print a JSON result as the last line.

run.py starts this script in a fresh interpreter for every repetition, so
each repetition pays interpreter start, imports and scenario loading the way
a user's ``evsim run`` does. Logging and the program's own stdout/stderr are
captured in memory, so terminal I/O stays out of the timings.

    python3 worker.py {run,setup,micro} WORKLOAD SEED --out DIR [--trace]
                      [--reference CSV] [--trace-file JSON]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import resource
import sys
import time
from pathlib import Path

import checks
from tracer import STRATEGIES, Tracer

SCENARIOS = Path(__file__).resolve().parent / "scenarios"

# name -> (scenario file, experiment run through the library, or None for
# the whole scenario through ``evsim run``)
WORKLOADS = {
    "demo_matrix": ("demo_matrix.ini", None),
    "dense_feeder": ("dense_feeder.ini", None),
    "adoption_horizon": ("adoption_horizon.ini", "edf_tou"),
}


class _LogCounter(logging.Handler):
    """Counts warning records per logger instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.by_logger: dict[str, int] = {}

    def emit(self, record):
        self.by_logger[record.name] = self.by_logger.get(record.name, 0) + 1


def _on_return(module, attr: str, hook):
    fn = getattr(module, attr)

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(args, result)
        return result

    setattr(module, attr, wrapper)


def _mark_setup_end(marks: dict):
    """Record when the first scenario load returns: the end of set-up."""
    import evsim.cli
    import evsim.scenario

    def hook(args, result):
        marks.setdefault("setup_end", time.monotonic())
    for module in (evsim.cli, evsim.scenario):
        _on_return(module, "load_scenario", hook)


def run_setup(path: Path, experiment: str | None, seed: int) -> dict:
    import evsim.cli
    import evsim.scenario

    marks: dict = {}
    _mark_setup_end(marks)
    if experiment is None:
        code = evsim.cli.main(["validate", str(path)])
        if code != 0:
            raise RuntimeError(f"evsim validate exited {code}")
    else:
        evsim.scenario.load_scenario(path, seed_override=seed)
    return marks


def run_workload(path: Path, experiment: str | None, seed: int, out_dir: Path,
                 tracer: Tracer | None = None,
                 reference: list[list[str]] | None = None) -> dict:
    """Run every experiment of the scenario through ``evsim run`` (or only
    ``experiment``, through the library) and check each one."""
    import evsim.cli
    import evsim.engine
    import evsim.scenario

    if tracer is not None:
        tracer.install()
    marks: dict = {}
    _mark_setup_end(marks)

    attempted, outputs, errors = [], {}, {}
    problems: list[str] = []
    if experiment is None:
        run_experiment = evsim.cli.run_experiment

        def capture(spec, data):
            attempted.append(spec)
            try:
                out = run_experiment(spec, data)
            except Exception as exc:
                errors[spec.id] = repr(exc)
                raise
            outputs[spec.id] = out
            return out
        evsim.cli.run_experiment = capture
        code = evsim.cli.main(["run", str(path), "--out", str(out_dir),
                               "--parallel", "1"])
        if code != 0:
            problems.append(f"evsim run exited {code}")
    else:
        scn = evsim.scenario.load_scenario(path, seed_override=seed)
        spec = scn.experiment(experiment)
        attempted.append(spec)
        try:
            outputs[spec.id] = evsim.engine.run_experiment(spec, scn.data)
        except Exception as exc:
            errors[spec.id] = repr(exc)

    failed = 0
    all_rows: list[list[str]] = []
    kpi_files: list[Path] = []
    if reference is not None:
        ids = [s.id for s in attempted]
        want = list(dict.fromkeys(r[0] for r in reference))
        if ids != want:
            problems.append(f"experiments {ids} != reference {want}")
    for spec in attempted:
        out = outputs.get(spec.id)
        if out is None:
            found = [f"{spec.id} raised {errors.get(spec.id)}"]
        else:
            rows = checks.kpi_rows(spec.id, out.reports)
            all_rows += rows
            found = checks.conservation_problems(spec.id, out.vehicles)
            found += checks.overload_problems(spec.id, spec.strategy, out.reports)
            if reference is not None:
                found += checks.compare_rows(
                    rows, [r for r in reference if r[0] == spec.id])
            if experiment is None:
                kpi_file = out_dir / spec.id / "kpi.csv"
                kpi_files.append(kpi_file)
                try:
                    found += checks.compare_rows(checks.read_rows(kpi_file), rows,
                                                 rounded=True)
                except (OSError, ValueError) as exc:
                    found.append(f"{spec.id} kpi.csv: {exc}")
        failed += bool(found)
        problems += found

    if problems and not failed:
        failed = 1      # evsim run failed outside any one experiment
    result = {
        "setup_end": marks.get("setup_end"),
        "experiments": max(len(attempted), failed),
        "failed": failed,
        "problems": problems,
        "digest": checks.digest(all_rows, [f for f in kpi_files if f.exists()]),
        "kpi_rows": all_rows,
        "sim_minutes": sum(s.span.end.minutes - s.span.start.minutes
                           for s in attempted),
    }
    if tracer is not None:
        files = [f for f in out_dir.rglob("*") if f.is_file()] \
            if out_dir.exists() else []
        result["trace"] = tracer.metrics()
        result["trace"]["outputs.bytes_written"] = [
            sum(f.stat().st_size for f in files), "B"]
        result["trace"]["outputs.files_written"] = [len(files), "count"]
        result["toplevel_s"] = tracer.toplevel_s()
    return result


def run_micro(seed: int) -> dict:
    """Each dispatcher alone at N = 10 / 126 / 1000 seeded requests.

    Rates follow the default catalog's shares; the budget is half the summed
    rate caps, so every strategy has to choose; FCFS and round-robin start
    from fresh state on every call. Reports the median microseconds per call.
    """
    import numpy as np

    from evsim import strategies
    from evsim.scenario import DEFAULT_CATALOG_FILE, read_catalog_csv
    from evsim.timebase import Timestamp

    catalog = read_catalog_csv(DEFAULT_CATALOG_FILE)
    rates = np.array([m.max_rate_kw for m in catalog])
    shares = np.array([m.market_share for m in catalog])
    rng = np.random.default_rng(seed)
    state_of = {"fcfs": strategies.FcfsState,
                "round_robin": strategies.RoundRobinState}
    metrics = {}
    for n, calls in ((10, 2000), (126, 400), (1000, 60)):
        arrival = rng.integers(0, 24 * 60, size=n)
        stay = rng.integers(60, 16 * 60, size=n)
        rate = rates[rng.choice(len(rates), size=n, p=shares)]
        requests = [strategies.ChargeRequest(
            vehicle_id=i + 1, max_rate_kw=float(rate[i]), remaining_kwh=20.0,
            arrival=Timestamp(int(arrival[i])),
            planned_departure=Timestamp(int(arrival[i] + stay[i])))
            for i in range(n)]
        budget = 0.5 * float(rate.sum())
        for strategy in STRATEGIES:
            fn = getattr(strategies, f"dispatch_{strategy}")
            make_state = state_of.get(strategy)
            samples = []
            for _ in range(calls):
                args = (requests, budget) if make_state is None \
                    else (make_state(), requests, budget)
                t0 = time.perf_counter()
                fn(*args)
                samples.append(time.perf_counter() - t0)
            samples.sort()
            metrics[f"strategies.{strategy}.n{n}_us"] = [samples[calls // 2] * 1e6,
                                                         "us"]
    return {"micro": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["run", "setup", "micro"])
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("seed", type=int)
    p.add_argument("--out", type=Path)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--trace-file", type=Path)
    p.add_argument("--reference", type=Path)
    args = p.parse_args(argv)

    counter = _LogCounter()
    root = logging.getLogger()
    root.addHandler(counter)
    root.setLevel(logging.WARNING)
    tracer = Tracer() if args.trace else None
    reference = checks.read_rows(args.reference) if args.reference else None

    scenario, experiment = WORKLOADS[args.workload]
    path = SCENARIOS / scenario
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        if args.mode == "setup":
            result = run_setup(path, experiment, args.seed)
        elif args.mode == "micro":
            result = run_micro(args.seed)
        else:
            result = run_workload(path, experiment, args.seed, args.out, tracer,
                                  reference)
    if tracer is not None:
        tracer.write(args.trace_file)
        result["trace"]["fleet.clamped_trips"] = [
            counter.by_logger.get("evsim.fleet", 0), "count"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
