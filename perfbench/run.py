"""evsim benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; evsim is imported from ``src/``. Every
repetition is a fresh single-threaded Python process (worker.py). One run:

1. a few set-up-only processes (``evsim validate`` or ``load_scenario``);
   the first one fills the bytecode cache and is discarded;
2. unless ``--seed`` is the reference seed, one repetition at the reference
   seed whose KPIs are compared with ``reference/<workload>.csv``;
3. repetitions at ``--seed`` until ``--seconds`` would be exceeded, at least
   two, whose KPI digests must be identical.

With ``--trace 0`` it reports the end-to-end metrics (medians over the
repetitions); with ``--trace 1`` untraced and traced repetitions alternate
and it reports the per-layer metrics. Human-readable lines go first; the last
line of stdout is one JSON object. Work files go to ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE_SEED = 2039
SETUP_REPS = 8          # the first is discarded as bytecode-cache warm-up
MIN_REPS = 2


class BenchError(RuntimeError):
    pass


def _env(seed: int) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), EVSIM_SEED=str(seed),
               PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("EVSIM_LOG", None)
    return env


def run_worker(mode: str, workload: str, seed: int, *extra: str) -> dict:
    """Run worker.py once; returns its result with the wall time as run_s."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed),
           *extra]
    env = _env(seed)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} {workload} seed {seed} timed out") from exc
    run_s = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} {workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["run_s"] = run_s
    if mode != "micro":
        if result["setup_end"] is None:
            raise BenchError(f"{mode} {workload} seed {seed}: the scenario did not load")
        result["setup_s"] = result["setup_end"] - t0
    return result


def _repetition(workload: str, seed: int, tag: str, trace: bool = False) -> dict:
    out = WORK / "out" / workload
    shutil.rmtree(out, ignore_errors=True)
    extra = ["--out", str(out)]
    if trace:
        extra += ["--trace", "--trace-file",
                  str(WORK / f"trace-{workload}-{seed}-{tag}.json")]
    ref = HERE / "reference" / f"{workload}.csv"
    if seed == REFERENCE_SEED:
        extra += ["--reference", str(ref)]
    result = run_worker("run", workload, seed, *extra)
    shutil.rmtree(out, ignore_errors=True)
    return result


def _timed_reps(workload: str, seed: int, seconds: float, traced: bool) -> tuple:
    """Repetitions until the next would overrun ``seconds`` (at least MIN_REPS
    of each kind); with ``traced`` untraced and traced ones alternate."""
    kinds = [False, True] if traced else [False]
    reps = {k: [] for k in kinds}
    start = time.monotonic()
    while True:
        for k in kinds:
            reps[k].append(_repetition(workload, seed, f"rep{len(reps[k])}", k))
        done = min(len(r) for r in reps.values())
        per_round = (time.monotonic() - start) / done
        if done >= MIN_REPS and time.monotonic() - start + per_round > seconds:
            return reps[False], reps.get(True, [])


def _median(values) -> float:
    return statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "evsim" / "__init__.py").is_file():
        print(f"error: no evsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)

    try:
        return _run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args) -> int:
    workload, seed = args.workload, args.seed
    setup = [run_worker("setup", workload, seed)["setup_s"]
             for _ in range(SETUP_REPS)][1:]
    checked = []
    if seed != REFERENCE_SEED:
        checked.append(_repetition(workload, REFERENCE_SEED, "reference"))
    plain, traced = _timed_reps(workload, seed, args.seconds, bool(args.trace))
    checked += plain + traced

    problems = [p for r in checked for p in r["problems"]]
    attempted = sum(r["experiments"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    # determinism: every repetition at --seed gives the same KPIs, and every
    # traced one the same per-layer counts
    def repeats(r: dict) -> bool:
        return r["digest"] == plain[0]["digest"] and \
            ("trace" not in r or _counts(r) == _counts(traced[0]))
    for r in plain[1:] + traced:
        if not repeats(r):
            failed += r["experiments"] - r["failed"]
            problems.append("KPIs or per-layer counts differ between repetitions")
    for line in problems[:20]:
        print(f"check failed: {line}")

    run_s = [r["run_s"] for r in plain]
    if args.trace:
        metrics = _per_layer(workload, seed, plain, traced)
    else:
        setup += [r["setup_s"] for r in plain]
        metrics = {
            "run_s": (_median(run_s), "s"),
            "setup_s": (_median(setup), "s"),
            "sim_minutes_per_s": (plain[0]["sim_minutes"] / _median(run_s), "min/s"),
            "peak_rss_mb": (_median(r["peak_rss_mb"] for r in plain), "MB"),
            "passed_frac": ((attempted - failed) / attempted, "ratio"),
        }
        print(f"failed_frac {failed / attempted:.6g} ratio")
    print(f"{workload} seed {seed}: {len(plain)} repetitions, run_s "
          + " ".join(f"{v:.3f}" for v in run_s))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def _counts(rep: dict) -> dict:
    return {k: v for k, (v, unit) in rep["trace"].items() if unit not in ("s", "us")}


def _per_layer(workload: str, seed: int, plain: list[dict],
               traced: list[dict]) -> dict:
    """Medians of the traced timings; counts from the first traced repetition
    (the caller has checked that they repeat)."""
    metrics = {}
    for k, (v, unit) in traced[0]["trace"].items():
        if unit in ("s", "us"):
            v = _median(r["trace"][k][0] for r in traced)
        metrics[k] = (v, unit)
    metrics["cli.self_s"] = (_median(r["run_s"] - r["setup_s"] - r["toplevel_s"]
                                     for r in traced), "s")
    metrics["trace.overhead_frac"] = (
        _median(r["run_s"] for r in traced) / _median(r["run_s"] for r in plain) - 1,
        "ratio")
    metrics.update(run_worker("micro", workload, seed)["micro"])
    return metrics


if __name__ == "__main__":
    sys.exit(main())
