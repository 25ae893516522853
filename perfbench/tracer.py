"""Per-layer tracing by wrapping evsim's public module attributes.

Nothing in evsim changes: the tracer replaces module attributes such as
``evsim.engine.simulate`` with timing wrappers, at the places where the
callers look them up. Each wrapped call records a span (name, start, end,
parent id); spans stay in memory and are written out once, at the end.

Dispatch calls are too frequent for one span each (over a million in a
run), so each dispatcher keeps running totals instead, and its time is
charged to the enclosing ``simulate`` span as child time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

STRATEGIES = ("traditional", "round_robin", "fcfs", "equal_charge", "edf")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent id]
        self.child_s: dict[int, float] = defaultdict(float)
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.fleet_keys: set = set()
        self.simulate_keys: set = set()
        self.dispatch = {s: _DispatchStats() for s in STRATEGIES}
        self._prev_call = None

    # -- wrapping ---------------------------------------------------------

    def wrap(self, module, attr: str, name: str, before=None, after=None):
        """Replace ``module.attr`` by a wrapper that records a span."""
        fn = getattr(module, attr)
        spans, stack, child_s = self.spans, self.stack, self.child_s

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append([name, 0.0, 0.0, parent])
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid][1:3] = (t0, t1)
                if parent is not None:
                    child_s[parent] += t1 - t0
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(module, attr, wrapper)

    def wrap_dispatch(self, module, strategy: str):
        """Count and time one dispatcher; every call passes (..., requests, budget)."""
        attr = f"dispatch_{strategy}"
        fn = getattr(module, attr)
        stats, stack, child_s = self.dispatch[strategy], self.stack, self.child_s

        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            t1 = perf_counter()
            requests, budget = args[-2], args[-1]
            key = (tuple(r.vehicle_id for r in requests), budget)
            stats.record(t1 - t0, len(requests), key != self._prev_call)
            self._prev_call = key
            # the bookkeeping above is tracing cost, not the caller's self time
            if stack:
                child_s[stack[-1]] += perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        setattr(module, attr, wrapper)

    def install(self):
        """Wrap the public functions of every evsim layer."""
        import evsim.cli
        import evsim.engine
        import evsim.outputs
        import evsim.scenario
        import evsim.strategies

        # the CLI calls its own imported name; library callers the module's
        self.wrap(evsim.cli, "load_scenario", "scenario.load_scenario")
        self.wrap(evsim.scenario, "load_scenario", "scenario.load_scenario")
        for attr in ("generate_baseload", "generate_spot", "generate_co2"):
            self.wrap(evsim.scenario, attr, f"synth.{attr}")
        self.wrap(evsim.engine, "build_fleet", "engine.build_fleet",
                  after=self._after_build_fleet)
        self.wrap(evsim.engine, "simulate", "engine.simulate",
                  before=self._before_simulate)
        self.wrap(evsim.engine, "detect_overloads", "grid.detect_overloads",
                  after=self._after_detect_overloads)
        self.wrap(evsim.engine, "hourly_max", "grid.hourly_max")
        self.wrap(evsim.engine, "assemble_report", "kpi.assemble_report",
                  after=lambda args, result: self._count("kpi.reports", 1))
        self.wrap(evsim.outputs, "write_all", "outputs.write_all")
        self.wrap(evsim.outputs, "write_load_csv", "outputs.write_load_csv")
        self.wrap(evsim.outputs, "emit_plots", "outputs.emit_plots")
        for strategy in STRATEGIES:
            self.wrap_dispatch(evsim.strategies, strategy)

    def _count(self, name: str, n: int):
        self.counts[name] += n

    def _after_build_fleet(self, args, plans):
        spec = args[0]
        span = spec.span
        self.fleet_keys.add((spec.seed, span.start.minutes, span.end.minutes,
                             span.tick_minutes))
        self._count("fleet.vehicles", len(plans))
        self._count("fleet.trips", sum(len(p.trips) for p in plans))

    def _before_simulate(self, args):
        spec, plans = args[0], args[2]
        span = spec.span
        self.simulate_keys.add((spec.strategy, span.start.minutes, span.end.minutes,
                                span.tick_minutes, spec.seed, spec.interval))
        self._count("engine.ticks", span.n_ticks)
        # one adoption per vehicle, one departure and one arrival per trip
        self._count("engine.events",
                    len(plans) + 2 * sum(len(p.trips) for p in plans))
        self._prev_call = None

    def _after_detect_overloads(self, args, events):
        self._count("grid.overload_events", len(events))

    # -- results ----------------------------------------------------------

    def _total(self, name: str) -> tuple[float, int]:
        spans = [s for s in self.spans if s[0] == name]
        return sum(s[2] - s[1] for s in spans), len(spans)

    def toplevel_s(self) -> float:
        """Time in parentless spans after set-up (scenario loading excluded)."""
        return sum(s[2] - s[1] for s in self.spans
                   if s[3] is None and s[0] != "scenario.load_scenario")

    def metrics(self) -> dict[str, list]:
        """Per-layer metrics as name -> [value, unit]; times are seconds or
        microseconds, everything else repeats exactly for the same inputs."""
        m: dict[str, list] = {}
        m["scenario.load_s"] = [self._total("scenario.load_scenario")[0], "s"]
        m["synth.generate_s"] = [sum(self._total(f"synth.generate_{k}")[0]
                                     for k in ("baseload", "spot", "co2")), "s"]

        fleet_s, calls = self._total("engine.build_fleet")
        m["engine.build_fleet_s"] = [fleet_s, "s"]
        m["engine.build_fleet_calls"] = [calls, "count"]
        m["engine.fleet_useful_frac"] = [_ratio(len(self.fleet_keys), calls), "ratio"]
        for k in ("fleet.vehicles", "fleet.trips"):
            m[k] = [self.counts[k], "count"]

        sim_s, sim_calls = self._total("engine.simulate")
        self_s = sum(s[2] - s[1] - self.child_s[i]
                     for i, s in enumerate(self.spans) if s[0] == "engine.simulate")
        ticks = self.counts["engine.ticks"]
        m["engine.simulate_s"] = [sim_s, "s"]
        m["engine.simulate_self_s"] = [self_s, "s"]
        m["engine.ticks"] = [ticks, "count"]
        m["engine.events"] = [self.counts["engine.events"], "count"]
        m["engine.self_us_per_tick"] = [_ratio(self_s * 1e6, ticks), "us"]
        m["engine.simulate_useful_frac"] = [_ratio(len(self.simulate_keys), sim_calls),
                                            "ratio"]

        parts = self.dispatch.values()
        calls = sum(p.calls for p in parts)
        seconds = sum(p.seconds for p in parts)
        m["strategies.dispatch_calls"] = [calls, "count"]
        m["strategies.dispatch_s"] = [seconds, "s"]
        m["strategies.dispatch_us_per_call"] = [_ratio(seconds * 1e6, calls), "us"]
        m["strategies.requests_per_call_mean"] = [
            _ratio(sum(p.requests for p in parts), calls), "requests"]
        m["strategies.requests_per_call_max"] = [
            max(p.requests_max for p in parts), "requests"]
        m["strategies.empty_call_frac"] = [_ratio(sum(p.empty for p in parts), calls),
                                           "ratio"]
        m["strategies.changed_call_frac"] = [
            _ratio(sum(p.changed for p in parts), calls), "ratio"]
        for strategy, stats in self.dispatch.items():
            m[f"strategies.{strategy}.dispatch_s"] = [stats.seconds, "s"]

        m["grid.detect_overloads_s"] = [self._total("grid.detect_overloads")[0], "s"]
        m["grid.hourly_max_s"] = [self._total("grid.hourly_max")[0], "s"]
        m["grid.overload_events"] = [self.counts["grid.overload_events"], "count"]
        m["kpi.assemble_report_s"] = [self._total("kpi.assemble_report")[0], "s"]
        m["kpi.reports"] = [self.counts["kpi.reports"], "count"]

        m["outputs.write_all_s"] = [self._total("outputs.write_all")[0], "s"]
        m["outputs.write_load_csv_s"] = [self._total("outputs.write_load_csv")[0], "s"]
        m["outputs.emit_plots_s"] = [self._total("outputs.emit_plots")[0], "s"]
        return m

    def write(self, path: Path) -> None:
        """Write every span, and the dispatch totals, as one JSON document."""
        doc = {"spans": [{"id": i, "name": s[0], "start": s[1], "end": s[2],
                          "parent": s[3]} for i, s in enumerate(self.spans)],
               "dispatch": {k: vars(v) for k, v in self.dispatch.items()}}
        path.write_text(json.dumps(doc))


class _DispatchStats:
    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.requests = 0
        self.requests_max = 0
        self.empty = 0
        self.changed = 0

    def record(self, seconds: float, n: int, changed: bool):
        self.calls += 1
        self.seconds += seconds
        self.requests += n
        if n > self.requests_max:
            self.requests_max = n
        if n == 0:
            self.empty += 1
        if changed:
            self.changed += 1


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
