"""Differential oracle for ``evsim.engine.simulate``: the per-tick loop.

``simulate_ticks`` runs all five phases (events, baseload, dispatch,
physics, recording) on every tick of the span and calls the dispatcher on
every decision boundary. The engine advances from event to event instead;
its output must equal this loop's exactly, field by field.

``invariants_checked()`` checks the engine's invariants while it runs: each
new grant list is in vehicle-id order, grants only requesting vehicles at
most their rate and, for a coordinated strategy, at most the budget; every
state of charge stays within its battery.

    PYTHONPATH=src python tests/reference_engine.py SCENARIO.ini

runs every experiment of a scenario through ``run_experiment`` in file order,
as ``evsim run`` does (so experiments share fleets and physics passes), and
the per-tick loop on a freshly built fleet; it prints the first field that
differs, and exits 1 on any difference. The engine runs under
``invariants_checked()``.
"""

from __future__ import annotations

import argparse
import sys
from bisect import bisect_left
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np

from evsim import engine
from evsim import strategies as strat
from evsim.engine import (ChargeSession, ExperimentSpec, ScenarioData,
                          SimulationOutput, VehiclePlan, VehicleSummary,
                          build_fleet, run_experiment)
from evsim.fleet import SOC_EPS, TripEvent, Vehicle, drain_trip, satisfied
from evsim.grid import (LoadSeries, OverloadEvent, available_capacity,
                        detect_overloads, hourly_max)
from evsim.kpi import YearLedger, assemble_report
from evsim.scenario import load_scenario
from evsim.tariffs import hours_covering
from evsim.timebase import Timestamp, year_start_minutes

# event kinds, processed in this order within one tick
_ADOPT, _DEPART, _ARRIVE = 0, 1, 2


def _dispatcher(spec: ExperimentSpec):
    name = spec.strategy
    if name == "traditional":
        return lambda reqs, budget: strat.dispatch_traditional(reqs, budget)
    if name == "fcfs":
        state = strat.FcfsState()
        return lambda reqs, budget: strat.dispatch_fcfs(state, reqs, budget)
    if name == "round_robin":
        state = strat.RoundRobinState()
        return lambda reqs, budget: strat.dispatch_round_robin(state, reqs, budget)
    if name == "equal_charge":
        return lambda reqs, budget: strat.dispatch_equal_charge(reqs, budget)
    if name == "edf":
        return lambda reqs, budget: strat.dispatch_edf(reqs, budget)
    raise AssertionError(name)


@contextmanager
def invariants_checked():
    """Within the block, every engine run asserts its invariants: after each
    call of ``_Run.dispatch_due`` that takes new grants, and after each span
    ``_Run.charge`` takes."""
    dispatch_due, charge = engine._Run.dispatch_due, engine._Run.charge

    def checked_dispatch_due(self, budget: float) -> None:
        new = self._dispatch_pending(budget)
        dispatch_due(self, budget)
        if new:
            grants = self.grants
            # charge, book_hour and _leave rely on the id order
            assert all(a.vid < b.vid for a, b in zip(grants, grants[1:]))
            for r in grants:
                # the run's one record of the vehicle, in its id-ordered list
                k = bisect_left(self.records, r.vid, key=lambda rec: rec.vid)
                assert r.vid in self.requests and k < len(self.records) \
                    and r is self.records[k]
                assert 0.0 <= r.grant <= r.vehicle.model.max_rate_kw + strat.CAPACITY_EPS
            # traditional charging plugs in and charges: capacity ignored
            if not isinstance(self.dispatcher, strat.TraditionalDispatcher):
                assert sum(r.grant for r in grants) <= budget + strat.CAPACITY_EPS

    def checked_charge(self, i: int, j: int, base_kw: float) -> None:
        charge(self, i, j, base_kw)
        # the state of charge only rises within a span: its end bounds it
        for r in self.records:
            assert -SOC_EPS <= r.soc_kwh <= r.vehicle.model.battery_kwh + SOC_EPS

    with patch.object(engine._Run, "dispatch_due", checked_dispatch_due), \
            patch.object(engine._Run, "charge", checked_charge):
        yield


def simulate_ticks(spec: ExperimentSpec, data: ScenarioData,
                   plans: list[VehiclePlan]) -> SimulationOutput:
    """The per-tick loop: every phase runs on every tick of the span."""
    span = spec.span
    dt = span.tick_minutes
    n_ticks = span.n_ticks
    n_hours = span.n_hours
    interval = spec.interval
    tr = data.transformer

    tariff = data.tariff(spec.tariff_mode)

    # hourly context arrays over the span
    hours = hours_covering(data.baseload.start, data.baseload.n_hours, span)
    base_matrix = data.baseload.block(hours.start, hours.stop)   # (households, hours)
    spot_h = data.spot.slice_hours(span)
    co2_h = data.co2.slice_hours(span)
    tariff_h = tariff.hourly_rates(span)
    price_h = spot_h + tariff_h + data.addons_dkk_per_kwh
    base_total_h = base_matrix.sum(axis=0)
    base_h = base_total_h.tolist()
    budget_h = available_capacity(tr, base_total_h).tolist()

    year_of_hour = np.empty(n_hours, dtype=int)
    for y in span.years():
        lo = max(0, (year_start_minutes(y) - span.start.minutes) // 60)
        hi = min(n_hours, (year_start_minutes(y + 1) - span.start.minutes) // 60)
        year_of_hour[lo:hi] = y

    if span.start.minutes % 60 or span.end.minutes % 60:
        raise ValueError("span must start and end on hour boundaries")

    vehicles: dict[int, Vehicle] = {p.vehicle.id: p.vehicle for p in plans}
    soc: dict[int, float] = {vid: v.soc_kwh for vid, v in vehicles.items()}
    plugged: set[int] = set()
    arrival: dict[int, Timestamp] = {}
    planned_departure: dict[int, Timestamp] = {}
    adoption_of = {p.vehicle.id: p.adoption for p in plans}
    first_departure = {p.vehicle.id: (p.trips[0].departure.minutes if p.trips
                                      else span.end.minutes) for p in plans}

    # flatten the fleet plan into a single sorted event list
    events: list[tuple[int, int, int, TripEvent | None]] = []
    next_departure: dict[tuple[int, int], int] = {}
    for p in plans:
        vid = p.vehicle.id
        events.append((p.adoption.minutes, _ADOPT, vid, None))
        for k, trip in enumerate(p.trips):
            events.append((trip.departure.minutes, _DEPART, vid, None))
            events.append((trip.arrival.minutes, _ARRIVE, vid, trip))
            nxt = p.trips[k + 1].departure.minutes if k + 1 < len(p.trips) \
                else span.end.minutes
            next_departure[(vid, trip.arrival.minutes)] = nxt
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    dispatch = _dispatcher(spec)

    load = np.empty(n_ticks)
    grants: dict[int, float] = {}
    requesting: set[int] = set()
    req_cache: dict[int, strat.ChargeRequest] = {}
    session_start: dict[int, int] = {}
    session_kwh: dict[int, float] = {}
    hour_kwh: dict[int, float] = {}
    trip_drain: dict[int, float] = {vid: 0.0 for vid in vehicles}
    delivered_total_v: dict[int, float] = {vid: 0.0 for vid in vehicles}

    sessions: list[ChargeSession] = []
    dissatisfactions: list[tuple[Timestamp, int]] = []
    ledgers: dict[int, YearLedger] = {y: YearLedger(year=y) for y in span.years()}
    delivered_by_year: dict[int, dict[int, float]] = {y: {} for y in span.years()}

    def open_session(vid: int, minute: int) -> None:
        session_start[vid] = minute
        session_kwh[vid] = 0.0

    def close_session(vid: int, minute: int) -> None:
        sessions.append(ChargeSession(vid, Timestamp(session_start.pop(vid)),
                                      Timestamp(minute), session_kwh.pop(vid)))

    def refresh_request(vid: int, v: Vehicle) -> None:
        req_cache[vid] = strat.ChargeRequest(
            vehicle_id=vid, max_rate_kw=v.model.max_rate_kw,
            remaining_kwh=max(0.0, v.desired_target_kwh - soc[vid]),
            arrival=arrival[vid], planned_departure=planned_departure[vid])

    per_hour = 60 // dt
    ev_ptr = 0
    n_events = len(events)
    start_min = span.start.minutes

    for i in range(n_ticks):
        m = start_min + i * dt
        h = i // per_hour

        # phase 1: adoptions, departures, arrivals
        while ev_ptr < n_events and events[ev_ptr][0] < m + dt:
            _, kind, vid, payload = events[ev_ptr]
            ev_ptr += 1
            v = vehicles[vid]
            if kind == _ADOPT:
                plugged.add(vid)
                arrival[vid] = Timestamp(m)
                planned_departure[vid] = Timestamp(first_departure[vid])
                open_session(vid, m)
                if not satisfied(soc[vid], v.desired_target_kwh):
                    refresh_request(vid, v)
                    requesting.add(vid)
            elif kind == _DEPART:
                if vid in plugged:
                    if not satisfied(soc[vid], v.desired_target_kwh):
                        ledgers[Timestamp(m).year].dissatisfaction_count += 1
                        dissatisfactions.append((Timestamp(m), vid))
                    close_session(vid, m)
                plugged.discard(vid)
                grants.pop(vid, None)
                requesting.discard(vid)
                req_cache.pop(vid, None)
            else:   # _ARRIVE
                soc_before = soc[vid]
                soc[vid] = drain_trip(vid, soc_before, payload.energy_kwh)
                trip_drain[vid] += soc_before - soc[vid]
                plugged.add(vid)
                arrival[vid] = payload.arrival
                planned_departure[vid] = Timestamp(next_departure[(vid, payload.arrival.minutes)])
                open_session(vid, m)
                if not satisfied(soc[vid], v.desired_target_kwh):
                    refresh_request(vid, v)
                    requesting.add(vid)

        # phase 2: baseload for this tick
        base_now = base_h[h]

        # phase 3: dispatch on decision boundaries only (hold-last otherwise)
        if m % interval == 0:
            budget = budget_h[h]
            reqs = [req_cache[vid] for vid in sorted(requesting)]
            grants = dict(dispatch(reqs, budget))

        # phase 4: charging physics for one tick; fixed id order keeps the
        # float sum independent of the dispatcher's dict ordering
        delivered_sum = 0.0
        released = None
        for vid in sorted(grants):
            g = grants[vid]
            v = vehicles[vid]
            delivered = g * dt / 60.0
            headroom = v.desired_target_kwh - soc[vid]
            if delivered >= headroom:
                delivered = headroom
                if released is None:
                    released = [vid]
                else:
                    released.append(vid)
                requesting.discard(vid)
            if delivered > 0.0:
                soc[vid] += delivered
                delivered_sum += delivered
                hour_kwh[vid] = hour_kwh.get(vid, 0.0) + delivered
                session_kwh[vid] += delivered
        if released:
            for vid in released:
                del grants[vid]

        # phase 5: load recording (average power over the tick)
        load[i] = base_now + delivered_sum * 60.0 / dt

        # hour closed: book the hour's charging at this hour's prices
        if (i + 1) % per_hour == 0 and hour_kwh:
            year = int(year_of_hour[h])
            led = ledgers[year]
            dby = delivered_by_year[year]
            p_tot, p_tar, p_co2 = price_h[h], tariff_h[h], co2_h[h]
            for vid, kwh in hour_kwh.items():
                led.charging_kwh[vid] = led.charging_kwh.get(vid, 0.0) + kwh
                led.charging_cost[vid] = led.charging_cost.get(vid, 0.0) + kwh * p_tot
                led.charging_tariff[vid] = led.charging_tariff.get(vid, 0.0) + kwh * p_tar
                led.charging_co2[vid] = led.charging_co2.get(vid, 0.0) + kwh * p_co2
                dby[vid] = dby.get(vid, 0.0) + kwh
                delivered_total_v[vid] += kwh
            hour_kwh.clear()

    end_min = span.end.minutes
    for vid in sorted(session_start):
        sessions.append(ChargeSession(vid, Timestamp(session_start[vid]),
                                      Timestamp(end_min), session_kwh[vid]))

    # per-year post-processing: overloads, hourly maxima, baseload billing
    load_series = LoadSeries(span.start, dt, load)
    hmax = hourly_max(load_series)
    all_events: list[OverloadEvent] = []
    hh_ids = data.household_ids
    for y in span.years():
        y0 = max(span.start.minutes, year_start_minutes(y))
        y1 = min(span.end.minutes, year_start_minutes(y + 1))
        led = ledgers[y]
        evts = detect_overloads(load_series.slice_minutes(y0, y1), tr)
        led.overload_events = evts
        all_events.extend(evts)
        h0 = (y0 - span.start.minutes) // 60
        h1 = (y1 - span.start.minutes) // 60
        led.hourly_max_load = hmax.values[h0:h1]

        prices = price_h[h0:h1]
        tarfs = tariff_h[h0:h1]
        co2s = co2_h[h0:h1]
        block = base_matrix[:, h0:h1]
        cost = block @ prices
        tar = block @ tarfs
        co2 = block @ co2s
        for row, hid in enumerate(hh_ids):
            led.baseload_cost[hid] = float(cost[row])
            led.baseload_tariff[hid] = float(tar[row])
            led.baseload_co2[hid] = float(co2[row])
        led.ev_households = sorted(
            vid for vid, at in adoption_of.items() if at.minutes < y1)

    reports = [assemble_report(ledgers[y], data.overload_unit) for y in span.years()]

    summaries = [VehicleSummary(
        vehicle_id=vid, model=vehicles[vid].model.name,
        initial_soc_kwh=vehicles[vid].soc_kwh, final_soc_kwh=soc[vid],
        delivered_kwh=delivered_total_v[vid], trip_drain_kwh=trip_drain[vid])
        for vid in sorted(vehicles)]

    return SimulationOutput(
        spec=spec, load=load_series, hourly_max=hmax,
        overload_events=all_events, reports=reports, sessions=sessions,
        dissatisfactions=dissatisfactions, vehicles=summaries,
        delivered_by_year=delivered_by_year)


def first_difference(a: SimulationOutput, b: SimulationOutput) -> str | None:
    """Name of the first output field where `a` and `b` differ, or None.

    Floats are compared with ``==``: the engine promises bit-identical output.
    """
    if not np.array_equal(a.load.values, b.load.values):
        i = int(np.flatnonzero(a.load.values != b.load.values)[0])
        return f"load[{i}]: {a.load.values[i]!r} != {b.load.values[i]!r}"
    for name in ("overload_events", "reports", "sessions", "dissatisfactions",
                 "vehicles"):
        xs, ys = getattr(a, name), getattr(b, name)
        if len(xs) != len(ys):
            return f"{name}: {len(xs)} != {len(ys)} entries"
        for k, (x, y) in enumerate(zip(xs, ys)):
            if x != y:
                return f"{name}[{k}]: {x!r} != {y!r}"
    if a.delivered_by_year != b.delivered_by_year:
        return "delivered_by_year"
    return None


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("scenario")
    args = p.parse_args(argv)
    scn = load_scenario(args.scenario)
    differ = 0
    kept = []       # alive outputs let later experiments share fleet and physics
    for spec in scn.experiments:
        # the path of `evsim run`, against the tick loop on a fleet of its own
        with invariants_checked():
            kept.append(run_experiment(spec, scn.data))
        fresh = build_fleet(spec, scn.data)
        diff = first_difference(kept[-1], simulate_ticks(spec, scn.data, fresh))
        print(f"{spec.id}: {'identical' if diff is None else 'DIFFERS: ' + diff}")
        differ += diff is not None
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
