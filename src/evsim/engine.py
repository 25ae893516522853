"""Deterministic discrete-time engine.

One run is strictly single-threaded: fixed phase order per tick
(trip events, baseload, dispatch on decision boundaries, charging
physics, load recording), agents stepped in ascending household id.
Identical (spec, inputs) reproduce identical outputs bit for bit.

Time advances from event to event (next-event time advance). The loop
stops only at the tick of the next trip event, at the closing tick of each
hour, at a decision boundary where the dispatcher's inputs (requests,
budget) changed since its last call (every boundary for a dispatcher with
``every_boundary`` set), and at the earliest tick on which a charging
vehicle may reach its target.
Between two stops the grants and the hour's baseload are constant: the load
takes at most two runs of equal value (the quiet ticks and the last tick),
and each charging vehicle's state of charge,
hour and session energy take the same sequence of float adds as on a
per-tick loop. The output therefore equals that loop's bit for bit;
``tests/reference_engine.py`` keeps the per-tick loop as the oracle.

A run is two passes. The charging-physics pass (events, dispatch, charging,
the load, sessions and each vehicle's energy per hour) works in ticks and
hours and does not depend on the tariff, which only prices the energy; the
pricing pass puts it into calendar years, as ledgers, overloads and KPI
reports. ``run_experiment`` builds each (seed, span) fleet once on one
``ScenarioData``, and its experiments on that fleet that differ only in
their tariff share one physics pass.
"""

from __future__ import annotations

import math
import numbers
import weakref
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from operator import add, attrgetter

import numpy as np

from . import strategies as strat
from .columns import Columns
from .fleet import (AdoptionCurve, DrivingPattern, EvModel, Trips, Vehicle,
                    draw_daily_trip, drain_trip, sample_adoptions, satisfied,
                    validate_catalog)
from .grid import (LoadSeries, OverloadEvent, Transformer, available_capacity,
                   detect_overloads, hourly_max)
from .kpi import KpiReport, YearLedger, assemble_report, check_overload_unit
from .rng import RngStreams
from .tariffs import (TARIFF_MODES, Co2IntensitySeries, DistributionTariff,
                      SpotPriceSeries, hours_covering)
from .timebase import MINUTES_PER_DAY, SimulationSpan, Timestamp


# hours per block in which whole-baseload readers (the value checks, equality,
# the hourly total, the CSV writer) take it: a 31-day month's, so a block of 126
# households is 0.75 MB
_BLOCK_HOURS = 31 * 24


@dataclass(frozen=True)
class HouseholdBaseload:
    """Hourly per-household consumption, kW (== kWh per hour), from ``start``.

    Held as a (households, hours) ``matrix``, or as factors: each household's
    ``daily`` kWh, (households, days), times the 24 diurnal ``weights``, so
    that hour k of day d is ``daily[:, d] * weights[k]``. The factors of a
    long span take households x days + 24 floats, where the matrix takes
    households x hours; ``block`` builds the hours asked for. Either form
    must hold finite, non-negative hourly values, checked one ``blocks()``
    block at a time. Two baseloads are equal when they hold the same start,
    households and hourly values, whatever their forms.
    """

    start: Timestamp
    household_ids: tuple[int, ...]
    matrix: np.ndarray | None = None      # shape (households, hours)
    daily: np.ndarray | None = None       # shape (households, days)
    weights: np.ndarray | None = None     # shape (24,)

    def __post_init__(self):
        object.__setattr__(self, "household_ids", tuple(self.household_ids))
        given = tuple(a is not None for a in (self.matrix, self.daily, self.weights))
        if given not in ((True, False, False), (False, True, True)):
            raise ValueError("baseload needs a matrix, or daily factors and weights")
        for name in ("matrix", "daily", "weights"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.start.minutes % 60 != 0:
            raise ValueError("baseload must start on an hour boundary")
        values = self.matrix if self.matrix is not None else self.daily
        if values.ndim != 2 or self.matrix is None and self.weights.shape != (24,):
            raise ValueError("baseload must be a (households, hours) matrix, "
                             "or (households, days) factors and 24 weights")
        if len(values) != len(self.household_ids):
            raise ValueError("baseload rows must match household count")
        for h in self.household_ids:     # as sessions hold their vehicles' ids
            if not isinstance(h, numbers.Integral):
                raise ValueError(f"baseload household id {h!r} is not an integer")
            if not -2**63 <= h < 2**63:
                raise ValueError(f"baseload household id {h} does not fit in 64 bits")
        ids, counts = np.unique(self.household_ids, return_counts=True)
        if (counts > 1).any():
            raise ValueError(f"baseload household id {ids[counts > 1][0]} is repeated")
        negative = False
        with np.errstate(over="ignore", invalid="ignore"):     # a product may overflow
            for block in self.blocks():
                if not np.isfinite(block).all():
                    raise ValueError("baseload values must be finite")
                negative = negative or bool((block < 0).any())
        if negative:
            raise ValueError("baseload must be non-negative")

    @property
    def n_hours(self) -> int:
        return self.matrix.shape[1] if self.matrix is not None else 24 * self.daily.shape[1]

    def block(self, lo: int = 0, hi: int | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
        """The (households, hi - lo) loads of hours [lo, hi) counted from
        ``start``, all of them by default. From the factors, each value is one
        multiply, as ``np.outer`` takes, of the days the hours lie in, made in
        ``out`` if given: a (households, days, 24) buffer with room for them."""
        hi = self.n_hours if hi is None else hi
        if self.matrix is not None:
            return self.matrix[:, lo:hi]
        d0, d1 = lo // 24, -(-hi // 24)
        days = np.multiply(self.daily[:, d0:d1, None], self.weights,
                           out=None if out is None else out[:, :d1 - d0])
        return days.reshape(len(days), 24 * (d1 - d0))[:, lo - 24 * d0:hi - 24 * d0]

    def blocks(self, bounds=None):
        """``block(lo, hi)`` of each (lo, hi) in ``bounds``, by default of each
        run of up to ``_BLOCK_HOURS`` hours, in turn. From the factors, all are
        made in one buffer sized for the longest: a block is valid until the
        next is taken."""
        if bounds is None:
            bounds = [(lo, min(lo + _BLOCK_HOURS, self.n_hours))
                      for lo in range(0, self.n_hours, _BLOCK_HOURS)]
        buffer = None
        if self.matrix is None:
            days = max((-(-hi // 24) - lo // 24 for lo, hi in bounds), default=0)
            buffer = np.empty((len(self.daily), days, 24))
        for lo, hi in bounds:
            yield self.block(lo, hi, buffer)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HouseholdBaseload):
            return NotImplemented
        return self.start == other.start and self.household_ids == other.household_ids \
            and self.n_hours == other.n_hours \
            and all(map(np.array_equal, self.blocks(), other.blocks()))

    def hourly_total(self) -> np.ndarray:
        """The households' summed load in each hour, block by block."""
        return np.concatenate([_hour_sums(b, self.n_hours) for b in self.blocks()])


def _hour_sums(block: np.ndarray, n_hours: int) -> np.ndarray:
    """The column sums of ``block``, cut from a baseload of ``n_hours``
    hours, as numpy sums the columns of the whole: row by row in order. numpy
    sums a single column pairwise, so a one-hour block of a longer baseload
    is summed here in row order. The sums never share memory with ``block``."""
    if block.shape[1] == 1 < n_hours and len(block):
        return reduce(add, block[1:], block[0].copy())
    return block.sum(axis=0)


@dataclass(frozen=True)
class ScenarioData:
    """Immutable inputs shared by all experiments of a run set; only the price,
    CO2 and tariff objects, which every ``simulate`` call reads afresh, may change.

    It also holds, weakly, the charging-physics passes ``run_experiment`` ran
    on it, by physics key; each pass holds the fleet it ran. An output keeps
    its pass, and so its fleet, alive; nothing else does.
    """

    transformer: Transformer
    baseload: HouseholdBaseload
    spot: SpotPriceSeries
    co2: Co2IntensitySeries
    tariffs: dict[str, DistributionTariff]
    catalog: tuple[EvModel, ...]
    adoption_curve: AdoptionCurve
    driving: DrivingPattern
    addons_dkk_per_kwh: float = 0.0
    overload_unit: str = "hours"
    _physics: weakref.WeakValueDictionary = field(
        default_factory=weakref.WeakValueDictionary, init=False, repr=False,
        compare=False)

    def __post_init__(self):
        object.__setattr__(self, "catalog", tuple(self.catalog))
        # here, as __setstate__ runs it again on copies, whose arrays are writeable
        for a in (self.baseload.matrix, self.baseload.daily, self.baseload.weights):
            if a is not None:
                a.flags.writeable = False
        validate_catalog(self.catalog)
        self.adoption_curve.check_households(len(self.household_ids))
        check_overload_unit(self.overload_unit)

    @property
    def household_ids(self) -> tuple[int, ...]:
        """The households, in the order of the baseload's rows."""
        return self.baseload.household_ids

    def tariff(self, mode: str) -> DistributionTariff:
        """The distribution tariff of ``mode``, which the scenario must define."""
        if mode not in self.tariffs:
            raise ValueError(f"scenario defines no {mode!r} tariff"
                             " (add tariff.tou_path for time_of_use)")
        return self.tariffs[mode]

    def __getstate__(self):
        # copies and pickles start without the passes held weakly
        return {k: v for k, v in vars(self).items() if k != "_physics"}

    def __setstate__(self, state):
        self.__init__(**state)


@dataclass(frozen=True)
class ExperimentSpec:
    id: str
    strategy: str
    span: SimulationSpan
    tariff_mode: str = "fixed"
    seed: int = 0
    decision_interval_min: int | None = None
    baseline_id: str | None = None

    def __post_init__(self):
        if self.strategy not in strat.STRATEGY_NAMES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"valid: {', '.join(strat.STRATEGY_NAMES)}")
        if self.tariff_mode not in TARIFF_MODES:
            raise ValueError(f"unknown tariff mode {self.tariff_mode!r}")
        explicit, tick = self.decision_interval_min, self.span.tick_minutes
        if explicit is not None and (explicit <= 0 or explicit % tick != 0):
            raise ValueError(f"decision_interval_min must be a positive multiple "
                             f"of the {tick}-minute tick, got {explicit}")
        # grants hold until the next boundary, so an hour that started inside
        # an interval would keep the grants made for the previous hour's budget
        if explicit is not None and 60 % explicit != 0:
            raise ValueError(f"decision_interval_min must divide 60, so that every "
                             f"hour starts on a decision boundary, got {explicit}")

    @property
    def interval(self) -> int:
        """Minutes between decision boundaries: the explicit value, or the
        strategy's default rounded up to a multiple of the tick that divides 60."""
        if self.decision_interval_min is not None:
            return self.decision_interval_min
        tick = self.span.tick_minutes
        default = strat.DISPATCHERS[self.strategy].default_interval_min
        return next(m for m in range(tick, 61, tick) if m >= default and 60 % m == 0)

    @property
    def physics_key(self) -> tuple:
        """What the charging physics of an experiment depends on besides its
        inputs: experiments with equal keys on one ``ScenarioData`` differ at
        most in their tariff and share one physics pass."""
        return (self.strategy, self.interval, self.span, self.seed)


@dataclass
class VehiclePlan:
    """One vehicle, when it joins the fleet, and its trips in arrival order
    (``Trips.of`` builds them from ``TripEvent`` records). The vehicle's id is
    its household: one of the scenario's, and no other plan's."""

    vehicle: Vehicle
    adoption: Timestamp
    trips: Trips


@dataclass(slots=True)
class ChargeSession:
    vehicle_id: int
    plug_in: Timestamp
    unplug: Timestamp
    delivered_kwh: float


class Sessions(Columns):
    """The charging sessions of a physics pass as vehicle ids, plug-in and
    unplug minutes and delivered energies, one typed array each; indexing and
    iteration yield ``ChargeSession``."""

    __slots__ = ()
    typecodes = "qqqd"
    values_of = attrgetter("vehicle_id", "plug_in.minutes", "unplug.minutes",
                           "delivered_kwh")

    @staticmethod
    def element(vehicle_id: int, plug_in: int, unplug: int,
                delivered_kwh: float) -> ChargeSession:
        return ChargeSession(vehicle_id, Timestamp(plug_in), Timestamp(unplug),
                             delivered_kwh)


@dataclass
class VehicleSummary:
    vehicle_id: int
    model: str
    initial_soc_kwh: float
    final_soc_kwh: float
    delivered_kwh: float
    trip_drain_kwh: float      # actual SoC drained by trips (floor-clamped)


@dataclass
class SimulationOutput:
    """One experiment's results.

    Outputs priced from one charging-physics pass share its load series and
    its session, dissatisfaction and vehicle lists themselves: treat them as
    read-only. Each gets its own ``delivered_by_year``.
    """

    spec: ExperimentSpec
    load: LoadSeries                     # per tick, aggregate
    hourly_max: LoadSeries
    overload_events: list[OverloadEvent]
    reports: list[KpiReport]
    sessions: Sessions
    dissatisfactions: list[tuple[Timestamp, int]]
    vehicles: list[VehicleSummary]
    delivered_by_year: dict[int, dict[int, float]]   # year -> vehicle id -> kWh
    # the physics pass this output was priced from, kept alive while it is
    _physics: _Physics | None = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        # a pickled output (a --parallel worker's result) leaves its physics
        # pass and fleet behind: another process has nothing to share them with
        return {**vars(self), "_physics": None}


class ChargingRecord:
    """One vehicle's charging state in a run: its ``Vehicle`` (as the run found
    it), its rate, state of charge and target, its current grant and the kWh
    one tick of it delivers (``step``, ``strategies.tick_kwh``), the energy of
    its open hour and session, and its next trip.

    The dispatcher objects of ``strategies.DISPATCHERS`` take records in
    ``arrive`` and set ``grant`` and ``step`` together, at the arrival or in
    ``grants``; the engine walks the granted records in ``charge`` and
    ``book_hour``. A run makes one per vehicle, which lives across its
    sessions: a vehicle that leaves and returns within an hour keeps adding
    to the same hour.
    """

    __slots__ = ("vehicle", "vid", "rate", "soc_kwh", "target_kwh", "grant", "step",
                 "hour_kwh", "session_kwh", "session_start", "delivered_kwh",
                 "trip_drain_kwh", "trips", "next_trip")

    def __init__(self, vehicle: Vehicle, trips: Trips):
        self.vehicle = vehicle
        self.vid = vehicle.id
        self.rate = vehicle.model.max_rate_kw
        self.soc_kwh = vehicle.soc_kwh
        self.target_kwh = vehicle.desired_target_kwh
        self.grant = 0.0
        self.step = 0.0
        self.hour_kwh = 0.0            # 0.0 until it charges in the open hour
        self.session_kwh = 0.0
        self.session_start: int | None = None    # None: no open session
        self.delivered_kwh = 0.0
        self.trip_drain_kwh = 0.0
        self.trips = trips             # the plan's trips, in arrival order
        self.next_trip = 0             # the trip its next arrival ends


# the _KINDS event kinds, processed in this order within one minute
_ADOPT, _DEPART, _ARRIVE, _KINDS = 0, 1, 2, 3

# Relative slack of the completion horizon (_Run._horizon): about nine times
# the 2**-53 rounding error of one float operation, so the horizon stays a
# lower bound whatever the rounding of the adds it predicts.
_ROUNDING_SLACK = 1e-15

_VID = attrgetter("vid")


def build_fleet(spec: ExperimentSpec, data: ScenarioData) -> list[VehiclePlan]:
    """Sample adoptions and daily trips for one experiment's span, from the
    streams of the spec's seed: the same seed and span, the same fleet."""
    streams = RngStreams(spec.seed)
    adoptions = sample_adoptions(data.adoption_curve, list(data.household_ids),
                                 data.catalog, streams.stream("adoption"))
    span = spec.span
    plans = []
    for ev in sorted(adoptions, key=lambda e: e.household_id):
        if ev.at.minutes >= span.end.minutes:
            continue
        vehicle = Vehicle(id=ev.household_id, model=ev.model, soc_kwh=ev.model.battery_kwh)
        start = max(ev.at.minutes, span.start.minutes)
        rng = streams.stream(f"trips/{ev.household_id}")
        trips = Trips()
        first_day = start // MINUTES_PER_DAY + (1 if start % MINUTES_PER_DAY else 0)
        for day in range(first_day, span.end.minutes // MINUTES_PER_DAY):
            trip = draw_daily_trip(vehicle, Timestamp(day * MINUTES_PER_DAY),
                                   data.driving, rng)
            if trip is not None and trip[0] >= start and trip[1] < span.end.minutes:
                trips.add(*trip)
        plans.append(VehiclePlan(vehicle, Timestamp(start), trips))
    return plans


def run_experiment(spec: ExperimentSpec, data: ScenarioData) -> SimulationOutput:
    """Build the stochastic fleet from the seed and simulate the span.

    Experiments on one ``data`` with the same seed and span share one fleet:
    that of a live pass registered on ``data`` with the same span and seed,
    else a new one. The output's pass is registered under the spec's physics key.
    """
    span_seed = spec.physics_key[2:]
    plans = next((p.fleet for key, p in data._physics.items() if key[2:] == span_seed),
                 None)
    if plans is None:
        plans = build_fleet(spec, data)
    out = simulate(spec, data, plans)
    data._physics[spec.physics_key] = out._physics
    return out


class _Run:
    """The mutable state of one simulation, advanced one span of ticks at a time.

    A span starts at a stop: its first tick takes the due events and, on a
    decision boundary, the dispatch. After that the grants and the hour stay
    fixed, so only the state of charge moves, and only the span's last tick
    can bring a vehicle to its target.

    ``records`` holds a ``ChargingRecord`` per plan, in vehicle-id order, and
    ``events`` the plans' adoptions, departures and arrivals as sorted keys
    ``(minute * _KINDS + kind) * len(plans) + k``, k the record's place: by
    minute, then kind, then vehicle id. The walk that builds both raises every
    fleet rule, before the first tick.
    A requester stops at its departure or its target, through ``_leave``.
    """

    def __init__(self, spec: ExperimentSpec, data: ScenarioData,
                 plans: list[VehiclePlan]):
        span = spec.span
        self.dt = span.tick_minutes
        self.start = span.start.minutes
        self.n_ticks = span.n_ticks
        self.interval = spec.interval
        self.end = span.end.minutes

        households, n = set(data.household_ids), len(plans)
        self.records, keys = [], array("q")
        for k, p in enumerate(sorted(plans, key=lambda p: p.vehicle.id)):
            vid = p.vehicle.id
            if k and vid == self.records[-1].vid:
                raise ValueError(f"vehicle id {vid} is in more than one plan")
            if vid not in households:       # its charging is billed to its household
                raise ValueError(f"vehicle {vid}: household {vid} "
                                 f"is not one of the scenario's")
            if not isinstance(p.trips, Trips):
                raise TypeError(f"vehicle {vid}: trips must be Trips, "
                                f"not {type(p.trips).__name__}")
            keys.append((p.adoption.minutes * _KINDS + _ADOPT) * n + k)
            earliest = p.adoption.minutes       # the first minute the next trip may depart
            for t, (departure, arrival, energy) in enumerate(zip(*p.trips.columns)):
                if not (earliest <= departure < arrival and 0.0 <= energy < math.inf):
                    raise ValueError(
                        f"vehicle {vid}: trip {t} (minutes {departure} to {arrival}, "
                        f"{energy} kWh) must depart at or after minute {earliest}, arrive "
                        f"after it departs and take a finite, non-negative energy: trips "
                        f"go one at a time, in arrival order, from the adoption on")
                earliest = arrival + 1
                keys.append((departure * _KINDS + _DEPART) * n + k)
                keys.append((arrival * _KINDS + _ARRIVE) * n + k)
            self.records.append(ChargingRecord(p.vehicle, p.trips))
        self.events = array("q", np.sort(np.frombuffer(keys, dtype=np.int64)).tobytes())
        self.keys_per_minute = _KINDS * n
        self.ev_ptr = 0

        self.dispatcher = strat.DISPATCHERS[spec.strategy](self.dt)
        # read here, as _dispatch_pending runs at every stop
        self.dispatch_every_boundary = self.dispatcher.every_boundary
        self.inputs_changed = True     # requests differ from the last call's
        self.last_budget: float | None = None
        self.grants: list[ChargingRecord] = []   # granted now, in vehicle-id order
        self.horizon = -1              # first tick a grant may end; < now: stale

        self.requests: set[int] = set()   # plugged in, below target
        # the records charged in the open hour, in the order of their first charge
        self.hour_records: list[ChargingRecord] = []
        # each closed hour's charging, for the pricing pass: (hour, end of its
        # entries), in hour order, and per entry the vehicle and its kWh
        self.booked: list[tuple[int, int]] = []
        self.booked_vids = array("q")
        self.booked_kwh = array("d")
        self.sessions = Sessions()
        self.dissatisfactions: list[tuple[Timestamp, int]] = []
        # the load as runs: the tick each starts on and its kW
        self.load_starts = array("q")
        self.load_kw = array("d")

    def apply_events(self, m: int) -> None:
        """Phase 1: the adoptions, departures and arrivals due before m + dt; an
        arrival ends its vehicle's next trip, and it plugs in until the one after."""
        events, records, per_minute = self.events, self.records, self.keys_per_minute
        due = (m + self.dt) * per_minute      # the first key not due
        while self.ev_ptr < len(events) and events[self.ev_ptr] < due:
            kind, place = divmod(events[self.ev_ptr] % per_minute, len(records))
            self.ev_ptr += 1
            r = records[place]
            vid = r.vid
            if kind == _DEPART:
                if r.session_start is not None:
                    if not satisfied(r.soc_kwh, r.target_kwh):
                        self.dissatisfactions.append((Timestamp(m), vid))
                    self.sessions.add(vid, r.session_start, m, r.session_kwh)
                    r.session_start = None
                if vid in self.requests:
                    self._leave(r)
                continue
            if kind == _ADOPT:
                arrival = m
            else:
                _, arrivals, energies = r.trips.columns
                k = r.next_trip
                r.next_trip = k + 1
                soc_before = r.soc_kwh
                r.soc_kwh = drain_trip(vid, soc_before, energies[k])
                r.trip_drain_kwh += soc_before - r.soc_kwh
                arrival = arrivals[k]
            r.session_start = m
            r.session_kwh = 0.0
            if not satisfied(r.soc_kwh, r.target_kwh):
                departures = r.trips.columns[0]
                departure = departures[r.next_trip] \
                    if r.next_trip < len(departures) else self.end
                self.requests.add(vid)
                self.dispatcher.arrive(r, arrival, departure)
                self.inputs_changed = True

    def _leave(self, r: ChargingRecord) -> None:
        """r stops requesting: it leaves the grant list (if it is there), the
        requests and the dispatcher, whose inputs have changed."""
        grants = self.grants
        k = bisect_left(grants, r.vid, key=_VID)
        if k < len(grants) and grants[k] is r:
            del grants[k]
        self.requests.remove(r.vid)
        self.dispatcher.leave(r.vid)
        self.inputs_changed = True

    def _dispatch_pending(self, budget: float) -> bool:
        """Whether the dispatcher may answer otherwise than on its last call."""
        return self.dispatch_every_boundary or self.inputs_changed \
            or budget != self.last_budget

    def dispatch_due(self, budget: float) -> None:
        """Phase 3, on a decision boundary: new grants, unless the dispatcher
        would repeat the grants of its last call, which are still held."""
        if not self._dispatch_pending(budget):
            return
        self.grants = self.dispatcher.grants(budget)
        self.inputs_changed = False
        self.last_budget = budget
        self.horizon = -1

    def next_stop(self, i: int, hour_end: int, budget: float) -> int:
        """The tick after tick i at which the next span starts: the tick of
        the next event, the next hour, the next decision boundary if the
        dispatcher's inputs changed, or the tick after the earliest tick at
        which a grant may end."""
        dt = self.dt
        j = hour_end
        if self.ev_ptr < len(self.events):
            j = min(j, (self.events[self.ev_ptr] // self.keys_per_minute - self.start) // dt)
        if self._dispatch_pending(budget):
            boundary = ((self.start + i * dt) // self.interval + 1) * self.interval
            j = min(j, (boundary - self.start) // dt)
        if j > i + 1 and self.grants:
            if self.horizon < i:
                self.horizon = self._horizon(i)
            j = min(j, self.horizon + 1)
        return j

    def _horizon(self, i: int) -> int:
        """The earliest tick, from tick i on, at which a granted vehicle may
        reach its target.

        A vehicle that charges d kWh per tick finishes on the first tick with
        d >= target - soc. Each tick adds d to its soc, plus at most half an
        ulp of rounding, so n = (target - soc - d) / d, shrunk by
        _ROUNDING_SLACK, is a lower bound on the ticks it charges before. The
        ticks before are whole, so there are at least ceil(n) of them, and
        tick i + ceil(n) is the first on which it may finish (i itself when
        n <= 0).
        """
        shrink, grow = 1.0 - _ROUNDING_SLACK, 1.0 + _ROUNDING_SLACK
        ticks = self.n_ticks - i
        for r in self.grants:
            d = r.step
            if d > 0.0:
                target = r.target_kwh
                n = ((target - r.soc_kwh) * shrink - d * grow) \
                    / (d + _ROUNDING_SLACK * (target + d))
                if n < ticks:
                    if n <= 0.0:
                        return i
                    ticks = math.ceil(n)
        return i + ticks

    def charge(self, i: int, j: int, base_kw: float) -> None:
        """Phases 4 and 5 for the span [i, j): each granted vehicle takes its
        grant's energy on every tick, added one tick at a time so the float
        sums are those of a per-tick loop; only the last tick can reach a
        target and release the grant. The span's load is a run on its quiet
        ticks and one on its last."""
        dt = self.dt
        quiet = j - i - 1
        quiet_sum = last_sum = 0.0
        released = []
        hour_records = self.hour_records
        # the grants' id order keeps the float sums independent of the
        # dispatcher's order; a record joins hour_records on its first charge
        # of the hour, while its hour_kwh is still 0.0
        for r in self.grants:
            d = r.step
            soc = r.soc_kwh
            if quiet and d > 0.0:
                if r.hour_kwh == 0.0:
                    hour_records.append(r)
                hour, session = r.hour_kwh, r.session_kwh
                for _ in range(quiet):
                    soc += d
                    hour += d
                    session += d
                r.hour_kwh, r.session_kwh = hour, session
                quiet_sum += d
            headroom = r.target_kwh - soc
            if d >= headroom:
                d = headroom
                released.append(r)
            if d > 0.0:
                soc += d
                last_sum += d
                if r.hour_kwh == 0.0:
                    hour_records.append(r)
                r.hour_kwh += d
                r.session_kwh += d
            r.soc_kwh = soc
        for r in released:
            self._leave(r)

        if quiet:
            self._load_run(i, base_kw + quiet_sum * 60.0 / dt)
        self._load_run(j - 1, base_kw + last_sum * 60.0 / dt)

    def _load_run(self, i: int, kw: float) -> None:
        """The load is kw from tick i on: a new run, unless the last run holds
        kw's bit pattern already (as a NaN, unequal to itself, may: then
        ``LoadSeries.from_runs`` joins the two)."""
        kws = self.load_kw
        if not kws or kws[-1] != kw or math.copysign(1.0, kws[-1]) != math.copysign(1.0, kw):
            self.load_starts.append(i)
            kws.append(kw)

    def book_hour(self, h: int) -> None:
        """Add the closed hour h's charging to each vehicle's delivered energy,
        and record it, in the hour's order of vehicles, for the pricing pass."""
        vids, kwhs = self.booked_vids, self.booked_kwh
        for r in self.hour_records:
            vid, kwh = r.vid, r.hour_kwh
            r.delivered_kwh += kwh
            vids.append(vid)
            kwhs.append(kwh)
            r.hour_kwh = 0.0
        self.booked.append((h, len(vids)))
        self.hour_records.clear()

    def close_sessions(self, end_minute: int) -> None:
        """End the sessions still plugged in at the end of the span."""
        for r in self.records:
            if r.session_start is not None:
                self.sessions.add(r.vid, r.session_start, end_minute, r.session_kwh)


@dataclass
class _Physics:
    """One charging-physics pass: everything of a run its tariff does not change."""

    fleet: list[VehiclePlan]       # the plans it ran, kept alive with it
    load: LoadSeries
    hourly_max: LoadSeries
    sessions: Sessions
    dissatisfactions: list[tuple[Timestamp, int]]
    vehicles: list[VehicleSummary]
    booked: list[tuple[int, int]]            # see _Run.book_hour
    booked_vids: array
    booked_kwh: array


def simulate(spec: ExperimentSpec, data: ScenarioData,
             plans: list[VehiclePlan]) -> SimulationOutput:
    """Run one experiment on a prepared fleet: its charging physics, priced
    at ``spec.tariff_mode``. ``plans`` is left as it was found; any order
    will do, and a plan the engine cannot run (see ``_Run``) is rejected
    before the first tick.

    The pass ``run_experiment`` registered on ``data`` under the spec's
    physics key is reused if it ran ``plans`` itself: the tariff changes no
    dispatch decision, and neither that fleet nor ``data``'s physics inputs can
    have changed. Any other fleet gets a pass of its own.
    """
    span = spec.span
    tariff = data.tariff(spec.tariff_mode)

    # hourly context arrays over the span
    first_hour = hours_covering(data.baseload.start, data.baseload.n_hours, span).start
    spot_h = data.spot.slice_hours(span)
    co2_h = data.co2.slice_hours(span)
    tariff_h = tariff.hourly_rates(span)
    price_h = spot_h + tariff_h + data.addons_dkk_per_kwh

    # the baseload one year's block at a time, all in one buffer, which is
    # dropped before the charging pass
    years = [(y, (y0 - span.start.minutes) // 60, (y1 - span.start.minutes) // 60)
             for y, y0, y1 in span.year_bounds()]
    blocks = data.baseload.blocks([(first_hour + h0, first_hour + h1) for _, h0, h1 in years])
    base_totals, bills = [], {}
    for (y, h0, h1), block in zip(years, blocks):
        base_totals.append(_hour_sums(block, span.n_hours))
        bills[y] = [block @ rates[h0:h1] for rates in (price_h, tariff_h, co2_h)]
    del block, blocks

    physics = data._physics.get(spec.physics_key)
    if physics is None or physics.fleet is not plans:
        physics = _charge(spec, data, np.concatenate(base_totals), plans)
    return _price(spec, data, physics, years, bills,
                  price_h.tolist(), tariff_h.tolist(), co2_h.tolist())


def _charge(spec: ExperimentSpec, data: ScenarioData, base_total_h: np.ndarray,
            plans: list[VehiclePlan]) -> _Physics:
    """The charging-physics pass: the deterministic core loop over the span."""
    span = spec.span
    dt = span.tick_minutes
    n_ticks = span.n_ticks
    interval = spec.interval
    base_h = base_total_h.tolist()
    budget_h = available_capacity(data.transformer, base_total_h).tolist()

    start_min = span.start.minutes
    run = _Run(spec, data, plans)

    per_hour = 60 // dt
    i = 0
    while i < n_ticks:
        h = i // per_hour
        m = start_min + i * dt
        run.apply_events(m)
        # phase 2: this hour's baseload, base_h[h], and the budget it leaves
        if m % interval == 0:
            run.dispatch_due(budget_h[h])
        j = run.next_stop(i, (h + 1) * per_hour, budget_h[h])
        run.charge(i, j, base_h[h])
        if j % per_hour == 0 and run.hour_records:
            run.book_hour(h)
        i = j
    run.close_sessions(span.end.minutes)

    # outputs priced from this pass share the load series
    load_series = LoadSeries.from_runs(span.start, dt, n_ticks,
                                       np.frombuffer(run.load_starts, dtype=np.int64),
                                       np.frombuffer(run.load_kw))

    summaries = [VehicleSummary(
        vehicle_id=r.vid, model=r.vehicle.model.name,
        initial_soc_kwh=r.vehicle.soc_kwh, final_soc_kwh=r.soc_kwh,
        delivered_kwh=r.delivered_kwh, trip_drain_kwh=r.trip_drain_kwh)
        for r in run.records]

    return _Physics(
        fleet=plans, load=load_series, hourly_max=hourly_max(load_series),
        sessions=run.sessions, dissatisfactions=run.dissatisfactions, vehicles=summaries,
        booked=run.booked, booked_vids=run.booked_vids, booked_kwh=run.booked_kwh)


def _price(spec: ExperimentSpec, data: ScenarioData, physics: _Physics,
           years: list[tuple[int, int, int]], bills: dict[int, list[np.ndarray]],
           price_h: list[float], tariff_h: list[float], co2_h: list[float]) -> SimulationOutput:
    """The pricing pass: each year's ledger (charging and baseload bills, CO2,
    DSO revenue, dissatisfactions, overloads, EV owners) and its KPI report.
    ``years`` holds each calendar year of the span with its first and end hour,
    counted from the span start. ``bills`` holds each year's baseload cost,
    tariff and CO2 per household, in the order of ``data.household_ids``.
    The hourly price, tariff and CO2 come as Python floats, so the ledger's
    sums, and the report figures made of them, are floats too."""
    start_min = spec.span.start.minutes
    booked, vids, kwhs = physics.booked, physics.booked_vids, physics.booked_kwh
    reports, all_events, delivered_by_year = [], [], {}
    k = entry = 0           # the year's first booked hour, and that hour's first entry
    for y, h0, h1 in years:
        y0, y1 = start_min + 60 * h0, start_min + 60 * h1
        led = YearLedger(year=y, dissatisfaction_count=sum(
            y0 <= t.minutes < y1 for t, _ in physics.dissatisfactions))
        delivered_by_year[y] = led.charging_kwh

        # each closed hour's charging at its prices. The charged kWh take the
        # adds of the vehicles' delivered energy, in its order; the ledger's
        # dict order, which assemble_report's sums follow, is the booking order
        year_end = bisect_left(booked, (h1,), k)
        for h, end in booked[k:year_end]:
            price, tariff, co2 = price_h[h], tariff_h[h], co2_h[h]
            for vid, kwh in zip(vids[entry:end], kwhs[entry:end]):
                led.charging_kwh[vid] = led.charging_kwh.get(vid, 0.0) + kwh
                led.charging_cost[vid] = led.charging_cost.get(vid, 0.0) + kwh * price
                led.charging_tariff[vid] = led.charging_tariff.get(vid, 0.0) + kwh * tariff
                led.charging_co2[vid] = led.charging_co2.get(vid, 0.0) + kwh * co2
            entry = end
        k = year_end

        # overloads, hourly maxima, baseload billing and the EV owners by its end
        evts = detect_overloads(physics.load.slice_minutes(y0, y1), data.transformer)
        led.overload_events = evts
        all_events.extend(evts)
        led.hourly_max_load = physics.hourly_max.slice_minutes(y0, y1).values

        cost, tar, co2 = bills[y]
        for row, hid in enumerate(data.household_ids):
            led.baseload_cost[hid] = float(cost[row])
            led.baseload_tariff[hid] = float(tar[row])
            led.baseload_co2[hid] = float(co2[row])
        led.ev_households = sorted(p.vehicle.id for p in physics.fleet
                                   if p.adoption.minutes < y1)
        reports.append(assemble_report(led, data.overload_unit))

    return SimulationOutput(
        spec=spec, load=physics.load, hourly_max=physics.hourly_max,
        overload_events=all_events, reports=reports, sessions=physics.sessions,
        dissatisfactions=physics.dissatisfactions, vehicles=physics.vehicles,
        delivered_by_year=delivered_by_year, _physics=physics)
