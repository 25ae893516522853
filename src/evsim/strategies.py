"""Dispatch layer: split the available-capacity budget among charging requests.

All centralized strategies admit vehicles at their full rate in a strict
order with head-of-line blocking, except Equal Charge which water-fills a
common rate. Grants hold between decision boundaries; the engine releases
them on departure or target reached.

Each strategy exists twice. The ``dispatch_*`` functions take the whole
request list on every call; they are the reference that the tests and the
per-tick oracle (``tests/reference_engine.py``) call. The engine runs one
dispatcher object per run instead (``DISPATCHERS``), built for the run's tick
in minutes, which keeps its order up to date as requests arrive and leave:

- ``arrive(record, arrival_min, departure_min)`` takes the vehicle's charging
  record (``engine.ChargingRecord``), which gives its id (``vid``) and rate;
  a dispatcher that grants only full rates sets the record's ``grant`` and
  ``step`` here, once, and the engine reads them only while it is granted;
- ``leave(vid)`` drops it at its departure or target (``_Run._leave``);
- ``grants(budget)`` returns the granted records in vehicle-id order, a list
  the caller may change; Equal Charge sets ``grant`` and ``step`` on each of
  them first. The (id, grant) pairs equal the function called on the current
  requests in vehicle-id order, and every returned record's ``step`` is
  ``tick_kwh(grant, tick)``. FCFS and Round Robin take the arrivals and
  departures since the last call in at the next (``_Queued``), as their
  functions would.

Each class also carries what the engine must know of its strategy (see
``Dispatcher``), so ``DISPATCHERS`` is the one table of strategies.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

from .timebase import Timestamp

CAPACITY_EPS = 1e-9


@dataclass(frozen=True)
class ChargeRequest:
    vehicle_id: int
    max_rate_kw: float
    remaining_kwh: float
    arrival: Timestamp
    planned_departure: Timestamp | None = None


Allocation = dict[int, float]   # vehicle id -> granted kW


def dispatch_traditional(requests: list[ChargeRequest],
                         capacity_kw: float) -> Allocation:
    """Plug-in-and-charge baseline: everyone at full rate, capacity ignored."""
    return {r.vehicle_id: r.max_rate_kw for r in requests}


def _greedy_admit(ordered: list[ChargeRequest], budget: float) -> Allocation:
    """Admit requests at full rate in order until the head no longer fits."""
    grants: Allocation = {}
    residual = budget
    for r in ordered:
        if r.max_rate_kw <= residual + CAPACITY_EPS:
            grants[r.vehicle_id] = r.max_rate_kw
            residual -= r.max_rate_kw
        else:
            break   # head-of-line blocking: no skip-ahead
    return grants


@dataclass
class FcfsState:
    """Waiting FIFO plus the set of currently-admitted chargers."""

    queue: list[int] = field(default_factory=list)
    active: dict[int, float] = field(default_factory=dict)
    known: set[int] = field(default_factory=set)


def dispatch_fcfs(state: FcfsState, requests: list[ChargeRequest],
                  capacity_kw: float) -> Allocation:
    by_id = {r.vehicle_id: r for r in requests}

    # departed or satisfied vehicles leave both structures
    state.queue = [vid for vid in state.queue if vid in by_id]
    state.active = {vid: kw for vid, kw in state.active.items() if vid in by_id}
    state.known &= set(by_id)

    newcomers = sorted((r for r in requests if r.vehicle_id not in state.known),
                       key=lambda r: (r.arrival.minutes, r.vehicle_id))
    for r in newcomers:
        state.queue.append(r.vehicle_id)
        state.known.add(r.vehicle_id)

    # a shrinking budget preempts the most recently admitted chargers;
    # they rejoin at the queue head, which preserves arrival order
    while state.active and sum(state.active.values()) > capacity_kw + CAPACITY_EPS:
        vid = next(reversed(state.active))
        del state.active[vid]
        state.queue.insert(0, vid)

    residual = capacity_kw - sum(state.active.values())
    while state.queue:
        head = by_id[state.queue[0]]
        if head.max_rate_kw > residual + CAPACITY_EPS:
            break
        state.active[head.vehicle_id] = head.max_rate_kw
        residual -= head.max_rate_kw
        state.queue.pop(0)

    return dict(state.active)


@dataclass
class RoundRobinState:
    """Rotation queue plus per-vehicle charging-streak bookkeeping."""

    queue: list[int] = field(default_factory=list)
    streaks: dict[int, int] = field(default_factory=dict)
    last_granted: set[int] = field(default_factory=set)


def dispatch_round_robin(state: RoundRobinState, requests: list[ChargeRequest],
                         capacity_kw: float) -> Allocation:
    by_id = {r.vehicle_id: r for r in requests}

    state.queue = [vid for vid in state.queue if vid in by_id]
    known = set(state.queue)
    newcomers = sorted((r for r in requests if r.vehicle_id not in known),
                       key=lambda r: (r.arrival.minutes, r.vehicle_id))
    state.queue.extend(r.vehicle_id for r in newcomers)
    state.streaks = {vid: state.streaks.get(vid, 0) for vid in state.queue}

    # rotate only under excess demand: pause the longest-streak charger
    waiting = [vid for vid in state.queue if vid not in state.last_granted]
    chargers = [vid for vid in state.queue if vid in state.last_granted]
    if waiting and chargers:
        victim = max(chargers,
                     key=lambda vid: (state.streaks.get(vid, 0),
                                      -by_id[vid].arrival.minutes, -vid))
        state.queue.remove(victim)
        state.queue.append(victim)

    grants = _greedy_admit([by_id[vid] for vid in state.queue], capacity_kw)

    for vid in state.queue:
        if vid in grants:
            state.streaks[vid] = state.streaks.get(vid, 0) + 1 \
                if vid in state.last_granted else 1
        else:
            state.streaks[vid] = 0
    state.last_granted = set(grants)
    return grants


def dispatch_equal_charge(requests: list[ChargeRequest],
                          capacity_kw: float) -> Allocation:
    """Water-filling: one common rate for all, capped per vehicle at its max.

    The level is solved exactly by a sort-and-scan over the rate caps.
    """
    if not requests:
        return {}
    total_caps = sum(r.max_rate_kw for r in requests)
    if total_caps <= capacity_kw + CAPACITY_EPS:
        return {r.vehicle_id: r.max_rate_kw for r in requests}

    by_cap = sorted(requests, key=lambda r: (r.max_rate_kw, r.vehicle_id))
    grants: Allocation = {}
    residual = capacity_kw
    remaining = len(by_cap)
    for i, r in enumerate(by_cap):
        level = residual / remaining
        if r.max_rate_kw <= level:
            # slow chargers below the common level are unaffected
            grants[r.vehicle_id] = r.max_rate_kw
            residual -= r.max_rate_kw
            remaining -= 1
        else:
            for rr in by_cap[i:]:
                grants[rr.vehicle_id] = level
            break
    return grants


def dispatch_edf(requests: list[ChargeRequest],
                 capacity_kw: float) -> Allocation:
    """Earliest planned departure first, fully preemptive each boundary."""
    def deadline(r: ChargeRequest) -> tuple:
        dep = r.planned_departure.minutes if r.planned_departure else float("inf")
        return (dep, r.arrival.minutes, r.vehicle_id)

    return _greedy_admit(sorted(requests, key=deadline), capacity_kw)


_VID = attrgetter("vid")


def tick_kwh(kw: float, tick: int) -> float:
    """The energy, kWh, that ``kw`` delivers over one tick of ``tick``
    minutes: a record's ``step`` for its ``grant``."""
    return kw * tick / 60.0


def _admit(ordered, budget: float) -> list:
    """``_greedy_admit`` on charging records granted their rates at arrival:
    admit each in order until the head no longer fits, and return the admitted
    records in vehicle-id order. The reference functions keep their own copy,
    so that they stay independent of the objects."""
    granted = []
    residual = budget
    for r in ordered:
        rate = r.rate
        if rate <= residual + CAPACITY_EPS:
            granted.append(r)
            residual -= rate
        else:
            break   # head-of-line blocking: no skip-ahead
    granted.sort(key=_VID)
    return granted


class Dispatcher:
    """Base of the dispatcher classes: what the engine must know of a
    strategy besides its methods. A class sets only what differs from these."""

    # minutes between decision boundaries when the experiment sets none
    default_interval_min = 1
    # whether a call with the requests and budget of the last one may grant
    # otherwise or change the dispatcher's state; if not, the engine skips it
    every_boundary = False

    def __init__(self, tick: int):
        self.tick = tick          # minutes per tick of the run

    def _grant_rate(self, record) -> None:
        """Grant ``record`` its full rate, as the dispatchers that grant
        nothing less do once, at its arrival."""
        record.grant = record.rate
        record.step = tick_kwh(record.rate, self.tick)


class TraditionalDispatcher(Dispatcher):
    """``dispatch_traditional`` kept up to date: the requesters in id order,
    each granted its rate from its arrival on."""

    def __init__(self, tick: int):
        super().__init__(tick)
        self.records: list = []

    def arrive(self, record, arrival_min: int, departure_min: int) -> None:
        self._grant_rate(record)
        insort(self.records, record, key=_VID)

    def leave(self, vid: int) -> None:
        del self.records[bisect_left(self.records, vid, key=_VID)]

    def grants(self, budget: float) -> list:
        return self.records.copy()


class EdfDispatcher(Dispatcher):
    """``dispatch_edf`` kept up to date: the requests sorted by (departure,
    arrival, id)."""

    def __init__(self, tick: int):
        super().__init__(tick)
        self.order: list[tuple] = []          # (departure, arrival, id, record)
        self.entry: dict[int, tuple] = {}

    def arrive(self, record, arrival_min: int, departure_min: int) -> None:
        self._grant_rate(record)
        self.entry[record.vid] = entry = (departure_min, arrival_min, record.vid, record)
        insort(self.order, entry)

    def leave(self, vid: int) -> None:
        del self.order[bisect_left(self.order, self.entry.pop(vid))]

    def grants(self, budget: float) -> list:
        return _admit((e[3] for e in self.order), budget)


class EqualChargeDispatcher(Dispatcher):
    """``dispatch_equal_charge`` kept up to date: the requesters and their rate
    caps in id order, so the caps add in the function's order, and sorted by
    (cap, id) for the water-fill."""

    def __init__(self, tick: int):
        super().__init__(tick)
        self.records: list = []
        self.caps: list[float] = []
        self.by_cap: list[tuple] = []         # (cap, id, record)

    def arrive(self, record, arrival_min: int, departure_min: int) -> None:
        k = bisect_left(self.records, record.vid, key=_VID)
        self.records.insert(k, record)
        self.caps.insert(k, record.rate)
        insort(self.by_cap, (record.rate, record.vid, record))

    def leave(self, vid: int) -> None:
        k = bisect_left(self.records, vid, key=_VID)
        del self.by_cap[bisect_left(self.by_cap, (self.caps[k], vid))]
        del self.records[k]
        del self.caps[k]

    def grants(self, budget: float) -> list:
        tick = self.tick
        if sum(self.caps) <= budget + CAPACITY_EPS:
            for r in self.records:
                r.grant = r.rate
                r.step = tick_kwh(r.rate, tick)
        else:
            residual, remaining = budget, len(self.by_cap)
            for i, (cap, _, r) in enumerate(self.by_cap):
                level = residual / remaining
                if cap > level:     # so is every larger cap: all take the level
                    step = tick_kwh(level, tick)
                    for _, _, r in self.by_cap[i:]:
                        r.grant = level
                        r.step = step
                    break
                # slow chargers below the common level are unaffected
                r.grant = cap
                r.step = tick_kwh(cap, tick)
                residual -= cap
                remaining -= 1
        return self.records.copy()


class _Queued(Dispatcher):
    """The requesters of a strategy that keeps a queue across calls.

    ``dispatch_fcfs`` and ``dispatch_round_robin`` see only the requests
    present at call time. So ``arrive`` and ``leave`` only note the vehicle in
    ``changed``, and ``_settle`` alone decides at the next ``grants`` call,
    in O(changes), what each change means. Subclasses keep the ``queue`` and
    take a vehicle out in ``_drop``.
    """

    def __init__(self, tick: int):
        super().__init__(tick)
        self.requests: dict[int, tuple] = {}   # id -> (record, arrival)
        self.known: set[int] = set()       # queued or charging after the last call
        self.changed: set[int] = set()     # arrived or left since the last call

    def arrive(self, record, arrival_min: int, departure_min: int) -> None:
        self._grant_rate(record)
        self.requests[record.vid] = (record, arrival_min)
        self.changed.add(record.vid)

    def leave(self, vid: int) -> None:
        del self.requests[vid]
        self.changed.add(vid)

    def _settle(self) -> None:
        """Take in the changes since the last call as the function sees them,
        by what each vehicle was then and is now: a known vehicle still (or
        again) requesting keeps its place, a known one that left is dropped, a
        newcomer is queued in (arrival, id) order, and one that arrived and
        left in between is never seen."""
        requests, known = self.requests, self.known
        newcomers = []
        for vid in self.changed:
            if vid in known:
                if vid not in requests:
                    known.remove(vid)
                    self._drop(vid)
            elif vid in requests:
                newcomers.append((requests[vid][1], vid))
        self.changed.clear()
        newcomers.sort()
        self.queue.extend(vid for _, vid in newcomers)
        known.update(vid for _, vid in newcomers)


class FcfsDispatcher(_Queued):
    """``dispatch_fcfs`` with its ``FcfsState`` kept up to date, and the
    admitted records in vehicle-id order (``granted``)."""

    def __init__(self, tick: int):
        super().__init__(tick)
        self.queue: deque[int] = deque()
        self.active: dict[int, float] = {}    # id -> rate, in admission order
        self.granted: list = []

    def _drop(self, vid: int) -> None:
        if vid in self.active:
            del self.active[vid]
            del self.granted[bisect_left(self.granted, vid, key=_VID)]
        else:
            self.queue.remove(vid)

    def grants(self, budget: float) -> list:
        self._settle()
        active, queue, requests, granted = self.active, self.queue, self.requests, self.granted
        total = sum(active.values())
        while active and total > budget + CAPACITY_EPS:
            vid, _ = active.popitem()       # the most recently admitted
            del granted[bisect_left(granted, vid, key=_VID)]
            queue.appendleft(vid)
            total = sum(active.values())
        residual = budget - total
        while queue:
            r = requests[queue[0]][0]
            if r.rate > residual + CAPACITY_EPS:
                break
            active[queue.popleft()] = r.rate
            insort(granted, r, key=_VID)
            residual -= r.rate
        return granted.copy()


class RoundRobinDispatcher(_Queued):
    """``dispatch_round_robin`` with its ``RoundRobinState`` kept up to date.

    Only the vehicles granted on the last call have a streak above 0, so
    ``streaks`` holds just those: its keys are the last call's grants.
    """

    default_interval_min = 15    # the paper's 15-minute rotation cycle
    every_boundary = True        # each call advances the charging streaks

    def __init__(self, tick: int):
        super().__init__(tick)
        self.queue: list[int] = []
        self.streaks: dict[int, int] = {}

    def _drop(self, vid: int) -> None:
        self.queue.remove(vid)
        self.streaks.pop(vid, None)

    def grants(self, budget: float) -> list:
        self._settle()
        queue, requests, streaks = self.queue, self.requests, self.streaks
        # rotate only under excess demand: pause the longest-streak charger
        if streaks and len(queue) > len(streaks):
            victim = max(streaks, key=lambda vid: (streaks[vid], -requests[vid][1], -vid))
            queue.remove(victim)
            queue.append(victim)
        granted = _admit((requests[vid][0] for vid in queue), budget)
        self.streaks = {r.vid: streaks.get(r.vid, 0) + 1 for r in granted}
        return granted


DISPATCHERS = {
    "traditional": TraditionalDispatcher,
    "round_robin": RoundRobinDispatcher,
    "fcfs": FcfsDispatcher,
    "equal_charge": EqualChargeDispatcher,
    "edf": EdfDispatcher,
}

STRATEGY_NAMES = tuple(DISPATCHERS)
