"""Dispatch layer: split the available-capacity budget among charging requests.

All centralized strategies admit vehicles at their full rate in a strict
order with head-of-line blocking, except Equal Charge which water-fills a
common rate. Grants hold between decision boundaries; the engine releases
them on departure or target reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .timebase import Timestamp

CAPACITY_EPS = 1e-9

STRATEGY_NAMES = ("traditional", "round_robin", "fcfs", "equal_charge", "edf")

# Round Robin is interval-based (the 15-minute cycle); the others react
# every engine tick by default.
DEFAULT_DECISION_INTERVAL_MIN = {
    "traditional": 1,
    "round_robin": 15,
    "fcfs": 1,
    "equal_charge": 1,
    "edf": 1,
}


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
