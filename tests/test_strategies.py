import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsim import strategies
from evsim.engine import ChargingRecord, ExperimentSpec, simulate
from evsim.fleet import EvModel, Trips, Vehicle
from evsim.strategies import (CAPACITY_EPS, DISPATCHERS, STRATEGY_NAMES,
                              ChargeRequest, FcfsState, RoundRobinState,
                              dispatch_edf, dispatch_equal_charge, dispatch_fcfs,
                              dispatch_round_robin, dispatch_traditional)
from evsim.timebase import Timestamp

from conftest import flat_data, make_span
from reference_engine import _dispatcher as reference_dispatcher


def req(vid, rate, remaining=10.0, arrival=0, departure=None):
    return ChargeRequest(vehicle_id=vid, max_rate_kw=rate,
                         remaining_kwh=remaining, arrival=Timestamp(arrival),
                         planned_departure=None if departure is None
                         else Timestamp(departure))


def waterfill_bisect(caps, capacity):
    """Independent oracle: solve the common level by bisection."""
    total = sum(caps)
    if total <= capacity:
        return list(caps)
    lo, hi = 0.0, max(caps)
    for _ in range(200):
        mid = (lo + hi) / 2
        if sum(min(c, mid) for c in caps) > capacity:
            hi = mid
        else:
            lo = mid
    level = (lo + hi) / 2
    return [min(c, level) for c in caps]


class TestTraditional:
    def test_overload_by_design(self):
        grants = dispatch_traditional([req(1, 11.0), req(2, 3.7)], 10.0)
        assert grants == {1: 11.0, 2: 3.7}
        assert sum(grants.values()) > 10.0

    def test_empty(self):
        assert dispatch_traditional([], 400.0) == {}

    def test_single(self):
        assert dispatch_traditional([req(1, 3.7)], 400.0) == {1: 3.7}


class TestEqualCharge:
    def test_spares_slow_chargers(self):
        grants = dispatch_equal_charge([req(1, 11.0), req(2, 3.7)], 10.0)
        assert grants[1] == pytest.approx(6.3)
        assert grants[2] == pytest.approx(3.7)

    def test_unconstrained_all_at_cap(self):
        grants = dispatch_equal_charge([req(1, 11.0), req(2, 3.7)], 100.0)
        assert grants == {1: 11.0, 2: 3.7}

    def test_symmetric_split(self):
        grants = dispatch_equal_charge([req(1, 11.0), req(2, 11.0)], 6.0)
        assert grants[1] == pytest.approx(3.0)
        assert grants[2] == pytest.approx(3.0)

    def test_empty(self):
        assert dispatch_equal_charge([], 10.0) == {}

    @given(st.lists(st.sampled_from([3.7, 7.4, 11.0, 22.0]), min_size=1, max_size=8),
           st.floats(0.0, 100.0))
    @settings(max_examples=300)
    def test_matches_bisection_oracle(self, caps, capacity):
        requests = [req(i, c) for i, c in enumerate(caps)]
        grants = dispatch_equal_charge(requests, capacity)
        expected = waterfill_bisect(caps, capacity)
        for i, c in enumerate(caps):
            assert grants[i] == pytest.approx(expected[i], abs=1e-6)
        assert sum(grants.values()) <= capacity + 1e-6 or sum(caps) <= capacity

    @given(st.lists(st.floats(1.0, 22.0), min_size=2, max_size=8),
           st.floats(0.0, 50.0))
    def test_unsaturated_get_equal_rates(self, caps, capacity):
        grants = dispatch_equal_charge([req(i, c) for i, c in enumerate(caps)],
                                       capacity)
        unsaturated = [grants[i] for i, c in enumerate(caps)
                       if grants[i] < c - 1e-12]
        assert all(g == pytest.approx(unsaturated[0]) for g in unsaturated)


class TestFcfs:
    def test_all_fit(self):
        state = FcfsState()
        grants = dispatch_fcfs(state, [req(1, 11.0), req(2, 3.7)], 100.0)
        assert grants == {1: 11.0, 2: 3.7}

    def test_third_waits_until_one_finishes(self):
        state = FcfsState()
        requests = [req(1, 11.0, arrival=0), req(2, 11.0, arrival=1),
                    req(3, 11.0, arrival=2)]
        grants = dispatch_fcfs(state, requests, 22.0)
        assert set(grants) == {1, 2}
        # vehicle 1 finishes; 3 is admitted
        grants = dispatch_fcfs(state, requests[1:], 22.0)
        assert set(grants) == {2, 3}

    def test_head_of_line_blocking(self):
        state = FcfsState()
        requests = [req(1, 11.0, arrival=0), req(2, 11.0, arrival=1),
                    req(3, 3.7, arrival=2)]
        grants = dispatch_fcfs(state, requests, 16.0)
        # head (11) fits; next head (11) does not; 3.7 behind it must wait
        assert set(grants) == {1}

    def test_arrival_order_respected_across_boundaries(self):
        state = FcfsState()
        start_order = []
        present = [req(1, 11.0, arrival=5), req(2, 11.0, arrival=3)]
        for step in range(6):
            if step == 2:
                present.append(req(3, 11.0, arrival=10))
            grants = dispatch_fcfs(state, present, 11.0)
            for vid in grants:
                if vid not in start_order:
                    start_order.append(vid)
            # each granted vehicle finishes within the step, freeing the slot
            present = [r for r in present if r.vehicle_id not in grants]
        assert start_order == [2, 1, 3]   # matches arrival order 3 < 5 < 10

    def test_budget_drop_preempts_most_recent(self):
        state = FcfsState()
        requests = [req(1, 11.0, arrival=0), req(2, 11.0, arrival=1)]
        grants = dispatch_fcfs(state, requests, 22.0)
        assert set(grants) == {1, 2}
        grants = dispatch_fcfs(state, requests, 15.0)
        assert set(grants) == {1}
        assert state.queue[0] == 2


class TestRoundRobin:
    def test_all_fit_no_rotation(self):
        state = RoundRobinState()
        requests = [req(1, 11.0), req(2, 11.0)]
        for _ in range(4):
            grants = dispatch_round_robin(state, requests, 100.0)
            assert set(grants) == {1, 2}

    def test_three_evs_capacity_for_two(self):
        # brute-force rotation over 3 intervals: each EV charges exactly 2
        state = RoundRobinState()
        requests = [req(i, 11.0, arrival=i) for i in (1, 2, 3)]
        charged = {1: 0, 2: 0, 3: 0}
        for _ in range(3):
            grants = dispatch_round_robin(state, requests, 22.0)
            assert len(grants) == 2
            for vid in grants:
                charged[vid] += 1
        assert charged == {1: 2, 2: 2, 3: 2}

    def test_streaks_stay_within_one_interval(self):
        state = RoundRobinState()
        requests = [req(i, 11.0, arrival=i) for i in range(1, 6)]
        totals = {i: 0 for i in range(1, 6)}
        for _ in range(10 * 5):
            grants = dispatch_round_robin(state, requests, 33.0)
            for vid in grants:
                totals[vid] += 1
        counts = sorted(totals.values())
        assert counts[-1] - counts[0] <= 1

    def test_head_of_line_blocking(self):
        state = RoundRobinState()
        requests = [req(1, 11.0, arrival=0), req(2, 3.7, arrival=1)]
        grants = dispatch_round_robin(state, requests, 5.0)
        assert grants == {}


class TestEdf:
    def test_earliest_departure_wins(self):
        requests = [req(1, 11.0, departure=9 * 60), req(2, 11.0, departure=7 * 60)]
        grants = dispatch_edf(requests, 11.0)
        assert set(grants) == {2}

    def test_single_ev_charges(self):
        assert dispatch_edf([req(1, 11.0, departure=100)], 400.0) == {1: 11.0}

    def test_tie_break_by_arrival(self):
        requests = [req(1, 11.0, arrival=5, departure=100),
                    req(2, 11.0, arrival=3, departure=100)]
        assert set(dispatch_edf(requests, 11.0)) == {2}

    def test_preemptive_resort(self):
        requests = [req(1, 11.0, departure=500)]
        assert set(dispatch_edf(requests, 11.0)) == {1}
        requests.append(req(2, 11.0, departure=100))
        assert set(dispatch_edf(requests, 11.0)) == {2}


@given(st.lists(st.tuples(st.sampled_from([3.7, 7.4, 11.0, 22.0]),
                          st.integers(0, 100), st.integers(101, 300)),
                min_size=0, max_size=10),
       st.floats(0.0, 60.0))
@settings(max_examples=200)
def test_centralized_strategies_respect_budget(entries, budget):
    requests = [req(i, rate, arrival=arr, departure=dep)
                for i, (rate, arr, dep) in enumerate(entries)]
    for dispatch in (dispatch_equal_charge, dispatch_edf):
        grants = dispatch(requests, budget)
        assert sum(grants.values()) <= budget + CAPACITY_EPS
        for g, r in ((grants.get(r.vehicle_id, 0.0), r) for r in requests):
            assert 0 <= g <= r.max_rate_kw + CAPACITY_EPS
    grants = dispatch_fcfs(FcfsState(), requests, budget)
    assert sum(grants.values()) <= budget + CAPACITY_EPS
    grants = dispatch_round_robin(RoundRobinState(), requests, budget)
    assert sum(grants.values()) <= budget + CAPACITY_EPS


_FCFS_REQUESTS = st.lists(st.tuples(st.integers(1, 12),
                                     st.sampled_from([3.7, 7.4, 11.0, 22.0]),
                                     st.integers(0, 100)),
                           max_size=10, unique_by=lambda t: t[0])


@given(_FCFS_REQUESTS, st.floats(0.0, 60.0), _FCFS_REQUESTS, st.floats(0.0, 60.0))
@settings(max_examples=200)
def test_fcfs_idempotent_on_unchanged_inputs(first, first_budget, entries, budget):
    # the engine skips an FCFS call whose requests and budget equal the last
    # call's: repeating that call must change neither the grants nor the state
    def snapshot(state):
        return state.queue[:], list(state.active.items()), set(state.known)

    state = FcfsState()
    dispatch_fcfs(state, [req(v, r, arrival=a) for v, r, a in first], first_budget)
    requests = [req(v, r, arrival=a) for v, r, a in entries]
    grants = dispatch_fcfs(state, requests, budget)
    before = snapshot(state)
    again = dispatch_fcfs(state, requests, budget)
    assert list(again.items()) == list(grants.items())
    assert snapshot(state) == before


def check_dispatcher(strategy, data):
    """Random arrive / leave / grants sequences on five vehicles whose arrival
    and departure minutes tie often, with budgets that are often exact sums
    of some requesters' rates; vehicles often leave and return between two
    calls. The engine relies on the granted records coming back in id
    order, so the order is compared too, and on each one's ``step`` being the
    energy of one tick of its grant, bit for bit."""
    tick = data.draw(st.sampled_from([1, 5, 15]))
    dispatcher = DISPATCHERS[strategy](tick)
    # dispatch_<strategy> as the per-tick oracle calls it: FCFS and Round
    # Robin keep one state across the calls
    reference = reference_dispatcher(ExperimentSpec("d", strategy, make_span()))
    # 6.6 kW is a rate whose energy per tick rounds otherwise if computed as
    # rate * (tick / 60.0), at ticks 1 and 5
    rates = data.draw(st.lists(st.sampled_from([3.7, 6.6, 7.4, 11.0, 22.0]),
                               min_size=5, max_size=5))
    records = [ChargingRecord(Vehicle(id=vid, soc_kwh=0.0,
                                      model=EvModel(f"r{vid}", 60.0, rate, 1.0)), Trips())
               for vid, rate in enumerate(rates)]
    present: dict[int, ChargeRequest] = {}
    for _ in range(data.draw(st.integers(1, 40))):
        op = data.draw(st.sampled_from(["arrive", "leave", "grants"]))
        if op == "arrive" and len(present) < 5:
            vid = data.draw(st.sampled_from([v for v in range(5) if v not in present]))
            arrival, departure = data.draw(st.integers(0, 3)), data.draw(st.integers(10, 12))
            dispatcher.arrive(records[vid], arrival, departure)
            present[vid] = req(vid, rates[vid], arrival=arrival, departure=departure)
        elif op == "leave" and present:
            vid = data.draw(st.sampled_from(sorted(present)))
            dispatcher.leave(vid)
            del present[vid]
        elif op == "grants":
            subset = data.draw(st.lists(st.sampled_from(sorted(present)), unique=True)
                               if present else st.just([]))
            budget = data.draw(st.just(sum(rates[v] for v in subset))
                               | st.floats(0.0, 80.0))
            expected = reference([present[v] for v in sorted(present)], budget)
            granted = dispatcher.grants(budget)
            assert [(r.vid, r.grant) for r in granted] == sorted(expected.items())
            assert all(r.step == r.grant * tick / 60.0 for r in granted)


# CI runs check_dispatcher on 2000 examples
@given(st.sampled_from(STRATEGY_NAMES), st.data())
@settings(max_examples=300, deadline=None)
def test_dispatcher_objects_equal_their_functions(strategy, data):
    check_dispatcher(strategy, data)


def test_dispatch_budget_examples(monkeypatch):
    # the budget the engine hands the dispatcher at every decision boundary
    span = make_span("2036-01-01T00:00", "2036-01-02T00:00")
    for buffer_kw, base_kw, budget in ((0.0, 125.0, 150.0), (20.0, 125.0, 130.0),
                                       (0.0, 200.0, 0.0), (0.0, 250.0, 0.0)):
        seen = set()
        monkeypatch.setattr(strategies.EdfDispatcher, "grants",
                            lambda self, cap: seen.add(cap) or [])
        data = flat_data(span, base_kw=base_kw, capacity=400.0, buffer_kw=buffer_kw)
        simulate(ExperimentSpec("t", "edf", span), data, [])
        assert seen == {budget}
