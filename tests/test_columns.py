"""Trips and charging sessions kept as typed arrays behave as read-only
sequences of their ``TripEvent`` and ``ChargeSession`` records."""

import pickle

import pytest

from evsim.engine import ChargeSession, Sessions
from evsim.fleet import TripEvent, Trips
from evsim.timebase import Timestamp


def trip_events():
    return [TripEvent(Timestamp(420 + 1440 * k), Timestamp(990 + 1440 * k), 8.0 + k / 3)
            for k in range(5)]


def charge_sessions():
    return [ChargeSession(k + 1, Timestamp(990 + 1440 * k), Timestamp(1860 + 1440 * k),
                          -0.0 if k == 0 else k / 7) for k in range(5)]


@pytest.fixture(params=[(Trips, trip_events), (Sessions, charge_sessions)],
                ids=["trips", "sessions"])
def columns_and_records(request):
    cls, records = request.param
    return cls.of(records()), records()


def test_length_indexing_and_iteration(columns_and_records):
    seq, records = columns_and_records
    assert len(seq) == 5 and len(type(seq)()) == 0 and not type(seq)()
    assert [seq[k] for k in range(5)] == records
    assert seq[-1] == records[-1] and seq[-5] == records[0]
    for k in (5, -6):
        with pytest.raises(IndexError):
            seq[k]
    assert list(seq) == records and list(iter(seq)) == records
    with pytest.raises(TypeError):
        seq[1:4]                    # int indices only


def test_equal_only_to_an_instance_of_equal_records(columns_and_records):
    seq, records = columns_and_records
    assert list(seq) == records and seq != records and records != seq
    assert seq == type(seq).of(records) and type(seq).of(seq) is seq
    assert seq != type(seq).of(records[:-1]) and seq != type(seq).of(records[::-1])
    assert seq != type(seq)()


def test_pickle_round_trip(columns_and_records):
    seq, records = columns_and_records
    copy = pickle.loads(pickle.dumps(seq))
    assert type(copy) is type(seq) and copy == seq and list(copy) == records
    assert not hasattr(seq, "__dict__")
