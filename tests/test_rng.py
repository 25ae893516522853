from evsim.rng import RngStreams


def test_same_seed_same_name_reproduces():
    a = RngStreams(42).stream("adoption")
    b = RngStreams(42).stream("adoption")
    assert a.random(10).tolist() == b.random(10).tolist()


def test_substreams_independent_of_consumption_order():
    s1 = RngStreams(7)
    s2 = RngStreams(7)
    # drain an unrelated stream in one instance only
    s1.stream("trips").random(1000)
    assert s1.stream("adoption").random(5).tolist() == \
        s2.stream("adoption").random(5).tolist()


def test_distinct_names_distinct_sequences():
    s = RngStreams(1)
    assert s.stream("a").random(5).tolist() != s.stream("b").random(5).tolist()


def test_fresh_restarts_sequence():
    # each stream call is a fresh generator, not a continuation
    s = RngStreams(9)
    first = s.stream("x").random(3).tolist()
    assert s.stream("x").random(3).tolist() == first
