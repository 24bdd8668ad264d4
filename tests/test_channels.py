import random

import pytest

from mpo.channels import (
    ChannelSpecError,
    ChannelState,
    DeliverProb,
    DropPattern,
    EventuallyTimely,
    FairLossy,
    GeneralPropagation,
    Lossy,
    StronglyNonTimely,
    Timely,
    model_from_spec,
    model_to_spec,
    read_float,
    schedule_delivery,
    suppression_windows,
)
from mpo.core import Alive, ConfigurationError, MessageId, Packet


def alive_pkt(origin=0, seq=0, src=0, dst=1):
    return Packet(MessageId(origin, seq), Alive(origin, 0, 0), src, dst)


def test_timely_bound():
    rng = random.Random(1)
    for _ in range(200):
        step = schedule_delivery(Timely(bound=4), alive_pkt(), 10, rng, ChannelState())
        assert 11 <= step <= 14


def test_lossy_drops_everything():
    rng = random.Random(1)
    for _ in range(20):
        assert schedule_delivery(Lossy(), alive_pkt(), 5, rng, ChannelState()) is None


def test_drop_pattern_counter():
    # of packets 1..9 on one (kind, origin) stream, exactly 3, 6, 9 arrive
    rng = random.Random(0)
    model = FairLossy(policy=DropPattern(drop=2))
    st = ChannelState()
    outcomes = [
        schedule_delivery(model, alive_pkt(seq=i), 0, rng, st) is not None
        for i in range(1, 10)
    ]
    assert outcomes == [False, False, True, False, False, True, False, False, True]


def test_drop_pattern_streams_independent():
    rng = random.Random(0)
    model = FairLossy(policy=DropPattern(drop=1))
    st = ChannelState()
    a = [schedule_delivery(model, alive_pkt(origin=0, seq=i), 0, rng, st) for i in range(4)]
    b = [schedule_delivery(model, alive_pkt(origin=1, seq=i), 0, rng, st) for i in range(4)]
    assert [x is not None for x in a] == [False, True, False, True]
    assert [x is not None for x in b] == [False, True, False, True]


def test_deliver_prob_extremes():
    rng = random.Random(3)
    sure = FairLossy(policy=DeliverProb(q=1.0))
    assert all(
        schedule_delivery(sure, alive_pkt(seq=i), 0, rng, ChannelState()) is not None
        for i in range(20)
    )


def test_fair_lossy_delay_window():
    rng = random.Random(7)
    model = FairLossy(policy=DeliverProb(q=1.0), delay_min=5, delay_max=9)
    for i in range(100):
        step = schedule_delivery(model, alive_pkt(seq=i), 100, rng, ChannelState())
        assert 105 <= step <= 109


def test_eventually_timely_becomes_timely():
    rng = random.Random(11)
    model = EventuallyTimely(bound=3, unreliable_until=50)
    for _ in range(100):
        step = schedule_delivery(model, alive_pkt(), 60, rng, ChannelState())
        assert 61 <= step <= 63
    early = [schedule_delivery(model, alive_pkt(), 10, rng, ChannelState()) for _ in range(300)]
    drops = sum(1 for s in early if s is None)
    assert 0 < drops < 300
    assert all(s <= 10 + 12 for s in early if s is not None)


def test_snt_windows_are_delivery_free():
    rng = random.Random(5)
    windows = suppression_windows(seed=42, src=0, dst=1, burst=8, cap=64, horizon=2000)
    assert windows, "schedule should produce windows"
    st = ChannelState(windows=windows)
    model = StronglyNonTimely(burst=8, delay_min=1, delay_max=6)
    for send in range(0, 1500, 7):
        step = schedule_delivery(model, alive_pkt(), send, rng, st)
        assert step is not None
        for lo, hi in windows:
            assert not (lo <= step < hi)


def test_snt_window_lengths_grow():
    windows = suppression_windows(seed=9, src=2, dst=3, burst=4, cap=512, horizon=100_000)
    lengths = [hi - lo for lo, hi in windows]
    assert lengths[0] == 4
    assert max(lengths) == 512
    assert lengths == sorted(lengths)


@pytest.mark.parametrize("build", [
    lambda: Timely(0),
    lambda: EventuallyTimely(0),
    lambda: EventuallyTimely(2, unreliable_until=-1),
    lambda: DropPattern(-1),
    lambda: DeliverProb(0.0),
    lambda: DeliverProb(1.5),
    lambda: FairLossy(DropPattern(1), delay_min=0, delay_max=4),
    lambda: FairLossy(DropPattern(1), delay_min=9, delay_max=2),
    lambda: StronglyNonTimely(burst=0),
    lambda: StronglyNonTimely(burst=16, window_cap=8),
    lambda: StronglyNonTimely(delay_min=5, delay_max=4),
    lambda: StronglyNonTimely(quiet_until=-1),
    lambda: GeneralPropagation(1.1, 0.5),
    lambda: GeneralPropagation(0.5, -0.1),
    lambda: GeneralPropagation(0.5, 0.5, bound=0),
    lambda: DeliverProb(True),
    lambda: DeliverProb("0.5"),
    lambda: GeneralPropagation(True, 0.5),
    lambda: GeneralPropagation(0.5, "x"),
    lambda: GeneralPropagation(float("nan"), 0.5),
])
def test_model_parameters_checked_on_construction(build):
    with pytest.raises(ConfigurationError):
        build()


def test_unknown_model_is_a_type_error():
    rng = random.Random(0)
    for model in (object(), "timely b=4"):
        with pytest.raises(TypeError, match="unknown channel model"):
            schedule_delivery(model, alive_pkt(), 0, rng, ChannelState())
        with pytest.raises(TypeError, match="unknown channel model"):
            model_to_spec(model)


@pytest.mark.parametrize("spec", [5, None, b"lossy", ["lossy"]])
def test_a_channel_spec_that_is_not_a_string_is_a_spec_error(spec):
    with pytest.raises(ChannelSpecError, match="^spec must be a string, got "):
        model_from_spec(spec)


def test_read_float_rejects_an_int_past_the_float_range():
    assert read_float(10**300) == 1e300
    with pytest.raises(ValueError, match="finite"):
        read_float(10**400)


def test_propagation_draws_a_message_graphs_with_its_first_packet():
    # every edge reliable and timely: each packet arrives within the bound, and
    # the one shared state keeps the message's graphs with its last due step
    rng, state = random.Random(0), ChannelState(n=3)
    model = GeneralPropagation(1.0, 1.0, bound=2)
    dues = [schedule_delivery(model, alive_pkt(dst=dst), 10, rng, state) for dst in (1, 2)]
    assert all(11 <= due <= 12 for due in dues)
    edges = {(u, v) for u in range(3) for v in range(3) if u != v}
    assert state.graphs == {MessageId(0, 0): [edges, edges, max(dues)]}
    # a new message sent at that last due keeps the entry; one sent after it
    # deletes it, as every packet of the message has landed by then
    schedule_delivery(model, alive_pkt(seq=1), max(dues), rng, state)
    assert set(state.graphs) == {MessageId(0, 0), MessageId(0, 1)}
    last = state.graphs[MessageId(0, 1)][2]
    schedule_delivery(model, alive_pkt(seq=2), last + 1, rng, state)
    assert set(state.graphs) == {MessageId(0, 2)}
    # no edge reliable: the packet is dropped and the entry keeps its send step,
    # so it outlives the rest of its routing batch
    state = ChannelState(n=3)
    assert schedule_delivery(GeneralPropagation(0.0, 1.0), alive_pkt(), 10, rng, state) is None
    assert state.graphs == {MessageId(0, 0): [set(), set(), 10]}
