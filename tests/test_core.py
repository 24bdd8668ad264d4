import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpo.arborescence import Arborescence
from mpo.core import (
    Alive,
    ConfigurationError,
    Failed,
    MessageId,
    Packet,
    StartPhase,
    StopPhase,
    TimerConfig,
    advance_timers,
    init_state,
    on_receive,
    on_receiver_timeout,
    on_sender_timeout,
)


CFG = TimerConfig(sender_timeout=10, initial_receiver_timeout=8, timeout_increment=1)


def star(root, n, weight=0):
    return Arborescence(root=root, parent_of={v: root for v in range(n) if v != root},
                        weight=weight)


_seq = iter(range(10_000, 1_000_000))


def deliver(state, msg, src, mid=None):
    mid = mid or MessageId(origin=getattr(msg, "origin", getattr(msg, "reporter", src)),
                           seq=next(_seq))
    return on_receive(state, Packet(msg_id=mid, payload=msg, src=src, dst=state.p))


class TestInit:
    def test_initial_values(self):
        s = init_state(0, 2, CFG)
        assert s.leader is None
        assert s.timers[0].on and s.timers[0].timeout == 10
        assert not s.timers[1].on and s.timers[1].timeout == 8
        assert s.shout == 0 and s.seen == set()

    def test_out_of_range_id(self):
        with pytest.raises(ConfigurationError):
            init_state(5, 4, CFG)
        with pytest.raises(ConfigurationError):
            init_state(0, 1, CFG)

    def test_adjacency_needs_a_list_per_process(self):
        with pytest.raises(ConfigurationError, match="adjacency"):
            init_state(0, 3, CFG, adjacency=(frozenset(),))

    def test_zeroed_tables(self):
        s = init_state(1, 3, TimerConfig(sender_timeout=7))
        assert s.phases == [0, 0, 0]
        assert all(w == 0 for row in s.edges for w in row)
        assert s.timers[1].timeout == 7


class TestAdvanceTimers:
    def test_own_timer_reaches_bound(self):
        s = init_state(0, 2, TimerConfig(sender_timeout=3))
        s.timers[0].elapsed = 2
        _, fired = advance_timers(s)
        assert fired == [0]

    def test_nothing_fires(self):
        s = init_state(0, 2, CFG)
        _, fired = advance_timers(s)
        assert fired == []

    def test_firing_order_ascending(self):
        s = init_state(0, 3, CFG)
        for q in (1, 2):
            s.timers[q].reset()
            s.timers[q].timeout = 5
            s.timers[q].elapsed = 4
        _, fired = advance_timers(s)
        assert fired == [1, 2]


class TestSenderTimeout:
    def test_initial_claim_broadcasts_start_phase(self):
        s = init_state(0, 4, CFG)
        s, pkts = on_sender_timeout(s)
        assert s.leader == 0
        assert len(pkts) == 3
        assert all(isinstance(p.payload, StartPhase) for p in pkts)
        assert {p.dst for p in pkts} == {1, 2, 3}
        assert len({p.msg_id for p in pkts}) == 1
        assert s.timers[0].on and s.timers[0].elapsed == 0

    def test_persisting_leader_sends_alive_to_children(self):
        s = init_state(0, 3, CFG)
        s, _ = on_sender_timeout(s)  # claims, shout untouched
        s, pkts = on_sender_timeout(s)  # persists: shout 0 -> 1
        assert s.shout == 1
        assert [p.dst for p in pkts] == list(s.arbs[0].children_of(0))
        assert all(p.payload == Alive(origin=0, phase=0, shout=1) for p in pkts)

    def test_shout_rotating_to_self_fans_out(self):
        s = init_state(0, 3, CFG)
        s, _ = on_sender_timeout(s)
        s.shout = 2  # next rotation lands on p=0
        s, pkts = on_sender_timeout(s)
        assert s.shout == 0
        assert {p.dst for p in pkts} == {1, 2}

    def test_losing_leadership_emits_stop_phase(self):
        s = init_state(1, 3, CFG)
        s, _ = on_sender_timeout(s)
        assert s.leader == 1
        # a lighter stored candidate with a running timer takes over
        s.arbs[0] = star(0, 3, weight=0)
        s.timers[0].reset()
        s, pkts = on_sender_timeout(s)
        assert s.leader == 0
        assert s.phases[1] == 1
        assert all(p.payload == StopPhase(origin=1, phase=1) for p in pkts)
        assert {p.dst for p in pkts} == {0, 2}

    def test_tie_breaks_to_lowest_id(self):
        s = init_state(2, 3, CFG)
        s.arbs[1] = star(1, 3, weight=0)
        s.timers[1].reset()
        s, _ = on_sender_timeout(s)
        assert s.leader == 1

    def test_candidate_without_stored_arb_is_skipped(self):
        s = init_state(2, 3, CFG)
        s.timers[0].reset()  # armed but no arborescence stored
        s, _ = on_sender_timeout(s)
        assert s.leader == 2


class TestReceiverTimeout:
    def test_failed_blames_stored_parent(self):
        s = init_state(1, 4, CFG)
        s.arbs[3] = Arborescence(root=3, parent_of={1: 2, 2: 3, 0: 3}, weight=0)
        s.timers[3].reset()
        s, pkts = on_receiver_timeout(s, 3)
        assert all(p.payload == Failed(subject=3, reporter=1, parent=2) for p in pkts)
        assert {p.dst for p in pkts} == {0, 2, 3}
        assert not s.timers[3].on
        assert s.timers[3].timeout == 8 + 1

    def test_one_report_per_arming(self):
        s = init_state(1, 3, CFG)
        s.timers[2].reset()
        s, _ = on_receiver_timeout(s, 2)
        assert not s.timers[2].on
        # no way to fire again until something resets the timer
        for _ in range(50):
            _, fired = advance_timers(s)
            assert 2 not in fired

    def test_unset_arborescence_blames_origin(self):
        s = init_state(1, 3, CFG)
        s.timers[2].reset()
        s, pkts = on_receiver_timeout(s, 2)
        assert pkts[0].payload == Failed(subject=2, reporter=1, parent=2)

    def test_own_id_is_refused(self):
        s = init_state(1, 3, CFG)
        with pytest.raises(ValueError, match="own id"):
            on_receiver_timeout(s, s.p)


class TestReceive:
    def test_duplicate_is_noop(self):
        s = init_state(0, 3, CFG)
        msg = StartPhase(origin=1, phase=0, arb=star(1, 3))
        mid = MessageId(origin=1, seq=0)
        s, first = deliver(s, msg, src=1, mid=mid)
        assert first
        before = copy.deepcopy(s)
        s, again = deliver(s, msg, src=2, mid=mid)
        assert again == []
        assert s == before

    def test_start_phase_adopts_and_forwards(self):
        s = init_state(0, 3, CFG)
        arb = star(1, 3, weight=4)
        s, pkts = deliver(s, StartPhase(origin=1, phase=2, arb=arb), src=2)
        assert s.arbs[1] == arb
        assert s.phases[1] == 2
        assert s.timers[1].on
        assert {p.dst for p in pkts} == {1, 2}
        assert all(p.payload.arb is arb for p in pkts)

    def test_start_phase_same_phase_overwrites(self):
        s = init_state(0, 3, CFG)
        s, _ = deliver(s, StartPhase(origin=1, phase=1, arb=star(1, 3, weight=9)), src=1)
        fresh = Arborescence(root=1, parent_of={0: 1, 2: 0}, weight=3)
        s, pkts = deliver(s, StartPhase(origin=1, phase=1, arb=fresh), src=1)
        assert s.arbs[1] == fresh
        assert pkts

    def test_start_phase_stale_phase_ignored(self):
        s = init_state(0, 3, CFG)
        s.phases[1] = 5
        s, pkts = deliver(s, StartPhase(origin=1, phase=4, arb=star(1, 3)), src=1)
        assert pkts == []
        assert s.arbs[1] is None

    def test_stop_phase_stops_timer(self):
        s = init_state(0, 3, CFG)
        s, _ = deliver(s, StartPhase(origin=1, phase=0, arb=star(1, 3)), src=1)
        assert s.timers[1].on
        s, pkts = deliver(s, StopPhase(origin=1, phase=1), src=2)
        assert not s.timers[1].on
        assert s.phases[1] == 1
        assert {p.dst for p in pkts} == {1, 2}

    def test_stop_phase_equal_phase_ignored(self):
        s = init_state(0, 3, CFG)
        s, pkts = deliver(s, StopPhase(origin=1, phase=0), src=1)
        assert pkts == []

    def test_alive_through_tree_forwards_and_resets(self):
        s = init_state(1, 4, CFG)
        arb = Arborescence(root=0, parent_of={1: 0, 2: 1, 3: 1}, weight=0)
        s, _ = deliver(s, StartPhase(origin=0, phase=0, arb=arb), src=0)
        s.timers[0].elapsed = 5
        s, pkts = deliver(s, Alive(origin=0, phase=0, shout=2), src=0)
        assert {p.dst for p in pkts} == {2, 3}
        assert s.timers[0].elapsed == 0

    def test_alive_shout_duty_fans_to_all(self):
        s = init_state(1, 4, CFG)
        arb = Arborescence(root=0, parent_of={1: 0, 2: 1, 3: 1}, weight=0)
        s, _ = deliver(s, StartPhase(origin=0, phase=0, arb=arb), src=0)
        s, pkts = deliver(s, Alive(origin=0, phase=0, shout=1), src=0)
        assert {p.dst for p in pkts} == {0, 2, 3}
        assert s.timers[0].on and s.timers[0].elapsed == 0

    def test_alive_stale_phase_dropped(self):
        s = init_state(1, 3, CFG)
        s.phases[0] = 2
        s, pkts = deliver(s, Alive(origin=0, phase=1, shout=1), src=0)
        assert pkts == []

    def test_alive_from_elsewhere_resets_only_when_off(self):
        s = init_state(2, 4, CFG)
        arb = Arborescence(root=0, parent_of={1: 0, 2: 1, 3: 1}, weight=0)
        s, _ = deliver(s, StartPhase(origin=0, phase=0, arb=arb), src=0)
        s.timers[0].elapsed = 3
        s, pkts = deliver(s, Alive(origin=0, phase=0, shout=3), src=3)  # not parent 1
        assert pkts == []
        assert s.timers[0].elapsed == 3  # running timer untouched
        s.timers[0].stop()
        s, pkts = deliver(s, Alive(origin=0, phase=0, shout=0), src=3)
        assert s.timers[0].on  # off timer re-armed

    def test_failed_at_subject_bumps_edge(self):
        s = init_state(0, 5, CFG)
        s, pkts = deliver(s, Failed(subject=0, reporter=4, parent=2), src=3)
        assert s.edges[2][4] == 1
        assert pkts == []
        s, _ = deliver(s, Failed(subject=0, reporter=4, parent=2), src=1)
        assert s.edges[2][4] == 2  # distinct message id, counted again

    def test_failed_elsewhere_forwarded(self):
        s = init_state(1, 3, CFG)
        s, pkts = deliver(s, Failed(subject=0, reporter=2, parent=0), src=2)
        assert {p.dst for p in pkts} == {0, 2}
        assert all(w == 0 for row in s.edges for w in row)


class TestInvariants:
    def test_own_timer_always_on(self):
        s = init_state(0, 3, CFG)
        s, _ = on_sender_timeout(s)
        assert s.timers[0].on
        s, _ = deliver(s, StopPhase(origin=1, phase=3), src=1)
        assert s.timers[0].on

    def test_replay_determinism(self):
        s1 = init_state(0, 3, CFG)
        s2 = copy.deepcopy(s1)
        stimuli = []
        stimuli.append(("sender", None))
        arb = star(1, 3, weight=2)
        stimuli.append(("recv", Packet(MessageId(1, 0), StartPhase(1, 0, arb), 1, 0)))
        stimuli.append(("recv", Packet(MessageId(1, 1), Alive(1, 0, 2), 1, 0)))
        stimuli.append(("sender", None))
        stimuli.append(("rto", 1))

        def run(s):
            outs = []
            for kind, arg in stimuli:
                if kind == "sender":
                    s, pkts = on_sender_timeout(s)
                elif kind == "recv":
                    s, pkts = on_receive(s, arg)
                else:
                    s, pkts = on_receiver_timeout(s, arg)
                outs.append(pkts)
            return s, outs

        r1, o1 = run(s1)
        r2, o2 = run(s2)
        assert o1 == o2
        assert r1.leader == r2.leader and r1.phases == r2.phases

    def test_phase_never_decreases(self):
        s = init_state(0, 3, CFG)
        observed = [list(s.phases)]
        s, _ = deliver(s, StartPhase(origin=1, phase=3, arb=star(1, 3)), src=1)
        observed.append(list(s.phases))
        s, _ = deliver(s, StopPhase(origin=1, phase=5), src=2)
        observed.append(list(s.phases))
        s, _ = deliver(s, StartPhase(origin=1, phase=4, arb=star(1, 3)), src=1)
        observed.append(list(s.phases))
        for before, after in zip(observed, observed[1:]):
            assert all(b <= a for b, a in zip(before, after))

    def test_edge_weights_never_decrease(self):
        s = init_state(0, 3, CFG)
        s, _ = deliver(s, Failed(subject=0, reporter=1, parent=2), src=1)
        assert s.edges[2][1] == 1
        s, _ = deliver(s, Failed(subject=0, reporter=2, parent=1), src=2)
        assert s.edges[2][1] == 1 and s.edges[1][2] == 1


def _phases_and_timers(state):
    return list(state.phases), [(t.on, t.timeout, t.elapsed, t.ver) for t in state.timers]


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.data())
def test_a_stimulus_changes_only_the_leader_and_its_subject(n, data):
    # the contract the simulator relies on to read a transition's effects off
    # the state: only a sender timeout moves the leader, and only the
    # subject's phase and timer change (a `failed` delivery has no subject)
    states = [init_state(p, n, CFG) for p in range(n)]
    emitted = []
    for _ in range(data.draw(st.integers(1, 40))):
        stimuli = [("sender", p) for p in range(n)]
        stimuli += [("receiver", p, q) for p in range(n) for q in range(n)
                    if q != p and states[p].timers[q].on]
        stimuli += [("deliver", i) for i in range(len(emitted))]
        kind, *args = data.draw(st.sampled_from(stimuli))
        if kind == "deliver":
            pkt = emitted[args[0]]
            state, msg = states[pkt.dst], pkt.payload
            subject = None if isinstance(msg, Failed) else msg.origin
        else:
            state, subject = states[args[0]], args[-1]
        leader = state.leader
        phases, timers = _phases_and_timers(state)
        if kind == "sender":
            _, out = on_sender_timeout(state)
        elif kind == "receiver":
            _, out = on_receiver_timeout(state, subject)
        else:
            _, out = on_receive(state, pkt)
        emitted += out
        if kind != "sender":
            assert state.leader == leader
        phases_after, timers_after = _phases_and_timers(state)
        for q in range(n):
            if q != subject:
                assert phases_after[q] == phases[q]
                assert timers_after[q] == timers[q]
