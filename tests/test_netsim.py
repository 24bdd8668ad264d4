import dataclasses
import functools
import io
import re

import pytest
from hypothesis import given, settings

from mpo import channels, netsim
from mpo import trace as tr
from mpo.audit import audit_report
from mpo.channels import (
    DeliverProb,
    DropPattern,
    EventuallyTimely,
    FairLossy,
    Lossy,
    StronglyNonTimely,
    Timely,
    suppression_windows,
)
from mpo.core import ConfigurationError, TimerConfig, init_state
from mpo.montecarlo import Mode, exhaustive_existence, mc_multi_hop, mc_single_hop, mc_stability
from mpo.netsim import (
    GeneralPropagation,
    Scenario,
    ScenarioError,
    preset_dependable,
    run,
    run_reference,
)
from strategies import small_scenarios


def mixed_scenario(horizon=700, crash=True):
    return Scenario(
        n=4,
        horizon=horizon,
        seed=99,
        timers=TimerConfig(sender_timeout=16, initial_receiver_timeout=8,
                           timeout_increment=2),
        default_channel=Timely(3),
        channels={
            (0, 1): FairLossy(DropPattern(2), 2, 9),
            (1, 0): StronglyNonTimely(burst=4, window_cap=64, delay_min=1, delay_max=5),
            (2, 3): Lossy(),
            (3, 2): EventuallyTimely(bound=2, unreliable_until=200),
        },
        crash_schedule={3: 500} if crash else {},
    )


class TestDeterminism:
    def test_same_seed_identical_traces(self):
        scn = mixed_scenario()
        assert run(scn).events == run(scn).events

    def test_different_seed_differs(self):
        a = run(preset_dependable(4, seed=1, horizon=2000))
        b = run(preset_dependable(4, seed=2, horizon=2000))
        assert a.events != b.events

    def test_fingerprint_tracks_config(self):
        a = preset_dependable(4, seed=1, horizon=2000)
        b = preset_dependable(4, seed=2, horizon=2000)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == preset_dependable(4, seed=1, horizon=2000).fingerprint()


class TestReferenceEquivalence:
    def test_preset_with_crash(self):
        scn = preset_dependable(4, seed=7, horizon=800,
                                crash_victims=(2,), crash_steps=(300,))
        assert run(scn).events == run_reference(scn).events

    def test_mixed_channels(self):
        scn = mixed_scenario()
        assert run(scn).events == run_reference(scn).events

    def test_general_propagation(self):
        scn = Scenario(n=3, horizon=400, seed=5,
                       propagation=GeneralPropagation(0.7, 0.6, bound=3))
        assert run(scn).events == run_reference(scn).events

    def test_per_origin_windows_whoever_sends_first(self):
        # origin 2's override on 0->1 keeps its own suppression windows even
        # though other origins' packets reach that channel first
        scn = Scenario(
            n=3, horizon=6000, seed=1, default_channel=Timely(1),
            origin_channels={2: {(0, 1): StronglyNonTimely(
                burst=64, window_cap=64, delay_min=1, delay_max=1)}},
        )
        trace = run(scn)
        windows = suppression_windows(1, 0, 1, 64, 64, 6000)
        delivered = [ev.step for ev in trace.events
                     if isinstance(ev, tr.Deliver) and (ev.src, ev.dst) == (0, 1)
                     and ev.mid.origin == 2]
        assert delivered
        assert not [step for step in delivered
                    if any(start <= step < end for start, end in windows)]
        assert trace.events == run_reference(scn).events

    @settings(max_examples=150, deadline=None)
    @given(small_scenarios(max_horizon=2_000))
    def test_any_small_scenario(self, scn):
        # crashes, propagation, adjacency and per-origin overrides; the trace
        # also reads back as written, and audits the same either way
        trace = run(scn)
        assert trace.events == run_reference(scn).events
        buf = io.StringIO()
        tr.write_trace(trace, buf)
        back = tr.read_trace(io.StringIO(buf.getvalue()))
        assert back.events == trace.events and back.scenario == scn
        assert audit_report(trace).to_json_obj() == audit_report(back).to_json_obj()


class TestStepSemantics:
    def test_steps_nondecreasing_and_bounded(self):
        t = run(mixed_scenario())
        steps = [ev.step for ev in t.events]
        assert steps == sorted(steps)
        assert all(1 <= s <= t.horizon for s in steps)

    def test_delivery_and_drop_reference_a_send(self):
        t = run(mixed_scenario())
        sent = set()
        for ev in t.events:
            if isinstance(ev, tr.Send):
                sent.add((ev.mid, ev.src, ev.dst))
            elif isinstance(ev, (tr.Deliver, tr.Drop)):
                assert (ev.mid, ev.src, ev.dst) in sent

    def test_timely_bound_respected(self):
        t = run(Scenario(n=3, horizon=600, seed=3, default_channel=Timely(4)))
        send_step = {}
        for ev in t.events:
            if isinstance(ev, tr.Send):
                send_step[(ev.mid, ev.src, ev.dst)] = ev.step
            elif isinstance(ev, tr.Deliver):
                delay = ev.step - send_step[(ev.mid, ev.src, ev.dst)]
                assert 1 <= delay <= 4

    def test_eventually_timely_violations_only_before_boundary(self):
        scn = Scenario(
            n=2, horizon=3000, seed=8,
            timers=TimerConfig(sender_timeout=8, initial_receiver_timeout=6),
            default_channel=EventuallyTimely(bound=3, unreliable_until=900),
        )
        t = run(scn)
        send_step = {}
        for ev in t.events:
            if isinstance(ev, tr.Send):
                send_step[(ev.mid, ev.src, ev.dst)] = ev.step
            elif isinstance(ev, tr.Deliver):
                sent = send_step[(ev.mid, ev.src, ev.dst)]
                if ev.step - sent > 3:
                    assert sent < 900
            elif isinstance(ev, tr.Drop):
                assert send_step[(ev.mid, ev.src, ev.dst)] < 900

    def test_crashed_processes_fall_silent(self):
        scn = preset_dependable(4, seed=11, horizon=3000,
                                crash_victims=(1, 2), crash_steps=(400, 900))
        t = run(scn)
        crash_at = {1: 400, 2: 900}
        for ev in t.events:
            if isinstance(ev, (tr.Send, tr.TimerFired)):
                proc = ev.src if isinstance(ev, tr.Send) else ev.proc
                if proc in crash_at:
                    assert ev.step <= crash_at[proc]

    def test_alive_packet_bound_holds_on_any_trace(self):
        # tree edges plus one full fan-out: never more than 2(n-1) packets
        # per heartbeat instance, even during the startup scramble
        for scn in (mixed_scenario(), preset_dependable(6, seed=5, horizon=3000),
                    Scenario(n=5, horizon=2000, seed=12, default_channel=Timely(2))):
            t = run(scn)
            counts = {}
            kinds = {}
            for ev in t.events:
                if isinstance(ev, tr.Send):
                    kinds[ev.mid] = ev.kind
                    counts[ev.mid] = counts.get(ev.mid, 0) + 1
            for mid, c in counts.items():
                if kinds[mid] == "alive":
                    assert c <= 2 * (scn.n - 1), (mid, c)

    def test_forward_at_most_once(self):
        # all packets of one (process, message) emission share one step
        t = run(mixed_scenario())
        emission_steps = {}
        for ev in t.events:
            if isinstance(ev, tr.Send):
                key = (ev.src, ev.mid)
                emission_steps.setdefault(key, set()).add(ev.step)
        assert all(len(steps) == 1 for steps in emission_steps.values())


class TestConvergenceBehavior:
    def test_two_processes_all_timely(self):
        # generous receive timeout: no failure reports, weights stay zero,
        # and the id tie rule makes 0 the leader
        scn = Scenario(n=2, horizon=2000, seed=1, default_channel=Timely(2),
                       timers=TimerConfig(sender_timeout=16,
                                          initial_receiver_timeout=24))
        t = run(scn)
        assert t.final_leaders == [0, 0]
        assert not any(isinstance(ev, tr.Send) and ev.kind == "failed"
                       for ev in t.events)

    def test_two_processes_tight_timeout_still_agrees(self):
        # a too-small receive timeout provokes mutual blame; weights decide
        # the winner, but both sides still agree on one correct process
        t = run(Scenario(n=2, horizon=2000, seed=1, default_channel=Timely(2)))
        assert t.final_leaders[0] == t.final_leaders[1]
        assert t.final_leaders[0] in (0, 1)

    def test_preset_converges_to_designated_leader(self):
        for seed in range(5):
            t = run(preset_dependable(5, seed=seed, horizon=8000))
            assert t.final_leaders == [0] * 5

    def test_nonzero_designated_leader_small_net(self):
        # leader 1 with process 0 having only dead outgoing channels: 0 can
        # never sustain a claim, so everyone settles on 1
        channels = {}
        for x in (1, 2):
            channels[(1, x if x != 1 else 0)] = Timely(2)
        scn = Scenario(
            n=3, horizon=30_000, seed=4,
            timers=TimerConfig(sender_timeout=32, initial_receiver_timeout=40),
            default_channel=Lossy(),
            channels={(1, 0): Timely(2), (1, 2): Timely(2),
                      (0, 1): Lossy(), (2, 1): FairLossy(DeliverProb(0.6), 2, 6),
                      (0, 2): Lossy(), (2, 0): Lossy()},
        )
        t = run(scn)
        assert t.final_leaders[1] == 1
        assert t.final_leaders[2] == 1

    def test_crash_of_leader_forces_reelection(self):
        # both 0 and 1 own timely out-stars; after 0 dies the survivors
        # re-converge on 1
        n = 4
        channels = {}
        for x in range(1, n):
            channels[(0, x)] = Timely(2)
        for x in range(n):
            if x != 1:
                channels[(1, x)] = Timely(2)
            if x != 0:
                channels[(x, 0)] = FairLossy(DeliverProb(0.5), 4, 8)
            if x not in (0, 1):
                channels[(x, 1)] = FairLossy(DeliverProb(0.5), 4, 8)
        scn = Scenario(
            n=n, horizon=20_000, seed=13,
            timers=TimerConfig(sender_timeout=32, initial_receiver_timeout=96),
            default_channel=Lossy(),
            channels=channels,
            crash_schedule={0: 5_000},
        )
        t = run(scn)
        assert t.final_leaders[0] == 0  # frozen at crash time
        assert all(t.final_leaders[p] == 1 for p in (1, 2, 3))
        changes = [ev for ev in t.events
                   if isinstance(ev, tr.LeaderChange) and ev.step > 5_000]
        assert changes, "survivors re-elected after the crash"


class TestGeneralPropagation:
    def test_timely_subset_of_reliable(self, monkeypatch):
        from mpo.netsim import _Engine
        scn = Scenario(n=4, horizon=300, seed=21,
                       propagation=GeneralPropagation(0.6, 0.5, bound=3))
        eng = _Engine(scn)
        sampled = []
        sample = channels.sample_graphs

        def recording(*args):
            sampled.append(sample(*args))
            return sampled[-1]

        monkeypatch.setattr(channels, "sample_graphs", recording)
        eng.run_fast()
        assert sampled, "messages were sampled"
        for reliable, timely in sampled:
            assert timely <= reliable

    def test_graphs_are_kept_while_packets_fly(self, monkeypatch):
        # the scheduler alone keeps each message's graphs.  Checked after every
        # routing batch, the only place graphs are drawn or deleted (between
        # batches the delivery heap only shrinks): each packet in flight has
        # its message's graphs stored with a last due no earlier than its own,
        # and no stored entry's last due is before the latest first send.
        # A crashed recipient's packets are sent and scheduled like any other.
        from mpo.netsim import _Engine
        scn = Scenario(n=6, horizon=3_000, seed=5, crash_schedule={2: 700},
                       propagation=GeneralPropagation(0.8, 0.5, bound=3))
        eng = _Engine(scn)
        graphs = eng.links[0][0, 1][1].graphs
        draws, sent, peak, latest_first = [], set(), [0], [0]
        sample, route = channels.sample_graphs, eng._route

        def recording(*args):
            draws.append(sample(*args))
            return draws[-1]

        def checking(packets, step):
            route(packets, step)
            if any(pkt.msg_id not in sent for pkt in packets):
                latest_first[0] = step
            sent.update(pkt.msg_id for pkt in packets)
            for due, _, pkt in eng.delivery_heap:
                assert graphs[pkt.msg_id][2] >= due
            assert all(last >= latest_first[0] for _, _, last in graphs.values())
            peak[0] = max(peak[0], len(graphs))

        monkeypatch.setattr(channels, "sample_graphs", recording)
        eng._route = checking
        trace = eng.run_fast()
        sends = [ev for ev in trace.events if isinstance(ev, tr.Send)]
        assert len(draws) == len({ev.mid for ev in sends}) == len(sent)
        assert any(ev.dst == 2 and ev.step > 700 for ev in sends)
        assert peak[0] < len(draws) / 10

    def test_drops_match_unreliable_edges(self):
        scn = Scenario(n=3, horizon=300, seed=2,
                       propagation=GeneralPropagation(0.5, 0.5, bound=2))
        t = run(scn)
        assert any(isinstance(ev, tr.Drop) for ev in t.events)

    def test_every_packet_is_scheduled_by_its_channel_model(self, monkeypatch):
        # the behaviour digest's propagation scenario: each send is one call
        # of netsim's schedule_delivery, the name per-packet hooks wrap
        scn = Scenario(n=5, horizon=4_000, seed=71,
                       propagation=GeneralPropagation(0.9, 0.6, bound=4))
        calls = []
        schedule = netsim.schedule_delivery

        def counting(*args):
            calls.append(schedule(*args))
            return calls[-1]

        monkeypatch.setattr(netsim, "schedule_delivery", counting)
        trace = run(scn)
        sends = [ev for ev in trace.events if isinstance(ev, tr.Send)]
        assert len(calls) == len(sends) > 0
        assert calls.count(None) == sum(isinstance(ev, tr.Drop) for ev in trace.events)


@functools.cache
def _audited_trace() -> tr.Trace:
    return run(Scenario(n=3, horizon=100))


# every integer field and argument, built with the value under test: (builder,
# its error, the least value it takes, or None where no lower bound alone says
# which it takes, and the most, or None where it has no upper bound)
INT_FIELDS = {
    "n": (lambda v: Scenario(n=v, horizon=100), ScenarioError, 2, None),
    "horizon": (lambda v: Scenario(n=3, horizon=v), ScenarioError, 1, None),
    "seed": (lambda v: Scenario(n=3, horizon=100, seed=v), ScenarioError, None, None),
    "crashed process": (lambda v: Scenario(n=3, horizon=100, crash_schedule={v: 5}),
                        ScenarioError, 0, 2),
    "crash step": (lambda v: Scenario(n=3, horizon=100, crash_schedule={1: v}),
                   ScenarioError, 1, 100),
    "adjacency id": (lambda v: Scenario(n=3, horizon=100, adjacency=(
        frozenset({v, 1}), frozenset({0}), frozenset({0}))), ScenarioError, 0, 2),
    "channel pair id": (lambda v: Scenario(n=3, horizon=100, channels={(v, 1): Lossy()}),
                        ScenarioError, 0, 2),
    "channel origin": (lambda v: Scenario(n=3, horizon=100, origin_channels={v: {}}),
                       ScenarioError, 0, 2),
    "sender_timeout": (lambda v: TimerConfig(sender_timeout=v), ConfigurationError, 1, None),
    "initial_receiver_timeout": (lambda v: TimerConfig(initial_receiver_timeout=v),
                                 ConfigurationError, 1, None),
    "timeout_increment": (lambda v: TimerConfig(timeout_increment=v), ConfigurationError, 1,
                          None),
    "timely bound": (lambda v: Timely(v), ConfigurationError, 1, None),
    "eventually_timely bound": (lambda v: EventuallyTimely(v), ConfigurationError, 1, None),
    "eventually_timely until": (lambda v: EventuallyTimely(2, v), ConfigurationError, 0, None),
    "drop": (lambda v: DropPattern(v), ConfigurationError, 0, None),
    "fair_lossy delay_min": (lambda v: FairLossy(DropPattern(1), v, 8), ConfigurationError, 1,
                             None),
    "fair_lossy delay_max": (lambda v: FairLossy(DropPattern(1), 1, v), ConfigurationError, 1,
                             None),
    "fair_lossy delay_max == delay_min": (lambda v: FairLossy(DropPattern(1), 2, v),
                                          ConfigurationError, 2, None),
    "burst": (lambda v: StronglyNonTimely(burst=v), ConfigurationError, 1, None),
    "window_cap": (lambda v: StronglyNonTimely(burst=1, window_cap=v), ConfigurationError, 1,
                   None),
    "window_cap == burst": (lambda v: StronglyNonTimely(burst=2, window_cap=v),
                            ConfigurationError, 2, None),
    "strongly_non_timely delay_min": (lambda v: StronglyNonTimely(delay_min=v),
                                      ConfigurationError, 1, None),
    "strongly_non_timely delay_max": (lambda v: StronglyNonTimely(delay_max=v),
                                      ConfigurationError, 1, None),
    "strongly_non_timely delay_max == delay_min": (
        lambda v: StronglyNonTimely(delay_min=2, delay_max=v), ConfigurationError, 2, None),
    "quiet_until": (lambda v: StronglyNonTimely(quiet_until=v), ConfigurationError, 0, None),
    "propagation bound": (lambda v: GeneralPropagation(0.9, 0.6, bound=v),
                          ConfigurationError, 1, None),
    "init_state n": (lambda v: init_state(0, v), ConfigurationError, 2, None),
    "init_state p": (lambda v: init_state(v, 3), ConfigurationError, 0, 2),
    "preset n": (lambda v: preset_dependable(v, 1, horizon=100), ScenarioError, 2, None),
    "preset seed": (lambda v: preset_dependable(3, v, horizon=100), ScenarioError, None, None),
    "preset leader": (lambda v: preset_dependable(3, 1, v, horizon=100), ScenarioError, 0, 2),
    "audit cutoff": (lambda v: audit_report(_audited_trace(), cutoff=v), ConfigurationError, 0,
                     99),
    "audit window": (lambda v: audit_report(_audited_trace(), window=v), ConfigurationError, 1,
                     100),
    "mc n": (lambda v: mc_single_hop(v, 0.5, 10, 1), ConfigurationError, 2, None),
    "mc trials": (lambda v: mc_multi_hop(3, 0.5, v, 1), ConfigurationError, 1, None),
    "mc cap": (lambda v: mc_stability(3, 0.5, 10, 1, Mode.MULTI_HOP, cap=v),
               ConfigurationError, 1, None),
    "mc seed": (lambda v: mc_single_hop(3, 0.5, 10, v), ConfigurationError, 0, None),
    "exhaustive_existence n": (lambda v: exhaustive_existence(v, 0.5, Mode.MULTI_HOP),
                               ConfigurationError, 2, 4),
    # the parent's version never returns below these bounds: no window has length
    "suppression_windows burst": (lambda v: suppression_windows(0, 0, 1, v, 8, 100),
                                  ConfigurationError, 1, None),
    "suppression_windows cap": (lambda v: suppression_windows(0, 0, 1, 1, v, 100),
                                ConfigurationError, 1, None),
    "suppression_windows cap == burst": (lambda v: suppression_windows(0, 0, 1, 2, v, 100),
                                         ConfigurationError, 2, None),
}


def _bound_message(low, high, value) -> str:
    """The rule's message for `value` outside [low, high], as a `match` pattern."""
    bound = f"must be >= {low}" if high is None else f"must lie in [{low}, {high}]"
    return re.escape(f"{bound}, got {value}")


@pytest.mark.parametrize("value", [2.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("field", INT_FIELDS)
def test_a_non_int_integer_field_is_rejected(field, value):
    # what a trace file's reader would reject, so no run could be read back
    build, error, _, _ = INT_FIELDS[field]
    build(2)
    with pytest.raises(error, match="must be an integer"):
        build(value)


@pytest.mark.parametrize("field", [f for f, (_, _, low, _) in INT_FIELDS.items()
                                   if low is not None])
def test_an_int_field_below_its_bound_is_rejected(field):
    build, error, low, high = INT_FIELDS[field]
    build(low)
    with pytest.raises(error, match=_bound_message(low, high, low - 1)):
        build(low - 1)


@pytest.mark.parametrize("field", [f for f, (_, _, _, high) in INT_FIELDS.items()
                                   if high is not None])
def test_an_int_field_above_its_bound_is_rejected(field):
    build, error, low, high = INT_FIELDS[field]
    build(high)
    with pytest.raises(error, match=_bound_message(low, high, high + 1)):
        build(high + 1)


@pytest.mark.parametrize("build, error, match", [
    (lambda: Scenario(n=2, horizon=50, timers={"sender_timeout": 3}), ScenarioError, "timers"),
    (lambda: Scenario(n=2, horizon=50, default_channel="timely b=2"), ScenarioError,
     "default_channel"),
    (lambda: Scenario(n=2, horizon=50, channels={(0, 1): "lossy"}), ScenarioError, "channels"),
    (lambda: Scenario(n=2, horizon=50, origin_channels={0: {(0, 1): "lossy"}}), ScenarioError,
     "origin_channels"),
    (lambda: Scenario(n=2, horizon=50, propagation="x"), ScenarioError, "propagation"),
    (lambda: Scenario(n=2, horizon=50, channels={(0, 1): FairLossy("x", 1, 2)}),
     ConfigurationError, "policy"),
    (lambda: Scenario(n=2, horizon=50, adjacency=5), ScenarioError, "adjacency"),
    (lambda: Scenario(n=2, horizon=50, adjacency=(5, frozenset({0}))), ScenarioError,
     "adjacency"),
], ids=["timers", "default_channel", "channels", "origin_channels", "propagation",
        "fair_lossy policy", "adjacency", "adjacency entry"])
def test_a_field_of_the_wrong_type_is_rejected_on_construction(build, error, match):
    # each of these used to build and fail only in `run` or `to_dict`
    with pytest.raises(error, match=match):
        build()


class TestScenarioPlumbing:
    def test_validate_rejects_bad_crash(self):
        with pytest.raises(ScenarioError):
            Scenario(n=3, horizon=100, seed=1, crash_schedule={5: 10})
        with pytest.raises(ScenarioError):
            Scenario(n=3, horizon=100, seed=1, crash_schedule={1: 101})

    def test_validate_rejects_tiny_network(self):
        with pytest.raises(ScenarioError):
            Scenario(n=1, horizon=100, seed=1)

    @pytest.mark.parametrize("scn", [preset_dependable(4, 1), preset_dependable(
        5, seed=2, crash_victims=(0,), crash_steps=(5_000,))], ids=["preset", "backup"])
    def test_a_preset_equals_itself_read_back(self, scn):
        assert Scenario.from_dict(scn.to_dict()) == scn
        assert dict(scn.labels) == scn.to_dict()["labels"]

    def test_mapping_fields_are_read_only_copies(self):
        given = {"channels": {(0, 1): Lossy()}, "crash_schedule": {1: 50},
                 "labels": {"note": "x"}, "origin_channels": {1: {(0, 2): Lossy()}}}
        scn = Scenario(n=3, horizon=100, **given)
        fields = {name: getattr(scn, name) for name in given}
        for mapping in (*fields.values(), scn.origin_channels[1]):
            with pytest.raises(TypeError):
                mapping[7] = 50
        given["channels"][(1, 0)] = Lossy()
        given["crash_schedule"][1] = 500
        given["labels"]["note"] = "y"
        given["origin_channels"][1][(0, 1)] = Lossy()
        given["origin_channels"][2] = {}
        assert fields == {"channels": {(0, 1): Lossy()}, "crash_schedule": {1: 50},
                          "labels": {"note": "x"}, "origin_channels": {1: {(0, 2): Lossy()}}}
        assert run(scn).events == run(dataclasses.replace(scn)).events

    @pytest.mark.parametrize("adjacency", [(frozenset({1}), [0]), [{1}, {0}], ([1], (0,))],
                             ids=["frozenset and list", "list of sets", "list and tuple"])
    def test_adjacency_is_copied_to_a_tuple_of_frozensets(self, adjacency):
        scn = Scenario(n=2, horizon=50, adjacency=adjacency)
        assert scn.adjacency == (frozenset({1}), frozenset({0}))
        assert type(scn.adjacency) is tuple
        assert {type(neighbors) for neighbors in scn.adjacency} == {frozenset}
        assert Scenario.from_dict(scn.to_dict()) == scn
        out = io.StringIO()
        tr.write_trace(run(scn), out)
        assert tr.read_trace(io.StringIO(out.getvalue())).scenario == scn

    def test_equal_scenarios_hash_equal(self):
        scn = preset_dependable(4, 1)
        again = Scenario.from_dict(scn.to_dict())
        assert {scn: "preset"}[again] == "preset"
        assert len({scn, again, Scenario(n=4, horizon=scn.horizon)}) == 2
        # -0.0 == 0.0, so the two must have one dict form and one fingerprint
        zero, minus_zero = (Scenario(n=2, horizon=50, propagation=GeneralPropagation(0.5, p))
                            for p in (0.0, -0.0))
        assert zero == minus_zero and hash(zero) == hash(minus_zero)

    def test_round_trip_dict(self):
        scn = mixed_scenario()
        again = Scenario.from_dict(scn.to_dict())
        assert again.to_dict() == scn.to_dict()
        assert run(again).events == run(scn).events

    def test_preset_validates(self):
        with pytest.raises(ScenarioError):
            preset_dependable(4, seed=1, crash_victims=(0,), crash_steps=())
        with pytest.raises(ScenarioError):
            preset_dependable(2, seed=1, crash_victims=(0, 1), crash_steps=(10, 20))
        with pytest.raises(ScenarioError, match=re.escape("leader must lie in [0, 2], got 3")):
            preset_dependable(3, 0, leader=3)
        with pytest.raises(ScenarioError, match="^leader must be an integer, got True$"):
            preset_dependable(3, 0, leader=True)

    def test_preset_leader_crash_wires_backup_and_reelects(self):
        scn = preset_dependable(5, seed=2, horizon=30_000,
                                crash_victims=(0,), crash_steps=(5_000,))
        assert scn.labels["backup"] == "1"
        t = run(scn)
        assert t.final_leaders[1:] == [1] * 4
        post = [ev for ev in t.events
                if isinstance(ev, tr.LeaderChange) and ev.step > 5_000]
        assert post, "survivors re-elected after the leader crash"

    def test_preset_shape(self):
        scn = preset_dependable(2, seed=0)
        assert isinstance(scn.channels[(0, 1)], EventuallyTimely)
        assert isinstance(scn.channels[(1, 0)], FairLossy)
        assert len(scn.channels) == 2

    def test_preset_reaches_everyone_timely(self):
        for seed in range(10):
            scn = preset_dependable(6, seed=seed)
            timely_out = {v for (u, v), m in scn.channels.items()
                          if u == 0 and isinstance(m, EventuallyTimely)}
            assert timely_out == set(range(1, 6))
            fair_in = {u for (u, v), m in scn.channels.items()
                       if v == 0 and isinstance(m, FairLossy)}
            assert fair_in == set(range(1, 6))


class TestNonCompleteTopology:
    def test_restricted_adjacency_converges(self):
        # ring + leader star: 0 can reach everyone directly, others only
        # around the ring toward 0
        n = 4
        adjacency = tuple(
            frozenset({(p + 1) % n, 0} - {p}) | ({1, 2, 3} if p == 0 else frozenset())
            for p in range(n)
        )
        channels = {}
        for p in range(n):
            for q in adjacency[p]:
                channels[(p, q)] = Timely(2)
        scn = Scenario(n=n, horizon=10_000, seed=6,
                       timers=TimerConfig(sender_timeout=32,
                                          initial_receiver_timeout=48),
                       default_channel=Lossy(), channels=channels,
                       adjacency=adjacency)
        t = run(scn)
        assert t.final_leaders == [0] * n
        # no packet ever crosses a non-adjacent pair
        for ev in t.events:
            if isinstance(ev, tr.Send):
                assert ev.dst in adjacency[ev.src]

    def test_process_without_paths_to_all_never_claims(self):
        # 0 and 1 reach only each other; 2 reaches 0, and 1 through 0, so
        # 2 alone has a spanning arborescence
        adjacency = (frozenset({1}), frozenset({0}), frozenset({0}))
        scn = Scenario(n=3, horizon=3000, seed=1, adjacency=adjacency)
        t = run(scn)
        assert t.events == run_reference(scn).events
        claims = {ev.mid.origin for ev in t.events
                  if isinstance(ev, tr.Send) and ev.kind == "start_phase"}
        assert claims == {2}
        assert t.final_leaders == [2, 2, 2]
