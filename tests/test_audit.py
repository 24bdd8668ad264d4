import dataclasses

import pytest

from mpo import trace as tr
from mpo.audit import (
    audit_report,
    audit_timer_bound,
    default_cutoff,
    summarize,
)
from mpo.channels import DeliverProb, DropPattern, FairLossy, Lossy, StronglyNonTimely, Timely
from mpo.core import ConfigurationError, MessageId, TimerConfig
from mpo.netsim import Scenario, preset_dependable, run


@pytest.fixture(scope="module")
def converged_trace():
    return run(preset_dependable(5, seed=2, horizon=20_000))


@pytest.fixture(scope="module")
def converged(converged_trace):
    return summarize(converged_trace)


class TestConvergence:
    def test_detects_preset_convergence(self, converged):
        conv = converged.convergence()
        assert conv is not None
        assert conv.leader == 0
        assert conv.step < 1_000

    def test_synthetic_stable_run(self):
        scenario = preset_dependable(3, seed=0, horizon=10_000)
        events = [
            tr.LeaderChange(100, p, None, 2) for p in range(3)
        ]
        t = tr.Trace(scenario, events, [2, 2, 2], [False] * 3)
        conv = summarize(t).convergence()
        assert conv == type(conv)(leader=2, step=100)

    def test_oscillation_never_converges(self):
        scenario = preset_dependable(3, seed=0, horizon=10_000)
        events = []
        for step in range(100, 10_000, 100):
            events.append(tr.LeaderChange(step, 0, 1, 2))
            events.append(tr.LeaderChange(step + 50, 0, 2, 1))
        t = tr.Trace(scenario, events, [1, 1, 1], [False] * 3)
        assert summarize(t).convergence() is None

    def test_agreement_on_crashed_process_rejected(self):
        scenario = preset_dependable(3, seed=0, horizon=10_000)
        events = [tr.Crash(50, 2)] + [
            tr.LeaderChange(100, p, None, 2) for p in (0, 1)
        ]
        t = tr.Trace(scenario, events, [2, 2, None], [False, False, True])
        assert summarize(t).convergence() is None

    def test_stability_window_enforced(self):
        scenario = preset_dependable(3, seed=0, horizon=1_000)
        events = [tr.LeaderChange(950, p, None, 1) for p in range(3)]
        t = tr.Trace(scenario, events, [1, 1, 1], [False] * 3)
        assert summarize(t).convergence() is None  # only 50 stable steps < 200
        assert summarize(t).convergence(window=10) is not None


class TestMessageEfficiency:
    def test_tail_origins_are_exactly_the_leader(self, converged_trace, converged):
        conv = converged.convergence()
        cutoff = default_cutoff(converged_trace, conv.step)
        assert converged.origins_after(cutoff) == {0}

    def test_cutoff_zero_sees_everyone(self, converged):
        origins = converged.origins_after(0)
        assert origins == set(range(5))  # every process claims at startup

    def test_horizon_cutoff_is_empty(self, converged_trace, converged):
        assert converged.origins_after(converged_trace.horizon) == set()


class TestPacketEfficiency:
    def test_alive_packets_linear(self, converged_trace, converged):
        conv = converged.convergence()
        cutoff = default_cutoff(converged_trace, conv.step)
        n = converged_trace.n
        by_kind = converged.packets_after(cutoff)
        assert max(by_kind.values()) <= 2 * (n - 1)
        assert set(by_kind) == {"alive"}

    def test_startup_broadcast_quadratic(self, converged_trace, converged):
        # at cutoff 0 the claim broadcasts are flooded: every process
        # forwards once, so a message can use up to n*(n-1) packets
        n = converged_trace.n
        worst = max(converged.packets_after(0).values())
        assert worst > 2 * (n - 1)
        assert worst <= n * (n - 1)


class TestChannelUsage:
    def test_rotation_touches_every_channel(self, converged_trace, converged):
        conv = converged.convergence()
        cutoff = default_cutoff(converged_trace, conv.step)
        n = converged_trace.n
        assert converged.channels_after(cutoff) == n * (n - 1)

    def test_short_tail_at_least_tree(self, converged_trace, converged):
        n = converged_trace.n
        to = converged_trace.scenario.timers.sender_timeout
        cutoff = converged_trace.horizon - 2 * to
        assert converged.channels_after(cutoff) >= n - 1

    def test_two_process_run_uses_both_channels(self):
        t = run(preset_dependable(2, seed=4, horizon=8_000))
        summary = summarize(t)
        conv = summary.convergence()
        cutoff = default_cutoff(t, conv.step)
        assert summary.channels_after(cutoff) == 2


class TestSummaryViews:
    def test_cutoff_edges_on_hand_built_events(self):
        # cutoff 10; (kind, origin, seq, [(step, src, dst), ...]) per message
        sends = [
            ("failed", 3, 1, [(3, 3, 0)]),                     # channel 3->0 only before
            ("start_phase", 0, 1, [(5, 0, 1), (12, 1, 2), (12, 1, 3)]),  # late forwards
            ("alive", 1, 1, [(10, 1, 0)]),                     # sent at the cutoff
            ("alive", 0, 2, [(11, 0, 1), (11, 0, 2), (13, 1, 3)]),
            ("alive", 0, 3, [(14, 0, 1)]),
            ("failed", 2, 1, [(15, 2, 0), (15, 2, 1)]),
        ]
        events = sorted(
            (tr.Send(step, MessageId(origin, seq), kind, src, dst)
             for kind, origin, seq, hops in sends for step, src, dst in hops),
            key=lambda ev: ev.step,
        )
        scenario = preset_dependable(4, seed=0, horizon=100)
        summary = summarize(tr.Trace(scenario, events, [0] * 4, [False] * 4))
        assert summary.origins_after(10) == {0, 2}
        assert summary.packets_after(10) == {"alive": 3, "failed": 2}
        assert summary.channels_after(10) == len({(0, 1), (0, 2), (1, 2), (1, 3),
                                                  (2, 0), (2, 1)})


class TestTimerBound:
    def test_generous_initial_never_grows(self, converged_trace):
        rep = audit_timer_bound(converged_trace, 0)
        initial = converged_trace.scenario.timers.initial_receiver_timeout
        assert rep.stabilized
        assert all(v == initial for v in rep.final_timeouts.values())

    def test_tiny_initial_grows_to_bound(self):
        # all-timely network, initial timeout 1: receive timers for the
        # eventual leader fire until their timeout exceeds the heartbeat
        # gap, then stop; the blame race decides who that leader is
        n, to, bound = 4, 16, 2
        scn = Scenario(
            n=n, horizon=30_000, seed=9,
            timers=TimerConfig(sender_timeout=to, initial_receiver_timeout=1),
            default_channel=Timely(bound),
        )
        t = run(scn)
        conv = summarize(t).convergence()
        assert conv is not None
        rep = audit_timer_bound(t, conv.leader)
        assert rep.stabilized
        # one heartbeat period, plus one more for rounds in which a fanned
        # out copy outraces the tree copy and the duplicate filter eats the
        # reset, plus path jitter
        limit = 2 * to + bound * (n - 1) + 1
        assert all(1 < v <= limit for v in rep.final_timeouts.values())

    def test_non_timely_subject_keeps_growing(self):
        # origin 1 keeps claiming but its channel to 2 suppresses delivery
        # for growing windows, so 2's timer for subject 1 grows much more
        scn = Scenario(
            n=3, horizon=30_000, seed=3,
            timers=TimerConfig(sender_timeout=32, initial_receiver_timeout=40),
            default_channel=Lossy(),
            channels={
                (1, 0): Timely(2),
                (1, 2): StronglyNonTimely(burst=64, window_cap=4096,
                                          delay_min=1, delay_max=4),
                (0, 1): FairLossy(DeliverProb(0.6), 2, 6),
                (2, 1): FairLossy(DeliverProb(0.6), 2, 6),
            },
        )
        t = run(scn)
        fires_for_1_at_2 = sum(
            1 for ev in t.events
            if isinstance(ev, tr.TimerFired) and ev.proc == 2 and ev.subject == 1
        )
        assert fires_for_1_at_2 >= 3


class TestFairLossyAccounting:
    def test_drop_pattern_floor(self):
        scn = Scenario(
            n=2, horizon=4_000, seed=6,
            timers=TimerConfig(sender_timeout=8, initial_receiver_timeout=32),
            default_channel=Timely(2),
            channels={(0, 1): FairLossy(DropPattern(2), 1, 3)},
        )
        t = run(scn)
        # (src, dst, kind, origin) -> [sends, delivers]
        kinds: dict[MessageId, str] = {}
        counts: dict[tuple[int, int, str, int], list[int]] = {}
        for ev in t.events:
            if isinstance(ev, tr.Send):
                kinds[ev.mid] = ev.kind
                counts.setdefault((ev.src, ev.dst, ev.kind, ev.mid.origin), [0, 0])[0] += 1
            elif isinstance(ev, tr.Deliver):
                counts[ev.src, ev.dst, kinds[ev.mid], ev.mid.origin][1] += 1
        assert any((src, dst) == (0, 1) for src, dst, _, _ in counts)
        for (src, dst, kind, origin), (sends, delivers) in counts.items():
            if (src, dst) == (0, 1):
                assert delivers >= sends // 3


class TestReport:
    def test_full_report_on_preset(self, converged_trace):
        rep = audit_report(converged_trace)
        assert rep.converged and rep.leader == 0
        assert rep.message_efficient and rep.packet_efficient
        assert rep.origins_after_cutoff == {0}
        assert rep.timer_growth
        obj = rep.to_json_obj()
        assert obj["converged"] is True
        assert obj["origins_after_cutoff"] == [0]

    def test_report_on_dead_network(self):
        # only non-convergence keeps timer_growth empty
        scn = Scenario(n=3, horizon=5_000, seed=1, default_channel=Lossy(),
                       labels={"preset": "dependable", "leader": 0})
        trace = run(scn)
        rep = audit_report(trace)
        assert not rep.converged
        assert rep.leader is None
        rep = audit_report(trace, cutoff=1_000)
        assert rep.cutoff == 1_000
        assert rep.max_packets_per_message_after_cutoff <= 2 * (3 - 1)
        assert not rep.message_efficient and not rep.packet_efficient
        assert rep.timer_growth == {}

    def test_timer_growth_follows_the_converged_leader(self):
        # labels are annotations: an unlabelled run gets the timer growth too
        scn = dataclasses.replace(preset_dependable(4, seed=3, horizon=8_000), labels={})
        trace = run(scn)
        rep = audit_report(trace)
        assert rep.converged and rep.leader == 0
        assert rep.timer_growth == summarize(trace).timer_bound(0).final_timeouts
        assert sorted(rep.timer_growth) == [1, 2, 3]

    def test_minimal_meta_scenario_takes_the_default_timers(self, tmp_path):
        # a trace file's meta scenario may leave out every key but n and horizon
        scenario = {"n": 3, "horizon": 1_000}
        lines = [{"t": "meta", "fingerprint": tr.fingerprint_scenario(scenario),
                  "scenario": scenario},
                 *({"t": "leader", "step": 1, "proc": p, "old": None, "new": 0}
                   for p in range(3)),
                 {"t": "final", "leaders": [0, 0, 0], "crashed": [False] * 3}]
        path = tmp_path / "minimal.jsonl"
        path.write_text("".join(tr.canonical_json(line) + "\n" for line in lines))
        rep = audit_report(tr.read_trace_file(str(path)))
        timers = TimerConfig()
        assert rep.converged and rep.leader == 0
        assert rep.cutoff == 1 + 10 * timers.sender_timeout
        assert rep.timer_growth == {1: timers.initial_receiver_timeout,
                                    2: timers.initial_receiver_timeout}

    @pytest.mark.parametrize("kwargs", [
        {"cutoff": True}, {"cutoff": 1.5}, {"cutoff": "5"}, {"window": 2.5},
    ], ids=repr)
    def test_cutoff_and_window_must_be_ints(self, converged_trace, kwargs):
        (name, _), = kwargs.items()
        with pytest.raises(ConfigurationError, match=f"^{name} must be an integer"):
            audit_report(converged_trace, **kwargs)

    def test_report_is_pure(self, converged_trace):
        a = audit_report(converged_trace).to_json_obj()
        b = audit_report(converged_trace).to_json_obj()
        assert a == b


# An off-tree copy of an `alive` heartbeat that arrives before the tree copy
# takes its message id, so the tree copy is dropped as a duplicate and the
# children's receive timers expire.  `preset_dependable` slows the channels
# that would let a copy outrun the tree copy; an all-timely network does not.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: an off-tree heartbeat copy claims"
                   " the message id, so an all-timely network never converges")
@pytest.mark.parametrize("n, horizon", [(3, 20_000), (8, 50_000)])
def test_an_all_timely_network_converges_efficiently(n, horizon):
    scn = Scenario(n=n, horizon=horizon, seed=1, default_channel=Timely(4),
                   timers=TimerConfig(sender_timeout=64, initial_receiver_timeout=92,
                                      timeout_increment=1))
    rep = audit_report(run(scn))
    assert rep.converged and rep.message_efficient and rep.packet_efficient
