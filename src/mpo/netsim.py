"""Deterministic discrete-event simulator for the leader election protocol.

A Scenario fully determines a run: topology, per-channel behavior
models, crash schedule, timer constants, seed, and horizon; it lives in
`scenario_io`, and is imported here too.  `run` executes it and returns
a Trace that holds it.  Step semantics, in order, within each
global step: (1) scheduled crashes land, (2) every packet due this step
is delivered (crashed recipients consume silently), (3) timers advance
by one step and the ones that hit their timeout are dispatched in
ascending (process, subject) order.  Packets emitted by a handler are
routed immediately by `_route`, the one routing loop, through their
channel model's `schedule_delivery`, which fixes the delivery step (never
earlier than the next step) or drops them.  Per-message propagation is a
channel model too (see `channels`) that replaces `channels` and
`origin_channels`; its scheduler keeps each message's graphs until a new
message is sent after the message's last delivery, so the engine runs
the same code in every mode.

`run` skips silently over steps in which nothing can happen (no due
delivery, crash, or timer expiry), which changes nothing observable.  It
steps to the earliest heap entry, so a stale timer entry (its timer since
re-armed or stopped, or its process crashed) may cost an empty step that
emits nothing.  `run_reference` grinds through every step literally via
advance_timers and exists to cross-check the fast path on small horizons.

The stimulus rule: a delivery or a timer expiry changes at most the
leader and its subject's phase and timer (the subject is the message's
origin or the expired timer's id; a delivered `failed` message has none).
The engine reads those three around each transition and turns the
differences into LeaderChange and PhaseChange events and a re-armed
timer.  One timing convention to be aware of: timers advance once per
step including the step in which a delivery reset them, so a timer
re-armed by a delivery at step s fires (absent further resets) at
s + timeout - 1, while one armed at init or by a timeout handler fires
at s + timeout.

`run` pauses the cyclic garbage collector while it builds the event list
(see `core.collector_paused`): its loop makes no reference cycles, and
nothing observable changes.  The trace it returns is left in the
collector's oldest generation, so no young collection walks it afterwards.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any

from . import trace as tr
from .channels import (
    ChannelModel,
    ChannelState,
    DeliverProb,
    DropPattern,
    EventuallyTimely,
    FairLossy,
    Lossy,
    StronglyNonTimely,
    schedule_delivery,
    suppression_windows,
)
from .core import (
    Failed,
    MpoState,
    Packet,
    TimerConfig,
    advance_timers,
    check_int,
    collector_paused,
    init_state,
    on_receive,
    on_receiver_timeout,
    on_sender_timeout,
)
from .scenario_io import GeneralPropagation, Scenario, ScenarioError
from .trace import Crash, Deliver, Drop, LeaderChange, PhaseChange, Send, TimerFired


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

_DELIVERY_PHASE = 1
_TIMER_PHASE = 0


def _link(scn: Scenario, src: int, dst: int,
          model: ChannelModel) -> tuple[ChannelModel, ChannelState]:
    """A channel's model with its run state; a strongly non-timely model's
    suppression windows are laid out here, once per run."""
    state = ChannelState()
    if isinstance(model, StronglyNonTimely):
        state.windows = suppression_windows(
            scn.seed, src, dst, model.burst, model.window_cap, scn.horizon,
            start_after=model.quiet_until,
        )
    return model, state


class _Engine:
    def __init__(self, scn: Scenario):
        self.scn = scn
        self.rng = random.Random(scn.seed)
        self.states: list[MpoState] = [
            init_state(p, scn.n, scn.timers, scn.adjacency) for p in range(scn.n)
        ]
        self.crashed = [False] * scn.n
        self.events: list[tr.TraceEvent] = []
        self.seq = 0  # tiebreaker for the delivery heap
        self.delivery_heap: list[tuple[int, int, Packet]] = []
        # (fire step, process, subject, timer ver); stale entries are skipped
        self.timer_heap: list[tuple[int, int, int, int]] = []
        # (step, process), latest first: the next crash is popped off the end
        self.crashes = sorted(
            ((step, p) for p, step in scn.crash_schedule.items()), reverse=True
        )
        pairs = [(u, v) for u in range(scn.n) for v in range(scn.n) if u != v]
        # origin -> (src, dst) -> the link's (model, state); origins without
        # overrides share one table
        if scn.propagation is not None:  # one model and one state on every link
            shared = ChannelState(n=scn.n)
            self.links = [dict.fromkeys(pairs, (scn.propagation, shared))] * scn.n
        else:
            links = {(u, v): _link(scn, u, v, scn.channels.get((u, v), scn.default_channel))
                     for u, v in pairs}
            self.links = [links] * scn.n
            for origin, overrides in scn.origin_channels.items():
                self.links[origin] = links | {
                    (u, v): _link(scn, u, v, model) for (u, v), model in overrides.items()
                }
        for p in range(scn.n):
            # own timers armed at step 0; they fire at step sender_timeout
            heappush(self.timer_heap, (scn.timers.sender_timeout, p, p, 0))

    # -- channels ----------------------------------------------------------

    def _route(self, packets: list[Packet], step: int) -> None:
        append, heap, rng, links = self.events.append, self.delivery_heap, self.rng, self.links
        send, drop, seq = Send.direct, Drop.direct, self.seq
        for pkt in packets:
            mid, msg, src, dst = pkt
            append(send((step, mid, msg.kind, src, dst)))
            model, state = links[mid.origin][src, dst]
            due = schedule_delivery(model, pkt, step, rng, state)
            if due is None:
                append(drop((step, mid, src, dst)))
            else:
                seq += 1
                heappush(heap, (due, seq, pkt))
        self.seq = seq

    # -- dispatch ------------------------------------------------------------

    def _apply_crashes(self, step: int) -> None:
        crashes = self.crashes
        while crashes and crashes[-1][0] == step:
            proc = crashes.pop()[1]
            self.crashed[proc] = True
            self.events.append(Crash(step, proc))

    def _stimulus(self, step: int, proc: int, subject: int | None, phase: int,
                  transition, arg=None) -> None:
        """Run `transition(state)`, or `transition(state, arg)`, on `proc`;
        record the leader, phase and timer it changed (see the stimulus rule
        in the module docstring), then route the packets it emitted."""
        state = self.states[proc]
        leader = state.leader
        if subject is not None:
            phase_before = state.phases[subject]
            timer = state.timers[subject]
            ver = timer.ver
        _, out = transition(state) if arg is None else transition(state, arg)
        append = self.events.append
        if state.leader != leader:
            append(LeaderChange(step, proc, leader, state.leader))
        if subject is not None:
            if state.phases[subject] != phase_before:
                append(PhaseChange(step, proc, subject, state.phases[subject]))
            if timer.ver != ver and timer.on:
                heappush(self.timer_heap,
                         (step + timer.timeout - phase, proc, subject, timer.ver))
        if out:
            self._route(out, step)

    def _deliver_due(self, step: int) -> None:
        heap, crashed = self.delivery_heap, self.crashed
        append, stimulus, deliver = self.events.append, self._stimulus, Deliver.direct
        while heap and heap[0][0] == step:
            pkt = heappop(heap)[2]
            mid, msg, src, dst = pkt
            if not crashed[dst]:  # a crashed recipient consumes it silently
                append(deliver((step, mid, src, dst)))
                subject = msg.origin if type(msg) is not Failed else None
                stimulus(step, dst, subject, _DELIVERY_PHASE, on_receive, pkt)

    def _dispatch_timeout(self, step: int, proc: int, subject: int) -> None:
        self.events.append(TimerFired.direct((step, proc, subject)))
        if subject == proc:
            self._stimulus(step, proc, proc, _TIMER_PHASE, on_sender_timeout)
        else:
            self._stimulus(step, proc, subject, _TIMER_PHASE, on_receiver_timeout, subject)

    def _fire_timers_reference(self, step: int) -> None:
        due: list[tuple[int, int]] = []
        for proc in range(self.scn.n):
            if self.crashed[proc]:
                continue
            _, fired = advance_timers(self.states[proc])
            due.extend((proc, subject) for subject in fired)
        for proc, subject in sorted(due):
            self._dispatch_timeout(step, proc, subject)

    # -- main loops ------------------------------------------------------------

    def run_fast(self) -> tr.Trace:
        """Step to the earliest crash, delivery or timer entry.  A timer entry
        is checked once, when popped after the step's deliveries, and a live
        one is dispatched at once: the heap pops a step's entries in
        (process, subject) order, and by the stimulus rule a dispatch changes
        no other timer and re-arms its own for a later step."""
        horizon, crashes = self.scn.horizon, self.crashes
        deliveries, timers, states, crashed = (
            self.delivery_heap, self.timer_heap, self.states, self.crashed)
        while True:
            crash = crashes[-1][0] if crashes else horizon + 1
            step = min(crash, deliveries[0][0] if deliveries else crash,
                       timers[0][0] if timers else crash)
            if step > horizon:
                break
            if crash == step:
                self._apply_crashes(step)
            if deliveries and deliveries[0][0] == step:
                self._deliver_due(step)
            while timers and timers[0][0] == step:
                _, proc, subject, ver = heappop(timers)
                timer = states[proc].timers[subject]
                if timer.ver == ver and timer.on and not crashed[proc]:
                    self._dispatch_timeout(step, proc, subject)
        return self._finish()

    def run_reference(self) -> tr.Trace:
        for step in range(1, self.scn.horizon + 1):
            self._apply_crashes(step)
            self._deliver_due(step)
            self._fire_timers_reference(step)
        return self._finish()

    def _finish(self) -> tr.Trace:
        return tr.Trace(
            scenario=self.scn,
            events=self.events,
            final_leaders=[s.leader for s in self.states],
            crashed=list(self.crashed),
        )


@collector_paused()
def run(scn: Scenario) -> tr.Trace:
    """Execute the scenario to its horizon; the trace is a pure function of it."""
    return _Engine(scn).run_fast()


def run_reference(scn: Scenario) -> tr.Trace:
    """Literal step-by-step execution; for cross-checking `run` on small horizons."""
    return _Engine(scn).run_reference()


# ---------------------------------------------------------------------------
# Scenario generators
# ---------------------------------------------------------------------------

def preset_dependable(
    n: int,
    seed: int,
    leader: int = 0,
    *,
    horizon: int = 50_000,
    crash_victims: tuple[int, ...] = (),
    crash_steps: tuple[int, ...] = (),
    sender_timeout: int = 64,
    bound: int = 2,
) -> Scenario:
    """Scenario in which `leader` provably deserves to win.

    Construction: every channel out of `leader` is eventually timely
    with delay bound `bound` (the adversarial prefix ends no later than
    the first send), every channel into `leader` is fair-lossy, and the
    remaining channels are a seeded mix of fair-lossy, strongly
    non-timely, and dead channels.  That gives the leader an eventually
    timely path to everyone and everyone a fair-lossy path back: the two
    conditions under which an efficient eventual leader service is
    achievable at all.

    Non-leader channels deliver slowly (floor (n-1)*bound) so a fanned
    out heartbeat copy can never outrun the tree copy, and the initial
    receiver timeout absorbs the full tree delay so the leader's
    subjects never false-alarm once its heartbeats flow.

    When the leader is scheduled to crash, the smallest surviving id
    becomes a backup: a second process wired the same way and labelled
    `backup`, so the survivor network still meets the conditions and
    re-converges after the crash.  A process crashes at most once, so a
    repeated victim is rejected.
    """
    check_int("n", n, ScenarioError, low=2)
    check_int("seed", seed, ScenarioError)
    check_int("leader", leader, ScenarioError, 0, n - 1)
    if len(crash_victims) != len(crash_steps):
        raise ScenarioError("need one crash step per victim")
    repeated = [p for i, p in enumerate(crash_victims) if p in crash_victims[:i]]
    if repeated:
        raise ScenarioError(f"process {repeated[0]} is a crash victim more than once")
    backup = None
    if leader in crash_victims:
        survivors = [x for x in range(n) if x != leader and x not in crash_victims]
        if not survivors:
            raise ScenarioError("nobody would survive to take over")
        backup = survivors[0]

    rng = random.Random(seed * 0x9E3779B1 % (1 << 62) ^ 0x5EED)
    slow_lo = (n - 1) * bound
    slow_hi = 2 * slow_lo
    boundary = rng.randint(0, sender_timeout)
    # suppression windows stress the steady-state tail; they open only after
    # startup and any crash-triggered re-election chatter has drained
    quiet = 40 * sender_timeout + (max(crash_steps) if crash_steps else 0)
    hubs = {leader} if backup is None else {leader, backup}

    channels: dict[tuple[int, int], ChannelModel] = {}
    for hub in sorted(hubs):
        for x in range(n):
            if x == hub:
                continue
            channels[(hub, x)] = EventuallyTimely(
                bound=bound, unreliable_until=boundary
            )
            channels.setdefault(
                (x, hub), FairLossy(DeliverProb(0.5), slow_lo, slow_hi)
            )
    for x in range(n):
        for y in range(n):
            if x == y or x in hubs or y in hubs:
                continue
            roll = rng.random()
            if roll < 0.20:
                channels[(x, y)] = FairLossy(
                    DropPattern(rng.randint(1, 2)), slow_lo, slow_hi
                )
            elif roll < 0.40:
                channels[(x, y)] = FairLossy(DeliverProb(0.5), slow_lo, slow_hi)
            elif roll < 0.65:
                channels[(x, y)] = StronglyNonTimely(
                    burst=rng.choice((4, 8, 16)),
                    window_cap=256,
                    delay_min=slow_lo,
                    delay_max=slow_hi,
                    quiet_until=quiet,
                )
            else:
                channels[(x, y)] = Lossy()

    timers = TimerConfig(
        sender_timeout=sender_timeout,
        initial_receiver_timeout=sender_timeout + bound * (n - 1),
        timeout_increment=1,
    )
    labels: dict[str, Any] = {"preset": "dependable", "leader": leader, "bound": bound}
    if backup is not None:
        labels["backup"] = backup
    return Scenario(
        n=n,
        horizon=horizon,
        seed=seed,
        timers=timers,
        default_channel=Lossy(),
        channels=channels,
        crash_schedule=dict(zip(crash_victims, crash_steps)),
        labels=labels,
    )
