"""Trace analyzers: convergence, efficiency, and timer-growth checks.

`summarize` walks a trace's events once; every check is a view over the
resulting TraceSummary.  "All but finitely many" claims about infinite
runs are checked in their standard finite form: pick a cutoff, inspect
everything after it within the horizon.  The default cutoff is
convergence_step + 10 * sender_timeout, and convergence itself requires
a stability window (default: `TraceSummary.final_window`, the final 20%
of the horizon) so transient agreement is not accepted.  Besides the
events, an audit reads only the trace's `Scenario`: n, the horizon and
the timers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from .core import MessageId, TimerConfig, check_int
from .trace import LeaderChange, Send, TimerFired, Trace


@dataclass(frozen=True)
class Convergence:
    leader: int
    step: int


@dataclass
class AuditReport:
    converged: bool
    leader: int | None
    convergence_step: int | None
    cutoff: int
    origins_after_cutoff: set[int]
    max_packets_per_message_after_cutoff: int
    channels_used_after_cutoff: int
    timer_growth: dict[int, int] = field(default_factory=dict)
    message_efficient: bool = False
    packet_efficient: bool = False

    def to_json_obj(self) -> dict[str, Any]:
        return asdict(self) | {
            "origins_after_cutoff": sorted(self.origins_after_cutoff),
            "timer_growth": {str(p): t for p, t in sorted(self.timer_growth.items())},
        }


@dataclass(frozen=True)
class TimerBoundReport:
    final_timeouts: dict[int, int]  # correct process -> final timeout for the subject
    stabilized: bool                # no firing inside the final quiet window


@dataclass
class TraceSummary:
    """What the audits need from a trace, gathered in one pass by `summarize`.

    Events are time-ordered, so a message's first send is its
    origination and every later send of it (a forward) happens no
    earlier; "after a cutoff" means strictly after.
    """

    horizon: int
    correct: list[int]
    timers: TimerConfig
    # process -> (its last leader output, the step of that output)
    outputs: dict[int, tuple[int | None, int]]
    # message -> [origination step, kind, packets sent]
    messages: dict[MessageId, list]
    # (src, dst) -> step of the channel's last send
    last_send: dict[tuple[int, int], int]
    # (proc, subject) -> receive-timer firings; sender timers are not counted
    receive_fires: dict[tuple[int, int], int]
    # subject -> step of its last receive-timer firing
    last_receive_fire: dict[int, int]

    @property
    def final_window(self) -> int:
        """The final 20% of the horizon, at least one step: the default
        stability window of `convergence` and the quiet window of `timer_bound`."""
        return max(1, self.horizon // 5)

    def convergence(self, window: int | None = None) -> Convergence | None:
        """Earliest step from which every correct process outputs one fixed
        correct leader through the horizon, provided at least `window` steps
        of that stability are observed; None otherwise."""
        if window is None:
            window = self.final_window
        finals = [self.outputs.get(p, (None, 0)) for p in self.correct]
        leaders = {leader for leader, _ in finals}
        if len(leaders) != 1:
            return None
        leader = leaders.pop()
        if leader is None or leader not in self.correct:
            return None
        step = max(step for _, step in finals)
        if self.horizon - step < window:
            return None
        return Convergence(leader=leader, step=step)

    def origins_after(self, cutoff: int) -> set[int]:
        """Origins of messages originated after `cutoff`.

        The run is message efficient past the cutoff iff the result is
        exactly {leader}.
        """
        return {mid.origin for mid, (step, _, _) in self.messages.items() if step > cutoff}

    def packets_after(self, cutoff: int) -> dict[str, int]:
        """Most packets any message originated after `cutoff` used, by kind;
        the largest value is the packet-efficiency measure."""
        out: dict[str, int] = {}
        for step, kind, packets in self.messages.values():
            if step > cutoff and packets > out.get(kind, 0):
                out[kind] = packets
        return out

    def channels_after(self, cutoff: int) -> int:
        """Distinct ordered (src, dst) pairs carrying sends after `cutoff`."""
        return sum(1 for step in self.last_send.values() if step > cutoff)

    def timer_bound(self, leader: int) -> TimerBoundReport:
        """Final receive-timer timeout for subject `leader` at every correct process.

        Timeouts grow only when the timer fires, by the configured
        increment, so finals are reconstructed from firing counts.
        `stabilized` is False if any such timer still fired inside the
        final quiet window (the last 20% of the horizon), i.e. growth had
        not stopped.
        """
        initial = self.timers.initial_receiver_timeout
        increment = self.timers.timeout_increment
        finals = {
            p: initial + increment * self.receive_fires.get((p, leader), 0)
            for p in self.correct
            if p != leader
        }
        quiet_from = self.horizon - self.final_window
        last_fire = self.last_receive_fire.get(leader)
        stabilized = last_fire is None or last_fire <= quiet_from
        return TimerBoundReport(final_timeouts=finals, stabilized=stabilized)


def summarize(trace: Trace) -> TraceSummary:
    """Walk `trace.events` once and keep what every audit reads.

    Events are dispatched on their exact class (`Send`, `TimerFired`,
    `LeaderChange`), as `netsim.run` and `read_trace` build them; an
    instance of a subclass is skipped like any other event."""
    outputs: dict[int, tuple[int | None, int]] = {}
    messages: dict[MessageId, list] = {}
    last_send: dict[tuple[int, int], int] = {}
    receive_fires: dict[tuple[int, int], int] = {}
    last_receive_fire: dict[int, int] = {}
    for ev in trace.events:
        cls = type(ev)
        if cls is Send:
            step, mid, kind, src, dst = ev
            msg = messages.get(mid)
            if msg is None:
                messages[mid] = [step, kind, 1]
            else:
                msg[2] += 1
            last_send[src, dst] = step
        elif cls is TimerFired:
            step, proc, subject = ev
            if proc != subject:
                key = (proc, subject)
                receive_fires[key] = receive_fires.get(key, 0) + 1
                last_receive_fire[subject] = step
        elif cls is LeaderChange:
            step, proc, _, new = ev
            outputs[proc] = (new, step)
    return TraceSummary(
        horizon=trace.horizon,
        correct=trace.correct_processes(),
        timers=trace.scenario.timers,
        outputs=outputs,
        messages=messages,
        last_send=last_send,
        receive_fires=receive_fires,
        last_receive_fire=last_receive_fire,
    )


def audit_timer_bound(trace: Trace, leader: int) -> TimerBoundReport:
    """`TraceSummary.timer_bound` of `trace`."""
    return summarize(trace).timer_bound(leader)


def default_cutoff(trace: Trace, convergence_step: int) -> int:
    return convergence_step + 10 * trace.scenario.timers.sender_timeout


def packet_budget(n: int) -> int:
    """The most packets a tail message of a packet-efficient run may use: a
    heartbeat's tree edges plus one full fan-out, 2(n - 1)."""
    return 2 * (n - 1)


def audit_report(trace: Trace, cutoff: int | None = None,
                 window: int | None = None) -> AuditReport:
    """One-stop report: convergence plus the efficiency audits at the cutoff.

    The timer growth is every correct process's final receive timeout for
    the converged leader; scenario labels are annotations and are not read.
    A run that does not converge is audited at the given cutoff or 0, is
    neither message nor packet efficient, and gets no timer growth.  A given
    cutoff must be an int in [0, horizon - 1], a given window one in [1, horizon].
    """
    if cutoff is not None:
        check_int("cutoff", cutoff, low=0, high=trace.horizon - 1)
    if window is not None:
        check_int("window", window, low=1, high=trace.horizon)
    summary = summarize(trace)
    conv = summary.convergence(window)
    if cutoff is None:
        cutoff = 0 if conv is None else default_cutoff(trace, conv.step)
    origins = summary.origins_after(cutoff)
    max_packets = max(summary.packets_after(cutoff).values(), default=0)
    timer_growth = {} if conv is None else summary.timer_bound(conv.leader).final_timeouts
    return AuditReport(
        converged=conv is not None,
        leader=None if conv is None else conv.leader,
        convergence_step=None if conv is None else conv.step,
        cutoff=cutoff,
        origins_after_cutoff=origins,
        max_packets_per_message_after_cutoff=max_packets,
        channels_used_after_cutoff=summary.channels_after(cutoff),
        timer_growth=timer_growth,
        message_efficient=conv is not None and origins == {conv.leader},
        packet_efficient=conv is not None and max_packets <= packet_budget(trace.n),
    )
