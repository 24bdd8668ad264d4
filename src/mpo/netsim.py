"""Deterministic discrete-event simulator for the leader election protocol.

A Scenario fully determines a run: topology, per-channel behavior
models, crash schedule, timer constants, seed, and horizon.  `run`
executes it and returns a Trace.  Step semantics, in order, within each
global step: (1) scheduled crashes land, (2) every packet due this step
is delivered (crashed recipients consume silently), (3) timers advance
by one step and the ones that hit their timeout are dispatched in
ascending (process, subject) order.  Packets emitted by a handler are
routed immediately through their channel model, which fixes the
delivery step (never earlier than the next step) or drops them.

`run` skips silently over steps in which nothing can happen (no due
delivery, crash, or timer expiry), which changes nothing observable;
`run_reference` grinds through every step literally via advance_timers
and exists to cross-check the fast path on small horizons.

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
nothing observable changes.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from heapq import heappop, heappush
from types import MappingProxyType
from typing import Any, Mapping

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
    Timely,
    model_from_spec,
    model_to_spec,
    read_float,
    read_int,
    schedule_delivery,
    suppression_windows,
)
from .core import (
    ConfigurationError,
    Failed,
    MessageId,
    MpoState,
    Packet,
    TimerConfig,
    advance_timers,
    collector_paused,
    init_state,
    on_receive,
    on_receiver_timeout,
    on_sender_timeout,
)
from .trace import Crash, Deliver, Drop, LeaderChange, PhaseChange, Send, TimerFired


class ScenarioError(ValueError):
    """Scenario fails validation."""


@dataclass(frozen=True)
class GeneralPropagation:
    """Per-message propagation sampling: no channel has standing properties.

    Each message gets a reliable edge set R (each directed edge present
    with probability p_reliable) and a timely subset T (each R edge also
    timely with probability p_timely).  Packets over edges outside R are
    dropped; T edges deliver within `bound` steps; R-only edges deliver
    late, in (bound, 4*bound].  The probabilities are kept as floats, so
    GeneralPropagation(1, 0) and its dict form are one model.
    """

    p_reliable: float
    p_timely: float
    bound: int = 4

    def __post_init__(self) -> None:
        if not (0 <= self.p_reliable <= 1 and 0 <= self.p_timely <= 1):
            raise ConfigurationError("p_reliable and p_timely must lie in [0, 1]")
        if self.bound < 1:
            raise ConfigurationError(f"bound must be >= 1, got {self.bound}")
        object.__setattr__(self, "p_reliable", float(self.p_reliable))
        object.__setattr__(self, "p_timely", float(self.p_timely))


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulation run.

    Immutable and checked on construction: a bad field raises ScenarioError
    (or a model's ConfigurationError), so every Scenario that exists is
    valid.  The mapping fields hold read-only copies of the dicts given, so
    neither a write into a field nor a later change to a dict passed in
    reaches a Scenario.  Override a field with `dataclasses.replace`, which
    checks the result again.
    """

    n: int
    horizon: int
    seed: int = 0
    timers: TimerConfig = field(default_factory=TimerConfig)
    default_channel: ChannelModel = field(default_factory=lambda: Timely(4))
    channels: Mapping[tuple[int, int], ChannelModel] = field(default_factory=dict)
    origin_channels: Mapping[int, Mapping[tuple[int, int], ChannelModel]] = field(
        default_factory=dict
    )
    adjacency: tuple[frozenset[int], ...] | None = None
    crash_schedule: Mapping[int, int] = field(default_factory=dict)
    propagation: GeneralPropagation | None = None
    labels: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("channels", "crash_schedule", "labels"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        object.__setattr__(self, "origin_channels", MappingProxyType(
            {o: MappingProxyType(dict(pairs)) for o, pairs in self.origin_channels.items()}))
        n = self.n
        if n < 2:
            raise ScenarioError(f"n must be >= 2, got {n}")
        if self.horizon < 1:
            raise ScenarioError("horizon must be positive")
        _check_pairs("channels", self.channels, n)
        for origin, pairs in self.origin_channels.items():
            if not 0 <= origin < n:
                raise ScenarioError(f"origin_channels: unknown origin {origin}")
            _check_pairs(f"origin_channels {origin}", pairs, n)
        for p, step in self.crash_schedule.items():
            if not 0 <= p < n:
                raise ScenarioError(f"crash of unknown process {p}")
            if not 1 <= step <= self.horizon:
                raise ScenarioError(f"crash step {step} outside [1, horizon]")
        if self.adjacency is not None:
            if len(self.adjacency) != n:
                raise ScenarioError(
                    f"adjacency: the topology needs one out-neighbor list per process,"
                    f" got {len(self.adjacency)} for n={n}"
                )
            for p, neighbors in enumerate(self.adjacency):
                bad = sorted(q for q in neighbors if not 0 <= q < n)
                if bad:
                    raise ScenarioError(f"adjacency: process {p} lists unknown process {bad[0]}")

    def to_dict(self) -> dict[str, Any]:
        return {key: write(getattr(self, attr)) for key, (attr, write, _) in _DICT_FORM.items()}

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> "Scenario":
        """Inverse of `to_dict`; the one way text or JSON becomes a Scenario.

        Values may be numbers or strings (a config file's form).  An
        omitted key keeps the field default; a bad value raises
        ScenarioError naming its key.
        """
        for key in ("n", "horizon"):
            if key not in obj:
                raise ScenarioError(f"missing required key {key!r}")
        kwargs = {}
        for key, value in obj.items():
            if key not in _DICT_FORM:
                raise ScenarioError(f"unknown key {key!r}")
            attr, _, read = _DICT_FORM[key]
            try:
                kwargs[attr] = read(value)
            except (ValueError, TypeError, AttributeError) as exc:
                raise ScenarioError(f"{key}: {exc}") from None
        return cls(**kwargs)

    def fingerprint(self) -> str:
        return tr.fingerprint_scenario(self.to_dict())


def _check_pairs(where: str, pairs, n: int) -> None:
    for (u, v) in pairs:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ScenarioError(f"{where}: bad channel pair ({u}, {v})")


def _entries(d: dict, key_fn, value_fn) -> dict:
    out = {}
    for k, v in d.items():
        try:
            out[key_fn(k)] = value_fn(v)
        except (ValueError, TypeError, AttributeError) as exc:
            raise ValueError(f"key {k!r}: {exc}") from None
    return out


def _pair(key: str) -> tuple[int, int]:
    u, arrow, v = key.partition("->")
    if not arrow:
        raise ValueError("expected 'U->V'")
    return read_int(u), read_int(v)


def _read_pairs(d: dict[str, str]) -> dict[tuple[int, int], ChannelModel]:
    return _entries(d, _pair, model_from_spec)


def _write_pairs(d: dict[tuple[int, int], ChannelModel]) -> dict[str, str]:
    return {f"{u}->{v}": model_to_spec(m) for (u, v), m in sorted(d.items())}


def _optional(convert):
    """`convert`, with None kept as None."""
    return lambda value: None if value is None else convert(value)


def _same(value):
    return value


def read_timers(d: dict[str, Any]) -> TimerConfig:
    """The `timers` value of the dict form; a key left out keeps its default."""
    return TimerConfig(**{k: read_int(v) for k, v in d.items()})


def _read_propagation(d: dict[str, Any]) -> GeneralPropagation:
    return GeneralPropagation(
        **{k: read_int(v) if k == "bound" else read_float(v) for k, v in d.items()}
    )


# The dict form, written by `to_dict` and read by `from_dict`: dict key ->
# (Scenario field, writer of the field's value, reader of its JSON or
# config-file value).
_DICT_FORM = {
    "n": ("n", _same, read_int),
    "horizon": ("horizon", _same, read_int),
    "seed": ("seed", _same, read_int),
    "timers": ("timers", asdict, read_timers),
    "default_channel": ("default_channel", model_to_spec, model_from_spec),
    "channels": ("channels", _write_pairs, _read_pairs),
    "origin_channels": (
        "origin_channels",
        lambda d: {str(o): _write_pairs(pairs) for o, pairs in sorted(d.items())},
        lambda d: _entries(d, read_int, _read_pairs),
    ),
    "adjacency": (
        "adjacency",
        _optional(lambda a: [sorted(s) for s in a]),
        _optional(lambda a: tuple(frozenset(map(read_int, s)) for s in a)),
    ),
    "crashes": (
        "crash_schedule",
        lambda d: {str(p): s for p, s in sorted(d.items())},
        lambda d: _entries(d, read_int, read_int),
    ),
    "propagation": ("propagation", _optional(asdict), _optional(_read_propagation)),
    # stringified so a config-file round trip keeps the fingerprint
    "labels": ("labels", lambda d: {str(k): str(v) for k, v in sorted(d.items())}, dict),
}


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
        # propagation mode: message id -> [reliable edges, timely edges,
        # packets in flight], for the messages with a packet in flight
        self.prop_graphs: dict[MessageId, list] = {}
        self.crash_queue = sorted(
            (step, p) for p, step in scn.crash_schedule.items()
        )
        self.crash_idx = 0
        # origin -> (src, dst) -> the link's (model, state); origins without
        # overrides share one table
        links = {
            (u, v): _link(scn, u, v, scn.channels.get((u, v), scn.default_channel))
            for u in range(scn.n) for v in range(scn.n) if u != v
        }
        self.links = [links] * scn.n
        for origin, pairs in scn.origin_channels.items():
            self.links[origin] = links | {
                (u, v): _link(scn, u, v, model) for (u, v), model in pairs.items()
            }
        for p in range(scn.n):
            # own timers armed at step 0; they fire at step sender_timeout
            heappush(self.timer_heap, (scn.timers.sender_timeout, p, p, 0))

    # -- channels ----------------------------------------------------------

    def _sample_graphs(self) -> tuple[set, set]:
        """A message's reliable edge set and its timely subset, drawn when
        the message's first packet is routed."""
        gp = self.scn.propagation
        rng = self.rng
        reliable: set[tuple[int, int]] = set()
        timely: set[tuple[int, int]] = set()
        for u in range(self.scn.n):
            for v in range(self.scn.n):
                if u == v:
                    continue
                if rng.random() < gp.p_reliable:
                    reliable.add((u, v))
                    if rng.random() < gp.p_timely:
                        timely.add((u, v))
        return reliable, timely

    def _route(self, packets: list[Packet], step: int) -> None:
        if self.scn.propagation is not None:
            self._route_propagation(packets, step)
            return
        append, heap, rng, links = self.events.append, self.delivery_heap, self.rng, self.links
        seq = self.seq
        for pkt in packets:
            mid, msg, src, dst = pkt
            append(Send(step, mid, msg.kind, src, dst))
            model, state = links[mid.origin][src, dst]
            due = schedule_delivery(model, pkt, step, rng, state)
            if due is None:
                append(Drop(step, mid, src, dst))
            else:
                seq += 1
                heappush(heap, (due, seq, pkt))
        self.seq = seq

    def _route_propagation(self, packets: list[Packet], step: int) -> None:
        """Route over each message's own graphs.  A message's graphs are kept
        while any of its packets is in flight or being handled; new packets of
        a message come only from its origination or from handling one of its
        packets, so dropped graphs are never needed again."""
        append, heap, rng = self.events.append, self.delivery_heap, self.rng
        graphs, b, seq = self.prop_graphs, self.scn.propagation.bound, self.seq
        for pkt in packets:
            mid, msg, src, dst = pkt
            append(Send(step, mid, msg.kind, src, dst))
            entry = graphs.get(mid)
            if entry is None:
                entry = graphs[mid] = [*self._sample_graphs(), 0]
            reliable, timely, _ = entry
            edge = (src, dst)
            if edge not in reliable:
                append(Drop(step, mid, src, dst))
                continue
            due = step + (rng.randint(1, b) if edge in timely else rng.randint(b + 1, 4 * b))
            entry[2] += 1
            seq += 1
            heappush(heap, (due, seq, pkt))
        self.seq = seq
        for mid in {pkt.msg_id for pkt in packets}:
            if graphs[mid][2] == 0:  # every packet of a new message dropped
                del graphs[mid]

    def _landed(self, mid: MessageId) -> None:
        """A packet of `mid` was delivered and handled, or consumed by a
        crashed recipient."""
        entry = self.prop_graphs[mid]
        entry[2] -= 1
        if entry[2] == 0:
            del self.prop_graphs[mid]

    # -- timers (fast path) --------------------------------------------------

    def _timer_entry_valid(self, entry: tuple[int, int, int, int]) -> bool:
        _, proc, subject, ver = entry
        if self.crashed[proc]:
            return False
        ts = self.states[proc].timers[subject]
        return ts.ver == ver and ts.on

    def _peek_timer_step(self) -> int | None:
        heap = self.timer_heap
        while heap:
            if self._timer_entry_valid(heap[0]):
                return heap[0][0]
            heappop(heap)
        return None

    # -- dispatch ------------------------------------------------------------

    def _apply_crashes(self, step: int) -> None:
        while self.crash_idx < len(self.crash_queue) and \
                self.crash_queue[self.crash_idx][0] == step:
            _, proc = self.crash_queue[self.crash_idx]
            self.crash_idx += 1
            if not self.crashed[proc]:
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
        self._route(out, step)

    def _deliver_due(self, step: int) -> None:
        heap, crashed = self.delivery_heap, self.crashed
        append, stimulus = self.events.append, self._stimulus
        propagation = self.scn.propagation is not None
        while heap and heap[0][0] == step:
            pkt = heappop(heap)[2]
            mid, msg, src, dst = pkt
            if crashed[dst]:  # consumed silently, no action runs
                if propagation:
                    self._landed(mid)
                continue
            append(Deliver(step, mid, src, dst))
            subject = msg.origin if type(msg) is not Failed else None
            stimulus(step, dst, subject, _DELIVERY_PHASE, on_receive, pkt)
            if propagation:
                self._landed(mid)

    def _dispatch_timeout(self, step: int, proc: int, subject: int) -> None:
        self.events.append(TimerFired(step, proc, subject))
        if subject == proc:
            self._stimulus(step, proc, proc, _TIMER_PHASE, on_sender_timeout)
        else:
            self._stimulus(step, proc, subject, _TIMER_PHASE, on_receiver_timeout, subject)

    def _fire_timers_fast(self, step: int) -> None:
        due: list[tuple[int, int]] = []
        heap = self.timer_heap
        while heap and heap[0][0] <= step:
            entry = heappop(heap)
            if self._timer_entry_valid(entry):
                due.append((entry[1], entry[2]))
        for proc, subject in sorted(due):
            self._dispatch_timeout(step, proc, subject)

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
        horizon = self.scn.horizon
        while True:
            nxt = None
            if self.crash_idx < len(self.crash_queue):
                nxt = self.crash_queue[self.crash_idx][0]
            if self.delivery_heap:
                d = self.delivery_heap[0][0]
                nxt = d if nxt is None else min(nxt, d)
            t = self._peek_timer_step()
            if t is not None:
                nxt = t if nxt is None else min(nxt, t)
            if nxt is None or nxt > horizon:
                break
            self._apply_crashes(nxt)
            self._deliver_due(nxt)
            self._fire_timers_fast(nxt)
        return self._finish()

    def run_reference(self) -> tr.Trace:
        for step in range(1, self.scn.horizon + 1):
            self._apply_crashes(step)
            self._deliver_due(step)
            self._fire_timers_reference(step)
        return self._finish()

    def _finish(self) -> tr.Trace:
        return tr.Trace(
            fingerprint=self.scn.fingerprint(),
            scenario=self.scn.to_dict(),
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
    backup: int | None = None,
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

    Crashing the designated leader is allowed only with a `backup`: a
    second process wired the same way, so the survivor network still
    meets the conditions and re-converges after the crash.  When the
    leader is scheduled to crash and no backup is named, the smallest
    surviving id is used.
    """
    if not 0 <= leader < n:
        raise ScenarioError(f"leader {leader} outside [0, {n})")
    if len(crash_victims) != len(crash_steps):
        raise ScenarioError("need one crash step per victim")
    if leader in crash_victims and backup is None:
        survivors = [x for x in range(n) if x != leader and x not in crash_victims]
        if not survivors:
            raise ScenarioError("nobody would survive to take over")
        backup = survivors[0]
    if backup is not None:
        if backup == leader or backup in crash_victims:
            raise ScenarioError("backup must be a surviving non-leader")

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
