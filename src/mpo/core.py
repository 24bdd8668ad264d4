"""Per-process state machine for multi-hop eventual leader election.

One process's entire protocol lives here as plain data plus a handful of
transition functions.  Every transition takes the current state and a
stimulus (a timer firing or a received packet), updates the state in
place, and returns (state, packets-to-transmit).  Nothing here knows
about time, channels, or delivery: the simulator owns all of that and
feeds stimuli in whatever order its schedule produces.  Replaying the
same stimuli against an equal starting state always produces the same
outputs.  A stimulus changes at most `leader` (only the own-timer tick
does) and its subject's `phases` and `timers` entries; the subject is the
message's origin (a `failed` message has none) or the expired timer's id.

Protocol sketch.  Every process tracks a fault weight per channel
(edges), learned from `failed` reports.  A process that believes its own
minimum-weight arborescence is the lightest among known candidates
claims leadership: it broadcasts `start_phase` carrying that
arborescence, then keeps sending `alive` heartbeats along it.  Receivers
forward `alive` down the stored tree and take turns (the rotating
`shout` duty) fanning one heartbeat out to everybody, which keeps
unreachable-by-tree processes informed.  A receiver whose heartbeat
timer for some origin expires broadcasts `failed`, blaming its tree
parent; the origin bumps that channel's weight.  Leadership is abandoned
by broadcasting `stop_phase` with a higher phase number, which retires
the old arborescence and heartbeat stream everywhere.

On a topology that is not strongly connected, a process with no paths to
everyone has no spanning arborescence: it never claims leadership and
only follows the claims it hears.  A multi-hop leader needs timely paths
to all processes, so such a process could never be one.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, NamedTuple

from .arborescence import Arborescence, TopologyError, min_arborescence


class ConfigurationError(ValueError):
    """Invalid process id, network size, timer constant or model parameter."""


# The bound-checking rules of every library boundary.  Each raises `error` as `<what> must be
# an integer|a number|<label>, got <v>`, then `<what> must be >= <low>, got <v>` or, with a
# `high`, `<what> must lie in [<low>, <high>], got <v>`; nan lies in no range.

def check_int(what: str, value: object, error: type[ValueError] = ConfigurationError,
              low: int | None = None, high: int | None = None) -> None:
    """An int in [low, high], as a trace file's fields are read: a bool or a
    float is not one, whatever its value."""
    _check(what, value, type(value) is int, "an integer", error, low, high)


def check_number(what: str, value: object, low: float | None = None,
                 high: float | None = None) -> None:
    """An int or a float in [low, high]: a bool is neither, as `check_int` reads them."""
    _check(what, value, type(value) in (int, float), "a number", ConfigurationError, low, high)


def check_type(what: str, value: object, kind, label: str,
               error: type[ValueError] = ConfigurationError) -> None:
    """An instance of `kind`, which `label` names (`"a channel model"`)."""
    _check(what, value, isinstance(value, kind), label, error, None, None)


def _check(what: str, value, ok: bool, label: str, error: type[ValueError], low, high) -> None:
    if not ok:
        raise error(f"{what} must be {label}, got {value!r}")
    if high is not None:
        if not low <= value <= high:
            raise error(f"{what} must lie in [{low}, {high}], got {value!r}")
    elif low is not None and not value >= low:
        raise error(f"{what} must be >= {low}, got {value!r}")


def check_ints(obj: object, error: type[ValueError] = ConfigurationError, **lows: int) -> None:
    """`check_int` each named field of `obj` in keyword order against its
    lower bound, which may be an earlier field's value (`window_cap=self.burst`)."""
    for name, low in lows.items():
        check_int(name, getattr(obj, name), error, low)


# ---------------------------------------------------------------------------
# Messages and packets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StartPhase:
    """Leadership claim: carries the origin's routing arborescence.

    The only message kind whose size grows with n.
    """

    origin: int
    phase: int
    arb: Arborescence

    kind = "start_phase"


@dataclass(frozen=True)
class StopPhase:
    """Leadership abdication; phase is the origin's new (higher) phase."""

    origin: int
    phase: int

    kind = "stop_phase"


@dataclass(frozen=True)
class Alive:
    """Heartbeat from a current leader; `shout` names this round's fan-out duty."""

    origin: int
    phase: int
    shout: int

    kind = "alive"


@dataclass(frozen=True)
class Failed:
    """Missed-heartbeat report.

    `subject` is the origin whose heartbeat went missing, `reporter` the
    process whose timer expired, `parent` the reporter's parent in its
    stored arborescence for the subject (the blamed channel tail).
    """

    subject: int
    reporter: int
    parent: int

    kind = "failed"


Message = StartPhase | StopPhase | Alive | Failed


def equal_within_class(cls: type) -> type:
    """Give a NamedTuple class an equality that holds only between its own
    instances, so a value never equals a tuple or another class's value with
    the same fields; the hash stays tuple's, which equal values share.

    Also give it `direct`, its constructor from one iterable of all its
    fields in order: `tuple.__new__` without the generated Python `__new__`,
    so about half the cost per value, but unchecked, so the caller must pass
    exactly `len(cls._fields)` values.  The hot loops bind it to a local."""

    def __eq__(self, other: object) -> bool:
        return type(other) is cls and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return type(other) is not cls or tuple.__ne__(self, other)

    cls.__eq__, cls.__ne__, cls.__hash__ = __eq__, __ne__, tuple.__hash__
    cls.direct = partial(tuple.__new__, cls)
    return cls


@contextmanager
def collector_paused() -> Iterator[None]:
    """Switch CPython's cyclic garbage collector off for the body, then back
    to the state it was found in, also when the body raises; and leave what
    the body built in the collector's oldest generation.

    For the loops that build a trace's event list (`netsim.run` and
    `trace.read_trace`).  They make no reference cycles, so the collector
    has nothing to find there; but their typed tuples (events, `MessageId`,
    `Packet`) are tuple subclasses, which CPython never untracks as it does
    plain tuples, so every collection during the loop would walk all of
    them again.  mpo is single-threaded, so a process-wide pause is safe.

    Pausing alone only defers that work: the first young collection after
    the body would walk every object it built, and find nothing.  So:

    - at entry, a collection of the two young generations, so that garbage
      made before the body is freed rather than aged with it (about 1 ms);
    - on exit, `gc.freeze()` then `gc.unfreeze()`: two list splices that
      move every tracked object into the oldest generation, so no young
      collection walks the body's objects again.  They are still walked,
      and freed if unreachable, by the next full collection;
    - both only while the collector is on and nothing is frozen.  A caller
      that switched the collector off manages collections itself (and a
      nested pause finds it off), and unfreezing would undo a caller's
      `gc.freeze()`.
    """
    enabled = gc.isenabled()
    age = enabled and gc.get_freeze_count() == 0
    if age:
        gc.collect(1)
    gc.disable()
    try:
        yield
    finally:
        if age:
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


@equal_within_class
class MessageId(NamedTuple):
    """Network-unique message identity: (creator, per-creator sequence number).

    Forwarded copies keep the creator's id, so receiving any copy twice is
    detectable and every broadcast terminates.
    """

    origin: int
    seq: int


@equal_within_class
class Packet(NamedTuple):
    """One transmission of a message over one channel.

    The payload is never modified in transit; forwarding mints new
    packets around the same (msg_id, payload) pair.
    """

    msg_id: MessageId
    payload: Message
    src: int
    dst: int


# ---------------------------------------------------------------------------
# Timers
# ---------------------------------------------------------------------------

@dataclass
class TimerState:
    """Counting timer: fires when `elapsed` reaches `timeout` while on.

    `ver` increments on every reset/stop so a scheduler can track
    re-arms without scanning; it carries no protocol meaning.
    """

    on: bool
    timeout: int
    elapsed: int = 0
    ver: int = 0

    def reset(self) -> None:
        self.on = True
        self.elapsed = 0
        self.ver += 1

    def stop(self) -> None:
        self.on = False
        self.elapsed = 0
        self.ver += 1


@dataclass(frozen=True)
class TimerConfig:
    """Timer constants shared by every process in a run.

    sender_timeout: period of the own (heartbeat) timer, always on.
    initial_receiver_timeout: starting timeout of per-origin receive timers.
    timeout_increment: added to a receive timer's timeout each time it fires.
    """

    sender_timeout: int = 16
    initial_receiver_timeout: int = 8
    timeout_increment: int = 1

    def __post_init__(self) -> None:
        check_ints(self, sender_timeout=1, initial_receiver_timeout=1, timeout_increment=1)


# ---------------------------------------------------------------------------
# Process state
# ---------------------------------------------------------------------------

@dataclass
class MpoState:
    """Everything process p knows.

    phases[q], arbs[q], timers[q] are p's view of origin q; timers[p] is
    p's own heartbeat timer and is never off.  `seen` holds every
    MessageId p has handled or created (first-copy-wins dedup).
    `edges_ver` counts weight updates so the min-arborescence can be
    cached between changes.
    """

    p: int
    n: int
    cfg: TimerConfig
    neighbors: tuple[int, ...]
    leader: int | None
    phases: list[int]
    edges: list[list[int]]
    arbs: list[Arborescence | None]
    timers: list[TimerState]
    shout: int
    seen: set[MessageId]
    next_seq: int
    edges_ver: int = 0
    _arb_cache: tuple[int, Arborescence | None] | None = field(
        default=None, repr=False, compare=False
    )
    adjacency: tuple[frozenset[int], ...] | None = None

    def own_min_arborescence(self) -> Arborescence | None:
        """Minimum arborescence rooted at p over current edge weights (cached);
        None when the topology gives p no path to some process."""
        if self._arb_cache is not None and self._arb_cache[0] == self.edges_ver:
            return self._arb_cache[1]
        try:
            arb = min_arborescence(self.edges, self.p, self.adjacency)
        except TopologyError:
            arb = None
        self._arb_cache = (self.edges_ver, arb)
        return arb

    def _parent_for(self, origin: int) -> int:
        """Parent of p in the stored arborescence for `origin`.

        Falls back to the origin itself when no arborescence is stored or
        it does not span p, which keeps blame assignment total.
        """
        arb = self.arbs[origin]
        if arb is None:
            return origin
        return arb.parent_of.get(self.p, origin)

    def _children_for(self, origin: int) -> tuple[int, ...]:
        arb = self.arbs[origin]
        if arb is None:
            return ()
        return arb.children_of(self.p)


def init_state(
    p: int,
    n: int,
    cfg: TimerConfig | None = None,
    adjacency: tuple[frozenset[int], ...] | None = None,
) -> MpoState:
    """Fresh state: no leader, zero phases and weights, only the own timer armed.

    `adjacency` restricts broadcast targets and arborescence edges for
    non-complete topologies; None means fully connected.
    """
    cfg = cfg or TimerConfig()
    check_int("n", n, low=2)
    check_int("process id", p, low=0, high=n - 1)
    if adjacency is None:
        neighbors = tuple(q for q in range(n) if q != p)
    else:
        if len(adjacency) != n:
            raise ConfigurationError("adjacency must list out-neighbors for all n processes")
        neighbors = tuple(sorted(adjacency[p] - {p}))
    timers = [
        TimerState(on=(q == p),
                   timeout=cfg.sender_timeout if q == p else cfg.initial_receiver_timeout)
        for q in range(n)
    ]
    return MpoState(
        p=p,
        n=n,
        cfg=cfg,
        neighbors=neighbors,
        leader=None,
        phases=[0] * n,
        edges=[[0] * n for _ in range(n)],
        arbs=[None] * n,
        timers=timers,
        shout=0,
        seen=set(),
        next_seq=0,
        adjacency=adjacency,
    )


# ---------------------------------------------------------------------------
# Transitions
# ---------------------------------------------------------------------------

def _originate(state: MpoState, msg: Message, dests: tuple[int, ...]) -> list[Packet]:
    """Mint a new message from p and address one packet per destination.

    The fresh MessageId goes straight into `seen` so echoes of our own
    broadcast are discarded on receipt.
    """
    mid = MessageId.direct((state.p, state.next_seq))
    state.next_seq += 1
    state.seen.add(mid)
    return _forward(state, mid, msg, dests)


def _forward(state: MpoState, mid: MessageId, msg: Message,
             dests: tuple[int, ...]) -> list[Packet]:
    p, packet = state.p, Packet.direct
    return [packet((mid, msg, p, d)) for d in dests]


def advance_timers(state: MpoState) -> tuple[MpoState, list[int]]:
    """Advance every running timer by one step.

    Returns the ids whose timer just reached its timeout, in ascending
    order; those timers are left at the firing point and must be
    dispatched (on_sender_timeout / on_receiver_timeout) before the next
    advance.
    """
    fired: list[int] = []
    for q in range(state.n):
        t = state.timers[q]
        if t.on:
            t.elapsed += 1
            if t.elapsed >= t.timeout:
                fired.append(q)
    return state, fired


def on_sender_timeout(state: MpoState) -> tuple[MpoState, list[Packet]]:
    """Own-timer tick: re-evaluate leadership, emit the round's traffic.

    The candidate pool is every origin with a running timer and a stored
    arborescence, plus p itself with a freshly computed one if it has one;
    lightest weight wins, ties to the lowest id, and no candidate means no
    leader.  Gaining leadership installs the fresh arborescence and
    broadcasts it; losing bumps the phase and broadcasts stop_phase; a
    sitting leader emits one heartbeat, fanned to everyone when the shout
    rotation lands on p itself.
    """
    p = state.p
    new_arb = state.own_min_arborescence()
    best_weight, best_id = (math.inf, None) if new_arb is None else (new_arb.weight, p)
    for r in range(state.n):
        if r == p:
            continue
        arb = state.arbs[r]
        if state.timers[r].on and arb is not None:
            if (arb.weight, r) < (best_weight, best_id):
                best_weight, best_id = arb.weight, r
    new_leader = best_id

    packets: list[Packet] = []
    if state.leader != new_leader:
        if new_leader == p:
            state.arbs[p] = new_arb
            packets += _originate(
                state, StartPhase(origin=p, phase=state.phases[p], arb=new_arb),
                state.neighbors,
            )
        if state.leader == p:
            state.phases[p] += 1
            packets += _originate(
                state, StopPhase(origin=p, phase=state.phases[p]), state.neighbors
            )
        state.leader = new_leader
    elif state.leader == p:
        state.shout = (state.shout + 1) % state.n
        msg = Alive(origin=p, phase=state.phases[p], shout=state.shout)
        if state.shout != p:
            packets += _originate(state, msg, state._children_for(p))
        else:
            packets += _originate(state, msg, state.neighbors)
    state.timers[p].reset()
    return state, packets


def on_receiver_timeout(state: MpoState, q: int) -> tuple[MpoState, list[Packet]]:
    """Timer for origin q expired: report the miss and stand down the timer.

    Emits one `failed` broadcast blaming p's parent in the stored
    arborescence for q, raises q's timeout, and turns the timer off; it
    re-arms only when a later start_phase or alive for q resets it, so
    each arming yields at most one report.
    """
    p = state.p
    if q == p:
        raise ValueError("receiver timeout for own id; dispatch on_sender_timeout")
    msg = Failed(subject=q, reporter=p, parent=state._parent_for(q))
    packets = _originate(state, msg, state.neighbors)
    t = state.timers[q]
    t.timeout += state.cfg.timeout_increment
    t.stop()
    return state, packets


def on_receive(state: MpoState, pkt: Packet) -> tuple[MpoState, list[Packet]]:
    """Handle a delivered packet; duplicates of an already-seen message are no-ops."""
    p = state.p
    if pkt.msg_id in state.seen:
        return state, []
    state.seen.add(pkt.msg_id)
    msg = pkt.payload

    if isinstance(msg, StartPhase):
        q = msg.origin
        if p != q and state.phases[q] <= msg.phase:
            state.arbs[q] = msg.arb
            state.phases[q] = msg.phase
            packets = _forward(state, pkt.msg_id, msg, state.neighbors)
            state.timers[q].reset()
            return state, packets
        return state, []

    if isinstance(msg, StopPhase):
        q = msg.origin
        if p != q and state.phases[q] < msg.phase:
            state.phases[q] = msg.phase
            packets = _forward(state, pkt.msg_id, msg, state.neighbors)
            state.timers[q].stop()
            return state, packets
        return state, []

    if isinstance(msg, Alive):
        q = msg.origin
        if p != q and state.phases[q] == msg.phase:
            if pkt.src == state._parent_for(q):
                # heartbeat came down the tree: forward and re-arm
                if msg.shout != p:
                    packets = _forward(state, pkt.msg_id, msg, state._children_for(q))
                else:
                    packets = _forward(state, pkt.msg_id, msg, state.neighbors)
                state.timers[q].reset()
                return state, packets
            if not state.timers[q].on:
                state.timers[q].reset()
        return state, []

    if isinstance(msg, Failed):
        if p == msg.subject:
            state.edges[msg.parent][msg.reporter] += 1
            state.edges_ver += 1
            return state, []
        return state, _forward(state, pkt.msg_id, msg, state.neighbors)

    raise TypeError(f"unknown message {msg!r}")
