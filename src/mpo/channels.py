"""Channel behavior models: when (if ever) a packet put on a channel arrives.

Each ordered process pair gets one model.  `schedule_delivery` turns a
send into either a delivery step or None (dropped).  Models that need
running per-channel state (fair-lossy stream counters, non-timely
suppression windows) read and update a ChannelState owned by the caller,
so a model instance itself stays immutable config and one scenario can
drive many independent runs.

Per-message propagation (`GeneralPropagation`, `[propagation]`) is a model
too, replacing every `[channels]` and `[channels:origin=K]` entry: all
channels share one ChannelState holding n and, by message id, [reliable
edges, timely edges, the latest delivery step scheduled].  Its scheduler
alone keeps and deletes these graphs: an entry goes when a new message is
first sent after the last delivery of that message.

The textual forms close the module: `read_int` and `read_float` read
every number of a scenario's dict or config-file form, and
`model_from_spec` reads a channel spec with them, rejecting any key its
model does not take.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any

from .core import (ConfigurationError, MessageId, Packet, check_int, check_ints, check_number,
                   check_type)


@dataclass(frozen=True)
class Timely:
    """Every packet delivered within `bound` steps of the send."""

    bound: int

    def __post_init__(self) -> None:
        check_ints(self, bound=1)


@dataclass(frozen=True)
class EventuallyTimely:
    """Timely{bound} for sends at or after `unreliable_until`.

    Earlier sends face an adversarial prefix: dropped with probability
    1/2, otherwise delayed uniformly in [1, 4*bound].
    """

    bound: int
    unreliable_until: int = 0

    def __post_init__(self) -> None:
        check_ints(self, bound=1, unreliable_until=0)


@dataclass(frozen=True)
class DropPattern:
    """Deliver every (drop+1)-th packet of each (kind, origin) stream."""

    drop: int

    def __post_init__(self) -> None:
        check_ints(self, drop=0)


@dataclass(frozen=True)
class DeliverProb:
    """Deliver each packet independently with probability q > 0, kept as a
    float so that DeliverProb(1) and its spec `q=1.0` are one model."""

    q: float

    def __post_init__(self) -> None:
        check_number("q", self.q)
        if not 0 < self.q <= 1:
            raise ConfigurationError(f"q must lie in (0, 1], got {self.q}")
        object.__setattr__(self, "q", float(self.q))


@dataclass(frozen=True)
class FairLossy:
    """Loses packets but never an entire infinite (kind, origin) stream.

    Delivered packets arrive with a uniform delay in [delay_min, delay_max];
    the fairness guarantee says nothing about latency.
    """

    policy: DropPattern | DeliverProb
    delay_min: int = 1
    delay_max: int = 8

    def __post_init__(self) -> None:
        check_type("policy", self.policy, (DropPattern, DeliverProb),
                   "a DropPattern or a DeliverProb")
        # a delivery is never earlier than the step after the send
        check_ints(self, delay_min=1, delay_max=self.delay_min)


@dataclass(frozen=True)
class StronglyNonTimely:
    """Channel with recurring delivery-free windows of growing length.

    Windows start at `burst` steps long and double up to `window_cap`,
    at seeded positions no earlier than `quiet_until`; an arrival
    falling inside a window is pushed just past its end.  Outside
    windows, packets arrive with a uniform delay in
    [delay_min, delay_max].
    """

    burst: int = 8
    window_cap: int = 256
    delay_min: int = 1
    delay_max: int = 8
    quiet_until: int = 0

    def __post_init__(self) -> None:
        check_ints(self, burst=1, window_cap=self.burst, delay_min=1,
                   delay_max=self.delay_min, quiet_until=0)


@dataclass(frozen=True)
class Lossy:
    """Delivers nothing."""


ChannelModel = Timely | EventuallyTimely | FairLossy | StronglyNonTimely | Lossy


@dataclass(frozen=True)
class GeneralPropagation:
    """Per-message propagation, every channel's model: none has standing properties.

    Each message gets a reliable edge set R (each directed edge present
    with probability p_reliable) and a timely subset T (each R edge also
    timely with probability p_timely).  Packets over edges outside R are
    dropped; T edges deliver within `bound` steps; R-only edges deliver
    late, in (bound, 4*bound].  The probabilities are kept as floats, and
    -0.0 as 0.0, so GeneralPropagation(1, -0) and its dict form are one model.
    """

    p_reliable: float
    p_timely: float
    bound: int = 4

    def __post_init__(self) -> None:
        check_number("p_reliable", self.p_reliable, 0, 1)
        check_number("p_timely", self.p_timely, 0, 1)
        check_ints(self, bound=1)
        object.__setattr__(self, "p_reliable", float(self.p_reliable) + 0.0)
        object.__setattr__(self, "p_timely", float(self.p_timely) + 0.0)


@dataclass(slots=True)
class ChannelState:
    """Mutable per-run, per-channel bookkeeping; one for all under GeneralPropagation,
    whose `graphs` maps a message id to [reliable edges, timely edges, last
    due] until a new message is first sent after that last due step."""

    stream_counts: dict[tuple[str, int], int] = field(default_factory=dict)
    windows: list[tuple[int, int]] | None = None
    n: int = 0
    graphs: dict[MessageId, list] = field(default_factory=dict)


def suppression_windows(
    seed: int, src: int, dst: int, burst: int, cap: int, horizon: int,
    start_after: int = 0,
) -> list[tuple[int, int]]:
    """Seeded, channel-specific window schedule [start, end) covering the run.

    Lengths double from `burst` up to `cap`; successive gaps grow with
    the window length so windows recur but thin out.  No window opens
    before `start_after`.  burst >= 1 and cap >= burst, as in `StronglyNonTimely`.
    """
    check_int("burst", burst, low=1)
    check_int("cap", cap, low=burst)
    # mix to a plain int: tuple seeding hashes, which is not stable across runs
    local = random.Random(((seed * 1_000_003 + src) * 1_000_003 + dst) * 2 + 1)
    windows: list[tuple[int, int]] = []
    pos = start_after + local.randint(1, max(2, burst * 2))
    k = 0
    while pos < horizon:
        length = min(burst << k, cap)
        windows.append((pos, pos + length))
        pos = pos + length + local.randint(length, 2 * length)
        k += 1
    return windows


def _dodge_windows(arrival: int, windows: list[tuple[int, int]] | None,
                   rng: random.Random) -> int:
    if not windows:
        return arrival
    i = bisect_right(windows, (arrival, float("inf"))) - 1
    if i >= 0:
        start, end = windows[i]
        if start <= arrival < end:
            # gaps exceed window lengths, so one hop clears the window
            return end + rng.randint(0, 3)
    return arrival


def _timely(model: Timely, pkt: Packet, send_step: int, rng: random.Random,
            state: ChannelState) -> int | None:
    return send_step + rng.randint(1, model.bound)


def _eventually_timely(model: EventuallyTimely, pkt: Packet, send_step: int,
                       rng: random.Random, state: ChannelState) -> int | None:
    if send_step >= model.unreliable_until:
        return send_step + rng.randint(1, model.bound)
    if rng.random() < 0.5:
        return None
    return send_step + rng.randint(1, 4 * model.bound)


def _fair_lossy(model: FairLossy, pkt: Packet, send_step: int, rng: random.Random,
                state: ChannelState) -> int | None:
    key = (pkt.payload.kind, pkt.msg_id.origin)
    count = state.stream_counts.get(key, 0) + 1
    state.stream_counts[key] = count
    policy = model.policy
    if isinstance(policy, DropPattern):
        if count % (policy.drop + 1) != 0:
            return None
    elif rng.random() >= policy.q:
        return None
    return send_step + rng.randint(model.delay_min, model.delay_max)


def _strongly_non_timely(model: StronglyNonTimely, pkt: Packet, send_step: int,
                         rng: random.Random, state: ChannelState) -> int | None:
    arrival = send_step + rng.randint(model.delay_min, model.delay_max)
    return _dodge_windows(arrival, state.windows, rng)


def _lossy(model: Lossy, pkt: Packet, send_step: int, rng: random.Random,
           state: ChannelState) -> None:
    return None


def sample_graphs(model: GeneralPropagation, n: int,
                  rng: random.Random) -> tuple[set, set]:
    """A message's reliable edge set and its timely subset."""
    reliable, timely = set(), set()
    for edge in [(u, v) for u in range(n) for v in range(n) if u != v]:
        if rng.random() < model.p_reliable:
            reliable.add(edge)
            if rng.random() < model.p_timely:
                timely.add(edge)
    return reliable, timely


def _propagation(model: GeneralPropagation, pkt: Packet, send_step: int,
                 rng: random.Random, state: ChannelState) -> int | None:
    """The mode's scheduler; it alone keeps a message's graphs.

    `core` sends a message again only inside `on_receive`, on a packet of
    the same id, so once every packet of a message has landed nothing needs
    its graphs: a new message's first packet deletes every entry whose last
    due is before `send_step`.  This assumes the returned step is the
    delivery step; a wrapper may shorten a propagation delay, never lengthen it.
    """
    graphs = state.graphs
    entry = graphs.get(pkt.msg_id)
    if entry is None:  # the message's first packet
        for mid in [mid for mid, (_, _, last) in graphs.items() if last < send_step]:
            del graphs[mid]
        entry = graphs[pkt.msg_id] = [*sample_graphs(model, state.n, rng), send_step]
    reliable, timely, last = entry
    edge = (pkt.src, pkt.dst)
    if edge not in reliable:
        return None
    b = model.bound
    due = send_step + (rng.randint(1, b) if edge in timely else rng.randint(b + 1, 4 * b))
    if due > last:
        entry[2] = due
    return due


# model class -> its scheduler, which takes schedule_delivery's arguments
_SCHEDULERS = {Timely: _timely, EventuallyTimely: _eventually_timely,
               FairLossy: _fair_lossy, StronglyNonTimely: _strongly_non_timely,
               Lossy: _lossy, GeneralPropagation: _propagation}


def schedule_delivery(
    model: ChannelModel | GeneralPropagation,
    pkt: Packet,
    send_step: int,
    rng: random.Random,
    state: ChannelState,
) -> int | None:
    """Delivery step for `pkt` sent at `send_step`, or None if dropped.

    `rng` is the run's seeded stream; `state` the channel's running
    bookkeeping for the whole run (a fair-lossy drop pattern counts across
    calls), one per channel, or one for all under GeneralPropagation.
    """
    scheduler = _SCHEDULERS.get(type(model))
    if scheduler is None:
        raise TypeError(f"unknown channel model {model!r}")
    return scheduler(model, pkt, send_step, rng, state)


# ---------------------------------------------------------------------------
# Textual forms: numbers and channel specs (config files, scenario hashing)
# ---------------------------------------------------------------------------

# The readers of every number in a scenario's JSON or config-file form, in a
# channel spec or not.  Each takes a number of its type or a decimal string
# (optional sign and surrounding spaces, ASCII digits, no `_`) and raises
# ValueError for anything else: never a bool, and no int from a float, which
# `int()` and `float()` would quietly turn into another scenario.
_DECIMAL_INT = re.compile(r"\s*[+-]?[0-9]+\s*")
_DECIMAL_FLOAT = re.compile(r"\s*[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\s*")


def read_int(v: Any) -> int:
    if type(v) is int or type(v) is str and _DECIMAL_INT.fullmatch(v):
        return int(v)
    raise ValueError(f"expected an integer, got {v!r}")


def read_float(v: Any) -> float:
    """A finite float, read from an int, a float or a decimal string: never
    nan or an infinity."""
    if type(v) in (int, float) or type(v) is str and _DECIMAL_FLOAT.fullmatch(v):
        try:
            value = float(v)
        except OverflowError:  # an int past the float range
            value = math.inf
        if math.isfinite(value):
            return value
    raise ValueError(f"expected a finite number, got {v!r}")


def model_to_spec(model: ChannelModel) -> str:
    """Render a model as the one-line form used in scenario config files."""
    if isinstance(model, Timely):
        return f"timely b={model.bound}"
    if isinstance(model, EventuallyTimely):
        return f"eventually_timely b={model.bound} until={model.unreliable_until}"
    if isinstance(model, FairLossy):
        if isinstance(model.policy, DropPattern):
            head = f"fair_lossy drop={model.policy.drop}"
        else:
            head = f"fair_lossy q={model.policy.q}"
        return f"{head} delay={model.delay_min}:{model.delay_max}"
    if isinstance(model, StronglyNonTimely):
        return (
            f"strongly_non_timely burst={model.burst} cap={model.window_cap}"
            f" delay={model.delay_min}:{model.delay_max} quiet={model.quiet_until}"
        )
    if isinstance(model, Lossy):
        return "lossy"
    raise TypeError(f"unknown channel model {model!r}")


class ChannelSpecError(ValueError):
    """Unparseable channel spec string."""


def model_from_spec(spec: str) -> ChannelModel:
    """Parse the textual channel form; inverse of model_to_spec.

    An omitted optional key keeps the model's field default.  A key the
    model does not take, a repeated key, and `drop=` together with `q=` are
    rejected.
    """
    check_type("spec", spec, str, "a string", ChannelSpecError)
    try:
        return _model_from_words(spec.split())
    except ValueError as exc:  # malformed text, a bad number, or a bad parameter
        raise ChannelSpecError(f"{exc} in {spec!r}") from None


def _delay(text: str) -> tuple[int, int]:
    """`lo:hi`, or `lo` for `lo:lo`."""
    lo, colon, hi = text.partition(":")
    return read_int(lo), read_int(hi if colon else lo)


# spec model name -> (model class, its keys -> (the model field each sets, the
# reader of its value)); `delay` stands for the pair delay_min, delay_max
_SPEC_KEYS = {
    "timely": (Timely, {"b": ("bound", read_int)}),
    "eventually_timely": (EventuallyTimely, {"b": ("bound", read_int),
                                             "until": ("unreliable_until", read_int)}),
    "fair_lossy": (FairLossy, {"drop": ("policy", lambda text: DropPattern(read_int(text))),
                               "q": ("policy", lambda text: DeliverProb(read_float(text))),
                               "delay": ("delay", _delay)}),
    "strongly_non_timely": (StronglyNonTimely, {"burst": ("burst", read_int),
                                                "cap": ("window_cap", read_int),
                                                "delay": ("delay", _delay),
                                                "quiet": ("quiet_until", read_int)}),
    "lossy": (Lossy, {}),
}


def _model_from_words(words: list[str]) -> ChannelModel:
    if not words:
        raise ValueError("empty channel spec")
    name, *pairs = words
    if name not in _SPEC_KEYS:
        raise ValueError(f"unknown channel model {name!r}")
    cls, keys = _SPEC_KEYS[name]
    values: dict[str, Any] = {}
    for word in pairs:
        key, eq, text = word.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {word!r}")
        if key not in keys:
            raise ValueError(f"{name} takes no key {key!r}")
        attr, read = keys[key]
        if attr in values:  # a repeated key, or drop= and q=
            raise ValueError(f"{word!r} sets {attr} a second time")
        values[attr] = read(text)
    if name in ("timely", "eventually_timely") and "bound" not in values:
        raise ValueError(f"{name} needs b=")
    if name == "fair_lossy" and "policy" not in values:
        raise ValueError("fair_lossy needs drop= or q=")
    if "delay" in values:
        values["delay_min"], values["delay_max"] = values.pop("delay")
    return cls(**values)
