"""Channel behavior models: when (if ever) a packet put on a channel arrives.

Each ordered process pair gets one model.  `schedule_delivery` turns a
send into either a delivery step or None (dropped).  Models that need
running per-channel state (fair-lossy stream counters, non-timely
suppression windows) read and update a ChannelState owned by the caller,
so a model instance itself stays immutable config and one scenario can
drive many independent runs.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field

from .core import ConfigurationError, Packet


def _check_delay(lo: int, hi: int) -> None:
    # a delivery is never earlier than the step after the send
    if not 1 <= lo <= hi:
        raise ConfigurationError(f"delay needs 1 <= min <= max, got {lo}:{hi}")


@dataclass(frozen=True)
class Timely:
    """Every packet delivered within `bound` steps of the send."""

    bound: int

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ConfigurationError(f"bound must be >= 1, got {self.bound}")


@dataclass(frozen=True)
class EventuallyTimely:
    """Timely{bound} for sends at or after `unreliable_until`.

    Earlier sends face an adversarial prefix: dropped with probability
    1/2, otherwise delayed uniformly in [1, 4*bound].
    """

    bound: int
    unreliable_until: int = 0

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ConfigurationError(f"bound must be >= 1, got {self.bound}")
        if self.unreliable_until < 0:
            raise ConfigurationError(f"until must be >= 0, got {self.unreliable_until}")


@dataclass(frozen=True)
class DropPattern:
    """Deliver every (drop+1)-th packet of each (kind, origin) stream."""

    drop: int

    def __post_init__(self) -> None:
        if self.drop < 0:
            raise ConfigurationError(f"drop must be >= 0, got {self.drop}")


@dataclass(frozen=True)
class DeliverProb:
    """Deliver each packet independently with probability q > 0."""

    q: float

    def __post_init__(self) -> None:
        if not 0 < self.q <= 1:
            raise ConfigurationError(f"q must lie in (0, 1], got {self.q}")


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
        _check_delay(self.delay_min, self.delay_max)


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
        if not 1 <= self.burst <= self.window_cap:
            raise ConfigurationError(
                f"burst and cap need 1 <= burst <= cap, got {self.burst}, {self.window_cap}"
            )
        _check_delay(self.delay_min, self.delay_max)
        if self.quiet_until < 0:
            raise ConfigurationError(f"quiet must be >= 0, got {self.quiet_until}")


@dataclass(frozen=True)
class Lossy:
    """Delivers nothing."""


ChannelModel = Timely | EventuallyTimely | FairLossy | StronglyNonTimely | Lossy


@dataclass
class ChannelState:
    """Mutable per-run, per-channel bookkeeping."""

    stream_counts: dict[tuple[str, int], int] = field(default_factory=dict)
    windows: list[tuple[int, int]] | None = None


def suppression_windows(
    seed: int, src: int, dst: int, burst: int, cap: int, horizon: int,
    start_after: int = 0,
) -> list[tuple[int, int]]:
    """Seeded, channel-specific window schedule [start, end) covering the run.

    Lengths double from `burst` up to `cap`; successive gaps grow with
    the window length so windows recur but thin out.  No window opens
    before `start_after`.
    """
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


# model class -> its scheduler, which takes schedule_delivery's arguments
_SCHEDULERS = {Timely: _timely, EventuallyTimely: _eventually_timely,
               FairLossy: _fair_lossy, StronglyNonTimely: _strongly_non_timely,
               Lossy: _lossy}


def schedule_delivery(
    model: ChannelModel,
    pkt: Packet,
    send_step: int,
    rng: random.Random,
    state: ChannelState,
) -> int | None:
    """Delivery step for `pkt` sent at `send_step`, or None if dropped.

    `rng` is the run's seeded stream; `state` the channel's running
    bookkeeping, one per channel for the whole run (a fair-lossy drop
    pattern counts across calls).
    """
    scheduler = _SCHEDULERS.get(type(model))
    if scheduler is None:
        raise TypeError(f"unknown channel model {model!r}")
    return scheduler(model, pkt, send_step, rng, state)


# ---------------------------------------------------------------------------
# Textual channel specs (config files, scenario hashing)
# ---------------------------------------------------------------------------

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

    An omitted optional key keeps the model's field default.
    """
    try:
        return _model_from_words(spec.split())
    except ValueError as exc:  # malformed text, a bad number, or a bad parameter
        raise ChannelSpecError(f"{exc} in {spec!r}") from None


def _model_from_words(words: list[str]) -> ChannelModel:
    if not words:
        raise ValueError("empty channel spec")
    name, args = words[0], {}
    for word in words[1:]:
        key, eq, val = word.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {word!r}")
        args[key] = val

    def ints(**keys: str) -> dict[str, int]:
        """Field values for the spec keys present: field name -> spec key."""
        return {f: int(args[k]) for f, k in keys.items() if k in args}

    def delay() -> dict[str, int]:
        if "delay" not in args:
            return {}
        lo, _, hi = args["delay"].partition(":")
        return {"delay_min": int(lo), "delay_max": int(hi or lo)}

    if name in ("timely", "eventually_timely") and "b" not in args:
        raise ValueError(f"{name!r} needs b=")
    if name == "timely":
        return Timely(**ints(bound="b"))
    if name == "eventually_timely":
        return EventuallyTimely(**ints(bound="b", unreliable_until="until"))
    if name == "fair_lossy":
        if "drop" in args:
            return FairLossy(DropPattern(int(args["drop"])), **delay())
        if "q" in args:
            return FairLossy(DeliverProb(float(args["q"])), **delay())
        raise ValueError("fair_lossy needs drop= or q=")
    if name == "strongly_non_timely":
        return StronglyNonTimely(
            **ints(burst="burst", window_cap="cap", quiet_until="quiet"), **delay()
        )
    if name == "lossy":
        return Lossy()
    raise ValueError(f"unknown channel model {name!r}")
