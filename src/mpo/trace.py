"""Append-only run records and their JSON-lines file format.

A Trace is the sole input to every auditor, so it carries enough to be
self-describing: the scenario (as a plain dict) and its fingerprint on
the first line, one event per line, and the final leader outputs on the
last line.  Each line is canonical JSON.  `EVENT_FORMAT` is the event
contract: the writer's line templates and the reader's checks are both
built from it at import, and the reader holds every value to its check
against the n and horizon of the meta record.

Events, like core's `Packet` and `MessageId`, are immutable typed tuples
(`NamedTuple`s) that compare equal only within their class: a `Deliver`
never equals a `Drop` with the same fields, nor a plain tuple.  They hash
as tuples do.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, NamedTuple, NoReturn, TextIO, get_args

from .core import Message, MessageId, equal_within_class


class TraceFormatError(ValueError):
    """Unreadable, truncated or out-of-range trace file."""


@equal_within_class
class Send(NamedTuple):
    step: int
    mid: MessageId
    kind: str
    src: int
    dst: int


@equal_within_class
class Deliver(NamedTuple):
    step: int
    mid: MessageId
    src: int
    dst: int


@equal_within_class
class Drop(NamedTuple):
    step: int
    mid: MessageId
    src: int
    dst: int


@equal_within_class
class TimerFired(NamedTuple):
    step: int
    proc: int
    subject: int


@equal_within_class
class LeaderChange(NamedTuple):
    step: int
    proc: int
    old: int | None
    new: int | None


@equal_within_class
class Crash(NamedTuple):
    step: int
    proc: int


@equal_within_class
class PhaseChange(NamedTuple):
    step: int
    proc: int
    origin: int
    phase: int


TraceEvent = Send | Deliver | Drop | TimerFired | LeaderChange | Crash | PhaseChange


@dataclass
class Trace:
    """Full record of one run."""

    fingerprint: str
    scenario: dict[str, Any]
    events: list[TraceEvent]
    final_leaders: list[int | None]
    crashed: list[bool]

    @property
    def n(self) -> int:
        return int(self.scenario["n"])

    @property
    def horizon(self) -> int:
        return int(self.scenario["horizon"])

    def correct_processes(self) -> list[int]:
        return [p for p in range(self.n) if not self.crashed[p]]


# the one JSON form of trace lines, scenario fingerprints and configuration
# hashes: keys sorted, no spaces, and a MessageId, being a tuple, written as
# [origin, seq]; the event line templates below write the same bytes
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_raw_decode = json.JSONDecoder().raw_decode


def fingerprint_scenario(scenario: dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(scenario).encode()).hexdigest()[:16]


# A check takes a field's JSON value and the trace's n, and returns the
# field's value or raises ValueError.  Bools are not ints.
def _bad(value: Any, what: str) -> NoReturn:
    raise ValueError(f"{value!r} is not {what}")


def _count(v: Any, n: int = 0) -> int:
    return v if type(v) is int and v >= 0 else _bad(v, "an int >= 0")


def _proc(v: Any, n: int) -> int:
    return v if type(v) is int and 0 <= v < n else _bad(v, f"a process in [0, {n})")


def _leader(v: Any, n: int) -> int | None:  # null: no leader
    return v if v is None else _proc(v, n)


_KINDS = frozenset(message.kind for message in get_args(Message))


def _kind(v: Any, n: int) -> str:
    return v if type(v) is str and v in _KINDS else _bad(v, f"one of {sorted(_KINDS)}")


def _mid(v: Any, n: int) -> MessageId:
    origin, seq = v if type(v) is list and len(v) == 2 else _bad(v, "[origin, seq]")
    return MessageId(_proc(origin, n), _count(seq))


# event class -> ("t" tag, the fields after `step` in declaration order, each
# (attribute, JSON key, check)).  Every event also has a "step", which lies in
# [0, horizon] and never decreases from one event to the next.
EVENT_FORMAT = {
    Send: ("send", (("mid", "mid", _mid), ("kind", "kind", _kind),
                    ("src", "from", _proc), ("dst", "to", _proc))),
    Deliver: ("deliver", (("mid", "mid", _mid), ("src", "from", _proc),
                          ("dst", "to", _proc))),
    Drop: ("drop", (("mid", "mid", _mid), ("src", "from", _proc), ("dst", "to", _proc))),
    TimerFired: ("timer", (("proc", "proc", _proc), ("subject", "subject", _proc))),
    LeaderChange: ("leader", (("proc", "proc", _proc), ("old", "old", _leader),
                              ("new", "new", _leader))),
    Crash: ("crash", (("proc", "proc", _proc),)),
    PhaseChange: ("phase", (("proc", "proc", _proc), ("origin", "origin", _proc),
                            ("phase", "phase", _count))),
}
# how the writer renders a field that passes a check: its %-format, and the
# attribute paths under the field whose values fill the format
_RENDER = {_count: ("%d", ("",)), _proc: ("%d", ("",)), _leader: ("%s", ("",)),
           _kind: ('"%s"', ("",)), _mid: ("[%d,%d]", (".origin", ".seq"))}
# so a kind needs no escaping inside its quotes
assert all(canonical_json(kind) == f'"{kind}"' for kind in _KINDS)


def _encoder(tag: str, fields: tuple) -> Callable[[Any], str]:
    """`event -> its line`: one %-template with the keys in sorted order, filled
    from one attrgetter; a leader of None is written as null."""
    formats = {"t": (canonical_json(tag), ()), "step": ("%d", ("step",))}
    for attr, key, check in fields:
        fmt, subs = _RENDER[check]
        formats[key] = (fmt, tuple(attr + sub for sub in subs))
    keys = sorted(formats)
    template = "{%s}\n" % ",".join(f"{canonical_json(k)}:{formats[k][0]}" for k in keys)
    values = attrgetter(*[path for k in keys for path in formats[k][1]])
    if any(check is _leader for *_, check in fields):
        return lambda ev: template % tuple(["null" if v is None else v for v in values(ev)])
    return lambda ev: template % values(ev)


# the table by class for the writer: the event's encoder, and by tag for the
# reader: (class, getter of the JSON values, their checks)
_ENCODE = {cls: _encoder(tag, fields) for cls, (tag, fields) in EVENT_FORMAT.items()}
_DECODE = {tag: (cls, itemgetter("step", *[key for _, key, _ in fields]),
                 tuple(check for *_, check in fields))
           for cls, (tag, fields) in EVENT_FORMAT.items()}


def write_trace(trace: Trace, fh: TextIO) -> None:
    """Write `trace` as JSON lines; `fh` needs only a `write` method."""
    write = fh.write
    write(canonical_json({"t": "meta", "fingerprint": trace.fingerprint,
                          "scenario": trace.scenario}) + "\n")
    for ev in trace.events:
        write(_ENCODE[type(ev)](ev))
    write(canonical_json({"t": "final", "leaders": trace.final_leaders,
                          "crashed": trace.crashed}) + "\n")


def write_trace_file(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_trace(trace, fh)


def _record(line: str, lineno: int) -> dict[str, Any]:
    # `json.loads`, less the whitespace scans that are ~40% of its cost on a trace line
    try:
        obj, end = _raw_decode(line, len(line) - len(line.lstrip(" \t\n\r")))
        if line[end:].strip(" \t\n\r"):
            raise json.JSONDecodeError("Extra data", line, end)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"line {lineno}: {exc}") from None
    if type(obj) is not dict:
        raise TraceFormatError(f"line {lineno}: not a JSON object")
    return obj


def read_trace(lines: Iterable[str]) -> Trace:
    """Trace from its JSON lines; a TraceFormatError unless every record is
    well-formed, every value passes its check and only blank lines follow
    the final record."""
    it = iter(lines)
    meta = _record(next(it, ""), 1)
    fp, scenario = meta.get("fingerprint"), meta.get("scenario")
    if meta.get("t") != "meta" or type(fp) is not str or type(scenario) is not dict:
        raise TraceFormatError("line 1 must be the meta record, with a string"
                               " 'fingerprint' and a 'scenario' object")
    if fp != (want := fingerprint_scenario(scenario)):
        raise TraceFormatError(f"meta record: fingerprint {fp!r} is not the"
                               f" scenario's, {want!r}")
    try:
        n, horizon = _count(scenario.get("n")), _count(scenario.get("horizon"))
    except ValueError as exc:
        raise TraceFormatError(f"meta record: scenario n or horizon: {exc}") from None

    ids: dict[tuple[int, int], MessageId] = {}  # every id read so far, once

    def interned_mid(v: Any, n: int) -> MessageId:
        if type(v) is list and len(v) == 2 and type(v[0]) is int and type(v[1]) is int:
            mid = ids.get((v[0], v[1]))  # ints only: [true, 0] must not find [1, 0]
            if mid is not None:
                return mid
        mid = _mid(v, n)
        return ids.setdefault((mid.origin, mid.seq), mid)

    decode = {tag: (cls, values, tuple(interned_mid if c is _mid else c for c in checks))
              for tag, (cls, values, checks) in _DECODE.items()}
    events: list[TraceEvent] = []
    last = 0
    for lineno, line in enumerate(it, start=2):
        if not line.strip():
            continue
        obj = _record(line, lineno)
        tag = obj.get("t")
        if tag == "final":
            break
        try:  # a KeyError for a missing field, a ValueError for a bad value
            if type(tag) is not str or tag not in decode:
                _bad(tag, "an event type")
            cls, values, checks = decode[tag]
            step, *fields = values(obj)
            if type(step) is not int or not last <= step <= horizon:
                _bad(step, f"a step in [{last}, {horizon}]")
            if step == last:
                step = last  # one int object per step, as in a simulated trace
            events.append(cls(step, *[check(v, n) for check, v in zip(checks, fields)]))
        except (KeyError, ValueError) as exc:
            raise TraceFormatError(f"line {lineno}: bad {tag!r} event: {exc!r}") from None
        last = step
    else:
        raise TraceFormatError("truncated trace: missing final record")
    for extra, line in enumerate(it, start=lineno + 1):
        if line.strip():
            raise TraceFormatError(f"line {extra}: data after the final record")
    leaders, crashed = obj.get("leaders"), obj.get("crashed")
    if not all(type(entries) is list and len(entries) == n for entries in (leaders, crashed)):
        raise TraceFormatError(
            f"final record: 'leaders' and 'crashed' must list n={n} processes")
    try:
        leaders = [_leader(v, n) for v in leaders]
    except ValueError as exc:
        raise TraceFormatError(f"final record: leaders: {exc}") from None
    crashes = {ev.proc for ev in events if type(ev) is Crash}
    if any(type(c) is not bool for c in crashed) or crashed != [p in crashes for p in range(n)]:
        raise TraceFormatError("final record: 'crashed' must be true exactly for the"
                               f" processes with a crash event, {sorted(crashes)}")
    return Trace(fp, scenario, events, leaders, crashed)


def read_trace_file(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return read_trace(fh)
        except TraceFormatError as exc:
            raise TraceFormatError(f"{path}: {exc}") from None
