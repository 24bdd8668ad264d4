"""Append-only run records and their JSON-lines file format.

A Trace is the sole input to every auditor, so it carries enough to be
self-describing: the scenario (as a plain dict) and its fingerprint on
the first line, one event per line, and the final leader outputs on the
last line.  Each line is canonical JSON.  `EVENT_FORMAT` is the event
contract: the writer and the reader walk it, and the reader holds every
value to its check against the n and horizon of the meta record.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, Iterable, NoReturn, TextIO, get_args

from .core import Message, MessageId


class TraceFormatError(ValueError):
    """Unreadable, truncated or out-of-range trace file."""


@dataclass(slots=True, frozen=True)
class Send:
    step: int
    mid: MessageId
    kind: str
    src: int
    dst: int


@dataclass(slots=True, frozen=True)
class Deliver:
    step: int
    mid: MessageId
    src: int
    dst: int


@dataclass(slots=True, frozen=True)
class Drop:
    step: int
    mid: MessageId
    src: int
    dst: int


@dataclass(slots=True, frozen=True)
class TimerFired:
    step: int
    proc: int
    subject: int


@dataclass(slots=True, frozen=True)
class LeaderChange:
    step: int
    proc: int
    old: int | None
    new: int | None


@dataclass(slots=True, frozen=True)
class Crash:
    step: int
    proc: int


@dataclass(slots=True, frozen=True)
class PhaseChange:
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
# hashes: keys sorted, no spaces, a MessageId written as [origin, seq]
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                  default=attrgetter("origin", "seq")).encode
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
# the table by class for the writer: (tag, JSON keys, getter of their values),
# and by tag for the reader: (class, getter of the JSON values, their checks)
_ENCODE, _DECODE = {}, {}
for _cls, (_tag, _fields) in EVENT_FORMAT.items():
    _attrs, _keys, _checks = zip(*_fields)
    _ENCODE[_cls] = (_tag, ("step", *_keys), attrgetter("step", *_attrs))
    _DECODE[_tag] = (_cls, itemgetter("step", *_keys), _checks)


def write_trace(trace: Trace, fh: TextIO) -> None:
    meta = {"t": "meta", "fingerprint": trace.fingerprint, "scenario": trace.scenario}
    fh.write(canonical_json(meta) + "\n")
    for ev in trace.events:
        tag, keys, values = _ENCODE[type(ev)]
        fh.write(canonical_json(dict(zip(keys, values(ev)), t=tag)) + "\n")
    tail = {"t": "final", "leaders": trace.final_leaders, "crashed": trace.crashed}
    fh.write(canonical_json(tail) + "\n")


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
    well-formed and every value passes its check."""
    it = iter(lines)
    meta = _record(next(it, ""), 1)
    fp, scenario = meta.get("fingerprint"), meta.get("scenario")
    if meta.get("t") != "meta" or type(fp) is not str or type(scenario) is not dict:
        raise TraceFormatError("line 1 must be the meta record, with a string"
                               " 'fingerprint' and a 'scenario' object")
    try:
        n, horizon = _count(scenario.get("n")), _count(scenario.get("horizon"))
    except ValueError as exc:
        raise TraceFormatError(f"meta record: scenario n or horizon: {exc}") from None
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
            if type(tag) is not str or tag not in _DECODE:
                _bad(tag, "an event type")
            cls, values, checks = _DECODE[tag]
            step, *fields = values(obj)
            if type(step) is not int or not last <= step <= horizon:
                _bad(step, f"a step in [{last}, {horizon}]")
            events.append(cls(step, *[check(v, n) for check, v in zip(checks, fields)]))
        except (KeyError, ValueError) as exc:
            raise TraceFormatError(f"line {lineno}: bad {tag!r} event: {exc!r}") from None
        last = step
    else:
        raise TraceFormatError("truncated trace: missing final record")
    finals = obj.get("leaders"), obj.get("crashed")
    if not all(type(entries) is list and len(entries) == n for entries in finals):
        raise TraceFormatError(
            f"final record: 'leaders' and 'crashed' must list n={n} processes")
    return Trace(fp, scenario, events, *finals)


def read_trace_file(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return read_trace(fh)
        except TraceFormatError as exc:
            raise TraceFormatError(f"{path}: {exc}") from None
