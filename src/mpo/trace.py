"""Append-only run records and their JSON-lines file format.

A Trace is the sole input to every auditor, so it carries enough to be
self-describing: the scenario (as a plain dict) and its fingerprint on
the first line, one event per line, and the final leader outputs on the
last line.  Event field names are a stable contract:

    {"t":"send","step":S,"mid":[origin,seq],"kind":K,"from":F,"to":T}
    {"t":"deliver","step":S,"mid":[origin,seq],"from":F,"to":T}
    {"t":"drop","step":S,"mid":[origin,seq],"from":F,"to":T}
    {"t":"timer","step":S,"proc":P,"subject":Q}
    {"t":"leader","step":S,"proc":P,"old":X,"new":Y}      # null = no leader
    {"t":"crash","step":S,"proc":P}
    {"t":"phase","step":S,"proc":P,"origin":Q,"phase":N}
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable, TextIO

from .core import MessageId


class TraceFormatError(ValueError):
    """Unreadable or truncated trace file."""


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


def fingerprint_scenario(scenario: dict[str, Any]) -> str:
    blob = json.dumps(scenario, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _event_obj(ev: TraceEvent) -> dict[str, Any]:
    if isinstance(ev, Send):
        return {"t": "send", "step": ev.step, "mid": [ev.mid.origin, ev.mid.seq],
                "kind": ev.kind, "from": ev.src, "to": ev.dst}
    if isinstance(ev, Deliver):
        return {"t": "deliver", "step": ev.step, "mid": [ev.mid.origin, ev.mid.seq],
                "from": ev.src, "to": ev.dst}
    if isinstance(ev, Drop):
        return {"t": "drop", "step": ev.step, "mid": [ev.mid.origin, ev.mid.seq],
                "from": ev.src, "to": ev.dst}
    if isinstance(ev, TimerFired):
        return {"t": "timer", "step": ev.step, "proc": ev.proc, "subject": ev.subject}
    if isinstance(ev, LeaderChange):
        return {"t": "leader", "step": ev.step, "proc": ev.proc,
                "old": ev.old, "new": ev.new}
    if isinstance(ev, Crash):
        return {"t": "crash", "step": ev.step, "proc": ev.proc}
    if isinstance(ev, PhaseChange):
        return {"t": "phase", "step": ev.step, "proc": ev.proc,
                "origin": ev.origin, "phase": ev.phase}
    raise TypeError(f"unknown event {ev!r}")


def _event_from_obj(obj: dict[str, Any]) -> TraceEvent:
    """Event from its JSON object: a KeyError for a missing field, a
    TypeError for a field of the wrong type (every field is an int, except
    `kind`, a string, `old`/`new`, an int or null, and `mid`, two ints)."""
    t = obj["t"]
    if t == "send":
        step, mid, src, dst = obj["step"], MessageId(*obj["mid"]), obj["from"], obj["to"]
        kind = obj["kind"]
        if (type(step) is type(mid.origin) is type(mid.seq) is type(src) is type(dst) is int
                and type(kind) is str):
            return Send(step, mid, kind, src, dst)
    elif t == "deliver":
        step, mid, src, dst = obj["step"], MessageId(*obj["mid"]), obj["from"], obj["to"]
        if type(step) is type(mid.origin) is type(mid.seq) is type(src) is type(dst) is int:
            return Deliver(step, mid, src, dst)
    elif t == "drop":
        step, mid, src, dst = obj["step"], MessageId(*obj["mid"]), obj["from"], obj["to"]
        if type(step) is type(mid.origin) is type(mid.seq) is type(src) is type(dst) is int:
            return Drop(step, mid, src, dst)
    elif t == "timer":
        step, proc, subject = obj["step"], obj["proc"], obj["subject"]
        if type(step) is type(proc) is type(subject) is int:
            return TimerFired(step, proc, subject)
    elif t == "leader":
        step, proc, old, new = obj["step"], obj["proc"], obj["old"], obj["new"]
        if (type(step) is type(proc) is int and (old is None or type(old) is int)
                and (new is None or type(new) is int)):
            return LeaderChange(step, proc, old, new)
    elif t == "crash":
        step, proc = obj["step"], obj["proc"]
        if type(step) is type(proc) is int:
            return Crash(step, proc)
    elif t == "phase":
        step, proc, origin, phase = obj["step"], obj["proc"], obj["origin"], obj["phase"]
        if type(step) is type(proc) is type(origin) is type(phase) is int:
            return PhaseChange(step, proc, origin, phase)
    else:
        raise TraceFormatError(f"unknown event type {t!r}")
    raise TypeError("a field has the wrong type")


def write_trace(trace: Trace, fh: TextIO) -> None:
    meta = {"t": "meta", "fingerprint": trace.fingerprint, "scenario": trace.scenario}
    fh.write(json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
    for ev in trace.events:
        fh.write(json.dumps(_event_obj(ev), sort_keys=True, separators=(",", ":")) + "\n")
    tail = {"t": "final", "leaders": trace.final_leaders, "crashed": trace.crashed}
    fh.write(json.dumps(tail, sort_keys=True, separators=(",", ":")) + "\n")


def write_trace_file(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_trace(trace, fh)


def read_trace(lines: Iterable[str]) -> Trace:
    it = iter(lines)
    try:
        meta = json.loads(next(it))
    except StopIteration:
        raise TraceFormatError("empty trace") from None
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"bad meta line: {exc}") from None
    if type(meta) is not dict or meta.get("t") != "meta":
        raise TraceFormatError("first line must be the meta record")

    events: list[TraceEvent] = []
    tail: dict[str, Any] | None = None
    for lineno, line in enumerate(it, start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from None
        if type(obj) is not dict:
            raise TraceFormatError(f"line {lineno}: not a JSON object")
        if obj.get("t") == "final":
            tail = obj
            break
        try:
            events.append(_event_from_obj(obj))
        except (KeyError, TypeError) as exc:
            raise TraceFormatError(
                f"line {lineno}: malformed {obj.get('t')!r} event"
                f" ({type(exc).__name__}: {exc})"
            ) from None
    if tail is None:
        raise TraceFormatError("truncated trace: missing final record")
    for record, key, kind in ((meta, "fingerprint", str), (meta, "scenario", dict),
                              (tail, "leaders", list), (tail, "crashed", list)):
        if not isinstance(record.get(key), kind):
            raise TraceFormatError(
                f"{record['t']} record: {key!r} missing or not a {kind.__name__}"
            )
    return Trace(
        fingerprint=meta["fingerprint"],
        scenario=meta["scenario"],
        events=events,
        final_leaders=tail["leaders"],
        crashed=tail["crashed"],
    )


def read_trace_file(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return read_trace(fh)
        except TraceFormatError as exc:
            raise TraceFormatError(f"{path}: {exc}") from None
