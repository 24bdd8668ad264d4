"""Append-only run records and their JSON-lines file format.

A Trace is the sole input to every auditor, so it carries enough to be
self-describing: its `Scenario`, written on the first line as the dict
form with its fingerprint, one event per line, and the final leader
outputs on the last line.  Each line is canonical JSON.  `read_trace`
reads the meta record's scenario only through `Scenario.from_dict`, so
every Trace holds a checked Scenario.  `EVENT_FORMAT` is the event
contract: the writer's line templates and the reader's line patterns,
each a template read backwards, are both built from it at import.  The
reader reads an event line only as its class's pattern, which fixes
every field's syntax, so it checks only ranges, against the scenario's
n and horizon; it rejects any other line but the final record.  The
meta and final records are read as JSON objects; the final record's
`leaders` and `crashed` must be, as JSON, what the writer writes for the
events read.

A broadcast writes one line per destination, and those lines differ only
after their last `,"to":`.  A line whose head, its text before that cut,
repeats the head of a line already read at its step takes that head's
values and, when its tail is one of the 2n texts the writer writes there
(a process, `}`, a newline or none), that process; any other tail sends
the line down the pattern path, so nothing accepted or rejected changes,
nor any error message.  The reader keeps the heads of one step only, as
steps never decrease.

Events, like core's `Packet` and `MessageId`, are immutable typed tuples
(`NamedTuple`s) that compare equal only within their class: a `Deliver`
never equals a `Drop` with the same fields, nor a plain tuple.  They hash
as tuples do.  The reader builds them with `direct` (see
`core.equal_within_class`).  `read_trace` pauses the cyclic garbage
collector while it builds the event list (see `core.collector_paused`):
its loop makes no reference cycles, and nothing observable changes.  The
trace it returns is left in the collector's oldest generation, so no young
collection walks it afterwards.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from operator import attrgetter, getitem
from typing import Any, Callable, Iterable, NamedTuple, NoReturn, TextIO, get_args

from .core import Message, MessageId, collector_paused, equal_within_class
from .scenario_io import (Scenario, ScenarioError, canonical_json, fingerprint_scenario,
                          read_text_file)


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

    scenario: Scenario
    events: list[TraceEvent]
    final_leaders: list[int | None]
    crashed: list[bool]

    @property
    def n(self) -> int:
        return self.scenario.n

    @property
    def horizon(self) -> int:
        return self.scenario.horizon

    def correct_processes(self) -> list[int]:
        return [p for p in range(self.n) if not self.crashed[p]]


def _bad(value: Any, what: str) -> NoReturn:
    raise ValueError(f"{value!r} is not {what}")


# the range checks of a JSON value against the trace's n; bools are not ints
def _proc(v: Any, n: int) -> int:
    return v if type(v) is int and 0 <= v < n else _bad(v, f"a process in [0, {n})")


def _read_mid(text: str, n: int) -> MessageId:
    origin, seq = text.split(",")
    return MessageId(_proc(int(origin), n), int(seq))


_KINDS = frozenset(message.kind for message in get_args(Message))

# event class -> ("t" tag, the fields after `step` in declaration order, each
# (attribute, JSON key, field kind)).  Every event also has a "step", a count
# that lies in [0, horizon] and never decreases from one event to the next.
EVENT_FORMAT = {
    Send: ("send", (("mid", "mid", "mid"), ("kind", "kind", "kind"),
                    ("src", "from", "proc"), ("dst", "to", "proc"))),
    Deliver: ("deliver", (("mid", "mid", "mid"), ("src", "from", "proc"),
                          ("dst", "to", "proc"))),
    Drop: ("drop", (("mid", "mid", "mid"), ("src", "from", "proc"), ("dst", "to", "proc"))),
    TimerFired: ("timer", (("proc", "proc", "proc"), ("subject", "subject", "proc"))),
    LeaderChange: ("leader", (("proc", "proc", "proc"), ("old", "old", "leader"),
                              ("new", "new", "leader"))),
    Crash: ("crash", (("proc", "proc", "proc"),)),
    PhaseChange: ("phase", (("proc", "proc", "proc"), ("origin", "origin", "proc"),
                            ("phase", "phase", "count"))),
}
# field kind -> how the writer renders it and how the reader reads it back: its
# %-format and the attribute paths under the field whose values fill the format;
# the pattern of exactly the JSON texts that the format can write, with one
# capture group; and `read(text, n)`, that group's text as the field's value.
# The pattern fixes the syntax, so a read checks only that a process is in [0, n).
_INT = "(?:0|[1-9][0-9]*)"  # an int >= 0 in JSON: ASCII digits, no sign, no leading 0
_RENDER = {
    "count": ("%d", ("",), f"({_INT})", lambda text, n: int(text)),
    "proc": ("%d", ("",), f"({_INT})", lambda text, n: _proc(int(text), n)),
    "leader": ("%s", ("",), f"(null|{_INT})",
               lambda text, n: None if text == "null" else _proc(int(text), n)),
    "kind": ('"%s"', ("",), '"(%s)"' % "|".join(map(re.escape, sorted(_KINDS))),
             lambda text, n: text),
    "mid": ("[%d,%d]", (".origin", ".seq"), rf"\[({_INT},{_INT})\]", _read_mid),
}
# so a kind needs no escaping inside its quotes
assert all(canonical_json(kind) == f'"{kind}"' for kind in _KINDS)


def _layout(tag: str, fields: tuple) -> tuple[str, list[str], str, list[str]]:
    """An event class's line, keys in sorted order, both ways: the writer's
    %-template and the attribute paths that fill it, and the reader's pattern
    with one capture group per key but the literal "t", and those keys in order."""
    cells = {"t": (canonical_json(tag), (), re.escape(canonical_json(tag)))}
    for attr, key, kind in (("step", "step", "count"), *fields):
        fmt, subs, pattern, _ = _RENDER[kind]
        cells[key] = (fmt, tuple(attr + sub for sub in subs), pattern)
    keys = sorted(cells)
    heads = [canonical_json(key) + ":" for key in keys]
    template = "{%s}\n" % ",".join(head + cells[key][0] for head, key in zip(heads, keys))
    pattern = r"\{%s\}\n?" % ",".join(re.escape(head) + cells[key][2]
                                     for head, key in zip(heads, keys))
    return (template, [path for key in keys for path in cells[key][1]], pattern,
            [key for key in keys if key != "t"])


def _encoder(template: str, paths: list[str], nullable: bool) -> Callable[[Any], str]:
    """`event -> its line`: the %-template filled from one attrgetter; with a
    `nullable` (leader) field, a None is written as null."""
    values = attrgetter(*paths)
    if nullable:
        return lambda ev: template % tuple(["null" if v is None else v for v in values(ev)])
    return lambda ev: template % values(ev)


def _tables() -> tuple[dict, dict, re.Pattern, tuple]:
    """The codec's tables.  For the writer, by class: the event's encoder.  For
    the reader, by tag: (class, the numbers of the groups that hold the texts
    of "step" and the fields in declaration order in the match of its line,
    their kinds); the lines of all classes as one alternation of their
    patterns, each followed by an empty group named after its tag, so a match's
    `lastgroup` is the tag; and the tail of the classes whose last key is a
    field, not "t": (the cut before that key, the tags of those classes, the
    %-format of the text the writer writes after the cut, but its newline)."""
    encode, decode, branches, first, tails = {}, {}, [], 1, set()
    for cls, (tag, fields) in EVENT_FORMAT.items():
        template, paths, pattern, keys = _layout(tag, fields)
        kinds = ("count", *[kind for *_, kind in fields])
        order = ("step", *[key for _, key, _ in fields])
        encode[cls] = _encoder(template, paths, "leader" in kinds)
        decode[tag] = (cls, tuple(first + keys.index(key) for key in order), kinds)
        branches.append(f"{pattern}(?P<{tag}>)")
        first += len(keys) + 1
        if (key := max("t", *keys)) != "t":  # the line ends in this field
            assert key == order[-1], "a tail field is its class's last field"
            tails.add((tag, key, kinds[-1]))
    (key, kind), = {(key, kind) for _, key, kind in tails}  # one cut for all
    assert kind == "proc", "a tail field holds a process, so n values in all"
    tail = ("," + canonical_json(key) + ":", frozenset(tag for tag, *_ in tails),
            _RENDER[kind][0] + "}")
    return encode, decode, re.compile("|".join(branches)), tail


_ENCODE, _DECODE, _LINE, _TAIL = _tables()


def write_trace(trace: Trace, fh: TextIO) -> None:
    """Write `trace` as JSON lines; `fh` needs only a `write` method."""
    write = fh.write
    scenario = trace.scenario.to_dict()
    write(canonical_json({"t": "meta", "fingerprint": fingerprint_scenario(scenario),
                          "scenario": scenario}) + "\n")
    for ev in trace.events:
        write(_ENCODE[type(ev)](ev))
    write(canonical_json({"t": "final", "leaders": trace.final_leaders,
                          "crashed": trace.crashed}) + "\n")


def write_trace_file(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_trace(trace, fh)


def _record(line: str, lineno: int) -> dict[str, Any]:
    try:
        obj = json.loads(line)
    # a JSONDecodeError, an int too long to convert, or nesting too deep to decode
    except (ValueError, RecursionError) as exc:
        raise TraceFormatError(f"line {lineno}: {exc}") from None
    if type(obj) is not dict:
        raise TraceFormatError(f"line {lineno}: not a JSON object")
    return obj


class _Read(dict):
    """Memo of a field's text -> its value: the first look-up of a text reads
    it with `read(text, n)` and keeps the value; a failed read keeps nothing."""

    __slots__ = ("read", "n")

    def __init__(self, read: Callable[[str, int], Any], n: int) -> None:
        super().__init__()
        self.read, self.n = read, n

    def __missing__(self, text: str) -> Any:
        value = self[text] = self.read(text, self.n)
        return value


@collector_paused()
def read_trace(lines: Iterable[str]) -> Trace:
    """Trace from its JSON lines; a TraceFormatError unless the meta and final
    records are JSON objects, every other line but blank ones is an event line
    as `write_trace` writes it, every value passes its check, only blank lines
    follow the final record, and that record's `crashed` and `leaders` are, as
    JSON, what `write_trace` writes for the events read: true exactly for each
    crashed process, and each process's last `LeaderChange.new` (null for one
    with none).  It walks the lines once, and keeps for the final check only
    each process's last new leader and the set of crashed processes.

    A line that repeats the head (the text before its last `,"to":`) of a
    line read at the same step takes that head's values and, when its tail is
    one of the 2n texts the writer writes there (a process, `}`, a newline or
    none), that process; otherwise it is read by its pattern.  Only the
    current step's heads are kept, so memory holds one step's broadcasts, and
    every line is accepted or rejected, with the same value or message, as by
    the pattern alone.

    A meta scenario need not be in `Scenario.to_dict()` form: a minimal one
    such as `{"n": 3, "horizon": 100}` reads, its left-out keys taking their
    defaults.  `write_trace` writes such a trace back in full `to_dict()`
    form under that form's own fingerprint, so the first write-back is not
    the file read, and every later one is."""
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
        scenario = Scenario.from_dict(scenario)
    except ScenarioError as exc:
        raise TraceFormatError(f"meta record: scenario: {exc}") from None
    n, horizon = scenario.n, scenario.horizon

    # A field is looked up by its text, each distinct text read once: equal
    # ids give one MessageId, as an id has one text, and equal steps one int
    # object, as in a simulated trace.
    by_text = {kind: _Read(read, n) for kind, (*_, read) in _RENDER.items()}
    decode = {tag: (cls.direct, groups, [by_text[kind] for kind in kinds])
              for tag, (cls, groups, kinds) in _DECODE.items()}
    event_line = _LINE.fullmatch
    # heads: the head (the text before `cut`) of each line of a tail class
    # read by its pattern at step `last` -> (its class's `direct`, the values
    # of its fields but the last); tails: each text the writer writes after
    # `cut` -> its process
    cut, tail_tags, tail_format = _TAIL
    heads: dict[str, tuple] = {}
    tails = {tail_format % p + end: p for p in range(n) for end in ("", "\n")}
    events: list[TraceEvent] = []
    append = events.append
    last = 0
    crashes, outputs = set(), [None] * n  # outputs: each process's last new leader
    for lineno, line in enumerate(it, start=2):
        head, _, tail = line.rpartition(cut)
        if (hit := heads.get(head)) is not None and (dst := tails.get(tail)) is not None:
            append(hit[0]((*hit[1], dst)))
            continue
        if (m := event_line(line)) is None:
            if not line.strip():
                continue
            obj = _record(line, lineno)
            if obj.get("t") == "final":
                break
            raise TraceFormatError(f"line {lineno}: not an event line as write_trace"
                                   f" writes it: {line.rstrip()[:80]!r}")
        tag = m.lastgroup
        make, groups, texts = decode[tag]
        try:  # a ValueError for a bad value
            ev = make(map(getitem, texts, m.group(*groups)))
            if not last <= ev.step <= horizon:
                _bad(ev.step, f"a step in [{last}, {horizon}]")
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: bad {tag!r} event: {exc!r}") from None
        append(ev)
        if ev.step != last:  # no head of an earlier step can recur
            heads.clear()
            last = ev.step
        if tag in tail_tags:
            heads[head] = (make, ev[:-1])
        elif type(ev) is LeaderChange:
            outputs[ev.proc] = ev.new
        elif type(ev) is Crash:
            crashes.add(ev.proc)
    else:
        raise TraceFormatError("truncated trace: missing final record")
    for extra, line in enumerate(it, start=lineno + 1):
        if line.strip():
            raise TraceFormatError(f"line {extra}: data after the final record")
    crashed = [p in crashes for p in range(n)]
    want = canonical_json({"crashed": crashed, "leaders": outputs})
    if (got := canonical_json({key: obj.get(key) for key in ("crashed", "leaders")})) != want:
        raise TraceFormatError(f"final record: {got}, but the events leave {want}")
    return Trace(scenario, events, outputs, crashed)


def read_trace_file(path: str) -> Trace:
    """`read_trace` of a file; text mode reads a `\\r\\n` line ending as `\\n`."""
    return read_text_file(path, read_trace, TraceFormatError)
