import copy
import dataclasses
import io
import json
import re
from operator import attrgetter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpo import core
from mpo import trace as mtrace
from mpo.core import Alive, Failed, MessageId, Packet, StartPhase, StopPhase
from mpo.netsim import Scenario, preset_dependable, run
from mpo.trace import (
    EVENT_FORMAT,
    Crash,
    Deliver,
    Drop,
    LeaderChange,
    PhaseChange,
    Send,
    TimerFired,
    Trace,
    TraceFormatError,
    canonical_json,
    fingerprint_scenario,
    read_trace,
    read_trace_file,
    write_trace,
)
from test_collector import SCENARIOS


def roundtrip(trace: Trace) -> Trace:
    buf = io.StringIO()
    write_trace(trace, buf)
    return read_trace(io.StringIO(buf.getvalue()))


def test_round_trip_preserves_everything():
    trace = run(preset_dependable(3, seed=5, horizon=3000))
    again = roundtrip(trace)
    assert again.events == trace.events
    assert again.final_leaders == trace.final_leaders
    assert again.crashed == trace.crashed
    assert again.scenario == trace.scenario
    assert [f.name for f in dataclasses.fields(again)] == [
        "scenario", "events", "final_leaders", "crashed"]


def every_kind() -> Trace:
    """A trace of n=3 with one event of each class."""
    mid = MessageId(1, 2)
    events = [
        Send(1, mid, "alive", 0, 1),
        Deliver(2, mid, 0, 1),
        Drop(2, mid, 0, 2),
        TimerFired(3, 1, 0),
        LeaderChange(3, 1, None, 0),
        PhaseChange(3, 1, 0, 4),
        Crash(4, 2),
    ]
    return Trace(Scenario(n=3, horizon=10), events, [None, 0, None], [False, False, True])


def fan_out() -> Trace:
    """A trace of n=5 in which process 0 broadcasts one message at step 1 that
    lands at step 2, delivered to 1 and 2 and dropped to 3 and 4: three groups
    of lines (4 sends, 2 delivers, 2 drops) that differ only in "to"."""
    n, mid = 5, MessageId(0, 0)
    events = [*(Send(1, mid, "alive", 0, dst) for dst in range(1, n)),
              *(Deliver(2, mid, 0, dst) for dst in (1, 2)),
              *(Drop(2, mid, 0, dst) for dst in (3, 4))]
    return Trace(Scenario(n=n, horizon=10), events, [None] * n, [False] * n)


def test_every_event_kind_serializes():
    trace = every_kind()
    assert roundtrip(trace).events == trace.events


def test_a_final_record_is_any_json_object_with_the_values_the_events_leave():
    trace = every_kind()
    *lines, _ = written(trace).splitlines(keepends=True)
    final = ('{ "t": "final", "note": [1], "crashed": [false, false, true],'
             ' "leaders": [null, 0, null] }\n')
    again = read_trace([*lines, final])
    assert again.events == trace.events
    assert (again.final_leaders, again.crashed) == ([None, 0, None], [False, False, True])


def test_rejects_garbage():
    with pytest.raises(TraceFormatError):
        read_trace(io.StringIO(""))
    with pytest.raises(TraceFormatError):
        read_trace(io.StringIO("not json\n"))
    with pytest.raises(TraceFormatError):
        read_trace(io.StringIO('{"t":"send"}\n'))  # no meta first


def test_rejects_truncation():
    trace = run(preset_dependable(2, seed=1, horizon=500))
    buf = io.StringIO()
    write_trace(trace, buf)
    lines = buf.getvalue().splitlines(keepends=True)[:-1]  # drop final record
    with pytest.raises(TraceFormatError, match="truncated"):
        read_trace(io.StringIO("".join(lines)))


def test_only_blank_lines_follow_the_final_record():
    trace = run(preset_dependable(2, seed=1, horizon=500))
    buf = io.StringIO()
    write_trace(trace, buf)
    text = buf.getvalue()
    assert read_trace(io.StringIO(text + "\n  \n")).events == trace.events
    last = text.count("\n") + 1
    with pytest.raises(TraceFormatError, match=f"line {last + 1}: data after the final record"):
        read_trace(io.StringIO(text + "\n" + '{"t":"crash","step":499,"proc":1}\n'))


def test_correct_processes_excludes_crashed():
    trace = run(preset_dependable(4, seed=2, horizon=4000,
                                  crash_victims=(2,), crash_steps=(1000,)))
    assert trace.correct_processes() == [0, 1, 3]
    assert trace.crashed[2]


KINDS = [message.kind for message in (StartPhase, StopPhase, Alive, Failed)]


@st.composite
def traces(draw):
    """A trace of n <= 5 processes whose time-ordered events, of all seven
    kinds, lie within range; a process is crashed when it has a crash event,
    and its final leader is the new leader of its last leader change."""
    n = draw(st.integers(2, 5))  # the least n and horizon a Scenario takes
    horizon = draw(st.integers(1, 300))
    procs = st.integers(0, n - 1)
    leaders = st.none() | procs
    counts = st.integers(0, 10**6)
    mids = st.builds(MessageId, procs, counts)
    kinds = [
        lambda s: st.builds(Send, st.just(s), mids, st.sampled_from(KINDS), procs, procs),
        lambda s: st.builds(Deliver, st.just(s), mids, procs, procs),
        lambda s: st.builds(Drop, st.just(s), mids, procs, procs),
        lambda s: st.builds(TimerFired, st.just(s), procs, procs),
        lambda s: st.builds(LeaderChange, st.just(s), procs, leaders, leaders),
        lambda s: st.builds(Crash, st.just(s), procs),
        lambda s: st.builds(PhaseChange, st.just(s), procs, procs, counts),
    ]
    steps = sorted(draw(st.lists(st.integers(0, horizon), max_size=20)))
    events = [draw(draw(st.sampled_from(kinds))(step)) for step in steps]
    scenario = Scenario(n=n, horizon=horizon, labels=draw(st.dictionaries(
        st.text(max_size=4), st.text(max_size=4), max_size=2)))
    crashes = {ev.proc for ev in events if isinstance(ev, Crash)}
    outputs = {ev.proc: ev.new for ev in events if isinstance(ev, LeaderChange)}
    return Trace(scenario, events,
                 [outputs.get(p) for p in range(n)], [p in crashes for p in range(n)])


def written(trace: Trace) -> str:
    buf = io.StringIO()
    write_trace(trace, buf)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(traces())
def test_codec_round_trips(trace):
    text = written(trace)
    again = read_trace(io.StringIO(text))
    assert again.events == trace.events
    assert again.final_leaders == trace.final_leaders
    assert again.crashed == trace.crashed
    assert again.scenario == trace.scenario
    assert written(again) == text


def bad_values(key: str, n: int, horizon: int, last_step: int) -> list:
    """Values outside the range, or of the wrong type, for an event field."""
    wrong_type = ["1", 1.0, True, [0], {}]
    if key == "step":
        return [-1, horizon + 1, None, *wrong_type] + ([last_step - 1] if last_step else [])
    if key == "mid":
        return [[n, 0], [-1, 0], [0, -1], [0], [0, 0, 0], [0, True], [0.0, 0], "0,0", None]
    if key == "kind":
        return ["zzz", "Alive", "", None, 1]
    if key == "phase":
        return [-1, None, *wrong_type]
    if key in ("old", "new"):  # null is a valid leader
        return [n, -1, *wrong_type]
    return [n, -1, None, *wrong_type]  # a process


def writable(key: str, value) -> bool:
    """Whether the writer's form of field `key` can hold `value`: for "kind",
    only a known kind, so no bad value; otherwise an int >= 0, or a list of two
    such ints."""
    if key == "kind":
        return False
    return (type(value) is int and value >= 0
            or type(value) is list and len(value) == 2
            and all(writable("", v) for v in value))


@settings(max_examples=300, deadline=None)
@given(traces().filter(lambda t: t.events), st.data())
def test_one_bad_field_is_rejected(trace, data):
    lines = written(trace).splitlines(keepends=True)
    index = data.draw(st.integers(0, len(trace.events) - 1))
    obj = json.loads(lines[1 + index])
    key = data.draw(st.sampled_from(sorted(k for k in obj if k != "t")))
    last_step = trace.events[index - 1].step if index else 0
    obj[key] = value = data.draw(st.sampled_from(
        bad_values(key, trace.n, trace.horizon, last_step)))
    dump = data.draw(st.sampled_from([json.dumps, canonical_json]))  # spaced, or canonical
    lines[1 + index] = dump(obj) + "\n"
    # only a line in the writer's form reaches the field's check
    reason = "bad '" if dump is canonical_json and writable(key, value) else "not an event line"
    with pytest.raises(TraceFormatError, match=f"line {2 + index}: {reason}"):
        read_trace(io.StringIO("".join(lines)))


def generic_line(ev) -> str:
    """The event's line as a generic writer builds it from EVENT_FORMAT: the
    canonical JSON of its fields' values under their keys."""
    tag, fields = EVENT_FORMAT[type(ev)]
    values = attrgetter("step", *[attr for attr, _, _ in fields])(ev)
    keys = ("step", *[key for _, key, _ in fields])
    return canonical_json(dict(zip(keys, values), t=tag)) + "\n"


@settings(max_examples=300, deadline=None)
@given(traces())
def test_event_lines_are_canonical_json(trace):
    lines = written(trace).splitlines(keepends=True)
    assert lines[1:-1] == [generic_line(ev) for ev in trace.events]


def meta_line(scenario: dict) -> str:
    """The meta record of `scenario`, a dict, with its fingerprint."""
    return canonical_json({"t": "meta", "fingerprint": fingerprint_scenario(scenario),
                           "scenario": scenario}) + "\n"


def test_bool_id_does_not_alias_an_int_id():
    lines = [meta_line({"n": 2, "horizon": 10}),
             '{"from":0,"mid":[1,0],"step":1,"t":"deliver","to":1}\n',
             '{"from":0,"mid":[true,0],"step":2,"t":"deliver","to":1}\n',
             '{"crashed":[false,false],"leaders":[null,null],"t":"final"}\n']
    with pytest.raises(TraceFormatError, match="line 3:"):
        read_trace(lines)


# meta scenarios whose fingerprint matches, but that no Scenario has
@pytest.mark.parametrize("bad", [{"timers": "abc"}, {"n": 1}, {"horizon": 0}, {"seed": "x"}],
                         ids=lambda bad: "%s=%r" % next(iter(bad.items())))
def test_a_meta_scenario_must_read_as_a_scenario(bad):
    lines = [meta_line({"n": 3, "horizon": 100, **bad}),
             '{"crashed":[false,false,false],"leaders":[null,null,null],"t":"final"}\n']
    with pytest.raises(TraceFormatError, match="^meta record: scenario: "):
        read_trace(lines)


def test_a_minimal_meta_record_is_written_back_in_full():
    # a meta scenario with keys left out, or with a label that is not a
    # string, reads; it is written back as the Scenario's full dict under that
    # dict's own fingerprint, and from then on reads and writes byte for byte
    lines = [meta_line({"n": 3, "horizon": 100, "labels": {"x": 1}}),
             '{"crashed":[false,false,false],"leaders":[null,null,null],"t":"final"}\n']
    once = written(read_trace(lines))
    meta = json.loads(once.splitlines()[0])
    assert meta["fingerprint"] == "2474a50d3bf5f006" != json.loads(lines[0])["fingerprint"]
    assert meta["scenario"] == Scenario(n=3, horizon=100, labels={"x": "1"}).to_dict()
    assert written(read_trace(io.StringIO(once))) == once


def test_equal_ids_are_one_object():
    events = [Send(1, MessageId(0, 7), "alive", 0, 1), Deliver(2, MessageId(0, 7), 0, 1),
              Drop(2, MessageId(1, 7), 1, 0), Deliver(3, MessageId(1, 7), 1, 0)]
    again = roundtrip(Trace(Scenario(n=2, horizon=10), events,
                            [None, None], [False, False])).events
    assert again == events
    assert again[0].mid is again[1].mid and again[2].mid is again[3].mid


# the per-event value types: immutable, hashable, equal only within a class
EVENT_NAMES = {"Send", "Deliver", "Drop", "TimerFired", "LeaderChange", "Crash",
               "PhaseChange"}  # the names perfbench/tracing.py counts


def test_events_of_different_classes_with_equal_fields_differ():
    mid = MessageId(1, 2)
    assert Deliver(1, mid, 0, 1) != Drop(1, mid, 0, 1)
    assert not Deliver(1, mid, 0, 1) == Drop(1, mid, 0, 1)
    assert [Deliver(1, mid, 0, 1)] != [Drop(1, mid, 0, 1)]
    assert Deliver(1, mid, 0, 1) == Deliver(1, MessageId(1, 2), 0, 1)
    assert len({Deliver(1, mid, 0, 1), Drop(1, mid, 0, 1), Deliver(1, mid, 0, 1)}) == 2


@pytest.mark.parametrize("value, attr", [
    (Send(1, MessageId(0, 1), "alive", 0, 1), "step"),
    (Deliver(1, MessageId(0, 1), 0, 1), "mid"),
    (Drop(1, MessageId(0, 1), 0, 1), "dst"),
    (TimerFired(1, 0, 1), "subject"),
    (LeaderChange(1, 0, None, 1), "new"),
    (Crash(1, 0), "proc"),
    (PhaseChange(1, 0, 0, 1), "phase"),
    (Packet(MessageId(0, 1), Alive(0, 0, 0), 0, 1), "dst"),
    (Packet(MessageId(0, 1), Alive(0, 0, 0), 0, 1), "msg_id"),
    (MessageId(0, 1), "seq"),
], ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_value_types_are_immutable_and_hashable(value, attr):
    with pytest.raises(AttributeError):
        setattr(value, attr, 7)
    assert hash(value) == hash(copy.copy(value))
    assert {value: 1}[copy.deepcopy(value)] == 1


def test_direct_construction_equals_positional_construction():
    # every typed tuple has `direct`, given by `equal_within_class`
    typed = {value for module in (core, mtrace) for value in vars(module).values()
             if isinstance(value, type) and "direct" in vars(value)}
    assert typed == {MessageId, Packet, *EVENT_FORMAT}
    for cls in typed:
        values = tuple(range(len(cls._fields)))
        for built in (cls.direct(values), cls.direct(iter(values))):
            assert type(built) is cls and built == cls(*values)


@pytest.mark.parametrize("scn", SCENARIOS.values(), ids=SCENARIOS.keys())
def test_events_hold_one_value_per_field(scn):
    trace = run(scn)
    for events in (trace.events, roundtrip(trace).events):
        assert all(len(ev) == len(type(ev)._fields) for ev in events)


def test_a_run_emits_only_the_seven_event_classes():
    scn = preset_dependable(5, seed=3, horizon=6000, crash_victims=(0, 3),
                            crash_steps=(2500, 3000))
    names = {type(ev).__name__ for ev in run(scn).events}
    assert names == EVENT_NAMES
    assert {cls.__name__ for cls in EVENT_FORMAT} == EVENT_NAMES


# ---------------------------------------------------------------------------
# The reader reads an event line only in the writer's form: its class's pattern
# ---------------------------------------------------------------------------

def read_counting_json(text: str) -> tuple[Trace, list[int]]:
    """`read_trace` of `text`, and the numbers of the lines it read as JSON."""
    record, numbers = mtrace._record, []

    def counted(line: str, lineno: int):
        numbers.append(lineno)
        return record(line, lineno)

    with mock.patch.object(mtrace, "_record", counted):
        return read_trace(io.StringIO(text)), numbers


def assert_events_take_the_pattern(trace: Trace) -> None:
    text = written(trace)
    lines = text.splitlines(keepends=True)
    for ev, line in zip(trace.events, lines[1:-1]):
        m = mtrace._LINE.fullmatch(line)
        assert m is not None and m.lastgroup == EVENT_FORMAT[type(ev)][0], line
    again, as_json = read_counting_json(text)
    assert as_json == [1, len(lines)]  # the meta and final records only
    assert again.events == trace.events


@settings(max_examples=200, deadline=None)
@given(traces())
@example(fan_out())
def test_every_written_event_line_matches_its_pattern(trace):
    assert_events_take_the_pattern(trace)


def test_a_simulated_trace_is_read_by_pattern():
    assert_events_take_the_pattern(run(preset_dependable(8, 0, horizon=2000)))


INT_LITERAL = re.compile(r"(?<=[:\[,])(0|[1-9][0-9]*)(?=[,\]}])")


def each_int(*replace):
    """Variants of a line, one for each int in it and each way to replace it,
    `replace(text, n)`."""
    return lambda line, n: [line[:m.start()] + how(m.group(), n) + line[m.end():]
                            for m in INT_LITERAL.finditer(line) for how in replace]


# name -> (line, n) -> variants of the line that are valid JSON or not
PERTURBATIONS = {
    "canonical": lambda line, n: [line],
    "space after comma": lambda line, n: [line.replace(",", ", ")],
    "space after colon": lambda line, n: [line.replace(":", ": ")],
    "reordered keys": lambda line, n: [json.dumps(
        dict(reversed(json.loads(line).items())), separators=(",", ":")) + "\n"],
    "leading zero": each_int(lambda v, n: "0" + v),
    "minus zero": each_int(lambda v, n: "-0"),
    "negative": each_int(lambda v, n: "-5"),
    # ARABIC-INDIC DIGIT ONE, alone and after the int
    "unicode digit": each_int(lambda v, n: "\u0661", lambda v, n: v + "\u0661"),
    "true": each_int(lambda v, n: "true"),
    "float": each_int(lambda v, n: "1.0"),
    "process n": each_int(lambda v, n: str(n)),
    "zero": each_int(lambda v, n: "0"),  # in a step, below the last one
    "escaped strings": lambda line, n: [re.sub(
        r'":"(\w)', lambda m: '":"\\u%04x' % ord(m.group(1)), line)],
    "crlf": lambda line, n: [line.replace("\n", "\r\n")],
    "trailing spaces": lambda line, n: [line.replace("}\n", "}  \n")],
    "no newline": lambda line, n: [line.rstrip("\n")],
}


def is_canonical(line: str) -> bool:
    """Whether `line`, give or take its newline, is the canonical JSON of an object."""
    try:
        return canonical_json(json.loads(line)) == line.rstrip("\n")
    except ValueError:
        return False


@pytest.mark.parametrize("name", PERTURBATIONS)
@settings(max_examples=10, deadline=None)
@given(traces())
@example(every_kind())
@example(fan_out())
def test_a_line_is_read_only_as_write_trace_writes_it(name, trace):
    """A variant of an event line that is not canonical JSON is rejected, naming
    its line; a variant that is read back is written back as it was."""
    lines = written(trace).splitlines(keepends=True)
    for index in range(1, len(lines) - 1):
        for variant in PERTURBATIONS[name](lines[index], trace.n):
            changed = [*lines[:index], variant, *lines[index + 1:]]
            try:
                again = read_trace(changed)
            except TraceFormatError as exc:  # a canonical line may break a later check
                assert is_canonical(variant) or str(exc).startswith(f"line {index + 1}:"), (
                    variant, exc)
            else:
                assert written(again) == "".join(line.rstrip("\n") + "\n" for line in changed)


def test_a_crlf_file_reads_from_disk(tmp_path):
    trace = every_kind()
    path = tmp_path / "trace.jsonl"
    path.write_bytes(written(trace).replace("\n", "\r\n").encode())
    assert read_trace_file(str(path)).events == trace.events


def test_an_int_too_long_to_convert_is_a_format_error():
    lines = written(every_kind()).splitlines(keepends=True)
    lines[7] = lines[7].replace('"step":4', '"step":' + "9" * 5000)
    with pytest.raises(TraceFormatError, match="line 8:"):
        read_trace(lines)


# ---------------------------------------------------------------------------
# A line that repeats a head read at its step takes that head's values
# ---------------------------------------------------------------------------

GROUPS = (1, 5, 7)  # the index in fan_out()'s lines of each group's first line


def test_only_the_first_line_of_a_head_group_is_matched():
    lines = written(fan_out()).splitlines(keepends=True)
    pattern, matched = mtrace._LINE, []

    def fullmatch(line: str):
        matched.append(line)
        return pattern.fullmatch(line)

    with mock.patch.object(mtrace, "_LINE", mock.Mock(fullmatch=fullmatch)):
        assert read_trace(lines).events == fan_out().events
    assert matched == [*(lines[index] for index in GROUPS), lines[-1]]


# name -> the text after the last `,"to":` of an event line, given n; each
# gives both lines of a head group the same text
TAILS = {
    "canonical": None,  # the line as written
    "process n": lambda n: f"{n}}}\n",
    "leading zero": lambda n: "01}\n",
    "minus zero": lambda n: "-0}\n",
    "negative": lambda n: "-5}\n",
    "unicode digit": lambda n: "1\u0661}\n",  # ARABIC-INDIC DIGIT ONE
    "true": lambda n: "true}\n",
    "float": lambda n: "1.0}\n",
    "trailing spaces": lambda n: "1}  \n",
    "no newline": lambda n: "1}",  # mid-file: the line runs into the next one
    "plus sign": lambda n: "+1}\n",
    "underscore": lambda n: "1_0}\n",
    "leading space": lambda n: " 1}\n",
    "carriage return": lambda n: "1}\r\n",
    "exponent": lambda n: "1e0}\n",
    "null": lambda n: "null}\n",
}


@pytest.mark.parametrize("name", TAILS)
def test_a_repeated_head_is_read_as_its_pattern_reads_it(name):
    """A tail on the first line of a head group, read by its pattern, and on the
    second, whose head is then known, is read the same: back to the trace when
    canonical, else rejected with the same text after the line's number."""
    trace = fan_out()
    lines = written(trace).splitlines(keepends=True)
    if TAILS[name] is None:
        assert read_trace(io.StringIO("".join(lines))).events == trace.events
        return
    for first in GROUPS:
        errors = []
        for index in (first, first + 1):
            head, cut, _ = lines[index].rpartition(',"to":')
            changed = [*lines[:index], head + cut + TAILS[name](trace.n), *lines[index + 1:]]
            with pytest.raises(TraceFormatError) as caught:
                read_trace(io.StringIO("".join(changed)))
            number, _, text = str(caught.value).partition(": ")
            assert number == f"line {index + 1}"
            errors.append(text)
        assert errors[0] == errors[1], errors


def test_a_head_of_an_earlier_step_is_not_kept():
    lines = written(fan_out()).splitlines(keepends=True)
    lines.insert(6, lines[1])  # a send of step 1, after a deliver of step 2
    with pytest.raises(TraceFormatError, match=re.escape(
            "line 7: bad 'send' event: ValueError('1 is not a step in [2, 10]')")):
        read_trace(lines)
