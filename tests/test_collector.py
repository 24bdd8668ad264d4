"""`run` and `read_trace` pause the cyclic garbage collector while they build
a trace's event list, and leave what they built in its oldest generation
(`core.collector_paused`).  The pause is sound only while those loops make
no reference cycles, so these tests check that premise on unlike
scenarios; that the events end up out of the young generations, that
garbage made before a call is still collected, and that a caller's
`gc.freeze()` is kept; and that each call, raising or not, leaves the
collector as it found it."""

import gc
import io
import json
import os
import subprocess
import sys
import textwrap
import weakref

import pytest

import mpo
from mpo import netsim
from mpo import trace as mtrace
from mpo.channels import Lossy, Timely
from mpo.core import TimerConfig, collector_paused
from mpo.netsim import GeneralPropagation, Scenario, preset_dependable, run
from mpo.trace import TraceFormatError, read_trace, write_trace


def _ring_with_star(n: int = 4) -> Scenario:
    # 0 reaches everyone directly; the others reach 0 only around the ring
    adjacency = tuple(
        frozenset({(p + 1) % n, 0} - {p}) | (frozenset(range(1, n)) if p == 0 else frozenset())
        for p in range(n)
    )
    return Scenario(n=n, horizon=4000, seed=6,
                    timers=TimerConfig(sender_timeout=32, initial_receiver_timeout=48),
                    default_channel=Lossy(),
                    channels={(p, q): Timely(2) for p in range(n) for q in adjacency[p]},
                    adjacency=adjacency)


SCENARIOS = {
    "preset n=8 with a crash": preset_dependable(8, seed=3, horizon=6000,
                                                 crash_victims=(2,), crash_steps=(3000,)),
    "propagation": Scenario(n=4, horizon=3000, seed=5,
                            propagation=GeneralPropagation(0.7, 0.6, bound=3)),
    "non-complete adjacency": _ring_with_star(),
}


def _lines(trace: mtrace.Trace) -> list[str]:
    buf = io.StringIO()
    write_trace(trace, buf)
    return buf.getvalue().splitlines(keepends=True)


@pytest.mark.parametrize("scn", SCENARIOS.values(), ids=SCENARIOS.keys())
def test_building_a_trace_makes_no_reference_cycles(scn):
    # off throughout, or the first collection after each call would find a
    # cycle before the test's own does
    gc.disable()
    try:
        gc.collect()
        trace = run(scn)
        assert gc.collect() == 0
        lines = _lines(trace)
        gc.collect()
        back = read_trace(lines)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert back.events == trace.events


def test_the_collector_is_off_inside_both_loops(monkeypatch):
    seen = []

    def spy(fn):
        def call(*args):
            seen.append((fn.__name__, gc.isenabled()))
            return fn(*args)
        return call

    monkeypatch.setattr(netsim, "schedule_delivery", spy(netsim.schedule_delivery))
    monkeypatch.setattr(mtrace, "_record", spy(mtrace._record))
    read_trace(_lines(run(SCENARIOS["non-complete adjacency"])))
    assert {name for name, _ in seen} == {"schedule_delivery", "_record"}
    assert not any(enabled for _, enabled in seen)
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_the_collector_is_left_as_it_was_found(enabled):
    scn = SCENARIOS["propagation"]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    found = (enabled, gc.get_freeze_count(), gc.get_threshold())

    def as_found():
        return (gc.isenabled(), gc.get_freeze_count(), gc.get_threshold()) == found

    try:
        lines = _lines(run(scn))
        assert as_found()
        read_trace(lines)
        assert as_found()
        # a channel model no scheduler knows, set past the Scenario's own check:
        # raised by the first send, inside the loop
        unknown = Scenario(n=2, horizon=100)
        object.__setattr__(unknown, "default_channel", object())
        with pytest.raises(TypeError, match="unknown channel model"):
            run(unknown)
        assert as_found()
        with pytest.raises(TraceFormatError, match="truncated"):
            read_trace(lines[:-1])
        assert as_found()
        with collector_paused():
            assert not gc.isenabled()
        assert as_found()
    finally:
        (gc.enable if was else gc.disable)()


def test_a_fresh_interpreter_ends_with_the_collector_as_it_began():
    # the tests above run after earlier calls, so a change to the collector
    # that every call makes alike is already in the state they compare with
    script = textwrap.dedent("""
        import gc, io, json
        def state():
            return [gc.isenabled(), list(gc.get_threshold()), gc.get_freeze_count()]
        began = state()
        from mpo.netsim import preset_dependable, run
        from mpo.trace import read_trace, write_trace
        for _ in range(2):
            buf = io.StringIO()
            write_trace(run(preset_dependable(4, 1, horizon=2000)), buf)
            read_trace(buf.getvalue().splitlines(keepends=True))
        print(json.dumps([began, state()]))
    """)
    src = os.path.dirname(os.path.dirname(mpo.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    began, ended = json.loads(out)
    assert ended == began


def _young_ids() -> set[int]:
    return {id(obj) for gen in (0, 1) for obj in gc.get_objects(generation=gen)}


# some interpreters keep objects of their own frozen (CPython 3.12.1: 375 from
# start-up on); the pause then leaves the generations as they are and
# collects nothing at entry
needs_nothing_frozen = pytest.mark.skipif(
    gc.get_freeze_count() > 0, reason="objects frozen at start-up")


@needs_nothing_frozen
def test_the_events_are_left_out_of_the_young_generations():
    lines = _lines(run(SCENARIOS["propagation"]))
    for build in (lambda: run(SCENARIOS["propagation"]), lambda: read_trace(lines)):
        trace = build()
        young = _young_ids()
        assert gc.is_tracked(trace.events[0])
        assert not any(id(ev) in young for ev in trace.events)
        assert id(trace.events) not in young


def test_a_callers_freeze_is_kept():
    scn = SCENARIOS["propagation"]
    lines = _lines(run(scn))
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        run(scn)
        assert gc.get_freeze_count() == frozen
        read_trace(lines)
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


class _Node:
    pass


@needs_nothing_frozen
def test_a_cycle_dropped_before_run_is_collected_by_its_return():
    scn = SCENARIOS["propagation"]
    # a fresh young generation, so no automatic collection frees the cycle
    # before `run` does
    gc.collect()
    node = _Node()
    node.self = node
    gone = weakref.ref(node)
    del node
    assert gone() is not None
    run(scn)
    assert gone() is None
