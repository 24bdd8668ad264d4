"""`run` and `read_trace` pause the cyclic garbage collector while they build
a trace's event list (`core.collector_paused`).  The pause is sound only
while those loops make no reference cycles, so these tests check that
premise on unlike scenarios, and that each call, raising or not, leaves the
collector as it found it."""

import gc
import io

import pytest

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
    lines = _lines(run(scn))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        run(scn)
        assert gc.isenabled() is enabled
        read_trace(lines)
        assert gc.isenabled() is enabled
        # a channel model no scheduler knows: raised by the first send, inside the loop
        with pytest.raises(TypeError, match="unknown channel model"):
            run(Scenario(n=2, horizon=100, default_channel=object()))
        assert gc.isenabled() is enabled
        with pytest.raises(TraceFormatError, match="truncated"):
            read_trace(lines[:-1])
        assert gc.isenabled() is enabled
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
