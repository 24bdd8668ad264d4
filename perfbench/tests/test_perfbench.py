"""Self-checks of the benchmark's tracer and workloads, on small inputs.

Run from the repository root:

    python -m pytest -q perfbench/tests
"""

import json
import os

import pytest

import mpo.audit
import mpo.cli
import mpo.core
import mpo.montecarlo
import mpo.netsim
from mpo.netsim import GeneralPropagation, Scenario, preset_dependable
from mpo.scenario_io import dump_scenario_file
from perfbench import workloads as wl
from perfbench.tracing import PER_LAYER_METRICS, Tracer

PATCHED_MODULES = (mpo.audit, mpo.cli, mpo.core, mpo.montecarlo, mpo.netsim)


def _attributes():
    snap = {(m.__name__, k): v for m in PATCHED_MODULES for k, v in vars(m).items()}
    snap[("MpoState", "own_min_arborescence")] = mpo.core.MpoState.own_min_arborescence
    return snap


def channel_scenarios():
    return [
        preset_dependable(3, 1, horizon=3_000, crash_victims=(1,), crash_steps=(1_500,)),
        preset_dependable(5, 2, horizon=3_000),
    ]


def propagation_scenario():
    return Scenario(n=4, horizon=1_500, seed=3,
                    propagation=GeneralPropagation(p_reliable=0.9, p_timely=0.6, bound=4))


@pytest.fixture
def small_mc(monkeypatch):
    for name, value in (("EXIST_TRIALS", 400), ("EXIST_CHUNKS", 1),
                        ("STAB_TRIALS", 400), ("STAB_CHUNKS", 1)):
        monkeypatch.setattr(wl, name, value)
    monkeypatch.setattr(wl, "MC_SIZES", (5, 10))
    return wl.McEstimators().prepare(wl.DEFAULT_SEED, "")


@pytest.fixture
def pipeline_input(tmp_path):
    path = str(tmp_path / "scn.ini")
    dump_scenario_file(preset_dependable(4, 5, horizon=3_000), path)
    return wl.PipelineInput(path, str(tmp_path / "trace.jsonl"))


def _ops(pipeline_input, small_mc):
    """(workload, input) pairs covering every workload's op."""
    return ([(wl.CrashSweep(), scn) for scn in channel_scenarios()]
            + [(wl.PipelineN32(), pipeline_input)]
            + [(wl.McEstimators(), inp) for inp in small_mc])


def _run_op(work, inp):
    with work.session():
        out = work.op(inp)
    assert out.ok, out.note
    fp = work.fingerprint(out)
    work.release(out)
    return fp


def test_traced_outputs_identical_to_untraced(pipeline_input, small_mc):
    for work, inp in _ops(pipeline_input, small_mc):
        plain = _run_op(work, inp)
        tracer = Tracer()
        with tracer:
            with tracer.span("op", op=0):
                traced = _run_op(work, inp)
        assert traced == plain, work.name


def test_every_patched_attribute_restored(pipeline_input, small_mc):
    before = _attributes()
    tracer = Tracer()
    with tracer:
        assert _attributes() != before
        for work, inp in _ops(pipeline_input, small_mc):
            _run_op(work, inp)
    assert _attributes() == before
    assert tracer.restored()


def test_restored_after_an_exception():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("op failed")
    assert _attributes() == before


def _traced_runs(scenarios):
    tracer = Tracer()
    traces = []
    with tracer:
        for op, scn in enumerate(scenarios):
            with tracer.span("op", op=op):
                traces.append(mpo.netsim.run(scn))
    return tracer, [ev for t in traces for ev in t.events]


def _count(events, name):
    return sum(1 for ev in events if type(ev).__name__ == name)


@pytest.mark.parametrize("scenarios", [channel_scenarios(), [propagation_scenario()]],
                         ids=["channels", "propagation"])
def test_core_stimuli_are_deliveries_plus_timer_firings(scenarios):
    tracer, events = _traced_runs(scenarios)
    assert tracer.counts["core.stimuli"] == (
        _count(events, "Deliver") + _count(events, "TimerFired")
    )


def test_channel_counts_match_the_trace():
    tracer, events = _traced_runs(channel_scenarios())
    sends, drops = _count(events, "Send"), _count(events, "Drop")
    metrics = tracer.layer_metrics()
    assert metrics["channels.schedule_calls"] == sends
    assert metrics["channels.drop_ratio"] == drops / sends
    assert metrics["netsim.sends"] == sends and metrics["netsim.drops"] == drops


def test_nested_audit_calls_are_not_counted():
    work, scn = wl.CrashSweep(), channel_scenarios()[1]
    tracer = Tracer()
    with tracer:
        out = work.op(scn)
    # audit_report (which calls audit_timer_bound itself) and audit_timer_bound
    assert tracer.counts["audit.calls"] == 2
    assert tracer.counts["audit.events"] == 2 * len(out.output.events)


def test_self_times_within_op_wall(pipeline_input, small_mc):
    tracer = Tracer()
    with tracer:
        for op, (work, inp) in enumerate(_ops(pipeline_input, small_mc)):
            with tracer.span("op", op=op):
                _run_op(work, inp)
    accounting = tracer.op_accounting()
    assert len(accounting) == len(_ops(pipeline_input, small_mc))
    for wall, layers in accounting.values():
        assert 0 < layers <= wall
    for what, ok in tracer.cross_checks():
        assert ok, what


def test_every_per_layer_metric_is_reported(pipeline_input, small_mc):
    tracer = Tracer()
    with tracer:
        for work, inp in _ops(pipeline_input, small_mc):
            _run_op(work, inp)
    metrics = tracer.layer_metrics()
    names = [name for name, _ in PER_LAYER_METRICS if name != "tracing_overhead_ratio"]
    assert sorted(metrics) == sorted(names)
    for name in ("netsim.self_s", "core.self_s", "arborescence.solves",
                 "channels.self_s", "trace.bytes", "audit.calls",
                 "montecarlo.reachability_calls", "cli.self_s"):
        assert metrics[name] > 0, name


def test_pins_and_benchmark_json_cover_every_workload():
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(bench, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    with open(os.path.join(os.path.dirname(bench), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(pins["round0"]) == sorted(wl.WORKLOADS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in PER_LAYER_METRICS]


def test_harrell_davis_quantiles():
    from perfbench.run import _beta_cdf, harrell_davis

    assert _beta_cdf(0.5, 3.0, 3.0) == pytest.approx(0.5, abs=1e-12)
    assert _beta_cdf(0.2, 1.0, 1.0) == pytest.approx(0.2, abs=1e-12)
    assert harrell_davis([7.0], 0.9) == 7.0
    assert harrell_davis([2.0] * 24, 0.9) == pytest.approx(2.0, abs=1e-12)
    assert harrell_davis([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0, abs=1e-12)
    values = [float(v) for v in range(1, 25)]
    assert values[18] < harrell_davis(values, 0.9) < values[23]


def test_calibrator_answers_and_its_child_ends():
    from perfbench.calibration import Calibrator

    with Calibrator() as calibrate:
        times = [calibrate() for _ in range(3)]
    assert all(0 < t < 5 for t in times)
    assert calibrate._proc.returncode == 0


def test_pipeline_calibrates_its_stages_only_when_asked(pipeline_input):
    work = wl.PipelineN32()
    calls = []

    def calibrate():
        calls.append(1)
        return 0.01

    with work.session():
        plain = work.op(pipeline_input)
        work.release(plain)
        work.calibrate = calibrate
        out = work.op(pipeline_input)
        work.release(out)
    assert plain.ok and out.ok
    assert plain.calibration == {} and plain.calibrating_s == 0.0
    assert set(out.calibration) == set(wl.PipelineN32.STAGES) | {"work_s"}
    assert len(calls) == 2 * len(wl.PipelineN32.STAGES)
    assert out.calibrating_s > 0
