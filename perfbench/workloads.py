"""The benchmark's workloads: inputs made from a seed, ops, and their checks.

Every workload is a closed loop with one client: one op runs at a time,
and the next starts when the previous op's output has been checked.  A
round is the workload's fixed list of ops, made from the seed alone; a run
repeats the round, so each op is timed several times.  Calls into mpo go
through module attributes (`netsim.run`, `audit.audit_report`, ...) so
that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from mpo import audit, cli, montecarlo, netsim
from mpo import trace as mtrace
from mpo.montecarlo import Mode
from mpo.netsim import Scenario
from mpo.scenario_io import dump_scenario_file

# the seed whose outputs are pinned; 0 maps crash_sweep and mc_estimators
# onto the acceptance tests' own seeds
DEFAULT_SEED = 0


@dataclass
class Outcome:
    """What one op produced.

    `work` counts trace events (simulation workloads) or Monte Carlo
    trials, and `work_s` is the time spent inside `netsim.run` or the
    estimator calls; `family` names the estimators an op's trials count
    for.  `output` is whatever `fingerprint` hashes.  `stages` splits the
    op's time into named parts, one timer around each call; the rest of the
    op's wall time is its own part.  A run times each part on its own, so a
    slow spell of the machine in one part of an op does not cost the whole
    op.  `calibration` holds the mean calibration time right before and
    after a stage (or `work_s`) when the op calibrated it itself, and
    `calibrating_s` the seconds that took, which are not the op's.
    """

    ok: bool
    note: str
    work: int
    work_s: float
    output: Any
    family: str = ""
    stages: dict[str, float] = field(default_factory=dict)
    calibration: dict[str, float] = field(default_factory=dict)
    calibrating_s: float = 0.0


class _HashSink:
    def __init__(self) -> None:
        self.h = hashlib.sha256()

    def write(self, text: str) -> None:
        self.h.update(text.encode("utf-8"))


def trace_sha256(trace: mtrace.Trace) -> str:
    """sha256 of the trace's JSONL bytes, as `write_trace_file` would write them."""
    sink = _HashSink()
    mtrace.write_trace(trace, sink)
    return sink.h.hexdigest()


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""

    name = ""
    # the run's `Calibrator` while it wants the op to calibrate its own
    # stages (see `Outcome.calibration`); only a workload with long ops does
    calibrate: Callable[[], float] | None = None

    def prepare(self, seed: int, workdir: str) -> list[Any]:
        """The inputs of one round."""
        raise NotImplementedError

    def checked_once(self, seed: int, workdir: str) -> list[Any]:
        """Inputs that run once, untimed, after the timed rounds; their
        outputs are checked like a round's."""
        return []

    def op(self, inp: Any) -> Outcome:
        raise NotImplementedError

    def fingerprint(self, out: Outcome) -> str:
        return trace_sha256(out.output)

    def release(self, out: Outcome) -> None:
        out.output = None

    @contextlib.contextmanager
    def session(self):
        yield


# ---------------------------------------------------------------------------
# crash_sweep: a slice of the acceptance sweep, audited in memory
# ---------------------------------------------------------------------------

SWEEP_SIZES = (3, 4, 6, 8)
SWEEP_PER_SIZE = 6
SWEEP_HORIZON = 50_000


def sweep_scenario(n: int, seed: int, count: int) -> Scenario:
    """The crash schedule of the acceptance sweep (test_acceptance._sweep_case),
    with `count` victims where the sweep draws 0..n//3 of them."""
    rng = random.Random((n << 20) ^ seed ^ 0xACCE)
    rng.randint(0, n // 3)  # the sweep's draw of the count, kept for its stream
    victims = tuple(sorted(rng.sample(range(1, n), count)))
    steps = tuple(
        sorted(rng.randint(SWEEP_HORIZON // 10, SWEEP_HORIZON // 2) for _ in victims)
    )
    return netsim.preset_dependable(
        n, seed, 0, horizon=SWEEP_HORIZON, crash_victims=victims,
        crash_steps=steps, sender_timeout=64, bound=2,
    )


def sweep_verdict(trace: mtrace.Trace) -> str:
    """'' when the run converged to leader 0 with efficient tails and a
    stabilised leader-watch timer, else what failed."""
    report = audit.audit_report(trace)
    timers = audit.audit_timer_bound(trace, 0)
    failed = [
        name for name, ok in (
            ("converged to 0", report.converged and report.leader == 0),
            ("message efficient", report.message_efficient),
            ("packet efficient", report.packet_efficient),
            ("timer stabilised", timers.stabilized),
        ) if not ok
    ]
    return ", ".join(failed)


class CrashSweep(Workload):
    name = "crash_sweep"

    def prepare(self, seed, workdir):
        # every round holds each size with each crash count equally often, up
        # to one scenario, so that the verdict times' spread over a round is
        # much the same from seed to seed; the victims and their crash steps
        # are drawn as the sweep draws them, from seeds seed*100000 + k
        return [sweep_scenario(n, seed * 100_000 + k, k % (n // 3 + 1))
                for k in range(SWEEP_PER_SIZE) for n in SWEEP_SIZES]

    def op(self, scn):
        start = time.perf_counter()
        trace = netsim.run(scn)
        sim_s = time.perf_counter() - start
        note = sweep_verdict(trace)
        return Outcome(not note, note, len(trace.events), sim_s, trace,
                       stages={"run": sim_s})


# ---------------------------------------------------------------------------
# pipeline_n32: `mpo run` -> JSONL file -> `mpo audit`, through the CLI
# ---------------------------------------------------------------------------

PIPELINE_N = 32
PIPELINE_HORIZON = 2_000


@dataclass
class PipelineInput:
    scenario_path: str
    trace_path: str


class PipelineN32(Workload):
    """A round is the scenario of the pinned seed, whatever the seed: the
    cost of `preset_dependable(32, s)` is set by its start-up storm, whose
    size and make-up follow the seed's channel mix: over seeds 1..8, timed
    in turn in one process, its `netsim.run` took 1.1 s to 2.6 s, by more
    than any count of its events predicts.  The seed's own scenario
    goes through the same pipeline once per run, checked but untimed, so a
    claim can still be re-checked on a fresh seed."""

    name = "pipeline_n32"

    # the CLI's calls that are timed as stages of an op
    STAGES = ("run", "write_trace_file", "read_trace_file", "audit_report")

    def __init__(self) -> None:
        self._sim: list[tuple[int, float]] = []
        self._stages: dict[str, float] = {}
        self._cals: dict[str, float] = {}
        self._calibrating_s = 0.0

    @staticmethod
    def _input(seed: int, workdir: str, tag: str) -> PipelineInput:
        scn = netsim.preset_dependable(PIPELINE_N, seed * 100_000, 0,
                                       horizon=PIPELINE_HORIZON)
        path = os.path.join(workdir, f"pipeline-{tag}.ini")
        dump_scenario_file(scn, path)
        return PipelineInput(path, os.path.join(workdir, f"pipeline-{tag}.jsonl"))

    def prepare(self, seed, workdir):
        return [self._input(DEFAULT_SEED, workdir, "timed")]

    def checked_once(self, seed, workdir):
        return [self._input(seed, workdir, "seed")]

    @contextlib.contextmanager
    def session(self):
        """Time each call the CLI makes into `run`, the trace file and the
        auditor; one timer around each call.  With `calibrate` set, it runs
        right before and right after each call, so that each stage of this
        long op has calibration times of its own."""
        originals = {name: getattr(cli, name) for name in self.STAGES}
        sim, stages, cals = self._sim, self._stages, self._cals

        def timed(name, fn):
            def call(*args, **kwargs):
                calibrate = self.calibrate
                outer = time.perf_counter()
                before = calibrate() if calibrate else 0.0
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                spent = time.perf_counter() - start
                if calibrate:
                    cals[name] = (before + calibrate()) / 2
                    self._calibrating_s += time.perf_counter() - outer - spent
                stages[name] = stages.get(name, 0.0) + spent
                if name == "run":
                    sim.append((len(result.events), spent))
                return result
            return call

        for name, fn in originals.items():
            setattr(cli, name, timed(name, fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)

    def op(self, inp):
        self._sim.clear()
        self._stages.clear()
        self._cals.clear()
        self._calibrating_s = 0.0
        run_out, audit_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(run_out):
            rc_run = cli.main(["run", "--scenario", inp.scenario_path,
                               "--out", inp.trace_path])
        with contextlib.redirect_stdout(audit_out):
            rc_audit = cli.main(["audit", "--trace", inp.trace_path])
        events, sim_s = self._sim[0] if self._sim else (0, 0.0)
        note = ""
        if rc_run != 0 or rc_audit != 0:
            note = f"exit codes run={rc_run} audit={rc_audit}"
        else:
            report = json.loads(audit_out.getvalue())
            if report["leader"] != 0:
                note = f"converged to {report['leader']}, not 0"
        calibration = dict(self._cals)
        if "run" in calibration:
            calibration["work_s"] = calibration["run"]
        return Outcome(not note, note, events, sim_s, inp.trace_path,
                       stages=dict(self._stages), calibration=calibration,
                       calibrating_s=self._calibrating_s)

    def fingerprint(self, out):
        return file_sha256(out.output)

    def release(self, out):
        if out.output is not None and os.path.exists(out.output):
            os.remove(out.output)
        out.output = None


# ---------------------------------------------------------------------------
# mc_estimators: the Monte Carlo layer alone
# ---------------------------------------------------------------------------

MC_SIZES = (5, 10, 20, 40)
MC_P = 0.8
STAB_N, STAB_P = 4, 0.9
# a round estimates existence from EXIST_CHUNKS ops of EXIST_TRIALS trials
# per size and stability from STAB_CHUNKS ops of STAB_TRIALS trials per
# mode: short ops, so that a run times each of them many times
EXIST_TRIALS, EXIST_CHUNKS = 4_000, 2
STAB_TRIALS, STAB_CHUNKS = 1_000, 20
# bound on |estimate - exact| in standard errors; a false alarm per check
# is below one in a million
MC_TOLERANCE = 5.0


@dataclass
class ExistenceInput:
    n: int
    seed: int


@dataclass
class StabilityInput:
    seed: int


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def existence_op(inp: ExistenceInput) -> Outcome:
    """Single- and multi-hop existence at one size, on the same graphs."""
    single, single_s = _timed(montecarlo.mc_single_hop, inp.n, MC_P, EXIST_TRIALS, inp.seed)
    multi, multi_s = _timed(montecarlo.mc_multi_hop, inp.n, MC_P, EXIST_TRIALS, inp.seed)
    spent = single_s + multi_s
    exact = montecarlo.closed_form_single_hop(inp.n, MC_P)
    problems = []
    if not single.within(exact, MC_TOLERANCE):
        problems.append(f"single-hop n={inp.n}: {single.value} vs exact {exact}")
    if multi.value < single.value:
        problems.append(f"multi-hop n={inp.n} below single-hop on the same graphs")
    note = "; ".join(problems)
    trials = 2 * EXIST_TRIALS
    return Outcome(not note, note, trials, spent,
                   [inp.n, single.value, single.stderr, multi.value, multi.stderr],
                   family="existence",
                   stages={"single": single_s, "multi": multi_s})


def stability_op(inp: StabilityInput) -> Outcome:
    """Retention of node 0 in both modes at STAB_N, STAB_P."""
    single, single_s = _timed(montecarlo.mc_stability, STAB_N, STAB_P, STAB_TRIALS,
                              inp.seed, Mode.SINGLE_HOP)
    multi, multi_s = _timed(montecarlo.mc_stability, STAB_N, STAB_P, STAB_TRIALS,
                            inp.seed, Mode.MULTI_HOP)
    spent = single_s + multi_s
    q = STAB_P ** (STAB_N - 1)
    problems = []
    if abs(single.mean - q / (1 - q)) > MC_TOLERANCE * single.stderr:
        problems.append(f"single-hop retention {single.mean} vs geometric {q / (1 - q)}")
    if single.censored or multi.censored:
        problems.append("censored stability trials")
    if not multi.mean > single.mean:
        problems.append("multi-hop retention not above single-hop")
    note = "; ".join(problems)
    trials = 2 * STAB_TRIALS
    return Outcome(not note, note, trials, spent,
                   [[e.mean, e.stderr, e.censored] for e in (single, multi)],
                   family="stability",
                   stages={"single": single_s, "multi": multi_s})


class McEstimators(Workload):
    name = "mc_estimators"

    def prepare(self, seed, workdir):
        # on the default seed the first chunks use the c08 seed (1108) and
        # the c09 seed (3)
        base = seed * 1_000_003
        return ([ExistenceInput(n, base + 1108 + c)
                 for c in range(EXIST_CHUNKS) for n in MC_SIZES]
                + [StabilityInput(base + 3 + c) for c in range(STAB_CHUNKS)])

    def op(self, inp):
        if isinstance(inp, ExistenceInput):
            return existence_op(inp)
        return stability_op(inp)

    def fingerprint(self, out):
        blob = json.dumps(out.output, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


WORKLOADS = {w.name: w for w in (PipelineN32, CrashSweep, McEstimators)}
