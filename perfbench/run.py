"""Benchmark of the mpo toolkit: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload crash_sweep --seed 1 --seconds 30 --trace 0

The workload runs as a closed loop with one client for about `--seconds`
seconds.  It repeats its round, a fixed list of ops made from the seed,
times each op against the calibration loop (see `calibration.py`), and
checks every op's output.  With
`--trace 0` nothing is wrapped and the end-to-end metrics are reported;
with `--trace 1` each round runs once plainly and once under the tracer,
and the per-layer metrics are reported.  The last line of standard
output is the JSON result; the lines before it are a readable report.
Exit status is 0 when a result was printed (its `correct` field says
whether every check passed) and 2 on a usage error or when the mpo
sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
PINS = os.path.join(BENCH_DIR, "pins.json")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_p50_s", "s"),
    ("verdict_p90_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build the workload's inputs in DIR, report readiness, exit
    parser.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, when numpy's bundled OpenBLAS is found."""
    import ctypes
    import glob

    import numpy

    libs_dir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git(*args: str) -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def probe_setup(args) -> int:
    from perfbench.workloads import WORKLOADS

    WORKLOADS[args.workload]().prepare(args.seed, args.probe_setup)
    print(f"ready {time.monotonic()!r}")
    return 0


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to the point where it
    would start the first timed op (imports, inputs, scenario files).

    These are reported as measured: scaled by the calibration loops next to
    them, they spread more from run to run, not less."""
    samples = []
    for k in range(SETUP_PROBES):
        workdir = os.path.join(WORK, f"probe-{os.getpid()}-{k}")
        os.makedirs(workdir, exist_ok=True)
        try:
            start = time.monotonic()
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                 "--seed", str(args.seed), "--probe-setup", workdir],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        lines = done.stdout.split()
        if done.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(lines[1]) - start)
    return samples


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Tally:
    """Ops and checks attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(what)


def _round_fingerprint(fingerprints: list[str]) -> str:
    return hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()


def _keep_going(start: float, seconds: float, rounds: int) -> bool:
    # start another round only if it should end within half a round of the deadline
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds < seconds


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _low_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def plain_run(wl, inputs, seconds, tally, want_round0, calibrate):
    """Repeat the round until the time is up, and time every op at the
    reference speed.

    `calibrate` (a `Calibrator`) runs before the first op and after every
    op, so each op has a calibration time right before it and one right
    after it.  Each time the op takes is divided by the mean of those two;
    the op's time at the reference speed is the low quartile of these
    ratios over the run, times CAL_REF_S.  That is done for each stage of the op
    (see `Outcome.stages`), the part of its wall time outside them
    included, and for its time inside the measured calls (`work_s`); the
    op's time is the sum of its stages'.  A stage the op calibrated itself
    is divided by its own calibration times instead.  The best times as
    measured are kept too, for the report.
    """
    from perfbench.calibration import CAL_REF_S

    ratios: list[dict[str, list[float]]] = [{} for _ in inputs]
    best: list[dict[str, float]] = [{} for _ in inputs]
    work = [0] * len(inputs)
    families = [""] * len(inputs)
    cals: list[float] = []
    round0 = None
    start = time.perf_counter()
    cal_before = calibrate()
    wl.calibrate = calibrate
    rounds = 0
    while True:
        prints = []
        for i, inp in enumerate(inputs):
            t0 = time.perf_counter()
            out = wl.op(inp)
            wall = time.perf_counter() - t0
            cal_after = calibrate()
            cal = (cal_before + cal_after) / 2
            cals.append(cal_after)
            cal_before = cal_after
            tally.record(out.ok, f"round {rounds} op {i}: {out.note}")
            times = dict(out.stages,
                         rest=wall - out.calibrating_s - sum(out.stages.values()))
            times["work_s"] = out.work_s
            for key, value in times.items():
                ratios[i].setdefault(key, []).append(value / out.calibration.get(key, cal))
                best[i][key] = min(best[i].get(key, math.inf), value)
            work[i] = out.work
            families[i] = out.family
            if rounds == 0 and want_round0:
                prints.append(wl.fingerprint(out))
            wl.release(out)
        if rounds == 0 and want_round0:
            round0 = _round_fingerprint(prints)
        rounds += 1
        if not _keep_going(start, seconds, rounds):
            break
    wl.calibrate = None
    at_ref = [{key: _low_quartile(values) * CAL_REF_S for key, values in op.items()}
              for op in ratios]
    op_s = [sum(v for key, v in op.items() if key != "work_s") for op in at_ref]
    by_family: dict[str, list[float]] = {}
    for family, op, n in zip(families, at_ref, work):
        if family:
            acc = by_family.setdefault(family, [0.0, 0.0])
            acc[0] += n
            acc[1] += op["work_s"]
    return {"op_s": op_s, "rounds": rounds, "work": sum(work),
            "work_s": sum(op["work_s"] for op in at_ref), "families": by_family,
            "measured_s": sum(sum(v for key, v in op.items() if key != "work_s")
                              for op in best),
            "cal_s": statistics.median(cals), "round0": round0,
            "rss_mb": _maxrss_kib() / 1024}


def traced_run(wl, inputs, seconds, tally, want_round0, spans_path):
    """The round plainly, then under the tracer, until the time is up."""
    from perfbench.tracing import PER_LAYER_METRICS, Tracer

    tracer = Tracer()
    plain_s = traced_s = 0.0
    plain_prints: list[str] = []
    op_id = 0
    start = time.perf_counter()
    rounds = 0
    while True:
        for i, inp in enumerate(inputs):
            t0 = time.perf_counter()
            out = wl.op(inp)
            plain_s += time.perf_counter() - t0
            tally.record(out.ok, f"round {rounds} op {i}: {out.note}")
            if rounds == 0:
                plain_prints.append(wl.fingerprint(out))
            wl.release(out)
        with tracer:
            for i, inp in enumerate(inputs):
                t0 = time.perf_counter()
                with tracer.span("op", op=op_id):
                    out = wl.op(inp)
                traced_s += time.perf_counter() - t0
                op_id += 1
                tally.record(out.ok, f"traced round {rounds} op {i}: {out.note}")
                tally.record(wl.fingerprint(out) == plain_prints[i],
                             f"traced round {rounds} op {i}: output differs from untraced")
                wl.release(out)
        rounds += 1
        if not _keep_going(start, seconds, rounds):
            break
    tally.record(tracer.restored(), "a patched attribute was not restored")
    for what, ok in tracer.cross_checks():
        tally.record(ok, f"cross-check failed: {what}")
    totals = tracer.layer_metrics()
    metrics = {}
    for name, unit in PER_LAYER_METRICS:
        if name == "tracing_overhead_ratio":
            value = traced_s / plain_s
        else:
            value = totals[name]
            if unit in ("s", "count", "bytes"):
                value /= rounds  # per round
        metrics[name] = {"value": value, "unit": unit}
    tracer.write_spans(spans_path)
    round0 = _round_fingerprint(plain_prints) if want_round0 else None
    return metrics, rounds, round0


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularised incomplete beta function I_x(a, b), by Lentz's continued
    fraction (Numerical Recipes, betai/betacf)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return front * f


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all the
    order statistics, with weights from Beta(q(n+1), (1-q)(n+1)).  It moves
    less with the noise in any one value than the sample quantile, which
    rests on one or two of them."""
    n = len(values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], sorted(values)))


def summarise_plain(raw, setup):
    ops = raw["op_s"]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(ops),
        "verdict_p50_s": harrell_davis(ops, 0.5),
        "verdict_p90_s": harrell_davis(ops, 0.9),
        "work_per_s": raw["work"] / raw["work_s"],
        "peak_rss_mb": raw["rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def report_plain(wl, raw, setup) -> list[str]:
    from perfbench.calibration import CAL_REF_S

    lines = [f"ops per round {len(raw['op_s'])}, rounds {raw['rounds']}, "
             f"set-up probes {len(setup)}",
             f"calibration median {raw['cal_s'] * 1e3:.4f} ms, reference "
             f"{CAL_REF_S * 1e3:g} ms; op times below are at the reference speed",
             f"as measured: sum of the ops' best times {raw['measured_s']:.6g} s"]
    for family, (n, spent) in raw["families"].items():
        lines.append(f"mc_{family}_trials_per_s {n / spent:.6g} 1/s")
    if not raw["families"]:
        lines.append(f"sim_events_per_s {raw['work'] / raw['work_s']:.6g} 1/s "
                     f"({raw['work']:.0f} events per round)")
    return lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mpo", "__init__.py")):
        print(f"perfbench: no mpo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.calibration import Calibrator
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_setup(args)

    setup = measure_setup(args) if not args.trace else []
    wl = WORKLOADS[args.workload]()
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    pinned_seed = args.seed == DEFAULT_SEED
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
             f"seconds={args.seconds:g}",
             "env " + json.dumps(environment(args.seed), sort_keys=True)]
    try:
        inputs = wl.prepare(args.seed, workdir)
        with wl.session():
            if args.trace:
                metrics, done_rounds, round0 = traced_run(
                    wl, inputs, args.seconds, tally, pinned_seed,
                    os.path.join(WORK, f"spans-{args.workload}.tsv"))
                lines.append(f"rounds {done_rounds} untraced + {done_rounds} traced")
            else:
                with Calibrator() as calibrate:
                    raw = plain_run(wl, inputs, args.seconds, tally, pinned_seed,
                                    calibrate)
                metrics = summarise_plain(raw, setup)
                round0 = raw["round0"]
                lines += report_plain(wl, raw, setup)
            for inp in wl.checked_once(args.seed, workdir):
                out = wl.op(inp)
                tally.record(out.ok, f"untimed op on the seed's own input: {out.note}")
                wl.release(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    from perfbench.digest import behaviour_digest

    digest, _parts, problems = behaviour_digest()
    for problem in problems:
        tally.record(False, problem)
    tally.record(digest == pins["digest"], "behaviour digest differs from the pin")
    lines.append(f"digest {digest} (pinned {pins['digest']})")
    if pinned_seed:
        want = pins["round0"].get(args.workload)
        tally.record(round0 == want, "round 0 outputs differ from the pin")
        lines.append(f"round0 {round0} (pinned {want})")
    else:
        lines.append("round0 pins skipped: seed is not the pinned default")
    lines.append(f"ops_failed_ratio {tally.failed / tally.attempted:.6g} "
                 f"({tally.failed}/{tally.attempted})")
    lines += [f"failed: {reason}" for reason in tally.reasons]
    lines += [f"metric {name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
