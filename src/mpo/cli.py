"""Command-line harness: run scenarios, audit traces, estimate probabilities.

Exit status contract: 0 on success (for `audit`/`demo`: the trace is
converged, message efficient, and packet efficient), 1 when an audit
fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from typing import NoReturn

from . import __version__
from .audit import audit_report
from .montecarlo import (
    Mode,
    bitimely_connectivity_bound,
    closed_form_single_hop,
    mc_multi_hop,
    mc_single_hop,
    mc_stability,
    stability_sweep,
)
from .netsim import Scenario, ScenarioError, preset_dependable, run, validate_scenario
from .scenario_io import dump_scenario_file, parse_scenario_file
from .trace import LeaderChange, TraceFormatError, read_trace_file, write_trace_file

EXIT_OK = 0
EXIT_AUDIT_FAIL = 1
EXIT_USAGE = 2


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _default_seed(args_seed: int | None) -> int:
    if args_seed is not None:
        return args_seed
    env = os.environ.get("MPO_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            _usage_error(f"MPO_SEED must be an integer, got {env!r}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    try:
        scn = parse_scenario_file(args.scenario)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioError as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None or "MPO_SEED" in os.environ:
        scn.seed = _default_seed(args.seed)
    if args.horizon is not None:
        scn.horizon = args.horizon
    validate_scenario(scn)
    trace = run(scn)
    write_trace_file(trace, args.out)
    print(f"wrote {len(trace.events)} events to {args.out} "
          f"(fingerprint {trace.fingerprint})")
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    try:
        trace = read_trace_file(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TraceFormatError as exc:
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    scn = Scenario.from_dict(trace.scenario)  # a ScenarioError exits 2 through main
    validate_scenario(scn)
    for name, values in (("leaders", trace.final_leaders), ("crashed", trace.crashed)):
        if len(values) != scn.n:
            print(f"error: {args.trace}: final {name} must list n={scn.n} processes",
                  file=sys.stderr)
            return EXIT_USAGE
    trace.scenario = scn.to_dict()
    report = audit_report(trace, cutoff=args.cutoff, window=args.window)
    payload = json.dumps(report.to_json_obj(), indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    print(payload)
    ok = report.converged and report.message_efficient and report.packet_efficient
    return EXIT_OK if ok else EXIT_AUDIT_FAIL


def _parse_grid(raw: str, kind):
    try:
        return [kind(tok) for tok in raw.split(",") if tok]
    except ValueError:
        _usage_error(f"bad grid value {raw!r}")


def _config_hash(*parts) -> str:
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _emit_rows(rows: list[dict], out: str | None, as_json: bool) -> None:
    if not rows:
        return
    if as_json:
        payload = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    else:
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        payload = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    sys.stdout.write(payload)


def cmd_mc(args: argparse.Namespace) -> int:
    if args.trials < 1:
        print("error: --trials must be positive", file=sys.stderr)
        return EXIT_USAGE
    ns = _parse_grid(args.n, int)
    ps = _parse_grid(args.p, float)
    if not ns or not ps:
        print("error: empty parameter grid", file=sys.stderr)
        return EXIT_USAGE
    seed = _default_seed(args.seed)
    config = _config_hash(args.mode, ns, ps, args.trials, seed, args.cap)
    rows: list[dict] = []
    try:
        if args.mode == "existence":
            for n in ns:
                for p in ps:
                    single = mc_single_hop(n, p, args.trials, seed)
                    multi = mc_multi_hop(n, p, args.trials, seed)
                    rows.append({
                        "mode": "single_hop", "n": n, "p": p, "trials": args.trials,
                        "estimate": single.value, "stderr": single.stderr,
                        "closed_form": closed_form_single_hop(n, p),
                        "config": config,
                    })
                    rows.append({
                        "mode": "multi_hop", "n": n, "p": p, "trials": args.trials,
                        "estimate": multi.value, "stderr": multi.stderr,
                        "closed_form": bitimely_connectivity_bound(n, p),
                        "config": config,
                    })
        else:
            mode = Mode.SINGLE_HOP if args.mode == "stability-single" else Mode.MULTI_HOP
            for n in ns:
                for p in ps:
                    est = mc_stability(n, p, args.trials, seed, mode, cap=args.cap)
                    q = p ** (n - 1)
                    rows.append({
                        "mode": args.mode, "n": n, "p": p, "trials": args.trials,
                        "estimate": est.mean, "stderr": est.stderr,
                        "closed_form": q / (1 - q) if q < 1 else float("inf"),
                        "censored": est.censored, "cap": est.cap,
                        "config": config,
                    })
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit_rows(rows, args.out, args.json)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.trials < 1 or args.target <= 0:
        print("error: --trials and --target must be positive", file=sys.stderr)
        return EXIT_USAGE
    ns = tuple(_parse_grid(args.n, int))
    seed = _default_seed(args.seed)
    config = _config_hash("sweep", args.target, ns, args.trials, seed, args.cap)
    rows_raw = stability_sweep(args.target, ns, args.trials, seed, cap=args.cap)
    rows = [
        {"n": r.n, "p": r.p, "mean": r.mean, "stderr": r.stderr,
         "trials": r.trials, "censored": r.censored, "config": config}
        for r in rows_raw
    ]
    _emit_rows(rows, args.out, args.json)
    return EXIT_OK


def _parse_crash(raw: str | None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if raw is None:
        return (), ()
    victims, steps = [], []
    for piece in raw.split(","):
        proc, _, step = piece.partition("@")
        try:
            victims.append(int(proc))
            steps.append(int(step))
        except ValueError:
            _usage_error(f"bad --crash {piece!r}; expected PROC@STEP")
    return tuple(victims), tuple(steps)


def cmd_demo(args: argparse.Namespace) -> int:
    seed = _default_seed(args.seed)
    victims, steps = _parse_crash(args.crash)
    scn = preset_dependable(
        args.n, seed, args.leader, horizon=args.horizon,
        crash_victims=victims, crash_steps=steps,
    )
    validate_scenario(scn)
    if args.emit_scenario:
        dump_scenario_file(scn, args.emit_scenario)
    trace = run(scn)
    if args.out:
        write_trace_file(trace, args.out)
    report = audit_report(trace)
    print(f"network: n={args.n} seed={seed} horizon={args.horizon} "
          f"designated leader={args.leader}")
    if victims:
        print("crashes: " + ", ".join(f"{v}@{s}" for v, s in zip(victims, steps)))
    if report.converged:
        print(f"converged: leader={report.leader} at step {report.convergence_step}")
        print(f"tail origins (cutoff {report.cutoff}): "
              f"{sorted(report.origins_after_cutoff)}")
        print(f"max packets per tail message: "
              f"{report.max_packets_per_message_after_cutoff} "
              f"(linear budget {2 * (args.n - 1)})")
        print(f"channels carrying tail traffic: {report.channels_used_after_cutoff} "
              f"of {args.n * (args.n - 1)}")
        if report.timer_growth:
            worst = max(report.timer_growth.values())
            print(f"largest leader-watch timeout: {worst}")
    else:
        finals = {p: trace.final_leaders[p] for p in trace.correct_processes()}
        print(f"did not converge; final outputs of correct processes: {finals}")
        changes = [ev for ev in trace.events if isinstance(ev, LeaderChange)]
        if victims and changes:
            post = [ev for ev in changes if ev.step > min(steps)]
            print(f"leader changes after first crash: {len(post)}")
    ok = report.converged and report.message_efficient and report.packet_efficient
    return EXIT_OK if ok else EXIT_AUDIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpo",
        description="Multi-hop eventual leader election: simulate, audit, estimate.",
    )
    parser.add_argument("--version", action="version", version=f"mpo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file, write a trace")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--horizon", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_audit = sub.add_parser("audit", help="analyze a trace file")
    p_audit.add_argument("--trace", required=True)
    p_audit.add_argument("--report", default=None)
    p_audit.add_argument("--cutoff", type=int, default=None)
    p_audit.add_argument("--window", type=int, default=None)
    p_audit.set_defaults(func=cmd_audit)

    p_mc = sub.add_parser("mc", help="Monte Carlo estimates vs closed forms")
    p_mc.add_argument("--mode", required=True,
                      choices=("existence", "stability-single", "stability-multi"))
    p_mc.add_argument("--n", required=True, help="comma-separated sizes")
    p_mc.add_argument("--p", required=True, help="comma-separated probabilities")
    p_mc.add_argument("--trials", type=int, required=True)
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.add_argument("--cap", type=int, default=100_000)
    p_mc.add_argument("--out", default=None)
    p_mc.add_argument("--json", action="store_true")
    p_mc.set_defaults(func=cmd_mc)

    p_sweep = sub.add_parser(
        "sweep", help="shrinking-p stability sweep at a fixed target level"
    )
    p_sweep.add_argument("--target", type=float, default=3.0)
    p_sweep.add_argument("--n", default="8,16,32")
    p_sweep.add_argument("--trials", type=int, default=2000)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--cap", type=int, default=10_000)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_demo = sub.add_parser("demo", help="build a favorable scenario, run, audit")
    p_demo.add_argument("--n", type=int, required=True)
    p_demo.add_argument("--seed", type=int, default=None)
    p_demo.add_argument("--leader", type=int, default=0)
    p_demo.add_argument("--horizon", type=int, default=50_000)
    p_demo.add_argument("--crash", default=None, help="PROC@STEP[,PROC@STEP...]")
    p_demo.add_argument("--out", default=None, help="also write the trace here")
    p_demo.add_argument("--emit-scenario", default=None,
                        help="also write the generated scenario config here")
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except BrokenPipeError:
        return EXIT_OK
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
