"""Command-line harness: run scenarios, audit traces, estimate probabilities.

Exit status contract: 0 on success (for `audit`/`demo`: the trace is
converged, message efficient, and packet efficient), 1 when an audit
fails, 2 on usage or input errors.  Argparse checks the syntax of argv;
the library code that uses a value checks it and raises a typed error;
`main` alone turns such an error, or running out of memory, into
`error: ...` and exit 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys

from . import __version__
from .audit import audit_report, packet_budget
from .core import ConfigurationError
from .montecarlo import (
    Mode,
    bitimely_connectivity_bound,
    closed_form_single_hop,
    mc_multi_hop,
    mc_single_hop,
    mc_stability,
    stability_sweep,
)
from .netsim import preset_dependable, run
from .scenario_io import ScenarioError, canonical_json, dump_scenario_file, parse_scenario_file
from .trace import LeaderChange, TraceFormatError, read_trace_file, write_trace_file

EXIT_OK = 0
EXIT_AUDIT_FAIL = 1
EXIT_USAGE = 2


# argparse reports a ValueError from a `type=` converter as
# "invalid <converter's __name__> value: '...'" and exits 2
def _seed(raw: str) -> int:
    return int(raw)


def _grid(kind):
    def parse(raw: str) -> list:
        values = [kind(tok) for tok in raw.split(",") if tok]
        if not values:
            raise argparse.ArgumentTypeError("empty parameter grid")
        return values

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _crash(raw: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    pieces = [piece.partition("@") for piece in raw.split(",")]
    return tuple(int(proc) for proc, _, _ in pieces), tuple(int(step) for _, _, step in pieces)


_seed.__name__ = "integer (--seed or MPO_SEED)"
_crash.__name__ = "PROC@STEP[,PROC@STEP...]"


def cmd_run(args: argparse.Namespace) -> int:
    scn = parse_scenario_file(args.scenario)
    overrides = {"seed": args.seed, "horizon": args.horizon}
    # replace checks the overridden scenario before anything runs
    scn = dataclasses.replace(scn, **{k: v for k, v in overrides.items() if v is not None})
    trace = run(scn)
    write_trace_file(trace, args.out)
    print(f"wrote {len(trace.events)} events to {args.out} "
          f"(fingerprint {scn.fingerprint()})")
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    trace = read_trace_file(args.trace)
    report = audit_report(trace, cutoff=args.cutoff, window=args.window)
    payload = json.dumps(report.to_json_obj(), indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    print(payload)
    ok = report.converged and report.message_efficient and report.packet_efficient
    return EXIT_OK if ok else EXIT_AUDIT_FAIL


def _config_hash(*parts) -> str:
    return hashlib.sha256(canonical_json(parts).encode()).hexdigest()[:12]


def _emit_rows(rows: list[dict], out: str | None, as_json: bool) -> None:
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
    config = _config_hash(args.mode, args.n, args.p, args.trials, args.seed, args.cap)
    rows: list[dict] = []
    if args.mode == "existence":
        table = (("single_hop", mc_single_hop, closed_form_single_hop),
                 ("multi_hop", mc_multi_hop, bitimely_connectivity_bound))
        for n in args.n:
            for p in args.p:
                for mode, estimator, closed_form in table:
                    est = estimator(n, p, args.trials, args.seed)
                    rows.append({
                        "mode": mode, "n": n, "p": p, "trials": args.trials,
                        "estimate": est.value, "stderr": est.stderr,
                        "closed_form": closed_form(n, p), "config": config,
                    })
    else:
        mode = Mode.SINGLE_HOP if args.mode == "stability-single" else Mode.MULTI_HOP
        for n in args.n:
            for p in args.p:
                est = mc_stability(n, p, args.trials, args.seed, mode, cap=args.cap)
                # the single-hop law, infinite (null) at p = 1; multi hop has none
                q = p ** (n - 1)
                rows.append({
                    "mode": args.mode, "n": n, "p": p, "trials": args.trials,
                    "estimate": est.mean, "stderr": est.stderr,
                    "closed_form": q / (1 - q) if mode is Mode.SINGLE_HOP and q < 1 else None,
                    "censored": est.censored, "cap": est.cap,
                    "config": config,
                })
    _emit_rows(rows, args.out, args.json)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    ns = tuple(args.n)
    config = _config_hash("sweep", args.target, ns, args.trials, args.seed, args.cap)
    rows_raw = stability_sweep(args.target, ns, args.trials, args.seed, cap=args.cap)
    rows = [
        {"n": r.n, "p": r.p, "mean": r.mean, "stderr": r.stderr,
         "trials": r.trials, "censored": r.censored, "config": config}
        for r in rows_raw
    ]
    _emit_rows(rows, args.out, args.json)
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    victims, steps = args.crash or ((), ())
    scn = preset_dependable(
        args.n, args.seed, args.leader, horizon=args.horizon,
        crash_victims=victims, crash_steps=steps,
    )
    if args.emit_scenario:
        dump_scenario_file(scn, args.emit_scenario)
    trace = run(scn)
    if args.out:
        write_trace_file(trace, args.out)
    report = audit_report(trace)
    print(f"network: n={args.n} seed={args.seed} horizon={args.horizon} "
          f"designated leader={args.leader}")
    if victims:
        print("crashes: " + ", ".join(f"{v}@{s}" for v, s in zip(victims, steps)))
    if report.converged:
        print(f"converged: leader={report.leader} at step {report.convergence_step}")
        print(f"tail origins (cutoff {report.cutoff}): "
              f"{sorted(report.origins_after_cutoff)}")
        print(f"max packets per tail message: "
              f"{report.max_packets_per_message_after_cutoff} "
              f"(linear budget {packet_budget(args.n)})")
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
    # argparse runs a string default through `type`, so a bad MPO_SEED exits 2 there
    env_seed = os.environ.get("MPO_SEED")
    seed = {"type": _seed, "default": "0" if env_seed is None else env_seed,
            "help": "defaults to MPO_SEED, or else 0"}

    p_run = sub.add_parser("run", help="execute a scenario file, write a trace")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=_seed, default=env_seed,
                       help="overrides the scenario's seed; defaults to MPO_SEED")
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
    p_mc.add_argument("--n", type=_grid(int), required=True, help="comma-separated sizes")
    p_mc.add_argument("--p", type=_grid(float), required=True,
                      help="comma-separated probabilities")
    p_mc.add_argument("--trials", type=int, required=True)
    p_mc.add_argument("--seed", **seed)
    p_mc.add_argument("--cap", type=int, default=100_000)
    p_mc.add_argument("--out", default=None)
    p_mc.add_argument("--json", action="store_true")
    p_mc.set_defaults(func=cmd_mc)

    p_sweep = sub.add_parser(
        "sweep", help="shrinking-p stability sweep at a fixed target level"
    )
    p_sweep.add_argument("--target", type=float, default=3.0)
    p_sweep.add_argument("--n", type=_grid(int), default="8,16,32")
    p_sweep.add_argument("--trials", type=int, default=2000)
    p_sweep.add_argument("--seed", **seed)
    p_sweep.add_argument("--cap", type=int, default=10_000)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_demo = sub.add_parser("demo", help="build a favorable scenario, run, audit")
    p_demo.add_argument("--n", type=int, required=True)
    p_demo.add_argument("--seed", **seed)
    p_demo.add_argument("--leader", type=int, default=0)
    p_demo.add_argument("--horizon", type=int, default=50_000)
    p_demo.add_argument("--crash", type=_crash, default=None, help="PROC@STEP[,PROC@STEP...]")
    p_demo.add_argument("--out", default=None, help="also write the trace here")
    p_demo.add_argument("--emit-scenario", default=None,
                        help="also write the generated scenario config here")
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # an OSError: a closed pipe downstream is not an input error
        return EXIT_OK
    except (ConfigurationError, ScenarioError, TraceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a size too large for this machine, not a failed audit
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
