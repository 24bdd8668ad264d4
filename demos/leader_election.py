#!/usr/bin/env python3
"""Watch a network elect and keep a leader over hostile channels.

Builds a dependable-conditions scenario (one process owns eventually
timely channels to everyone; everyone has a fair-lossy way back), runs
it, and narrates what the trace shows: the startup scramble in which
every process briefly claims leadership, the collapse onto the
designated process, and the steady heartbeat tail.
"""

from mpo import trace as tr
from mpo.audit import audit_report, packet_budget, summarize
from mpo.netsim import preset_dependable, run

N, SEED = 6, 2024


def main():
    scn = preset_dependable(N, seed=SEED, horizon=30_000)
    print(f"simulating n={N}, horizon={scn.horizon}, seed={SEED}")
    trace = run(scn)

    claims = [ev for ev in trace.events
              if isinstance(ev, tr.Send) and ev.kind == "start_phase"]
    first_claimants = {ev.mid.origin for ev in claims}
    print(f"startup: {len(first_claimants)} processes claimed leadership "
          f"(messages named start_phase)")

    conv = summarize(trace).convergence()
    print(f"converged on process {conv.leader} at step {conv.step}")

    changes = [ev for ev in trace.events if isinstance(ev, tr.LeaderChange)]
    for ev in changes[:12]:
        was = "nobody" if ev.old is None else ev.old
        print(f"  step {ev.step:>6}: process {ev.proc} switched {was} -> {ev.new}")

    report = audit_report(trace)
    print(f"tail (after step {report.cutoff}):")
    print(f"  message origins: {sorted(report.origins_after_cutoff)}")
    print(f"  max packets per message: "
          f"{report.max_packets_per_message_after_cutoff} "
          f"(budget 2(n-1) = {packet_budget(N)})")
    print(f"  channels in use: {report.channels_used_after_cutoff} "
          f"of {N * (N - 1)} - the rotating fan-out duty touches them all")
    print(f"  leader-watch timeouts: {sorted(report.timer_growth.values())}")


if __name__ == "__main__":
    main()
