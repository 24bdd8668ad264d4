"""Behaviour digest: what mpo does, reduced to one sha256.

The corpus is fixed and independent of the benchmark seed: presets at
n = 5, 8 and 16 with crashes, a scenario mixing every channel model with
a per-origin override, a non-complete topology, and a propagation-mode
scenario.  Each contributes the sha256 of its JSONL trace.  The c08
existence estimates and pinned stability means are added as values.  A
change that alters no observable behaviour leaves the digest unchanged.
"""

from __future__ import annotations

import hashlib
import json

from mpo import montecarlo, netsim
from mpo.channels import (
    DeliverProb,
    DropPattern,
    EventuallyTimely,
    FairLossy,
    Lossy,
    StronglyNonTimely,
    Timely,
)
from mpo.core import TimerConfig
from mpo.montecarlo import Mode
from mpo.netsim import GeneralPropagation, Scenario

from .workloads import trace_sha256

# frozen in tests/test_acceptance.py::test_c08_multi_hop_dominance_and_trends
C08_SIZES = (5, 10, 20, 40)
C08_SINGLE = (0.9273, 0.76175, 0.2523, 0.0075)
C08_MULTI = (0.9999, 1.0, 1.0, 1.0)
C08_P, C08_TRIALS, C08_SEED = 0.8, 20_000, 1108
# the c09 parameters at a fiftieth of its trials, to keep the digest cheap
STABILITY = dict(n=4, p=0.9, trials=2_000, seed=3)


def corpus() -> list[tuple[str, Scenario]]:
    ring = 6
    # ring plus chords from 0: strongly connected but far from complete
    adjacency = tuple(
        frozenset({(p + 1) % ring, (p - 1) % ring} | ({2, 3, 4} if p == 0 else set()))
        for p in range(ring)
    )
    return [
        ("preset_n5_crash", netsim.preset_dependable(
            5, 11, horizon=12_000, crash_victims=(3,), crash_steps=(4_000,))),
        ("preset_n8_crash", netsim.preset_dependable(
            8, 21, horizon=12_000, crash_victims=(2, 5), crash_steps=(3_000, 5_000))),
        ("preset_n16_crash", netsim.preset_dependable(
            16, 31, horizon=6_000, crash_victims=(7,), crash_steps=(3_000,))),
        ("mixed_channels", Scenario(
            n=5, horizon=6_000, seed=51,
            timers=TimerConfig(sender_timeout=16, initial_receiver_timeout=24,
                               timeout_increment=2),
            default_channel=Timely(3),
            channels={
                (0, 1): FairLossy(DropPattern(2), 2, 9),
                (1, 0): StronglyNonTimely(burst=4, window_cap=64, delay_min=1,
                                          delay_max=5),
                (2, 3): Lossy(),
                (3, 2): EventuallyTimely(bound=2, unreliable_until=200),
                (4, 0): FairLossy(DeliverProb(0.5), 1, 6),
            },
            origin_channels={1: {(0, 2): Timely(1)}},
            crash_schedule={4: 3_000},
        )),
        ("non_complete_topology", Scenario(
            n=ring, horizon=6_000, seed=61,
            timers=TimerConfig(sender_timeout=32, initial_receiver_timeout=48),
            default_channel=Timely(2), adjacency=adjacency,
        )),
        ("propagation", Scenario(
            n=5, horizon=4_000, seed=71,
            propagation=GeneralPropagation(p_reliable=0.9, p_timely=0.6, bound=4),
        )),
    ]


def behaviour_digest() -> tuple[str, dict[str, object], list[str]]:
    """Returns (digest, its parts, problems); a problem is a c08 constant
    that no longer comes out as frozen."""
    parts: dict[str, object] = {
        name: trace_sha256(netsim.run(scn)) for name, scn in corpus()
    }
    problems = []
    single, multi = [], []
    for n, want_s, want_m in zip(C08_SIZES, C08_SINGLE, C08_MULTI):
        s = montecarlo.mc_single_hop(n, C08_P, C08_TRIALS, C08_SEED).value
        m = montecarlo.mc_multi_hop(n, C08_P, C08_TRIALS, C08_SEED).value
        if abs(s - want_s) > 1e-9 or abs(m - want_m) > 1e-9:
            problems.append(f"c08 n={n}: got ({s}, {m}), frozen ({want_s}, {want_m})")
        single.append(s)
        multi.append(m)
    parts["c08_single"] = single
    parts["c08_multi"] = multi
    for mode in (Mode.SINGLE_HOP, Mode.MULTI_HOP):
        est = montecarlo.mc_stability(STABILITY["n"], STABILITY["p"],
                                      STABILITY["trials"], STABILITY["seed"], mode)
        parts[f"stability_{mode.value}"] = [est.mean, est.stderr, est.censored]
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest(), parts, problems
