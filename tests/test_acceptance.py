"""Acceptance suite: every release-gating property at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS line per
criterion.  The convergence sweep (criteria 2-6) simulates 100 seeded
scenarios for each network size in SWEEP_SIZES at a 50,000-step horizon,
with up to floor(n/3) scheduled crashes of non-leader processes, and is
shared by those criteria through a session fixture.
"""

import random
import time
from dataclasses import dataclass

import pytest

from mpo.arborescence import (
    brute_force_min_arborescence,
    min_arborescence,
)
from mpo.audit import default_cutoff, summarize
from mpo.montecarlo import (
    Mode,
    closed_form_single_hop,
    exhaustive_existence,
    mc_multi_hop,
    mc_single_hop,
    mc_stability,
)
from mpo.netsim import preset_dependable, run
from mpo.trace import write_trace_file

SWEEP_SIZES = (3, 4, 6, 8)
SWEEP_SEEDS = 100
HORIZON = 50_000
SENDER_TIMEOUT = 64
BOUND = 2


def _ok(msg: str) -> None:
    print(f"PASS {msg}")


# ---------------------------------------------------------------------------
# Criterion 1: exact oracle equivalence of the arborescence solver
# ---------------------------------------------------------------------------

def test_c01_arborescence_oracle_equivalence():
    started = time.time()
    rng = random.Random(0xC1)
    for case in range(500):
        n = rng.randint(2, 5)
        root = rng.randrange(n)
        w = [[rng.randint(0, 9) if u != v else 0 for v in range(n)] for u in range(n)]
        fast = min_arborescence(w, root)
        slow = brute_force_min_arborescence(w, root)
        assert fast.weight == slow.weight, f"case {case}: weight mismatch"
        assert fast.parent_of == slow.parent_of, f"case {case}: edge set mismatch"
    elapsed = time.time() - started
    assert elapsed < 10.0, f"criterion 1 budget exceeded: {elapsed:.1f}s"
    _ok(f"criterion 1: 500 instances, solver == oracle exactly ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criteria 2-6 share one sweep of simulated runs
# ---------------------------------------------------------------------------

@dataclass
class RunSummary:
    n: int
    seed: int
    crashes: dict
    converged: bool
    leader: int | None
    convergence_step: int | None
    cutoff: int
    tail_origins: set
    tail_packets_by_kind: dict
    tail_channels: int
    tail_length: int
    timer_finals: dict
    timer_stable: bool


def _sweep_case(n: int, seed: int) -> RunSummary:
    rng = random.Random((n << 20) ^ seed ^ 0xACCE)
    count = rng.randint(0, n // 3)
    victims = tuple(sorted(rng.sample(range(1, n), count)))
    steps = tuple(
        sorted(rng.randint(HORIZON // 10, HORIZON // 2) for _ in victims)
    )
    scn = preset_dependable(
        n, seed, 0,
        horizon=HORIZON,
        crash_victims=victims,
        crash_steps=steps,
        sender_timeout=SENDER_TIMEOUT,
        bound=BOUND,
    )
    trace = run(scn)
    summary = summarize(trace)
    conv = summary.convergence()
    if conv is None:
        return RunSummary(n, seed, dict(zip(victims, steps)), False, None, None,
                          0, set(), {}, 0, 0, {}, False)
    cutoff = default_cutoff(trace, conv.step)
    timer_rep = summary.timer_bound(0)
    return RunSummary(
        n=n,
        seed=seed,
        crashes=dict(zip(victims, steps)),
        converged=True,
        leader=conv.leader,
        convergence_step=conv.step,
        cutoff=cutoff,
        tail_origins=summary.origins_after(cutoff),
        tail_packets_by_kind=summary.packets_after(cutoff),
        tail_channels=summary.channels_after(cutoff),
        tail_length=trace.horizon - cutoff,
        timer_finals=timer_rep.final_timeouts,
        timer_stable=timer_rep.stabilized,
    )


@pytest.fixture(scope="session")
def sweep():
    started = time.time()
    summaries = [
        _sweep_case(n, seed) for n in SWEEP_SIZES for seed in range(SWEEP_SEEDS)
    ]
    print(f"\n[sweep] {len(summaries)} runs of {HORIZON} steps "
          f"in {time.time() - started:.0f}s")
    return summaries


def test_c02_convergence_to_designated_leader(sweep):
    bad = [s for s in sweep if not (s.converged and s.leader == 0)]
    assert not bad, f"non-converged runs: {[(s.n, s.seed) for s in bad[:5]]}"
    assert len(sweep) == len(SWEEP_SIZES) * SWEEP_SEEDS
    crashed_runs = sum(1 for s in sweep if s.crashes)
    _ok(f"criterion 2: {len(sweep)}/{len(sweep)} runs converged to the designated "
        f"leader ({crashed_runs} runs included crashes)")


def test_c03_message_efficiency(sweep):
    bad = [s for s in sweep if s.tail_origins != {0}]
    assert not bad, (
        f"tail origins beyond the leader: "
        f"{[(s.n, s.seed, sorted(s.tail_origins)) for s in bad[:5]]}"
    )
    _ok("criterion 3: after cutoff, every message originates at the leader")


def test_c04_packet_efficiency(sweep):
    for s in sweep:
        assert set(s.tail_packets_by_kind) <= {"alive"}, (
            f"(n={s.n}, seed={s.seed}): non-heartbeat tail kinds "
            f"{sorted(s.tail_packets_by_kind)}"
        )
        budget = 2 * (s.n - 1)
        worst = s.tail_packets_by_kind.get("alive", 0)
        assert worst <= budget, (
            f"(n={s.n}, seed={s.seed}): heartbeat used {worst} > {budget} packets"
        )
    _ok("criterion 4: every tail heartbeat fits the 2(n-1) packet budget")


def test_c05_channel_usage_covers_all_pairs(sweep):
    for s in sweep:
        assert s.tail_length >= s.n * SENDER_TIMEOUT
    crash_free = [s for s in sweep if not s.crashes]
    by_n = {n: [s for s in crash_free if s.n == n] for n in SWEEP_SIZES}
    for n, subset in by_n.items():
        assert subset, f"no crash-free runs at n={n}"
        for s in subset:
            assert s.tail_channels == n * (n - 1), (
                f"(n={n}, seed={s.seed}): {s.tail_channels} != {n * (n - 1)}"
            )
    # a crashed process takes its fan-out turn only until its crash step, so
    # runs with crashes land between live-only and full coverage
    for s in sweep:
        if s.crashes:
            live = s.n - len(s.crashes)
            assert live * (s.n - 1) <= s.tail_channels <= s.n * (s.n - 1)
    _ok("criterion 5: shout rotation touches exactly n(n-1) channels "
        f"({sum(len(v) for v in by_n.values())} crash-free runs)")


def test_c06_timer_bound(sweep):
    initial = {n: SENDER_TIMEOUT + BOUND * (n - 1) for n in SWEEP_SIZES}
    for s in sweep:
        assert s.timer_stable, f"(n={s.n}, seed={s.seed}): timer still growing"
        limit = max(initial[s.n], SENDER_TIMEOUT + BOUND * (s.n - 1) + 1)
        for proc, final in s.timer_finals.items():
            assert final <= limit, (
                f"(n={s.n}, seed={s.seed}): process {proc} timeout {final} > {limit}"
            )
    _ok("criterion 6: leader-watch timeouts stop growing within "
        "max(initial, period + bound*(n-1) + increment)")


# ---------------------------------------------------------------------------
# Criteria 7-9: random-graph estimates vs closed forms
# ---------------------------------------------------------------------------

def test_c07_single_hop_existence_against_closed_form():
    started = time.time()
    est = mc_single_hop(20, 0.8, 100_000, seed=7)
    target = closed_form_single_hop(20, 0.8)
    assert est.within(target), f"{est.value} vs {target} (stderr {est.stderr})"
    for n in (2, 3, 4):
        exact = exhaustive_existence(n, 0.8, Mode.SINGLE_HOP)
        assert abs(exact - closed_form_single_hop(n, 0.8)) < 1e-9
        small = mc_single_hop(n, 0.8, 20_000, seed=7)
        assert small.within(exact)
    elapsed = time.time() - started
    assert elapsed < 30.0, f"criterion 7 budget exceeded: {elapsed:.1f}s"
    _ok(f"criterion 7: single-hop estimate within 4 stderr of the exact form "
        f"({elapsed:.1f}s)")


def test_c08_multi_hop_dominance_and_trends():
    trials, seed, p = 20_000, 1108, 0.8
    sizes = (5, 10, 20, 40)
    single = [mc_single_hop(n, p, trials, seed) for n in sizes]
    multi = [mc_multi_hop(n, p, trials, seed) for n in sizes]

    single_vals = [e.value for e in single]
    multi_vals = [e.value for e in multi]
    assert all(a >= b for a, b in zip(single_vals, single_vals[1:])), single_vals
    assert all(a <= b for a, b in zip(multi_vals, multi_vals[1:])), multi_vals
    assert multi_vals[-1] >= 0.99
    assert single_vals[-1] <= 0.30
    for m, s in zip(multi_vals, single_vals):
        assert m >= s  # same sampled graphs: the witness node carries over

    # frozen from the pinning run at these exact parameters
    expected_single = [0.9273, 0.76175, 0.2523, 0.0075]
    expected_multi = [0.9999, 1.0, 1.0, 1.0]
    for got, want in zip(single_vals, expected_single):
        assert got == pytest.approx(want, abs=1e-9)
    for got, want in zip(multi_vals, expected_multi):
        assert got == pytest.approx(want, abs=1e-9)
    _ok("criterion 8: multi-hop existence dominates and trends to 1, "
        "single-hop decays below 0.3")


def test_c09_stability_geometric_law():
    n, p, trials = 4, 0.9, 100_000
    q = p ** (n - 1)
    single = mc_stability(n, p, trials, seed=3, mode=Mode.SINGLE_HOP)
    assert single.censored == 0
    target = q / (1 - q)
    assert abs(single.mean - target) <= 4 * single.stderr, (
        f"{single.mean} vs {target} (stderr {single.stderr})"
    )
    multi = mc_stability(n, p, trials, seed=3, mode=Mode.MULTI_HOP)
    assert multi.censored == 0
    assert multi.mean > single.mean
    _ok(f"criterion 9: retention mean {single.mean:.3f} matches geometric "
        f"{target:.3f}; multi-hop mean {multi.mean:.1f} strictly larger")


# ---------------------------------------------------------------------------
# Criterion 10: byte-identical traces
# ---------------------------------------------------------------------------

def test_c10_deterministic_trace_files(tmp_path):
    scn = preset_dependable(5, seed=11, horizon=12_000,
                            crash_victims=(3,), crash_steps=(4_000,))
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        write_trace_file(run(scn), str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    _ok("criterion 10: same scenario and seed give byte-identical trace files")
