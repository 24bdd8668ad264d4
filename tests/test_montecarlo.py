import math
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpo import montecarlo
from mpo.core import ConfigurationError
from mpo.montecarlo import (
    _BATCH_CELLS,
    Estimate,
    Mode,
    _has_multi_hop_leader,
    _node_zero_reaches_all,
    _node_zero_table,
    _reachability,
    _reaches_all_from_0,
    bitimely_connectivity_bound,
    closed_form_single_hop,
    exhaustive_existence,
    mc_multi_hop,
    mc_single_hop,
    mc_stability,
    stability_regime_probability,
    stability_sweep,
)


class TestClosedForms:
    def test_certain_and_impossible(self):
        assert closed_form_single_hop(7, 1.0) == 1.0
        assert closed_form_single_hop(7, 0.0) == 0.0
        assert bitimely_connectivity_bound(7, 1.0) == 1.0

    def test_direct_evaluation(self):
        assert closed_form_single_hop(20, 0.8) == pytest.approx(
            1 - (1 - 0.8 ** 19) ** 20
        )
        assert bitimely_connectivity_bound(30, 0.5) == pytest.approx(
            1 - 30 * 0.75 ** 29
        )

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            closed_form_single_hop(1, 0.5)
        with pytest.raises(ValueError):
            closed_form_single_hop(3, 1.5)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        p=st.floats(min_value=0.0, max_value=1.0 - 1e-9),
        dp=st.floats(min_value=1e-6, max_value=0.5),
    )
    def test_monotone_in_p(self, n, p, dp):
        hi = min(1.0, p + dp)
        assert closed_form_single_hop(n, p) <= closed_form_single_hop(n, hi) + 1e-12

    def test_decreasing_in_n_for_large_n(self):
        vals = [closed_form_single_hop(n, 0.8) for n in (5, 10, 20, 40)]
        assert vals == sorted(vals, reverse=True)

    def test_bitimely_bound_limits_to_one(self):
        vals = [bitimely_connectivity_bound(n, 0.5) for n in (30, 60, 120)]
        assert vals == sorted(vals)
        assert vals[-1] > 0.999


class TestExhaustiveOracle:
    def test_closed_form_is_exact_small_n(self):
        for n in (2, 3, 4):
            for p in (0.2, 0.5, 0.8):
                exact = exhaustive_existence(n, p, Mode.SINGLE_HOP)
                assert abs(exact - closed_form_single_hop(n, p)) < 1e-9

    def test_multi_dominates_single_exactly(self):
        for n in (2, 3, 4):
            for p in (0.3, 0.7):
                multi = exhaustive_existence(n, p, Mode.MULTI_HOP)
                single = exhaustive_existence(n, p, Mode.SINGLE_HOP)
                assert multi >= single

    def test_n2_both_modes_agree(self):
        # with two processes every path is direct
        for p in (0.25, 0.6):
            assert exhaustive_existence(2, p, Mode.MULTI_HOP) == pytest.approx(
                exhaustive_existence(2, p, Mode.SINGLE_HOP)
            )

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            exhaustive_existence(5, 0.5, Mode.SINGLE_HOP)

    def test_refuses_the_bitimely_mode(self):
        # there is no bitimely oracle, and the mode must not pass as multi-hop
        with pytest.raises(ConfigurationError, match="BITIMELY"):
            exhaustive_existence(3, 0.5, Mode.BITIMELY)

    @pytest.mark.parametrize("n, p, mode", [
        (1, 0.5, Mode.SINGLE_HOP),    # a network the estimators reject
        (3.0, 0.5, Mode.SINGLE_HOP),  # not an int
        (3, 1.5, Mode.SINGLE_HOP),    # not a probability
        (3, 0.5, "multi_hop"),        # a mode's value string, not the mode
    ])
    def test_checks_its_arguments_as_the_estimators_do(self, n, p, mode):
        with pytest.raises(ConfigurationError):
            exhaustive_existence(n, p, mode)

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_matches_a_loop_over_every_graph(self, n):
        # graph by graph, judged by BFS and summed in enumeration order; the
        # oracle sums in another order, so 4,096 float64 terms may differ in
        # their last bits
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        graphs = []
        for bits in product((False, True), repeat=len(pairs)):
            adj = [[False] * n for _ in range(n)]
            for (u, v), present in zip(pairs, bits):
                adj[u][v] = present
            single = any(all(adj[u][v] for v in range(n) if v != u) for u in range(n))
            multi = any(_bfs_reaches_all(adj, u) for u in range(n))
            graphs.append((bits, single, multi))
        for p in (0.0, 0.1, 0.3, 0.8, 1.0):
            weights = [math.prod(p if b else 1.0 - p for b in bits) for bits, _, _ in graphs]
            for mode, column in ((Mode.SINGLE_HOP, 1), (Mode.MULTI_HOP, 2)):
                loop = sum(w for w, g in zip(weights, graphs) if g[column])
                assert exhaustive_existence(n, p, mode) == pytest.approx(loop, abs=1e-12)

    @pytest.mark.parametrize("n, roots", [(2, 3), (3, 51), (4, 3614)])
    def test_multi_hop_counts_graphs_with_a_root_at_one_half(self, n, roots):
        # at p = 1/2 every graph weighs exactly 2**-m, so the probability is
        # the number of graphs on n nodes in which some node reaches everyone
        m = n * (n - 1)
        assert exhaustive_existence(n, 0.5, Mode.MULTI_HOP) == roots / 2**m


class TestEstimators:
    def test_certain_edge_cases(self):
        assert mc_single_hop(5, 1.0, 500, seed=1).value == 1.0
        assert mc_multi_hop(5, 1.0, 500, seed=1).value == 1.0
        assert mc_single_hop(5, 0.0, 500, seed=1).value == 0.0

    def test_within_measures_standard_errors_at_the_target(self):
        # 10 hits in 4,000 trials against an exact 0.00662: 5.2 standard
        # errors of the plug-in estimate, 3.2 at the target
        low = Estimate(10 / 4000, math.sqrt(0.0025 * 0.9975 / 4000), 4000)
        assert abs(low.value - 0.00662) > 5 * low.stderr
        assert low.within(0.00662, 5.0)
        assert not low.within(0.02, 5.0)  # 7.9 standard errors at the target
        assert not Estimate(0.02, 0.0022, 4000).within(0.0025, 5.0)
        for exact in (0.0, 1.0):
            assert Estimate(exact, 0.0, 100).within(exact)
            assert not Estimate(abs(exact - 0.01), 0.01, 100).within(exact)

    def test_single_hop_matches_closed_form(self):
        est = mc_single_hop(20, 0.8, 20_000, seed=7)
        assert est.within(closed_form_single_hop(20, 0.8))

    def test_n2_matches_two_direct_events(self):
        p = 0.6
        est = mc_single_hop(2, p, 20_000, seed=3)
        assert est.within(1 - (1 - p) ** 2)

    def test_estimators_match_exhaustive_small_n(self):
        for n in (3, 4):
            ms = mc_single_hop(n, 0.4, 20_000, seed=5)
            mm = mc_multi_hop(n, 0.4, 20_000, seed=5)
            assert ms.within(exhaustive_existence(n, 0.4, Mode.SINGLE_HOP))
            assert mm.within(exhaustive_existence(n, 0.4, Mode.MULTI_HOP))

    def test_event_inclusion_on_shared_seeds(self):
        for n in (4, 8, 12):
            for seed in (0, 1, 2):
                single = mc_single_hop(n, 0.5, 4_000, seed=seed)
                multi = mc_multi_hop(n, 0.5, 4_000, seed=seed)
                assert multi.value >= single.value

    def test_reproducibility(self):
        a = mc_multi_hop(6, 0.45, 5_000, seed=9)
        b = mc_multi_hop(6, 0.45, 5_000, seed=9)
        assert a == b

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            mc_single_hop(4, 0.5, 0, seed=1)


# trials per size: odd, so no multiple of two-block chunks, and between one
# and two default chunks, so the last default chunk is a large partial one
CHUNKED_TRIALS = {3: 5461, 4: 3073, 5: 1967, 9: 607}


@pytest.mark.parametrize("n, trials", CHUNKED_TRIALS.items())
def test_chunking_never_changes_an_existence_estimate(monkeypatch, n, trials):
    per = _BATCH_CELLS // (n * n)
    assert trials % 2 and per < trials < 2 * per

    def estimates():
        return [mc_single_hop(n, 0.4, trials, 8), mc_multi_hop(n, 0.4, trials, 8)]

    want = estimates()
    assert 0 < want[0].value < want[1].value < 1
    for budget in (1, 2 * n * n + 1):  # one graph per draw, two per draw
        monkeypatch.setattr(montecarlo, "_BATCH_CELLS", budget)
        assert estimates() == want


def test_a_node_zero_table_built_in_small_chunks_is_the_default_table(monkeypatch):
    want = _node_zero_table(4)
    _node_zero_table.cache_clear()
    monkeypatch.setattr(montecarlo, "_BATCH_CELLS", 16 * 333 + 5)  # 333 graphs a chunk
    try:
        assert np.array_equal(_node_zero_table(4), want)
    finally:
        _node_zero_table.cache_clear()  # the next use builds it at the default budget


# drawn 2,048 whole graphs at a time, the n=100 existence calls trace above
# 170 MiB; drawn a round's 2,000 live trials at once, the n=32 stability call
# traces above 17 MiB
FLAT_MEMORY_CALLS = {
    "multi-hop n=100": lambda: mc_multi_hop(100, 0.3, 2048, 1),
    "single-hop n=100": lambda: mc_single_hop(100, 0.3, 2048, 1),
    "bitimely stability n=32": lambda: mc_stability(32, 0.5, 2000, 1, Mode.BITIMELY,
                                                    cap=20),
}


@pytest.mark.parametrize("name", FLAT_MEMORY_CALLS)
def test_estimator_memory_stays_flat_in_n(name):
    tracemalloc.start()
    try:
        FLAT_MEMORY_CALLS[name]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"{name}: traced peak {peak / 2**20:.1f} MiB"


def _bfs_reaches_all(adj: np.ndarray, src: int) -> bool:
    """Pure-Python breadth-first search on one boolean adjacency matrix."""
    n = len(adj)
    seen, frontier = {src}, [src]
    while frontier:
        frontier = [v for u in frontier for v in range(n) if adj[u][v] and v not in seen]
        seen.update(frontier)
    return len(seen) == n


class TestReachabilityOracle:
    """The node-0 search and the existence predicate against a BFS that
    shares no code with them."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_node_zero_search_and_leader_match_bfs(self, n):
        rng = np.random.default_rng(100 + n)
        for p in (0.0, 0.3, 0.7, 1.0):
            adj = rng.random((150, n, n)) < p
            for graphs in (adj, adj & adj.transpose(0, 2, 1)):  # plain, bitimely
                rows = graphs.tolist()
                from_0 = [_bfs_reaches_all(g, 0) for g in rows]
                leader = [any(_bfs_reaches_all(g, v) for v in range(n)) for g in rows]
                assert _reaches_all_from_0(graphs).tolist() == from_0
                assert _has_multi_hop_leader(graphs).tolist() == leader
                assert _reachability(graphs)[:, 0, :].all(axis=1).tolist() == from_0

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_node_zero_table_matches_bfs_on_every_graph(self, n):
        # every graph on n nodes, cell (0, 0) the highest bit of its number
        graphs = np.array(list(product((False, True), repeat=n * n)))
        graphs = graphs.reshape(-1, n, n)
        from_0 = [_bfs_reaches_all(g, 0) for g in graphs.tolist()]
        assert _node_zero_reaches_all(graphs).tolist() == from_0

    @pytest.mark.parametrize("n", (4, 5))  # largest table n, smallest search n
    def test_node_zero_helper_matches_the_search(self, n):
        rng = np.random.default_rng(200 + n)
        for p in (0.3, 0.6, 0.9):
            adj = rng.random((3_000, n, n)) < p
            for graphs in (adj, adj & adj.transpose(0, 2, 1)):
                assert (_node_zero_reaches_all(graphs).tolist()
                        == _reaches_all_from_0(graphs).tolist())

    def test_a_nan_in_the_node_zero_search_is_raised(self):
        # a NaN set size is raised, not read as "not found", and numpy
        # prints no warning for it
        adj = np.zeros((3, 4, 4), dtype=np.float32)
        adj[:, 0, 1] = 1.0
        adj[1, 2, 3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="NaN"):
                _reaches_all_from_0(adj)


def _stability_reference(n, p, trials, seed, mode, cap=100_000):
    """`mc_stability` judged round by round: each round draws one block of
    uniforms per live trial, in trial order, and judges it by the closure.
    Returns (mean, stderr, censored)."""
    rng = np.random.default_rng(seed)

    def holds(k):
        if mode is Mode.SINGLE_HOP:
            return (rng.random((k, n - 1)) < p).all(axis=1)
        adj = rng.random((k, n, n)) < p
        if mode is Mode.BITIMELY:
            adj = adj & adj.transpose(0, 2, 1)
        return _reachability(adj)[:, 0, :].all(axis=1)

    WAITING, COUNTING, DONE, CENSORED = 0, 1, 2, 3
    status = np.full(trials, WAITING, dtype=np.int8)
    counts = np.zeros(trials, dtype=np.int64)
    rounds = 0
    while True:
        active = status < DONE
        k = int(active.sum())
        if k == 0:
            break
        rounds += 1
        if rounds > 2 * cap:
            status[active] = CENSORED
            break
        held = np.zeros(trials, dtype=bool)
        held[active] = holds(k)
        waiting = active & (status == WAITING)
        counting = active & (status == COUNTING)
        status[waiting & held] = COUNTING
        counts[counting & held] += 1
        status[counting & ~held] = DONE
        status[(status == COUNTING) & (counts >= cap)] = CENSORED
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr, int((status == CENSORED).sum())


# (n, p, trials, seed, cap): plain; censored at the cap; trials still
# waiting for their first holding round at 2*cap; one trial; more live
# trials in the first rounds than one read-ahead holds; runs whose all-held
# rounds carry many trials to the cap
STABILITY_CASES = {
    "plain": (4, 0.9, 300, 11, 100_000),
    "cap censors": (3, 0.95, 200, 12, 4),
    "waiting past 2 cap": (7, 0.25, 60, 13, 2),
    "one trial": (4, 0.8, 1, 14, 100_000),
    "trials above read-ahead": (8, 0.6, _BATCH_CELLS // 64 + 300, 15, 100_000),
    "quiet tail meets cap": (4, 0.97, 40, 16, 300),
}


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("n, p, trials, seed, cap", STABILITY_CASES.values(),
                         ids=STABILITY_CASES.keys())
def test_stability_equals_round_by_round_reference(mode, n, p, trials, seed, cap):
    est = mc_stability(n, p, trials, seed, mode, cap=cap)
    assert (est.mean, est.stderr, est.censored) == _stability_reference(
        n, p, trials, seed, mode, cap)


@settings(max_examples=100, deadline=None)
@given(mode=st.sampled_from(list(Mode)), n=st.integers(2, 6),
       p=st.sampled_from((0.0, 0.1, 0.5, 0.9, 0.97, 1.0)) | st.floats(0.0, 1.0),
       trials=st.integers(1, 120), cap=st.integers(1, 30), seed=st.integers(0, 2**64))
# jumps between failures, then censors 35 of 40 trials at the cap; censors
# every trial at the cap; censors 46 trials at round 2 cap, each at a count of 0
@example(mode=Mode.MULTI_HOP, n=4, p=0.9, trials=40, cap=30, seed=16)
@example(mode=Mode.SINGLE_HOP, n=3, p=1.0, trials=7, cap=5, seed=0)
@example(mode=Mode.BITIMELY, n=5, p=0.3, trials=50, cap=3, seed=1)
def test_stability_equals_the_reference_on_any_parameters(mode, n, p, trials, cap, seed):
    est = mc_stability(n, p, trials, seed, mode, cap=cap)
    assert (est.mean, est.stderr, est.censored) == _stability_reference(
        n, p, trials, seed, mode, cap)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("n, p, trials, seed, cap", STABILITY_CASES.values(),
                         ids=STABILITY_CASES.keys())
def test_chunking_never_changes_a_stability_estimate(monkeypatch, mode, n, p, trials,
                                                     seed, cap):
    # one block per draw, two n*n blocks per draw (a read-ahead of two), and
    # the default budget
    want = mc_stability(n, p, trials, seed, mode, cap=cap)
    for budget in (1, 2 * n * n + 1):
        monkeypatch.setattr(montecarlo, "_BATCH_CELLS", budget)
        assert mc_stability(n, p, trials, seed, mode, cap=cap) == want


def test_stability_reference_cases_reach_their_paths():
    # the censoring cases censor, and the waiting case censors trials at 0
    assert _stability_reference(3, 0.95, 200, 12, Mode.SINGLE_HOP, 4)[2] > 0
    mean, _, censored = _stability_reference(7, 0.25, 60, 13, Mode.MULTI_HOP, 2)
    assert censored > 0 and mean < 1
    # the quiet tail censors most trials at the cap, in all but single-hop mode
    censored = {mode: _stability_reference(4, 0.97, 40, 16, mode, 300)[2]
                for mode in Mode}
    assert censored == {Mode.SINGLE_HOP: 0, Mode.MULTI_HOP: 39, Mode.BITIMELY: 33}


# call -> the field its error names: unchecked, a string would meet a raw
# TypeError, p given as True would run as p = 1, and a mode given as its value
# string would run multi-hop
BAD_TYPES = {
    "n 4.0": (mc_single_hop, (4.0, 0.5, 10, 1), {}, "n"),
    "trials True": (mc_stability, (4, 0.9, True, 3, Mode.MULTI_HOP), {}, "trials"),
    "seed 3.5": (mc_multi_hop, (4, 0.5, 10, 3.5), {}, "seed"),
    "cap 2.5": (mc_stability, (4, 0.9, 10, 3, Mode.MULTI_HOP), {"cap": 2.5}, "cap"),
    "mode a string": (mc_stability, (4, 0.9, 100, 3, "single_hop"), {}, "mode"),
    "p a string": (mc_single_hop, (4, "0.5", 10, 1), {}, "p"),
    "p True": (mc_single_hop, (4, True, 10, 1), {}, "p"),
    "target a string": (stability_regime_probability, (8, "3"), {}, "target"),
}


@pytest.mark.parametrize("name", BAD_TYPES)
def test_estimators_reject_a_parameter_of_the_wrong_type(name):
    fn, args, kwargs, field = BAD_TYPES[name]
    with pytest.raises(ConfigurationError, match=f"^{field} must be"):
        fn(*args, **kwargs)


class TestStability:
    def test_capped_at_certainty(self):
        est = mc_stability(3, 1.0, 50, seed=1, mode=Mode.SINGLE_HOP, cap=100)
        assert est.censored == est.trials
        assert est.mean == 100.0

    def test_a_cap_no_trial_reaches_changes_nothing(self):
        # the counts stay int64 whatever the cap, so the estimate is the
        # same bits, past int64 too
        est = mc_stability(4, 0.9, 100, 3, Mode.MULTI_HOP)
        for cap in (2**62, 2**63, 10**30):
            big = mc_stability(4, 0.9, 100, 3, Mode.MULTI_HOP, cap=cap)
            assert (big.mean, big.stderr, big.censored) == (est.mean, est.stderr, 0)

    def test_single_hop_geometric_law(self):
        q = 0.9 ** 3
        est = mc_stability(4, 0.9, 50_000, seed=3, mode=Mode.SINGLE_HOP)
        assert est.censored == 0
        assert abs(est.mean - q / (1 - q)) <= 4 * est.stderr

    def test_multi_hop_beats_single_hop(self):
        single = mc_stability(4, 0.9, 5_000, seed=4, mode=Mode.SINGLE_HOP)
        multi = mc_stability(4, 0.9, 5_000, seed=4, mode=Mode.MULTI_HOP)
        assert multi.mean > single.mean

    def test_opposite_trends_in_n(self):
        # single-hop retention falls with n; multi-hop retention rises, and at
        # n=16 every trial outlasts a cap above the n=8 mean, so the n=16 rise
        # is asserted through censoring rather than through a capped mean
        p = 0.7
        s4, s8, s16 = (
            mc_stability(n, p, 4_000, seed=6, mode=Mode.SINGLE_HOP, cap=5_000)
            for n in (4, 8, 16)
        )
        assert s4.censored == s8.censored == s16.censored == 0
        assert s4.mean > s8.mean > s16.mean
        m4, m8 = (
            mc_stability(n, p, 1_000, seed=6, mode=Mode.MULTI_HOP, cap=20_000)
            for n in (4, 8)
        )
        assert m4.censored == m8.censored == 0
        assert m4.mean < m8.mean
        m16 = mc_stability(16, p, 1_000, seed=6, mode=Mode.MULTI_HOP, cap=1_000)
        assert m16.censored == m16.trials
        assert m8.mean < m16.cap


class TestSweep:
    def test_regime_probability_shrinks(self):
        ps = [stability_regime_probability(n, 3.0) for n in (8, 16, 32, 64)]
        assert ps == sorted(ps, reverse=True)
        assert all(0 < p < 1 for p in ps)
        # the clip's range is (0, 1]: at small n a large target gives p = 1
        assert stability_regime_probability(2, 1e6) == stability_regime_probability(3, 1e3) == 1.0

    def test_means_stay_in_stable_band(self):
        rows = stability_sweep(3.0, (8, 16, 32), trials=2_000, seed=5, cap=2_000)
        means = [r.mean for r in rows]
        assert all(r.censored == 0 for r in rows)
        # retention odds pinned by the regime: no growth or decay with n
        assert max(means) <= 4 * min(means)
        assert 0.01 < min(means) and max(means) < 10.0

    def test_means_approach_the_target(self):
        # 1 + 1/t in the regime: connectivity tends to t/(1 + t), so the
        # mean retention tends to t, from above
        target = 3.0
        rows = stability_sweep(target, (16, 32), trials=2_000, seed=7, cap=2_000)
        assert all(r.censored == 0 for r in rows)
        assert all(target <= r.mean <= 2 * target for r in rows), rows
