"""Leader existence and stability probabilities on random timely digraphs.

Each directed channel of a complete n-process network is independently
timely with probability p.  A single-hop leader is a node with timely
direct channels to everyone else; a multi-hop leader only needs timely
paths.  The closed form for single-hop existence is exact (each node's
out-channels are disjoint, so the per-node events are independent):

    P(single-hop leader exists) = 1 - (1 - p**(n-1))**n

Multi-hop existence has no simple exact form; `bitimely_connectivity_bound`
evaluates the classical asymptotic lower-bound proxy via bidirectionally
timely channels, good for trend checks only.

The existence estimators read graph i of a seed from uniforms
[i*n*n, (i+1)*n*n) of its generator's stream, so on equal seeds every
single-hop success is counted as a multi-hop success too (the witness is
the same node).  Stability estimators resample the whole digraph each
round and count how many consecutive extra rounds a fixed node keeps the
leader property after a round in which it holds; per round that is a
Bernoulli(q) trial, so the count is geometric with mean q / (1 - q).

Node 0's multi-hop verdict on a graph depends only on its n*n cells, so at
n <= 4 it is read from a table of all 2**(n*n) graphs' verdicts, built once
by the node-0 search on first use and indexed by each graph's cells packed
into 16 bits; above n = 4 the search judges each graph.  The stability
estimator notes the rounds in which each trial's count begins and ends,
and once no live trial waits for its first holding round it jumps over
the rounds before the next failure, never past round `cap`.  Neither
changes an estimate: each trial still sees the same block of uniforms
each round, and each block gets the verdict the search gives it.

Graphs are drawn and judged `_chunks` at a time wherever they are
materialised (existence, a stability call's rounds, the table build): at
most `_BATCH_CELLS` uniforms' worth of blocks per numpy call, or one
block where a block is larger, so a call's memory does not grow with
trials * n * n.  The chunks change no estimate either: numpy's default
generator (PCG64) makes each double from one 64-bit output, in order, so
block i of a stream holds the same uniforms however the draws before it
were split, and every judge looks at one graph at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .core import ConfigurationError, check_int, check_number, check_type

# the most uniforms one numpy call draws and judges (2,048 graphs at n=4),
# and a stability call's read-ahead: enough to spread a call's fixed cost
# over many graphs, few enough that its arrays stay near cache size (256 KiB
# of doubles) and that a call with few trials at large n draws little past
# its last round
_BATCH_CELLS = 1 << 15


class Mode(Enum):
    SINGLE_HOP = "single_hop"
    MULTI_HOP = "multi_hop"
    # lower-bound witness used by the shrinking-p regime: node 0 must reach
    # everyone through channels timely in both directions
    BITIMELY = "bitimely"


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float
    trials: int

    def within(self, target: float, k: float = 4.0) -> bool:
        """Whether the estimate lies within `k` standard errors of the exact
        probability `target`, the standard error taken at the target,
        sqrt(target (1 - target) / trials): a plug-in `stderr` would shrink
        with a low count and flag a fair estimate.  At a target of 0 or 1 only
        an exact match passes."""
        spread = max(target * (1.0 - target), 0.0) / self.trials
        return abs(self.value - target) <= k * math.sqrt(spread)


@dataclass(frozen=True)
class StabilityEstimate:
    mean: float
    stderr: float
    trials: int
    censored: int
    cap: int


def _check(n: int, p: float | None = None, trials: int | None = None,
           cap: int | None = None, target: float | None = None, seed: int | None = None,
           mode: object = Mode.MULTI_HOP) -> None:
    """Raise ConfigurationError unless n, trials, cap and seed are ints in their
    bounds (numpy's generators take no negative seed), p a number in [0, 1], target
    a number as below and mode a Mode.  None skips a check; the default mode passes."""
    check_int("n", n, low=2)
    for name, value, low in (("trials", trials, 1), ("cap", cap, 1), ("seed", seed, 0)):
        if value is not None:
            check_int(name, value, low=low)
    if p is not None:
        check_number("p", p, 0, 1)
    check_type("mode", mode, Mode, "a Mode")
    if target is not None:
        check_number("target", target)
        # ln(ln(1 + 1/target)) needs 0 < target < ~9e15, above which 1 + 1/target is 1
        if not (0.0 < target and 1.0 < 1.0 + 1.0 / target < math.inf):
            raise ConfigurationError(
                f"target must be positive with 1 < 1 + 1/target < inf, got target={target}")


def closed_form_single_hop(n: int, p: float) -> float:
    """Exact probability that some node has timely direct channels to all others."""
    _check(n, p)
    return 1.0 - (1.0 - p ** (n - 1)) ** n


def bitimely_connectivity_bound(n: int, p: float) -> float:
    """Asymptotic proxy for multi-hop existence via bidirectionally timely
    channels (edge probability p**2): 1 - n*(1 - p**2)**(n-1).

    Asymptotic in n; can be negative for small n.  Trend checks only.
    """
    _check(n, p)
    ptilde = p * p
    return 1.0 - n * (1.0 - ptilde) ** (n - 1)


def _chunks(blocks: int, cells: int) -> Iterator[range]:
    """Consecutive runs covering range(blocks), each of at most
    max(1, _BATCH_CELLS // cells) blocks of `cells` uniforms."""
    per = max(1, _BATCH_CELLS // cells)
    for start in range(0, blocks, per):
        yield range(start, min(start + per, blocks))


def _adjacency_batches(
    n: int, p: float, trials: int, seed: int
) -> Iterator[np.ndarray]:
    """Boolean (chunk, n, n) adjacency samples of `trials` graphs in all;
    graph i is uniforms [i*n*n, (i+1)*n*n) of the seed's stream, so two
    estimators with equal (n, p, trials, seed) see identical graphs."""
    rng = np.random.default_rng(seed)
    for chunk in _chunks(trials, n * n):
        yield rng.random((len(chunk), n, n)) < p


def _has_single_hop_leader(adj: np.ndarray) -> np.ndarray:
    n = adj.shape[1]
    eye = np.eye(n, dtype=bool)
    return (adj | eye).all(axis=2).any(axis=1)


def _reachability(adj: np.ndarray) -> np.ndarray:
    """Transitive closure by repeated boolean squaring (paths <= n-1 edges)."""
    n = adj.shape[1]
    reach = adj | np.eye(n, dtype=bool)
    steps = max(1, math.ceil(math.log2(n)))
    r = reach.astype(np.float32)  # float matmul hits BLAS; integer does not
    for _ in range(steps):
        r = (r @ r > 0).astype(np.float32)
    return r.astype(bool)


def _reaches_all_from_0(adj: np.ndarray) -> np.ndarray:
    """Does node 0 reach every node?  One boolean per graph.

    Grows node 0's reach set one hop at a time by a float32 batched
    vector-matrix product; a graph leaves the search as soon as its set
    holds everyone or stops growing, so most graphs cost a hop or two.
    Set sizes are products with a ones vector: a reduction along a short
    axis costs far more per graph.  A NaN set size, which no 0/1 input can
    give, raises FloatingPointError instead of a silent "not found".
    """
    n = adj.shape[1]
    ones = np.ones(n, dtype=np.float32)
    reach = adj[:, 0, :].astype(np.float32)
    reach[:, 0] = 1.0
    size = reach @ ones
    found = size == n
    live = np.flatnonzero(~found)
    a, reach, size = adj[live].astype(np.float32), reach[live], size[live]
    # A set grows at most n - 1 times, so a graph leaves within n hops unless
    # its size is NaN: that compares false both ways, so the graph stays, and
    # the NaN spreads through its set.  Such a graph is raised after n hops;
    # numpy's invalid-value warning is silenced for the search.
    with np.errstate(invalid="ignore"):
        for _ in range(n):
            if not live.size:
                return found
            reach = np.minimum((reach[:, None, :] @ a)[:, 0, :] + reach, 1.0)
            grown = reach @ ones
            full = grown == n
            found[live[full]] = True
            keep = ~(full | (grown <= size))
            if not keep.all():
                live, a, reach, grown = live[keep], a[keep], reach[keep], grown[keep]
            size = grown
    raise FloatingPointError("NaN in a reach set size")


# largest n judged by table: 2**16 graphs at n=4 (64 KiB, built in about
# 20 ms), where a lookup costs a third of the search; 2**25 at n=5
_TABLE_MAX_N = 4


@functools.cache
def _node_zero_table(n: int) -> np.ndarray:
    """Node 0's verdict on every graph on n nodes, read-only, indexed by the
    graph's n*n cells read as bits, row-major, cell (0, 0) the lowest."""
    bits = np.arange(n * n, dtype=np.uint16)
    table = np.empty(1 << (n * n), dtype=bool)
    for chunk in _chunks(table.size, n * n):
        index = np.arange(chunk.start, chunk.stop, dtype=np.uint16)[:, None]
        graphs = ((index >> bits) & 1).astype(bool).reshape(-1, n, n)
        table[chunk.start:chunk.stop] = _reaches_all_from_0(graphs)
    table.flags.writeable = False
    return table


def _node_zero_reaches_all(adj: np.ndarray) -> np.ndarray:
    """`_reaches_all_from_0` on boolean graphs: by table for n <= 4, by
    search above that."""
    n = adj.shape[1]
    if n > _TABLE_MAX_N:
        return _reaches_all_from_0(adj)
    # cells padded to 16, packed low bit first: far cheaper than an int matmul
    cells = np.zeros((len(adj), _TABLE_MAX_N ** 2), dtype=bool)
    cells[:, :n * n] = adj.reshape(len(adj), n * n)
    return _node_zero_table(n)[np.packbits(cells, bitorder="little").view("<u2")]


def _has_multi_hop_leader(adj: np.ndarray) -> np.ndarray:
    """Node 0 is tried first; the closure is built only for the graphs in
    which node 0 is not a root."""
    found = _node_zero_reaches_all(adj)
    rest = np.flatnonzero(~found)
    if rest.size:
        found[rest] = _reachability(adj[rest]).all(axis=2).any(axis=1)
    return found


def _existence(n: int, p: float, trials: int, seed: int,
               judge: Callable[[np.ndarray], np.ndarray]) -> Estimate:
    """Fraction of sampled digraphs in which `judge` finds a leader."""
    _check(n, p, trials, seed=seed)
    hits = sum(int(judge(adj).sum()) for adj in _adjacency_batches(n, p, trials, seed))
    value = hits / trials
    return Estimate(value=value, stderr=math.sqrt(value * (1.0 - value) / trials),
                    trials=trials)


def mc_single_hop(n: int, p: float, trials: int, seed: int) -> Estimate:
    """Fraction of sampled digraphs containing a single-hop leader."""
    return _existence(n, p, trials, seed, _has_single_hop_leader)


def mc_multi_hop(n: int, p: float, trials: int, seed: int) -> Estimate:
    """Fraction of sampled digraphs containing a node that reaches everyone
    through timely edges."""
    return _existence(n, p, trials, seed, _has_multi_hop_leader)


def exhaustive_existence(n: int, p: float, mode: Mode) -> float:
    """Exact existence probability, summed over all 2**(n*(n-1)) edge
    subsets at once; the oracle the estimators are validated against.
    n <= 4.  Graph g holds channel i, the off-diagonal cells taken
    row-major, when bit i of g is set, and weighs p per present channel and
    1 - p per absent one.  Multi-hop graphs are judged by the closure alone,
    so the oracle shares no code with the node-0 table."""
    check_int("n", n, low=2, high=4)
    _check(n, p, mode=mode)
    if mode not in (Mode.SINGLE_HOP, Mode.MULTI_HOP):
        raise ConfigurationError(
            f"exhaustive existence judges single_hop or multi_hop, not {mode}")
    m = n * (n - 1)
    present = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(bool)
    adj = np.zeros((1 << m, n, n), dtype=bool)
    adj[:, ~np.eye(n, dtype=bool)] = present
    ok = (_has_single_hop_leader(adj) if mode is Mode.SINGLE_HOP
          else _reachability(adj).all(axis=2).any(axis=1))
    return float(np.where(present, p, 1.0 - p).prod(axis=1)[ok].sum())


def _holds_round(rng: np.random.Generator, k: int, n: int, p: float,
                 mode: Mode) -> np.ndarray:
    """Node 0's verdicts on k fresh digraphs, one block of uniforms each
    (n - 1 in single-hop mode, n*n otherwise), drawn `_chunks` at a time:
    does it hold the property?"""
    verdicts = np.empty(k, dtype=bool)
    for chunk in _chunks(k, n - 1 if mode is Mode.SINGLE_HOP else n * n):
        if mode is Mode.SINGLE_HOP:
            held = (rng.random((len(chunk), n - 1)) < p).all(axis=1)
        else:
            adj = rng.random((len(chunk), n, n)) < p
            if mode is Mode.BITIMELY:
                adj = adj & adj.transpose(0, 2, 1)
            held = _node_zero_reaches_all(adj)
        verdicts[chunk.start:chunk.stop] = held
    return verdicts


def mc_stability(
    n: int,
    p: float,
    trials: int,
    seed: int,
    mode: Mode,
    cap: int = 100_000,
) -> StabilityEstimate:
    """Mean number of consecutive extra rounds node 0 retains the leader
    property after a round establishing it, the whole digraph resampled
    every round.

    Runs are censored at `cap` retained rounds, and every trial still live
    after round 2*cap at the count it has: 0 if it never held, below `cap`
    if it began counting after round `cap`.  With any censoring the mean
    reads as a lower bound.

    Each round gives every live trial, in trial order, the next block of
    uniforms from the call's generator.  The verdicts are judged ahead,
    `_BATCH_CELLS` uniforms' worth of n*n blocks or a round's at a time,
    drawn `_chunks` at a time, so the call's memory is O(_BATCH_CELLS +
    trials) whatever n.  The unused tail past the last round is never
    seen, so the estimate is the one of judging round by round.  Each
    trial notes the round it first holds in and, as it leaves, the round
    after its last counted one.  Once no live trial waits to hold, the
    loop jumps to the next judged row with a failure, never past round
    `cap`, so censoring still happens round by round; the rows jumped
    over end no trial.
    """
    _check(n, p, trials, cap, seed=seed, mode=mode)
    rng = np.random.default_rng(seed)
    live = np.arange(trials)                # trials neither done nor censored
    begin = np.full(trials, np.iinfo(np.int64).max)  # per trial: the round it first held
    end = np.zeros(trials, dtype=np.int64)  # per trial: the round after its last counted one
    verdicts = np.zeros(0, dtype=bool)      # judged ahead; verdicts[at:] not yet consumed
    at, fails = 0, None  # where verdicts fail, then verdicts.size; set once no trial waits
    ahead = _BATCH_CELLS // (n * n)
    censored, rounds, waiting = 0, 0, True
    while live.size:
        k = live.size
        if verdicts.size - at < k:
            verdicts = np.concatenate(
                (verdicts[at:], _holds_round(rng, max(k, ahead), n, p, mode)))
            at, fails = 0, None
        if not waiting and rounds < cap:
            # every live trial holds in the rows before the next failure:
            # jump over them, to round cap at most
            if fails is None:
                fails = np.append(np.flatnonzero(~verdicts), verdicts.size)
            step = min(int(fails[fails.searchsorted(at)] - at) // k, cap - rounds)
            rounds, at = rounds + step, at + step * k
            if verdicts.size - at < k:
                continue
        rounds += 1
        if rounds > 2 * cap:
            censored += k
            end[live] = rounds
            break
        held, at = verdicts[at:at + k], at + k
        stay = held
        if waiting:
            idle = begin[live] > rounds
            begin[live[held & idle]] = rounds
            idle &= ~held
            stay, waiting = held | idle, bool(idle.any())
        if rounds > cap:
            capped = held & (begin[live] <= rounds - cap)
            censored += int(capped.sum())
            end[live[capped]] = rounds + 1
            stay = stay & ~capped
        if not stay.all():
            end[live[~(stay | held)]] = rounds
            live = live[stay]
    counts = np.maximum(end - 1 - begin, 0)  # 0 for a trial that never held
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return StabilityEstimate(
        mean=mean,
        stderr=stderr,
        trials=trials,
        censored=censored,
        cap=cap,
    )


def stability_regime_probability(n: int, target: float) -> float:
    """Channel probability p(n) for the shrinking-p stability regime.

    Evaluates ptilde(n) = ln(n)/n - ln(ln(1 + 1/target))/n for the
    bidirectionally timely graph and returns p = sqrt(ptilde), clipped
    into (0, 1]: 1.0 where ptilde reaches 1, as at small n with a large
    target.  As n grows, G(n, ptilde) is connected with probability
    exp(-ln(1 + 1/target)) = target/(1 + target), so the witness's mean
    retention r/(1 - r) tends to the target.
    """
    _check(n, target=target)
    ptilde = (math.log(n) - math.log(math.log(1.0 + 1.0 / target))) / n
    ptilde = min(max(ptilde, 1e-9), 1.0)
    return math.sqrt(ptilde)


@dataclass(frozen=True)
class SweepRow:
    n: int
    p: float
    mean: float
    stderr: float
    trials: int
    censored: int


def stability_sweep(
    target: float,
    ns: tuple[int, ...],
    trials: int,
    seed: int,
    cap: int = 10_000,
) -> list[SweepRow]:
    """Stability of the bitimely witness across n, with p(n) from the
    shrinking-p regime.

    The regime, p(n) = sqrt((ln n - ln ln(1 + 1/target))/n), holds the
    witness's per-round retention probability near target/(1 + target)
    even as p(n) -> 0, so the mean retention approaches the target as n
    grows.  It does so from above: at target 3 the means lie between the
    target and twice it from n = 16 on.
    """
    rows = []
    for i, n in enumerate(ns):
        p = stability_regime_probability(n, target)
        est = mc_stability(n, p, trials, seed + i, Mode.BITIMELY, cap=cap)
        rows.append(SweepRow(n=n, p=p, mean=est.mean, stderr=est.stderr,
                             trials=est.trials, censored=est.censored))
    return rows
