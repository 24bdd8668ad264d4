#!/usr/bin/env python3
"""How long a leader survives when channel timeliness is redrawn each round.

Node 0 holds the leader property; every round the whole digraph is
resampled and we count how many extra rounds the property survives.
Per round that is a Bernoulli trial, so the single-hop count follows a
geometric law with mean q/(1-q), q = p^(n-1) - checked below.  Then the
two regimes are swept in n: direct-channel stability collapses while
path stability explodes.  Finally the shrinking-p regime holds the
bitimely witness's mean retention near its target even as p(n) -> 0.
"""

from mpo.montecarlo import Mode, mc_stability, stability_sweep

SEED = 9


def main(trials: int = 3_000):
    """`trials` runs per estimate of the shrinking-p sweep; the multi-hop
    column, whose runs last up to the cap, takes a third of them."""
    n, p = 4, 0.9
    q = p ** (n - 1)
    est = mc_stability(n, p, 50_000, SEED, Mode.SINGLE_HOP)
    print(f"geometric law, n={n} p={p}: measured {est.mean:.3f} +- {est.stderr:.3f}, "
          f"q/(1-q) = {q / (1 - q):.3f}")

    print("\nstability vs n at p=0.7 (rounds retained, capped at 5000):")
    print(f"{'n':>4}  {'single-hop':>12}  {'multi-hop':>12}")
    for size in (4, 8, 16):
        single = mc_stability(size, 0.7, 4_000, SEED, Mode.SINGLE_HOP, cap=5_000)
        multi = mc_stability(size, 0.7, trials // 3, SEED, Mode.MULTI_HOP, cap=5_000)
        mark = "*" if multi.censored else ""
        print(f"{size:>4}  {single.mean:>12.3f}  {multi.mean:>11.1f}{mark}")
    print("(* = some runs hit the cap; the mean is a lower bound)")

    print("\nshrinking-p regime, target level 3:")
    print(f"{'n':>4}  {'p(n)':>8}  {'bitimely stability':>18}")
    for row in stability_sweep(3.0, (8, 16, 32, 64), trials=trials, seed=SEED,
                               cap=2_000):
        print(f"{row.n:>4}  {row.p:>8.3f}  {row.mean:>18.3f}")
    print("p(n) falls toward zero yet the retention stays near the target,"
          " approaching it from above")


if __name__ == "__main__":
    main()
