"""Minimum-weight spanning arborescences over weighted digraphs.

An arborescence rooted at r is a spanning tree with every edge directed
away from r.  The protocol uses the minimum-weight one (over learned
channel-fault weights) as the routing tree for heartbeat traffic, so the
result must be deterministic: among equal-weight optima we always return
the same tree.

Determinism is obtained by totally ordering edges with an exact integer
key that embeds the edge identity below the weight:

    key(u -> v) = weight(u, v) * 2**(n*n)  +  2**(((u - root) % n) * n + v)

Summing keys over an edge set gives (total_weight, edge_bitmask) packed
into one integer, and distinct edge sets always differ in the bitmask.
Minimising the summed key therefore yields the minimum-weight
arborescence with the smallest edge bitmask, a canonical representative.
Both the contraction algorithm and the exhaustive oracle minimise the
same key, so they agree on the exact edge set, not just the weight.

The bit position is root-relative so that the root's own out-edges are
the cheapest: among all-zero weights the canonical arborescence is the
root's direct out-star.  A process that claims leadership therefore
starts by routing straight to everyone and only learns detours from
reported faults, and no root's default routing leans on some other
distinguished node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable


class TopologyError(ValueError):
    """The root cannot reach every node, so no spanning arborescence exists."""


@dataclass(eq=False)
class WeightedDigraph:
    """Complete-by-default weighted digraph on nodes 0..n-1.

    `present(u, v)` restricts the edge set for non-complete topologies;
    None means every ordered pair (u != v) is an edge.  Weights are
    non-negative integers (fault counters in the protocol).
    """

    n: int
    w: list[list[int]]
    present: Callable[[int, int], bool] | None = None

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return self.present is None or self.present(u, v)

    def edges(self) -> Iterable[tuple[int, int]]:
        for u in range(self.n):
            for v in range(self.n):
                if self.has_edge(u, v):
                    yield u, v

    @classmethod
    def complete(cls, n: int, w: list[list[int]] | None = None) -> "WeightedDigraph":
        if w is None:
            w = [[0] * n for _ in range(n)]
        return cls(n=n, w=w)


@dataclass
class Arborescence:
    """Rooted spanning out-tree: parent_of maps every non-root node to its parent."""

    root: int
    parent_of: dict[int, int]
    weight: int
    _children: dict[int, tuple[int, ...]] | None = field(
        default=None, repr=False, compare=False
    )

    def children_of(self, node: int) -> tuple[int, ...]:
        if self._children is None:
            kids: dict[int, list[int]] = {}
            for child, par in self.parent_of.items():
                kids.setdefault(par, []).append(child)
            self._children = {p: tuple(sorted(cs)) for p, cs in kids.items()}
        return self._children.get(node, ())

    def spans(self, n: int) -> bool:
        return set(self.parent_of) == set(range(n)) - {self.root}


def _edge_key(n: int, weight: int, u: int, v: int, root: int) -> int:
    return (weight << (n * n)) | (1 << (((u - root) % n) * n + v))


def _reachable_from(g: WeightedDigraph, root: int) -> set[int]:
    seen = {root}
    frontier = [root]
    while frontier:
        u = frontier.pop()
        for v in range(g.n):
            if v not in seen and g.has_edge(u, v):
                seen.add(v)
                frontier.append(v)
    return seen


def _check_instance(g: WeightedDigraph, root: int) -> None:
    if not 0 <= root < g.n:
        raise TopologyError(f"root {root} outside [0, {g.n})")
    missing = set(range(g.n)) - _reachable_from(g, root)
    if missing:
        raise TopologyError(f"nodes {sorted(missing)} unreachable from root {root}")


def _find_cycle(num: int, root: int, best: dict[int, tuple]) -> list[int] | None:
    """Cycle in the chosen-in-edge functional graph v -> best[v][0], if any."""
    state = [0] * num  # 0 unvisited, 1 on current walk, 2 done
    for start in range(num):
        if start == root or state[start] != 0:
            continue
        path: list[int] = []
        v = start
        while v != root and state[v] == 0:
            state[v] = 1
            path.append(v)
            v = best[v][0]
        if v != root and state[v] == 1:
            return path[path.index(v):]
        for x in path:
            state[x] = 2
    return None


def _solve(num: int, root: int, arcs: list[tuple[int, int, int, int]]) -> set[int]:
    """Chu-Liu/Edmonds on arcs (u, v, key, arc_id); returns chosen arc ids.

    Keys are distinct (each embeds a unique edge bit), so the optimum is
    unique and no tie-breaking is needed inside the recursion.
    """
    best: dict[int, tuple[int, int, int, int]] = {}
    for arc in arcs:
        u, v, key, _ = arc
        if v == root or u == v:
            continue
        cur = best.get(v)
        if cur is None or key < cur[2]:
            best[v] = arc
    for v in range(num):
        if v != root and v not in best:
            raise TopologyError(f"node {v} has no usable in-edge")

    cycle = _find_cycle(num, root, best)
    if cycle is None:
        return {arc[3] for arc in best.values()}

    in_cycle = set(cycle)
    remap: dict[int, int] = {}
    nxt = 0
    for v in range(num):
        if v not in in_cycle:
            remap[v] = nxt
            nxt += 1
    super_node = nxt
    for v in in_cycle:
        remap[v] = super_node

    new_arcs: list[tuple[int, int, int, int]] = []
    entering_head: dict[int, int] = {}  # arc_id -> pre-contraction head
    for arc in arcs:
        u, v, key, arc_id = arc
        nu, nv = remap[u], remap[v]
        if nu == nv:
            continue
        if nv == super_node:
            key = key - best[v][2]
            entering_head[arc_id] = v
        new_arcs.append((nu, nv, key, arc_id))

    chosen = _solve(nxt + 1, remap[root], new_arcs)
    enter_id = next(a for a in chosen if a in entering_head)
    broken = entering_head[enter_id]
    chosen.update(best[v][3] for v in cycle if v != broken)
    return chosen


def min_arborescence(g: WeightedDigraph, root: int) -> Arborescence:
    """Minimum-weight spanning arborescence rooted at `root`, canonical under ties."""
    _check_instance(g, root)
    arcs: list[tuple[int, int, int, int]] = []
    endpoints: list[tuple[int, int]] = []
    for u, v in g.edges():
        arcs.append((u, v, _edge_key(g.n, g.w[u][v], u, v, root), len(endpoints)))
        endpoints.append((u, v))
    chosen = _solve(g.n, root, arcs)
    parent_of = {v: u for u, v in (endpoints[a] for a in chosen)}
    weight = sum(g.w[u][v] for v, u in parent_of.items())
    return Arborescence(root=root, parent_of=parent_of, weight=weight)


def brute_force_min_arborescence(g: WeightedDigraph, root: int) -> Arborescence:
    """Exhaustive oracle: enumerate every parent assignment, same canonical order.

    Restricted to n <= 6 (n**(n-1) candidate maps).
    """
    if g.n > 6:
        raise ValueError(f"brute force refuses n={g.n} > 6")
    _check_instance(g, root)
    others = [v for v in range(g.n) if v != root]
    in_choices = [
        [u for u in range(g.n) if g.has_edge(u, v)] for v in others
    ]
    best_key: int | None = None
    best_map: dict[int, int] | None = None
    for combo in itertools.product(*in_choices):
        parent = dict(zip(others, combo))
        ok = True
        for v in others:
            x, hops = v, 0
            while x != root:
                x = parent[x]
                hops += 1
                if hops > g.n:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        key = sum(_edge_key(g.n, g.w[u][v], u, v, root) for v, u in parent.items())
        if best_key is None or key < best_key:
            best_key = key
            best_map = parent
    if best_map is None:
        raise TopologyError("no spanning arborescence exists")
    weight = sum(g.w[u][v] for v, u in best_map.items())
    return Arborescence(root=root, parent_of=dict(best_map), weight=weight)


def validate_arborescence(a: Arborescence, g: WeightedDigraph) -> bool:
    """True iff `a` spans g, is acyclic, uses only present edges, and its
    stored weight matches the recomputed edge-weight sum."""
    if not a.spans(g.n):
        return False
    for v, u in a.parent_of.items():
        if not g.has_edge(u, v):
            return False
    for v in a.parent_of:
        x, hops = v, 0
        while x != a.root:
            x = a.parent_of[x]
            hops += 1
            if hops > g.n:
                return False
    return a.weight == sum(g.w[u][v] for v, u in a.parent_of.items())
