"""Minimum-weight spanning arborescences over weighted digraphs.

An arborescence rooted at r is a spanning tree with every edge directed
away from r.  The protocol uses the minimum-weight one (over learned
channel-fault weights) as the routing tree for heartbeat traffic, so the
result must be deterministic: among equal-weight optima we always return
the same tree.

A digraph on nodes 0..n-1 is its n x n weights w, w[u][v] >= 0 for the
edge u -> v (fault counters in the protocol), and its topology in the
form of `Scenario.adjacency`: entry u is the set of u's out-neighbours,
and None means complete.  A self-loop is never an edge.

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

Adjacency = tuple[frozenset[int], ...] | None


class TopologyError(ValueError):
    """The root cannot reach every node, so no spanning arborescence exists."""


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


def _edges(n: int, adjacency: Adjacency) -> list[tuple[int, int]]:
    """Every edge u -> v of the topology, in order of u, then v."""
    return [(u, v) for u in range(n) for v in range(n)
            if u != v and (adjacency is None or v in adjacency[u])]


def _check_instance(n: int, root: int, edges: list[tuple[int, int]]) -> None:
    if not 0 <= root < n:
        raise TopologyError(f"root {root} outside [0, {n})")
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        out[u].append(v)
    seen = {root}
    frontier = [root]
    while frontier:
        for v in out[frontier.pop()]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    missing = set(range(n)) - seen
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


def min_arborescence(w: list[list[int]], root: int,
                     adjacency: Adjacency = None) -> Arborescence:
    """Minimum-weight spanning arborescence rooted at `root`, canonical under ties."""
    n = len(w)
    edges = _edges(n, adjacency)
    _check_instance(n, root, edges)
    arcs = [(u, v, _edge_key(n, w[u][v], u, v, root), i) for i, (u, v) in enumerate(edges)]
    chosen = _solve(n, root, arcs)
    parent_of = {v: u for u, v in (edges[a] for a in chosen)}
    weight = sum(w[u][v] for v, u in parent_of.items())
    return Arborescence(root=root, parent_of=parent_of, weight=weight)


def _acyclic(parent_of: dict[int, int], root: int, n: int) -> bool:
    """True iff every node's chain of parents reaches `root` within n hops."""
    for v in parent_of:
        x, hops = v, 0
        while x != root:
            x = parent_of[x]
            hops += 1
            if hops > n:
                return False
    return True


def brute_force_min_arborescence(w: list[list[int]], root: int,
                                 adjacency: Adjacency = None) -> Arborescence:
    """Exhaustive oracle: enumerate every parent assignment, same canonical order.

    Restricted to n <= 6 (n**(n-1) candidate maps).
    """
    n = len(w)
    if n > 6:
        raise ValueError(f"brute force refuses n={n} > 6")
    edges = _edges(n, adjacency)
    _check_instance(n, root, edges)
    others = [v for v in range(n) if v != root]
    in_choices = [[u for u, head in edges if head == v] for v in others]
    best_key: int | None = None
    best_map: dict[int, int] | None = None
    for combo in itertools.product(*in_choices):
        parent = dict(zip(others, combo))
        if not _acyclic(parent, root, n):
            continue
        key = sum(_edge_key(n, w[u][v], u, v, root) for v, u in parent.items())
        if best_key is None or key < best_key:
            best_key = key
            best_map = parent
    if best_map is None:
        raise TopologyError("no spanning arborescence exists")
    weight = sum(w[u][v] for v, u in best_map.items())
    return Arborescence(root=root, parent_of=dict(best_map), weight=weight)


def validate_arborescence(a: Arborescence, w: list[list[int]],
                          adjacency: Adjacency = None) -> bool:
    """True iff `a` spans the digraph, is acyclic, uses only its edges, and
    its stored weight matches the recomputed edge-weight sum."""
    n = len(w)
    if not a.spans(n):
        return False
    edges = set(_edges(n, adjacency))
    if any((u, v) not in edges for v, u in a.parent_of.items()):
        return False
    return (_acyclic(a.parent_of, a.root, n)
            and a.weight == sum(w[u][v] for v, u in a.parent_of.items()))
