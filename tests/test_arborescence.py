import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpo.arborescence import (
    Arborescence,
    TopologyError,
    brute_force_min_arborescence,
    min_arborescence,
    validate_arborescence,
)


def random_graph(rng: random.Random, n: int, wmax: int = 9) -> list[list[int]]:
    return [[rng.randint(0, wmax) if u != v else 0 for v in range(n)] for u in range(n)]


def zeros(n: int) -> list[list[int]]:
    return [[0] * n for _ in range(n)]


def test_two_nodes_trivial():
    a = min_arborescence(zeros(2), 0)
    assert a.parent_of == {1: 0}
    assert a.weight == 0


def test_uniform_weights_total():
    # all weights equal c: any spanning arborescence costs (n-1)*c
    c = 7
    g = [[c] * 4 for _ in range(4)]
    a = min_arborescence(g, 0)
    assert a.weight == 3 * c
    assert validate_arborescence(a, g)


def test_known_instance_matches_oracle():
    w = [[10] * 4 for _ in range(4)]
    w[0][1], w[0][2], w[0][3] = 5, 1, 9
    w[1][2], w[1][3] = 4, 2
    w[2][1], w[2][3] = 1, 8
    w[3][0] = w[3][1] = w[3][2] = 7
    for u in range(4):
        w[u][u] = 0
    fast = min_arborescence(w, 0)
    slow = brute_force_min_arborescence(w, 0)
    assert fast.weight == slow.weight
    assert fast.parent_of == slow.parent_of
    assert validate_arborescence(fast, w)


def test_brute_force_small_cases():
    assert brute_force_min_arborescence(zeros(2), 0).parent_of == {1: 0}
    assert brute_force_min_arborescence(zeros(3), 1).weight == 0


def test_brute_force_refuses_large_n():
    with pytest.raises(ValueError):
        brute_force_min_arborescence(zeros(7), 0)


def test_oracle_equivalence_many_seeds():
    rng = random.Random(0xA5B)
    for _ in range(200):
        n = rng.randint(2, 5)
        root = rng.randrange(n)
        g = random_graph(rng, n)
        fast = min_arborescence(g, root)
        slow = brute_force_min_arborescence(g, root)
        assert fast.weight == slow.weight
        assert fast.parent_of == slow.parent_of


def test_determinism():
    rng = random.Random(17)
    g = random_graph(rng, 5)
    a1 = min_arborescence(g, 2)
    a2 = min_arborescence(g, 2)
    assert a1.parent_of == a2.parent_of
    assert a1.weight == a2.weight


def test_monotonicity_single_edge_increase():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 5)
        g = random_graph(rng, n)
        base = min_arborescence(g, 0).weight
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        g[u][v] += rng.randint(1, 5)
        assert min_arborescence(g, 0).weight >= base


def test_validate_rejects_cycle_and_stale_weight():
    g = zeros(3)
    star = Arborescence(root=0, parent_of={1: 0, 2: 0}, weight=0)
    assert validate_arborescence(star, g)
    two_cycle = Arborescence(root=0, parent_of={1: 2, 2: 1}, weight=0)
    assert not validate_arborescence(two_cycle, g)
    stale = Arborescence(root=0, parent_of={1: 0, 2: 0}, weight=5)
    assert not validate_arborescence(stale, g)


def test_validate_rejects_a_missing_node_and_an_edge_the_topology_lacks():
    g = zeros(3)
    assert not validate_arborescence(Arborescence(root=0, parent_of={1: 0}, weight=0), g)
    chain = Arborescence(root=0, parent_of={1: 0, 2: 1}, weight=0)
    assert validate_arborescence(chain, g)
    no_1_to_2 = (frozenset({1, 2}), frozenset({0}), frozenset({0}))
    assert not validate_arborescence(chain, g, no_1_to_2)


def test_unreachable_root_raises():
    adjacency = (frozenset({1}), frozenset(), frozenset())
    with pytest.raises(TopologyError):
        min_arborescence(zeros(3), 0, adjacency)
    with pytest.raises(TopologyError, match="root 3 outside"):
        min_arborescence(zeros(3), root=3)


def test_non_complete_topology_matches_oracle():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 5)
        allowed = {(u, v) for u in range(n) for v in range(n)
                   if u != v and rng.random() < 0.7}
        # keep the instance solvable: star edges from the root always present
        allowed |= {(0, v) for v in range(1, n)}
        w = [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)]
        adjacency = tuple(frozenset(v for v in range(n) if (u, v) in allowed)
                          for u in range(n))
        fast = min_arborescence(w, 0, adjacency)
        slow = brute_force_min_arborescence(w, 0, adjacency)
        assert fast.parent_of == slow.parent_of


def test_children_of():
    a = Arborescence(root=1, parent_of={0: 1, 2: 1, 3: 2}, weight=0)
    assert a.children_of(1) == (0, 2)
    assert a.children_of(2) == (3,)
    assert a.children_of(3) == ()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_output_always_validates(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n)
    root = rng.randrange(n)
    a = min_arborescence(g, root)
    assert validate_arborescence(a, g)
    assert a.weight == brute_force_min_arborescence(g, root).weight
