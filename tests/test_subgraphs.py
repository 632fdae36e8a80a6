import hashlib
import itertools
import random

import pytest

from cyclebalance.datasets import load_gahuku_gama
from cyclebalance.graph import SignedDigraph, complete_graph, parse_edge_list
from cyclebalance.subgraphs import (connected_induced_subgraphs,
                                    enumerate_connected_induced_subgraphs)
from _util import random_signed_digraph


def _brute_connected_subsets(g, max_size):
    """All weakly connected vertex subsets, by exhaustive check."""
    found = set()
    for k in range(1, max_size + 1):
        for subset in itertools.combinations(range(g.vertex_count), k):
            inside = set(subset)
            seen = {subset[0]}
            frontier = [subset[0]]
            while frontier:
                v = frontier.pop()
                for w in g.undirected_neighbours(v):
                    if w in inside and w not in seen:
                        seen.add(w)
                        frontier.append(w)
            if seen == inside:
                found.add(subset)
    return found


def test_path_graph_example():
    path = parse_edge_list("0 1 1\n1 2 1", undirected=True)
    visits = list(connected_induced_subgraphs(path, 3))
    got = sorted(tuple(sorted(v.vertices)) for v in visits)
    assert got == [(0,), (0, 1), (0, 1, 2), (1,), (1, 2), (2,)]


def test_complete_graph_all_subsets():
    k4 = complete_graph(4)
    assert enumerate_connected_induced_subgraphs(k4, 4) == 2 ** 4 - 1


def test_directed_chain_weak_connectivity():
    chain = parse_edge_list("0 1 1\n1 2 1")
    got = sorted(tuple(sorted(v.vertices))
                 for v in connected_induced_subgraphs(chain, 2))
    assert got == [(0,), (0, 1), (1,), (1, 2), (2,)]


def test_neighbour_counts_match_definition(rng):
    for _ in range(30):
        g = random_signed_digraph(rng, max_vertices=8, edge_prob=0.35)
        for visit in connected_induced_subgraphs(g, g.vertex_count):
            assert visit.neighbour_count == len(g.neighbourhood(visit.vertices))


def test_each_subgraph_visited_exactly_once(rng):
    for _ in range(25):
        g = random_signed_digraph(rng, max_vertices=9, edge_prob=0.3)
        max_size = rng.randint(1, g.vertex_count)
        seen = [tuple(sorted(v.vertices))
                for v in connected_induced_subgraphs(g, max_size)]
        assert len(seen) == len(set(seen))
        assert set(seen) == _brute_connected_subsets(g, max_size)


def test_empty_graph_yields_nothing():
    g = SignedDigraph(0, {})
    assert enumerate_connected_induced_subgraphs(g, 3) == 0


def test_max_size_validation():
    with pytest.raises(ValueError):
        enumerate_connected_induced_subgraphs(complete_graph(3), 0)


def test_sparse_count_respects_degree_bound():
    # visit count <= N * Delta^l / ((Delta-1) l^2) * safety slack, Delta >= 2
    rng = random.Random(5)
    for _ in range(10):
        g = random_signed_digraph(rng, max_vertices=12, edge_prob=0.18,
                                  undirected=True)
        delta = max((len(g.undirected_neighbours(v))
                     for v in range(g.vertex_count)), default=0)
        if delta < 2:
            continue
        ell = 5
        count = enumerate_connected_induced_subgraphs(g, ell)
        bound = g.vertex_count * delta ** ell / ((delta - 1) * ell ** 2)
        assert count <= 40 * bound


def test_deterministic_order(rng):
    g = random_signed_digraph(rng, max_vertices=8, edge_prob=0.4)
    first = [v.vertices for v in connected_induced_subgraphs(g, 4)]
    second = [v.vertices for v in connected_induced_subgraphs(g, 4)]
    assert first == second


def _seeded_digraph(n, edge_prob, seed, loop_prob):
    return random_signed_digraph(random.Random(seed), edge_prob=edge_prob,
                                 loop_prob=loop_prob, vertices=n)


# case -> (graph factory, max_size, visits, sha256 of the visit sequence),
# pinned from the earlier list-based recursive enumerator: the documented
# visit order must not change
_GOLDEN_ORDER = {
    "tribe-L16": (load_gahuku_gama, 16, 58501,
                  "f68fdf200e0f45aa5c3e41787e12b427"
                  "2c050982c4d746f72f57da907a5587f7"),
    "digraph14-L7": (lambda: _seeded_digraph(14, 0.3, 2027, 0.1), 7, 8443,
                     "8114831cb735223777e593eab9be7d8f"
                     "2a939b13f5758b5fb35587fc694e8e74"),
    "digraph160-L5": (lambda: _seeded_digraph(160, 0.012, 2027, 0.05), 5,
                      36883,
                      "688a916a34cd976488d08073285550ad"
                      "e5b77182305999fc580c13f57dc9df7b"),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_ORDER))
def test_visit_order_is_pinned(case):
    make_graph, max_size, visits, digest = _GOLDEN_ORDER[case]
    h = hashlib.sha256()
    count = 0
    for visit in connected_induced_subgraphs(make_graph(), max_size):
        h.update(f"{visit.vertices}:{visit.neighbour_count};".encode())
        count += 1
    assert (count, h.hexdigest()) == (visits, digest)


def _connected_sets_by_growth(g, max_size):
    """Connected vertex sets of size <= max_size, breadth first: each size's
    sets are the previous size's sets plus one neighbour."""
    level = {frozenset([v]) for v in range(g.vertex_count)}
    found = set(level)
    for _ in range(max_size - 1):
        level = {s | {w} for s in level for v in s
                 for w in g.undirected_neighbours(v) if w not in s}
        found |= level
    return found


def test_masks_wider_than_a_machine_word():
    g = _seeded_digraph(160, 0.012, 99, 0.05)
    visited = []
    for visit in connected_induced_subgraphs(g, 4):
        assert visit.neighbour_count == len(g.neighbourhood(visit.vertices))
        visited.append(frozenset(visit.vertices))
    assert len(visited) == len(set(visited))
    assert max(max(s) for s in visited if len(s) > 1) > 128
    assert set(visited) == _connected_sets_by_growth(g, 4)
