import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from cyclebalance import subgraphs
from cyclebalance.datasets import load_gahuku_gama
from cyclebalance.engine import cycle_census
from cyclebalance.graph import SignedDigraph, complete_graph, parse_edge_list
from cyclebalance.subgraphs import (connected_induced_subgraphs,
                                    enumerate_connected_induced_subgraphs,
                                    size_classes)
from _util import neighbourhood, random_signed_digraph


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
            assert visit.neighbour_count == len(neighbourhood(g, visit.vertices))


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


# case -> (graph factory, max_size, visits, sha256 of the sorted visits),
# pinned from the depth-first bitset walk that the size classes replaced:
# the visit order is free, the set of (vertex set, |N(H)|) pairs is not
_GOLDEN_SETS = {
    "tribe-L16": (load_gahuku_gama, 16, 58501,
                  "5ba9e1bfa4dd8505ccf4ab9a653171c2"
                  "330ff2303922a69ece67e55e01aa8e60"),
    "digraph14-L7": (lambda: _seeded_digraph(14, 0.3, 2027, 0.1), 7, 8443,
                     "78fd7788d39260acb0cdc815f07ffd2d"
                     "1b0a51fc7e6984c90abe6d48969e315f"),
    "digraph160-L5": (lambda: _seeded_digraph(160, 0.012, 2027, 0.05), 5,
                      36883,
                      "f2858746467e26e1d1f918d310a9edbc"
                      "0935cb1a1ae074f596ba024bb1b60f7e"),
}


def _visit_digest(g, max_size):
    visits = sorted((tuple(sorted(visit.vertices)), visit.neighbour_count)
                    for visit in connected_induced_subgraphs(g, max_size))
    h = hashlib.sha256()
    for vertices, neighbour_count in visits:
        h.update(f"{vertices}:{neighbour_count};".encode())
    return len(visits), h.hexdigest()


@pytest.mark.parametrize("case", sorted(_GOLDEN_SETS))
def test_visit_multiset_is_pinned(case):
    make_graph, max_size, visits, digest = _GOLDEN_SETS[case]
    assert _visit_digest(make_graph(), max_size) == (visits, digest)


@pytest.mark.parametrize("case", sorted(_GOLDEN_SETS))
def test_each_visit_follows_its_parent(case):
    # the cycle engine builds each subgraph's matrix from its parent's: row i
    # of a class extends row parent[i] of the block's previous class, and
    # the added vertex is one of the block's inner vertices, whose signs the
    # engine tabulates once per block
    make_graph, max_size, _, _ = _GOLDEN_SETS[case]
    up = np.zeros((1, 0), dtype=np.int32)  # class 0: the empty set
    for parent, verts, nb, inner, grows in size_classes(make_graph(),
                                                        max_size):
        if verts.shape[1] == 1:
            up = np.zeros((1, 0), dtype=np.int32)
            block = inner
        assert verts.shape[1] == up.shape[1] + 1
        assert (verts[:, :-1] == up[parent]).all()
        assert len(parent) == len(verts) == len(nb) == len(grows)
        assert inner is block and (np.diff(inner) > 0).all()
        assert np.isin(verts[:, -1], inner).all()
        up = verts


def test_grows_marks_the_parents_of_the_next_class(rng):
    # the cycle engine keeps matrices and traces only for the subgraphs
    # that grow, and looks the children's parents up among them
    graphs = [(load_gahuku_gama(), 16), (load_gahuku_gama(), 6)]
    for undirected in [False, True] * 10:
        g = random_signed_digraph(rng, max_vertices=12, edge_prob=0.3,
                                  loop_prob=0.1, undirected=undirected)
        graphs.append((g, rng.randint(1, g.vertex_count + 1)))
    for g, max_size in graphs:
        classes = list(size_classes(g, max_size))
        for cls, after in zip(classes, classes[1:] + [None]):
            want = np.zeros(len(cls.verts), dtype=bool)
            if after is not None and after.verts.shape[1] > 1:
                want[after.parent] = True
            assert cls.grows.dtype == bool
            assert (cls.grows == want).all()


def test_blocks_forced_by_the_smallest_word_budget(monkeypatch):
    # one word a mask: each of the 160 roots is a block, most with a ball
    # wider than the word
    monkeypatch.setattr(subgraphs, "_WORD_BUDGET", 1)
    make_graph, max_size, visits, digest = _GOLDEN_SETS["digraph160-L5"]
    g = make_graph()
    blocks = sum(cls.verts.shape[1] == 1
                 for cls in size_classes(g, max_size))
    assert blocks > 1
    assert _visit_digest(g, max_size) == (visits, digest)


# tracemalloc peak of enumerating the 20,000-vertex graph below at L=3: each
# block's neighbour masks stay under 2 MB (subgraphs._WORD_BUDGET), where one
# 20,000-bit mask per vertex took 39 MB
_SPARSE_PEAK_BYTES = 12 * 2**20
# and of its census: the engine's sign table spans one block's inner
# vertices (1.4 MB here), where a table of all vertex pairs would take 400 MB
_SPARSE_CENSUS_PEAK_BYTES = 40 * 2**20


def _sparse_signed_graph(n, m, seed):
    """Undirected graph of n vertices and m random edges, 70% positive."""
    rng = random.Random(seed)
    edges = {}
    while len(edges) < 2 * m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in edges:
            edges[(u, v)] = edges[(v, u)] = 1 if rng.random() < 0.7 else -1
    return SignedDigraph(n, edges, from_undirected=True)


def _traced_peak(run):
    """What ``run()`` returns, and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_graph_memory_stays_bounded():
    g = _sparse_signed_graph(20_000, 40_000, 1)
    count, peak = _traced_peak(
        lambda: enumerate_connected_induced_subgraphs(g, 3))
    assert count > 20_000
    assert peak < _SPARSE_PEAK_BYTES, peak
    census, peak = _traced_peak(lambda: cycle_census(g, 3))
    assert census.total(2) == 40_000
    assert peak < _SPARSE_CENSUS_PEAK_BYTES, peak


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
        assert visit.neighbour_count == len(neighbourhood(g, visit.vertices))
        visited.append(frozenset(visit.vertices))
    assert len(visited) == len(set(visited))
    assert max(max(s) for s in visited if len(s) > 1) > 128
    assert set(visited) == _connected_sets_by_growth(g, 4)
