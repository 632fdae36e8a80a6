import random

import numpy as np
import pytest

from cyclebalance.graph import (GraphError, ParseError, SignedDigraph,
                                complete_graph, load_edge_list,
                                parse_edge_list)
from _util import random_signed_digraph, with_opposite_reverses


def test_parse_basic():
    g = parse_edge_list("0 1 1\n1 2 -1")
    assert g.vertex_count == 3
    assert g.edge_count == 2
    assert g.sign(0, 1) == 1
    assert g.sign(1, 2) == -1
    assert g.negative_edge_fraction() == pytest.approx(1 / 2)


def test_parse_collapses_identical_duplicates():
    g = parse_edge_list("0 1 1\n0 1 1")
    assert g.vertex_count == 2
    assert g.edge_count == 1


def test_parse_conflicting_duplicate_rejected_with_line_number():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("0 1 1\n0 1 -1")
    assert exc.value.line_number == 2


def test_parse_last_wins_policy():
    g = parse_edge_list("0 1 1\n0 1 -1", duplicate_policy="last")
    assert g.sign(0, 1) == -1


def test_parse_sign_tokens_and_comments():
    g = parse_edge_list("# header\na b +1\nb c −1\n\nc a -1")
    assert g.vertex_count == 3
    assert g.vertex_labels == ("a", "b", "c")
    assert g.sign(1, 2) == -1


def test_parse_malformed_line_reports_number():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("0 1 1\n0 1")
    assert exc.value.line_number == 2
    with pytest.raises(ParseError):
        parse_edge_list("0 1 2")


def test_induced_subgraph_identity_and_pair():
    tri = parse_edge_list("0 1 1\n0 2 1\n1 2 -1", undirected=True)
    whole, mapping = tri.induced_subgraph([0, 1, 2])
    assert mapping == [0, 1, 2]
    assert dict(whole.edges) == dict(tri.edges)
    pair, mapping = tri.induced_subgraph([0, 1])
    assert pair.vertex_count == 2
    assert dict(pair.edges) == {(0, 1): 1, (1, 0): 1}
    empty, _ = tri.induced_subgraph([])
    assert empty.vertex_count == 0 and empty.edge_count == 0


def test_induced_subgraph_invalid_vertex():
    g = parse_edge_list("0 1 1")
    with pytest.raises(GraphError):
        g.induced_subgraph([0, 5])


def test_neighbourhood_path_and_direction():
    path = parse_edge_list("0 1 1\n1 2 1", undirected=True)
    assert path.neighbourhood([1]) == [0, 2]
    directed = parse_edge_list("0 1 1")
    assert directed.neighbourhood([1]) == [0]  # in-edges count
    k5 = complete_graph(5)
    assert k5.neighbourhood([0, 1]) == [2, 3, 4]


def test_neighbourhood_disjoint_from_input():
    g = complete_graph(6)
    for vs in ([0], [1, 2], [0, 3, 5]):
        assert not set(g.neighbourhood(vs)) & set(vs)


def test_negative_fraction_cases():
    assert complete_graph(4).negative_edge_fraction() == 0.0
    tri = parse_edge_list("0 1 1\n0 2 1\n1 2 -1", undirected=True)
    assert tri.negative_edge_fraction() == pytest.approx(1 / 3)
    g = parse_edge_list("0 1 1\n1 2 1\n2 3 1\n3 0 -1")
    assert g.negative_edge_fraction() == 0.25
    with pytest.raises(GraphError):
        SignedDigraph(3, {}).negative_edge_fraction()


def test_round_trip_serialization(tmp_path):
    g = parse_edge_list("0 1 1\n1 2 -1\n2 0 1\n0 0 -1")
    path = tmp_path / "g.tsv"
    path.write_text("".join(f"{u} {v} {s:+d}\n"
                            for (u, v), s in sorted(g.edges.items())))
    again = load_edge_list(path)
    assert dict(again.edges) == dict(g.edges)
    assert again.vertex_count == g.vertex_count


def test_arcs_and_symmetric_match_their_definitions(rng):
    seen = {True: 0, False: 0}
    for k in range(60):
        g = random_signed_digraph(rng, max_vertices=8, edge_prob=0.35,
                                  loop_prob=0.3, undirected=k % 3 == 0)
        if k % 3 == 1:
            g = with_opposite_reverses(g, rng)
        tails, heads, signs = g.arcs
        assert (tails.dtype, heads.dtype, signs.dtype) == \
            (np.int64, np.int64, np.int8)
        assert list(zip(zip(tails.tolist(), heads.tolist()),
                        signs.tolist())) == sorted(g.edges.items())
        for a in g.arcs:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[:1] = 0
        assert g.arcs is g.arcs  # computed once
        symmetric = all(g.edges.get((v, u)) == s
                        for (u, v), s in g.edges.items())
        assert g.symmetric is symmetric
        assert (g.adjacency() == g.adjacency().T).all() == symmetric
        seen[symmetric] += 1
    assert min(seen.values()) > 10


def test_undirected_flag_names_an_unmatched_edge():
    cases = [({(0, 1): 1, (1, 0): 1, (1, 2): -1}, "(1, 2)"),
             ({(0, 1): 1, (1, 0): 1, (2, 1): -1}, "(2, 1)"),
             ({(2, 2): 1, (1, 2): 1, (2, 1): -1}, "(1, 2)"),
             ({(0, 0): -1, (0, 2): -1, (2, 0): 1}, "(0, 2)")]
    for edges, named in cases:
        with pytest.raises(GraphError) as exc:
            SignedDigraph(3, edges, from_undirected=True)
        assert str(exc.value) == (f"graph flagged undirected but {named} "
                                  f"lacks a matching reverse edge of equal "
                                  f"sign")
        assert not SignedDigraph(3, edges).symmetric


def test_parse_undirected_conflict_names_both_lines():
    with pytest.raises(ParseError, match="edge 1->0 conflicts with sign "
                       "given on line 1") as exc:
        parse_edge_list("0 1 1\n1 0 -1", undirected=True)
    assert exc.value.line_number == 2
    g = parse_edge_list("0 1 1\n1 0 -1", undirected=True,
                        duplicate_policy="last")
    assert dict(g.edges) == {(0, 1): -1, (1, 0): -1}


def test_induced_subgraph_matches_definition(rng):
    for _ in range(30):
        g = random_signed_digraph(rng, max_vertices=8, edge_prob=0.4,
                                  loop_prob=0.3)
        vs = rng.sample(range(g.vertex_count), rng.randint(0, g.vertex_count))
        sub, order = g.induced_subgraph(vs)
        assert order == vs
        assert dict(sub.edges) == {
            (i, j): g.edges[(u, v)] for i, u in enumerate(vs)
            for j, v in enumerate(vs) if (u, v) in g.edges}


def test_bicomponents_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    several = isolated = 0
    for undirected in [False] * 80 + [True] * 80:
        # two random graphs side by side, joined by an edge or not
        a, b = (random_signed_digraph(rng, max_vertices=10,
                                      edge_prob=rng.choice((0.15, 0.3, 0.45)),
                                      loop_prob=0.2, undirected=undirected)
                for _ in range(2))
        n = a.vertex_count + b.vertex_count
        edges = dict(a.edges)
        edges.update(((u + a.vertex_count, v + a.vertex_count), s)
                     for (u, v), s in b.edges.items())
        if rng.random() < 0.5:
            u, v = rng.randrange(a.vertex_count), rng.randrange(n)
            edges[(u, v)] = edges[(v, u)] = 1
        g = SignedDigraph(n, edges)
        und = nx.Graph()
        und.add_nodes_from(range(n))
        und.add_edges_from((u, v) for u, v in edges if u != v)
        want = sorted(sorted(c) for c in nx.biconnected_components(und)
                      if len(c) >= 3)
        assert [c.tolist() for c in g.bicomponents] == want
        assert all(c.dtype == np.int64 and not c.flags.writeable
                   for c in g.bicomponents)
        several += len(want) > 1
        isolated += any(not und.degree(v) for v in und)
    assert several > 20 and isolated > 20


def test_bicomponents_of_a_long_ring_with_a_pendant_path():
    # deeper than Python's recursion limit: the walk must not recurse
    edges = {}
    for u in range(4999):  # the path 0..4999
        edges[(u, u + 1)] = edges[(u + 1, u)] = 1
    edges[(4899, 0)] = edges[(0, 4899)] = 1  # closes the ring 0..4899
    g = SignedDigraph(5000, edges, from_undirected=True)
    (ring,) = g.bicomponents
    assert ring.tolist() == list(range(4900))
