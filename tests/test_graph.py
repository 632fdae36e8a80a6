import pickle
import random
from collections import Counter

import numpy as np
import pytest

from cyclebalance.datasets import load_gahuku_gama
from cyclebalance.engine import cycle_census
from cyclebalance.graph import (GraphError, ParseError, SignedDigraph,
                                complete_graph, load_edge_list,
                                parse_edge_list)
from cyclebalance.montecarlo import MonteCarloConfig, run_monte_carlo
from cyclebalance.nullmodel import shuffle_null
from _util import (clustered_graph, neighbourhood, random_signed_digraph,
                   reference_parse, with_opposite_reverses)


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
    assert neighbourhood(path, [1]) == [0, 2]
    directed = parse_edge_list("0 1 1")
    assert neighbourhood(directed, [1]) == [0]  # in-edges count
    k5 = complete_graph(5)
    assert neighbourhood(k5, [0, 1]) == [2, 3, 4]


def test_neighbourhood_disjoint_from_input():
    g = complete_graph(6)
    for vs in ([0], [1, 2], [0, 3, 5]):
        assert not set(neighbourhood(g, vs)) & set(vs)


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


def test_array_and_dict_graphs_agree(rng):
    kinds = Counter()
    for k in range(90):
        g = random_signed_digraph(rng, max_vertices=9, edge_prob=0.35,
                                  loop_prob=0.3, undirected=k % 3 == 0)
        if k % 3 == 2:
            g = with_opposite_reverses(g, rng)
        n, edges = g.vertex_count, dict(g.edges)
        items = [(u, v, s) for (u, v), s in edges.items()]
        rng.shuffle(items)
        arrays = [np.array([a[i] for a in items], dtype=np.int64)
                  for i in range(3)]
        by_dict = SignedDigraph(n, edges, from_undirected=g.from_undirected)
        by_arrays = SignedDigraph(n, arrays, from_undirected=g.from_undirected)
        symmetric = all(edges.get((v, u)) == s for (u, v), s in edges.items())
        for h in (by_dict, by_arrays):
            assert list(zip(*(a.tolist() for a in h.arcs))) == \
                [(u, v, s) for (u, v), s in sorted(edges.items())]
            assert h.symmetric is symmetric
            for v in range(n):
                assert h.out_neighbours(v) == sorted(
                    w for x, w in edges if x == v)
                assert h.undirected_neighbours(v) == sorted(
                    {w for x, w in edges if x == v != w}
                    | {x for x, w in edges if w == v != x})
                assert all(type(w) is int for w in h.undirected_neighbours(v))
            assert [[h.sign(u, v) for v in range(n)] for u in range(n)] == \
                [[edges.get((u, v), 0) for v in range(n)] for u in range(n)]
        assert [c.tolist() for c in by_arrays.bicomponents] == \
            [c.tolist() for c in by_dict.bicomponents]
        opposite = any(edges.get((v, u)) == -s for (u, v), s in edges.items())
        kinds["opposite" if opposite else "symmetric" if symmetric
              else "directed"] += 1
        kinds["loops"] += g.has_self_loops()
        kinds["bicomponents"] += len(by_dict.bicomponents) > 0
    assert min(kinds.values()) >= 15, kinds


def _random_edge_list(rng: random.Random) -> str:
    """Edge-list text with comments, blank lines, string labels, identical
    and conflicting duplicates, reverse pairs, loops and, rarely, a
    malformed line."""
    pool = rng.sample(["0", "1", "2", "3", "17", "a", "bé", "x-1"],
                      rng.randint(1, 6))
    signs = ["1", "+1", "+", "-1", "-", "−1", "−"]
    lines, pairs = [], []
    for _ in range(rng.randint(0, 16)):
        r = rng.random()
        if r < 0.08:
            lines.append(rng.choice(["# note", "  # 0 1 -1", "", "   "]))
        elif r < 0.12:
            lines.append(rng.choice(["0 1", "a b c d", "0 1 2"]))
        else:
            if pairs and r < 0.5:  # an earlier edge again, maybe reversed
                u, v, sign = rng.choice(pairs)
                if rng.random() < 0.5:
                    u, v = v, u
                if rng.random() < 0.3:
                    sign = rng.choice(signs)
            else:
                u, v, sign = rng.choice(pool), rng.choice(pool), rng.choice(signs)
            pairs.append((u, v, sign))
            lines.append(rng.choice([" ", "\t", "  "]).join([u, v, sign]))
    return rng.choice(["\n", "\r\n"]).join(lines)


@pytest.mark.parametrize("undirected", [False, True])
@pytest.mark.parametrize("policy", ["reject", "last"])
def test_parse_matches_the_dict_reference(undirected, policy):
    rng = random.Random(f"{undirected}-{policy}")
    outcomes = Counter()
    for _ in range(500):
        text = _random_edge_list(rng)
        try:
            want = reference_parse(text, undirected, policy)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_edge_list(text, undirected=undirected,
                                duplicate_policy=policy)
            assert (str(got.value), got.value.line_number) == \
                (str(exc), exc.line_number)
            assert type(got.value.line_number) is int
            outcomes["conflict" if "conflicts" in str(exc) else "bad"] += 1
            continue
        g = parse_edge_list(text, undirected=undirected,
                            duplicate_policy=policy)
        assert (g.vertex_labels, dict(g.edges)) == want
        assert g.from_undirected is undirected
        outcomes["graph"] += 1
    assert outcomes["graph"] > 150 and outcomes["bad"] > 20, outcomes
    assert (outcomes["conflict"] > 40) == (policy == "reject"), outcomes


def test_array_route_checks_like_the_dict_route():
    messages = []
    for edges in ({(0, 1): 0}, {(0, 1): 1, (1, 2): 2}, {(0, 3): 1},
                  {(2, 1): 1, (-1, 0): 1}):
        with pytest.raises(GraphError) as by_dict:
            SignedDigraph(3, edges)
        arrays = [np.array([u for u, _ in edges]),
                  np.array([v for _, v in edges]), np.array([*edges.values()])]
        with pytest.raises(GraphError) as by_arrays:
            SignedDigraph(3, arrays)
        assert str(by_arrays.value) == str(by_dict.value)
        messages.append(str(by_dict.value))
    assert messages == ["edge (0, 1) has sign 0, expected +1 or -1",
                        "edge (1, 2) has sign 2, expected +1 or -1",
                        "edge (0, 3) references unknown vertex",
                        "edge (-1, 0) references unknown vertex"]
    with pytest.raises(GraphError, match="an arc is given twice"):
        SignedDigraph(3, [np.array([0, 1, 0]), np.array([1, 2, 1]),
                          np.array([1, 1, -1])])
    g = SignedDigraph(3, [np.array([2, 0]), np.array([1, 1]),
                          np.array([-1, 1])])
    assert dict(g.edges) == {(0, 1): 1, (2, 1): -1}
    with pytest.raises(AttributeError):
        g.vertex_count = 4


def test_induced_subgraph_rejects_ids_a_gather_would_wrap():
    g = complete_graph(4)
    for vertices in (np.array([0, -1]), [0, 4], np.array([4, 1])):
        with pytest.raises(GraphError, match="not in graph"):
            g.induced_subgraph(vertices)


def test_no_consumer_reads_the_edges_view():
    g = clustered_graph(42, 7, clusters=3, size=8)
    cycle_census(g, 5)
    assert "edges" not in vars(g)
    shuffle_null(g, 5, 2, workers=2)
    assert "edges" not in vars(g)
    run_monte_carlo(g, MonteCarloConfig(2, 2, 8, 5), workers=2)
    assert "edges" not in vars(g)
    # built on first read, read-only, and left out when the graph pickles
    assert len(g.edges) == g.edge_count and "edges" in vars(g)
    with pytest.raises(TypeError):
        g.edges[(0, 1)] = 1
    again = pickle.loads(pickle.dumps(g))
    assert "edges" not in vars(again)
    assert all((a == b).all() for a, b in zip(again.arcs, g.arcs))


def test_pickled_graph_keeps_its_arrays_read_only():
    # pool workers receive the graph pickled, with its views of the topology
    g = load_gahuku_gama()
    views = ("arcs", "csr", "_reverse_arcs", "bicomponents")
    before = [getattr(g, name) for name in views]
    again = pickle.loads(pickle.dumps(g))
    for name, want in zip(views, before):
        got = vars(again)[name]
        if name == "_reverse_arcs":
            got, want = (got,), (want,)
        assert len(got) == len(want), name
        for a, b in zip(got, want):
            assert not a.flags.writeable, name
            assert (a == b).all(), name
    assert again.vertex_labels == g.vertex_labels
