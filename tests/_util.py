import random

from cyclebalance.graph import SignedDigraph


def random_signed_digraph(rng: random.Random, max_vertices: int = 9,
                          edge_prob: float = 0.3, loop_prob: float = 0.0,
                          undirected: bool = False,
                          vertices: int | None = None) -> SignedDigraph:
    """Random signed graph on ``vertices`` vertices, or on 1..max_vertices."""
    n = vertices if vertices is not None else rng.randint(1, max_vertices)
    edges = {}
    for u in range(n):
        for v in range(n):
            if u == v:
                if loop_prob and rng.random() < loop_prob:
                    edges[(u, u)] = rng.choice((1, -1))
            elif undirected:
                if v > u and rng.random() < edge_prob:
                    s = rng.choice((1, -1))
                    edges[(u, v)] = edges[(v, u)] = s
            elif rng.random() < edge_prob:
                edges[(u, v)] = rng.choice((1, -1))
    return SignedDigraph(n, edges, from_undirected=undirected)
