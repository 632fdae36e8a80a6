import random

from cyclebalance.graph import (_SIGN_TOKENS, GraphError, ParseError,
                                SignedDigraph)


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


def with_opposite_reverses(g: SignedDigraph, rng: random.Random
                           ) -> SignedDigraph:
    """g plus, for some arcs (u, v), a reverse arc (v, u) of opposite sign."""
    edges = dict(g.edges)
    for (u, v), s in g.edges.items():
        if u != v and (v, u) not in g.edges and rng.random() < 0.3:
            edges[(v, u)] = -s
    return SignedDigraph(g.vertex_count, edges)


def clustered_graph(structure_seed: int, sign_seed: int, clusters: int = 10,
                    size: int = 20, p_in: float = 0.20, p_neg: float = 0.3
                    ) -> SignedDigraph:
    """Undirected clusters joined in a ring by positive ties.

    ``structure_seed`` draws the ties as acceptance criterion 8 does (42
    gives its graph); ``sign_seed`` makes each in-cluster tie negative with
    probability ``p_neg``.
    """
    rng = random.Random(structure_seed)
    ties = []
    for c in range(clusters):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < p_in:
                    rng.random()  # the criterion's sign draw, unused here
                    ties.append((base + i, base + j))
    signs = random.Random(sign_seed)
    edges = {}
    for u, v in ties:
        edges[(u, v)] = edges[(v, u)] = -1 if signs.random() < p_neg else 1
    for c in range(clusters):
        u, v = c * size, ((c + 1) % clusters) * size + 1
        edges[(u, v)] = edges[(v, u)] = 1
    return SignedDigraph(clusters * size, edges, from_undirected=True)


def neighbourhood(g: SignedDigraph, vertices) -> list[int]:
    """Vertices outside the set touching it by an edge in either direction."""
    inside = set(vertices)
    for v in inside:
        if not 0 <= v < g.vertex_count:
            raise GraphError(f"vertex {v} not in graph")
    return sorted(set().union(*map(g.undirected_neighbours, inside)) - inside)


def reference_parse(text: str, undirected: bool = False,
                    duplicate_policy: str = "reject"):
    """(labels, edge dict) of an edge list by a line-by-line dict parser:
    the reference for ``parse_edge_list``, raising the same ``ParseError``s.
    """
    ids: dict[str, int] = {}
    raw: dict[tuple[int, int], tuple[int, int]] = {}  # pair -> (sign, line)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'src dst sign', got {stripped!r}",
                             lineno)
        su, sv, stok = parts
        sign = _SIGN_TOKENS.get(stok)
        if sign is None:
            raise ParseError(f"sign token {stok!r} not in +1/-1", lineno)
        u = ids.setdefault(su, len(ids))
        v = ids.setdefault(sv, len(ids))
        prev = raw.get((u, v))
        if (prev is not None and prev[0] != sign
                and duplicate_policy == "reject"):
            raise ParseError(f"edge {su}->{sv} conflicts with sign given on "
                             f"line {prev[1]}", lineno)
        # when undirected, (u, v) and (v, u) always hold one sign, so the
        # check above covers the reverse pair too
        raw[(u, v)] = (sign, lineno)
        if undirected:
            raw[(v, u)] = (sign, lineno)
    labels = tuple(sorted(ids, key=ids.get)) or None
    return labels, {pair: sign for pair, (sign, _) in raw.items()}
