import random
from fractions import Fraction

import numpy as np
import pytest

from cyclebalance import orbits
from cyclebalance.engine import (CycleEngineError, balance_table,
                                 cycle_census)
from cyclebalance.graph import (GraphError, SignedDigraph, complete_graph,
                                parse_edge_list)
from cyclebalance.orbits import (hashimoto_matrix, mobius,
                                 primitive_orbit_counts, walk_ratios,
                                 weighted_degree_of_balance)
from _util import random_signed_digraph, stark_terras_orbit_walks

TRIAD = parse_edge_list("0 1 1\n0 2 1\n1 2 -1", undirected=True)
TRIANGLE = parse_edge_list("0 1 1\n0 2 1\n1 2 1", undirected=True)


def test_hashimoto_triangle():
    t = hashimoto_matrix(TRIANGLE)
    assert t.shape == (6, 6)
    assert all((t[i] != 0).sum() == 1 for i in range(6))
    assert np.trace(t) == 0
    assert np.trace(t @ t) == 0
    assert np.trace(t @ t @ t) == 6


def test_hashimoto_single_edge_zero():
    g = parse_edge_list("0 1 1", undirected=True)
    t = hashimoto_matrix(g)
    assert t.shape == (2, 2)
    assert not t.any()


def test_hashimoto_directed_three_cycle():
    g = parse_edge_list("0 1 1\n1 2 1\n2 0 1")
    t = hashimoto_matrix(g)
    assert t.shape == (3, 3)
    assert np.trace(np.linalg.matrix_power(t, 3)) == 3


def test_hashimoto_trace_invariants_random(rng):
    for _ in range(25):
        g = random_signed_digraph(rng, max_vertices=7, edge_prob=0.35)
        if g.has_self_loops() or g.edge_count == 0:
            continue
        t = hashimoto_matrix(g)
        assert np.trace(t) == 0
        assert np.trace(t @ t) == 0


def test_hashimoto_matches_definition_entrywise(rng):
    sizes = []
    for k in range(40):
        g = random_signed_digraph(rng, max_vertices=8, edge_prob=0.4,
                                  undirected=k % 2 == 0)
        t = hashimoto_matrix(g)
        assert t.dtype == np.int64
        assert t.shape == (g.edge_count,) * 2
        # rows and columns follow the arcs, sorted by (tail, head)
        index = sorted(g.edges)
        for i, (u, v) in enumerate(index):
            for j, (x, w) in enumerate(index):
                moves = x == v and w != u
                assert t[i, j] == (g.edges[(u, v)] if moves else 0)
        sizes.append(g.edge_count)
    assert sum(sizes) > 300


def test_hashimoto_rejects_loops():
    g = parse_edge_list("0 0 1\n0 1 1")
    with pytest.raises(GraphError):
        hashimoto_matrix(g)
    # stripping loops makes it valid
    hashimoto_matrix(g.without_self_loops())


def test_mobius_values():
    assert [mobius(n) for n in range(1, 13)] == \
        [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    with pytest.raises(ValueError):
        mobius(0)


def test_orbits_triangle_and_triad():
    oc = primitive_orbit_counts(TRIANGLE, 3)
    assert (oc.n_pos(3), oc.n_neg(3)) == (2, 0)
    oc = primitive_orbit_counts(TRIAD, 3)
    assert (oc.n_pos(3), oc.n_neg(3)) == (0, 2)
    # no closed non-backtracking walk is shorter than 3
    for ell in (1, 2):
        assert (oc.n_pos(ell), oc.n_neg(ell)) == (0, 0)
    assert balance_table(oc).row(3).ratio_negative == 1


def test_orbits_equal_cycles_up_to_five(rng):
    for _ in range(30):
        g = random_signed_digraph(rng, max_vertices=8, edge_prob=0.3)
        if g.edge_count == 0:
            continue
        cc = cycle_census(g, 5)
        oc = primitive_orbit_counts(g, 5)
        for ell in (3, 4, 5):
            assert (oc.n_pos(ell), oc.n_neg(ell)) == \
                (cc.n_pos(ell), cc.n_neg(ell))


def test_orbit_trace_round_trip(rng):
    # divisor-sum reconstruction: l^-1 Tr|T|^l = sum_{k|l} N_{l/k} / k must
    # invert the Mobius step for orbit totals; K9 reaches all four dtypes
    graphs = [random_signed_digraph(rng, max_vertices=7, edge_prob=0.4,
                                    undirected=True) for _ in range(10)]
    for g, max_length in [(g, 8) for g in graphs] + [(complete_graph(9), 20)]:
        if g.edge_count == 0:
            continue
        tu = np.abs(hashimoto_matrix(g)).astype(object)
        oc = primitive_orbit_counts(g, max_length)
        power = tu.copy()
        for l in range(1, max_length + 1):
            recon = sum(Fraction(oc.total(l // k), k) for k in range(1, l + 1)
                        if l % k == 0 and l // k >= 3)
            assert Fraction(int(power.trace()), l) == recon, l
            power = power @ tu


def _fake_power_traces(counts, off=None):
    """A stand-in for the engine's trace routine that yields (S_l, U_l),
    S_l = sum_{j | l} j (N^+_j + (-1)^(l/j) N^-_j) and U_l = sum_{j | l}
    j (N^+_j + N^-_j), from counts[j] = (N^+_j, N^-_j); ``off`` = (l, w)
    adds 1 to S_l (w = 0) or U_l (w = 1)."""
    def power_traces(mats, lo, hi):
        for ell in range(lo, hi + 1):
            tr = np.zeros(2, dtype=object)
            for j in range(1, ell + 1):
                if ell % j == 0:
                    pos, neg = counts[j]
                    tr += [j * (pos + (-1) ** (ell // j) * neg),
                           j * (pos + neg)]
            if off is not None and off[0] == ell:
                tr[off[1]] += 1
            yield tr
    return power_traces


def test_orbit_counts_invert_traces_at_l20(rng, monkeypatch):
    # lengths 1 and 2 hold no orbit
    counts = {j: (0, 0) if j < 3 else
              (rng.randrange(3**j), rng.randrange(3**j)) for j in range(1, 21)}
    monkeypatch.setattr(orbits, "_power_traces", _fake_power_traces(counts))
    oc = primitive_orbit_counts(TRIANGLE, 20)
    assert [(oc.n_pos(j), oc.n_neg(j)) for j in range(1, 21)] == \
        [counts[j] for j in range(1, 21)]
    # one trace off by 1 breaks divisibility at its length, or parity
    for ell in range(1, 21):
        for w in (0, 1):
            monkeypatch.setattr(orbits, "_power_traces",
                                _fake_power_traces(counts, (ell, w)))
            with pytest.raises(CycleEngineError):
                primitive_orbit_counts(TRIANGLE, 20)


def test_walk_ratios_negative_k20_all_dtypes(widened):
    # |A| = J - I has eigenvalues 19 and -1 (19 times); every closed walk
    # of an all-negative graph has sign (-1)^l.  Up to length 30 the half
    # powers themselves pass through all four dtypes.
    rows = walk_ratios(complete_graph(20, -1), 30)
    for ell, row in enumerate(rows, start=1):
        total = 19**ell + 19 * (-1) ** ell
        assert (row.n_pos, row.n_neg) == \
            ((total, 0) if ell % 2 == 0 else (0, total)), ell
    assert widened == {np.dtype(np.float32), np.dtype(np.float64),
                       np.dtype(np.int64), np.dtype(object)}


def test_orbits_negative_k9_all_dtypes(widened):
    negative = primitive_orbit_counts(complete_graph(9, -1), 20)
    assert widened == {np.dtype(np.float32), np.dtype(np.float64),
                       np.dtype(np.int64), np.dtype(object)}
    positive = primitive_orbit_counts(complete_graph(9), 20)
    for ell in range(3, 21):
        total = positive.total(ell)
        assert total > 0
        assert (negative.n_pos(ell), negative.n_neg(ell)) == \
            ((total, 0) if ell % 2 == 0 else (0, total)), ell


def test_stark_terras_identities(rng):
    for _ in range(20):
        g = random_signed_digraph(rng, max_vertices=7, edge_prob=0.4,
                                  undirected=True)
        if g.edge_count == 0:
            continue
        ts = hashimoto_matrix(g).astype(object)
        tu = np.abs(ts)
        walks = stark_terras_orbit_walks(g, 10)
        ps, pu = ts.copy(), tu.copy()
        for ell in range(1, 11):
            wp, wm = walks[ell - 1]
            assert wp - wm == int(ps.trace())
            assert wp + wm == int(pu.trace())
            ps = ps @ ts
            pu = pu @ tu


def test_stark_terras_all_positive_triangle():
    walks = stark_terras_orbit_walks(TRIANGLE, 6)
    assert all(wm == 0 for _, wm in walks)
    assert walks[2][0] == 6


def test_stark_terras_rejects_directed():
    g = parse_edge_list("0 1 1\n1 2 1")
    with pytest.raises(GraphError):
        stark_terras_orbit_walks(g, 4)


def test_walk_ratios_triad():
    rows = walk_ratios(TRIAD, 3)
    assert rows[0].ratio_negative is None           # no closed 1-walks
    assert rows[1].ratio_negative == 0.0
    assert rows[2].ratio_negative == 1.0


def test_walk_ratios_all_positive(rng):
    for _ in range(10):
        g = random_signed_digraph(rng, max_vertices=6, edge_prob=0.4)
        posized = SignedDigraph(g.vertex_count,
                                {e: 1 for e in g.edges},
                                from_undirected=g.from_undirected)
        for row in walk_ratios(posized, 5):
            if row.ratio_negative is not None:
                assert row.ratio_negative == 0.0


def test_weighted_degree_of_balance_triad():
    k, u = weighted_degree_of_balance(TRIAD)
    assert abs(u - 0.19) <= 0.005
    assert -1.0 <= k <= 1.0


def test_weighted_degree_all_positive():
    # the star's hub degree 800 is far above its Perron root sqrt(800): as
    # the exponentials' shift it would underflow both traces to 0
    star = SignedDigraph(801, {e: 1 for v in range(1, 801)
                               for e in ((0, v), (v, 0))},
                         from_undirected=True)
    for g in (TRIANGLE, star):
        k, u = weighted_degree_of_balance(g)
        assert k == pytest.approx(1.0, abs=1e-12)
        assert u == pytest.approx(0.0, abs=1e-12)


def test_weighted_degree_gauge_invariance(rng):
    # flipping signs across a vertex bipartition is a similarity transform
    # by a diagonal +-1 matrix; K is unchanged
    for _ in range(10):
        g = random_signed_digraph(rng, max_vertices=7, edge_prob=0.4,
                                  undirected=True)
        if g.edge_count == 0:
            continue
        flip = [rng.choice((1, -1)) for _ in range(g.vertex_count)]
        flipped = SignedDigraph(
            g.vertex_count,
            {(u, v): s * flip[u] * flip[v] for (u, v), s in g.edges.items()},
            from_undirected=True)
        k1, _ = weighted_degree_of_balance(g)
        k2, _ = weighted_degree_of_balance(flipped)
        assert k1 == pytest.approx(k2, abs=1e-9)


def test_weighted_degree_size_cap(monkeypatch):
    g = parse_edge_list("0 1 1", undirected=True)
    monkeypatch.setattr(orbits, "EXPM_CAP", 1)
    with pytest.raises(GraphError):
        weighted_degree_of_balance(g)


def test_weighted_degree_refuses_empty_graph():
    with pytest.raises(GraphError, match="no vertices"):
        weighted_degree_of_balance(SignedDigraph(0, {}))


def test_orbits_refuse_hashimoto_above_dense_cap(monkeypatch):
    monkeypatch.setattr(orbits, "DENSE_CAP", 5)
    with pytest.raises(GraphError, match="dense cap 5"):
        primitive_orbit_counts(TRIANGLE, 3)
    monkeypatch.setattr(orbits, "DENSE_CAP", 6)
    assert primitive_orbit_counts(TRIANGLE, 3).n_pos(3) == 2


def test_walk_ratios_refuse_graphs_above_dense_cap(monkeypatch):
    n = orbits.DENSE_CAP + 1
    path = SignedDigraph(n, (np.arange(n - 1), np.arange(1, n),
                             np.ones(n - 1, np.int8)))
    dense = []
    monkeypatch.setattr(SignedDigraph, "adjacency",
                        lambda *args, **kwargs: dense.append(args))
    with pytest.raises(GraphError, match=f"size cap {orbits.DENSE_CAP}"):
        walk_ratios(path, 3)
    assert dense == []  # refused before the dense matrix
    monkeypatch.undo()
    monkeypatch.setattr(orbits, "DENSE_CAP", 3)  # a graph at the cap counts
    assert walk_ratios(TRIAD, 3)[2].ratio_negative == 1.0


def test_weighted_degree_dense_720_vertices_is_finite():
    # the spectral radius 719 overflows an unshifted exponential series
    r = random.Random(1)
    edges = {}
    for u in range(720):
        for v in range(u + 1, 720):
            edges[u, v] = edges[v, u] = 1 if r.random() < 0.7 else -1
    g = SignedDigraph(720, edges, from_undirected=True)
    k, _ = weighted_degree_of_balance(g)
    a = g.adjacency(dtype=np.float64)
    lam = np.linalg.eigvalsh(a)
    mu = np.linalg.eigvalsh(np.abs(a))
    want = np.exp(lam - mu.max()).sum() / np.exp(mu - mu.max()).sum()
    assert 0 < want < 1e-100
    assert k == pytest.approx(want, rel=1e-9, abs=0)


def _direct_orbit_counts(g, max_length):
    """Independent orbit oracle: enumerate closed non-backtracking edge
    walks, keep one representative per rotation class, drop powers."""
    edges = sorted(g.edges)
    idx = {e: i for i, e in enumerate(edges)}
    succ = {}
    for (u, v) in edges:
        succ[(u, v)] = [(v, w) for w in g.out_neighbours(v)
                        if w != u and (v, w) in idx]
    counts = {l: [0, 0] for l in range(3, max_length + 1)}

    def is_power(seq):
        n = len(seq)
        for period in range(1, n):
            if n % period == 0 and seq == seq[:period] * (n // period):
                return True
        return False

    def dfs(start, seq):
        if len(seq) > max_length:
            return
        last = seq[-1]
        for nxt in succ[last]:
            if nxt == start and len(seq) >= 3:
                rotations = [tuple(seq[i:] + seq[:i]) for i in range(len(seq))]
                if tuple(seq) == min(rotations) and not is_power(tuple(seq)):
                    sign = 1
                    for e in seq:
                        sign *= g.edges[e]
                    counts[len(seq)][0 if sign > 0 else 1] += 1
            if len(seq) < max_length:
                dfs(start, seq + [nxt])

    for e in edges:
        dfs(e, [e])
    return counts


def test_orbits_against_direct_enumeration(rng):
    for _ in range(12):
        g = random_signed_digraph(rng, max_vertices=6, edge_prob=0.35,
                                  undirected=rng.random() < 0.5)
        if g.edge_count == 0:
            continue
        oc = primitive_orbit_counts(g, 6)
        direct = _direct_orbit_counts(g, 6)
        for ell in range(3, 7):
            assert (oc.n_pos(ell), oc.n_neg(ell)) == tuple(direct[ell]), \
                (sorted(g.edges.items()), ell)


def test_orbits_even_length_with_negative_triangle():
    # the square of a negative triangle is a positive closed walk; naive
    # signed Mobius inversion would report phantom length-6 orbits here
    g = parse_edge_list(
        "0 2 1\n0 4 1\n1 2 1\n1 3 1\n2 3 -1\n3 4 1", undirected=True)
    oc = primitive_orbit_counts(g, 6)
    assert (oc.n_pos(3), oc.n_neg(3)) == (0, 2)
    assert (oc.n_pos(6), oc.n_neg(6)) == (0, 0)
    direct = _direct_orbit_counts(g, 6)
    for ell in range(3, 7):
        assert (oc.n_pos(ell), oc.n_neg(ell)) == tuple(direct[ell])
