import logging
import math
import os
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclebalance import engine, subgraphs
from cyclebalance.datasets import load_gahuku_gama
from cyclebalance.engine import (CycleCensus, CycleEngineError, _exact_dtype,
                                 _has_cycle, balance_row, balance_table,
                                 cycle_census, exact_low_order_ratios)
from cyclebalance.graph import SignedDigraph, complete_graph, parse_edge_list
from cyclebalance.montecarlo import sample_connected_vertex_set
from cyclebalance.oracle import brute_force_census, complete_graph_census
from cyclebalance.subgraphs import connected_induced_subgraphs
from _series import TruncatedSeries
from _util import (clustered_graph, random_signed_digraph,
                   with_opposite_reverses)

TRIAD = parse_edge_list("0 1 1\n0 2 1\n1 2 -1", undirected=True)


def reference_polynomial(g, max_length):
    """Independent slow path: polynomial-valued matrix products per subgraph,
    expanding (I - zA)^|N(H)| by repeated truncated multiplication.
    Coefficient l is N^+ - N^- of the cycles of length l."""
    n1 = max_length + 1
    bucket = [0] * n1
    for visit in connected_induced_subgraphs(g, max_length):
        vs = visit.vertices
        h = len(vs)
        # polynomial matrix zA
        za = [[TruncatedSeries.from_coefficients(
            [0, g.sign(u, v)], max_length) for v in vs] for u in vs]
        ident = [[TruncatedSeries.from_coefficients(
            [1 if i == j else 0], max_length) for j in range(h)]
            for i in range(h)]
        one_minus = [[ident[i][j] + za[i][j] * (-1) for j in range(h)]
                     for i in range(h)]

        def matmul(a, b):
            return [[sum((a[i][k] * b[k][j] for k in range(h)),
                         TruncatedSeries.zero(max_length))
                     for j in range(h)] for i in range(h)]

        term = ident
        for _ in range(h):
            term = matmul(term, za)
        for _ in range(visit.neighbour_count):
            term = matmul(term, one_minus)
        trace = sum((term[i][i] for i in range(h)),
                    TruncatedSeries.zero(max_length))
        for ell in range(n1):
            bucket[ell] += trace.coefficient(ell)
    coeffs = [0] * n1
    for ell in range(1, n1):
        assert bucket[ell] % ell == 0
        coeffs[ell] = bucket[ell] // ell
    return TruncatedSeries(max_length, tuple(coeffs))


def _signed(census):
    return tuple(census.n_pos(ell) - census.n_neg(ell)
                 for ell in range(1, census.max_length + 1))


def _unsigned(census):
    return tuple(census.total(ell) for ell in range(1, census.max_length + 1))


def test_k5_unsigned_coefficients():
    assert _unsigned(cycle_census(complete_graph(5), 5)) == (0, 10, 20, 30, 24)


def test_triad_signed_coefficients():
    assert _signed(cycle_census(TRIAD, 3)) == (0, 3, -2)


def test_triad_census_matches_figure():
    c = cycle_census(TRIAD, 3)
    assert (c.n_pos(2), c.n_neg(2)) == (3, 0)
    assert (c.n_pos(3), c.n_neg(3)) == (0, 2)


def test_all_positive_complete_graph_has_no_negatives():
    c = cycle_census(complete_graph(4), 4)
    assert all(n == 0 for n in c.negative)
    assert [c.total(l) for l in (2, 3, 4)] == [6, 8, 6]


def test_parity_between_weightings(rng, monkeypatch):
    # the engine's own signed and unsigned series, before the census checks
    # them against each other
    series = []
    finish = engine._finish

    def finish_spy(buckets, max_length):
        series.append(finish(buckets, max_length))
        return series[-1]

    monkeypatch.setattr(engine, "_finish", finish_spy)
    for _ in range(20):
        g = random_signed_digraph(rng, max_vertices=7, edge_prob=0.35,
                                  loop_prob=0.1)
        L = g.vertex_count
        c = cycle_census(g, L)
        s, u = series[-1]
        assert (tuple(s), tuple(u)) == (_signed(c), _unsigned(c))
        for ell in range(L):
            assert (u[ell] - abs(s[ell])) % 2 == 0
            assert u[ell] >= abs(s[ell])
    with pytest.raises(CycleEngineError, match="parity or magnitude"):
        CycleCensus.from_weights([1, 2], [1, 1])
    with pytest.raises(CycleEngineError, match="parity or magnitude"):
        CycleCensus.from_weights([0, 1], [2, 2])


def test_engine_matches_polynomial_reference(rng):
    for _ in range(12):
        g = random_signed_digraph(rng, max_vertices=6, edge_prob=0.4,
                                  loop_prob=0.15)
        L = rng.randint(1, g.vertex_count + 1)
        # |A|: the same arcs, every sign +1
        unsigned = SignedDigraph(g.vertex_count, dict.fromkeys(g.edges, 1))
        census = cycle_census(g, L)
        assert _signed(census) == reference_polynomial(g, L).coefficients[1:]
        assert _unsigned(census) == reference_polynomial(
            unsigned, L).coefficients[1:]


def test_engine_equals_oracle_on_random_graphs(rng):
    # undirected graphs skip the acyclicity filter
    for undirected in [False] * 60 + [True] * 30:
        g = random_signed_digraph(rng, max_vertices=9, edge_prob=0.3,
                                  loop_prob=0.1, undirected=undirected)
        L = rng.randint(1, g.vertex_count + 2)
        assert cycle_census(g, L) == brute_force_census(g, L)


@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_engine_equals_oracle_across_mask_words(n):
    # vertex masks are uint64 words: these sizes fill, overfill and span them
    rng = random.Random(n)
    for undirected in (False, True):
        g = random_signed_digraph(rng, edge_prob=3 / n, loop_prob=0.05,
                                  undirected=undirected, vertices=n)
        assert cycle_census(g, 5) == brute_force_census(g, 5)


def test_censuses_equal_across_root_blocks(monkeypatch):
    # one word a mask forces blocks of roots: wide single-root blocks on the
    # directed graphs, whose bicomponents span more than 64 vertices, and
    # blocks of several roots on an undirected ring with chords; the sparse
    # undirected graphs' bicomponents fit one word, so one block each
    rng = random.Random(0)
    graphs = [random_signed_digraph(rng, edge_prob=p, loop_prob=0.05,
                                    undirected=undirected, vertices=n)
              for n, p, undirected in [(70, 0.03, False), (100, 0.02, True),
                                       (150, 0.015, False),
                                       (130, 0.015, True)]]
    # loops, and arcs whose reverse arc has the opposite sign: every block
    # fills the engine's sign table with its own arcs and clears them after
    mixed = dict(graphs[0].edges)
    for (u, v), s in graphs[0].edges.items():
        if u != v and rng.random() < 0.5:
            mixed[(v, u)] = -s
    graphs.append(SignedDigraph(70, mixed))
    ring = {}
    for u in range(150):
        if rng.random() < 0.05:
            ring[(u, u)] = rng.choice((1, -1))
        chords = [2] if rng.random() < 0.3 else []
        for v in ((u + step) % 150 for step in [1] + chords):
            ring[(u, v)] = ring[(v, u)] = rng.choice((1, -1))
    graphs.append(SignedDigraph(150, ring, from_undirected=True))
    one_block = [cycle_census(g, 5) for g in graphs]
    # spy: the root count of each block, per census
    roots, classes = [], engine.size_classes

    def classes_spy(g, max_size):
        for c in classes(g, max_size):
            if c.verts.shape[1] == 1:
                roots[-1].append(len(c.verts))
            yield c

    monkeypatch.setattr(engine, "size_classes", classes_spy)
    monkeypatch.setattr(subgraphs, "_WORD_BUDGET", 1)
    blocks = []
    for g in graphs:
        roots.append([])
        blocks.append(cycle_census(g, 5))
    assert blocks == one_block
    assert blocks[4] == brute_force_census(graphs[4], 5)
    assert [len(r) > 1 for r in roots] == [True, False, True, False, True,
                                           True]
    assert max(roots[-1]) > 1


def test_adversarial_graphs_run_clean():
    # multi-component, self-loops, isolated vertices: divisibility and
    # parity invariants must hold throughout (they raise internally if not)
    specs = [
        "0 0 -1\n1 2 1\n2 1 1",                  # loop + separate 2-cycle
        "0 1 1\n1 0 1\n3 4 -1\n4 3 -1",          # two components + isolate 2
        "0 0 1\n1 1 -1\n2 2 1",                  # only loops
        "0 1 1\n1 2 -1\n2 0 1\n0 0 -1\n3 3 1",   # cycle + loops + isolate
    ]
    for text in specs:
        g = parse_edge_list(text)
        c = cycle_census(g, g.vertex_count + 2)
        assert c == brute_force_census(g, g.vertex_count + 2)


def _glued_blocks(rng, undirected):
    """Random blocks glued at cut vertices, with pendant trees: each block,
    a cycle with chords, starts at a vertex already placed, and each tree
    vertex hangs off one; some vertices carry loops."""
    pairs, n = [], 1
    for _ in range(rng.randint(1, 4)):
        verts = [rng.randrange(n)] + list(range(n, n + rng.randint(2, 4)))
        n = verts[-1] + 1
        pairs += zip(verts, verts[1:] + verts[:1])
        pairs += [(u, v) for u in verts for v in verts
                  if u < v and rng.random() < 0.3]
    for _ in range(rng.randint(0, 5)):
        pairs.append((rng.randrange(n), n))
        n += 1
    edges = {(u, u): rng.choice((1, -1)) for u in range(n)
             if rng.random() < 0.2}
    for u, v in pairs:
        arcs = ((u, v), (v, u)) if undirected else rng.choice(
            (((u, v),), ((v, u),), ((u, v), (v, u))))
        sign = rng.choice((1, -1))
        for arc in arcs:
            edges[arc] = sign if undirected else rng.choice((1, -1))
    return SignedDigraph(n, edges, from_undirected=undirected)


def test_census_equals_oracle_on_glued_blocks(rng):
    # two triangles glued at a cut vertex that carries a loop, counted once
    # and not once per bicomponent, and a bridge whose antiparallel arcs
    # of opposite signs are a negative 2-cycle outside every bicomponent
    fixed = parse_edge_list("0 0 -1\n0 1 1\n1 2 1\n2 0 1\n0 3 1\n3 4 -1\n"
                            "4 0 1\n4 5 1\n5 4 -1\n5 6 1")
    assert [c.tolist() for c in fixed.bicomponents] == [[0, 1, 2], [0, 3, 4]]
    census = cycle_census(fixed, 8)
    assert (census.positive[:3], census.negative[:3]) == ((0, 0, 1),
                                                           (1, 1, 1))
    graphs = [fixed] + [_glued_blocks(rng, undirected)
                        for undirected in [False] * 40 + [True] * 20]
    assert sum(len(g.bicomponents) > 1 for g in graphs) > 20
    for g in graphs:
        for L in (1, 2, 3, g.vertex_count + 1):
            assert cycle_census(g, L) == brute_force_census(g, L), (g, L)


def _block_chain(rng, sizes, undirected):
    """Blocks of the given sizes, each a cycle with chords glued at one
    vertex to a block before it, with loops; directed arcs take either or
    both orientations, antiparallel ones often of opposite signs."""
    pairs, n = [], 1
    for size in sizes:
        verts = [rng.randrange(n)] + list(range(n, n + size - 1))
        n = verts[-1] + 1
        pairs += zip(verts, verts[1:] + verts[:1])
        pairs += [(u, v) for u in verts for v in verts
                  if u < v and rng.random() < 0.6 / size]
    edges = {(u, u): rng.choice((1, -1)) for u in range(n)
             if rng.random() < 0.1}
    for u, v in pairs:
        sign = rng.choice((1, -1))
        if undirected:
            edges[(u, v)] = edges[(v, u)] = sign
        else:
            for arc in rng.choice((((u, v),), ((v, u),), ((u, v), (v, u)))):
                edges[arc] = rng.choice((1, -1))
    return SignedDigraph(n, edges, from_undirected=undirected)


@pytest.mark.parametrize("undirected", [False, True])
def test_packed_enumeration_equals_oracle(undirected):
    # many small bicomponents, cut vertices copied into each, fill several
    # packing groups of one mask word; a ring with chords larger than a
    # group is a group of its own
    rng = random.Random(19)
    for big in (0, 90):
        sizes = [rng.randint(3, 6) for _ in range(40)]
        sizes.insert(rng.randrange(len(sizes)), big or 3)
        g = _block_chain(rng, sizes, undirected)
        packed = subgraphs.pack(g, g.bicomponents)
        widths = np.diff(packed.bounds)
        assert len(widths) >= 3 and widths.sum() > g.vertex_count
        assert (widths > 64).sum() == (big > 0)
        if not undirected:
            assert any(s == -g.sign(v, u) for (u, v), s in g.edges.items())
        for L in (3, 6):
            assert cycle_census(g, L) == brute_force_census(g, L), (big, L)


def test_only_bicomponents_are_enumerated(monkeypatch):
    # spy: the packed graphs the engine enumerates, as edge dicts, and their
    # subgraph counts
    enumerated, packed = [], []
    classes, pack = engine.size_classes, engine.pack

    def pack_spy(g, parts):
        packed.append(g)
        return pack(g, parts)

    def classes_spy(p, max_size):
        # p.arcs: each packed arc's position in the packed graph's arcs
        arcs = zip(p.tails.tolist(), p.heads.tolist())
        signs = packed[-1].arcs[2][p.arcs].tolist()
        enumerated.append([dict(zip(arcs, signs)), 0])
        for c in classes(p, max_size):
            enumerated[-1][1] += len(c.verts)
            yield c

    monkeypatch.setattr(engine, "pack", pack_spy)
    monkeypatch.setattr(engine, "size_classes", classes_spy)
    # a triangle 0-1-2 with the pendant tree 2-3, 3-4, 3-5
    g = parse_edge_list("0 1 1\n1 2 -1\n2 0 1\n2 3 1\n3 4 -1\n3 5 1",
                        undirected=True)
    assert cycle_census(g, 6) == brute_force_census(g, 6)
    triangle = parse_edge_list("0 1 1\n1 2 -1\n2 0 1", undirected=True)
    assert enumerated == [[triangle.edges, 7]]
    # a second triangle on the cut vertex 2, and a loop on it: one
    # enumeration of both triangles side by side, 2 copied as 3, no loop
    enumerated.clear()
    glued = parse_edge_list("0 1 1\n1 2 -1\n2 0 1\n2 2 -1\n2 6 1\n"
                            "6 7 -1\n7 2 1\n3 4 -1\n3 5 1\n2 3 1",
                            undirected=True)
    assert cycle_census(glued, 6) == brute_force_census(glued, 6)
    twins = parse_edge_list("0 1 1\n1 2 -1\n2 0 1\n3 4 1\n4 5 -1\n5 3 1",
                            undirected=True)
    assert enumerated == [[twins.edges, 14]]
    # lengths 1 and 2 come from the arcs alone
    enumerated.clear()
    for L in (1, 2):
        assert cycle_census(g, L) == brute_force_census(g, L)
        assert cycle_census(triangle, L) == brute_force_census(triangle, L)
    assert enumerated == []


def test_relabeling_invariance(rng):
    for _ in range(10):
        g = random_signed_digraph(rng, max_vertices=8, edge_prob=0.35)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        permuted = SignedDigraph(g.vertex_count,
                                 {(perm[u], perm[v]): s
                                  for (u, v), s in g.edges.items()})
        assert cycle_census(g, g.vertex_count) == \
            cycle_census(permuted, g.vertex_count)


def test_balance_table_ratios():
    table = balance_table(cycle_census(TRIAD, 3))
    r3 = table.row(3)
    assert r3.ratio_negative == 1
    assert r3.clustering == -1
    assert r3.neg_to_pos == math.inf
    r2 = table.row(2)
    assert r2.ratio_negative == 0 and r2.clustering == 1 and r2.neg_to_pos == 0
    r1 = table.row(1)
    assert r1.ratio_negative is None


def test_balance_row_exact_from_fraction():
    # U and K from an exact R = N^- / N equal the ratios of the counts, as
    # Fractions: a float slipping in fails the type check
    for n_pos in range(31):
        for n_neg in range(31):
            if n_pos + n_neg == 0:
                continue
            row = balance_row(3, Fraction(n_neg, n_pos + n_neg), n_pos, n_neg)
            u = Fraction(n_neg, n_pos) if n_pos else math.inf
            k = Fraction(n_pos - n_neg, n_pos + n_neg)
            assert (row.neg_to_pos, row.clustering) == (u, k)
            assert type(row.neg_to_pos) is type(u)
            assert type(row.clustering) is Fraction


def test_balance_row_from_float_and_undefined():
    assert balance_row(2, 0.25, stderr=0.1) == engine.BalanceRow(
        2, None, None, 0.25, 0.25 / 0.75, 0.5, 0.1)
    assert balance_row(4, 1.0).neg_to_pos == math.inf
    assert balance_row(5, None, 0, 0) == engine.BalanceRow(
        5, 0, 0, None, None, None)


def test_balance_table_symmetric_counts():
    g = parse_edge_list("0 1 1\n1 0 1\n2 3 1\n3 2 -1")
    table = balance_table(cycle_census(g, 2))
    row = table.row(2)
    assert row.ratio_negative == pytest.approx(0.5)
    assert row.clustering == 0
    assert row.neg_to_pos == 1


def test_low_order_matches_census(rng):
    # directed and undirected graphs with loops, and directed ones with
    # antiparallel arcs of opposite sign
    for i in range(48):
        g = random_signed_digraph(rng, max_vertices=8, edge_prob=0.35,
                                  loop_prob=0.15, undirected=i % 3 == 0)
        if i % 3 == 1:
            g = with_opposite_reverses(g, rng)
        assert exact_low_order_ratios(g).rows == \
            balance_table(cycle_census(g, 3)).rows


def _local_sparse_digraph(n, seed):
    """Arcs between ring neighbours up to 3 apart, in one direction or
    both, plus a few self-loops: sparse, with many 2- and 3-cycles."""
    rng = random.Random(seed)
    edges = {}
    for u in range(n):
        if rng.random() < 0.05:
            edges[(u, u)] = rng.choice((1, -1))
        for step in (1, 2, 3):
            v = (u + step) % n
            for arc in rng.choice((((u, v),), ((v, u),), ((u, v), (v, u)))):
                edges[arc] = rng.choice((1, -1))
    return SignedDigraph(n, edges)


def test_low_order_matches_census_on_2000_vertices():
    g = _local_sparse_digraph(2000, 11)
    table = exact_low_order_ratios(g)
    census = balance_table(cycle_census(g, 3))
    assert table == census
    assert min(r.n_pos + r.n_neg for r in table.rows) > 50


def test_low_order_refuses_inexact_traces(monkeypatch):
    # the triad has 6 arcs of out-degree 2: a bound of 12 is already too big
    monkeypatch.setattr(engine, "_INT64_EXACT", 12)
    with pytest.raises(OverflowError):
        exact_low_order_ratios(TRIAD)
    monkeypatch.setattr(engine, "_INT64_EXACT", 13)
    assert exact_low_order_ratios(TRIAD) == balance_table(cycle_census(TRIAD, 3))


def test_complete_graph_population():
    for n in range(2, 8):
        c = cycle_census(complete_graph(n), n)
        cf = complete_graph_census(n)
        for ell in range(2, n + 1):
            assert c.total(ell) == cf[ell]


def test_exact_dtype_tiers():
    assert _exact_dtype(2**24 - 1) == np.float32
    assert _exact_dtype(2**24) == np.float64
    assert _exact_dtype(2**53 - 1) == np.float64
    assert _exact_dtype(2**53) == np.int64
    assert _exact_dtype(2**62 - 1) == np.int64
    assert _exact_dtype(2**62) == object


def test_negative_k16_reaches_object_traces(widened):
    # at L=16 the trace bounds h r^l of the classes h >= 14 exceed 2^62, so
    # their walk recurrences end in object dtype; every count is signed by
    # parity
    c = cycle_census(complete_graph(16, sign=-1), 16)
    cf = complete_graph_census(16)
    for ell in range(2, 17):
        want = (0, cf[ell]) if ell % 2 else (cf[ell], 0)
        assert (c.n_pos(ell), c.n_neg(ell)) == want
    assert widened == {np.dtype(np.float32), np.dtype(np.float64),
                       np.dtype(np.int64), np.dtype(object)}


def test_row_sum_bound_past_int8():
    # int8 sums serve up to h = 127; an all-ones 200 x 200 matrix has rows
    # of 200, past int8, so they are summed in int64
    assert engine._row_sum_bound(np.ones((1, 200, 200), np.int8)) == 200
    assert engine._row_sum_bound(np.ones((3, 127, 127), np.int8)) == 127
    rng = np.random.default_rng(5)
    mats = rng.integers(0, 2, (40, 9, 9)).astype(np.int8)
    assert engine._row_sum_bound(mats) == mats.sum(axis=2).max()


def _python_run_sums(t, runs):
    """Sums of t[j, w, a:b] in Python ints over the runs a..b of ``runs``."""
    stops = [*runs[1:].tolist(), t.shape[2]]
    return [[[sum(int(x) for x in t[j, w, a:b])
              for a, b in zip(runs.tolist(), stops)]
             for w in range(t.shape[1])] for j in range(len(t))]


def test_class_sums_cross_int64_mid_class():
    # slices of k subgraphs of size h whose first stack sits at its bound
    # h r^l: the degrees whose slice bound k h r^l stays below 2^62 are
    # summed in the int64 accumulator, flushed into the Python-int sums
    # before their running bound reaches 2^62, and the rest in Python ints;
    # the k = 40 slices take a degree in int64 that the k = 300 ones do not
    rng = random.Random(11)
    h, r, top = 12, 11, 20
    cut = min(ell for ell in range(h, top + 1) if 300 * h * r**ell >= 2**62)
    assert h < cut < top and 40 * h * r**cut < 2**62
    # at its bound, a k = 300 slice's sum at degree cut passes 2^63
    assert 300 * h * r**cut >= 2**63
    sums = np.zeros((top - h + 1, 2, 5), dtype=object)
    want = np.zeros_like(sums)
    acc, reach = np.zeros(sums.shape, np.int64), [0] * len(sums)
    for k in (300, 40, 300, 300, 40, 300, 300, 300):
        t = np.array([[[h * r**ell] * k,
                       [rng.choice((-1, 1)) * rng.randint(0, h * r**ell)
                        for _ in range(k)]] for ell in range(h, top + 1)],
                     dtype=object)
        counts = np.sort([rng.randrange(5) for _ in range(k)])
        runs = np.flatnonzero(np.diff(counts, prepend=-1))
        want[:, :, counts[runs]] += np.array(_python_run_sums(t, runs),
                                             dtype=object)
        engine._add_sums(sums, acc, reach, t, counts, h, r)
        # the accumulator never holds 2^62 at a degree: the first stack's
        # sum equals its bound
        assert all(abs(sum(acc[j, w].tolist())) < 2**62
                   for j in range(len(acc)) for w in range(2))
    assert any(sums[:cut - h].ravel())  # flushed mid-class
    sums += acc.astype(object)
    assert sums.tolist() == want.tolist()
    assert all(type(x) is int for x in sums.ravel())
    # float traces within float32 are summed to ints, not floats
    small = np.arange(28, dtype=np.float32).reshape(2, 2, 7)
    counts = np.array([0, 0, 0, 2, 2, 2, 2])
    sums = np.zeros((2, 2, 3), dtype=object)
    acc = np.zeros(sums.shape, np.int64)
    engine._add_sums(sums, acc, [0, 0], small, counts, 2, 2)
    sums += acc.astype(object)
    assert sums[:, :, [0, 2]].tolist() == _python_run_sums(
        small, np.array([0, 3]))
    assert all(type(x) is int for x in sums.ravel())


def _trace_powers(a, top):
    """Tr a^l for l = 1..top in Python ints."""
    a = np.asarray(a, dtype=object)
    power, out = np.identity(len(a), dtype=object), []
    for _ in range(top):
        power = power @ a
        out.append(int(power.trace()))
    return out


@pytest.mark.parametrize("symmetric", [False, True])
def test_walk_recurrence_adds_closed_walks_through_last_vertex(symmetric):
    # D_l = Tr A_H^l - Tr A_P^l, P = H without its last vertex, against
    # Python-int powers of random matrices with loops; all-ones and
    # all-minus-ones matrices reach their bounds, which at h = 8 and L = 20
    # take int64 and object degrees
    rng = np.random.default_rng(3)
    L = 20
    for h in range(1, 9):
        mats = rng.integers(-1, 2, (25, h, h)).astype(np.int8)
        if symmetric:
            mats = np.triu(mats) + np.triu(mats, 1).transpose(0, 2, 1)
        mats[:2], mats[2:4] = 1, -1
        r = int(np.abs(mats).sum(axis=2).max())
        full = [_trace_powers(a, L)[h - 1:] for a in mats]
        part = [_trace_powers(a[:-1, :-1], L)[h - 1:] for a in mats]
        # the walk's layout: the stack last, in the dtype r allows
        walk = np.moveaxis(mats, 0, -1).astype(engine._exact_dtype(r))
        d = engine._walk_traces(walk, r, np.zeros((L - h + 1, len(mats))), L,
                                symmetric)
        t = engine._walk_traces(walk, r, np.array(part, dtype=object).T, L,
                                symmetric)
        for i in range(len(mats)):
            assert [int(x) for x in d[:, i]] == \
                [u - v for u, v in zip(full[i], part[i])], (h, i)
            assert [int(x) for x in t[:, i]] == full[i], (h, i)


@settings(max_examples=80)
@given(st.randoms(use_true_random=False), st.floats(0.1, 1.0),
       st.sampled_from(["directed", "opposite", "undirected"]))
def test_walk_chains_stay_within_r_to_the_b(rng, edge_prob, kind):
    # the walk's chains x_b = A_P^b c and y_b = u A_P^b in Python ints:
    # each entry, and each partial sum of the products that form it, in
    # any order, is at most the sum of the products' magnitudes, which
    # stays within r^b, r the largest row sum of |A_H|
    g = random_signed_digraph(rng, edge_prob=edge_prob, loop_prob=0.3,
                              undirected=kind == "undirected")
    if kind == "opposite":
        g = with_opposite_reverses(g, rng)
    a = g.adjacency().astype(object)
    r = max(sum(map(abs, row)) for row in a)
    a_p, x, y = a[:-1, :-1], a[:-1, -1], a[-1, :-1]
    for b in range(1, 13):
        magnitudes = [*np.abs(a_p) @ np.abs(x), *np.abs(y) @ np.abs(a_p)]
        assert max(magnitudes, default=0) <= r**b, b
        x, y = a_p @ x, y @ a_p


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("symmetric", [False, True])
def test_walk_chains_exact_past_float32(sign, symmetric):
    # the complete 20-vertex matrix with loops has r = 20, and its chains
    # at b = 6 hold +-19^6, past 2^24 where r^5 is not: chain dtypes chosen
    # by r^(b-1) would round them in float32
    h = L = 20
    assert 20**5 < 2**24 <= 19**6
    a = np.full((h, h), sign, np.int8)
    full = _trace_powers(a, L)[h - 1:]
    part = _trace_powers(a[:-1, :-1], L)[h - 1:]
    walk = a[:, :, None].astype(engine._exact_dtype(h))
    t = engine._walk_traces(walk, h, np.array([part], dtype=object).T, L,
                            symmetric)
    assert [int(x) for x in t[:, 0]] == full


@pytest.mark.parametrize("undirected", [False, True])
def test_top_class_sums_into_one_bucket(undirected, monkeypatch, caplog):
    # below the largest bicomponent the top class, h = L, is the largest
    # class; its one degree's binomials C(|N(H)|, 0) are all 1, so every
    # slice of it reaches the class sums as one |N(H)| run, into one bucket
    rng = random.Random(41)
    seen = []
    add_sums = engine._add_sums

    def spy(sums, acc, reach, t, counts, h, r):
        seen.append((h, sums.shape[2], len(set(counts.tolist()))))
        add_sums(sums, acc, reach, t, counts, h, r)

    monkeypatch.setattr(engine, "_add_sums", spy)
    L = 5
    for _ in range(4):
        g = random_signed_digraph(rng, vertices=11, edge_prob=0.4,
                                  loop_prob=0.1, undirected=undirected)
        assert max(map(len, g.bicomponents)) > L
        seen.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cyclebalance.engine"):
            assert cycle_census(g, L) == brute_force_census(g, L)
        sizes = dict(map(int, m.groups()) for m in (
            re.match(r"size (\d+): (\d+) subgraphs", r.getMessage())
            for r in caplog.records) if m)
        assert max(sizes, key=sizes.get) == L
        assert {(n, runs) for h, n, runs in seen if h == L} == {(1, 1)}
        # the classes below sort and sum by |N(H)|
        assert any(runs > 1 for h, _, runs in seen if h < L)


def test_recurrence_dtype_tiers_match_oracle(monkeypatch, widened, rng):
    # low exactness limits push the recurrence, and the sums across
    # subgraphs, through float64, int64 and object steps
    monkeypatch.setattr(engine, "_FLOAT32_EXACT", 2**4)
    monkeypatch.setattr(engine, "_FLOAT64_EXACT", 2**7)
    monkeypatch.setattr(engine, "_INT64_EXACT", 2**11)
    for undirected in [False] * 25 + [True] * 15:
        g = random_signed_digraph(rng, max_vertices=9, edge_prob=0.35,
                                  loop_prob=0.15, undirected=undirected)
        L = rng.randint(1, g.vertex_count + 2)
        assert cycle_census(g, L) == brute_force_census(g, L)
    assert widened == {np.dtype(np.float32), np.dtype(np.float64),
                       np.dtype(np.int64), np.dtype(object)}


@pytest.mark.parametrize("size, longest, seed", [
    pytest.param(20, 17, [5, 0], id="20-17"),
    pytest.param(22, 18, [5, 0], id="22-18"),
    pytest.param(24, 18, [13, 0, 0, 0], id="24-18")])
def test_engine_equals_oracle_at_l20_on_samples(size, longest, seed):
    # snowball samples of criterion 8's clustered graph, the first lengths
    # past 16 that any test reaches; the 24-vertex one has 1,165,836
    # connected subgraphs, most of them across its bridges and pendant trees
    g = clustered_graph(42, 7)
    vertices, _ = sample_connected_vertex_set(
        g, np.random.default_rng(seed), size)
    sample, _ = g.induced_subgraph(vertices)
    census = cycle_census(sample, 20)
    assert census == brute_force_census(sample, 20)
    assert max(ell for ell in range(1, 21) if census.total(ell)) == longest


def test_no_degree_past_the_largest_bicomponent(rng, monkeypatch):
    # a cycle of length >= 3 lies in a bicomponent of at least that many
    # vertices, so the census traces no degree past the largest one and
    # pads the longer lengths with zeros
    lengths = []
    walk_traces = engine._walk_traces

    def spy(mats, r, up, max_length, symmetric):
        lengths.append(max_length)
        return walk_traces(mats, r, up, max_length, symmetric)

    monkeypatch.setattr(engine, "_walk_traces", spy)
    graphs = [load_gahuku_gama()] + [
        random_signed_digraph(rng, max_vertices=10, edge_prob=0.3,
                              loop_prob=0.1, undirected=undirected)
        for undirected in [False, True] * 8]
    for g in graphs:
        n = g.vertex_count
        top = max(map(len, g.bicomponents), default=0)
        lengths.clear()
        base = cycle_census(g, n)
        assert set(lengths) <= {top}
        for extra in (1, 4):
            lengths.clear()
            longer = cycle_census(g, n + extra)
            assert set(lengths) <= {top}
            assert longer == CycleCensus(n + extra,
                                         base.positive + (0,) * extra,
                                         base.negative + (0,) * extra)
        if n <= 10:
            assert base == brute_force_census(g, n)


# tracemalloc peak of a census of the 16-tribe network at L=16 with no
# reusable unsigned series: its classes keep matrices and traces only for
# the subgraphs with children (5.0 MB), where keeping them for every
# subgraph peaked at 6.8 MB
_TRIBE_CENSUS_PEAK_BYTES = 6 * 2**20


def test_tribe_census_keeps_only_what_children_read():
    g = load_gahuku_gama()
    tracemalloc.start()
    try:
        census = cycle_census(g, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census.total(16) > 0
    assert peak < _TRIBE_CENSUS_PEAK_BYTES, peak



def test_tribe_sign_pass_peaks_no_higher_than_a_fresh_census():
    # two sign vectors share one int8 matrix per subgraph and, with the
    # unsigned series reused, trace as many stacks as a fresh census
    g = load_gahuku_gama()
    cycle_census(g, 16)
    signs = np.stack([g.arcs[2], -g.arcs[2]])
    tracemalloc.start()
    try:
        censuses = cycle_census(g, 16, signs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.total(16) for c in censuses] == [censuses[0].total(16)] * 2
    assert peak < _TRIBE_CENSUS_PEAK_BYTES, peak


def _sign_vectors(rng, g, k, symmetric):
    """k random sign vectors of g's arcs; with ``symmetric`` each reverse
    arc takes its arc's sign, so every A_H of a symmetric topology is."""
    tails, heads, _ = g.arcs
    rev = g._reverse_arcs
    signs = np.array([[rng.choice((1, -1)) for _ in tails] for _ in range(k)],
                     dtype=np.int8)
    if symmetric:
        mirror = (rev >= 0) & (tails > heads)
        signs[:, mirror] = signs[:, rev[mirror]]
    return signs


@pytest.mark.parametrize("kind", ["undirected", "directed", "opposite"])
def test_sign_pass_equals_single_censuses(kind, caplog):
    # K = 1..9 vectors, across the pass cap of 7, on topologies with loops;
    # directed pairs of opposite sign and unmirrored vectors on undirected
    # topologies keep A_H asymmetric
    rng = random.Random(29)
    cap, L = engine._SIGNS_PER_PASS, 6
    for k in range(1, 10):
        g = random_signed_digraph(rng, vertices=7, edge_prob=0.45,
                                  loop_prob=0.3,
                                  undirected=kind == "undirected")
        if kind == "opposite":
            g = with_opposite_reverses(g, rng)
        signs = _sign_vectors(rng, g, k, symmetric=k % 2 == 0)
        graphs = [SignedDigraph(g.vertex_count, (*g.arcs[:2], s))
                  for s in signs]
        want = [brute_force_census(h, L) for h in graphs]
        engine._unsigned_entry = None
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="cyclebalance.engine"):
            computed = cycle_census(g, L, signs)
            reused = cycle_census(g, L, list(signs))
        passes = [r.getMessage() for r in caplog.records
                  if "stacks per pass" in r.getMessage()]
        first, rest = min(k, cap), max(k - cap, 0)
        assert passes == (
            [f"unsigned series computed; stacks per pass: {first + 1}"]
            + [f"unsigned series reused; stacks per pass: {rest}"] * (rest > 0)
            + [f"unsigned series reused; stacks per pass: {first}"]
            + [f"unsigned series reused; stacks per pass: {rest}"] * (rest > 0)
        ), (kind, k)
        singles = [cycle_census(h, L) for h in graphs]
        assert computed == reused == singles == want, (kind, k)


def test_sign_pass_rejects_malformed_vectors():
    g = TRIAD
    for signs in (g.arcs[2], [g.arcs[2][:-1]], [np.zeros(g.edge_count)],
                  [np.full(g.edge_count, 2)]):
        with pytest.raises(ValueError, match="signs must be rows"):
            cycle_census(g, 3, signs)


# positive and negative cycle counts at lengths 1..20 of the 22-vertex
# graph below, N_20 = 94,998; it has one bicomponent of 21 vertices and
# 1,051,058 connected subgraphs
_L20_POSITIVE = (0, 53, 14, 76, 220, 586, 1772, 4660, 10992, 23972, 47994,
                 87408, 141626, 205940, 267458, 300558, 289098, 226164,
                 132092, 47532)
_L20_NEGATIVE = (0, 0, 20, 62, 190, 664, 1756, 4556, 11072, 24060, 47960,
                 86162, 140616, 206206, 266296, 301188, 288916, 224950,
                 130844, 47466)


@pytest.mark.skipif(not os.environ.get("CYCLEBALANCE_L20"),
                    reason="22-vertex L=20 census is opt-in "
                           "(set CYCLEBALANCE_L20=1); takes 6-9 s and "
                           "262 MB")
def test_22_vertex_census_at_l20():
    g = random_signed_digraph(random.Random(7), edge_prob=0.2,
                              undirected=True, vertices=22)
    assert cycle_census(g, 20) == CycleCensus(20, _L20_POSITIVE,
                                              _L20_NEGATIVE)


def test_debug_records_per_size(caplog, monkeypatch):
    g = parse_edge_list("0 1 1\n1 2 1\n2 0 -1\n2 3 1\n3 3 -1")
    cycle_census(g, 4)
    assert not caplog.records  # silent at the default level
    with caplog.at_level(logging.DEBUG, logger="cyclebalance.engine"):
        cycle_census(g, 4)
        cycle_census(TRIAD, 3)
    # the pendant vertex 3 and its loop lie outside the one bicomponent, the
    # directed triangle, so only the triangle's subsets are enumerated
    assert [r.getMessage() for r in caplog.records] == [
        "size 1: 3 subgraphs, 0 cyclic, 1 slices, widest trace dtype none",
        "size 2: 3 subgraphs, 0 cyclic, 1 slices, widest trace dtype none",
        "size 3: 1 subgraphs, 1 cyclic, 1 slices, widest trace dtype float32",
        "1 bicomponents, 3 of 4 vertices, largest 3",
        "1 groups, 1 blocks, largest sign table 9 bytes",
        # the first census of g, before the capture, computed it; one
        # signed stack traced
        "unsigned series reused; stacks per pass: 1",
        "size 1: 3 subgraphs, 0 cyclic, 1 slices, widest trace dtype none",
        "size 2: 3 subgraphs, 3 cyclic, 1 slices, widest trace dtype float32",
        "size 3: 1 subgraphs, 1 cyclic, 1 slices, widest trace dtype float32",
        "1 bicomponents, 3 of 3 vertices, largest 3",
        "1 groups, 1 blocks, largest sign table 9 bytes",
        "unsigned series computed; stacks per pass: 2",
    ]
    # one word a mask splits a 130-vertex ring, one bicomponent, at L=3 into
    # root blocks 0, 1-9, 10-47, 48-102 and 103-129; the fourth has 59 inner
    # vertices
    monkeypatch.setattr(subgraphs, "_WORD_BUDGET", 1)
    ring = {}
    for u in range(130):
        ring[(u, (u + 1) % 130)] = ring[((u + 1) % 130, u)] = 1
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cyclebalance.engine"):
        cycle_census(SignedDigraph(130, ring, from_undirected=True), 3)
    assert [r.getMessage() for r in caplog.records[-3:]] == [
        "1 bicomponents, 130 of 130 vertices, largest 130",
        "1 groups, 5 blocks, largest sign table 3481 bytes",
        "unsigned series computed; stacks per pass: 2"]


def test_unsigned_series_reused_until_topology_changes(monkeypatch):
    # spies: the weightings each evaluation traces (one series each), and
    # the enumerations
    traced, enumerated = [], []
    finish, classes = engine._finish, engine.size_classes

    def finish_spy(buckets, max_length):
        traced.append(len(buckets))
        return finish(buckets, max_length)

    def classes_spy(g, max_size):
        enumerated.append(g)
        return classes(g, max_size)

    monkeypatch.setattr(engine, "_finish", finish_spy)
    monkeypatch.setattr(engine, "size_classes", classes_spy)
    g = parse_edge_list("0 1 1\n1 0 -1\n1 2 -1\n2 0 1\n2 2 -1\n0 3 1\n3 1 -1")
    other = parse_edge_list("0 1 1\n1 0 -1\n1 2 -1\n2 0 1\n2 2 -1\n0 3 1")
    first = cycle_census(g, 5)
    assert first == brute_force_census(g, 5) and traced == [2]
    # a second census of the topology traces the signed weighting only
    assert cycle_census(g, 5) == first
    flipped = SignedDigraph(4, {uv: -s for uv, s in g.edges.items()})
    assert cycle_census(flipped, 5) == brute_force_census(flipped, 5)
    assert traced == [2, 1, 1] and len(enumerated) == 3
    # another topology evicts it: g is traced in both weightings again
    assert cycle_census(other, 5) == brute_force_census(other, 5)
    assert cycle_census(g, 5) == first
    assert traced == [2, 1, 1, 2, 2]


def test_census_validation():
    for max_length in (0, -1):
        with pytest.raises(ValueError, match="max_length must be >= 1"):
            cycle_census(complete_graph(3), max_length)


@pytest.mark.parametrize("signed, unsigned", [([1, 0, 2], [1, 2, 2, 5]),
                                              ([1, 0, 2, 1], [1, 2, 2])])
def test_from_weights_rejects_series_of_unequal_length(signed, unsigned):
    with pytest.raises(CycleEngineError,
                       match=f"{len(signed)} signed coefficients against "
                             f"{len(unsigned)} unsigned"):
        CycleCensus.from_weights(signed, unsigned)


def _filter_matches_nilpotency(g, max_size):
    """Check the acyclicity filter on the stacked signed matrices of every
    connected induced subgraph of g, one stack per size, against its
    definition, |A_H|^h = 0; return how often each verdict came."""
    full = g.adjacency()
    by_size = {}
    for visit in connected_induced_subgraphs(g, max_size):
        by_size.setdefault(len(visit.vertices), []).append(visit.vertices)
    verdicts = {True: 0, False: 0}
    for h, sets in by_size.items():
        idx = np.array(sets)
        mats = full[idx[:, :, None], idx[:, None, :]]
        nilpotent = ~np.linalg.matrix_power(np.abs(mats), h).any(axis=(1, 2))
        cyclic = _has_cycle(mats.astype(np.int8))
        assert (cyclic != nilpotent).all(), idx[cyclic == nilpotent]
        for flag in (True, False):
            verdicts[flag] += int((nilpotent == flag).sum())
    return verdicts


def test_acyclic_filter_matches_nilpotency(rng):
    totals = {True: 0, False: 0}
    for _ in range(30):
        g = random_signed_digraph(rng, max_vertices=10, edge_prob=0.3,
                                  loop_prob=0.15)
        for flag, count in _filter_matches_nilpotency(
                g, g.vertex_count).items():
            totals[flag] += count
    g = random_signed_digraph(rng, edge_prob=0.025, loop_prob=0.05,
                              vertices=100)
    for flag, count in _filter_matches_nilpotency(g, 4).items():
        totals[flag] += count
    assert min(totals.values()) > 100
