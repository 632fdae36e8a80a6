import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclebalance.engine import (CycleEngineError, _acyclic, _exact_dtype,
                                 _successor_masks, balance_table,
                                 cycle_census, cycle_polynomial,
                                 exact_low_order_ratios)
from cyclebalance.graph import SignedDigraph, complete_graph, parse_edge_list
from cyclebalance.oracle import brute_force_census, complete_graph_census
from cyclebalance.series import TruncatedSeries
from cyclebalance.subgraphs import connected_induced_subgraphs
from _util import random_signed_digraph

TRIAD = parse_edge_list("0 1 1\n0 2 1\n1 2 -1", undirected=True)


def reference_polynomial(g, max_length):
    """Independent slow path: polynomial-valued matrix products per subgraph,
    expanding (I - zA)^|N(H)| by repeated truncated multiplication."""
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


def test_k5_unsigned_coefficients():
    p = cycle_polynomial(complete_graph(5), 5, "unsigned")
    assert p.coefficients == (0, 0, 10, 20, 30, 24)


def test_triad_signed_coefficients():
    p = cycle_polynomial(TRIAD, 3, "signed")
    assert p.coefficients == (0, 0, 3, -2)


def test_triad_census_matches_figure():
    c = cycle_census(TRIAD, 3)
    assert (c.n_pos(2), c.n_neg(2)) == (3, 0)
    assert (c.n_pos(3), c.n_neg(3)) == (0, 2)


def test_all_positive_complete_graph_has_no_negatives():
    c = cycle_census(complete_graph(4), 4)
    assert all(n == 0 for n in c.negative)
    assert [c.total(l) for l in (2, 3, 4)] == [6, 8, 6]


def test_parity_between_weightings(rng):
    for _ in range(20):
        g = random_signed_digraph(rng, max_vertices=7, edge_prob=0.35,
                                  loop_prob=0.1)
        L = g.vertex_count
        s = cycle_polynomial(g, L, "signed")
        u = cycle_polynomial(g, L, "unsigned")
        for ell in range(1, L + 1):
            assert (u.coefficient(ell) - abs(s.coefficient(ell))) % 2 == 0
            assert u.coefficient(ell) >= abs(s.coefficient(ell))


def test_engine_matches_polynomial_reference(rng):
    for _ in range(12):
        g = random_signed_digraph(rng, max_vertices=6, edge_prob=0.4,
                                  loop_prob=0.15)
        L = rng.randint(1, g.vertex_count + 1)
        fast = cycle_polynomial(g, L, "signed")
        slow = reference_polynomial(g, L)
        assert fast.coefficients == slow.coefficients


def test_engine_equals_oracle_on_random_graphs(rng):
    # undirected graphs skip the acyclicity filter
    for undirected in [False] * 60 + [True] * 30:
        g = random_signed_digraph(rng, max_vertices=9, edge_prob=0.3,
                                  loop_prob=0.1, undirected=undirected)
        L = rng.randint(1, g.vertex_count + 2)
        assert cycle_census(g, L) == brute_force_census(g, L)


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


def test_relabeling_invariance(rng):
    for _ in range(10):
        g = random_signed_digraph(rng, max_vertices=8, edge_prob=0.35)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        assert cycle_census(g, g.vertex_count) == \
            cycle_census(g.relabel(perm), g.vertex_count)


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


def test_balance_table_symmetric_counts():
    g = parse_edge_list("0 1 1\n1 0 1\n2 3 1\n3 2 -1")
    table = balance_table(cycle_census(g, 2))
    row = table.row(2)
    assert row.ratio_negative == pytest.approx(0.5)
    assert row.clustering == 0
    assert row.neg_to_pos == 1


def test_low_order_matches_census(rng):
    for _ in range(25):
        g = random_signed_digraph(rng, max_vertices=8, edge_prob=0.35,
                                  loop_prob=0.15)
        table = exact_low_order_ratios(g)
        census = balance_table(cycle_census(g, 3))
        for ell in (1, 2, 3):
            a, b = table.row(ell), census.row(ell)
            assert (a.n_pos, a.n_neg) == (b.n_pos, b.n_neg)
            assert a.ratio_negative == b.ratio_negative


def test_complete_graph_population():
    for n in range(2, 8):
        c = cycle_census(complete_graph(n), n)
        cf = complete_graph_census(n)
        for ell in range(2, n + 1):
            assert c.total(ell) == cf[ell]


def test_exact_dtype_tiers():
    assert _exact_dtype(2**53 - 1) == np.float64
    assert _exact_dtype(2**53) == np.int64
    assert _exact_dtype(2**62 - 1) == np.int64
    assert _exact_dtype(2**62) == object


def test_negative_k16_reaches_object_traces():
    # traces of the classes h >= 14 exceed 2^62 at L=16 and are summed in
    # object dtype from float64 powers; every count is signed by parity
    c = cycle_census(complete_graph(16, sign=-1), 16)
    cf = complete_graph_census(16)
    for ell in range(2, 17):
        want = (0, cf[ell]) if ell % 2 else (cf[ell], 0)
        assert (c.n_pos(ell), c.n_neg(ell)) == want


def test_census_validation():
    with pytest.raises(ValueError):
        cycle_census(complete_graph(3), 0)
    with pytest.raises(ValueError):
        cycle_polynomial(complete_graph(3), 3, "weird")


def _filter_matches_nilpotency(g, max_size):
    """Check the acyclicity filter on every connected induced subgraph of g
    against its definition, |A_H|^h = 0; return how often each verdict came."""
    succ = _successor_masks(g)
    full = g.adjacency(signed=False)
    verdicts = {True: 0, False: 0}
    for visit in connected_induced_subgraphs(g, max_size):
        vs = list(visit.vertices)
        nilpotent = not np.linalg.matrix_power(
            full[np.ix_(vs, vs)], len(vs)).any()
        assert _acyclic(visit.vertices, succ) == nilpotent, vs
        verdicts[nilpotent] += 1
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
