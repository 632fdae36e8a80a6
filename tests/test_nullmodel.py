import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cyclebalance
from cyclebalance import engine
from cyclebalance.engine import BalanceRow, BalanceTable, cycle_census
from cyclebalance.graph import SignedDigraph, parse_edge_list
from cyclebalance.nullmodel import (CorrelationFit, _shuffled_graph,
                                    default_fit_range, fit_correlation_length,
                                    model_ratio, null_band, null_ratio,
                                    shuffle_null)
from cyclebalance.oracle import brute_force_census
from _util import random_signed_digraph


def test_null_ratio_endpoints():
    for ell in range(1, 12):
        assert null_ratio(0.0, ell) == 0.0
        assert null_ratio(0.5, ell) == pytest.approx(0.5, abs=1e-12)
    assert null_ratio(0.1, 2) == pytest.approx(0.18, abs=1e-12)


def _odd_negative_probability(p, ell):
    """The binomial sum: an odd number of the ell signs is negative."""
    return sum(math.comb(ell, k) * p ** k * (1 - p) ** (ell - k)
               for k in range(1, ell + 1, 2))


@given(st.floats(min_value=0, max_value=1), st.integers(min_value=1, max_value=40))
def test_null_ratio_matches_closed_form(p, ell):
    assert null_ratio(p, ell) == pytest.approx(
        _odd_negative_probability(p, ell), abs=1e-12)


@given(st.floats(min_value=0.01, max_value=0.49))
def test_null_ratio_monotone_in_length(p):
    vals = [null_ratio(p, ell) for ell in range(1, 20)]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_null_ratio_validation():
    with pytest.raises(ValueError):
        null_ratio(-0.1, 3)
    with pytest.raises(ValueError):
        null_ratio(0.2, 0)


def test_null_band_cases():
    assert null_band(0.5, 4, 4) == (0.0, 1.0)
    lo, hi = null_band(0.3, 5, 10**12)
    assert hi - lo < 1e-5
    assert null_band(0.0, 6, 50) == (0.0, 0.0)
    with pytest.raises(ValueError):
        null_band(0.5, 4, 0)


def test_shuffle_preserves_negative_count(rng):
    from cyclebalance.nullmodel import _shuffled_graph
    import numpy as np
    for _ in range(20):
        g = random_signed_digraph(rng, max_vertices=9, edge_prob=0.4,
                                  undirected=rng.random() < 0.5)
        if g.edge_count == 0:
            continue
        shuffled = _shuffled_graph(g, np.random.default_rng(rng.randint(0, 99)))
        assert sorted(shuffled.edges.values()) == sorted(g.edges.values())
        assert set(shuffled.edges) == set(g.edges)
        if g.from_undirected:
            assert shuffled.from_undirected


@pytest.mark.parametrize("undirected, before, after", [
    (False, "--+-+++++++++-++++", "++++++-++++++--++-"),
    (True, "--+-++-++++--+++", "+++++-++-++++---"),
])
def test_shuffle_pinned_signs(undirected, before, after):
    """Signs in (tail, head) order before and after one seeded shuffle of a
    graph with loops, pinned so that the sign draw cannot move."""
    g = random_signed_digraph(random.Random(11), vertices=7, edge_prob=0.4,
                              loop_prob=0.3, undirected=undirected)
    shuffled = _shuffled_graph(g, np.random.default_rng([2, 0]))

    def signs(h):
        return "".join("+-"[s < 0] for _, s in sorted(h.edges.items()))

    assert (signs(g), signs(shuffled)) == (before, after)
    assert set(shuffled.edges) == set(g.edges)
    assert shuffled.from_undirected is undirected


def test_shuffle_all_positive_is_identity():
    g = parse_edge_list("0 1 1\n1 2 1\n2 0 1", undirected=True)
    res = shuffle_null(g, 3, 4, seed=1)
    assert res.mean.row(3).ratio_negative == 0.0
    assert res.mean.row(3).stderr == 0.0


def test_shuffle_reproducible():
    g = parse_edge_list("0 1 1\n1 2 -1\n2 0 1\n0 3 -1\n3 1 1", undirected=True)
    a = shuffle_null(g, 4, 6, seed=3)
    b = shuffle_null(g, 4, 6, seed=3)
    assert a == b


def test_shuffle_null_identical_for_any_worker_count():
    g = parse_edge_list("0 1 1\n1 2 -1\n2 0 1\n0 3 -1\n3 1 1\n3 2 -1",
                        undirected=True)
    one, two, three = (shuffle_null(g, 4, 5, seed=4, workers=w)
                       for w in (1, 2, 3))
    assert one == two == three
    with pytest.raises(ValueError, match="workers must be >= 1"):
        shuffle_null(g, 4, 5, workers=0)


def _topology_changes(g, max_length):
    """(graph, max_length) pairs a step from g's topology: one arc removed,
    one reversed, one moved to another head of its tail, and a longer
    maximum length.  On an undirected graph each edge changes with its
    reverse, and two edges swap ends instead of one reversing.  The move
    and the swap keep every vertex's out-degree, so the sorted tails stay
    as they were; the first that changes the cycle totals is taken."""
    rng = random.Random(g.vertex_count)
    n, edges = g.vertex_count, g.edges

    def totals(h):
        c = brute_force_census(h, max_length)
        return [c.total(ell) for ell in range(1, max_length + 1)]

    def first_new(candidates):
        return next(h for h in candidates if totals(h) != totals(g))

    pairs = [(u, v) for u, v in sorted(edges) if u < v]
    if g.from_undirected:
        def build(half):
            both = dict(half)
            both.update({(v, u): s for (u, v), s in half.items()})
            return SignedDigraph(n, both, from_undirected=True)

        def swap(a, b, c, d):
            half = {uv: s for uv, s in edges.items() if uv[0] <= uv[1]}
            half[min(a, d), max(a, d)] = half.pop((a, b))
            half[min(c, b), max(c, b)] = half.pop((c, d))
            return build(half)

        removed = {uv: s for uv, s in edges.items() if uv[0] <= uv[1]}
        del removed[rng.choice(pairs)]
        changed = [build(removed), first_new(
            swap(*e, *f) for e in pairs for f in pairs
            if len({*e, *f}) == 4 and (e[0], f[1]) not in edges
            and (f[0], e[1]) not in edges)]
    else:
        def move(u, v, w):
            moved = dict(edges)
            moved[(u, w)] = moved.pop((u, v))
            return SignedDigraph(n, moved)

        removed = dict(edges)
        del removed[rng.choice(sorted(edges))]
        u, v = rng.choice([uv for uv in pairs if uv[::-1] not in edges])
        reversed_ = dict(edges)
        reversed_[(v, u)] = reversed_.pop((u, v))
        changed = [SignedDigraph(n, removed), SignedDigraph(n, reversed_),
                   first_new(move(u, v, w) for u, v in sorted(edges)
                             for w in range(n) if (u, w) not in edges)]
    return [(h, max_length) for h in changed] + [(g, max_length + 1)]


@pytest.mark.parametrize("undirected", [False, True])
def test_shuffles_reusing_unsigned_series_equal_oracle(undirected):
    # every shuffle keeps the topology: its census reuses the unsigned
    # series of the census before it and must still equal the oracle
    rng = random.Random(11)
    g = random_signed_digraph(rng, vertices=9, edge_prob=0.3, loop_prob=0.3,
                              undirected=undirected)
    if not undirected:
        # antiparallel arcs of opposite sign, so no A_H is symmetric
        edges = dict(g.edges)
        for (u, v), s in g.edges.items():
            if u != v and rng.random() < 0.4:
                edges[(v, u)] = -s
        g = SignedDigraph(g.vertex_count, edges)
        assert any(u != v and edges.get((v, u)) == -s
                   for (u, v), s in edges.items())
        assert any(u == v for u, v in edges)
    L = 6
    assert cycle_census(g, L) == brute_force_census(g, L)
    entry = engine._unsigned_entry
    for k in range(6):
        shuffled = _shuffled_graph(g, np.random.default_rng([5, k]))
        assert cycle_census(shuffled, L) == brute_force_census(shuffled, L)
        assert engine._unsigned_entry is entry
    # a changed topology misses the entry and replaces it
    for changed, length in _topology_changes(g, L):
        cycle_census(g, L)
        entry = engine._unsigned_entry
        assert cycle_census(changed, length) == \
            brute_force_census(changed, length)
        assert engine._unsigned_entry is not entry


def test_fit_round_trip_xi_2():
    rows = tuple(BalanceRow(l, 1, 1, model_ratio(l, 2.0), None, None)
                 for l in range(3, 12))
    fit = fit_correlation_length(BalanceTable(rows), list(range(3, 12)))
    assert abs(fit.xi - 2.0) < 1e-4
    assert fit.two_xi == pytest.approx(2 * fit.xi)


def test_fit_all_zero_gives_infinite_length():
    rows = tuple(BalanceRow(l, 1, 0, 0.0, 0.0, 1.0) for l in range(3, 9))
    fit = fit_correlation_length(BalanceTable(rows), list(range(3, 9)))
    assert math.isinf(fit.xi) and fit.boundary


def test_fit_all_one_hits_lower_boundary():
    rows = tuple(BalanceRow(l, 0, 1, 1.0, math.inf, -1.0) for l in range(3, 9))
    fit = fit_correlation_length(BalanceTable(rows), list(range(3, 9)))
    assert fit.xi == 0.0 and fit.boundary


def test_fit_needs_two_points():
    rows = (BalanceRow(3, 1, 1, 0.5, 1.0, 0.0),)
    with pytest.raises(ValueError):
        fit_correlation_length(BalanceTable(rows), [3])


def test_default_fit_range_stops_at_threshold():
    rows = tuple(BalanceRow(l, 1, 1, r, None, None) for l, r in
                 ((3, 0.1), (4, 0.2), (5, 0.42), (6, 0.48), (7, 0.55)))
    assert default_fit_range(BalanceTable(rows)) == [3, 4, 5]


def test_shuffle_null_consistent_with_binomial_band(rng):
    # statistical consistency: shuffled ratios should mostly fall inside the
    # independent-signs band built from the same totals
    g = random_signed_digraph(rng, max_vertices=14, edge_prob=0.3,
                              undirected=True)
    while g.edge_count < 20:
        g = random_signed_digraph(rng, max_vertices=14, edge_prob=0.35,
                                  undirected=True)
    p = g.negative_edge_fraction()
    res = shuffle_null(g, 5, 10, seed=7)
    inside = total = 0
    for row in res.mean.rows:
        if row.length < 3 or row.ratio_negative is None:
            continue
        tot = row.n_pos + row.n_neg
        lo, hi = null_band(p, row.length, max(tot // res.shuffles, 1))
        total += 1
        if lo - 1e-9 <= row.ratio_negative <= hi + 1e-9:
            inside += 1
    assert total == 0 or inside / total >= 0.5


def test_package_import_leaves_scipy_unloaded():
    # only the correlation fit needs scipy.optimize; a fresh interpreter
    # that imports the package must not pay for it
    src = str(Path(cyclebalance.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import cyclebalance; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
