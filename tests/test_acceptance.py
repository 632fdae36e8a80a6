"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  The large signed social networks are optional inputs; their test
skips when the files are absent (see README for how to fetch them).
"""

import math
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cyclebalance.datasets import load_gahuku_gama, load_triad, snap_path
from cyclebalance.engine import balance_table, cycle_census, exact_low_order_ratios
from cyclebalance.graph import SignedDigraph, complete_graph, load_edge_list
from cyclebalance.montecarlo import MonteCarloConfig, run_monte_carlo
from cyclebalance.nullmodel import null_band, null_ratio, shuffle_null
from cyclebalance.oracle import brute_force_census, complete_graph_census
from cyclebalance.orbits import (hashimoto_matrix, primitive_orbit_counts,
                                 stark_terras_orbit_walks,
                                 weighted_degree_of_balance)
from _util import random_signed_digraph

import numpy as np


def _report(label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"{status}: {label}" + (f" ({detail})" if detail else ""), flush=True)
    assert ok, f"{label}: {detail}"


# -- 1. complete-graph exactness --------------------------------------------

K15_PUBLISHED_TOTAL = 255_323_504_932   # counts each vertex as a 1-cycle
K20_PUBLISHED_TOTAL = 349_096_664_728_623_336


def test_criterion_1_complete_graph_exactness():
    t0 = time.perf_counter()
    census = cycle_census(complete_graph(15), 15)
    elapsed = time.perf_counter() - t0
    closed = complete_graph_census(15)
    ok = (census.grand_total() == sum(closed.values())
          and all(census.total(l) == closed[l] for l in range(2, 16))
          and all(n == 0 for n in census.negative)
          # the published benchmark total includes the 15 single-vertex
          # permutation 1-cycles; graph convention counts loops only
          and census.grand_total() + 15 == K15_PUBLISHED_TOTAL
          and elapsed <= 300.0)
    _report("criterion 1: K15 census total 255,323,504,932 "
            "(vertex-cycle convention)", ok,
            f"total={census.grand_total()}, {elapsed:.1f}s")


@pytest.mark.skipif(not os.environ.get("CYCLEBALANCE_K20"),
                    reason="extended K20 check is opt-in "
                           "(set CYCLEBALANCE_K20=1); needs long runtime")
def test_criterion_1_extended_k20():
    t0 = time.perf_counter()
    census = cycle_census(complete_graph(20), 20)
    elapsed = time.perf_counter() - t0
    ok = census.grand_total() + 20 == K20_PUBLISHED_TOTAL
    _report("criterion 1 (extended): K20 census", ok,
            f"total={census.grand_total()}, {elapsed:.0f}s")


# -- 2. oracle equivalence ---------------------------------------------------

def test_criterion_2_oracle_equivalence():
    rng = random.Random(90125)
    t0 = time.perf_counter()
    for trial in range(200):
        g = random_signed_digraph(rng, max_vertices=12,
                                  edge_prob=rng.uniform(0.1, 0.35),
                                  loop_prob=0.05)
        L = g.vertex_count
        if cycle_census(g, L) != brute_force_census(g, L):
            _report("criterion 2: engine == oracle on 200 random graphs",
                    False, f"mismatch at trial {trial}")
    elapsed = time.perf_counter() - t0
    _report("criterion 2: engine == oracle on 200 random graphs",
            elapsed <= 120.0, f"{elapsed:.1f}s")


# -- 3. tribal alliance network reproduction ---------------------------------

GAMA_R_PERCENT = {3: "13.24", 4: "27.92", 5: "37.93", 6: "44.47",
                  7: "48.64", 8: "51.10", 9: "52.33", 10: "52.7",
                  11: "52.43", 12: "51.77", 13: "51.03", 14: "50.46",
                  15: "50.09", 16: "49.74"}
GAMA_U_PERCENT = {3: "15.3", 4: "38.7", 5: "61.1", 6: "80.1", 7: "94.7",
                  8: "104.5", 9: "109.8", 10: "111.4", 11: "110.2",
                  12: "107.3", 13: "104.2", 14: "101.9", 15: "100.3",
                  16: "99"}
GAMA_K = {2: "1", 3: "0.735", 4: "0.442", 5: "0.241", 6: "0.111",
          7: "0.027", 8: "-0.022", 9: "-0.047", 10: "-0.054",
          11: "-0.049", 12: "-0.035", 13: "-0.021", 14: "-0.009",
          15: "-0.002", 16: "0.005"}


# The published table is asserted through l = 5 only.  From l = 6 on it
# cannot describe the bundled fixture: R6 = 44.47 % needs an integer number
# of negative 6-cycles that the fixture's 6-cycle total does not allow (the
# test asserts this), so l = 6..16 are checked against oracle counts instead.
GAMA_PUBLISHED_MAX_LENGTH = 5

# Exact N_l^+ and N_l^- of the bundled gahuku_gama.tsv for l = 1..16, from
# the brute-force depth-first oracle rather than the engine under test:
#     brute_force_census(load_gahuku_gama(), 16)
# The fixture is symmetric, so every cycle of length >= 3 is counted once
# per orientation.  The oracle takes a few minutes at L=16; regenerate with
#     PYTHONPATH=src python -c "from cyclebalance.datasets import \
#         load_gahuku_gama; from cyclebalance.oracle import \
#         brute_force_census; c = brute_force_census(load_gahuku_gama(), 16); \
#         print(c.positive, c.negative)"
# perfbench/pins/tribe_L16.json pins the same counts for the benchmark.
GAMA_PIN_POSITIVE = (0, 58, 118, 408, 1466, 5384, 19284, 65758, 209314,
                     605408, 1537906, 3289488, 5633844, 7204542, 6098016,
                     2572906)
GAMA_PIN_NEGATIVE = (0, 0, 18, 158, 896, 4302, 18234, 68634, 228338,
                     659766, 1626758, 3350448, 5558478, 6987712, 5917978,
                     2515182)
GAMA_PIN_LIVE_PREFIX = 8  # lengths the oracle re-derives on every run


def _matches_printed(value: float, printed: str) -> bool:
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    return abs(value - float(printed)) <= 0.5 * 10 ** (-decimals) + 1e-12


def _has_integer_numerator(printed_percent: str, denominator: int) -> bool:
    """Whether some k / denominator rounds to the printed percentage."""
    decimals = len(printed_percent.split(".")[1])
    half = Fraction(1, 2 * 10 ** decimals)
    lo = (Fraction(printed_percent) - half) / 100 * denominator
    hi = (Fraction(printed_percent) + half) / 100 * denominator
    return math.ceil(lo) <= hi


def _show(value, scale: int) -> str:
    return "undefined" if value is None else f"{scale * float(value):.4f}"


def test_criterion_3_tribal_network_tables():
    g = load_gahuku_gama()
    t0 = time.perf_counter()
    table = balance_table(cycle_census(g, 16))
    elapsed = time.perf_counter() - t0
    bad = []
    live = brute_force_census(g, GAMA_PIN_LIVE_PREFIX)
    for ell in range(1, GAMA_PIN_LIVE_PREFIX + 1):
        pinned = (GAMA_PIN_POSITIVE[ell - 1], GAMA_PIN_NEGATIVE[ell - 1])
        if (live.n_pos(ell), live.n_neg(ell)) != pinned:
            bad.append(f"N{ell}+/-=({live.n_pos(ell)}, {live.n_neg(ell)}) "
                       f"from the live oracle vs oracle pin {pinned}")
    if float(table.row(2).ratio_negative) != 0.0:
        bad.append(f"R2={_show(table.row(2).ratio_negative, 100)} vs 0 "
                   f"(symmetric ties)")
    published = (("R", GAMA_R_PERCENT, 100), ("U", GAMA_U_PERCENT, 100),
                 ("K", GAMA_K, 1))
    for ell in range(2, 17):
        row = table.row(ell)
        got = {"R": row.ratio_negative, "U": row.neg_to_pos,
               "K": row.clustering}
        if ell <= GAMA_PUBLISHED_MAX_LENGTH:
            for name, printed_by_length, scale in published:
                printed = printed_by_length.get(ell)
                value = got[name]
                if printed is not None and (
                        value is None
                        or not _matches_printed(scale * float(value), printed)):
                    bad.append(f"{name}{ell}={_show(value, scale)} "
                               f"vs published {printed}")
        else:
            p, n = GAMA_PIN_POSITIVE[ell - 1], GAMA_PIN_NEGATIVE[ell - 1]
            want = {"R": Fraction(n, p + n), "U": Fraction(n, p),
                    "K": Fraction(p - n, p + n)}
            bad.extend(f"{name}{ell}={got[name]} vs oracle pin {want[name]}"
                       for name in "RUK" if got[name] != want[name])
    # each undirected 6-cycle of the symmetric fixture is counted twice
    six_cycles = table.row(6).n_pos + table.row(6).n_neg
    detail = f"{elapsed:.1f}s"
    if six_cycles % 2 or _has_integer_numerator(GAMA_R_PERCENT[6],
                                                six_cycles // 2):
        bad.append(f"published R6={GAMA_R_PERCENT[6]}% is reachable over "
                   f"{six_cycles // 2} six-cycles: compare l>=6 with the "
                   f"published table again")
    else:
        detail = (f"published R6..R16 cannot come from the bundled fixture: "
                  f"R6={GAMA_R_PERCENT[6]}% has no integer numerator over "
                  f"its {six_cycles // 2} six-cycles; {detail}")
    if bad:
        detail += (f"; references: published l=2..{GAMA_PUBLISHED_MAX_LENGTH},"
                   f" oracle pin l={GAMA_PUBLISHED_MAX_LENGTH + 1}..16"
                   f"; mismatches: {bad}")
    _report("criterion 3: 16-tribe network R/U/K, published values at "
            f"printed precision for l<={GAMA_PUBLISHED_MAX_LENGTH}, exact "
            "oracle pins beyond", not bad and elapsed <= 60.0, detail)


def test_criterion_3_tribe_pins_against_networkx():
    """The pins agree with a third counter, networkx's simple_cycles."""
    nx = pytest.importorskip("networkx")
    g = load_gahuku_gama()
    ug = nx.Graph()
    ug.add_nodes_from(range(g.vertex_count))
    for (u, v), s in g.edges.items():
        ug.add_edge(u, v, sign=s)
    max_length = 8
    pos, neg = [0] * (max_length + 1), [0] * (max_length + 1)
    for cycle in nx.simple_cycles(ug, length_bound=max_length):
        sign = math.prod(ug[a][b]["sign"]
                         for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        (pos if sign > 0 else neg)[len(cycle)] += 1
    # networkx lists each undirected cycle once, the census once per
    # orientation; every tie is one positive 2-cycle u -> v -> u
    assert (GAMA_PIN_POSITIVE[1], GAMA_PIN_NEGATIVE[1]) == (
        ug.number_of_edges(), 0)
    for ell in range(3, max_length + 1):
        assert (GAMA_PIN_POSITIVE[ell - 1], GAMA_PIN_NEGATIVE[ell - 1]) == (
            2 * pos[ell], 2 * neg[ell]), f"l={ell}"


# -- 4. triad -----------------------------------------------------------------

def test_criterion_4_triad():
    g = load_triad()
    table = balance_table(cycle_census(g, 3))
    _, u_walks = weighted_degree_of_balance(g)
    ok = (float(table.row(2).ratio_negative) == 0.0
          and float(table.row(3).ratio_negative) == 1.0
          and abs(u_walks - 0.19) <= 0.005)
    _report("criterion 4: triad R2=0, R3=1, U_walks=0.19+-0.005", ok,
            f"U_walks={u_walks:.4f}")


# -- 5. large signed networks (skip when files absent) ------------------------

SNAP_EXPECTED = {
    "wiki_elections": {1: "45.455", 2: "3.438", 3: "13.068"},
    "slashdot": {2: "4.0003", 3: "6.3608"},
    "epinions": {1: "6.1082", 2: "2.0858", 3: "11.2343"},
}


@pytest.mark.parametrize("name", sorted(SNAP_EXPECTED))
def test_criterion_5_snap_low_order(name):
    path = snap_path(name)
    if not path.exists():
        pytest.skip(f"{path} not present; fetch the dataset to enable")
    g = load_edge_list(path)
    table = exact_low_order_ratios(g)
    bad = []
    for ell, printed in SNAP_EXPECTED[name].items():
        r = table.row(ell).ratio_negative
        if r is None or not _matches_printed(100 * float(r), printed):
            bad.append(f"R{ell}")
    _report(f"criterion 5: {name} low-order ratios", not bad, str(bad))


# -- 6. orbit / cycle equivalence ---------------------------------------------

def test_criterion_6_orbit_cycle_equivalence():
    rng = random.Random(60406)
    for trial in range(100):
        g = random_signed_digraph(rng, max_vertices=12,
                                  edge_prob=rng.uniform(0.1, 0.3))
        if g.edge_count == 0:
            continue
        cc = cycle_census(g, 5)
        oc = primitive_orbit_counts(g, 5)
        for ell in (3, 4, 5):
            if (oc.n_pos(ell), oc.n_neg(ell)) != (cc.n_pos(ell), cc.n_neg(ell)):
                _report("criterion 6: orbit census == cycle census, l=3..5",
                        False, f"trial {trial}, l={ell}")
    _report("criterion 6: orbit census == cycle census, l=3..5 "
            "(100 graphs)", True)


# -- 7. non-backtracking walk identities --------------------------------------

def test_criterion_7_orbit_walk_identities():
    rng = random.Random(70707)
    checked = 0
    while checked < 50:
        g = random_signed_digraph(rng, max_vertices=8,
                                  edge_prob=rng.uniform(0.2, 0.5),
                                  undirected=True)
        if g.edge_count == 0:
            continue
        checked += 1
        ts = hashimoto_matrix(g).astype(object)
        tu = np.abs(ts)
        walks = stark_terras_orbit_walks(g, 10)
        ps, pu = ts.copy(), tu.copy()
        for ell in range(1, 11):
            wp, wm = walks[ell - 1]
            if wp - wm != int(ps.trace()) or wp + wm != int(pu.trace()):
                _report("criterion 7: walk recursion trace identities",
                        False, f"graph {checked}, l={ell}")
            ps = ps @ ts
            pu = pu @ tu
    _report("criterion 7: walk recursion trace identities (50 graphs, l<=10)",
            True)


# -- 8. Monte Carlo calibration ------------------------------------------------

def _clustered_graph(seed, clusters=10, size=20, p_in=0.20, p_neg=0.3):
    rng = random.Random(seed)
    edges = {}
    for c in range(clusters):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < p_in:
                    s = 1 if rng.random() > p_neg else -1
                    edges[(base + i, base + j)] = s
                    edges[(base + j, base + i)] = s
    for c in range(clusters):
        u = c * size
        v = ((c + 1) % clusters) * size + 1
        edges[(u, v)] = edges[(v, u)] = 1
    return SignedDigraph(clusters * size, edges, from_undirected=True)


def test_criterion_8_monte_carlo_calibration():
    t0 = time.perf_counter()
    g = _clustered_graph(42)
    exact = cycle_census(g, 8)
    base = run_monte_carlo(g, MonteCarloConfig(6, 12, 20, 8, master_seed=13))
    doubled = run_monte_carlo(g, MonteCarloConfig(12, 12, 20, 8, master_seed=14))
    elapsed = time.perf_counter() - t0

    misses = []
    for ell in range(2, 9):
        row = base.rows[ell - 1]
        tot = exact.total(ell)
        if (row.ratio_negative is None or tot == 0
                or base.cycles_found[ell - 1] < 50):
            continue
        truth = exact.n_neg(ell) / tot
        # stderr is 2 sigma of the batch-mean distribution
        if abs(row.ratio_negative - truth) > 1.5 * (row.stderr or 0.0):
            misses.append(ell)
    ratios = []
    for ell in range(3, 9):
        a, b = base.rows[ell - 1], doubled.rows[ell - 1]
        if (a.stderr and b.stderr and base.cycles_found[ell - 1] >= 50
                and doubled.cycles_found[ell - 1] >= 50):
            ratios.append(b.stderr / a.stderr)
    gm = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    scaling_ok = 0.7071 * 0.7 <= gm <= 0.7071 * 1.3
    _report("criterion 8: Monte Carlo within 3 sigma and 1/sqrt(N) scaling",
            not misses and scaling_ok and elapsed <= 600.0,
            f"misses={misses}, sigma-ratio={gm:.3f}, {elapsed:.0f}s")


# -- 9. null model ---------------------------------------------------------------

def test_criterion_9_null_model():
    for ell in range(1, 21):
        assert null_ratio(0.5, ell) == 0.5
    # directed random graph: sign shuffling moves every ratio, including the
    # reciprocal pairs (an undirected graph pins R2 = 0 structurally)
    rng = random.Random(9009)
    n, p_arc, p_neg = 16, 0.25, 0.3
    edges = {}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p_arc:
                edges[(u, v)] = 1 if rng.random() > p_neg else -1
    g = SignedDigraph(n, edges)
    p = g.negative_edge_fraction()
    exact = cycle_census(g, 6)
    inside = total = 0
    for rep in range(20):
        res = shuffle_null(g, 6, 8, seed=rep)
        for row in res.mean.rows:
            if row.length > 6 or row.ratio_negative is None:
                continue
            lo, hi = null_band(p, row.length, exact.total(row.length))
            total += 1
            if lo - 1e-12 <= row.ratio_negative <= hi + 1e-12:
                inside += 1
    frac = inside / total
    _report("criterion 9: null_ratio(0.5)=0.5; shuffle means inside the "
            "2-sigma band", frac >= 0.9,
            f"in-band fraction {frac:.2%} over {total} cells")


# -- 10. divisibility invariant ---------------------------------------------------

def test_criterion_10_divisibility_robustness():
    adversarial = [
        # multi-component with self-loops and isolated vertices
        "0 0 -1\n1 2 1\n2 1 1\n4 5 1\n5 6 -1\n6 4 1",
        "0 1 1\n1 0 -1\n2 2 1\n3 3 -1",
        "0 1 1\n1 2 1\n2 3 1\n3 0 -1\n0 2 -1\n1 3 1\n5 5 -1",
    ]
    for text in adversarial:
        g = load_graph_text(text)
        census = cycle_census(g, g.vertex_count + 3)
        assert census == brute_force_census(g, g.vertex_count + 3)
    rng = random.Random(101010)
    for _ in range(60):
        g = random_signed_digraph(rng, max_vertices=10,
                                  edge_prob=rng.uniform(0.05, 0.4),
                                  loop_prob=0.2)
        cycle_census(g, g.vertex_count + 2)  # raises on any violation
    _report("criterion 10: divisibility invariant on adversarial graphs", True)


def load_graph_text(text):
    from cyclebalance.graph import parse_edge_list
    return parse_edge_list(text)
