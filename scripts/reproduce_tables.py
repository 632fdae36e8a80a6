#!/usr/bin/env python3
"""Recompute the balance tables for the embedded fixtures.

Prints exact R/U/K per cycle length for the triad and the sixteen-tribe
alliance network, plus walk- and orbit-based comparisons, the independent-
sign null band, and the correlation-length fit.
"""

import argparse
import math
import sys
from fractions import Fraction

from cyclebalance.datasets import load_gahuku_gama, load_triad
from cyclebalance.engine import balance_table, cycle_census
from cyclebalance.nullmodel import (default_fit_range, fit_correlation_length,
                                    null_band, null_ratio)
from cyclebalance.orbits import (primitive_orbit_counts, walk_ratios,
                                 weighted_degree_of_balance)


def pct(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, Fraction):
        x = float(x)
    if math.isinf(x):
        return "inf"
    return f"{100 * x:.2f}%"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-length", type=int, default=16)
    args = ap.parse_args(argv)

    for name, graph in (("triad", load_triad()),
                        ("gahuku-gama", load_gahuku_gama())):
        L = min(args.max_length, graph.vertex_count)
        print(f"== {name}: {graph.vertex_count} vertices, "
              f"{graph.edge_count} directed edges, "
              f"p = {graph.negative_edge_fraction():.4f}")
        census = cycle_census(graph, L)
        table = balance_table(census)
        orbits = balance_table(primitive_orbit_counts(graph, L)).rows
        walks = walk_ratios(graph, L)
        p = graph.negative_edge_fraction()
        print("len     N+        N-        R        U        K     R_walks"
              "   R_orbit   R_null  band")
        for row in table.rows:
            ell = row.length
            wr = walks[ell - 1].ratio_negative
            orb = orbits[ell - 1].ratio_negative
            tot = row.n_pos + row.n_neg
            if tot:
                lo, hi = null_band(p, ell, tot)
                band_s = f"[{100 * lo:.1f},{100 * hi:.1f}]"
            else:
                band_s = "-"
            print(f"{ell:3d} {row.n_pos:9d} {row.n_neg:9d} "
                  f"{pct(row.ratio_negative):>8} {pct(row.neg_to_pos):>8} "
                  f"{'-' if row.clustering is None else f'{float(row.clustering):+.3f}':>6} "
                  f"{pct(wr):>8} {pct(orb):>8} "
                  f"{pct(null_ratio(p, ell)):>8} {band_s}")
        k_walks, u_walks = weighted_degree_of_balance(graph)
        print(f"exponential walk balance: K = {k_walks:.4f}, "
              f"U_walks = {u_walks:.4f}")
        lengths = default_fit_range(table)
        if len(lengths) >= 2:
            fit = fit_correlation_length(table, lengths)
            print(f"correlation fit over l = {lengths}: xi = {fit.xi:.3f} "
                  f"(2xi = {fit.two_xi:.3f}, rss = {fit.residual:.2e})")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
