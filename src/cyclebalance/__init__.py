"""Structural balance of signed directed networks from exact cycle counts."""

from .engine import (BalanceRow, BalanceTable, CycleCensus, balance_table,
                     cycle_census, exact_low_order_ratios)
from .graph import SignedDigraph, load_edge_list, parse_edge_list
from .montecarlo import (MonteCarloConfig, MonteCarloReport, convergence_loop,
                         run_monte_carlo)
from .nullmodel import fit_correlation_length, null_band, null_ratio, shuffle_null
from .oracle import brute_force_census, complete_graph_census, enumerate_simple_cycles
from .orbits import (hashimoto_matrix, mobius, primitive_orbit_counts,
                     stark_terras_orbit_walks, walk_ratios,
                     weighted_degree_of_balance)

__version__ = "0.1.0"
