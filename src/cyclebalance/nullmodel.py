"""Uncorrelated-signs null hypothesis, sign-shuffle null, correlation fit.

Under independent edge signs with negative probability p, a length-l cycle
is negative iff it carries an odd number of negative edges; the binomial sum
over odd counts has the closed form (1 - (1-2p)^l) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, repeat

import numpy as np

from .engine import (_SIGNS_PER_PASS, BalanceTable, balance_row,
                     balance_table, cycle_census, mean_and_2sigma)
from .graph import SignedDigraph
from .parallel import census_map

__all__ = [
    "null_ratio",
    "null_band",
    "with_null_bands",
    "shuffle_null",
    "CorrelationFit",
    "fit_correlation_length",
    "model_ratio",
]

# the default fit range ends before the first R at or above this
FIT_THRESHOLD = 0.45
# the interval searched for the correlation length xi
XI_BOUNDS = (1e-3, 1e3)


def null_ratio(p: float, length: int) -> float:
    """Probability that a length-l cycle is negative under independent signs."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if length < 1:
        raise ValueError("length must be >= 1")
    return (1.0 - (1.0 - 2.0 * p) ** length) / 2.0


def null_band(p: float, length: int, total_cycles: int
              ) -> tuple[float, float]:
    """(lower, upper): the two-sigma binomial confidence band around the
    null ratio, clamped to [0, 1]."""
    if total_cycles < 1:
        raise ValueError("need at least one cycle for a defined band")
    r = null_ratio(p, length)
    half = 2.0 * math.sqrt(r * (1.0 - r)) / math.sqrt(total_cycles)
    return max(0.0, r - half), min(1.0, r + half)


def with_null_bands(table: BalanceTable, p: float) -> BalanceTable:
    """``table`` with its null columns filled for negative-edge probability
    ``p``: the null ratio at every length, and its band at lengths with
    cycles."""
    rows = []
    for row in table.rows:
        total = row.n_pos + row.n_neg
        lo, hi = null_band(p, row.length, total) if total else (None, None)
        rows.append(replace(row, null_ratio=null_ratio(p, row.length),
                            null_lo=lo, null_hi=hi))
    return BalanceTable(tuple(rows))


def _shuffled_signs(g: SignedDigraph, rng: np.random.Generator) -> np.ndarray:
    """g's signs permuted over edge slots, in ``arcs`` order, counts kept.

    The slots are the arcs in (tail, head) order.  For an undirected graph
    they are the arcs (u, v) with u <= v, and each reverse arc (v, u) takes
    the sign of its slot, so g's arcs with the result as signs are a valid
    undirected network.
    """
    tails, heads, signs = g.arcs
    slots = (tails <= heads) | (not g.from_undirected)
    shuffled = signs.copy()
    shuffled[slots] = signs[slots][rng.permutation(int(slots.sum()))]
    if g.from_undirected:
        mirrors = ~slots
        shuffled[mirrors] = shuffled[g._reverse_arcs[mirrors]]
    return shuffled


@dataclass(frozen=True)
class ShuffleNullResult:
    # per length: summed counts, the mean of the shuffles' ratios, and in
    # stderr twice their standard deviation
    mean: BalanceTable
    shuffles: int


def shuffle_null(g: SignedDigraph, max_length: int, shuffles: int,
                 seed: int = 0, workers: int = 1) -> ShuffleNullResult:
    """Empirical null: average exact balance ratios over sign shuffles.

    Each shuffle is g's signs permuted, drawn in this process from its own
    (seed, k) stream.  Shuffles keep g's topology, so one census pass counts
    a batch of them, sharing the enumeration, assembly, acyclicity filter
    and unsigned stack, and each adds only its signed traces.  With
    ``workers`` 1 a batch is ``engine._SIGNS_PER_PASS`` shuffles, the most
    one pass takes, or the rest; on the pool in ``parallel`` each task is a
    batch of at most that many and of an even share per worker, with the
    same result.  The unsigned series is reused as the engine keeps it: none is
    traced here if g was just counted at ``max_length``, and at most one per
    worker on the pool, whose workers keep it across tasks and calls.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    if shuffles < 1:
        raise ValueError("need at least one shuffle")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    per_task = min(_SIGNS_PER_PASS, -(-shuffles // workers))
    starts = range(0, shuffles, per_task)
    batches = (np.stack([_shuffled_signs(g, np.random.default_rng([seed, k]))
                         for k in range(lo, min(lo + per_task, shuffles))])
               for lo in starts)
    censuses = census_map(cycle_census, repeat(g), len(starts), max_length,
                          workers, batches)
    tables = [balance_table(c).rows for c in chain.from_iterable(censuses)]
    rows = []
    for l, col in enumerate(zip(*tables), start=1):
        mean, spread = mean_and_2sigma([float(r.ratio_negative) for r in col
                                        if r.ratio_negative is not None])
        rows.append(balance_row(l, mean, sum(r.n_pos for r in col),
                                sum(r.n_neg for r in col), stderr=spread))
    return ShuffleNullResult(BalanceTable(tuple(rows)), shuffles)


@dataclass(frozen=True)
class CorrelationFit:
    xi: float                  # correlation length (may be inf/0 markers)
    two_xi: float
    fit_lengths: tuple[int, ...]
    residual: float
    boundary: bool             # hit the optimizer bounds


def model_ratio(length: int, xi: float) -> float:
    """Exponential saturation model for the negative-cycle fraction."""
    return 1.0 - math.exp(-(length - 2) / (2.0 * xi))


def default_fit_range(table: BalanceTable) -> list[int]:
    """Lengths 3..l*, where l* is the last length before R first reaches
    ``FIT_THRESHOLD``."""
    lengths = []
    for row in table.rows:
        if row.length < 3 or row.ratio_negative is None:
            continue
        if float(row.ratio_negative) >= FIT_THRESHOLD:
            break
        lengths.append(row.length)
    return lengths


def fit_correlation_length(table: BalanceTable,
                           lengths: list[int] | None = None) -> CorrelationFit:
    """Least-squares fit of the exponential model over the chosen lengths.

    One-dimensional minimization on xi within ``XI_BOUNDS`` to 1e-6.
    Degenerate inputs are mapped to boundary markers: all-zero ratios give
    xi = +inf (no decay visible), all-one ratios give xi -> 0.
    """
    if lengths is None:
        lengths = default_fit_range(table)
    pts = [(row.length, float(row.ratio_negative))
           for row in table.rows
           if row.length in set(lengths) and row.ratio_negative is not None]
    if len(pts) < 2:
        raise ValueError("need at least two defined ratios to fit")
    if all(r == 0.0 for _, r in pts):
        return CorrelationFit(math.inf, math.inf,
                              tuple(l for l, _ in pts), 0.0, True)
    if all(r == 1.0 for _, r in pts):
        # saturated balance ratios: the model approaches them only as xi -> 0
        return CorrelationFit(0.0, 0.0, tuple(l for l, _ in pts), 0.0, True)

    # imported here, as only this fit needs it: scipy.optimize takes
    # several times the time and memory of the rest of the package to load
    from scipy.optimize import minimize_scalar

    def loss(xi: float) -> float:
        return sum((r - model_ratio(l, xi)) ** 2 for l, r in pts)

    res = minimize_scalar(loss, bounds=XI_BOUNDS, method="bounded",
                          options={"xatol": 1e-6})
    xi = float(res.x)
    boundary = xi <= XI_BOUNDS[0] * 1.01 or xi >= XI_BOUNDS[1] * 0.99
    return CorrelationFit(xi, 2.0 * xi, tuple(l for l, _ in pts),
                          float(res.fun), boundary)
