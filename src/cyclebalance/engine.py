"""Exact signed simple-cycle counting via the subgraph generating function.

The ordinary generating function of the simple cycles of a weighted digraph
can be written as a sum over weakly connected induced subgraphs H:

    P(z) = integral dz/z  sum_H  Tr[ (z A_H)^|H| (I - z A_H)^|N(H)| ]

Expanding the binomial, the degree-l term of the integrand collects
(-1)^(l-|H|) C(|N(H)|, l-|H|) Tr(A_H^l), so subgraph H contributes only to
degrees |H| <= l <= |H| + |N(H)|.  The formal integration divides the
degree-l aggregate by l; exact divisibility is asserted on every run.

Coefficient l of P(z) is then the sum of w(c) over simple cycles c of
length l, where w(c) multiplies edge signs (signed mode) or is 1 (unsigned).
The subgraph sum follows Giscard, Kriege & Wilson, "A general purpose
algorithm for counting simple cycles and simple paths of any length"
(Algorithmica 2019).

Exactness.  Subgraphs of one size h are processed in batches.  Let r be the
largest row sum of |A_H| over a batch.  The row sums of |A_H|^k are at most
r^k, so |(A_H^k)_ij| <= (|A_H|^k)_ij <= r^k and |Tr A_H^l| <= h r^l.  Every
partial sum formed while multiplying A_H^(k-1) by A_H, or while summing a
trace, adds a subset of the terms of the matching entry or trace of |A_H|,
so its magnitude is bounded by the unsigned value, whatever the order of
summation.  All values are integers, so float64 arithmetic is exact while
the bound is below 2^53, int64 arithmetic while it is below 2^62, and
object (Python int) arithmetic always.  Each array is computed in the
cheapest of these that its bound allows.  A float64 array is widened to
int64 before object, so an object array never holds floats.

Half powers.  With m = ceil(hi/2) for the largest degree hi a batch needs,
only A_H^1..A_H^m are formed by matrix products.  For l > m the identity
Tr A^l = Tr(A^m A^(l-m)) = sum_ij (A^m)_ij (A^(l-m))_ji gives the trace by
an O(h^2) elementwise product instead of an O(h^3) matrix product; its
terms are bounded as above by Tr |A_H|^l <= h r^l.

Acyclicity filter.  An induced subgraph without a directed cycle has a
nilpotent adjacency matrix, so all its traces vanish and it is skipped.
It is found by stripping sinks over out-neighbour bitmasks.
A graph built from an undirected network holds the reverse of every edge,
so every connected subgraph with h >= 2 contains a 2-cycle: the filter
could never skip one there, and it runs on directed graphs only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graph import SignedDigraph
from .series import TruncatedSeries
from .subgraphs import connected_vertex_sets

__all__ = [
    "CycleEngineError",
    "CycleCensus",
    "BalanceRow",
    "BalanceTable",
    "cycle_polynomial",
    "cycle_census",
    "balance_table",
    "estimate_ratios",
    "exact_low_order_ratios",
]

# integers and partial sums below these magnitudes are exact in the dtype
_FLOAT64_EXACT = 2**53
_INT64_EXACT = 2**62
# bytes of the stored powers of one batch of same-size subgraphs
_CHUNK_BYTES = 1 << 21


class CycleEngineError(RuntimeError):
    """Internal inconsistency (failed divisibility or parity invariant)."""


@dataclass(frozen=True)
class CycleCensus:
    """Exact counts of positive/negative cycles per length 1..max_length.

    Simple cycles here; ``orbits`` fills the same type with primitive
    orbits and with closed walks.
    """

    max_length: int
    positive: tuple[int, ...]  # index l-1 -> N_l^+
    negative: tuple[int, ...]

    def __post_init__(self):
        if len(self.positive) != self.max_length or len(self.negative) != self.max_length:
            raise ValueError("need one count per length 1..max_length")
        if any(c < 0 for c in self.positive + self.negative):
            raise ValueError("cycle counts must be nonnegative")

    @classmethod
    def from_weights(cls, signed, unsigned) -> "CycleCensus":
        """Census from per-length sums of signs (N^+ - N^-) and of ones
        (N^+ + N^-), lengths 1, 2, ...; checks parity and magnitude."""
        for ell, (s, u) in enumerate(zip(signed, unsigned), start=1):
            if (u + s) % 2 or u < abs(s):
                raise CycleEngineError(
                    f"length {ell}: signed coefficient {s} and unsigned {u} "
                    f"are not a consistent census (parity or magnitude "
                    f"violation)"
                )
        return cls(len(signed),
                   tuple((u + s) // 2 for s, u in zip(signed, unsigned)),
                   tuple((u - s) // 2 for s, u in zip(signed, unsigned)))

    def n_pos(self, length: int) -> int:
        return self.positive[length - 1]

    def n_neg(self, length: int) -> int:
        return self.negative[length - 1]

    def total(self, length: int) -> int:
        return self.n_pos(length) + self.n_neg(length)

    def grand_total(self) -> int:
        return sum(self.positive) + sum(self.negative)


@dataclass(frozen=True)
class BalanceRow:
    """Balance ratios at one cycle length; None marks undefined ratios.

    Exact censuses carry Fractions; estimated tables carry floats.
    """

    length: int
    n_pos: int
    n_neg: int
    ratio_negative: Fraction | float | None  # R = N^- / (N^- + N^+)
    neg_to_pos: Fraction | float | None      # U = N^- / N^+ (inf if N^+=0<N^-)
    clustering: Fraction | float | None      # K = (N^+ - N^-) / (N^+ + N^-)


@dataclass(frozen=True)
class BalanceTable:
    rows: tuple[BalanceRow, ...] = field(default_factory=tuple)

    def row(self, length: int) -> BalanceRow:
        for r in self.rows:
            if r.length == length:
                return r
        raise KeyError(length)

    def defined_lengths(self) -> list[int]:
        return [r.length for r in self.rows if r.ratio_negative is not None]


def _successor_masks(g: SignedDigraph) -> list[int]:
    """Bit w of entry v is set iff arc (v, w) exists; a self-loop sets v's
    own bit."""
    succ = [0] * g.vertex_count
    for u, v in g.edges:
        succ[u] |= 1 << v
    return succ


def _acyclic(vertices: tuple[int, ...], succ: list[int]) -> bool:
    """True if the subgraph induced on ``vertices`` has no directed cycle
    (nilpotent adjacency: every trace power vanishes, so it cannot
    contribute).

    ``succ[v]`` masks the out-neighbours of v; a self-loop is v's own bit,
    so a looped vertex is never a sink.  Sinks are stripped until none
    remains (acyclic) or every vertex left has an out-arc inside (cyclic).
    """
    inside = 0
    for v in vertices:
        inside |= 1 << v
    left = vertices
    while left:
        kept = []
        for v in left:
            if succ[v] & inside:
                kept.append(v)
            else:
                inside ^= 1 << v
        if len(kept) == len(left):
            return False
        left = kept
    return True


def _exact_dtype(bound: int) -> np.dtype:
    """Cheapest dtype whose arithmetic is exact on integers whose magnitude,
    and that of every partial sum, stays below ``bound``."""
    if bound < _FLOAT64_EXACT:
        return np.dtype(np.float64)
    if bound < _INT64_EXACT:
        return np.dtype(np.int64)
    return np.dtype(object)


def _widen(a: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Cast an integer-valued array to an exact dtype at least as wide.

    float64 goes through int64: cast straight to object it would hold
    floats, whose products round.
    """
    if a.dtype == np.float64 and dtype != np.float64:
        a = a.astype(np.int64)
    return a.astype(dtype, copy=False)


def _finish(buckets, max_length: int) -> list[TruncatedSeries]:
    out = []
    for b in buckets:
        coeffs = [0] * (max_length + 1)
        for ell in range(1, max_length + 1):
            agg = b[ell]
            if agg % ell:
                raise CycleEngineError(
                    f"degree-{ell} aggregate {agg} not divisible by {ell}; "
                    f"the subgraph accumulation is inconsistent"
                )
            coeffs[ell] = agg // ell
        out.append(TruncatedSeries(max_length, tuple(coeffs)))
    return out


def _add_batch(buckets, sub: np.ndarray, nb: np.ndarray, max_length: int,
               signed: bool, unsigned: bool) -> None:
    """Add the contributions of a batch of same-size subgraphs.

    ``sub`` stacks their signed adjacency matrices (k, h, h); ``nb`` holds
    their neighbour counts in ascending order.
    """
    h = sub.shape[1]
    uns = np.abs(sub)
    mats = np.stack([sub] * signed + [uns] * unsigned, axis=1)
    r = int(uns.sum(axis=2).max())
    hi = min(max_length, h + int(nb[-1]))
    half = (hi + 1) // 2
    a = _widen(mats, _exact_dtype(h * r**half))
    powers = [None, a]
    for _ in range(2, half + 1):
        powers.append(powers[-1] @ a)
    # runs of equal neighbour count share one binomial coefficient per degree
    starts = np.flatnonzero(np.diff(nb, prepend=-1))
    for ell in range(h, hi + 1):
        bound = h * r**ell
        if ell <= half:
            tr = np.trace(powers[ell], axis1=2, axis2=3)
        else:
            dtype = _exact_dtype(bound)
            tr = np.einsum("kwij,kwji->kw", _widen(powers[half], dtype),
                           _widen(powers[ell - half], dtype))
        sums = np.add.reduceat(_widen(tr, _exact_dtype(len(nb) * bound)),
                               starts, axis=0)
        for n, row in zip(nb[starts].tolist(), sums):
            # C(n, ell - h) vanishes for degrees beyond h + n
            coeff = (-1) ** (ell - h) * math.comb(n, ell - h)
            if coeff:
                for w, t in enumerate(row):
                    buckets[w][ell] += coeff * int(t)


def _series_pair(g: SignedDigraph, max_length: int, *, signed: bool = True,
                 unsigned: bool = True) -> list[TruncatedSeries]:
    """Evaluate the generating function; returns the requested weightings.

    One enumeration pass accumulates the signed and unsigned variants
    together (they share subgraphs and neighbour counts).  Subgraphs are
    grouped by size, sorted by neighbour count and batched into stacked
    matrix products, each batch in the dtypes its bound keeps exact.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    n_out = int(signed) + int(unsigned)
    if n_out == 0:
        raise ValueError("request at least one weighting")
    succ = _successor_masks(g)
    directed = not g.from_undirected
    # index h: the size-h subgraphs that may host a cycle, and their |N(H)|
    members = [[] for _ in range(max_length + 1)]
    nbs = [[] for _ in range(max_length + 1)]
    for vs, nc in connected_vertex_sets(g, max_length):
        h = len(vs)
        # a singleton hosts a cycle only through a self-loop
        if (h == 1 or directed) and _acyclic(vs, succ):
            continue
        members[h].append(vs)
        nbs[h].append(nc)

    buckets = [[0] * (max_length + 1) for _ in range(n_out)]
    n = g.vertex_count
    arcs = sorted(g.edges.items())
    keys = np.array([u * n + v for (u, v), _ in arcs], dtype=np.int64)
    signs = np.array([s for _, s in arcs], dtype=np.int8)
    for h in range(1, max_length + 1):
        if not members[h]:
            continue
        nb = np.array(nbs[h])
        order = np.argsort(nb, kind="stable")
        nb = nb[order]
        vidx = np.array(members[h], dtype=np.int64)[order]
        half = (min(max_length, h + int(nb[-1])) + 1) // 2
        step = max(1, _CHUNK_BYTES // (8 * n_out * h * h * (half + 2)))
        for start in range(0, len(nb), step):
            part = vidx[start:start + step]
            # look up every vertex pair of every subgraph among the arcs
            pair = part[:, :, None] * n + part[:, None, :]
            pos = np.minimum(np.searchsorted(keys, pair), len(keys) - 1)
            sub = np.where(keys[pos] == pair, signs[pos], 0).astype(np.int8)
            _add_batch(buckets, sub, nb[start:start + step], max_length,
                       signed, unsigned)
    return _finish(buckets, max_length)


def cycle_polynomial(g: SignedDigraph, max_length: int,
                     weighting: str = "signed") -> TruncatedSeries:
    """Truncated generating function of simple cycles up to ``max_length``.

    Coefficient l is the sum over simple cycles of length l of the product
    of edge signs ('signed') or of 1 per cycle ('unsigned').
    """
    if weighting == "signed":
        return _series_pair(g, max_length, signed=True, unsigned=False)[0]
    if weighting == "unsigned":
        return _series_pair(g, max_length, signed=False, unsigned=True)[0]
    raise ValueError(f"unknown weighting {weighting!r}")


def cycle_census(g: SignedDigraph, max_length: int) -> CycleCensus:
    """Exact per-length counts of positive and negative simple cycles.

    Combines the signed and unsigned runs: N^+/- = (unsigned +/- signed)/2.
    """
    sgn, uns = _series_pair(g, max_length, signed=True, unsigned=True)
    return CycleCensus.from_weights(sgn.coefficients[1:], uns.coefficients[1:])


def _ratios(n_pos: int, n_neg: int):
    total = n_pos + n_neg
    if total == 0:
        return None, None, None
    r = Fraction(n_neg, total)
    k = Fraction(n_pos - n_neg, total)
    u = Fraction(n_neg, n_pos) if n_pos else math.inf
    return r, u, k


def balance_table(census: CycleCensus) -> BalanceTable:
    """Per-length ratios R, U, K; zero-cycle lengths are marked undefined."""
    rows = []
    for ell in range(1, census.max_length + 1):
        np_, nn = census.n_pos(ell), census.n_neg(ell)
        r, u, k = _ratios(np_, nn)
        rows.append(BalanceRow(ell, np_, nn, r, u, k))
    return BalanceTable(tuple(rows))


def estimate_ratios(r: float | None) -> tuple[float | None, float | None]:
    """(U, K) from an estimated R: U = R / (1 - R), inf at R = 1; K = 1 - 2R."""
    if r is None:
        return None, None
    return (r / (1.0 - r) if r < 1.0 else math.inf), 1.0 - 2.0 * r


def exact_low_order_ratios(g: SignedDigraph) -> BalanceTable:
    """R, U, K for lengths 1..3 via trace formulas (loops stripped for l >= 2).

    Agrees with cycle_census for l <= 3 on any graph; cheap enough for
    networks far beyond the reach of full enumeration.
    """
    def weights(full, stripped):
        # l=1: self-loops, directly from the diagonal; each 2-cycle
        # contributes twice to the trace and each directed triangle thrice
        sq = stripped @ stripped
        return [int(np.trace(full)), int(np.trace(sq)) // 2,
                int(np.trace(sq @ stripped)) // 3]

    a = g.adjacency(signed=True, dtype=object)
    at = g.adjacency(signed=True, strip_loops=True, dtype=object)
    return balance_table(CycleCensus.from_weights(
        weights(a, at), weights(np.abs(a), np.abs(at))))
