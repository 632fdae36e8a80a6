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

Bicomponents.  A directed simple cycle of length >= 3 is a simple cycle of
the underlying loopless undirected graph, so it lies inside one of that
graph's biconnected components (Hopcroft & Tarjan, CACM 1973), and having
3 or more vertices, inside exactly one of at least 3 vertices: a
bicomponent, ``SignedDigraph.bicomponents``.  A subgraph that runs through
a bridge or a pendant tree holds no such cycle.  An edge whose two ends lie
in a bicomponent belongs to it, so each bicomponent is an induced subgraph
and its own series counts, from degree 3 on, exactly the cycles of G of
those lengths that lie in it.  So the engine enumerates the bicomponents
laid side by side as one packed graph (``subgraphs.pack``): each takes a
range of ids of its own, a cut vertex is copied into every bicomponent
that holds it, and loops are dropped, which changes no count of length
>= 3.  The packed graph's arcs and adjacency are built in numpy from
``g.arcs``, and one ``size_classes`` run enumerates it in groups of
consecutive bicomponents of at most 64 vertices, one mask word, a larger
bicomponent forming a group of its own; its subgraphs are those of the
bicomponents, with |N(H)| taken within one, summed into the same sums.
Nothing is enumerated when L <= 2 or when there is no bicomponent.
Lengths 1 and 2, loops and pairs of antiparallel arcs, may lie on a cut
vertex or a bridge, outside every bicomponent or in several; they are read
from ``g.arcs``, so each counts once.

Exactness.  Subgraphs of one size h are processed in slices.  Let r be the
largest row sum of |A_H| over a slice.  The row sums of |A_H|^k are at most
r^k, so |(A_H^k)_ij| <= (|A_H|^k)_ij <= r^k and |Tr A_H^l| <= h r^l.  Every
partial sum formed while multiplying by A_H, or while summing a trace,
adds a subset of the terms of the matching entry or trace of |A_H|, so its
magnitude is bounded by the unsigned value, whatever the order of
summation; a sum of the traces of k subgraphs is bounded by k h r^l.  All
values are integers, and a float format with a p-bit significand holds
every integer of magnitude up to 2^p, so a sum or product of such integers
that stays below 2^p in magnitude is exact.  Hence four rungs: float32
arithmetic is exact while the bound is below 2^24, float64 while it is
below 2^53, int64 while it is below 2^62, and object (Python int)
arithmetic always.  Each array is computed in the cheapest of these that
its bound allows, and is only ever cast up that ladder: a float array is
widened to int64 before object, so an object array never holds floats.

Traces along the ESU tree.  Each subgraph H is its parent P, H without its
last vertex w, plus w: A_H = [[A_P, c], [u, a]].  Its traces are the
parent's plus the closed walks through w,

    Tr A_H^l = Tr A_P^l + D_l,    D_l = l g_l + sum_{m=1}^{l-1} g_m D_{l-m},

with g_1 = a and g_m = u A_P^(m-2) c, the signed walks that leave w and
first return to it after m steps.  This follows from det(I - z A_H) =
det(I - z A_P) (1 - sum_m g_m z^m), a Schur complement, and from
sum_l Tr A^l z^l = -z d/dz log det(I - z A).  The g_m come from chains of
half length, x_b = A_P^b c and y_a = u A_P^a, as g_(a+b+2) = y_a x_b; on a
symmetric graph (``SignedDigraph.symmetric``) y_a = x_a.  So a subgraph
costs ceil((L-2)/2) matrix-vector products per chain and an O(L^2)
recursion, vectorised over the slice.
Bound: the entries of x_b and y_a, g_m, and every term and partial sum of
the recursion at degree l are sub-sums of the matching unsigned walk
counts, and those of D_l sum to Tr |A_H|^l - Tr |A_P|^l <= h r^l, so the
ladder above applies degree by degree.

Slices and sums.  ``subgraphs.size_classes`` hands over the subgraphs one
size class at a time, block by block: per subgraph the index of its
parent in the block's previous class, its vertex row and |N(H)|, and per
block its inner vertices, the only ones its subgraphs can take.  A class
is built in slices from its parents' stacked int8 matrices: only the new
vertex's row and column are new, 2h-1 gathers from a dense int8 sign
table T[rank(u), rank(v)] = sign(u -> v) over the block's inner vertices,
ranked in ascending id.  One table buffer serves every block: a block
sets the entries of its arcs among its inner vertices, from out-arc lists
built once per census, and they are cleared before the next block, so a
block costs O(those arcs), as its neighbour masks do in ``subgraphs``.
The table takes |inner|^2 bytes for the largest block, never one byte per
pair of the graph's vertices: at most 16 MB for a block of several roots,
whose inner vertices lie in a universe of at most 64 * _WORD_BUDGET = 4096
vertices, and for a single-root block at most 8 times that block's own
neighbour masks (|inner| rows of at least |inner| / 64 words).
A subgraph without a directed cycle has a nilpotent matrix, so all its
traces are 0 and it skips the recursion.  One holding a cyclic parent
holds its cycle; the others are stripped of sinks (on undirected networks
only singletons and pairs: edges are 2-cycles).  A class keeps the traces
its children extend, degrees h+1..L.  Its traces at degrees h..L are
summed per (h, |N(H)|) as exact integers across slices and blocks, and the
binomials, which vanish beyond degree h + |N(H)|, are applied once at the
end, so neither block nor class order changes a count.

``_power_traces`` takes exact traces of the powers of any stack of integer
matrices, with r the largest row sum of |A| over the stack: A^1..A^m, m =
ceil(hi/2), are multiplied out, and Tr A^l = sum_ij (A^m)_ij (A^(l-m))_ji
gives the longer traces by an O(h^2) elementwise product, its terms
bounded as above by Tr |A|^l <= h r^l.  It serves ``orbits``: the signed
and unsigned Hashimoto matrices (T, |T|) of the primitive-orbit census and
the loopless adjacencies (A, |A|) of the closed-walk census, at any length.

Reusing the unsigned series.  The unsigned series, that of |A_H|, counts
the cycles of each length whatever their signs, so it is a function of the
arc set and L alone.  ``cycle_census`` keeps one entry: L, the tails
and heads of the graph's read-only ``arcs``, sorted by (tail, head), which
determine the arc set, and the unsigned series computed for them.  A later
census with the same L and arc arrays, compared in full, takes that series
and traces only the signed stack; any other topology computes both
series in one pass and replaces the entry.  So repeat censuses of one
graph, and the sign shuffles of ``nullmodel.shuffle_null``, which permute
signs over a fixed topology, trace |A_H| once per process.  The checks
still run on every census: every series computed is checked for
divisibility, and ``CycleCensus.from_weights`` checks the parity and
magnitude of the fresh signed series against the reused unsigned one.
The entry holds 16 bytes per arc and L integers.

Each census logs one DEBUG record per subgraph size on the
``cyclebalance.engine`` logger: subgraphs, cyclic subgraphs, slices and the
widest trace dtype; then the number of bicomponents, the vertices inside
them and the size of the largest; then the packing's group count, the
block count and the largest sign table in bytes; and then whether the
unsigned series was computed or reused.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graph import SignedDigraph
from .subgraphs import _ranges, pack, size_classes

__all__ = [
    "CycleEngineError",
    "CycleCensus",
    "BalanceRow",
    "BalanceTable",
    "cycle_census",
    "balance_table",
    "balance_row",
    "mean_and_2sigma",
    "exact_low_order_ratios",
]

# integers and partial sums below these magnitudes are exact in the dtype
_FLOAT32_EXACT = 2**24
_FLOAT64_EXACT = 2**53
_INT64_EXACT = 2**62
# exact dtypes, narrowest first: an array is only ever cast up this ladder
_LADDER = (np.dtype(np.float32), np.dtype(np.float64), np.dtype(np.int64),
           np.dtype(object))
# bytes of the temporaries of one slice of a size class
_CHUNK_BYTES = 1 << 21

_log = logging.getLogger(__name__)

# (max_length, tails, heads, unsigned series) of the last topology whose
# unsigned series was computed, arcs in (tail, head) order
_unsigned_entry = None


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
        (N^+ + N^-), lengths 1, 2, ...; checks lengths, parity and
        magnitude."""
        if len(signed) != len(unsigned):
            raise CycleEngineError(
                f"{len(signed)} signed coefficients against {len(unsigned)} "
                f"unsigned: the series lengths differ"
            )
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
    """Balance ratios at one cycle length; None marks undefined values.

    Exact censuses carry Fractions; estimated tables carry floats.  Rows
    without counts (closed-walk ratios, Monte Carlo estimates) leave n_pos
    and n_neg None.  The last four fields are the report's optional
    columns: the 2-sigma spread of an estimated R and a null model's R
    with its band.
    """

    length: int
    n_pos: int | None
    n_neg: int | None
    ratio_negative: Fraction | float | None  # R = N^- / (N^- + N^+)
    neg_to_pos: Fraction | float | None      # U = N^- / N^+ (inf if N^+=0<N^-)
    clustering: Fraction | float | None      # K = (N^+ - N^-) / (N^+ + N^-)
    stderr: float | None = None              # 2 sigma of the estimated R
    null_ratio: float | None = None
    null_lo: float | None = None
    null_hi: float | None = None


@dataclass(frozen=True)
class BalanceTable:
    rows: tuple[BalanceRow, ...] = field(default_factory=tuple)

    def row(self, length: int) -> BalanceRow:
        for r in self.rows:
            if r.length == length:
                return r
        raise KeyError(length)


def _has_cycle(mats: np.ndarray) -> np.ndarray:
    """Whether each stacked adjacency matrix (k, h, h) has a directed cycle:
    h rounds strip sinks, vertices without an out-arc to a vertex left.  An
    acyclic graph loses one or more per round; a cycle's vertices (a loop
    is an out-arc) are never stripped."""
    arcs = mats != 0
    left = np.ones(mats.shape[:2], dtype=bool)
    for _ in range(mats.shape[1]):
        left &= (arcs & left[:, None, :]).any(axis=2)
    return left.any(axis=1)


def _exact_dtype(bound: int) -> np.dtype:
    """Cheapest dtype whose arithmetic is exact on integers whose magnitude,
    and that of every partial sum, stays below ``bound``."""
    if bound < _FLOAT32_EXACT:
        return np.dtype(np.float32)
    if bound < _FLOAT64_EXACT:
        return np.dtype(np.float64)
    if bound < _INT64_EXACT:
        return np.dtype(np.int64)
    return np.dtype(object)


def _wider(*dtypes: np.dtype) -> np.dtype:
    """The latest of some exact dtypes on the ladder float32, float64,
    int64, object."""
    return max(dtypes, key=_LADDER.index)


def _widen(a: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Cast an integer-valued array to an exact dtype at least as wide.

    A float goes through int64 to object: cast straight there it would
    hold floats, whose products round.
    """
    if a.dtype.kind == "f" and dtype.kind != "f":
        a = a.astype(np.int64)
    return a.astype(dtype, copy=False)


def _finish(buckets, max_length: int) -> list[list[int]]:
    """The coefficients 1..L of each series from its degree-l aggregates
    ``b[l]``, l times the coefficients; checks their divisibility."""
    out = []
    for b in buckets:
        coeffs = []
        for ell in range(1, max_length + 1):
            agg = b[ell]
            if agg % ell:
                raise CycleEngineError(
                    f"degree-{ell} aggregate {agg} not divisible by {ell}; "
                    f"the subgraph accumulation is inconsistent"
                )
            coeffs.append(agg // ell)
        out.append(coeffs)
    return out


def _power_traces(mats: np.ndarray, lo: int, hi: int):
    """Yield Tr A^l for l = lo..hi over a stack (..., h, h) of integer
    matrices A.

    The traces are exact: only A^1..A^ceil(hi/2) are multiplied out, longer
    traces come from the half-power identity, and each power and trace is
    computed in the dtype that its bound h r^l allows, with r the largest
    row sum of |A| over the stack (module docstring).
    """
    h = mats.shape[-1]
    # einsum sums short int8 rows about twice as fast as ndarray.sum
    r = int(np.einsum("...ij->...i", np.abs(mats), dtype=np.int64)
            .max(initial=0))
    half = (hi + 1) // 2
    powers = [None, _widen(mats, _exact_dtype(h * r))]
    for k in range(2, half + 1):
        dtype = _exact_dtype(h * r**k)
        powers.append(_widen(powers[-1], dtype) @ _widen(powers[1], dtype))
    for ell in range(lo, hi + 1):
        if ell <= half:
            yield np.trace(powers[ell], axis1=-2, axis2=-1)
        else:
            dtype = _exact_dtype(h * r**ell)
            yield np.einsum("...ij,...ji->...", _widen(powers[half], dtype),
                            _widen(powers[ell - half], dtype))


def _walk_traces(mats: np.ndarray, r: int, up: np.ndarray, max_length: int,
                 symmetric: bool) -> np.ndarray:
    """Tr A_H^l for l = h..max_length over a stack (k, h, h) of integer
    matrices A_H, from the traces ``up`` (max_length - h + 1, k) of their
    leading blocks A_P, without the last row and column, at those degrees.

    Each parent's traces are extended by the closed walks through the last
    vertex (module docstring), every value in the dtype its bound h r^l
    allows; r is at least the largest row sum of |A_H| over the stack.
    The result is shaped like ``up``.  ``symmetric`` says every A_H is.
    """
    h = mats.shape[1]
    # the stack runs along the last axis, so each product loops over it
    mats = np.moveaxis(mats, 0, -1).astype(_exact_dtype(h * r), order="C")
    a_p = mats[:-1, :-1]
    # x_b = A_P^b c and y_a = u A_P^a: their entries count walks of b + 1
    # and a + 1 steps into and out of the new vertex
    xs, ys = [mats[:-1, -1]], [mats[-1, :-1]]
    for b in range(1, (max_length - 1) // 2 + 1):
        dtype = _exact_dtype(h * r**(b + 1))
        a_p = _widen(a_p, dtype)
        xs.append(np.einsum("ijk,jk->ik", a_p, _widen(xs[-1], dtype)))
        if not symmetric and b <= (max_length - 2) // 2:
            ys.append(np.einsum("jk,jik->ik", _widen(ys[-1], dtype), a_p))
    if symmetric:  # then y_a = x_a
        ys = xs
    # g_m: first-return walks at the new vertex; d_l: closed walks through it
    g = np.zeros((max_length + 1, mats.shape[2]), _LADDER[0])
    d = np.zeros_like(g)
    g[1] = mats[-1, -1]
    for ell in range(1, max_length + 1):
        dtype = _exact_dtype(h * r**ell)
        g, d = _widen(g, dtype), _widen(d, dtype)
        if ell >= 2:
            a = (ell - 2) // 2
            g[ell] = np.einsum("ik,ik->k", _widen(ys[a], dtype),
                               _widen(xs[ell - 2 - a], dtype))
        # d_0 = l makes the sum's last term l g_l
        d[0] = ell
        d[ell] = np.einsum("mk,mk->k", g[1:ell + 1], d[ell - 1::-1])
    dtype = _wider(up.dtype, d.dtype)
    return _widen(up, dtype) + _widen(d[h:], dtype)


def _short_cycles(g: SignedDigraph) -> list[tuple[int, int]]:
    """The signed and the unsigned weights of the cycles of lengths 1 and 2,
    loops and pairs of antiparallel arcs, read from ``g.arcs``."""
    tails, heads, signs = g.arcs
    rev = g._reverse_arcs()
    loops = signs[tails == heads]
    pair = (rev >= 0) & (tails < heads)
    pairs = signs[pair] * signs[rev[pair]]
    return [(int(loops.sum()), int(pairs.sum())), (len(loops), len(pairs))]


def cycle_census(g: SignedDigraph, max_length: int) -> CycleCensus:
    """Exact per-length counts of positive and negative simple cycles.

    Evaluates the generating function on the signed matrices A_H and the
    unsigned |A_H|: N^+/- = (unsigned +/- signed)/2.  One enumeration of
    the bicomponents, side by side, serves both.  Size classes are assembled
    from their parents and a block-local sign table, filtered and traced in
    slices (module docstring); trace sums per (size, |N(H)|) are exact
    integers across blocks and bicomponents, and the binomials are applied
    once at the end, from degree 3 on.  Lengths 1 and 2 come from the arcs.
    The unsigned series of the last topology is reused, not traced again.
    """
    global _unsigned_entry
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    n = g.vertex_count
    tails, heads, _ = g.arcs
    # read once: a concurrent replacement can cost a reuse, never mix
    # one entry's key with another's series
    entry = _unsigned_entry
    reused = (entry is not None and entry[0] == max_length
              and np.array_equal(entry[1], tails)
              and np.array_equal(entry[2], heads))
    # the stacks traced: signed, then unsigned unless reused
    n_out = 2 - reused
    # cycles of length >= 3 are counted on the bicomponents side by side
    parts = g.bicomponents
    packed = pack(g, parts if max_length >= 3 else ())
    # out-arcs of packed vertex u: heads and signs [out[u], out[u + 1])
    out = np.searchsorted(packed.tails, np.arange(packed.bounds[-1] + 1))
    # table[rank[u] * m + rank[v]] = sign(u -> v) over the m inner vertices
    # of the current block; ``held`` lists the entries set, to clear before
    # the next block
    rank = np.full(packed.bounds[-1], -1, dtype=np.int64)
    table = np.zeros(0, dtype=np.int8)
    held = inner = tails[:0]
    blocks = 0
    # sums[h][l - h, w, |N(H)|]: exact sums of Tr A_H^l per stack w
    sums = [np.zeros((max_length - h + 1, n_out, 0), dtype=object)
            for h in range(max_length + 1)]
    # per size: subgraphs, cyclic subgraphs, slices, widest trace dtype
    tally = [[0, 0, 0, -1] for _ in range(max_length + 1)]
    # no arc: L <= 2, or no bicomponent
    classes = size_classes(packed, max_length) if len(packed.tails) else ()
    for parent, verts, nb, block in classes:
        k, h = verts.shape
        if h == 1:  # a new block; class 0 is the empty set
            mats = np.zeros((1, 0, 0), np.int8)
            cyclic = np.zeros(1, bool)
            traces = np.zeros((max_length, n_out, 1), _LADDER[0])
            table[held] = 0
            rank[inner] = -1
            inner, m = block, len(block)
            rank[inner] = np.arange(m)
            if m * m > len(table):
                table = np.zeros(m * m, dtype=np.int8)
            # the out-arcs of inner vertices that end at inner vertices
            lo, hi = out[inner], out[inner + 1]
            arc = _ranges(lo, hi)
            col = rank[packed.heads[arc]]
            keep = col >= 0
            held = (np.repeat(np.arange(m) * m, hi - lo) + col)[keep]
            table[held] = packed.signs[arc[keep]]
            blocks += 1
        # a class keeps the traces its children extend, degrees h+1..L
        up_mats, mats = mats, np.zeros((k, h, h), np.int8)
        up_traces, traces = traces, np.zeros((max_length - h, n_out, k),
                                             _LADDER[0])
        cyclic = cyclic[parent]  # a parent's cycle lies in the subgraph
        # bounds the lookup temporaries and the walk chains of one slice
        step = max(1, _CHUNK_BYTES
                   // (8 * n_out * (h + 2) * (h + max_length)))
        grow = int(nb.max()) + 1 - sums[h].shape[2]
        if grow > 0:
            sums[h] = np.concatenate([sums[h], np.zeros(
                sums[h].shape[:2] + (grow,), dtype=object)], axis=2)
        stats = tally[h]
        stats[0] += k
        stats[2] += -(-k // step)
        for start in range(0, k, step):
            p, rows, sub, cyc = (a[start:start + step] for a in
                                 (parent, verts, mats, cyclic))
            rows = rank[rows]
            v = rows[:, -1:]
            sub[:, :-1, :-1] = up_mats[p]
            # the new vertex's out-arcs, then its in-arcs from the others
            sub[:, -1] = table.take(v * m + rows)
            sub[:, :-1, -1] = table.take(rows[:, :-1] * m + v)
            todo = np.flatnonzero(~cyc)
            if len(todo):
                cyc[todo] = _has_cycle(sub[todo])
            # acyclic: a nilpotent matrix, whose traces stay 0
            live = np.flatnonzero(cyc)
            if not len(live):
                continue
            live = live[np.argsort(nb[start + live], kind="stable")]
            live_sub = sub[live]
            absolute = np.abs(live_sub)
            # einsum sums short int8 rows about twice as fast as .sum
            r = int(np.einsum("kij->ki", absolute, dtype=np.int64).max())
            t = _walk_traces(
                np.concatenate([live_sub, absolute][:n_out]), r,
                up_traces[:, :, p[live]].reshape(max_length - h + 1, -1),
                max_length, g.symmetric
            ).reshape(max_length - h + 1, n_out, -1)
            traces = _widen(traces, _wider(traces.dtype, t.dtype))
            traces[:, :, start + live] = _widen(t[1:], traces.dtype)
            # runs of equal neighbour count share their binomials
            counts = nb[start + live]
            runs = np.flatnonzero(np.diff(counts, prepend=-1))
            bound = len(live) * h * r**max_length
            sums[h][:, :, counts[runs]] += _widen(np.add.reduceat(
                _widen(t, _wider(t.dtype, _exact_dtype(bound))), runs,
                axis=2), np.dtype(object))
            stats[1] += len(live)
            stats[3] = max(stats[3], _LADDER.index(t.dtype))
    if _log.isEnabledFor(logging.DEBUG):
        for h, (k, live, slices, widest) in enumerate(tally):
            if k:
                _log.debug("size %d: %d subgraphs, %d cyclic, %d slices, "
                           "widest trace dtype %s", h, k, live, slices,
                           _LADDER[widest] if widest >= 0 else "none")
        inside = np.zeros(n, dtype=bool)
        for part in parts:
            inside[part] = True
        _log.debug("%d bicomponents, %d of %d vertices, largest %d",
                   len(parts), inside.sum(), n,
                   max(map(len, parts), default=0))
        _log.debug("%d groups, %d blocks, largest sign table %d bytes",
                   len(packed.bounds) - 1, blocks, table.nbytes)
        _log.debug("unsigned series %s",
                   "reused" if reused else "computed")
    # degree-l aggregates, l times the coefficients: lengths 1 and 2 from
    # the arcs, longer ones from the bicomponents
    short = _short_cycles(g)
    buckets = [([0, loops, 2 * pairs] + [0] * max_length)[:max_length + 1]
               for loops, pairs in short[:n_out]]
    for h, by_count in enumerate(sums):
        for count in range(by_count.shape[2]):
            # C(|N(H)|, l - h) vanishes for degrees beyond h + |N(H)|
            for j in range(max(0, 3 - h), min(count, max_length - h) + 1):
                coeff = (-1) ** j * math.comb(count, j)
                for w in range(n_out):
                    buckets[w][h + j] += coeff * by_count[j, w, count]
    series = _finish(buckets, max_length)
    if reused:
        series.append(entry[3])
    else:
        _unsigned_entry = (max_length, tails, heads, series[1])
    return CycleCensus.from_weights(*series)


def balance_row(length: int, r: Fraction | float | None,
                n_pos: int | None = None, n_neg: int | None = None,
                stderr: float | None = None) -> BalanceRow:
    """The row at ``length`` with negative fraction R = ``r``, undefined if
    None: U = R / (1 - R), inf at R = 1, and K = 1 - 2R.

    An exact R = Fraction(N^-, N) gives exactly U = Fraction(N^-, N^+) and
    K = Fraction(N^+ - N^-, N); a float R gives floats.
    """
    if r is None:
        return BalanceRow(length, n_pos, n_neg, None, None, None, stderr)
    u = r / (1 - r) if r < 1 else math.inf
    return BalanceRow(length, n_pos, n_neg, r, u, 1 - 2 * r, stderr)


def balance_table(census: CycleCensus) -> BalanceTable:
    """Per-length ratios R, U, K; zero-cycle lengths are marked undefined."""
    rows = []
    for ell in range(1, census.max_length + 1):
        np_, nn = census.n_pos(ell), census.n_neg(ell)
        r = Fraction(nn, np_ + nn) if np_ + nn else None
        rows.append(balance_row(ell, r, np_, nn))
    return BalanceTable(tuple(rows))


def mean_and_2sigma(values: Sequence[float]
                    ) -> tuple[float | None, float | None]:
    """Mean of ``values`` and twice their sample standard deviation.

    The mean is None without values, the deviation with fewer than two.
    """
    n = len(values)
    if n == 0:
        return None, None
    mean = sum(values) / n
    if n < 2:
        return mean, None
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, 2.0 * math.sqrt(var)


def exact_low_order_ratios(g: SignedDigraph) -> BalanceTable:
    """R, U, K for lengths 1..3: loops and antiparallel arc pairs from the
    arcs, triangles from a trace formula (loops stripped).

    Agrees with cycle_census for l <= 3 on any graph, in O(m d) time for m
    arcs of out-degree at most d.  Every partial sum of the sparse int64
    products is bounded by Tr |S|^3 <= m d (S without the diagonal), so
    they are exact below 2^62; a larger graph raises OverflowError.
    """
    from scipy import sparse

    tails, heads, signs = g.arcs
    keep = tails != heads
    tails, heads, signs = tails[keep], heads[keep], signs[keep].astype(np.int64)
    d = int(np.bincount(tails, minlength=1).max())
    if len(tails) * d >= _INT64_EXACT:
        raise OverflowError(f"{len(tails)} arcs of out-degree up to {d}: "
                            f"Tr S^3 could exceed 2^62")

    def triangles(signs):
        # a directed triangle adds thrice to Tr S^3
        s = sparse.csr_array((signs, (tails, heads)),
                             shape=(g.vertex_count,) * 2)
        return int((s @ s).multiply(s.T).sum()) // 3

    (s1, s2), (u1, u2) = _short_cycles(g)
    return balance_table(CycleCensus.from_weights(
        [s1, s2, triangles(signs)], [u1, u2, triangles(np.abs(signs))]))
