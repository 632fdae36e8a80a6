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
Nothing is enumerated when L <= 2 or when there is no bicomponent.  A
cycle of length l >= 3 needs a bicomponent of at least l vertices, so the
enumeration and every trace stop at top = min(L, the largest bicomponent's
vertex count), and the lengths past top are counted as zero.
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
its bound allows, and is only ever cast up that ladder, save that a sum
across subgraphs whose own bound is below 2^62 is taken in int64 even from
object values (see "Slices and sums"): a float array is widened to int64
before object, so an object array never holds floats.

Traces along the ESU tree.  Each subgraph H is its parent P, H without its
last vertex w, plus w: A_H = [[A_P, c], [u, a]].  Its traces are the
parent's plus the closed walks through w,

    Tr A_H^l = Tr A_P^l + D_l,    D_l = l g_l + sum_{m=1}^{l-1} g_m D_{l-m},

with g_1 = a and g_m = u A_P^(m-2) c, the signed walks that leave w and
first return to it after m steps.  This follows from det(I - z A_H) =
det(I - z A_P) (1 - sum_m g_m z^m), a Schur complement, and from
sum_l Tr A^l z^l = -z d/dz log det(I - z A).  The g_m come from chains of
half length, x_b = A_P^b c and y_a = u A_P^a, as g_(a+b+2) = y_a x_b; when
every sign vector of the pass signs each arc as its reverse (for g's own
signs, ``SignedDigraph.symmetric``), every A_H is symmetric and y_a = x_a.
So a subgraph costs ceil((L-2)/2) matrix-vector products per chain and an
O(L^2) recursion, vectorised over the slice, which runs along the last
axis so that each product loops over it.  The degrees that share a dtype
form a run, which casts g, D and each chain it reads once.
Bound: each chain x_b and y_b is computed in the dtype that r^b allows,
and the matrices in that of r.  Row sums of |A_P| are at most r, so
|x_b| <= |A_P|^b |c| <= r^b entrywise, and a partial sum of a row of
A_P x_(b-1) is at most r r^(b-1).  Every entry of y_b = y_(b-1) A_P, and
every partial sum of one, is at most ||y_(b-1)||_1 <= |u| |A_P|^(b-1) 1
<= r^b, as |u| sums to at most r.  g_m, and every term and partial sum of
the recursion at degree l, are sub-sums of the matching unsigned walk
counts, and those of D_l sum to Tr |A_H|^l - Tr |A_P|^l <= h r^l, so the
ladder above applies degree by degree; a chain read at degree l >= 2b + 1
is only ever cast up, as r^b <= h r^l.

Slices and sums.  ``subgraphs.size_classes`` hands over the subgraphs one
size class at a time, block by block: per subgraph the index of its
parent in the block's previous class, its vertex row, |N(H)| and whether
it has children, and per block its inner vertices, the only ones its
subgraphs can take.  A class is built in slices from its parents' stacked
int8 matrices: only the new vertex's row and column are new, 2h-1 gathers
from a dense int8 sign table T[rank(u), rank(v)] = code(u -> v) (below)
over the block's inner vertices, ranked in ascending id.  One table buffer
serves every block: a block sets the entries of its arcs among its inner
vertices, from out-arc lists built once per census, and they are cleared
before the next block, so a block costs O(those arcs), as its neighbour
masks do in ``subgraphs``.
The table takes |inner|^2 bytes for the largest block, never one byte per
pair of the graph's vertices: at most 16 MB for a block of several roots,
whose inner vertices lie in a universe of at most 64 * _WORD_BUDGET = 4096
vertices, and for a single-root block at most 8 times that block's own
neighbour masks (|inner| rows of at least |inner| / 64 words).
A subgraph without a directed cycle has a nilpotent matrix, so all its
traces are 0 and it skips the recursion.  One holding a cyclic parent
holds its cycle; the others are stripped of sinks (on undirected networks
only singletons and pairs: edges are 2-cycles).  A class keeps what its
children read, its int8 matrices, cycle flags and traces at degrees
h+1..top, only for the subgraphs that have children (``grows`` of
``subgraphs.SizeClass``): on the 16-tribe network at L=16 that is half of
the class at h = 8 and 6 % at h = 15.  They take compact slots, each
slice's growing cyclic subgraphs first and its growing acyclic ones after,
and a child finds its parent's slot through the class's ``slot`` map.  A
slice is assembled in one buffer per class; its leaves, the subgraphs
without children, are traced and summed but never stored.  The traces at
degrees h..top are summed per (h, |N(H)|) as exact integers across slices
and blocks, and the binomials, which vanish beyond degree h + |N(H)|, are
applied once at the end, so neither block nor class order changes a count.
The top class, h = top, has the one degree top, whose binomials
C(|N(H)|, 0) are all 1: its subgraphs are not sorted by |N(H)|, and all
of them are summed into one |N(H)| bucket.  A slice takes as many
subgraphs as ``_CHUNK_BYTES`` = 3 MB allows at 8 (h + 2)(h + top) bytes
per subgraph and stack, a bound on its lookup temporaries and walk
chains.
A slice's k traces at degree l, and every partial sum of them in any
order, are at most k h r^l in magnitude.  A class sums them in one int64
accumulator per (degree, stack, |N(H)|) and keeps, per degree l, R_l: the
sum of k h r^l over the slices added since l was last flushed, that is,
added to the Python-int sums and zeroed with R_l.  A slice whose
R_l + k h r^l would reach 2^62 flushes degree l before it adds, and the
class flushes every degree when it ends.  Proof: an entry at degree l,
and every partial sum formed while a slice is added to it, sums a subset
of the traces of the slices counted in R_l + k h r^l < 2^62, so int64 is
exact; after a flush, one slice always fits.  A degree whose k h r^l
alone reaches 2^62 is summed in Python ints.  The largest row sum r is
summed in int8 while h < 128: a row of h entries of magnitude at most 1
sums to at most h.

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
pass with the same L and arc arrays, compared in full, takes that series;
any other topology traces |A_H| beside the signed stacks and replaces the
entry.  So repeat censuses of one graph trace |A_H| once per process.
The checks still run on every census: every series computed is checked
for divisibility, and ``CycleCensus.from_weights`` checks the parity and
magnitude of each signed series against the unsigned one.  The entry
holds 16 bytes per arc and L integers.

Several sign vectors.  The sign vectors of one topology share the
enumeration, cycle flags, slots, |A_H|, r and unsigned series, so
``cycle_census`` counts K of them (``nullmodel.shuffle_null``'s shuffles)
in one pass, each adding only its signed stack.  The table and the kept
matrices hold one int8 code per entry: bit 0 is the arc, and bit w + 1 is
set where vector w signs it -1.  So a pass takes at most
``_SIGNS_PER_PASS`` = 7 vectors; more take several passes, reusing the
unsigned series as above.  A slice transposes its int8 codes once, so the
stack runs along the last axis, and decodes |A_H| = code & 1 and vector
w's A_H = |A_H| - (code >> w & 2) straight into the walk's first dtype;
only the kept traces and the slice temporaries grow with K.  A plain
census is the pass of g's own signs.

Each census logs one DEBUG record per subgraph size on the
``cyclebalance.engine`` logger: subgraphs, cyclic subgraphs, slices and the
widest trace dtype; then the number of bicomponents, the vertices inside
them and the size of the largest; then the packing's group count, the
block count and the largest sign table in bytes; and then whether the
unsigned series was computed or reused, and the stacks traced, per pass.
"""

from __future__ import annotations

import itertools
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
# bytes of the temporaries of one slice of a size class.  A reused 16-tribe
# census at L=16 took 59, 49, 47, 45 and 46 ms with slices of 1, 2, 3, 4
# and 8 MB (best of 5 means of 10, one process, 2-core box); its fresh
# census peaked at 4.5, 4.6, 5.2, 5.8 and 8.2 MB (tracemalloc): 3 MB keeps
# that peak well under the 6 MB the tests allow
_CHUNK_BYTES = 3 << 20
# sign vectors of one pass: an int8 code holds 7 sign bits beside the arc's
_SIGNS_PER_PASS = 7

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
    ``b[l]``, l times the coefficients; checks their divisibility.  The
    simple cycles, the low-order cycles of ``exact_low_order_ratios`` and
    the primitive orbits pass here, then ``CycleCensus.from_weights``."""
    out = []
    for b in buckets:
        coeffs = []
        for ell in range(1, max_length + 1):
            agg = b[ell]
            if agg % ell:
                raise CycleEngineError(
                    f"degree-{ell} aggregate {agg} not divisible by {ell}: "
                    f"the counts are inconsistent"
                )
            coeffs.append(agg // ell)
        out.append(coeffs)
    return out


def _power_traces(mats: np.ndarray, lo: int, hi: int):
    """Yield Tr A^l for l = lo..hi over a stack (k, h, h) of matrices A
    with entries 0 and +-1.

    The traces are exact: only A^1..A^ceil(hi/2) are multiplied out, longer
    traces come from the half-power identity, and each power and trace is
    computed in the dtype that its bound h r^l allows, with r the largest
    row sum of |A| over the stack (module docstring).
    """
    h = mats.shape[-1]
    r = _row_sum_bound(np.abs(mats.astype(np.int8)))
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
    """Tr A_H^l for l = h..max_length over a stack of k integer matrices
    A_H, laid out (h, h, k) with the stack last and held in the dtype that
    the bound r allows, from the traces ``up`` (max_length - h + 1, k) of
    their leading blocks A_P, without the last row and column, at those
    degrees.

    Each parent's traces are extended by the closed walks through the last
    vertex (module docstring), every value in the dtype its bound h r^l
    allows; r is at least the largest row sum of |A_H| over the stack.
    The result is shaped like ``up``.  ``symmetric`` says every A_H is.
    """
    h = len(mats)
    a_p = mats[:-1, :-1]
    # x_b = A_P^b c and y_a = u A_P^a: their entries count walks of b + 1
    # and a + 1 steps into and out of the new vertex
    xs, ys = [mats[:-1, -1]], [mats[-1, :-1]]
    for b in range(1, (max_length - 1) // 2 + 1):
        dtype = _exact_dtype(r**b)
        a_p = _widen(a_p, dtype)
        xs.append(np.einsum("ijk,jk->ik", a_p, _widen(xs[-1], dtype)))
        if not symmetric and b <= (max_length - 2) // 2:
            ys.append(np.einsum("jk,jik->ik", _widen(ys[-1], dtype), a_p))
    if symmetric:  # then y_a = x_a
        ys = xs
    # g_m: first-return walks at the new vertex; d_l: closed walks through it
    g = np.zeros((max_length + 1, mats.shape[2]), mats.dtype)
    d = np.zeros_like(g)
    g[1] = mats[-1, -1]
    # the degrees that share a dtype form a run, which casts g, d and each
    # chain it reads once, in place, as a later run is wider still:
    # g_l = y_a x_b, a = (l - 2) // 2 and b = (l - 1) // 2
    for dtype, run in itertools.groupby(range(1, max_length + 1),
                                        lambda ell: _exact_dtype(h * r**ell)):
        run = list(run)
        g, d = _widen(g, dtype), _widen(d, dtype)
        at_y = {(ell - 2) // 2 for ell in run if ell > 1}
        at_x = {(ell - 1) // 2 for ell in run if ell > 1}
        if symmetric:  # ys is xs
            at_x, at_y = at_x | at_y, ()
        for chains, at in (xs, at_x), (ys, at_y):
            for i in at:
                chains[i] = _widen(chains[i], dtype)
        for ell in run:
            if ell > 1:
                np.einsum("ik,ik->k", ys[(ell - 2) // 2], xs[(ell - 1) // 2],
                          out=g[ell])
            # d_0 = l makes the sum's last term l g_l
            d[0] = ell
            np.einsum("mk,mk->k", g[1:ell + 1], d[ell - 1::-1], out=d[ell])
    dtype = _wider(up.dtype, d.dtype)
    return _widen(up, dtype) + _widen(d[h:], dtype)


def _row_sum_bound(absolute: np.ndarray) -> int:
    """The largest row sum r of a stack (k, h, h) of matrices |A| with
    entries 0 and 1.  A row sums to at most h, so below h = 128 it is
    summed in int8, about three times as fast as in int64."""
    h = absolute.shape[-1]
    # einsum sums short int8 rows about twice as fast as ndarray.sum
    return int(np.einsum("kij->ki", absolute,
                         dtype=np.int8 if h < 128 else np.int64)
               .max(initial=0))


def _add_sums(sums: np.ndarray, acc: np.ndarray, reach: list, t: np.ndarray,
              counts: np.ndarray, h: int, r: int) -> None:
    """Add the traces t (degrees h.., stacks, k) of k subgraphs of size h,
    whose |N(H)| ``counts`` come in runs of equal values, to the exact
    sums of their size class, Python ints ``sums`` and the int64 ``acc``,
    both indexed by (l - h, stack, |N(H)|).

    ``reach[l - h]`` bounds the magnitude of every partial sum of ``acc`` at
    degree l: the sum of the bounds k h r^l of the slices it took since it
    was last flushed into ``sums`` (module docstring, "Slices and sums").
    """
    k = t.shape[-1]
    # runs of equal |N(H)| share their binomials; a count can head several
    runs = np.flatnonzero(np.concatenate(([True],
                                          counts[1:] != counts[:-1])))
    at = counts[runs]
    bound = [k * h * r**ell for ell in range(h, h + len(t))]
    # the degrees whose slice bound stays below 2^62 are summed in int64
    cut = sum(b < _INT64_EXACT for b in bound)
    for j in range(cut):
        if reach[j] + bound[j] >= _INT64_EXACT:
            sums[j] += acc[j].astype(object)
            acc[j] = reach[j] = 0
        reach[j] += bound[j]
    np.add.at(acc, (slice(cut), slice(None), at), np.add.reduceat(
        t[:cut], runs, axis=2, dtype=np.int64))
    if cut < len(t):
        np.add.at(sums, (slice(cut, None), slice(None), at), np.add.reduceat(
            _widen(t[cut:], np.dtype(object)), runs, axis=2))


def _short_cycles(g: SignedDigraph, signs: np.ndarray) -> list[list[int]]:
    """The degree-l aggregates, l = 0..2, of the cycles of lengths 1 and 2,
    loops and pairs of antiparallel arcs, of each sign vector in ``signs``
    and then unsigned: 0, the loops' weights, twice the pairs'."""
    tails, heads, _ = g.arcs
    rev = g._reverse_arcs
    pair = (rev >= 0) & (tails < heads)
    signs = np.concatenate([signs, np.ones((1, len(tails)), np.int8)])
    return [[0, int(w[tails == heads].sum()),
             2 * int((w[pair] * w[rev[pair]]).sum())] for w in signs]


def cycle_census(g: SignedDigraph, max_length: int, signs=None):
    """Exact per-length counts of positive and negative simple cycles.

    Evaluates the generating function on the signed matrices A_H and the
    unsigned |A_H|: N^+/- = (unsigned +/- signed)/2.  One enumeration of
    the bicomponents, side by side, serves both.  Size classes are assembled
    from their parents and a block-local sign table, filtered and traced in
    slices (module docstring); trace sums per (size, |N(H)|) are exact
    integers across blocks and bicomponents, and the binomials are applied
    once at the end, from degree 3 on.  Lengths 1 and 2 come from the arcs.
    The unsigned series of the last topology is reused, not traced again.

    ``signs``, K sign vectors in ``g.arcs`` order, returns the list of
    their K censuses on g's topology instead ("Several sign vectors").
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    batch = np.asarray(g.arcs[2][None] if signs is None else signs)
    if batch.ndim != 2 or batch.shape[1] != g.edge_count or (
            np.abs(batch) != 1).any():
        raise ValueError(f"signs must be rows of {g.edge_count} +-1 signs")
    censuses = [c for lo in range(0, len(batch), _SIGNS_PER_PASS) for c in
                _census(g, max_length, batch[lo:lo + _SIGNS_PER_PASS])]
    return censuses[0] if signs is None else censuses


def _census(g: SignedDigraph, max_length: int, batch: np.ndarray):
    """The censuses of at most ``_SIGNS_PER_PASS`` sign vectors, one pass."""
    global _unsigned_entry
    tails, heads, _ = g.arcs
    # read once: a concurrent replacement can cost a reuse, never mix
    # one entry's key with another's series
    entry = _unsigned_entry
    reused = (entry is not None and entry[0] == max_length
              and np.array_equal(entry[1], tails)
              and np.array_equal(entry[2], heads))
    # the stacks traced: one per sign vector, then unsigned unless reused
    n_out = len(batch) + 1 - reused
    # each arc's code (module docstring)
    codes = (1 + ((batch < 0) << np.arange(1, len(batch) + 1)[:, None]).sum(
        axis=0)).astype(np.uint8).view(np.int8)
    rev = g._reverse_arcs  # every A_H is symmetric if every vector is
    symmetric = bool((rev >= 0).all() and (batch[:, rev] == batch).all())
    # cycles of length >= 3 are counted on the bicomponents side by side;
    # none is longer than the largest, so no degree past it is traced
    parts = g.bicomponents
    top = min(max_length, max(map(len, parts), default=0))
    packed = pack(g, parts if max_length >= 3 else ())
    # out-arcs of packed vertex u: heads and arcs [out[u], out[u + 1])
    out = np.searchsorted(packed.tails, np.arange(packed.bounds[-1] + 1))
    # table[rank[u] * m + rank[v]] = code(u -> v) over the m inner vertices
    # of the current block; ``held`` lists the entries set, to clear before
    # the next block
    rank = np.full(packed.bounds[-1], -1, dtype=np.int64)
    table = np.zeros(0, dtype=np.int8)
    held = inner = tails[:0]
    blocks = 0
    # sums[h][l - h, w, |N(H)|]: exact sums of Tr A_H^l per stack w
    sums = [np.zeros((top - h + 1, n_out, 0), dtype=object)
            for h in range(top + 1)]
    # per size: subgraphs, cyclic subgraphs, slices, widest trace dtype
    tally = [[0, 0, 0, -1] for _ in range(top + 1)]
    # no arc: L <= 2, or no bicomponent
    classes = size_classes(packed, top) if len(packed.tails) else ()
    for parent, verts, nb, block, grows in classes:
        k, h = verts.shape
        if h == 1:  # a new block; class 0 is the empty set
            mats = np.zeros((1, 0, 0), np.int8)
            cyclic = np.zeros(1, bool)
            traces = np.zeros((top, n_out, 1), _LADDER[0])
            slot = np.zeros(1, np.int64)
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
            table[held] = codes[packed.arcs[arc[keep]]]
            blocks += 1
        # a class keeps what its children read, only for the subgraphs
        # that grow: matrices, cycle flags and traces at degrees h+1..top,
        # in slots filled slice by slice; slot[i] is growing subgraph i's
        parent = slot[parent]
        kept = int(np.count_nonzero(grows))
        up_mats, mats = mats, np.empty((kept, h, h), np.int8)
        up_cyclic, cyclic = cyclic, np.empty(kept, bool)
        up_traces, traces = traces, np.zeros((top - h, n_out, kept),
                                             _LADDER[0])
        slot = np.empty(k, np.int64)
        filled = 0
        # bounds the lookup temporaries and the walk chains of one slice
        step = max(1, _CHUNK_BYTES // (8 * n_out * (h + 2) * (h + top)))
        buf = np.empty((min(k, step), h, h), np.int8)
        if h == top:  # its one degree's binomials C(|N(H)|, 0) are all 1
            nb = np.zeros(k, np.int8)
        grow = int(nb.max()) + 1 - sums[h].shape[2]
        if grow > 0:
            sums[h] = np.concatenate([sums[h], np.zeros(
                sums[h].shape[:2] + (grow,), dtype=object)], axis=2)
        # the class's int64 sums and each degree's running bound R_l
        acc = np.zeros(sums[h].shape, np.int64)
        reach = [0] * (top - h + 1)
        stats = tally[h]
        stats[0] += k
        stats[2] += -(-k // step)
        for start in range(0, k, step):
            p = parent[start:start + step]
            rows = rank[verts[start:start + step]]
            sub = buf[:len(p)]
            v = rows[:, -1:]
            sub[:, :-1, :-1] = up_mats.take(p, 0)
            # the new vertex's out-arcs, then its in-arcs from the others,
            # which on a symmetric pass carry the same codes
            sub[:, -1] = table.take(v * m + rows)
            sub[:, :-1, -1] = (sub[:, -1, :-1] if symmetric else
                               table.take(rows[:, :-1] * m + v))
            cyc = up_cyclic[p]  # a parent's cycle lies in the subgraph
            todo = np.flatnonzero(~cyc)
            if len(todo):
                cyc[todo] = _has_cycle(sub[todo])
            # cyclic subgraphs, those that grow first, each part by
            # |N(H)|; the growing ones keep the next slots, then the
            # growing acyclic ones, whose traces stay 0 (a nilpotent matrix)
            grows_here = grows[start:start + step]
            live = np.flatnonzero(cyc)
            if h < top:
                live = live[np.lexsort((nb[start + live], ~grows_here[live]))]
            forks = int(np.count_nonzero(grows_here[live]))
            kept_here = np.concatenate(
                [live[:forks], np.flatnonzero(grows_here & ~cyc)])
            at, filled = filled, filled + len(kept_here)
            slot[start + kept_here] = np.arange(at, filled)
            mats[at:filled] = sub[kept_here]
            cyclic[at:at + forks] = True
            cyclic[at + forks:filled] = False
            if not len(live):
                continue
            # the codes with the stack last, as the walk reads them
            code = np.ascontiguousarray(sub.take(live, 0).transpose(1, 2, 0))
            absolute = code & 1
            r = _row_sum_bound(absolute.transpose(2, 0, 1))
            # decoded into the walk's first dtype: stack w is -1 where bit
            # w + 1 is set, else the arc bit; the unsigned stack is last
            walk = np.empty((h, h, n_out, len(live)), _exact_dtype(r))
            for w in range(len(batch)):
                np.subtract(absolute, code >> w & 2, out=walk[:, :, w])
            walk[:, :, len(batch):] = absolute[:, :, None]
            del code, absolute  # freed before the walk, the slice's peak
            t = _walk_traces(
                walk.reshape(h, h, -1), r,
                up_traces.take(p[live], 2).reshape(top - h + 1, -1),
                top, symmetric
            ).reshape(top - h + 1, n_out, -1)
            traces = _widen(traces, _wider(traces.dtype, t.dtype))
            traces[:, :, at:at + forks] = _widen(t[1:, :, :forks],
                                                 traces.dtype)
            _add_sums(sums[h], acc, reach, t, nb[start + live], h, r)
            stats[1] += len(live)
            stats[3] = max(stats[3], _LADDER.index(t.dtype))
        if any(reach):
            sums[h] += acc.astype(object)
    if _log.isEnabledFor(logging.DEBUG):
        for h, (k, live, slices, widest) in enumerate(tally):
            if k:
                _log.debug("size %d: %d subgraphs, %d cyclic, %d slices, "
                           "widest trace dtype %s", h, k, live, slices,
                           _LADDER[widest] if widest >= 0 else "none")
        inside = np.zeros(g.vertex_count, dtype=bool)
        for part in parts:
            inside[part] = True
        _log.debug("%d bicomponents, %d of %d vertices, largest %d",
                   len(parts), inside.sum(), g.vertex_count,
                   max(map(len, parts), default=0))
        _log.debug("%d groups, %d blocks, largest sign table %d bytes",
                   len(packed.bounds) - 1, blocks, table.nbytes)
        _log.debug("unsigned series %s; stacks per pass: %d",
                   "reused" if reused else "computed", n_out)
    # degree-l aggregates, l times the coefficients: lengths 1 and 2 from
    # the arcs, longer ones from the bicomponents
    buckets = [(short + [0] * max_length)[:max_length + 1]
               for short in _short_cycles(g, batch)[:n_out]]
    for h, by_count in enumerate(sums):
        for count in range(by_count.shape[2]):
            # C(|N(H)|, l - h) vanishes for degrees beyond h + |N(H)|
            for j in range(max(0, 3 - h), min(count, top - h) + 1):
                coeff = (-1) ** j * math.comb(count, j)
                for w in range(n_out):
                    buckets[w][h + j] += coeff * by_count[j, w, count]
    series = _finish(buckets, max_length)
    if reused:
        series.append(entry[3])
    else:
        _unsigned_entry = (max_length, tails, heads, series[-1])
    return [CycleCensus.from_weights(s, series[-1]) for s in series[:-1]]


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
    they are exact below 2^62; a larger graph raises OverflowError.  The
    aggregates 0, loops, twice the pairs and Tr S^3 pass ``_finish``.
    """
    from scipy import sparse

    tails, heads, signs = g.arcs
    keep = tails != heads
    tails, heads, signs = tails[keep], heads[keep], signs[keep].astype(np.int64)
    d = int(np.bincount(tails, minlength=1).max())
    if len(tails) * d >= _INT64_EXACT:
        raise OverflowError(f"{len(tails)} arcs of out-degree up to {d}: "
                            f"Tr S^3 could exceed 2^62")

    def trace3(signs):
        s = sparse.csr_array((signs, (tails, heads)),
                             shape=(g.vertex_count,) * 2)
        return int((s @ s).multiply(s.T).sum())

    buckets = [short + [trace3(w)] for short, w in
               zip(_short_cycles(g, g.arcs[2][None]), (signs, np.abs(signs)))]
    return balance_table(CycleCensus.from_weights(*_finish(buckets, 3)))
