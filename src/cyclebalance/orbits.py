"""Primitive-orbit balance via the signed Hashimoto matrix.

The Hashimoto (edge-adjacency, non-backtracking) matrix T of a digraph is
indexed by directed edges: T[e, f] is nonzero iff e's head is f's tail and f
is not e's reversal.  With forward sign assignment (every transition leaving
edge e carries sign(e)), the product of entries around a closed non-
backtracking walk equals the walk's sign, so signed traces of T^l separate
positive from negative orbits.

Primitive orbits (closed non-backtracking, tailless walks that are not
powers of shorter ones) are counted from the traces by Mobius inversion
over divisors; they coincide with simple cycles for lengths 3..5 on
loopless graphs.  For undirected graphs the Stark-Terras three-term
recursion computes the same traces from vertex-level matrices.

Traces of T^l, and of A^l for closed walks, are exact integers from the
engine's power-trace routine (its module docstring has the bound).  The
exponential walk balance K = Tr exp(A) / Tr exp(|A|) is a float: both
exponentials are shifted by the Perron root of |A| and taken with
``scipy.linalg.expm`` (Estrada & Benzi, Phys. Rev. E 90, 2014).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import BalanceRow, CycleCensus, _power_traces, balance_table
from .graph import GraphError, SignedDigraph
from .subgraphs import _ranges

__all__ = [
    "HashimotoMatrix",
    "hashimoto_matrix",
    "mobius",
    "primitive_orbit_counts",
    "stark_terras_orbit_walks",
    "walk_ratios",
    "weighted_degree_of_balance",
]

# Above this dimension dense powers of T are declared unsupported; the
# orbit computation is meant for small and mid-sized networks.
DENSE_CAP = 4096
# Above this vertex count the dense exponentials of the walk balance are
# declared unsupported.
EXPM_CAP = 2000


@dataclass(frozen=True)
class HashimotoMatrix:
    """Signed edge-adjacency matrix with its directed-edge index."""

    edge_index: tuple[tuple[int, int], ...]  # row/col id -> (source, target)
    matrix: np.ndarray                       # entries in {0, +1, -1}, dtype int64

    @property
    def dimension(self) -> int:
        return len(self.edge_index)


def hashimoto_matrix(g: SignedDigraph) -> HashimotoMatrix:
    """Build T for a loopless graph; raises if self-loops are present."""
    if g.has_self_loops():
        raise GraphError(
            "Hashimoto matrix requires a loopless graph; strip self-loops "
            "first (without_self_loops)"
        )
    tails, heads, signs = g.arcs
    # arc e = (u, v) moves to every arc f leaving v, bar its reversal (v, u)
    out = np.searchsorted(tails, np.arange(g.vertex_count + 1))
    lo, hi = out[heads], out[heads + 1]
    e = np.repeat(np.arange(len(tails)), hi - lo)
    f = _ranges(lo, hi)
    keep = heads[f] != tails[e]
    t = np.zeros((len(tails), len(tails)), dtype=np.int64)
    t[e[keep], f[keep]] = signs[e[keep]]
    return HashimotoMatrix(tuple(zip(tails.tolist(), heads.tolist())), t)


def mobius(n: int) -> int:
    """Number-theoretic Mobius function by trial-division factorization."""
    if n < 1:
        raise ValueError("mobius is defined for n >= 1")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def primitive_orbit_counts(g: SignedDigraph, max_length: int) -> CycleCensus:
    """Counts of positive/negative primitive orbits for lengths 1..max_length.

    Lengths 1 and 2 are always 0: a loopless graph has no closed non-
    backtracking walk shorter than 3.  Totals N^+ + N^- come from the
    Mobius-inverted divisor sum of Tr |T|^d.  The signed difference needs
    care: a power orbit c^k carries sign(c)^k, so negative orbits alternate
    and plain inversion over divisors is wrong for even lengths.  Instead
    the differences are extracted recursively from

        Tr T^l = sum_{j | l} j * (N^+_j + (-1)^(l/j) N^-_j),

    peeling off the known shorter-orbit contributions, which are totals
    N^+_j + N^-_j for even l/j and differences N^+_j - N^-_j for odd l/j.
    All divisions must be exact; a remainder signals a construction bug.
    """
    if max_length < 3:
        raise ValueError("primitive orbits start at length 3")
    if g.edge_count > DENSE_CAP:
        raise GraphError(
            f"Hashimoto dimension {g.edge_count} exceeds the dense cap "
            f"{DENSE_CAP}; orbit counting at this scale is not supported"
        )
    mat = hashimoto_matrix(g).matrix
    tr_s, tr_u = zip(*(map(int, tr) for tr in _power_traces(
        np.stack([mat, np.abs(mat)]), 1, max_length)))
    tot = {1: 0, 2: 0}
    diff = {1: 0, 2: 0}
    for ell in range(3, max_length + 1):
        t = sum(mobius(ell // d) * tr_u[d - 1] for d in _divisors(ell))
        if t % ell:
            raise GraphError(
                f"orbit divisor sum not divisible by {ell}: the Hashimoto "
                f"construction is inconsistent"
            )
        tot[ell] = t // ell
        shorter = sum(j * (diff[j] if (ell // j) % 2 else tot[j])
                      for j in _divisors(ell) if j < ell)
        diff[ell], rem = divmod(tr_s[ell - 1] - shorter, ell)
        if rem:
            raise GraphError(f"signed orbit extraction failed at length {ell}")
    lengths = range(1, max_length + 1)
    return CycleCensus.from_weights([diff[ell] for ell in lengths],
                                    [tot[ell] for ell in lengths])


def stark_terras_orbit_walks(g: SignedDigraph, max_length: int
                             ) -> list[tuple[int, int]]:
    """Positive/negative closed non-backtracking walk counts, lengths 1..max.

    Undirected-only three-term recursion on vertex-level matrices: A+ and A-
    are 0/1 adjacencies of the positive and negative edges, Q = D - I.  The
    tail correction subtracts walks whose closing step retraces.  Satisfies
    W+ - W- = Tr T^l and W+ + W- = Tr |T|^l.
    """
    if not g.symmetric:
        raise GraphError("the orbit-walk recursion is limited to undirected "
                         "(symmetric) graphs")
    if g.has_self_loops():
        raise GraphError("strip self-loops before the orbit-walk recursion")
    n = g.vertex_count
    a = g.adjacency()
    ap, am = ((a == s).astype(np.int64).astype(object) for s in (1, -1))
    deg = ap.sum(axis=1) + am.sum(axis=1)
    q = np.diag(deg - 1)
    ident = np.eye(n, dtype=object)

    plus = [None, ap]    # A+_l, 1-indexed
    minus = [None, am]
    for ell in range(2, max_length + 1):
        if ell == 2:
            p = ap @ ap + am @ am - (q + ident)
            m = am @ ap + ap @ am
        else:
            p = plus[ell - 1] @ ap + minus[ell - 1] @ am - plus[ell - 2] @ q
            m = minus[ell - 1] @ ap + plus[ell - 1] @ am - minus[ell - 2] @ q
        plus.append(p)
        minus.append(m)

    out = []
    qm = q - ident
    for ell in range(1, max_length + 1):
        tail_p = sum((qm @ plus[ell - 2 * j] for j in range(1, (ell - 1) // 2 + 1)),
                     np.zeros((n, n), dtype=object))
        tail_m = sum((qm @ minus[ell - 2 * j] for j in range(1, (ell - 1) // 2 + 1)),
                     np.zeros((n, n), dtype=object))
        wp = int((plus[ell] - tail_p).trace())
        wm = int((minus[ell] - tail_m).trace())
        out.append((wp, wm))
    return out


def walk_ratios(g: SignedDigraph, max_length: int) -> tuple[BalanceRow, ...]:
    """Closed-walk balance ratios per length from traces of A^l and |A|^l.

    A closed walk is positive or negative by the product of its signs, so
    Tr A^l and Tr |A|^l are the signed and unsigned sums of a census of
    closed walks.  Length 1 counts the self-loops; lengths >= 2 strip the
    diagonal.  Lengths with no closed walks are undefined.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    a = g.adjacency(signed=True)
    signed, unsigned = [int(np.trace(a))], [int(np.trace(np.abs(a)))]
    np.fill_diagonal(a, 0)
    for tr in _power_traces(np.stack([a, np.abs(a)]), 2, max_length):
        signed.append(int(tr[0]))
        unsigned.append(int(tr[1]))
    return balance_table(CycleCensus.from_weights(signed, unsigned)).rows


def weighted_degree_of_balance(g: SignedDigraph) -> tuple[float, float]:
    """(K, U_walks) from exponential walk sums: K = Tr exp(A) / Tr exp(|A|).

    Both exponentials are shifted by the Perron root m of |A|, the largest
    real part of its eigenvalues: K = Tr exp(A - mI) / Tr exp(|A| - mI).
    The shift cancels in the ratio.  No eigenvalue of A or |A| has a real
    part above m, so neither trace overflows; the Perron eigenvalue adds
    exp(0) = 1 to the denominator.  Graphs beyond ``EXPM_CAP`` vertices,
    and graphs without vertices, whose traces are both 0, are refused.
    """
    from scipy.linalg import expm

    n = g.vertex_count
    if n == 0:
        raise GraphError("graph has no vertices: K = Tr exp(A) / Tr exp(|A|) "
                         "is 0/0")
    if n > EXPM_CAP:
        raise GraphError(f"graph has {n} vertices, above the size cap "
                         f"{EXPM_CAP} for dense exponentials")
    a = g.adjacency(signed=True, dtype=np.float64)
    b = np.abs(a)
    shift = np.linalg.eigvals(b).real.max(initial=0.0) * np.eye(n)
    k = float(np.trace(expm(a - shift))) / float(np.trace(expm(b - shift)))
    u = (1 - k) / (1 + k) if k != -1 else math.inf
    return k, u
