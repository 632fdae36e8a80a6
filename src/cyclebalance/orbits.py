"""Primitive-orbit balance via the signed Hashimoto matrix.

The Hashimoto (edge-adjacency, non-backtracking) matrix T of a digraph is
indexed by directed edges, in the (tail, head) order of ``arcs``: T[e, f] is
nonzero iff e's head is f's tail and f is not e's reversal.  With forward
sign assignment (every transition leaving edge e carries sign(e)), the
product of entries around a closed non-backtracking walk equals the walk's
sign, so signed traces of T^l separate positive from negative orbits.

Primitive orbits (closed non-backtracking, tailless walks that are not
powers of shorter ones) coincide with simple cycles for lengths 3..5 on
loopless graphs.  An orbit of length j and sign s gives j closed walks of
each length kj, of sign s^k.  With U_l = Tr |T|^l and S_l = Tr T^l,
Mobius inversion (Terras, Zeta Functions of Graphs, 2011) gives

    l (N^+_l + N^-_l) = sum_{d | l} mu(d) U_{l/d},
    l N^-_l = sum_{d | l, d odd} mu(d) (U_{l/d} - S_{l/d}) / 2.

The second sum runs over odd d: (U_l - S_l) / 2 sums j N^-_j over the
j | l with l/j odd, a Dirichlet convolution with the indicator of odd
numbers, which is completely multiplicative, so its inverse is mu on odd
d and 0 on even d.  For undirected graphs the Stark-Terras three-term
recursion computes the same traces from vertex-level matrices; the tests
keep it as a reference for these traces.

Traces of T^l, and of A^l for closed walks, are exact integers from the
engine's power-trace routine (its module docstring has the bound).  The
exponential walk balance K = Tr exp(A) / Tr exp(|A|) is a float: both
exponentials are shifted by the Perron root of |A| and taken with
``scipy.linalg.expm`` (Estrada & Benzi, Phys. Rev. E 90, 2014).
"""

from __future__ import annotations

import math

import numpy as np

from .engine import (BalanceRow, CycleCensus, _finish, _power_traces,
                     balance_table)
from .graph import GraphError, SignedDigraph
from .subgraphs import _ranges

__all__ = [
    "hashimoto_matrix",
    "mobius",
    "primitive_orbit_counts",
    "walk_ratios",
    "weighted_degree_of_balance",
]

# Above this dimension dense powers of T, or of A for closed walks, are
# declared unsupported; both are meant for small and mid-sized networks.
DENSE_CAP = 4096
# Above this vertex count the dense exponentials of the walk balance are
# declared unsupported.
EXPM_CAP = 2000


def hashimoto_matrix(g: SignedDigraph) -> np.ndarray:
    """T of a loopless graph, int64 with entries in {0, +1, -1}, its rows and
    columns in ``g.arcs`` order; raises if self-loops are present."""
    if g.has_self_loops():
        raise GraphError(
            "Hashimoto matrix requires a loopless graph; strip self-loops "
            "first (without_self_loops)"
        )
    tails, heads, signs = g.arcs
    # arc e = (u, v) moves to every arc f leaving v, bar its reversal (v, u)
    lo, hi = g.out_offsets[heads], g.out_offsets[heads + 1]
    e = np.repeat(np.arange(len(tails)), hi - lo)
    f = _ranges(lo, hi)
    keep = heads[f] != tails[e]
    t = np.zeros((len(tails), len(tails)), dtype=np.int64)
    t[e[keep], f[keep]] = signs[e[keep]]
    return t


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


def primitive_orbit_counts(g: SignedDigraph, max_length: int) -> CycleCensus:
    """Counts of positive/negative primitive orbits for lengths 1..max_length.

    Lengths 1 and 2 are always 0: a loopless graph has no closed non-
    backtracking walk shorter than 3.  Each length's aggregates are single
    Mobius sums over the traces (module docstring): l (N^+_l + N^-_l) sums
    mu(d) U_{l/d} over d | l, and l N^-_l sums mu(d) (U_{l/d} - S_{l/d}) / 2
    over odd d | l only, as an even power of a negative orbit is positive.
    So l (N^+_l - N^-_l) sums mu(d) S_{l/d} at odd d and mu(d) U_{l/d} at
    even d.  Both pass the census's checks in ``engine._finish``.
    """
    if max_length < 3:
        raise ValueError("primitive orbits start at length 3")
    if g.edge_count > DENSE_CAP:
        raise GraphError(
            f"Hashimoto dimension {g.edge_count} exceeds the dense cap "
            f"{DENSE_CAP}; orbit counting at this scale is not supported"
        )
    mat = hashimoto_matrix(g)
    # traces[l] = (S_l, U_l)
    traces = [(0, 0)] + [tuple(map(int, tr)) for tr in _power_traces(
        np.stack([mat, np.abs(mat)]), 1, max_length)]
    signed, unsigned = [0] * (max_length + 1), [0] * (max_length + 1)
    for d in range(1, max_length + 1):
        mu = mobius(d)
        for m in range(1, max_length // d + 1):
            s, u = traces[m]
            signed[d * m] += mu * (s if d % 2 else u)
            unsigned[d * m] += mu * u
    return CycleCensus.from_weights(*_finish([signed, unsigned], max_length))


def walk_ratios(g: SignedDigraph, max_length: int) -> tuple[BalanceRow, ...]:
    """Closed-walk balance ratios per length from traces of A^l and |A|^l.

    A closed walk is positive or negative by the product of its signs, so
    Tr A^l and Tr |A|^l are the signed and unsigned sums of a census of
    closed walks.  Length 1 counts the self-loops; lengths >= 2 strip the
    diagonal.  Lengths with no closed walks are undefined.  Graphs beyond
    ``DENSE_CAP`` vertices are refused.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    if g.vertex_count > DENSE_CAP:
        raise GraphError(f"graph has {g.vertex_count} vertices, above the "
                         f"size cap {DENSE_CAP} for dense walk powers")
    a = g.adjacency()
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
    a = g.adjacency(dtype=np.float64)
    b = np.abs(a)
    shift = np.linalg.eigvals(b).real.max(initial=0.0) * np.eye(n)
    k = float(np.trace(expm(a - shift))) / float(np.trace(expm(b - shift)))
    u = (1 - k) / (1 + k) if k != -1 else math.inf
    return k, u
