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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import BalanceRow, CycleCensus, balance_table
from .graph import GraphError, SignedDigraph

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
DEFAULT_DENSE_CAP = 4096


@dataclass(frozen=True)
class HashimotoMatrix:
    """Signed edge-adjacency matrix with its directed-edge index."""

    edge_index: tuple[tuple[int, int], ...]  # row/col id -> (source, target)
    matrix: np.ndarray                       # entries in {0, +1, -1}, dtype int64

    @property
    def dimension(self) -> int:
        return len(self.edge_index)

    def unsigned(self) -> np.ndarray:
        return np.abs(self.matrix)


def hashimoto_matrix(g: SignedDigraph) -> HashimotoMatrix:
    """Build T for a loopless graph; raises if self-loops are present."""
    if g.has_self_loops():
        raise GraphError(
            "Hashimoto matrix requires a loopless graph; strip self-loops "
            "first (without_self_loops)"
        )
    index = sorted(g.edges)
    pos = {e: i for i, e in enumerate(index)}
    n = len(index)
    t = np.zeros((n, n), dtype=np.int64)
    for i, (u, v) in enumerate(index):
        s = g.edges[(u, v)]
        for w in g.out_neighbours(v):
            if w == u:
                continue  # immediate reversal is forbidden
            j = pos.get((v, w))
            if j is not None:
                t[i, j] = s
    return HashimotoMatrix(tuple(index), t)


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


def _signed_unsigned_traces(t: np.ndarray, max_power: int,
                            dense_cap: int = DEFAULT_DENSE_CAP
                            ) -> tuple[list[int], list[int]]:
    """Exact traces of T^l and |T|^l for l = 1..max_power."""
    n = t.shape[0]
    if n > dense_cap:
        raise GraphError(
            f"Hashimoto dimension {n} exceeds the dense cap {dense_cap}; "
            f"orbit counting at this scale is not supported"
        )
    # entries of T^l are bounded by n^(l-1), promote to exact ints if needed
    dtype = np.int64 if n == 0 or n ** max(max_power - 1, 1) < 2**62 else object
    stack = np.zeros((2, n, n), dtype=dtype)
    stack[0] = t
    stack[1] = np.abs(t)
    power = stack.copy()
    tr_signed, tr_unsigned = [], []
    for _ in range(max_power):
        tr = power.trace(axis1=1, axis2=2)
        tr_signed.append(int(tr[0]))
        tr_unsigned.append(int(tr[1]))
        power = power @ stack
    return tr_signed, tr_unsigned


def primitive_orbit_counts(g: SignedDigraph, max_length: int,
                           dense_cap: int = DEFAULT_DENSE_CAP) -> CycleCensus:
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
    h = hashimoto_matrix(g)
    tr_s, tr_u = _signed_unsigned_traces(h.matrix, max_length, dense_cap)
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
    if not _is_symmetric(g):
        raise GraphError("the orbit-walk recursion is limited to undirected "
                         "(symmetric) graphs")
    if g.has_self_loops():
        raise GraphError("strip self-loops before the orbit-walk recursion")
    n = g.vertex_count
    ap = np.zeros((n, n), dtype=object)
    am = np.zeros((n, n), dtype=object)
    for (u, v), s in g.edges.items():
        if s > 0:
            ap[u, v] = 1
        else:
            am[u, v] = 1
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


def _is_symmetric(g: SignedDigraph) -> bool:
    return all(g.edges.get((v, u)) == s for (u, v), s in g.edges.items())


def walk_ratios(g: SignedDigraph, max_length: int) -> tuple[BalanceRow, ...]:
    """Closed-walk balance ratios per length from traces of A^l and |A|^l.

    A closed walk is positive or negative by the product of its signs, so
    Tr A^l and Tr |A|^l are the signed and unsigned sums of a census of
    closed walks.  Length 1 uses the raw adjacency (self-loops count);
    lengths >= 2 strip the diagonal.  Lengths with no closed walks are
    undefined.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    full = g.adjacency(signed=True, dtype=object)
    a = g.adjacency(signed=True, strip_loops=True, dtype=object)
    b = np.abs(a)
    signed, unsigned = [], []
    pw_a, pw_b = a, b
    for ell in range(1, max_length + 1):
        if ell == 1:
            signed.append(int(full.trace()))
            unsigned.append(int(np.abs(full).trace()))
        else:
            pw_a, pw_b = pw_a @ a, pw_b @ b
            signed.append(int(pw_a.trace()))
            unsigned.append(int(pw_b.trace()))
    return balance_table(CycleCensus.from_weights(signed, unsigned)).rows


def weighted_degree_of_balance(g: SignedDigraph, size_cap: int = 2000
                               ) -> tuple[float, float]:
    """(K, U_walks) from exponential walk sums: K = Tr exp(A) / Tr exp(|A|).

    The series is summed until the term falls below 1e-12 of the running
    magnitude.  Graphs beyond ``size_cap`` vertices are refused.
    """
    n = g.vertex_count
    if n > size_cap:
        raise GraphError(f"graph has {n} vertices, above the size cap "
                         f"{size_cap} for dense exponentials")
    a = g.adjacency(signed=True, dtype=np.float64)
    b = np.abs(a)
    d = _trace_exp(a)
    d_plus = _trace_exp(b)
    k = d / d_plus
    u = (1 - k) / (1 + k) if k != -1 else math.inf
    return k, u


def _trace_exp(a: np.ndarray, rtol: float = 1e-12) -> float:
    n = a.shape[0]
    term = np.eye(n)
    total = float(n)  # l = 0 term
    for ell in range(1, 10_000):
        term = term @ a / ell
        t = float(np.trace(term))
        total += t
        if np.abs(term).sum() < rtol * max(1.0, abs(total)):
            break
    return total
