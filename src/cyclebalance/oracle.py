"""Brute-force simple-cycle enumeration, the independent cross-check.

A bounded depth-first search in the spirit of Johnson's elementary-circuit
algorithm: cycles are rooted at their minimum vertex id, so each directed
simple cycle is produced exactly once with its orientation preserved.
Deliberately unoptimized; used to validate the generating-function engine
and to produce ground truth on small graphs.
"""

from __future__ import annotations

import math
from typing import Callable

from .graph import SignedDigraph
from .engine import CycleCensus

__all__ = ["enumerate_simple_cycles", "brute_force_census",
           "complete_graph_census"]


def enumerate_simple_cycles(
        g: SignedDigraph, max_length: int,
        visitor: Callable[[int, int, tuple[int, ...]], None] | None = None
) -> int:
    """Visit every directed simple cycle of length <= max_length exactly once.

    The visitor receives (length, sign, vertex sequence); the sequence starts
    at the cycle's minimum vertex id.  Self-loops are length-1 cycles.
    Returns the number of cycles visited.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    out = [[] for _ in range(g.vertex_count)]  # (head, sign), heads ascending
    count = 0
    for u, w, s in zip(*(a.tolist() for a in g.arcs)):
        out[u].append((w, s))
        if u == w:
            count += 1
            if visitor is not None:
                visitor(1, s, (u,))
    if max_length == 1:
        return count

    path: list[int] = []
    on_path: set[int] = set()

    def dfs(root: int, v: int, sign: int):
        nonlocal count
        path.append(v)
        on_path.add(v)
        for w, s in out[v]:
            if w == root and len(path) >= 2:
                count += 1
                if visitor is not None:
                    visitor(len(path), sign * s, tuple(path))
            elif w > root and w not in on_path and len(path) < max_length:
                dfs(root, w, sign * s)
        path.pop()
        on_path.discard(v)

    for root in range(g.vertex_count):
        dfs(root, root, 1)
    return count


def brute_force_census(g: SignedDigraph, max_length: int) -> CycleCensus:
    """Tally enumerate_simple_cycles by length and sign."""
    pos = [0] * max_length
    neg = [0] * max_length

    def tally(length: int, sign: int, _seq):
        if sign > 0:
            pos[length - 1] += 1
        else:
            neg[length - 1] += 1

    enumerate_simple_cycles(g, max_length, tally)
    return CycleCensus(max_length, tuple(pos), tuple(neg))


def complete_graph_census(n: int) -> dict[int, int]:
    """Exact directed simple-cycle counts per length on the complete graph K_n.

    count_l = n! / ((n-l)! * l) for 2 <= l <= n: choose an ordered l-tuple of
    distinct vertices and identify the l rotations of the same cycle.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    fact_n = math.factorial(n)
    return {ell: fact_n // (math.factorial(n - ell) * ell)
            for ell in range(2, n + 1)}
