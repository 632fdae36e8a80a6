"""Enumeration of weakly connected induced subgraphs up to a size bound.

Uses the exclusive-extension scheme of ESU (Wernicke, "Efficient detection
of network motifs", IEEE/ACM TCBB 2006): a subgraph is grown from its
minimum vertex, the root, and a vertex becomes an extension candidate only
when it is first reached, so every connected vertex set is produced exactly
once.  Orientation is erased for connectivity.

Visit order.  Roots ascend, and each subgraph H is yielded before the
subgraphs grown from it.  The root's candidates are its neighbours above
it in ascending id.  H is extended by its candidates u in list order, and
H + u takes as its candidates those after u, followed by the vertices
above the root that u reaches first (outside H and N(H)) in ascending id.

Parent order, a contract the cycle engine relies on.  Every visit H with
|H| >= 2 comes after its parent, H without its last vertex, and no other
visit of size |H| - 1 comes between them: the latest visit one vertex
smaller is always the parent.  The engine builds each subgraph's matrix
from its parent's on that basis.

Masks.  A vertex set is a Python int with bit v set for vertex v.  Each
vertex's orientation-erased neighbour mask is built once per call; H and
N(H) are kept as masks and |N(H)| is ``int.bit_count()``.  Python ints
have no width limit, so the same code serves any vertex count.  The walk
is an explicit stack over one list of candidates per root: the candidates
of every open subgraph form a contiguous slice of that list, so extending
appends and backtracking truncates, with no per-visit list copies.

``connected_vertex_sets`` yields plain ``(vertices, neighbour_count)``
tuples, which the cycle engine reads directly;
``connected_induced_subgraphs`` wraps them in ``SubgraphVisit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .graph import SignedDigraph

__all__ = ["SubgraphVisit", "connected_vertex_sets",
           "connected_induced_subgraphs",
           "enumerate_connected_induced_subgraphs"]


@dataclass(frozen=True)
class SubgraphVisit:
    """One weakly connected induced subgraph H and its neighbour count |N(H)|."""

    vertices: tuple[int, ...]
    neighbour_count: int


def connected_vertex_sets(g: SignedDigraph, max_size: int
                          ) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield ``(vertices, |N(H)|)`` for every weakly connected induced vertex
    set H with 1 <= |H| <= max_size, in the order of the module docstring.

    ``vertices`` lists H in the order its vertices were added, root first.
    The neighbour count is |N(H)|: vertices outside H with at least one
    edge (either direction) into H.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    n = g.vertex_count
    nbr = [0] * n
    for u, v in g.edges:
        if u != v:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
    # per depth d (|H| = d + 1): vertices, H | N(H), N(H), next candidate
    # index and end of the candidate slice
    verts = [()] * max_size
    seen = [0] * max_size
    nbhd = [0] * max_size
    nxt = [0] * max_size
    end = [0] * max_size
    for root in range(n):
        nb = nbr[root]
        yield (root,), nb.bit_count()
        above = ~((2 << root) - 1)  # vertices with ids above the root
        if max_size == 1 or not nb & above:
            continue
        cand = _ascending(nb & above, [])
        verts[0], seen[0], nbhd[0] = (root,), nb | 1 << root, nb
        nxt[0], end[0] = 0, len(cand)
        d = 0
        while d >= 0:
            i = nxt[d]
            if i == end[d]:
                d -= 1
                continue
            nxt[d] = i + 1
            u = cand[i]
            reached = nbr[u] & ~seen[d]
            nb = nbhd[d] ^ 1 << u | reached
            vs = verts[d] + (u,)
            yield vs, nb.bit_count()
            if d + 2 < max_size:
                del cand[end[d]:]
                _ascending(reached & above, cand)
                d += 1
                verts[d], seen[d], nbhd[d] = vs, seen[d - 1] | reached, nb
                nxt[d], end[d] = i + 1, len(cand)


def _ascending(mask: int, out: list[int]) -> list[int]:
    """Append the set bits of ``mask`` to ``out`` in ascending order."""
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def connected_induced_subgraphs(g: SignedDigraph, max_size: int
                                ) -> Iterator[SubgraphVisit]:
    """``connected_vertex_sets`` with each visit wrapped in a SubgraphVisit."""
    for vertices, neighbour_count in connected_vertex_sets(g, max_size):
        yield SubgraphVisit(vertices, neighbour_count)


def enumerate_connected_induced_subgraphs(
        g: SignedDigraph, max_size: int,
        visitor: Callable[[SubgraphVisit], None] | None = None) -> int:
    """Invoke ``visitor`` once per connected induced subgraph; return the count."""
    count = 0
    for visit in connected_vertex_sets(g, max_size):
        count += 1
        if visitor is not None:
            visitor(SubgraphVisit(*visit))
    return count
