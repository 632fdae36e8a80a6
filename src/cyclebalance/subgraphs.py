"""Enumeration of weakly connected induced subgraphs up to a size bound.

Uses the exclusive-extension scheme of ESU (Wernicke, "Efficient detection
of network motifs", IEEE/ACM TCBB 2006): a subgraph is grown from its
minimum vertex, the root, and a vertex becomes an extension candidate only
when it is first reached, so every connected vertex set is produced exactly
once.  Orientation is erased for connectivity.

Size classes.  The enumeration is level-synchronous: all subgraphs of size
h + 1 are built at once, in numpy, from those of size h.  A ``SizeClass``
holds, per subgraph H, ``parent`` (the index in the previous class of H
without its last vertex; 0 for singletons, whose parent is the empty set),
``verts`` (H in the order its vertices were added, root first) and ``nb``,
|N(H)|: the vertices outside H with an edge, either direction, into H.  It
also holds ``inner``, the ascending ids of every vertex a subgraph of its
block can take (below); all classes of a block share that one array.
While it grows a class, the enumerator keeps two vertex masks per
subgraph, ``seen`` = H | N(H) and ``ext``, the extension candidates.  The
children of H are H + w for the set bits w of ``ext`` in ascending order:

    ext'  = (ext & ids > w) | (nbr[w] & ~seen & ids > root)
    seen' = seen | nbr[w],    |N(H + w)| = popcount(seen') - (h + 1)

with nbr[w] the neighbour mask of w.  Popcounts use ``np.bitwise_count``.
The last field, ``grows``, says whether H has children: ``ext`` is not
empty and |H| < max_size.  So i appears in the ``parent`` of the block's
next class exactly when ``grows[i]``, and a consumer keeps what the
children of a class read only for the subgraphs that grow.

Packings and groups.  ``size_classes`` enumerates a ``SignedDigraph`` as
it is, or a ``Packing``: vertex sets of a graph laid side by side as one
graph (``pack``), which the cycle engine builds from the bicomponents.  Part
i takes the next len(part) ids, its vertices in ascending order, and the
arcs of the graph between two of its vertices; a vertex in several parts
is copied into each, and loops are dropped.  The arcs are built in numpy
from ``SignedDigraph.arcs``, the CSR as ``SignedDigraph.csr``.  Consecutive
parts are packed into groups of at most ``_GROUP`` = 64 vertices, one mask
word, and a larger part forms a group of its own.  Groups are enumerated in
turn, each as a range of roots split into blocks as below, so no subgraph
spans two groups and mask width stays that of one group.  A graph is
enumerated as the packing of one part, itself.

Blocks and universes.  Masks are rows of uint64 words.  Roots are taken in
blocks of consecutive ids, and a block's masks cover only its universe: the
vertices within max_size hops of its roots, which hold H | N(H) for every
subgraph grown from them.  The universe is relabelled in ascending id, so
"ids above the root" keeps its meaning, and W = ceil(|universe| / 64).
Only its inner vertices, those within max_size - 1 hops, can join a
subgraph, so only they get a neighbour mask, and its classes hand them on
as ``inner``.  A block's universe must fit
``_WORD_BUDGET`` words: each block tries the previous block's root count,
scaled by how far that block's universe fell short of the budget, and
halves it until the universe fits.  A single root whose ball is larger
forms a block of its own, with wider masks.  A group of at most
64 * _WORD_BUDGET vertices is one block.

Memory.  With B = _WORD_BUDGET, a block of several roots has at most 64 B
vertices in its universe, so its neighbour masks take at most 64 B * B * 8
bytes, 2 MB at B = 64, and each subgraph mask at most B words.  A class
being grown holds a few such masks per subgraph (``seen``, ``ext`` and
their children's temporaries), besides its ``verts`` rows.  Beyond that,
memory grows with the vertex count only through the packing's arcs and
adjacency and one index per vertex.  A single root with a larger ball has
masks as wide as its ball needs, which stays below the vertex count.

Order, a contract the cycle engine relies on.  Subgraphs come group by
group and block by block; within a block by size; within a class by
parent, and the children of one parent by ascending added vertex.  So
``verts[i, :-1]`` of class h equals ``verts[parent[i]]`` of the same
block's class h - 1, and the engine builds each subgraph's matrix from its
parent's.  The counts a census sums
do not depend on this order.

``size_classes`` yields the classes.  ``connected_induced_subgraphs``
lists their rows as ``SubgraphVisit`` objects, and
``enumerate_connected_induced_subgraphs`` counts them, building a visit
only for a visitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .graph import SignedDigraph

__all__ = ["SubgraphVisit", "SizeClass", "Packing", "pack", "size_classes",
           "connected_induced_subgraphs",
           "enumerate_connected_induced_subgraphs"]

# uint64 words per vertex mask before roots are split into blocks: a block's
# universe has at most 64 * 64 = 4096 vertices and its neighbour masks take
# at most 2 MB (module docstring).  On a sparse 40,000-vertex graph (mean
# degree 4) at max_size 3, budgets of 32, 64 and 128 words enumerated in
# 1.08, 0.86 and 1.10 s (best of 2, 2-core box) with 2, 3 and 10 MB more
# peak RSS.
_WORD_BUDGET = 64
# vertices of a packing group of several parts: one mask word
_GROUP = 64


@dataclass(frozen=True)
class SubgraphVisit:
    """One weakly connected induced subgraph H and its neighbour count |N(H)|."""

    vertices: tuple[int, ...]
    neighbour_count: int


class SizeClass(NamedTuple):
    """The subgraphs of one size h grown from one block of roots."""

    parent: np.ndarray  # (k,) int64: index into the block's class h - 1
    verts: np.ndarray   # (k, h) int32: vertex ids in the order added
    nb: np.ndarray      # (k,) int64: |N(H)|
    inner: np.ndarray   # (m,) int64: the block's inner vertices, ascending
    grows: np.ndarray   # (k,) bool: whether H has children in class h + 1


class Packing(NamedTuple):
    """Vertex sets of a graph laid side by side as one graph, in groups."""

    tails: np.ndarray    # (a,) int64: the arcs within a part, loops dropped,
    heads: np.ndarray    # (a,) int64:   in packed ids, by (tail, head)
    arcs: np.ndarray     # (a,) int64: each one's position in ``g.arcs``
    indptr: np.ndarray   # (N + 1,) int64: the undirected neighbours of
    indices: np.ndarray  # packed vertex v, indices[indptr[v]:indptr[v + 1]]
    bounds: np.ndarray   # group i holds packed ids bounds[i]..bounds[i + 1]-1


def pack(g: SignedDigraph, parts: Sequence[np.ndarray]) -> Packing:
    """Lay the sorted vertex sets ``parts`` of g side by side (module
    docstring).  Two parts share at most one vertex, as bicomponents do, so
    an arc lies in at most one part."""
    n = g.vertex_count
    sizes = np.array([len(p) for p in parts], dtype=np.int64)
    verts = np.concatenate([np.zeros(0, np.int64), *parts])
    part = np.repeat(np.arange(len(sizes)), sizes)
    # part * n + vertex ascends with the packed id
    key = part * n + verts
    # the packed ids of vertex v: copies[start[v]:start[v + 1]]
    copies = np.argsort(verts, kind="stable")
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(verts, minlength=n), out=start[1:])
    tails, heads, _ = g.arcs
    arc = np.flatnonzero(tails != heads)
    # each arc is looked up from its end with fewer copies, x, in the
    # parts of x, for its other end y
    count = np.diff(start)
    flip = count[tails[arc]] > count[heads[arc]]
    x = np.where(flip, heads[arc], tails[arc])
    y = np.where(flip, tails[arc], heads[arc])
    at = np.repeat(np.arange(len(arc)), count[x])
    px = copies[_ranges(start[x], start[x + 1])]
    want = part[px] * n + y[at]
    py = np.minimum(np.searchsorted(key, want), max(len(key) - 1, 0))
    hit = np.flatnonzero(key[py] == want)
    at, px, py = at[hit], px[hit], py[hit]
    p_tails = np.where(flip[at], py, px)
    p_heads = np.where(flip[at], px, py)
    # arcs stay sorted by head within a tail: the packing keeps vertex order
    order = np.argsort(p_tails, kind="stable")
    p_tails, p_heads = p_tails[order], p_heads[order]
    total = len(verts)
    indptr, indices = SignedDigraph(
        total, (p_tails, p_heads, np.ones(len(order), np.int8))).csr
    # consecutive parts up to _GROUP vertices; a larger part alone
    bounds = [0]
    ends = np.cumsum(sizes)
    for lo, hi in zip((ends - sizes).tolist(), ends.tolist()):
        if hi - bounds[-1] > _GROUP and lo > bounds[-1]:
            bounds.append(lo)
    bounds.append(total)
    return Packing(p_tails, p_heads, arc[at[order]], indptr, indices,
                   np.array(bounds))


def size_classes(g: SignedDigraph | Packing, max_size: int
                 ) -> Iterator[SizeClass]:
    """Yield the classes of weakly connected induced vertex sets H with
    1 <= |H| <= max_size of a graph or a packing, in the order of the module
    docstring."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if isinstance(g, SignedDigraph):
        g = pack(g, [np.arange(g.vertex_count)])
    # local id of each vertex of the current universe, -1 elsewhere
    local = np.full(g.bounds[-1], -1, dtype=np.int64)
    for lo, hi in zip(g.bounds[:-1], g.bounds[1:]):
        for roots, universe, inner in _blocks(g.indptr, g.indices, lo, hi,
                                              max_size, local):
            local[universe] = np.arange(len(universe))
            yield from _grow(g.indptr, g.indices, local, roots, universe,
                             inner, max_size)
            local[universe] = -1


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The concatenation of arange(a, b) over the pairs (a, b)."""
    lens = stops - starts
    ends = np.cumsum(lens)
    return np.repeat(stops - ends, lens) + np.arange(ends[-1] if len(ends)
                                                     else 0)


def _bit(v: np.ndarray) -> np.ndarray:
    """The bit of each vertex v within its uint64 word."""
    return np.left_shift(np.uint64(1), (v & 63).astype(np.uint64))


def _set_bits(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, bit) of every set bit of a (k, W) uint64 mask array, by row and
    then by ascending bit; only nonzero words, then bytes, are unpacked."""
    row, word = np.nonzero(masks)
    octets = masks[row, word].astype("<u8", copy=False).view(np.uint8)
    i = np.flatnonzero(octets)
    j, b = np.nonzero(np.unpackbits(octets[i][:, None], axis=1,
                                    bitorder="little"))
    i = i[j]
    return row[i >> 3], word[i >> 3] * 64 + (i & 7) * 8 + b


def _above(v: np.ndarray, words: int) -> np.ndarray:
    """Masks of ``words`` words holding the ids above each vertex v."""
    word = v >> 6
    out = np.where(np.arange(words) > word[:, None], ~np.uint64(0),
                   np.uint64(0))
    low = _bit(v)
    out[np.arange(len(v)), word] = ~(low | (low - np.uint64(1)))
    return out


def _ball(indptr, indices, sources, radius: int, cap: int, mark):
    """The vertices within ``radius`` hops of ``sources`` and those within
    radius - 1, each sorted, or None once they number more than ``cap``.
    ``mark`` is scratch, -1 on every vertex, and is left so."""
    layers, frontier = [sources], sources
    mark[sources] = 0
    size = len(sources)
    for _ in range(radius):
        reached = indices[_ranges(indptr[frontier], indptr[frontier + 1])]
        reached = reached[mark[reached] < 0]
        # each vertex keeps the position of one of its copies: keep that copy
        mark[reached] = order = np.arange(len(reached))
        frontier = reached[mark[reached] == order]
        layers.append(frontier)
        size += len(frontier)
        if size > cap:
            break
    ball = np.concatenate(layers)
    mark[ball] = -1
    if size > cap:
        return None
    return np.sort(ball), np.sort(np.concatenate(layers[:-1]))


def _blocks(indptr, indices, lo: int, hi: int, max_size: int, mark):
    """Yield (roots, universe, inner) per block of consecutive roots of the
    vertices lo..hi-1, which no edge joins to others (module docstring);
    ``mark`` is scratch for ``_ball``."""
    cap = 64 * _WORD_BUDGET
    if hi - lo <= cap:
        if hi > lo:
            everything = np.arange(lo, hi)
            yield everything, everything, everything
        return
    start, count = lo, 1
    while start < hi:
        roots = np.arange(start, min(hi, start + count))
        balls = _ball(indptr, indices, roots, max_size,
                      cap if len(roots) > 1 else hi - lo, mark)
        if balls is None:
            count //= 2
            continue
        yield (roots, *balls)
        start += len(roots)
        count = max(1, len(roots) * cap // len(balls[0]))


def _grow(indptr, indices, local, roots, universe, inner, max_size: int
          ) -> Iterator[SizeClass]:
    """The size classes grown from one block of roots.  ``local`` maps the
    universe to 0..m-1; ``inner``, its vertices within max_size - 1 hops of
    the roots, holds every vertex a subgraph may take."""
    m = len(universe)
    words = -(-m // 64)
    # nbr[rank[v]]: the neighbour mask of inner vertex v, in local ids
    rank = np.full(m, -1)
    rank[local[inner]] = np.arange(len(inner))
    lo, hi = indptr[inner], indptr[inner + 1]
    col = local[indices[_ranges(lo, hi)]]
    # ascending: rows ascend, and so do the sorted neighbours of each row
    key = np.repeat(np.arange(len(inner)) * words, hi - lo) + (col >> 6)
    nbr = np.zeros((len(inner), words), dtype=np.uint64)
    if len(key):
        first = np.flatnonzero(np.diff(key, prepend=-1))
        nbr.ravel()[key[first]] = np.bitwise_or.reduceat(_bit(col), first)
    ids = None if universe[-1] == m - 1 else universe.astype(np.int32)

    r = local[roots]
    verts = r[:, None].astype(np.int32)
    seen = nbr[rank[r]]
    nb = np.bitwise_count(seen).sum(axis=1, dtype=np.int64)
    ext = seen & _above(r, words)
    seen[np.arange(len(r)), r >> 6] |= _bit(r)
    parent = np.zeros(len(r), dtype=np.int64)
    # a subgraph grows when it has a candidate and a class follows
    yield SizeClass(parent, verts if ids is None else ids[verts], nb, inner,
                    ext.any(axis=1) & (max_size > 1))
    for h in range(2, max_size + 1):
        parent, w = _set_bits(ext)
        if not len(parent):
            return
        verts = np.hstack([verts[parent], w[:, None].astype(np.int32)])
        up_seen = seen[parent]
        seen = nbr[rank[w]]
        seen |= up_seen
        nb = np.bitwise_count(seen).sum(axis=1, dtype=np.int64) - h
        if h < max_size:
            up_seen ^= seen  # the vertices w reaches first
            up_seen &= _above(verts[:, 0], words)
            ext = ext[parent]
            ext &= _above(w, words)
            ext |= up_seen
            grows = ext.any(axis=1)
        else:  # nothing grows from the last class
            seen = ext = None
            grows = np.zeros(len(parent), dtype=bool)
        del up_seen
        yield SizeClass(parent, verts if ids is None else ids[verts], nb,
                        inner, grows)


def connected_induced_subgraphs(g: SignedDigraph, max_size: int
                                ) -> Iterator[SubgraphVisit]:
    """Yield a SubgraphVisit for every weakly connected induced vertex set H
    with 1 <= |H| <= max_size: the rows of ``size_classes`` in order.

    ``vertices`` lists H in the order its vertices were added, root first.
    """
    for cls in size_classes(g, max_size):
        yield from map(SubgraphVisit, map(tuple, cls.verts.tolist()),
                       cls.nb.tolist())


def enumerate_connected_induced_subgraphs(
        g: SignedDigraph, max_size: int,
        visitor: Callable[[SubgraphVisit], None] | None = None) -> int:
    """Invoke ``visitor`` once per connected induced subgraph; return the count."""
    if visitor is None:
        return sum(len(cls.nb) for cls in size_classes(g, max_size))
    count = 0
    for visit in connected_induced_subgraphs(g, max_size):
        count += 1
        visitor(visit)
    return count
