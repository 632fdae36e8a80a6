"""Signed directed graph representation and edge-list ingestion.

Edges carry a weight of +1 (amity) or -1 (enmity).  An undirected network is
stored as its symmetrized directed form: every undirected edge contributes
both orientations with equal sign.

A graph is its read-only arrays ``arcs``: int64 tails and heads and int8
signs, sorted by (tail, head).  Views derived once: ``out_offsets``, where
each vertex's out-arcs start; ``csr``, the loopless undirected adjacency
(also ``subgraphs.pack``'s), whose indices[indptr[v]:indptr[v + 1]] are the
neighbours of v, ascending; ``symmetric`` (A = A^T); ``bicomponents``.
``edges``, a (tail, head) -> sign mapping built when first read, is for
tests and the benchmark.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

__all__ = ["GraphError", "ParseError", "SignedDigraph", "disjoint_union",
           "load_edge_list", "parse_edge_list"]


class GraphError(ValueError):
    """Invalid graph construction or query."""


class ParseError(GraphError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


_SIGN_TOKENS = {"1": 1, "+1": 1, "+": 1, "-1": -1, "-": -1, "−1": -1, "−": -1}


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class SignedDigraph:
    """Immutable signed directed graph with dense integer vertex ids.

    ``edges`` maps (source, target) -> sign, or is the arrays (tails, heads,
    signs) of distinct arcs in any order, checked alike.  A graph symmetrized
    from an undirected edge list, ``from_undirected``, must be ``symmetric``.
    """

    def __init__(self, vertex_count: int, edges, from_undirected: bool = False,
                 vertex_labels: tuple[str, ...] | None = None):
        if vertex_count < 0:
            raise GraphError("vertex_count must be nonnegative")
        if isinstance(edges, Mapping):
            edges = (*np.reshape(list(edges), (-1, 2)).T, list(edges.values()))
        n, signs = vertex_count, np.asarray(edges[2])
        tails, heads = (np.asarray(a, np.int64) for a in edges[:2])
        outside = (np.minimum(tails, heads) < 0) | (np.maximum(tails, heads) >= n)
        for i in np.flatnonzero(outside | (signs != 1) & (signs != -1))[:1]:
            raise GraphError(f"edge ({tails[i]}, {heads[i]}) " + (
                "references unknown vertex" if outside[i]
                else f"has sign {signs[i]}, expected +1 or -1"))
        if (np.diff(tails * n + heads) <= 0).any():  # not yet sorted
            order = np.argsort(tails * n + heads, kind="stable")
            tails, heads, signs = tails[order], heads[order], signs[order]
        if (np.diff(tails * n + heads) == 0).any():
            raise GraphError("an arc is given twice")
        arcs = tuple(_frozen(np.asarray(a, t).view()) for a, t in
                     zip((tails, heads, signs), (np.int64, np.int64, np.int8)))
        vars(self).update(vertex_count=n, arcs=arcs, vertex_labels=vertex_labels,
                          from_undirected=from_undirected)
        if from_undirected and not self.symmetric:
            rev = self._reverse_arcs
            i = np.flatnonzero((rev < 0) | (signs[rev] != signs))[0]
            raise GraphError(f"graph flagged undirected but ({tails[i]}, "
                             f"{heads[i]}) lacks a matching reverse edge of "
                             f"equal sign")

    def __setattr__(self, name, value):
        raise AttributeError(f"SignedDigraph is immutable; cannot set {name}")

    def __getstate__(self):  # a mappingproxy, the edges view, does not pickle
        return {k: v for k, v in vars(self).items() if k != "edges"}

    def __setstate__(self, state):  # arrays unpickle writeable
        for value in state.values():
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    _frozen(a)
        vars(self).update(state)

    @property
    def edge_count(self) -> int:
        return len(self.arcs[0])

    def sign(self, u: int, v: int) -> int:
        """Sign of directed edge (u, v), or 0 if absent."""
        lo, hi = np.searchsorted(self.arcs[0], (u, u + 1))
        i = lo + np.searchsorted(self.arcs[1][lo:hi], v)
        return int(self.arcs[2][i]) if i < hi and self.arcs[1][i] == v else 0

    def out_neighbours(self, v: int) -> list[int]:
        return self.arcs[1][self.out_offsets[v]:self.out_offsets[v + 1]].tolist()

    def undirected_neighbours(self, v: int) -> list[int]:
        """Vertices joined to v by an edge either way, but v, ascending."""
        return self.csr[1][self.csr[0][v]:self.csr[0][v + 1]].tolist()

    def has_self_loops(self) -> bool:
        return bool((self.arcs[0] == self.arcs[1]).any())

    def negative_edge_fraction(self) -> float:
        """Fraction p of negative directed edges. Errors on an empty edge set."""
        if not self.edge_count:
            raise GraphError("graph has no edges; negative fraction undefined")
        return int((self.arcs[2] < 0).sum()) / self.edge_count

    @cached_property
    def edges(self) -> Mapping[tuple[int, int], int]:
        """Read-only (tail, head) -> sign mapping in ``arcs`` order."""
        tails, heads, signs = (a.tolist() for a in self.arcs)
        return MappingProxyType(dict(zip(zip(tails, heads), signs)))

    @cached_property
    def out_offsets(self) -> np.ndarray:
        """Arcs out_offsets[v]..out_offsets[v + 1] - 1 leave v."""
        n = self.vertex_count
        return _frozen(np.searchsorted(self.arcs[0], np.arange(n + 1)))

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the loopless undirected adjacency."""
        if self.has_self_loops():
            return self.without_self_loops().csr
        n, (tails, heads, _) = self.vertex_count, self.arcs
        # both ways, each once; np.unique would import numpy.ma on first call
        both = np.sort(np.concatenate([tails * n + heads, heads * n + tails]))
        both = both[np.diff(both, prepend=-1) != 0]
        return (_frozen(np.searchsorted(both, np.arange(n + 1) * n)),
                _frozen(both % max(n, 1)))

    @cached_property
    def symmetric(self) -> bool:
        """Whether every arc has a reverse arc of equal sign (A = A^T)."""
        signs, rev = self.arcs[2], self._reverse_arcs
        return bool(((rev >= 0) & (signs[rev] == signs)).all())

    @cached_property
    def bicomponents(self) -> tuple[np.ndarray, ...]:
        """Vertex sets of the biconnected components of at least 3 vertices
        of the loopless undirected graph, which hold every simple cycle of
        length >= 3, as read-only sorted int64 arrays by least vertex.  Found
        by an iterative Hopcroft-Tarjan walk: u closes a component with its
        child v in the depth-first tree when no vertex of v's subtree has an
        edge to a vertex found before u, low[v] >= disc[u]."""
        ptr, nbrs = (a.tolist() for a in self.csr)
        disc, low = [0] * self.vertex_count, [0] * self.vertex_count
        # visited vertices of open components, components, vertices found
        stack, found, clock = [], [], 0
        for root in range(self.vertex_count):
            if disc[root] or ptr[root] == ptr[root + 1]:
                continue
            clock += 1
            disc[root] = low[root] = clock
            # (vertex, its unscanned neighbours, its position in ``stack``)
            walk = [(root, iter(nbrs[ptr[root]:ptr[root + 1]]), 0)]
            while walk:
                v, todo, at = walk[-1]
                lv = low[v]
                for w in todo:
                    d = disc[w]
                    if not d:
                        low[v] = lv
                        clock += 1
                        disc[w] = low[w] = clock
                        walk.append((w, iter(nbrs[ptr[w]:ptr[w + 1]]),
                                     len(stack)))
                        stack.append(w)
                        break
                    if d < lv:
                        lv = d
                else:
                    walk.pop()
                    if walk:
                        u = walk[-1][0]
                        low[u] = min(low[u], lv)
                        if lv >= disc[u]:
                            # v and the vertices pushed after it, with u
                            if len(stack) - at >= 2:
                                found.append(sorted(stack[at:] + [u]))
                            del stack[at:]
        return tuple(_frozen(np.array(c, np.int64)) for c in sorted(found))

    @cached_property
    def _reverse_arcs(self) -> np.ndarray:
        """Position in ``arcs`` of each arc's reverse arc, or -1: a binary
        search among the ascending keys tail n + head."""
        n, (tails, heads, _) = self.vertex_count, self.arcs
        keys, back = tails * n + heads, heads * n + tails
        pos = np.minimum(np.searchsorted(keys, back), len(keys) - 1)
        return _frozen(np.where(keys[pos] == back, pos, -1))

    def adjacency(self, dtype=np.int64) -> np.ndarray:
        """Dense signed adjacency matrix A."""
        a = np.zeros((self.vertex_count,) * 2, dtype=dtype)
        a[self.arcs[:2]] = self.arcs[2]
        return a

    def without_self_loops(self) -> "SignedDigraph":
        """Graph on the same vertices with diagonal edges removed."""
        keep = self.arcs[0] != self.arcs[1]
        return SignedDigraph(self.vertex_count, [a[keep] for a in self.arcs],
                             self.from_undirected, self.vertex_labels)

    def induced_subgraph(self, vertices: Sequence[int]
                         ) -> tuple["SignedDigraph", list[int]]:
        """Induced subgraph on ``vertices`` plus the local->global id map."""
        order = np.array(list(dict.fromkeys(vertices)), dtype=np.int64)
        for v in order[(order < 0) | (order >= self.vertex_count)][:1]:
            raise GraphError(f"vertex {v} not in graph")
        local = np.full(self.vertex_count, -1)
        local[order] = np.arange(len(order))
        arc = np.concatenate([np.arange(*self.out_offsets[v:v + 2])
                              for v in order.tolist()] + [order[:0]])
        arc = arc[local[self.arcs[1][arc]] >= 0]
        sub = [local[a[arc]] for a in self.arcs[:2]] + [self.arcs[2][arc]]
        return (SignedDigraph(len(order), sub, self.from_undirected),
                order.tolist())


def parse_edge_list(text: str, *, undirected: bool = False,
                    duplicate_policy: str = "reject") -> SignedDigraph:
    """Parse 'src dst sign' lines into a SignedDigraph.

    Lines starting with '#' and blank lines are skipped.  Vertex ids may be
    arbitrary integer or string tokens; they are remapped to dense ids in
    first-appearance order and the original tokens kept as labels.
    duplicate_policy: 'reject' errors on the first line whose sign differs
    from the previous line of its pair (either way when undirected), 'last'
    keeps the latest occurrence.  Identical duplicates always collapse.
    """
    if duplicate_policy not in ("reject", "last"):
        raise GraphError(f"unknown duplicate policy {duplicate_policy!r}")
    ids: dict[str, int] = {}
    rows = array("q")  # tail, head, sign and line number of each edge line
    error = None  # a malformed line; a conflict above it is raised first
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        sign = _SIGN_TOKENS.get(parts[2]) if len(parts) == 3 else None
        if sign is None:
            error = ParseError(
                f"sign token {parts[2]!r} not in +1/-1" if len(parts) == 3
                else f"expected 'src dst sign', got {line.strip()!r}", lineno)
            break
        rows.extend((ids.setdefault(parts[0], len(ids)),
                     ids.setdefault(parts[1], len(ids)), sign, lineno))
    labels, n = tuple(ids), len(ids)
    u, v, s, line = np.frombuffer(rows, dtype=np.int64).reshape(-1, 4).T
    if undirected:  # a line gives both orientations, the given one first
        u, v, s, line = (np.concatenate(p) for p in
                         ((u, v), (v, u), (s, s), (line, line)))
    # the lines of each arc in file order, the arcs by (tail, head)
    order = np.lexsort((line, u * n + v))
    key = (u * n + v)[order]
    clash = np.flatnonzero((np.diff(key) == 0) & (np.diff(s[order]) != 0))
    if duplicate_policy == "reject" and len(clash):
        i = clash[np.argmin(order[clash + 1])]
        at, prev = order[i + 1], order[i]
        raise ParseError(f"edge {labels[u[at]]}->{labels[v[at]]} conflicts "
                         f"with sign given on line {line[prev]}", int(line[at]))
    if error is not None:
        raise error
    last = order[np.diff(key, append=-1) != 0]
    return SignedDigraph(n, (u[last], v[last], s[last]), undirected,
                         labels or None)


def load_edge_list(path, *, undirected: bool = False,
                   duplicate_policy: str = "reject") -> SignedDigraph:
    """Read a UTF-8 edge-list file (SNAP soc-sign layout: FromNodeId
    ToNodeId Sign); bytes that do not decode are a ``ParseError``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte 0x{raw[exc.start]:02x} is not UTF-8",
                         raw.count(b"\n", 0, exc.start) + 1) from None
    return parse_edge_list(text, undirected=undirected,
                           duplicate_policy=duplicate_policy)


def disjoint_union(graphs: Sequence[SignedDigraph]) -> SignedDigraph:
    """The graphs side by side: vertex v of a graph becomes v plus the vertex
    counts of the graphs before it.  Undirected if each of them is."""
    starts = np.cumsum([0] + [g.vertex_count for g in graphs])
    arcs = [np.concatenate([np.zeros(0, np.int64)] + [
        g.arcs[k] + start * (k < 2) for g, start in zip(graphs, starts)])
        for k in range(3)]
    return SignedDigraph(int(starts[-1]), arcs,
                         all(g.from_undirected for g in graphs))


def complete_graph(n: int, sign: int = 1) -> SignedDigraph:
    """Complete directed graph on n vertices (both orientations, no loops)."""
    tails, heads = np.nonzero(~np.eye(n, dtype=bool))
    return SignedDigraph(n, (tails, heads, np.full(len(tails), sign)), True)
