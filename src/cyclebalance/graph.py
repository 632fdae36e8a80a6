"""Signed directed graph representation and edge-list ingestion.

Edges carry a weight of +1 (amity) or -1 (enmity).  An undirected network is
stored as its symmetrized directed form: every undirected edge contributes
both orientations with equal sign.

Three views are derived once per graph: ``arcs``, read-only arrays of
tails, heads and signs sorted by (tail, head), which every array consumer
reads; ``symmetric``, whether each arc has a reverse arc of equal sign; and
``bicomponents``, the vertex sets of the biconnected components of at least
3 vertices, which hold every simple cycle of length >= 3.  The engine counts
cycles on any digraph; ``symmetric`` only selects its y = x walk chains,
and a graph flagged ``from_undirected`` must have it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "GraphError",
    "ParseError",
    "SignedDigraph",
    "disjoint_union",
    "load_edge_list",
    "parse_edge_list",
]


class GraphError(ValueError):
    """Invalid graph construction or query."""


class ParseError(GraphError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


_SIGN_TOKENS = {
    "1": 1, "+1": 1, "+": 1,
    "-1": -1, "-": -1, "−1": -1, "−": -1,
}


@dataclass(frozen=True)
class SignedDigraph:
    """Immutable signed directed graph with dense integer vertex ids.

    ``edges`` maps (source, target) -> sign.  ``from_undirected`` records
    that the graph was built by symmetrizing an undirected edge list, in
    which case (u, v) is present iff (v, u) is, with the same sign.
    """

    vertex_count: int
    edges: Mapping[tuple[int, int], int]
    from_undirected: bool = False
    vertex_labels: tuple[str, ...] | None = None
    _out: dict[int, list[int]] = field(init=False, repr=False, compare=False)
    _und: dict[int, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.vertex_count
        if n < 0:
            raise GraphError("vertex_count must be nonnegative")
        out: dict[int, list[int]] = {v: [] for v in range(n)}
        und: dict[int, set[int]] = {v: set() for v in range(n)}
        for (u, v), s in self.edges.items():
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) references unknown vertex")
            if s not in (1, -1):
                raise GraphError(f"edge ({u}, {v}) has sign {s}, expected +1 or -1")
            out[u].append(v)
            if u != v:
                und[u].add(v)
                und[v].add(u)
        if self.from_undirected and not self.symmetric:
            u, v = (a[self._unmatched_arcs()[0]] for a in self.arcs[:2])
            raise GraphError(
                f"graph flagged undirected but ({u}, {v}) lacks a "
                f"matching reverse edge of equal sign"
            )
        object.__setattr__(self, "_out", {v: sorted(a) for v, a in out.items()})
        object.__setattr__(self, "_und", {v: sorted(s) for v, s in und.items()})

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sign(self, u: int, v: int) -> int:
        """Sign of directed edge (u, v), or 0 if absent."""
        return self.edges.get((u, v), 0)

    def out_neighbours(self, v: int) -> list[int]:
        return self._out[v]

    def undirected_neighbours(self, v: int) -> list[int]:
        """Vertices joined to v by an edge in either direction (loops excluded)."""
        return self._und[v]

    def has_self_loops(self) -> bool:
        return any(u == v for u, v in self.edges)

    def negative_edge_fraction(self) -> float:
        """Fraction p of negative directed edges. Errors on an empty edge set."""
        if not self.edges:
            raise GraphError("graph has no edges; negative fraction undefined")
        neg = sum(1 for s in self.edges.values() if s < 0)
        return neg / len(self.edges)

    # -- array and matrix views --------------------------------------------

    @cached_property
    def arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tails, heads, signs) of the arcs sorted by (tail, head), as
        read-only int64, int64 and int8 arrays."""
        pairs = np.array(list(self.edges), dtype=np.int64).reshape(-1, 2).T
        order = np.lexsort(pairs[::-1])
        signs = np.array(list(self.edges.values()), dtype=np.int8)
        views = (*np.ascontiguousarray(pairs[:, order]), signs[order])
        for a in views:
            a.flags.writeable = False
        return views

    @cached_property
    def symmetric(self) -> bool:
        """Whether every arc has a reverse arc of equal sign (A = A^T)."""
        return not len(self._unmatched_arcs())

    @cached_property
    def bicomponents(self) -> tuple[np.ndarray, ...]:
        """Vertex sets of the biconnected components of at least 3 vertices
        of the underlying loopless undirected graph, as read-only sorted
        int64 arrays ordered by their least vertex.

        Every simple cycle of length >= 3, directed or not, lies in exactly
        one of them.  Found by an iterative Hopcroft-Tarjan walk: a vertex
        u closes a component with its child v in the depth-first tree when
        no vertex of v's subtree has an edge to a vertex found before u,
        low[v] >= disc[u].
        """
        und = self._und
        disc, low = [0] * self.vertex_count, [0] * self.vertex_count
        stack: list[int] = []  # visited vertices of open components
        found = []
        clock = 0
        for root in range(self.vertex_count):
            if disc[root] or not und[root]:
                continue
            clock += 1
            disc[root] = low[root] = clock
            # (vertex, its unscanned neighbours, its position in ``stack``)
            walk = [(root, iter(und[root]), 0)]
            while walk:
                v, todo, at = walk[-1]
                for w in todo:
                    if not disc[w]:
                        clock += 1
                        disc[w] = low[w] = clock
                        walk.append((w, iter(und[w]), len(stack)))
                        stack.append(w)
                        break
                    low[v] = min(low[v], disc[w])
                else:
                    walk.pop()
                    if not walk:
                        continue
                    u = walk[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        # v and the vertices pushed after it, with u
                        if len(stack) - at >= 2:
                            found.append(sorted(stack[at:] + [u]))
                        del stack[at:]
        views = tuple(np.array(c, dtype=np.int64) for c in sorted(found))
        for a in views:
            a.flags.writeable = False
        return views

    def _reverse_arcs(self) -> np.ndarray:
        """Position in ``arcs`` of each arc's reverse arc, -1 where there is
        none, found by binary search among the ascending keys tail n + head."""
        tails, heads, _ = self.arcs
        n = self.vertex_count
        keys, back = tails * n + heads, heads * n + tails
        pos = np.minimum(np.searchsorted(keys, back), len(keys) - 1)
        return np.where(keys[pos] == back, pos, -1)

    def _unmatched_arcs(self) -> np.ndarray:
        """Positions in ``arcs`` of the arcs without a reverse arc of equal
        sign."""
        signs = self.arcs[2]
        rev = self._reverse_arcs()
        return np.flatnonzero((rev < 0) | (signs[rev] != signs))

    def adjacency(self, dtype=np.int64) -> np.ndarray:
        """Dense signed adjacency matrix A."""
        tails, heads, signs = self.arcs
        a = np.zeros((self.vertex_count, self.vertex_count), dtype=dtype)
        a[tails, heads] = signs
        return a

    # -- derived graphs ----------------------------------------------------

    def without_self_loops(self) -> "SignedDigraph":
        """Graph on the same vertices with diagonal edges removed."""
        return replace(self, edges={(u, v): s for (u, v), s
                                    in self.edges.items() if u != v})

    def induced_subgraph(self, vertices: Sequence[int]
                         ) -> tuple["SignedDigraph", list[int]]:
        """Induced subgraph on ``vertices`` plus the local->global id map."""
        order = list(dict.fromkeys(vertices))
        for v in order:
            if not (0 <= v < self.vertex_count):
                raise GraphError(f"vertex {v} not in graph")
        local = {g: i for i, g in enumerate(order)}
        sub = {(local[g], local[h]): self.edges[(g, h)]
               for g in order for h in self._out[g] if h in local}
        return (SignedDigraph(len(order), sub,
                              from_undirected=self.from_undirected),
                order)

    def neighbourhood(self, vertices: Iterable[int]) -> list[int]:
        """Vertices outside the set touching it by an edge in either direction."""
        inside = set(vertices)
        for v in inside:
            if not (0 <= v < self.vertex_count):
                raise GraphError(f"vertex {v} not in graph")
        return sorted(set().union(*(self._und[v] for v in inside)) - inside)


def parse_edge_list(text: str, *, undirected: bool = False,
                    duplicate_policy: str = "reject") -> SignedDigraph:
    """Parse 'src dst sign' lines into a SignedDigraph.

    Lines starting with '#' and blank lines are skipped.  Vertex ids may be
    arbitrary integer or string tokens; they are remapped to dense ids in
    first-appearance order and the original tokens kept as labels.

    duplicate_policy: 'reject' errors on sign conflicts, 'last' keeps the
    latest occurrence.  Identical duplicates always collapse silently.
    """
    if duplicate_policy not in ("reject", "last"):
        raise GraphError(f"unknown duplicate policy {duplicate_policy!r}")
    ids: dict[str, int] = {}
    raw: dict[tuple[int, int], tuple[int, int]] = {}  # pair -> (sign, line no)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'src dst sign', got {stripped!r}", lineno)
        su, sv, stok = parts
        sign = _SIGN_TOKENS.get(stok)
        if sign is None:
            raise ParseError(f"sign token {stok!r} not in +1/-1", lineno)
        u = ids.setdefault(su, len(ids))
        v = ids.setdefault(sv, len(ids))
        prev = raw.get((u, v))
        if prev is not None and prev[0] != sign:
            if duplicate_policy == "reject":
                raise ParseError(
                    f"edge {su}->{sv} conflicts with sign given on line {prev[1]}",
                    lineno,
                )
        # when undirected, (u, v) and (v, u) always hold one sign, so the
        # check above covers the reverse pair too
        raw[(u, v)] = (sign, lineno)
        if undirected:
            raw[(v, u)] = (sign, lineno)
    labels = tuple(sorted(ids, key=ids.get))
    edges = {pair: sign for pair, (sign, _) in raw.items()}
    return SignedDigraph(len(ids), edges, from_undirected=undirected,
                         vertex_labels=labels or None)


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
    edges: dict[tuple[int, int], int] = {}
    offset = 0
    for g in graphs:
        edges.update(((u + offset, v + offset), s)
                     for (u, v), s in g.edges.items())
        offset += g.vertex_count
    return SignedDigraph(offset, edges,
                         from_undirected=all(g.from_undirected
                                             for g in graphs))


def complete_graph(n: int, sign: int = 1) -> SignedDigraph:
    """Complete directed graph on n vertices (both orientations, no loops)."""
    edges = {(u, v): sign for u in range(n) for v in range(n) if u != v}
    return SignedDigraph(n, edges, from_undirected=True)
