"""Oriented multigraphs with dense integer vertex and edge ids.

Loops and parallel edges are allowed.  Adjacency lists keep the edge input
order, which pins down every traversal below (and therefore every counter
and witness the verifier produces) bit for bit across runs.
"""

from __future__ import annotations

from dataclasses import dataclass


class OrientedGraph:
    """Immutable edge-table graph; edge ids index the input order."""

    __slots__ = ("vertex_count", "edges", "adjacency")

    def __init__(self, vertex_count: int, edge_list):
        if not isinstance(vertex_count, int) or isinstance(vertex_count, bool) or vertex_count < 0:
            raise ValueError("vertex count must be a non-negative integer")
        edges = []
        adjacency = [[] for _ in range(vertex_count)]
        for idx, (origin, tail) in enumerate(edge_list):
            if not 0 <= origin < vertex_count or not 0 <= tail < vertex_count:
                raise ValueError(f"edge {idx}: endpoint out of range for {vertex_count} vertices")
            edges.append((origin, tail))
            adjacency[origin].append(idx)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "adjacency", tuple(tuple(out) for out in adjacency))

    def __setattr__(self, name, value):
        raise AttributeError("OrientedGraph is immutable")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def origin(self, edge: int) -> int:
        return self.edges[edge][0]

    def tail(self, edge: int) -> int:
        return self.edges[edge][1]

    def is_loop(self, edge: int) -> bool:
        origin, tail = self.edges[edge]
        return origin == tail

    def __eq__(self, other):
        if not isinstance(other, OrientedGraph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"OrientedGraph(vertices={self.vertex_count}, edges={len(self.edges)})"


def build(vertex_count: int, edge_list) -> OrientedGraph:
    """Build a graph from (origin, tail) pairs; edge ids follow input order."""
    return OrientedGraph(vertex_count, edge_list)


@dataclass(frozen=True)
class Path:
    """An edge sequence with explicit endpoints, so empty paths have a home."""

    edges: tuple[int, ...]
    origin: int
    tail: int

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))

    def __len__(self):
        return len(self.edges)


def is_valid_path(graph: OrientedGraph, path: Path) -> bool:
    """Whether consecutive edges compose and the endpoints match."""
    for e in path.edges:
        if not 0 <= e < graph.edge_count:
            return False
    if not path.edges:
        return path.origin == path.tail and 0 <= path.origin < graph.vertex_count
    if graph.origin(path.edges[0]) != path.origin:
        return False
    if graph.tail(path.edges[-1]) != path.tail:
        return False
    for prev, nxt in zip(path.edges, path.edges[1:]):
        if graph.tail(prev) != graph.origin(nxt):
            return False
    return True


def require_edge(graph: OrientedGraph, edge) -> None:
    """Raise ValueError unless ``edge`` is an edge id of ``graph``; booleans
    and non-integers never are."""
    if not isinstance(edge, int) or isinstance(edge, bool) or not 0 <= edge < graph.edge_count:
        raise ValueError(f"invalid edge id {edge!r}")


# ---------------------------------------------------------------------------
# Structural predicates


def loop_count(graph: OrientedGraph) -> int:
    """The number of edges whose origin equals their tail."""
    return sum(1 for origin, tail in graph.edges if origin == tail)


def has_multiple_edges(graph: OrientedGraph) -> bool:
    """Two distinct non-loop edges sharing both endpoints (loops never count)."""
    seen = set()
    for origin, tail in graph.edges:
        if origin == tail:
            continue
        if (origin, tail) in seen:
            return True
        seen.add((origin, tail))
    return False


def has_triangle(graph: OrientedGraph) -> bool:
    """Non-loop edges a, b, c with o(a)=o(b), t(b)=o(c), t(c)=t(a)."""
    direct = set()
    outs = [[] for _ in range(graph.vertex_count)]
    for origin, tail in graph.edges:
        if origin != tail:
            direct.add((origin, tail))
            outs[origin].append(tail)
    for origin, tail in graph.edges:
        if origin == tail:
            continue
        for far in outs[tail]:
            if (origin, far) in direct:
                return True
    return False


def is_2_path_bounded(graph: OrientedGraph) -> bool:
    """No oriented walk of length 3 avoiding loop edges exists."""
    n = graph.vertex_count
    starts_one = [False] * n
    for origin, tail in graph.edges:
        if origin != tail:
            starts_one[origin] = True
    starts_two = [False] * n
    for origin, tail in graph.edges:
        if origin != tail and starts_one[tail]:
            starts_two[origin] = True
    for origin, tail in graph.edges:
        if origin != tail and starts_two[tail]:
            return False
    return True


def is_quasi_acyclic(graph: OrientedGraph) -> bool:
    """Every strongly connected component is a single vertex (loops allowed).

    Iterative Tarjan; bails out as soon as a component with two or more
    vertices closes.
    """
    n = graph.vertex_count
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    component = []
    counter = 0
    for start in range(n):
        if index[start] != -1:
            continue
        work = [(start, 0)]
        while work:
            v, edge_pos = work[-1]
            if edge_pos == 0:
                index[v] = low[v] = counter
                counter += 1
                component.append(v)
                on_stack[v] = True
            out = graph.adjacency[v]
            if edge_pos < len(out):
                work[-1] = (v, edge_pos + 1)
                u = graph.tail(out[edge_pos])
                if index[u] == -1:
                    work.append((u, 0))
                elif on_stack[u]:
                    low[v] = min(low[v], index[u])
            else:
                work.pop()
                if low[v] == index[v]:
                    size = 0
                    while True:
                        w = component.pop()
                        on_stack[w] = False
                        size += 1
                        if w == v:
                            break
                    if size > 1:
                        return False
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
    return True


def strip_loops(graph: OrientedGraph) -> OrientedGraph:
    """The same graph without its loop edges.

    Surviving edges are renumbered compactly in their original order; when
    loops come last in the input (as in generated triploids) the surviving
    ids are unchanged.
    """
    return OrientedGraph(
        graph.vertex_count,
        [(origin, tail) for origin, tail in graph.edges if origin != tail],
    )
