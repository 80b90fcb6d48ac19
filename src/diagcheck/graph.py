"""Oriented multigraphs with dense integer vertex and edge ids.

Loops and parallel edges are allowed.  Adjacency lists keep the edge input
order, which pins down every traversal below (and therefore every counter
and witness the verifier produces) bit for bit across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import frozen


@frozen
@dataclass(frozen=True, slots=True, init=False, repr=False)
class OrientedGraph:
    """Immutable edge-table graph; edge ids index the input order."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    # Derived from the edge table, so equality and hashing leave it out.
    adjacency: tuple[tuple[int, ...], ...] = field(compare=False)

    def __init__(self, vertex_count: int, edge_list):
        if not isinstance(vertex_count, int) or isinstance(vertex_count, bool) or vertex_count < 0:
            raise ValueError("vertex count must be a non-negative integer")
        edges = []
        adjacency = [[] for _ in range(vertex_count)]
        for idx, edge in enumerate(edge_list):
            try:
                origin, tail = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {idx}: expected an (origin, tail) pair, got {edge!r}") from None
            # ``require_edge``'s rule (no booleans, no non-integers), behind the
            # exact-type test that nearly every endpoint passes.
            if not (type(origin) is int and type(tail) is int) and not all(
                isinstance(x, int) and not isinstance(x, bool) for x in (origin, tail)
            ):
                raise ValueError(f"edge {idx}: endpoints must be integer vertex ids, got ({origin!r}, {tail!r})")
            if not 0 <= origin < vertex_count or not 0 <= tail < vertex_count:
                raise ValueError(f"edge {idx}: endpoint out of range for {vertex_count} vertices")
            edges.append((origin, tail))
            adjacency[origin].append(idx)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "adjacency", tuple(tuple(out) for out in adjacency))

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


def is_valid_path(graph: OrientedGraph, path: Path) -> bool:
    """Whether consecutive edges compose and the endpoints match: a walk from
    ``path.origin`` along in-range edges, each leaving the vertex the walk is
    at, that ends at ``path.tail``."""
    edges = graph.edges
    vertex = path.origin
    for e in path.edges:
        if not 0 <= e < len(edges) or edges[e][0] != vertex:
            return False
        vertex = edges[e][1]
    return vertex == path.tail and 0 <= path.origin < graph.vertex_count


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

    Kahn's peel: repeatedly remove a vertex with no incoming non-loop edge;
    every vertex goes exactly when no cycle through two or more vertices
    exists.
    """
    indegree = [0] * graph.vertex_count
    for origin, tail in graph.edges:
        if origin != tail:
            indegree[tail] += 1
    peeled = [v for v, d in enumerate(indegree) if d == 0]
    for v in peeled:  # the list grows while it is walked
        for e in graph.adjacency[v]:
            u = graph.edges[e][1]
            if u != v:
                indegree[u] -= 1
                if indegree[u] == 0:
                    peeled.append(u)
    return len(peeled) == graph.vertex_count


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
