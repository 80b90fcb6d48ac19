"""Oriented multigraphs with dense integer vertex and edge ids.

Loops and parallel edges are allowed.  Adjacency lists keep the edge input
order, which pins down every traversal below (and therefore every counter
and witness the verifier produces) bit for bit across runs.

A graph also lists, once, the reduction the verifier reads off its edges,
each in origin order, then edge-id order: ``loops``; ``duplicates``, an
``(edge, kept)`` pair per non-loop edge after the first edge ``kept`` of its
parallel bundle; and ``reduced``, each vertex's out-edges without those two,
which the verifier's DFS walks.  ``tails[e]`` is the tail of edge e.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import frozen, is_exact_int


@frozen
@dataclass(frozen=True, slots=True, init=False, repr=False)
class OrientedGraph:
    """Immutable edge-table graph; edge ids index the input order."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    # Derived from the edge table, so equality and hashing leave them out.
    adjacency: tuple[tuple[int, ...], ...] = field(compare=False)
    tails: tuple[int, ...] = field(compare=False)
    loops: tuple[int, ...] = field(compare=False)
    duplicates: tuple[tuple[int, int], ...] = field(compare=False)
    reduced: tuple[tuple[int, ...], ...] = field(compare=False)

    def __init__(self, vertex_count: int, edge_list):
        if not is_exact_int(vertex_count) or vertex_count < 0:
            raise ValueError("vertex count must be a non-negative integer")
        edges = []
        tails = []
        adjacency = [[] for _ in range(vertex_count)]
        for idx, edge in enumerate(edge_list):
            try:
                origin, tail = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {idx}: expected an (origin, tail) pair, got {edge!r}") from None
            # ``is_exact_int``, behind the exact-type test nearly every endpoint passes.
            if not (type(origin) is int and type(tail) is int) and not all(map(is_exact_int, (origin, tail))):
                raise ValueError(f"edge {idx}: endpoints must be integer vertex ids, got ({origin!r}, {tail!r})")
            if not 0 <= origin < vertex_count or not 0 <= tail < vertex_count:
                raise ValueError(f"edge {idx}: endpoint out of range for {vertex_count} vertices")
            edges.append((origin, tail))
            tails.append(tail)
            adjacency[origin].append(idx)
        adjacency = tuple(map(tuple, adjacency))
        # A stamp table shared by every origin: v keeps its first edge to each tail.
        loops = []
        duplicates = []
        reduced = []
        stamp = [-1] * vertex_count
        kept_edge = [0] * vertex_count
        for v, out in enumerate(adjacency):
            kept = []
            for e in out:
                u = tails[e]
                if u == v:
                    loops.append(e)
                elif stamp[u] != v:
                    stamp[u] = v
                    kept_edge[u] = e
                    kept.append(e)
                else:
                    duplicates.append((e, kept_edge[u]))
            reduced.append(out if len(kept) == len(out) else tuple(kept))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "tails", tuple(tails))
        object.__setattr__(self, "loops", tuple(loops))
        object.__setattr__(self, "duplicates", tuple(duplicates))
        object.__setattr__(self, "reduced", tuple(reduced))

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
    at, that ends at ``path.tail``.  Every id must be an exact integer, so a
    boolean or a float never names a vertex or an edge."""
    edges = graph.edges
    vertex = path.origin
    if not (is_exact_int(vertex) and is_exact_int(path.tail)):
        return False
    for e in path.edges:
        if not is_exact_int(e) or not 0 <= e < len(edges) or edges[e][0] != vertex:
            return False
        vertex = edges[e][1]
    return vertex == path.tail and 0 <= path.origin < graph.vertex_count


def require_edge(graph: OrientedGraph, edge) -> None:
    """Raise ValueError unless ``edge`` is an edge id of ``graph``; booleans
    and non-integers never are."""
    if not is_exact_int(edge) or not 0 <= edge < graph.edge_count:
        raise ValueError(f"invalid edge id {edge!r}")


# ---------------------------------------------------------------------------
# Structural predicates


def loop_count(graph: OrientedGraph) -> int:
    """The number of edges whose origin equals their tail."""
    return len(graph.loops)


def has_multiple_edges(graph: OrientedGraph) -> bool:
    """Two distinct non-loop edges sharing both endpoints (loops never count)."""
    return bool(graph.duplicates)


def has_triangle(graph: OrientedGraph) -> bool:
    """Non-loop edges a, b, c with o(a)=o(b), t(b)=o(c), t(c)=t(a)."""
    tails = graph.tails
    reduced = graph.reduced
    for out in reduced:
        near = {tails[e] for e in out}
        if any(tails[c] in near for e in out for c in reduced[tails[e]]):
            return True
    return False


def is_2_path_bounded(graph: OrientedGraph) -> bool:
    """No oriented walk of length 3 avoiding loop edges exists."""
    tails = graph.tails
    reduced = graph.reduced
    starts_two = [any(reduced[tails[e]] for e in out) for out in reduced]
    return not any(starts_two[tails[e]] for out in reduced for e in out)


def is_quasi_acyclic(graph: OrientedGraph) -> bool:
    """Every strongly connected component is a single vertex (loops allowed).

    Kahn's peel on the reduced adjacency: repeatedly remove a vertex with no
    incoming non-loop edge; every vertex goes exactly when no cycle through
    two or more vertices exists.
    """
    tails = graph.tails
    reduced = graph.reduced
    indegree = [0] * graph.vertex_count
    for out in reduced:
        for e in out:
            indegree[tails[e]] += 1
    peeled = [v for v, d in enumerate(indegree) if d == 0]
    for v in peeled:  # the list grows while it is walked
        for e in reduced[v]:
            u = tails[e]
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
