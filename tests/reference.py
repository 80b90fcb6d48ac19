"""Brute-force references the tests hold the package to.

Reference encoders: each document as the dict whose
``json.dumps(doc, indent=2)`` is the canonical byte layout.  The package
writes these bytes directly (``serialize_diagram``, ``serialize_graph``,
``VerificationReport.to_json``); the tests hold the writers to these dict
forms through ``json.dumps``.

Graph references: the reduction ``OrientedGraph`` lists, the structural
predicates and the counters of a commuting run, each from its definition
over ``graph.edges`` alone.
"""

from __future__ import annotations

from itertools import product

from diagcheck import (
    AdditiveNumber,
    Counters,
    Diagram,
    FreeWord,
    IntMatrix,
    MultiEdgeMismatch,
    NonIdentityLoop,
    OrientedGraph,
    Path,
    PathMismatch,
    RelationTrace,
    VerificationReport,
)


def _encode_label(label):
    if isinstance(label, FreeWord):
        return list(label.letters)
    if isinstance(label, AdditiveNumber):
        return label.num if label.den == 1 else f"{label.num}/{label.den}"
    if isinstance(label, IntMatrix):
        return [list(row) for row in label.entries]
    raise TypeError(f"cannot serialize label of type {type(label).__name__}")


def diagram_to_dict(diagram: Diagram) -> dict:
    return {
        "vertices": diagram.graph.vertex_count,
        "monoid": diagram.monoid.descriptor(),
        "edges": [
            {"origin": origin, "tail": tail, "label": _encode_label(diagram.labels[idx])}
            for idx, (origin, tail) in enumerate(diagram.graph.edges)
        ],
    }


def graph_to_dict(graph: OrientedGraph) -> dict:
    return {
        "vertices": graph.vertex_count,
        "edges": [{"origin": origin, "tail": tail} for origin, tail in graph.edges],
    }


def witness_to_dict(witness) -> dict:
    if isinstance(witness, NonIdentityLoop):
        return {"kind": "non_identity_loop", "edge": witness.edge}
    if isinstance(witness, MultiEdgeMismatch):
        return {"kind": "multi_edge_mismatch", "edge": witness.edge, "kept": witness.kept}
    if isinstance(witness, PathMismatch):
        return {
            "kind": "path_mismatch",
            "path1": _path_to_dict(witness.path1),
            "path2": _path_to_dict(witness.path2),
        }
    raise TypeError(f"not a witness: {type(witness).__name__}")


def _path_to_dict(path: Path) -> dict:
    return {"edges": list(path.edges), "origin": path.origin, "tail": path.tail}


def trace_to_dict(trace: RelationTrace) -> dict:
    return {
        "relations": [[list(lhs), list(rhs)] for lhs, rhs in trace.relations],
        "products": [[list(lhs), list(rhs)] for lhs, rhs in trace.products],
    }


def report_to_dict(report: VerificationReport) -> dict:
    c = report.counters
    return {
        "commutative": report.commutative,
        "counters": {
            "eq_loops": c.eq_loops,
            "eq_multi": c.eq_multi,
            "eq_dfs": c.eq_dfs,
            "mult_dfs": c.mult_dfs,
            "reduced_edges": report.reduced_edges,
        },
        "witness": witness_to_dict(report.witness) if report.witness is not None else None,
        "trace": None if report.trace is None else trace_to_dict(report.trace),
    }


# ---------------------------------------------------------------------------
# Graph references


def reduction(graph: OrientedGraph) -> dict:
    """``tails``, ``loops``, ``duplicates`` and ``reduced`` from their
    definitions, each ordered by origin, then by edge id."""
    edges = graph.edges
    order = sorted(range(len(edges)), key=lambda e: (edges[e][0], e))
    first = {}
    for e, pair in enumerate(edges):
        first.setdefault(pair, e)
    plain = [e for e in order if edges[e][0] != edges[e][1]]
    return {
        "tails": tuple(tail for _, tail in edges),
        "loops": tuple(e for e in order if edges[e][0] == edges[e][1]),
        "duplicates": tuple((e, first[edges[e]]) for e in plain if first[edges[e]] != e),
        "reduced": tuple(
            tuple(e for e in plain if edges[e][0] == v and first[edges[e]] == e) for v in range(graph.vertex_count)
        ),
    }


def _walk_exists(graph: OrientedGraph, length: int) -> bool:
    """Some walk of ``length`` non-loop edges exists, by trying every edge sequence."""
    steps = [edge for edge in graph.edges if edge[0] != edge[1]]
    return any(
        all(a[1] == b[0] for a, b in zip(walk, walk[1:])) for walk in product(steps, repeat=length)
    )


def _successors(graph: OrientedGraph) -> list:
    """Per vertex, the set of tails of its non-loop edges."""
    successors = [set() for _ in range(graph.vertex_count)]
    for origin, tail in graph.edges:
        if origin != tail:
            successors[origin].add(tail)
    return successors


def _reachable(successors: list, root: int) -> set:
    """The vertices a walk from ``root`` reaches, ``root`` included."""
    reached = {root}
    frontier = [root]
    while frontier:
        for u in successors[frontier.pop()]:
            if u not in reached:
                reached.add(u)
                frontier.append(u)
    return reached


def predicates(graph: OrientedGraph) -> dict:
    """The five structural predicates from their definitions."""
    edges = graph.edges
    plain = [e for e in range(len(edges)) if edges[e][0] != edges[e][1]]
    reach = [_reachable(_successors(graph), v) for v in range(graph.vertex_count)]
    return {
        "loop_count": len(edges) - len(plain),
        "has_multiple_edges": any(edges[a] == edges[b] for a in plain for b in plain if a < b),
        "has_triangle": any(
            edges[a][0] == edges[b][0] and edges[b][1] == edges[c][0] and edges[c][1] == edges[a][1]
            for a, b, c in product(plain, repeat=3)
        ),
        "is_2_path_bounded": not _walk_exists(graph, 3),
        "is_quasi_acyclic": not any(u != v and v in reach[u] for v, reached in enumerate(reach) for u in reached),
    }


def predicted_counters(graph: OrientedGraph) -> Counters:
    """The counters of a run of ``verify`` that finds no violation.

    Every loop and every parallel edge after the first of its bundle is one
    check.  The DFS from root r takes one product per reduced edge it
    reaches, E(r), and one check per such edge that does not discover a
    vertex: E(r) - (V(r) - 1), with V(r) the vertices r reaches.
    """
    loops = sum(1 for origin, tail in graph.edges if origin == tail)
    successors = _successors(graph)
    pairs = sum(map(len, successors))
    counters = Counters(eq_loops=loops, eq_multi=len(graph.edges) - loops - pairs)
    for root in range(graph.vertex_count):
        reached = _reachable(successors, root)
        reduced_edges = sum(len(successors[v]) for v in reached)
        counters.mult_dfs += reduced_edges
        counters.eq_dfs += reduced_edges - len(reached) + 1
    return counters
