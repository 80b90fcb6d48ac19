"""Brute-force references the tests hold the package to.

Reference encoders: each document as the dict whose
``json.dumps(doc, indent=2)`` is the canonical byte layout.  The package
writes these bytes directly (``serialize_diagram``, ``serialize_graph``,
``VerificationReport.to_json``); the tests hold the writers to these dict
forms through ``json.dumps``.

Graph references: the reduction ``OrientedGraph`` lists, the structural
predicates and the counters of a commuting run, each from its definition
over ``graph.edges`` alone; and the inputs ``bench`` counts on, a graph with
uniform random endpoints and its identity labeling.

Oracle references: every walk up to a length bound as an edge-id tuple,
grouped by endpoints, and witness validation written per witness kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from diagcheck import (
    FREE,
    AdditiveNumber,
    BudgetExceededError,
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
    is_valid_path,
    label_of_sequence,
)
from diagcheck.errors import require_count
from diagcheck.graph import require_edge
from diagcheck.oracle import DEFAULT_WALK_BUDGET


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


def random_graph(n: int, m: int, rng) -> OrientedGraph:
    """``m`` edges with uniform endpoints on ``n`` vertices, drawn in
    ``bench``'s order; loops and parallel edges arise naturally."""
    return OrientedGraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])


def identity_labeled(graph: OrientedGraph) -> Diagram:
    """``graph`` with the empty free word on every edge.  Every check holds,
    so a run's counters are the most the graph can produce."""
    return Diagram(graph, FREE, [FREE.identity()] * graph.edge_count)


# ---------------------------------------------------------------------------
# Oracle references


@dataclass
class WalkEnumeration:
    """All walks of length at most the bound, grouped by (origin, tail).

    Each group lists edge-id tuples in depth-first discovery order; the empty
    walk at vertex v appears first in group (v, v).
    """

    length_bound: int
    groups: dict

    @property
    def walk_count(self) -> int:
        return sum(len(walks) for walks in self.groups.values())


def enumerate_walks(graph: OrientedGraph, length_bound: int, budget: int = DEFAULT_WALK_BUDGET) -> WalkEnumeration:
    """Every walk up to the length bound, depth-first from each start vertex
    in turn, in the order ``oracle_verify`` visits them.  Raises past
    ``budget`` walks, the empty ones included.  The bound and the budget
    must be non-negative integers, as ``oracle_verify`` requires."""
    require_count(length_bound, "length bound")
    require_count(budget, "walk budget")
    groups: dict = {}
    count = 0
    for start in range(graph.vertex_count):
        stack = [(start, ())]
        while stack:
            at, walk = stack.pop()
            count += 1
            if count > budget:
                raise BudgetExceededError(f"walk budget of {budget} exceeded")
            groups.setdefault((start, at), []).append(walk)
            if len(walk) < length_bound:
                for e in reversed(graph.adjacency[at]):
                    stack.append((graph.tail(e), walk + (e,)))
    return WalkEnumeration(length_bound, groups)


def validate_witness(diagram: Diagram, witness) -> bool:
    """Re-evaluate a witness on the original diagram, one branch per kind.

    Semantically wrong witnesses (a non-loop in NonIdentityLoop, mismatched
    path endpoints, equal labels) return False; structurally malformed ones
    (unknown type, out-of-range edge ids) raise.
    """
    diagram = diagram._run
    graph = diagram.graph
    mon = diagram.monoid
    if isinstance(witness, NonIdentityLoop):
        require_edge(graph, witness.edge)
        if not graph.is_loop(witness.edge):
            return False
        return not mon.eq(diagram.labels[witness.edge], mon.identity())
    if isinstance(witness, MultiEdgeMismatch):
        require_edge(graph, witness.edge)
        require_edge(graph, witness.kept)
        e, kept = witness.edge, witness.kept
        if e == kept or graph.is_loop(e):
            return False
        if graph.origin(e) != graph.origin(kept) or graph.tail(e) != graph.tail(kept):
            return False
        return not mon.eq(diagram.labels[e], diagram.labels[kept])
    if isinstance(witness, PathMismatch):
        for path in (witness.path1, witness.path2):
            for e in path.edges:
                require_edge(graph, e)
        if not is_valid_path(graph, witness.path1) or not is_valid_path(graph, witness.path2):
            return False
        if witness.path1.origin != witness.path2.origin or witness.path1.tail != witness.path2.tail:
            return False
        return not mon.eq(
            label_of_sequence(diagram, witness.path1.edges),
            label_of_sequence(diagram, witness.path2.edges),
        )
    raise TypeError(f"not a witness: {type(witness).__name__}")
