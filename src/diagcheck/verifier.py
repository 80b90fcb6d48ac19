"""The core verification pass with exact operation accounting.

The pass runs three phases on a private working copy of the diagram:

1. every loop edge is checked against the identity and removed;
2. for each origin, the first edge to each tail is kept and every further
   parallel edge is checked against it and removed;
3. from every vertex in ascending id order, a depth-first search propagates
   a product m(v) along tree edges and checks every non-tree edge, with
   visited marks and m-values reset per root.

Labels are touched only through the monoid's ``identity``/``op``/``eq``; every
``op`` and ``eq`` call is counted, and the counters are the report.  The pass
stops at the first violation and returns a witness for it.

A relation trace is the same run over M x the free monoid on edge ids: edge
e is labeled (label, (e,)), and ``_TracedMonoid`` records the edge-id words of
the operands of every ``op`` and ``eq``, so the phases carry no trace code.

``VerificationReport.to_json`` writes the bytes of
``json.dumps(report.to_dict(), indent=2)`` directly, one template per fixed
shape, so a report and its trace cost one string format per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import Diagram, _int_list, _json_list
from .graph import Path


@dataclass
class Counters:
    """Exact per-phase operation counts."""

    eq_loops: int = 0
    eq_multi: int = 0
    eq_dfs: int = 0
    mult_dfs: int = 0


@dataclass
class RelationTrace:
    """Every equality check and concatenation performed, as pairs of edge-id words.

    Each relation mirrors the operands of one ``eq`` call; each product mirrors
    one ``op`` call.  Together they form a relation system whose verification
    is exactly what the run did.
    """

    relations: list = field(default_factory=list)
    products: list = field(default_factory=list)


@dataclass(frozen=True)
class NonIdentityLoop:
    edge: int


@dataclass(frozen=True)
class MultiEdgeMismatch:
    edge: int
    kept: int


@dataclass(frozen=True)
class PathMismatch:
    path1: Path
    path2: Path


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


# Layouts of the report document's fixed shapes.  Every ``%d`` value is an
# ``int`` the verifier counted or chose, which ``%d`` writes as the encoder does.

_REPORT = """{
  "commutative": %s,
  "counters": {
    "eq_loops": %d,
    "eq_multi": %d,
    "eq_dfs": %d,
    "mult_dfs": %d,
    "reduced_edges": %d
  },
  "witness": %s,
  "trace": %s
}"""
_LOOP_WITNESS = '{\n    "kind": "non_identity_loop",\n    "edge": %d\n  }'
_MULTI_WITNESS = '{\n    "kind": "multi_edge_mismatch",\n    "edge": %d,\n    "kept": %d\n  }'
_PATH_WITNESS = '{\n    "kind": "path_mismatch",\n    "path1": %s,\n    "path2": %s\n  }'
_PATH = '{\n      "edges": %s,\n      "origin": %d,\n      "tail": %d\n    }'
_TRACE = '{\n    "relations": %s,\n    "products": %s\n  }'
_TRACE_PAIR = "[\n        %s,\n        %s\n      ]"


def _format_witness(witness) -> str:
    """``witness_to_dict(witness)`` as it appears in the report document."""
    if isinstance(witness, NonIdentityLoop):
        return _LOOP_WITNESS % witness.edge
    if isinstance(witness, MultiEdgeMismatch):
        return _MULTI_WITNESS % (witness.edge, witness.kept)
    if isinstance(witness, PathMismatch):
        return _PATH_WITNESS % (_format_path(witness.path1), _format_path(witness.path2))
    raise TypeError(f"not a witness: {type(witness).__name__}")


def _format_path(path: Path) -> str:
    return _PATH % (_int_list(path.edges, 3), path.origin, path.tail)


def _format_pairs(pairs) -> str:
    return _json_list([_TRACE_PAIR % (_int_list(lhs, 4), _int_list(rhs, 4)) for lhs, rhs in pairs], 2)


@dataclass
class VerificationReport:
    commutative: bool
    counters: Counters
    reduced_edges: int
    witness: object | None = None
    trace: RelationTrace | None = None

    @property
    def eq_total(self) -> int:
        c = self.counters
        return c.eq_loops + c.eq_multi + c.eq_dfs

    @property
    def mult_total(self) -> int:
        return self.counters.mult_dfs

    def to_dict(self) -> dict:
        c = self.counters
        return {
            "commutative": self.commutative,
            "counters": {
                "eq_loops": c.eq_loops,
                "eq_multi": c.eq_multi,
                "eq_dfs": c.eq_dfs,
                "mult_dfs": c.mult_dfs,
                "reduced_edges": self.reduced_edges,
            },
            "witness": witness_to_dict(self.witness) if self.witness is not None else None,
            "trace": None if self.trace is None else trace_to_dict(self.trace),
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2)``, written directly."""
        c = self.counters
        trace = self.trace
        return _REPORT % (
            "true" if self.commutative else "false",
            c.eq_loops,
            c.eq_multi,
            c.eq_dfs,
            c.mult_dfs,
            self.reduced_edges,
            "null" if self.witness is None else _format_witness(self.witness),
            "null" if trace is None else _TRACE % (_format_pairs(trace.relations), _format_pairs(trace.products)),
        )


class WorkingDiagram:
    """The adjacency the reduction phases edit: a list of the graph's own
    out-edge tuples.  A phase replaces a vertex's entry with a fresh list of
    the edges it keeps and never edits one in place, so the graph is never
    touched; a phase that stops at a violation leaves its vertex unreduced.
    The phases take labels and monoid from here, which ``verify`` swaps for
    their traced pairs."""

    def __init__(self, diagram: Diagram):
        self.diagram = diagram
        self.labels = diagram.labels
        self.monoid = diagram.monoid
        self.adjacency = list(diagram.graph.adjacency)
        self.tails = [t for _, t in diagram.graph.edges]

    def remaining_edge_count(self) -> int:
        return sum(len(out) for out in self.adjacency)


class _TracedMonoid:
    """M x the free monoid on edge ids.  A value is a ``(label, edges)`` pair,
    and every ``op``/``eq`` records its two edge-id words in the trace before
    it acts on the labels, so the trace lists the run's operations in order."""

    def __init__(self, inner, trace: RelationTrace):
        self.inner = inner
        self.trace = trace

    def identity(self):
        return (self.inner.identity(), ())

    def op(self, a, b):
        self.trace.products.append((a[1], b[1]))
        return (self.inner.op(a[0], b[0]), a[1] + b[1])

    def eq(self, a, b) -> bool:
        self.trace.relations.append((a[1], b[1]))
        return self.inner.eq(a[0], b[0])


def remove_loops(working: WorkingDiagram, counters: Counters):
    """Check every loop against the identity and drop it; first failure wins."""
    labels = working.labels
    eq = working.monoid.eq
    tails = working.tails
    one = working.monoid.identity()
    for v, out in enumerate(working.adjacency):
        kept = []
        for e in out:
            if tails[e] == v:
                counters.eq_loops += 1
                if not eq(labels[e], one):
                    return NonIdentityLoop(e)
            else:
                kept.append(e)
        working.adjacency[v] = kept
    return None


def remove_multiple_edges(working: WorkingDiagram, counters: Counters):
    """Keep the first edge per (origin, tail), check and drop the rest.

    One timestamped scratch table is reused across origins, so the whole
    phase is linear in vertices plus edges.  Assumes loops are already gone.
    """
    labels = working.labels
    eq = working.monoid.eq
    tails = working.tails
    n = working.diagram.graph.vertex_count
    stamp = [-1] * n
    kept_edge = [0] * n
    for v, out in enumerate(working.adjacency):
        kept = []
        for e in out:
            u = tails[e]
            if stamp[u] != v:
                stamp[u] = v
                kept_edge[u] = e
                kept.append(e)
            else:
                counters.eq_multi += 1
                if not eq(labels[e], labels[kept_edge[u]]):
                    return MultiEdgeMismatch(e, kept_edge[u])
        working.adjacency[v] = kept
    return None


def _tree_path(graph, parent_edge, root: int, vertex: int) -> tuple[int, ...]:
    backwards = []
    while vertex != root:
        e = parent_edge[vertex]
        backwards.append(e)
        vertex = graph.origin(e)
    backwards.reverse()
    return tuple(backwards)


def _dfs_all_roots(working: WorkingDiagram, counters: Counters):
    """Label-checked DFS from every root in ascending order on the reduced
    adjacency.  One set of arrays serves every root: a vertex counts as
    visited only if its stamp is the current root, so resets are free."""
    graph = working.diagram.graph
    labels = working.labels
    mon = working.monoid
    op = mon.op
    eq = mon.eq
    adjacency = working.adjacency
    tails = working.tails
    n = graph.vertex_count
    visited = [-1] * n
    m_value = [None] * n
    parent_edge = [-1] * n
    # Each frame holds its vertex and the iterator over its remaining out-edges;
    # the counts live in locals and reach ``counters`` on every exit.
    mults = eqs = 0
    try:
        for root in range(n):
            visited[root] = root
            m_value[root] = mon.identity()
            stack = [(root, iter(adjacency[root]))]
            while stack:
                v, out = stack[-1]
                value = m_value[v]
                for e in out:
                    u = tails[e]
                    mults += 1
                    product = op(value, labels[e])
                    if visited[u] != root:
                        visited[u] = root
                        m_value[u] = product
                        parent_edge[u] = e
                        stack.append((u, iter(adjacency[u])))
                        break
                    eqs += 1
                    if not eq(m_value[u], product):
                        stored = _tree_path(graph, parent_edge, root, u)
                        derived = _tree_path(graph, parent_edge, root, v) + (e,)
                        return PathMismatch(Path(stored, root, u), Path(derived, root, u))
                else:
                    stack.pop()
        return None
    finally:
        counters.mult_dfs += mults
        counters.eq_dfs += eqs


def reduced_edge_count(diagram: Diagram) -> int:
    """The size of the edge set after removing every loop and merging every
    parallel bundle: one edge per distinct (origin, tail) pair with the two
    endpoints different.  Always below the squared vertex count."""
    return len({pair for pair in diagram.graph.edges if pair[0] != pair[1]})


def verify(diagram: Diagram, trace: bool = False) -> VerificationReport:
    """Decide commutativity, counting every monoid operation.

    Returns a full report; on the first violation the counters reflect the
    work done up to the stop and the witness pinpoints it.
    """
    relation_trace = RelationTrace() if trace else None
    counters = Counters()
    working = WorkingDiagram(diagram)
    if trace:
        working.monoid = _TracedMonoid(diagram.monoid, relation_trace)
        working.labels = [(label, (e,)) for e, label in enumerate(diagram.labels)]
    witness = remove_loops(working, counters)
    if witness is None:
        witness = remove_multiple_edges(working, counters)
    if witness is None:
        witness = _dfs_all_roots(working, counters)
    return VerificationReport(
        commutative=witness is None,
        counters=counters,
        reduced_edges=reduced_edge_count(diagram),
        witness=witness,
        trace=relation_trace,
    )


# ---------------------------------------------------------------------------
# Closed-form operation bounds


def bound_mults(n: int, m: int, reduced_edges: int | None = None) -> int:
    """Upper bound on multiplications for an n-vertex, m-edge input; with the
    reduced edge count supplied, the tighter post-reduction form."""
    cap = min(n * n, m) if reduced_edges is None else reduced_edges
    return cap * min(n, cap + 1)


def bound_eq_checks(n: int, m: int, reduced_edges: int | None = None) -> int:
    """Upper bound on equality checks: the multiplication bound plus one
    check per input edge."""
    return bound_mults(n, m, reduced_edges) + m
