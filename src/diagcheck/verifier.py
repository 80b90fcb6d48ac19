"""The core verification pass with exact operation accounting.

The pass runs three phases over the reduction the graph lists once
(``OrientedGraph.loops``, ``duplicates`` and ``reduced``):

1. every loop edge is checked against the identity;
2. every parallel edge is checked against the first edge of its bundle;
3. from every vertex in ascending id order, a depth-first search on the
   reduced adjacency propagates a product m(v) along tree edges and checks
   every non-tree edge, with visited marks and m-values reset per root; a
   vertex without a reduced out-edge is skipped, as its search would do no
   monoid operation.

The phases read only ``.graph``, ``.monoid`` and ``.labels``, and labels only
through the monoid's ``identity``/``op``/``eq``; every ``op`` and ``eq`` call
is counted, and the counters are the report.  The pass stops at the first
violation and returns a witness for it.  Every run starts from
``diagram._payload_diagram``: for a monoid of exactly one of the three
built-in families, the phases read a plain ``_Run(graph, kernel, payloads)``
view, with no per-call operand check or value object.  Any other monoid, a
subclass or a wrapper included, runs on the ``Diagram`` as it is.  Witnesses
hold only edge ids, so no payload leaves the pass.

A relation trace is the same run over M x the free monoid on edge ids: a
``_Run`` whose edge e is labeled (label, (e,)), under ``_TracedMonoid``, which
records the edge-id words of every ``op`` and ``eq``'s operands, so the
phases carry no trace code.

``VerificationReport.to_json`` writes ``json.dumps(doc, indent=2)`` of the
report as a dict ``doc`` directly, one template per fixed shape, so a report
and its trace cost one string format per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import Diagram, _int_list, _json_list, _payload_diagram, _Run
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
    """``witness``'s JSON object as it appears in the report document."""
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

    def to_json(self) -> str:
        """``json.dumps(doc, indent=2)`` of the report as a dict, written directly."""
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


def remove_loops(diagram: Diagram, counters: Counters):
    """Check every loop against the identity; first failure wins."""
    labels = diagram.labels
    eq = diagram.monoid.eq
    one = diagram.monoid.identity()
    for e in diagram.graph.loops:
        counters.eq_loops += 1
        if not eq(labels[e], one):
            return NonIdentityLoop(e)
    return None


def remove_multiple_edges(diagram: Diagram, counters: Counters):
    """Check every parallel edge against its bundle's first edge; first failure wins."""
    labels = diagram.labels
    eq = diagram.monoid.eq
    for e, kept in diagram.graph.duplicates:
        counters.eq_multi += 1
        if not eq(labels[e], labels[kept]):
            return MultiEdgeMismatch(e, kept)
    return None


def _tree_path(graph, parent_edge, root: int, vertex: int) -> tuple[int, ...]:
    backwards = []
    while vertex != root:
        e = parent_edge[vertex]
        backwards.append(e)
        vertex = graph.origin(e)
    backwards.reverse()
    return tuple(backwards)


def _dfs_all_roots(diagram: Diagram, counters: Counters):
    """Label-checked DFS from every root in ascending order on the reduced
    adjacency.  One set of arrays serves every root: a vertex counts as
    visited only if its stamp is the current root, so resets are free."""
    graph = diagram.graph
    labels = diagram.labels
    mon = diagram.monoid
    op = mon.op
    eq = mon.eq
    adjacency = graph.reduced
    tails = graph.tails
    n = graph.vertex_count
    visited = [-1] * n
    m_value = [None] * n
    parent_edge = [-1] * n
    # Each frame holds its vertex and the iterator over its remaining out-edges;
    # the counts live in locals and reach ``counters`` on every exit.
    mults = eqs = 0
    try:
        for root in range(n):
            if not adjacency[root]:
                continue
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
    return sum(map(len, diagram.graph.reduced))


def verify(diagram: Diagram, trace: bool = False) -> VerificationReport:
    """Decide commutativity, counting every monoid operation.

    Returns a full report; on the first violation the counters reflect the
    work done up to the stop and the witness pinpoints it.
    """
    relation_trace = RelationTrace() if trace else None
    counters = Counters()
    run = _payload_diagram(diagram)
    if trace:
        traced = _TracedMonoid(run.monoid, relation_trace)
        run = _Run(run.graph, traced, [(label, (e,)) for e, label in enumerate(run.labels)])
    witness = remove_loops(run, counters)
    if witness is None:
        witness = remove_multiple_edges(run, counters)
    if witness is None:
        witness = _dfs_all_roots(run, counters)
    return VerificationReport(
        commutative=witness is None,
        counters=counters,
        reduced_edges=reduced_edge_count(run),
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
