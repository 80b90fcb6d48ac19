"""Brute-force ground truth and witness validation.

The oracle enumerates every walk up to a length bound and demands that all
walks with the same endpoints have equal labels.  With the bound set to the
vertex count it is exact: any longer walk contains a contiguous simple cycle
of at most |V| edges, which the comparison against the empty walk at its base
vertex already forces to the identity, so the walk's label collapses to that
of a walk within the bound.  The oracle is meant for small instances and
refuses (rather than truncates) work past its budget.
"""

from __future__ import annotations

from .diagram import Diagram, label_of_sequence
from .errors import DEFAULT_WALK_BUDGET, BudgetExceededError, require_count
from .graph import Path, is_valid_path, require_edge
from .verifier import MultiEdgeMismatch, NonIdentityLoop, PathMismatch


def oracle_verify(diagram: Diagram, length_bound: int, budget: int = DEFAULT_WALK_BUDGET) -> bool:
    """True iff all same-endpoint walks up to the bound have equal labels.

    Exact whenever length_bound >= |V|.  From each start vertex in turn, a
    depth-first search builds every walk's label incrementally (one product
    per extension) and compares it with the first walk that reached the same
    vertex.  Every walk counts against ``budget``, the empty one at each start
    included; past it the call raises ``BudgetExceededError``.  The bound and
    the budget must be non-negative integers.  It reads the diagram's
    ``_run``, the view ``Diagram(...)`` built once and ``verify`` reads.
    """
    require_count(length_bound, "length bound")
    require_count(budget, "walk budget")
    diagram = diagram._run
    graph = diagram.graph
    labels = diagram.labels
    mon = diagram.monoid
    op = mon.op
    eq = mon.eq
    adjacency = graph.adjacency
    tails = graph.tails
    # ``first[v]`` is the label of the first walk from the current start to v,
    # valid only while ``reached[v]`` is that start, so one pair serves all.
    reached = [-1] * graph.vertex_count
    first = [None] * graph.vertex_count
    count = 0
    for start in range(graph.vertex_count):
        stack = [(0, start, mon.identity())]
        while stack:
            length, at, value = stack.pop()
            count += 1
            if count > budget:
                raise BudgetExceededError(f"walk budget of {budget} exceeded")
            if reached[at] == start:
                if not eq(value, first[at]):
                    return False
            else:
                reached[at] = start
                first[at] = value
            if length < length_bound:
                for e in reversed(adjacency[at]):
                    stack.append((length + 1, tails[e], op(value, labels[e])))
    return True


def validate_witness(diagram: Diagram, witness) -> bool:
    """Re-evaluate a witness on the original diagram.

    Every witness is read as two paths: a ``NonIdentityLoop`` as its edge
    against the empty path at the edge's origin, a ``MultiEdgeMismatch`` as
    its edge against ``kept`` over the edge's endpoints.  It holds when both
    paths are valid, share their endpoints and have different labels.
    Semantically wrong witnesses (a non-loop in NonIdentityLoop, an edge
    paired with itself or a loop in MultiEdgeMismatch, mismatched endpoints,
    equal labels) return False; structurally malformed ones (unknown type,
    out-of-range edge ids) raise.  It reads the diagram's ``_run``, the
    view ``Diagram(...)`` built once and ``verify`` reads.
    """
    diagram = diagram._run
    graph = diagram.graph
    if isinstance(witness, NonIdentityLoop):
        e = witness.edge
        require_edge(graph, e)
        origin = graph.origin(e)
        path1, path2 = Path((e,), origin, origin), Path((), origin, origin)
    elif isinstance(witness, MultiEdgeMismatch):
        e, kept = witness.edge, witness.kept
        require_edge(graph, e)
        require_edge(graph, kept)
        if e == kept or graph.is_loop(e):
            return False
        origin, tail = graph.edges[e]
        path1, path2 = Path((e,), origin, tail), Path((kept,), origin, tail)
    elif isinstance(witness, PathMismatch):
        path1, path2 = witness.path1, witness.path2
        for path in (path1, path2):
            for e in path.edges:
                require_edge(graph, e)
    else:
        raise TypeError(f"not a witness: {type(witness).__name__}")
    if not is_valid_path(graph, path1) or not is_valid_path(graph, path2):
        return False
    if path1.origin != path2.origin or path1.tail != path2.tail:
        return False
    return not diagram.monoid.eq(label_of_sequence(diagram, path1.edges), label_of_sequence(diagram, path2.edges))
