"""Brute-force ground truth and witness validation.

The oracle enumerates every walk up to a length bound, groups walks by their
endpoint pair, and demands equal labels within each group.  With the bound
set to the vertex count it is exact: any longer walk contains a contiguous
simple cycle of at most |V| edges, which the comparison against the empty
walk at its base vertex already forces to the identity, so the walk's label
collapses to that of a walk within the bound.  The oracle is meant for small
instances and refuses (rather than truncates) work past its budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram, _payload_diagram, label_of_sequence
from .errors import BudgetExceededError
from .graph import OrientedGraph, is_valid_path, require_edge
from .verifier import MultiEdgeMismatch, NonIdentityLoop, PathMismatch

DEFAULT_WALK_BUDGET = 10**6


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


def _walks(graph: OrientedGraph, length_bound: int, budget: int, empty, op, labels):
    """Every walk up to the length bound, depth-first from each start vertex
    in turn, as ((start, end), label): ``empty()`` once per start, then one
    ``op(label, labels[e])`` per extension.  Raises past ``budget`` walks."""
    if length_bound < 0:
        raise ValueError("length bound must be non-negative")
    tails = graph.tails
    count = 0
    for start in range(graph.vertex_count):
        stack = [(0, start, empty())]
        while stack:
            length, at, value = stack.pop()
            count += 1
            if count > budget:
                raise BudgetExceededError(f"walk budget of {budget} exceeded")
            yield (start, at), value
            if length < length_bound:
                for e in reversed(graph.adjacency[at]):
                    stack.append((length + 1, tails[e], op(value, labels[e])))


def enumerate_walks(graph: OrientedGraph, length_bound: int, budget: int = DEFAULT_WALK_BUDGET) -> WalkEnumeration:
    """Complete, duplicate-free walk enumeration up to the length bound.

    A walk's edge-id tuple is its label in the free monoid on edge ids.
    """
    groups: dict = {}
    edge_words = [(e,) for e in range(graph.edge_count)]
    for key, edges in _walks(graph, length_bound, budget, tuple, tuple.__add__, edge_words):
        groups.setdefault(key, []).append(edges)
    return WalkEnumeration(length_bound, groups)


def oracle_verify(diagram: Diagram, length_bound: int, budget: int = DEFAULT_WALK_BUDGET) -> bool:
    """True iff all same-endpoint walks up to the bound have equal labels.

    Exact whenever length_bound >= |V|.  Labels are built incrementally (one
    product per walk extension) and each walk is compared against the first
    one seen for its endpoint pair.  A built-in family runs on its payload
    kernel, as in ``verify``.
    """
    diagram = _payload_diagram(diagram)
    mon = diagram.monoid
    eq = mon.eq
    reference: dict = {}
    for key, value in _walks(diagram.graph, length_bound, budget, mon.identity, mon.op, diagram.labels):
        if key in reference:
            if not eq(value, reference[key]):
                return False
        else:
            reference[key] = value
    return True


def validate_witness(diagram: Diagram, witness) -> bool:
    """Re-evaluate a witness on the original diagram.

    Semantically wrong witnesses (a non-loop in NonIdentityLoop, mismatched
    path endpoints, equal labels) return False; structurally malformed ones
    (unknown type, out-of-range edge ids) raise.  A built-in family runs on
    its payload kernel, as in ``verify``.
    """
    diagram = _payload_diagram(diagram)
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
