"""Hard labelings used as fixtures.

The commutative ones look degenerate (almost everything maps to an absorbing
zero) yet satisfy every relation; the non-commutative ones satisfy every
relation except a single targeted one.  Matrix families: products of the
units used here vanish after at most three factors, which is exactly what
makes the commutative fixtures work.
"""

from __future__ import annotations

from .constructions import Rhomboid, is_rhomboid
from .diagram import Diagram
from .graph import (
    OrientedGraph,
    has_multiple_edges,
    has_triangle,
    is_2_path_bounded,
    is_quasi_acyclic,
    loop_count,
    require_edge,
)
from .monoid import matrix_monoid, matrix_unit, upper_unitriangular, zero_matrix


class LabelingPreconditionError(ValueError):
    """The input graph fails a structural precondition; names the predicate."""


def _require(condition: bool, predicate: str) -> None:
    if not condition:
        raise LabelingPreconditionError(f"precondition failed: graph is not {predicate}")


def _check_vanishing_shape(graph: OrientedGraph) -> None:
    _require(loop_count(graph) == 0, "loop-free")
    _require(not has_multiple_edges(graph), "multi-edge-free")
    _require(not has_triangle(graph), "triangle-free")
    _require(is_quasi_acyclic(graph), "quasi-acyclic")
    _require(is_2_path_bounded(graph), "2-path-bounded")


def nz_edge_labeling(graph: OrientedGraph, edge: int) -> Diagram:
    """Commutative 2x2 diagram whose only nonzero label sits on one edge."""
    _check_vanishing_shape(graph)
    require_edge(graph, edge)
    nonzero = matrix_unit(2, 0, 1)
    zero = zero_matrix(2)
    labels = [nonzero if e == edge else zero for e in range(graph.edge_count)]
    return Diagram(graph, matrix_monoid(2), labels)


def _unit_pair_labeling(graph: OrientedGraph, low, high) -> Diagram:
    """3x3 diagram labeling each edge in ``low`` with the unit E01, each other
    edge in ``high`` with E12, and every remaining edge with zero."""
    e01 = matrix_unit(3, 0, 1)
    e12 = matrix_unit(3, 1, 2)
    zero = zero_matrix(3)
    labels = [e01 if e in low else e12 if e in high else zero for e in range(graph.edge_count)]
    return Diagram(graph, matrix_monoid(3), labels)


def nz_pair_labeling(graph: OrientedGraph, first: int, second: int) -> Diagram:
    """Commutative 3x3 diagram where the two chosen labels multiply to a
    nonzero matrix.

    Consecutive pair (t(first) = o(second)): every edge leaving o(first) gets
    the unit E01, every edge entering t(second) gets E12; triangle
    freedom keeps the two cases from colliding.  Otherwise only the two
    chosen edges are nonzero.
    """
    _check_vanishing_shape(graph)
    require_edge(graph, first)
    require_edge(graph, second)
    if first == second:
        raise ValueError("the two edges must be distinct")
    if graph.tail(first) == graph.origin(second):
        end = graph.tail(second)
        entering = {e for e, (_, tail) in enumerate(graph.edges) if tail == end}
        return _unit_pair_labeling(graph, set(graph.adjacency[graph.origin(first)]), entering)
    return _unit_pair_labeling(graph, (first,), (second,))


def rhomboid_gap_labeling(graph: OrientedGraph, rhomboid: Rhomboid) -> Diagram:
    """Non-commutative 3x3 diagram violating exactly one relation: the two
    sides of the given rhomboid."""
    if not is_rhomboid(graph, *rhomboid):
        raise ValueError("edges do not form a rhomboid")
    return _unit_pair_labeling(graph, (rhomboid.a,), (rhomboid.b,))


def loop_indicator_labeling(graph: OrientedGraph) -> Diagram:
    """Multiplicative 0/1 diagram (1x1 matrices): loops get 1, everything
    else 0; commutative because no directed cycle leaves its vertex."""
    _require(is_quasi_acyclic(graph), "quasi-acyclic")
    mon = matrix_monoid(1)
    one = mon.identity()
    zero = zero_matrix(1)
    labels = [one if graph.is_loop(e) else zero for e in range(graph.edge_count)]
    return Diagram(graph, mon, labels)


def loop_kernel_labeling(graph: OrientedGraph, values) -> Diagram:
    """2x2 diagram with unitriangular loop labels [[1, v], [0, 1]] (one v per
    loop, in edge-id order) and the zero matrix elsewhere.

    Non-commutative iff some v is nonzero: that loop's label differs from
    the identity, no matter how the loop labels multiply out together.
    """
    loops = sorted(graph.loops)
    if not loops:
        raise ValueError("graph has no loops")
    values = list(values)
    if len(values) != len(loops):
        raise ValueError(f"expected {len(loops)} kernel entries, got {len(values)}")
    by_loop = dict(zip(loops, values))
    zero = zero_matrix(2)
    labels = [
        upper_unitriangular(by_loop[e]) if e in by_loop else zero
        for e in range(graph.edge_count)
    ]
    return Diagram(graph, matrix_monoid(2), labels)
