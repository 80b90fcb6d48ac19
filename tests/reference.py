"""Reference encoders: each document as the dict whose
``json.dumps(doc, indent=2)`` is the canonical byte layout.

The package writes these bytes directly (``serialize_diagram``,
``serialize_graph``, ``VerificationReport.to_json``); the tests hold the
writers to these dict forms through ``json.dumps``.
"""

from __future__ import annotations

from diagcheck import (
    AdditiveNumber,
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
