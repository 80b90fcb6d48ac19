"""Diagrams (a graph plus one monoid label per edge) and their JSON format.

The wire format is a single JSON object::

    {
      "vertices": <int>,
      "monoid": {"family": "free" | "additive" | "matrix", "k": <int, matrix only>},
      "edges": [{"origin": <int>, "tail": <int>, "label": <family-specific>}, ...]
    }

Matrix labels are row-major k x k integer grids (a list of k rows), additive
labels are integers or exact "p/q" strings, free labels are lists of
non-negative generator ids.  Edge order in the file is the edge id order.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import frozen
from .graph import OrientedGraph, require_edge
from .monoid import (
    ADDITIVE,
    FREE,
    AdditiveNumber,
    FreeWord,
    IntMatrix,
    MonoidMismatchError,
    matrix_monoid,
)


class DiagramFormatError(ValueError):
    """Malformed diagram or graph document; the message carries the location."""


@frozen
@dataclass(frozen=True, slots=True, init=False, repr=False)
class Diagram:
    """An oriented graph labeled edge-by-edge from one monoid instance."""

    graph: OrientedGraph
    monoid: object
    labels: tuple

    def __init__(self, graph: OrientedGraph, monoid, labels):
        labels = tuple(labels)
        if len(labels) != graph.edge_count:
            raise ValueError(f"expected {graph.edge_count} labels, got {len(labels)}")
        for idx, label in enumerate(labels):
            if not monoid.owns(label):
                raise MonoidMismatchError(f"label {idx} does not belong to the declared monoid instance")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "monoid", monoid)
        object.__setattr__(self, "labels", labels)

    def __repr__(self):
        return f"Diagram({self.graph!r}, monoid={self.monoid.descriptor()})"


def label_of_sequence(diagram: Diagram, edge_ids):
    """The left-to-right label product of an edge sequence (not necessarily a
    path); the empty sequence maps to the identity."""
    mon = diagram.monoid
    labels = diagram.labels
    result = None
    for e in edge_ids:
        require_edge(diagram.graph, e)
        result = labels[e] if result is None else mon.op(result, labels[e])
    return mon.identity() if result is None else result


# ---------------------------------------------------------------------------
# Parsing

_RATIONAL_RE = re.compile(r"-?[0-9]+/[1-9][0-9]*")
_FAMILIES = ("free", "additive", "matrix")


def _fail(location, message):
    raise DiagramFormatError(f"{location}: {message}")


def _expect_int(value, location, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(location, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(location, f"expected an integer >= {minimum}, got {value}")
    return value


def _expect_keys(obj, required, location):
    if not isinstance(obj, dict):
        _fail(location, "expected an object")
    for key in required:
        if key not in obj:
            _fail(location, f"missing key '{key}'")
    for key in obj:
        if key not in required:
            _fail(location, f"unknown key '{key}'")


def _parse_monoid(obj):
    if not isinstance(obj, dict) or "family" not in obj:
        _fail("monoid", "expected an object with a 'family' key")
    family = obj["family"]
    if family not in _FAMILIES:
        _fail("monoid.family", f"unknown monoid family {family!r}")
    if family == "matrix":
        _expect_keys(obj, ("family", "k"), "monoid")
        k = _expect_int(obj["k"], "monoid.k", minimum=1)
        return matrix_monoid(k)
    _expect_keys(obj, ("family",), "monoid")
    return FREE if family == "free" else ADDITIVE


def _parse_label(raw, monoid, location):
    family = monoid.family
    if family == "free":
        if not isinstance(raw, list):
            _fail(location, "free label must be a list of generator ids")
        letters = tuple(_expect_int(x, location, minimum=0) for x in raw)
        return FreeWord(letters)
    if family == "additive":
        if isinstance(raw, int) and not isinstance(raw, bool):
            return AdditiveNumber(raw)
        if isinstance(raw, str) and _RATIONAL_RE.fullmatch(raw):
            return AdditiveNumber(Fraction(raw))
        _fail(location, "additive label must be an integer or a 'p/q' string")
    k = monoid.k
    if not isinstance(raw, list) or len(raw) != k:
        _fail(location, f"matrix label must be a {k}x{k} row-major grid")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != k:
            _fail(location, f"matrix label must be a {k}x{k} row-major grid")
        rows.append(tuple(_expect_int(x, f"{location}[{i}]") for x in row))
    return IntMatrix(tuple(rows))


def _load_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramFormatError(f"{what}: invalid JSON: {exc}") from exc


def _parse_edges(doc, vertices, monoid=None):
    """The edge list as (pairs, labels), validated entry by entry in file
    order: keys, origin, tail, both ranges, then the label when a monoid is
    given (a bare graph has no labels)."""
    keys = ("origin", "tail") if monoid is None else ("origin", "tail", "label")
    if not isinstance(doc["edges"], list):
        _fail("edges", "expected a list")
    pairs = []
    labels = []
    for i, entry in enumerate(doc["edges"]):
        _expect_keys(entry, keys, f"edges[{i}]")
        origin = _expect_int(entry["origin"], f"edges[{i}].origin", minimum=0)
        tail = _expect_int(entry["tail"], f"edges[{i}].tail", minimum=0)
        if origin >= vertices:
            _fail(f"edges[{i}].origin", f"endpoint {origin} out of range for {vertices} vertices")
        if tail >= vertices:
            _fail(f"edges[{i}].tail", f"endpoint {tail} out of range for {vertices} vertices")
        pairs.append((origin, tail))
        if monoid is not None:
            labels.append(_parse_label(entry["label"], monoid, f"edges[{i}].label"))
    return pairs, labels


def parse_diagram(text: str) -> Diagram:
    """Parse and validate a diagram document; errors carry their location."""
    doc = _load_json(text, "diagram")
    _expect_keys(doc, ("vertices", "monoid", "edges"), "top level")
    vertices = _expect_int(doc["vertices"], "vertices", minimum=0)
    monoid = _parse_monoid(doc["monoid"])
    pairs, labels = _parse_edges(doc, vertices, monoid)
    return Diagram(OrientedGraph(vertices, pairs), monoid, labels)


def parse_graph(text: str) -> OrientedGraph:
    """Parse a bare graph document: a diagram document without labels."""
    doc = _load_json(text, "graph")
    _expect_keys(doc, ("vertices", "edges"), "top level")
    vertices = _expect_int(doc["vertices"], "vertices", minimum=0)
    pairs, _ = _parse_edges(doc, vertices)
    return OrientedGraph(vertices, pairs)


# ---------------------------------------------------------------------------
# Serialization


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


def serialize_diagram(diagram: Diagram) -> str:
    """Canonical document; parse(serialize(d)) is structurally equal to d."""
    return json.dumps(diagram_to_dict(diagram), indent=2)


def graph_to_dict(graph: OrientedGraph) -> dict:
    return {
        "vertices": graph.vertex_count,
        "edges": [{"origin": origin, "tail": tail} for origin, tail in graph.edges],
    }


def serialize_graph(graph: OrientedGraph) -> str:
    return json.dumps(graph_to_dict(graph), indent=2)
