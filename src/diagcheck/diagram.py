"""Diagrams (a graph plus one monoid label per edge) and their JSON format.

The wire format is a single JSON object::

    {
      "vertices": <int>,
      "monoid": {"family": "free" | "additive" | "matrix", "k": <1..256, matrix only>},
      "edges": [{"origin": <int>, "tail": <int>, "label": <family-specific>}, ...]
    }

Matrix labels are row-major k x k integer grids (a list of k rows), additive
labels are integers or exact "p/q" strings, free labels are lists of
non-negative generator ids.  Edge order in the file is the edge id order.

The parser accepts any JSON layout.  The writers emit one canonical layout:
the bytes ``json.dumps(doc, indent=2)`` gives for the document as a dict
``doc`` (the example above is compacted for reading), written directly
rather than through the encoder.  An integer longer than the interpreter's
int-string limit (4300 digits by default), as a JSON number or inside a
"p/q" label, is a format error like any other.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import chain
from math import gcd

from .errors import Frozen
from .graph import OrientedGraph, require_edge
from .monoid import (
    ADDITIVE,
    FREE,
    AdditiveMonoid,
    AdditiveNumber,
    FreeMonoid,
    FreeWord,
    IntMatrix,
    MatrixMonoid,
    MonoidMismatchError,
    _additive,
    _free_word,
    _int_matrix,
    matrix_monoid,
)


class DiagramFormatError(ValueError):
    """Malformed diagram or graph document; the message carries the location."""


class Diagram(Frozen):
    """An oriented graph labeled edge-by-edge from one monoid instance; ``_run`` holds its run view."""

    __slots__ = ("graph", "monoid", "labels", "_run")
    __match_args__ = ("graph", "monoid", "labels")

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
        run = monoid._run(labels) if type(monoid) in _PAYLOAD_FAMILIES else (monoid, labels)
        object.__setattr__(self, "_run", _Run(graph, *run))

    def __repr__(self):
        descriptor = getattr(self.monoid, "descriptor", None)
        monoid = type(self.monoid).__name__ if descriptor is None else descriptor()
        return f"Diagram({self.graph!r}, monoid={monoid})"


class _Run(namedtuple("_Run", "graph monoid labels")):
    """What a run reads of a diagram, built once by ``Diagram(...)``: the graph,
    an ``identity``/``op``/``eq`` surface and the labels.  For a built-in family
    these are the kernel its ``_run`` picks and the labels' payloads under it."""

    __slots__ = ()


# Exactly these types: a subclass may override ``op``/``eq``, and a wrapper
# that forwards unknown attributes would expose its inner ``_kernel``.
_PAYLOAD_FAMILIES = (FreeMonoid, AdditiveMonoid, MatrixMonoid)


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
#
# ``json.loads`` yields exact ``int``/``list``/``dict``/``str`` values, so each
# entry is tested once, inline, with ``type(x) is int``, which also refuses
# booleans.  A location string is built only for the error raised, and the
# first fault in file order is the one reported: keys, origin, tail, both
# ranges, then the label.  Checked payloads go through the trusted builders,
# so the value classes do not check every entry a second time.

_RATIONAL_RE = re.compile(r"(-?[0-9]+)/([1-9][0-9]*)")
# The largest matrix dimension a document may declare; the instance builds
# its k x k identity at once, before any edge is read.
_MAX_MATRIX_K = 256
_FAMILIES = ("free", "additive", "matrix")
_GRAPH_KEYS = ("origin", "tail")
_DIAGRAM_KEYS = ("origin", "tail", "label")


def _fail(location, message):
    raise DiagramFormatError(f"{location}: {message}")


def _int_fault(value, location, minimum=None):
    """Raise the error for ``value``, which failed the inline integer test."""
    if type(value) is not int:
        _fail(location, f"expected an integer, got {value!r}")
    _fail(location, f"expected an integer >= {minimum}, got {value}")


def _expect_int(value, location, minimum=None):
    if type(value) is not int or (minimum is not None and value < minimum):
        _int_fault(value, location, minimum)
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


def _too_long(location):
    _fail(location, f"integer of more than {sys.get_int_max_str_digits()} digits")


def _parse_monoid(obj):
    """The monoid and its label reader ``(raw, edge index) -> value``."""
    if not isinstance(obj, dict) or "family" not in obj:
        _fail("monoid", "expected an object with a 'family' key")
    family = obj["family"]
    if family not in _FAMILIES:
        _fail("monoid.family", f"unknown monoid family {family!r}")
    if family != "matrix":
        _expect_keys(obj, ("family",), "monoid")
        return (FREE, _free_label) if family == "free" else (ADDITIVE, _additive_label)
    _expect_keys(obj, ("family", "k"), "monoid")
    k = _expect_int(obj["k"], "monoid.k", minimum=1)
    if k > _MAX_MATRIX_K:
        _fail("monoid.k", f"expected an integer <= {_MAX_MATRIX_K}, got {k}")

    def matrix_label(raw, i):
        if type(raw) is not list or len(raw) != k:
            _fail(f"edges[{i}].label", f"matrix label must be a {k}x{k} row-major grid")
        for r, row in enumerate(raw):
            if type(row) is not list or len(row) != k:
                _fail(f"edges[{i}].label", f"matrix label must be a {k}x{k} row-major grid")
            for x in row:
                if type(x) is not int:
                    _int_fault(x, f"edges[{i}].label[{r}]")
        return _int_matrix(tuple(map(tuple, raw)))

    return matrix_monoid(k), matrix_label


def _free_label(raw, i):
    if type(raw) is not list:
        _fail(f"edges[{i}].label", "free label must be a list of generator ids")
    for x in raw:
        if type(x) is not int or x < 0:
            _int_fault(x, f"edges[{i}].label", 0)
    return _free_word(tuple(raw))


def _additive_label(raw, i):
    if type(raw) is int:
        return _additive(raw, 1)
    match = _RATIONAL_RE.fullmatch(raw) if type(raw) is str else None
    if match is None:
        _fail(f"edges[{i}].label", "additive label must be an integer or a 'p/q' string")
    try:
        num, den = int(match[1]), int(match[2])
    except ValueError:  # past the interpreter's int-string limit
        _too_long(f"edges[{i}].label")
    g = gcd(num, den)
    return _additive(num // g, den // g)


def _load_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramFormatError(f"{what}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError:  # ``bytes`` that are not UTF-8: no integer fault
        raise
    except ValueError:  # an integer literal past the interpreter's int-string limit
        _too_long(what)


def _parse_edges(doc, vertices, read_label=None):
    """The edge list as (pairs, labels), validated entry by entry in file
    order: keys, origin, tail, both ranges, then the label when a label
    reader is given (a bare graph has no labels)."""
    keys = _GRAPH_KEYS if read_label is None else _DIAGRAM_KEYS
    key_set = set(keys)
    edges = doc["edges"]
    if type(edges) is not list:
        _fail("edges", "expected a list")
    pairs = []
    labels = []
    for i, entry in enumerate(edges):
        if type(entry) is not dict or entry.keys() != key_set:
            _expect_keys(entry, keys, f"edges[{i}]")
        origin = entry["origin"]
        tail = entry["tail"]
        if type(origin) is not int or origin < 0:
            _int_fault(origin, f"edges[{i}].origin", 0)
        if type(tail) is not int or tail < 0:
            _int_fault(tail, f"edges[{i}].tail", 0)
        if origin >= vertices:
            _fail(f"edges[{i}].origin", f"endpoint {origin} out of range for {vertices} vertices")
        if tail >= vertices:
            _fail(f"edges[{i}].tail", f"endpoint {tail} out of range for {vertices} vertices")
        pairs.append((origin, tail))
        if read_label is not None:
            labels.append(read_label(entry["label"], i))
    return pairs, labels


def parse_diagram(text: str) -> Diagram:
    """Parse and validate a diagram document; errors carry their location."""
    doc = _load_json(text, "diagram")
    _expect_keys(doc, ("vertices", "monoid", "edges"), "top level")
    vertices = _expect_int(doc["vertices"], "vertices", minimum=0)
    monoid, read_label = _parse_monoid(doc["monoid"])
    pairs, labels = _parse_edges(doc, vertices, read_label)
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
#
# The canonical document is ``json.dumps(doc, indent=2)`` of the document as
# a dict.  With an indent that call runs the pure-Python encoder, so the
# writers below lay out the same bytes directly: each edge entry and each
# label is one formatted string.  Integers are written as the encoder writes
# them, by ``int.__repr__`` or by ``%d``, which gives the same digits for
# every ``int``.


# ``_NEWLINE[level]`` starts a line at indent ``level``; ``_SEPARATOR[level]``
# ends a list item and starts the next at that level.
_NEWLINE = tuple("\n" + "  " * level for level in range(8))
_SEPARATOR = tuple("," + newline for newline in _NEWLINE)

_DIAGRAM_EDGE = '{\n      "origin": %s,\n      "tail": %s,\n      "label": %s\n    }'
_GRAPH_EDGE = '{\n      "origin": %s,\n      "tail": %s\n    }'


def _json_list(items, level: int) -> str:
    """``items``, already formatted, as the indented JSON list whose opening
    bracket sits at indent ``level``."""
    if not items:
        return "[]"
    return f"[{_NEWLINE[level + 1]}{_SEPARATOR[level + 1].join(items)}{_NEWLINE[level]}]"


def _int_list(values, level: int) -> str:
    """A sequence of integers as ``_json_list`` lays it out."""
    return _json_list(list(map(int.__repr__, values)), level)


@lru_cache(maxsize=16)
def _matrix_template(k: int) -> str:
    """A k x k matrix label's layout, one ``%d`` per entry in row-major order.
    ``%d`` writes any ``int``, subclasses included, as ``int.__repr__`` does."""
    return _json_list([_json_list(["%d"] * k, 4)] * k, 3)


def _format_label(label) -> str:
    """``label``'s JSON value as it appears in a canonical diagram document."""
    if isinstance(label, FreeWord):
        return _int_list(label.letters, 3)
    if isinstance(label, AdditiveNumber):
        return "%d" % label.num if label.den == 1 else '"%d/%d"' % (label.num, label.den)
    if isinstance(label, IntMatrix):
        entries = label.entries
        return _matrix_template(len(entries)) % tuple(chain.from_iterable(entries))
    raise TypeError(f"cannot serialize label of type {type(label).__name__}")


def serialize_diagram(diagram: Diagram) -> str:
    """Canonical document; parse(serialize(d)) is structurally equal to d."""
    graph = diagram.graph
    descriptor = getattr(diagram.monoid, "descriptor", None)
    if descriptor is None:
        raise TypeError(f"cannot serialize monoid of type {type(diagram.monoid).__name__}")
    doc = descriptor()
    # Every document written must parse back, so a matrix k has the parser's cap.
    if doc.get("family") == "matrix" and doc["k"] > _MAX_MATRIX_K:
        raise ValueError(f"matrix dimension {doc['k']} is above _MAX_MATRIX_K = {_MAX_MATRIX_K}")
    monoid = json.dumps(doc, indent=2).replace("\n", _NEWLINE[1])
    edges = [
        _DIAGRAM_EDGE % (int.__repr__(origin), int.__repr__(tail), _format_label(label))
        for (origin, tail), label in zip(graph.edges, diagram.labels)
    ]
    return (
        f'{{\n  "vertices": {int.__repr__(graph.vertex_count)},\n  "monoid": {monoid},\n'
        f'  "edges": {_json_list(edges, 1)}\n}}'
    )


def serialize_graph(graph: OrientedGraph) -> str:
    """Canonical document: ``json.dumps(doc, indent=2)`` of the graph as a dict."""
    edges = [_GRAPH_EDGE % (int.__repr__(origin), int.__repr__(tail)) for origin, tail in graph.edges]
    return f'{{\n  "vertices": {int.__repr__(graph.vertex_count)},\n  "edges": {_json_list(edges, 1)}\n}}'
