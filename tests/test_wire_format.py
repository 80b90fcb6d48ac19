"""The canonical writers against ``json.dumps(..., indent=2)``, and the
one-pass parser against the validators it replaced."""

from __future__ import annotations

import copy
import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from diagcheck import (
    ADDITIVE,
    FREE,
    AdditiveNumber,
    Diagram,
    DiagramFormatError,
    FreeWord,
    IntMatrix,
    OrientedGraph,
    build,
    matrix_monoid,
    matrix_unit,
    number,
    parse_diagram,
    parse_graph,
    serialize_diagram,
    serialize_graph,
    verify,
    word,
    zero_matrix,
)
from diagcheck.verifier import MultiEdgeMismatch, NonIdentityLoop, PathMismatch

from .reference import diagram_to_dict, graph_to_dict, report_to_dict

# ---------------------------------------------------------------------------
# Strategies


class _Word(FreeWord):
    pass


class _Number(AdditiveNumber):
    pass


class _Matrix(IntMatrix):
    pass


_big = st.integers(min_value=2**64, max_value=2**70)
_entries = st.one_of(st.integers(min_value=-5, max_value=5), _big, _big.map(lambda x: -x))
_letters = st.lists(st.one_of(st.integers(min_value=0, max_value=9), _big), max_size=40)
_rationals = st.one_of(
    st.integers(min_value=-9, max_value=9), _big, _big.map(lambda x: -x), st.fractions(), _big.map(lambda x: Fraction(-x, 7))
)


@st.composite
def _graphs(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    if n == 0:
        return OrientedGraph(0, [])
    vertex = st.integers(min_value=0, max_value=n - 1)
    return OrientedGraph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=8)))


@st.composite
def _diagrams(draw):
    graph = draw(_graphs())
    family = draw(st.sampled_from(("free", "additive", "matrix")))
    # Every label may come as a subclass instance, which Diagram accepts.
    subclass = st.booleans()
    if family == "free":
        monoid = FREE
        label = st.builds(lambda xs, sub: (_Word if sub else FreeWord)(tuple(xs)), _letters, subclass)
    elif family == "additive":
        monoid = ADDITIVE
        label = st.builds(lambda x, sub: (_Number if sub else AdditiveNumber)(x), _rationals, subclass)
    else:
        k = draw(st.sampled_from((1, 2, 3, 4, 8)))
        monoid = matrix_monoid(k)
        grid = st.lists(st.lists(_entries, min_size=k, max_size=k), min_size=k, max_size=k)
        label = st.builds(lambda rows, sub: (_Matrix if sub else IntMatrix)(rows), grid, subclass)
    labels = draw(st.lists(label, min_size=graph.edge_count, max_size=graph.edge_count))
    return Diagram(graph, monoid, labels)


# ---------------------------------------------------------------------------
# Writers


_SQUARE = build(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
_I2 = matrix_monoid(2).identity()


@given(_diagrams())
@example(Diagram(build(0, []), FREE, []))
@example(Diagram(build(3, []), matrix_monoid(8), []))
@example(Diagram(build(2, [(0, 1), (1, 1)]), FREE, [word(), _Word(tuple(range(50)))]))
@example(Diagram(build(2, [(0, 1), (1, 0)]), ADDITIVE, [number(Fraction(-3, 4)), _Number(-(2**70))]))
@example(Diagram(build(1, [(0, 0)]), matrix_monoid(4), [_Matrix(((2**64, 0, -1, 0),) * 4)]))
def test_serialize_diagram_is_the_indented_dump(d):
    text = serialize_diagram(d)
    assert text == json.dumps(diagram_to_dict(d), indent=2)
    assert serialize_diagram(parse_diagram(text)) == text


@given(_graphs())
@example(build(0, []))
@example(build(5, []))
def test_serialize_graph_is_the_indented_dump(graph):
    text = serialize_graph(graph)
    assert text == json.dumps(graph_to_dict(graph), indent=2)
    assert parse_graph(text) == graph


_WITNESS_EXAMPLES = {
    NonIdentityLoop: Diagram(build(2, [(0, 1), (1, 1)]), FREE, [word(3), word(1)]),
    MultiEdgeMismatch: Diagram(build(2, [(0, 1), (0, 1)]), ADDITIVE, [number(1), number(2)]),
    PathMismatch: Diagram(_SQUARE, matrix_monoid(2), [matrix_unit(2, 0, 1), _I2, _I2, zero_matrix(2)]),
    type(None): Diagram(_SQUARE, ADDITIVE, [number(5), number(7), number(4), number(8)]),
}


@given(_diagrams(), st.booleans())
@example(_WITNESS_EXAMPLES[NonIdentityLoop], False)
@example(_WITNESS_EXAMPLES[NonIdentityLoop], True)
@example(_WITNESS_EXAMPLES[MultiEdgeMismatch], False)
@example(_WITNESS_EXAMPLES[MultiEdgeMismatch], True)
@example(_WITNESS_EXAMPLES[PathMismatch], False)
@example(_WITNESS_EXAMPLES[PathMismatch], True)
@example(_WITNESS_EXAMPLES[type(None)], False)
@example(_WITNESS_EXAMPLES[type(None)], True)
@example(Diagram(build(0, []), FREE, []), True)
def test_report_json_is_the_indented_dump(d, trace):
    report = verify(d, trace=trace)
    assert report.to_json() == json.dumps(report_to_dict(report), indent=2)


def test_witness_examples_cover_every_kind():
    for kind, d in _WITNESS_EXAMPLES.items():
        assert type(verify(d).witness) is kind


# ---------------------------------------------------------------------------
# Reference: the validators the one-pass parser replaced, kept as they were.

_REF_RATIONAL_RE = re.compile(r"-?[0-9]+/[1-9][0-9]*")
_REF_FAMILIES = ("free", "additive", "matrix")


def _ref_fail(location, message):
    raise DiagramFormatError(f"{location}: {message}")


def _ref_expect_int(value, location, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        _ref_fail(location, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _ref_fail(location, f"expected an integer >= {minimum}, got {value}")
    return value


def _ref_expect_keys(obj, required, location):
    if not isinstance(obj, dict):
        _ref_fail(location, "expected an object")
    for key in required:
        if key not in obj:
            _ref_fail(location, f"missing key '{key}'")
    for key in obj:
        if key not in required:
            _ref_fail(location, f"unknown key '{key}'")


def _ref_parse_monoid(obj):
    if not isinstance(obj, dict) or "family" not in obj:
        _ref_fail("monoid", "expected an object with a 'family' key")
    family = obj["family"]
    if family not in _REF_FAMILIES:
        _ref_fail("monoid.family", f"unknown monoid family {family!r}")
    if family == "matrix":
        _ref_expect_keys(obj, ("family", "k"), "monoid")
        k = _ref_expect_int(obj["k"], "monoid.k", minimum=1)
        if k > 256:
            _ref_fail("monoid.k", f"expected an integer <= 256, got {k}")
        return matrix_monoid(k)
    _ref_expect_keys(obj, ("family",), "monoid")
    return FREE if family == "free" else ADDITIVE


def _ref_parse_label(raw, monoid, location):
    family = monoid.family
    if family == "free":
        if not isinstance(raw, list):
            _ref_fail(location, "free label must be a list of generator ids")
        letters = tuple(_ref_expect_int(x, location, minimum=0) for x in raw)
        return FreeWord(letters)
    if family == "additive":
        if isinstance(raw, int) and not isinstance(raw, bool):
            return AdditiveNumber(raw)
        if isinstance(raw, str) and _REF_RATIONAL_RE.fullmatch(raw):
            return AdditiveNumber(Fraction(raw))
        _ref_fail(location, "additive label must be an integer or a 'p/q' string")
    k = monoid.k
    if not isinstance(raw, list) or len(raw) != k:
        _ref_fail(location, f"matrix label must be a {k}x{k} row-major grid")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != k:
            _ref_fail(location, f"matrix label must be a {k}x{k} row-major grid")
        rows.append(tuple(_ref_expect_int(x, f"{location}[{i}]") for x in row))
    return IntMatrix(tuple(rows))


def _ref_load_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramFormatError(f"{what}: invalid JSON: {exc}") from exc


def _ref_parse_edges(doc, vertices, monoid=None):
    keys = ("origin", "tail") if monoid is None else ("origin", "tail", "label")
    if not isinstance(doc["edges"], list):
        _ref_fail("edges", "expected a list")
    pairs = []
    labels = []
    for i, entry in enumerate(doc["edges"]):
        _ref_expect_keys(entry, keys, f"edges[{i}]")
        origin = _ref_expect_int(entry["origin"], f"edges[{i}].origin", minimum=0)
        tail = _ref_expect_int(entry["tail"], f"edges[{i}].tail", minimum=0)
        if origin >= vertices:
            _ref_fail(f"edges[{i}].origin", f"endpoint {origin} out of range for {vertices} vertices")
        if tail >= vertices:
            _ref_fail(f"edges[{i}].tail", f"endpoint {tail} out of range for {vertices} vertices")
        pairs.append((origin, tail))
        if monoid is not None:
            labels.append(_ref_parse_label(entry["label"], monoid, f"edges[{i}].label"))
    return pairs, labels


def _ref_parse_diagram(text):
    doc = _ref_load_json(text, "diagram")
    _ref_expect_keys(doc, ("vertices", "monoid", "edges"), "top level")
    vertices = _ref_expect_int(doc["vertices"], "vertices", minimum=0)
    monoid = _ref_parse_monoid(doc["monoid"])
    pairs, labels = _ref_parse_edges(doc, vertices, monoid)
    return Diagram(OrientedGraph(vertices, pairs), monoid, labels)


def _ref_parse_graph(text):
    doc = _ref_load_json(text, "graph")
    _ref_expect_keys(doc, ("vertices", "edges"), "top level")
    vertices = _ref_expect_int(doc["vertices"], "vertices", minimum=0)
    pairs, _ = _ref_parse_edges(doc, vertices)
    return OrientedGraph(vertices, pairs)


# ---------------------------------------------------------------------------
# Parser equivalence on mutated documents

# Replacement values: a bool, a float, strings, negatives, endpoints past every
# drawn vertex count, nested lists and other JSON kinds.  They stay small, so a
# mutated ``vertices`` or ``k`` never asks for a huge graph or matrix.
_REPLACEMENTS = (True, False, 1.5, "x", "1/2", "-3/4", -1, -7, 0, 1, 2, 7, 9, None, [], [0], [[1]], [-1], {}, {"a": 1})


def _places(node, path=()):
    """The path of every value in a JSON document, the root's included."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _places(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _places(value, path + (index,))


def _mutate(doc, draw):
    place = draw(st.sampled_from(list(_places(doc))))
    action = draw(st.sampled_from(("replace", "drop", "add")))
    # Copies, so that no two places in a document share a list or an object.
    value = copy.deepcopy(draw(st.sampled_from(_REPLACEMENTS)))
    if not place:
        return value if action == "replace" else doc
    parent = doc
    for step in place[:-1]:
        parent = parent[step]
    last = place[-1]
    if action == "replace":
        parent[last] = value
    elif action == "drop":
        del parent[last]
    elif isinstance(parent, dict):
        parent[draw(st.sampled_from(("extra", "label", "k", "origin")))] = value
    else:
        parent.append(copy.deepcopy(parent[last]) if draw(st.booleans()) else value)
    return doc


@st.composite
def _mutated_documents(draw, of_graph):
    doc = graph_to_dict(draw(_graphs())) if of_graph else diagram_to_dict(draw(_diagrams()))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        doc = _mutate(doc, draw)
    return json.dumps(doc)


def _outcome(parse, text):
    try:
        return "parsed", parse(text)
    except DiagramFormatError as exc:
        return "error", str(exc)


def _matrix_doc(label):
    edge = {"origin": 0, "tail": 0, "label": label}
    return json.dumps({"vertices": 1, "monoid": {"family": "matrix", "k": 2}, "edges": [edge]})


def _free_doc(*labels):
    edges = [{"origin": 0, "tail": 0, "label": label} for label in labels]
    return json.dumps({"vertices": 1, "monoid": {"family": "free"}, "edges": edges})


@given(_mutated_documents(of_graph=False))
@example(_matrix_doc([[1, 0], [0, 1, 2]]))
@example(_matrix_doc([[1, 0], [0]]))
@example(_matrix_doc([[1, True], [0, 1]]))
@example(_matrix_doc([[1, [0]], [0, 1]]))
@example(_matrix_doc([[1, "x"], [0, 1, 2]]))
@example(_matrix_doc([[1, 0], [0, 1], [0, 0]]))
@example(json.dumps({"vertices": 0, "monoid": {"family": "matrix", "k": 257}, "edges": []}))
@example(_free_doc([0, 1], [2, -1]))
@example(_free_doc([0, [1]]))
@example(_free_doc([0, False]))
@example(json.dumps({"vertices": 2, "monoid": {"family": "additive"}, "edges": [{"origin": 2, "tail": "x", "label": 1}]}))
@example(json.dumps({"vertices": 2, "monoid": {"family": "additive"}, "edges": [{"origin": 0, "tail": 1, "label": "-0/5"}]}))
@example(json.dumps({"vertices": 2, "monoid": {"family": "additive"}, "edges": [{"origin": 0, "tail": 1, "label": "6/-4"}]}))
def test_parse_diagram_matches_the_reference(text):
    assert _outcome(parse_diagram, text) == _outcome(_ref_parse_diagram, text)


def test_non_utf8_bytes_are_not_reported_as_an_overlong_integer():
    # ``UnicodeDecodeError`` is a ``ValueError``, as is the int-string limit's
    # error, which the parser reports as an over-long integer.
    for parse in (parse_diagram, parse_graph):
        with pytest.raises(ValueError) as excinfo:
            parse(b'{"vertices": 1, "edges": [], "x": "\xff"}')
        assert "digits" not in str(excinfo.value)


@given(_mutated_documents(of_graph=True))
@example(json.dumps({"vertices": 2, "edges": [{"origin": 1, "tail": -1}]}))
@example(json.dumps({"vertices": 2, "edges": [{"origin": 2, "tail": 1, "label": []}]}))
def test_parse_graph_matches_the_reference(text):
    assert _outcome(parse_graph, text) == _outcome(_ref_parse_graph, text)

