"""Diagram construction, label products, and the JSON wire format."""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from diagcheck import (
    ADDITIVE,
    FREE,
    Diagram,
    DiagramFormatError,
    IntMatrix,
    MonoidMismatchError,
    TriploidParams,
    build,
    eq,
    label_of_sequence,
    matrix,
    matrix_monoid,
    matrix_unit,
    number,
    op,
    parse_diagram,
    parse_graph,
    serialize_diagram,
    serialize_graph,
    triploid,
    verify,
    word,
    zero_matrix,
)

from .conftest import boxed_diagram, kirchhoff_square, random_diagram


def test_label_of_sequence_examples():
    graph = build(3, [(0, 1), (1, 2)])
    d = Diagram(graph, matrix_monoid(3), [matrix_unit(3, 0, 1), matrix_unit(3, 1, 2)])
    assert eq(label_of_sequence(d, ()), matrix_monoid(3).identity())
    assert eq(label_of_sequence(d, (0, 1)), matrix_unit(3, 0, 2))

    loop = Diagram(build(1, [(0, 0)]), ADDITIVE, [number(1)])
    assert eq(label_of_sequence(loop, (0, 0, 0)), number(3))


def test_label_of_sequence_rejects_bad_ids():
    d = Diagram(build(2, [(0, 1)]), FREE, [word(1)])
    with pytest.raises(ValueError):
        label_of_sequence(d, (1,))


def test_label_of_sequence_is_a_homomorphism():
    rng = random.Random(5)
    for _ in range(200):
        d = random_diagram(rng)
        m = d.graph.edge_count
        if m == 0:
            continue
        left = tuple(rng.randrange(m) for _ in range(rng.randint(0, 4)))
        right = tuple(rng.randrange(m) for _ in range(rng.randint(0, 4)))
        assert eq(
            label_of_sequence(d, left + right),
            op(label_of_sequence(d, left), label_of_sequence(d, right)),
        )


def test_diagram_validates_label_count_and_instance():
    graph = build(2, [(0, 1)])
    with pytest.raises(ValueError):
        Diagram(graph, FREE, [])
    with pytest.raises(MonoidMismatchError):
        Diagram(graph, FREE, [number(1)])
    with pytest.raises(MonoidMismatchError):
        Diagram(graph, matrix_monoid(2), [zero_matrix(3)])


def test_parse_minimal_free_diagram():
    text = '{"vertices": 2, "monoid": {"family": "free"}, "edges": [{"origin": 0, "tail": 1, "label": [7]}]}'
    d = parse_diagram(text)
    assert d.graph.edges == ((0, 1),)
    assert d.labels == (word(7),)


def test_parse_matrix_and_rational_labels():
    text = (
        '{"vertices": 2, "monoid": {"family": "matrix", "k": 3},'
        ' "edges": [{"origin": 0, "tail": 1, "label": [[0,1,0],[0,0,0],[0,0,0]]}]}'
    )
    d = parse_diagram(text)
    assert d.labels == (matrix_unit(3, 0, 1),)

    text = '{"vertices": 1, "monoid": {"family": "additive"}, "edges": [{"origin": 0, "tail": 0, "label": "-3/4"}]}'
    d = parse_diagram(text)
    assert str(d.labels[0].value) == "-3/4"
    assert eq(op(d.labels[0], d.labels[0]), number(Fraction(-3, 2)))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("{", "invalid JSON"),
        ('{"vertices": 1, "edges": []}', "missing key 'monoid'"),
        ('{"vertices": 1, "monoid": {"family": "tropical"}, "edges": []}', "unknown monoid family"),
        (
            '{"vertices": 1, "monoid": {"family": "free"}, "edges": [{"origin": 0, "tail": 0}]}',
            "edges[0]: missing key 'label'",
        ),
        (
            '{"vertices": 1, "monoid": {"family": "free"}, "edges": [{"origin": 0, "tail": 3, "label": []}]}',
            "edges[0].tail",
        ),
        (
            '{"vertices": 1, "monoid": {"family": "matrix", "k": 2}, "edges": [{"origin": 0, "tail": 0, "label": [[1, 0]]}]}',
            "edges[0].label",
        ),
        (
            '{"vertices": 1, "monoid": {"family": "additive"}, "edges": [{"origin": 0, "tail": 0, "label": "1.5"}]}',
            "edges[0].label",
        ),
        (
            '{"vertices": 1, "monoid": {"family": "additive"}, "edges": [{"origin": 0, "tail": 0, "label": "3/4\\n"}]}',
            "edges[0].label",
        ),
        (
            '{"vertices": 1, "monoid": {"family": "additive"}, "edges": [{"origin": 0, "tail": 0, "label": "\\u0663/4"}]}',
            "edges[0].label",
        ),
        ('{"vertices": 1, "monoid": {"family": "free", "k": 2}, "edges": []}', "unknown key 'k'"),
        ('{"vertices": 1, "monoid": "free", "edges": []}', "monoid: expected an object with a 'family' key"),
    ],
)
def test_parse_errors_carry_location(text, fragment):
    with pytest.raises(DiagramFormatError) as excinfo:
        parse_diagram(text)
    assert fragment in str(excinfo.value)


def test_round_trip_fixtures():
    graph = triploid(TriploidParams(3, 2, 4, 2, 16))
    d = Diagram(graph, FREE, [word(e) for e in range(graph.edge_count)])
    assert parse_diagram(serialize_diagram(d)) == d

    one_edge = Diagram(build(2, [(0, 1)]), ADDITIVE, [number(2)])
    assert parse_diagram(serialize_diagram(one_edge)) == one_edge


def test_round_trip_1000_random_diagrams():
    rng = random.Random(2024)
    for _ in range(1000):
        d = random_diagram(rng)
        assert parse_diagram(serialize_diagram(d)) == d


def test_graph_round_trip():
    graph = triploid(TriploidParams(1, 2, 1, 6, 12))
    assert parse_graph(serialize_graph(graph)) == graph
    with pytest.raises(DiagramFormatError):
        parse_graph('{"vertices": 1, "edges": [{"origin": 0, "tail": 1}]}')


@pytest.mark.parametrize(
    "text, fragment",
    [
        ('{"vertices": 1, "edges": {}}', "edges: expected a list"),
        ('{"vertices": 1, "edges": [{"origin": 0}]}', "edges[0]: missing key 'tail'"),
        ('{"vertices": 1, "edges": [{"origin": 0, "tail": 0, "label": []}]}', "edges[0]: unknown key 'label'"),
        ('{"vertices": 1, "edges": [{"origin": "0", "tail": 0}]}', "edges[0].origin: expected an integer"),
        ('{"vertices": 2, "edges": [{"origin": 0, "tail": 1}, {"origin": 0, "tail": 2}]}', "edges[1].tail: endpoint 2"),
        ("[]", "top level: expected an object"),
        ('{"vertices": -1, "edges": []}', "vertices: expected an integer >= 0, got -1"),
        ('{"vertices": 2, "edges": [{"origin": 2, "tail": 0}]}', "edges[0].origin: endpoint 2 out of range"),
    ],
)
def test_parse_graph_errors_carry_location(text, fragment):
    with pytest.raises(DiagramFormatError) as excinfo:
        parse_graph(text)
    assert fragment in str(excinfo.value)


def test_parse_reports_the_first_fault_in_file_order():
    text = (
        '{"vertices": 2, "monoid": {"family": "free"}, "edges": ['
        '{"origin": 0, "tail": 1, "label": "x"}, {"origin": 0, "tail": 5, "label": []}]}'
    )
    with pytest.raises(DiagramFormatError) as excinfo:
        parse_diagram(text)
    assert str(excinfo.value).startswith("edges[0].label:")


# ---------------------------------------------------------------------------
# Records: the three value classes, graphs and diagrams.

_GRAPH = build(2, [(0, 1)])
_RECORDS = {
    "FreeWord": (word(1, 2), "letters"),
    "AdditiveNumber": (number(Fraction(-3, 4)), "num"),
    "IntMatrix": (matrix(((1, 2), (3, 4))), "entries"),
    "OrientedGraph": (_GRAPH, "edges"),
    "Diagram": (Diagram(_GRAPH, FREE, [word(1)]), "labels"),
}


@pytest.mark.parametrize("name", list(_RECORDS))
def test_records_refuse_every_attribute_change(name):
    record, field_name = _RECORDS[name]
    assert type(record).__name__ == name
    with pytest.raises(FrozenInstanceError):
        setattr(record, field_name, 1)
    with pytest.raises(FrozenInstanceError):
        record.extra = 1
    with pytest.raises(FrozenInstanceError):
        delattr(record, field_name)
    with pytest.raises(FrozenInstanceError):
        del record.extra


def test_matrix_diagram_multiplies_after_pickle_and_deepcopy():
    rng = random.Random(8)
    dense = IntMatrix(tuple(tuple(rng.randint(-9, 9) or 1 for _ in range(8)) for _ in range(8)))
    labels = [matrix_unit(8, 0, 3), dense, matrix_unit(8, 3, 5), zero_matrix(8), dense]
    d = Diagram(build(4, [(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)]), matrix_monoid(8), labels)
    expected = verify(d).to_json()
    for loaded in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert loaded == d
        mon = loaded.monoid
        assert mon.op(loaded.labels[0], loaded.labels[1]) == op(labels[0], dense)
        assert mon.op(loaded.labels[1], loaded.labels[1]) == op(dense, dense)
        assert label_of_sequence(loaded, (0, 1, 2)) == label_of_sequence(d, (0, 1, 2))
        assert verify(loaded).to_json() == expected


class _IntegerSums:
    """A duck-typed monoid whose labels are plain ints, unknown to the writers."""

    def identity(self):
        return 0

    def op(self, a, b):
        return a + b

    def eq(self, a, b):
        return a == b

    def owns(self, value):
        return type(value) is int

    def descriptor(self):
        return {"family": "integer-sums"}


def test_serialize_refuses_labels_of_an_unknown_family():
    d = Diagram(build(1, [(0, 0)]), _IntegerSums(), [0])
    with pytest.raises(TypeError, match="cannot serialize label of type int"):
        serialize_diagram(d)


def test_diagram_repr_with_and_without_a_descriptor():
    # The monoid's descriptor() when it has one, else its type name: a
    # duck-typed monoid need not define descriptor().
    graph = "OrientedGraph(vertices=4, edges=4)"
    assert repr(kirchhoff_square()) == f"Diagram({graph}, monoid={{'family': 'additive'}})"
    assert repr(boxed_diagram(kirchhoff_square())[0]) == f"Diagram({graph}, monoid=CountingMonoid)"
    d = Diagram(build(1, [(0, 0)]), _IntegerSums(), [0])
    assert repr(d) == "Diagram(OrientedGraph(vertices=1, edges=1), monoid={'family': 'integer-sums'})"
