"""Fixture labelings: the commutative look-alikes and the single-violation
rejections."""

from __future__ import annotations

import itertools
import random

import pytest

from diagcheck import (
    LabelingPreconditionError,
    NonIdentityLoop,
    PathMismatch,
    Rhomboid,
    TriploidParams,
    build,
    eq,
    explicit_rhomboid_family,
    identity_matrix,
    label_of_sequence,
    loop_indicator_labeling,
    loop_kernel_labeling,
    matrix_unit,
    nz_edge_labeling,
    nz_pair_labeling,
    op,
    oracle_verify,
    rhomboid_gap_labeling,
    strip_loops,
    triploid,
    validate_witness,
    verify,
    zero_matrix,
)

from .conftest import rhomboid_square_graph, triangle_graph


def test_nz_edge_on_rhomboid_square():
    graph = rhomboid_square_graph()
    for edge in range(graph.edge_count):
        d = nz_edge_labeling(graph, edge)
        assert d.labels[edge] == matrix_unit(2, 0, 1)
        assert all(d.labels[e] == zero_matrix(2) for e in range(4) if e != edge)
        assert verify(d).commutative
        assert oracle_verify(d, graph.vertex_count)


def test_nz_edge_precondition_names_the_predicate():
    with pytest.raises(LabelingPreconditionError) as excinfo:
        nz_edge_labeling(triangle_graph(), 0)
    assert "triangle-free" in str(excinfo.value)
    with pytest.raises(LabelingPreconditionError) as excinfo:
        nz_edge_labeling(build(1, [(0, 0)]), 0)
    assert "loop-free" in str(excinfo.value)
    with pytest.raises(LabelingPreconditionError) as excinfo:
        nz_edge_labeling(build(2, [(0, 1), (0, 1)]), 0)
    assert "multi-edge-free" in str(excinfo.value)


def test_nz_pair_consecutive_case():
    graph = rhomboid_square_graph()
    d = nz_pair_labeling(graph, 0, 1)
    # Both edges out of the apex get the low unit, both into the sink the high.
    assert d.labels[0] == d.labels[2] == matrix_unit(3, 0, 1)
    assert d.labels[1] == d.labels[3] == matrix_unit(3, 1, 2)
    assert eq(op(d.labels[0], d.labels[1]), matrix_unit(3, 0, 2))
    assert verify(d).commutative
    assert oracle_verify(d, graph.vertex_count)


def test_nz_pair_non_consecutive_case():
    graph = build(4, [(0, 1), (2, 3)])
    d = nz_pair_labeling(graph, 0, 1)
    assert d.labels[0] == matrix_unit(3, 0, 1)
    assert d.labels[1] == matrix_unit(3, 1, 2)
    assert eq(op(d.labels[0], d.labels[1]), matrix_unit(3, 0, 2))
    assert verify(d).commutative
    assert oracle_verify(d, graph.vertex_count)


def test_nz_pair_requires_distinct_edges():
    with pytest.raises(ValueError):
        nz_pair_labeling(rhomboid_square_graph(), 1, 1)


def test_nz_outputs_are_three_vanishing():
    graph = rhomboid_square_graph()
    for d in (nz_edge_labeling(graph, 0), nz_pair_labeling(graph, 0, 1)):
        zero = zero_matrix(d.labels[0].k)
        for a, b, c in itertools.product(d.labels, repeat=3):
            assert eq(op(op(a, b), c), zero)


def test_rhomboid_gap_rejection_on_every_explicit_square():
    params = TriploidParams(3, 2, 4, 2, 16)
    graph = strip_loops(triploid(params))
    family = explicit_rhomboid_family(params)
    witnesses = set()
    for square in family:
        d = rhomboid_gap_labeling(graph, square)
        report = verify(d)
        assert not report.commutative
        assert isinstance(report.witness, PathMismatch)
        assert validate_witness(d, report.witness)
        assert not oracle_verify(d, 2)
        witnesses.add((report.witness.path1.edges, report.witness.path2.edges))
    assert len(witnesses) == len(family)


def test_unit_pair_labels_are_exact_on_the_stripped_triploid():
    params = TriploidParams(3, 2, 4, 2, 16)
    graph = strip_loops(triploid(params))
    low, high, zero = matrix_unit(3, 0, 1), matrix_unit(3, 1, 2), zero_matrix(3)
    for square in explicit_rhomboid_family(params):
        expected = [low if e == square.a else high if e == square.b else zero for e in range(graph.edge_count)]
        assert list(rhomboid_gap_labeling(graph, square).labels) == expected
    kinds = set()
    for first, second in itertools.permutations(range(graph.edge_count), 2):
        if graph.tail(first) == graph.origin(second):
            # Every edge leaving o(first) gets E01, every edge entering
            # t(second) gets E12.
            expected = [
                low if graph.origin(e) == graph.origin(first)
                else high if graph.tail(e) == graph.tail(second)
                else zero
                for e in range(graph.edge_count)
            ]
            kinds.add("consecutive")
        else:
            expected = [low if e == first else high if e == second else zero for e in range(graph.edge_count)]
            kinds.add("non-consecutive")
        assert list(nz_pair_labeling(graph, first, second).labels) == expected
    assert kinds == {"consecutive", "non-consecutive"}


def test_rhomboid_gap_violates_exactly_the_square_relation():
    graph = rhomboid_square_graph()
    square = Rhomboid(0, 1, 2, 3)
    d = rhomboid_gap_labeling(graph, square)
    assert eq(label_of_sequence(d, (0, 1)), matrix_unit(3, 0, 2))
    assert eq(label_of_sequence(d, (2, 3)), zero_matrix(3))
    with pytest.raises(ValueError):
        rhomboid_gap_labeling(graph, Rhomboid(0, 1, 2, 1))


def test_loop_indicator_accepted_on_quasi_acyclic_graphs():
    graph = triploid(TriploidParams(1, 2, 1, 6, 12))
    d = loop_indicator_labeling(graph)
    assert verify(d).commutative
    assert all(
        d.labels[e] == (identity_matrix(1) if graph.is_loop(e) else zero_matrix(1))
        for e in range(graph.edge_count)
    )
    # Oracle cross-check at the exact bound on a graph whose walk space fits
    # the budget (two loops instead of eight).
    small = build(4, [(0, 0), (0, 0), (0, 1), (1, 3), (0, 2), (2, 3)])
    d = loop_indicator_labeling(small)
    assert verify(d).commutative
    assert oracle_verify(d, small.vertex_count)


def test_zero_kernel_accepted_by_verify_and_oracle():
    small = build(4, [(0, 0), (0, 0), (0, 1), (1, 3), (0, 2), (2, 3)])
    d = loop_kernel_labeling(small, [0, 0])
    assert verify(d).commutative
    assert oracle_verify(d, small.vertex_count)


def test_loop_indicator_rejects_two_cycle():
    with pytest.raises(LabelingPreconditionError):
        loop_indicator_labeling(build(2, [(0, 1), (1, 0)]))


def test_loop_kernel_cancelling_pair_still_rejected():
    graph = build(1, [(0, 0), (0, 0)])
    d = loop_kernel_labeling(graph, [1, -1])
    assert eq(op(d.labels[0], d.labels[1]), identity_matrix(2))
    report = verify(d)
    assert not report.commutative
    assert report.witness == NonIdentityLoop(0)
    assert validate_witness(d, report.witness)


def test_loop_kernel_zero_vector_commutes():
    graph = triploid(TriploidParams(3, 2, 4, 2, 16))
    d = loop_kernel_labeling(graph, [0, 0])
    assert verify(d).commutative


def test_loop_kernel_single_loop_witness_validates():
    graph = build(1, [(0, 0)])
    d = loop_kernel_labeling(graph, [3])
    report = verify(d)
    assert report.witness == NonIdentityLoop(0)
    assert validate_witness(d, report.witness)


def test_loop_kernel_length_mismatch():
    with pytest.raises(ValueError):
        loop_kernel_labeling(build(1, [(0, 0)]), [1, 2])
    with pytest.raises(ValueError):
        loop_kernel_labeling(build(2, [(0, 1)]), [])


def test_commutative_fixtures_with_random_nonzero_structure():
    rng = random.Random(21)
    params = TriploidParams(2, 3, 2, 1, 16)
    graph = strip_loops(triploid(params))
    for _ in range(20):
        edge = rng.randrange(graph.edge_count)
        assert verify(nz_edge_labeling(graph, edge)).commutative
        other = rng.randrange(graph.edge_count)
        if other != edge:
            assert verify(nz_pair_labeling(graph, edge, other)).commutative
