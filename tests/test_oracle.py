"""Walk enumeration, the brute-force verdict, and witness validation."""

from __future__ import annotations

import random

import pytest

from diagcheck import (
    ADDITIVE,
    BudgetExceededError,
    Diagram,
    MultiEdgeMismatch,
    NonIdentityLoop,
    Path,
    PathMismatch,
    Rhomboid,
    TriploidParams,
    build,
    enumerate_walks,
    matrix,
    matrix_monoid,
    number,
    oracle_verify,
    rhomboid_gap_labeling,
    triploid,
    validate_witness,
    verify,
    word,
)
from diagcheck import FREE

from .conftest import kirchhoff_square, random_diagram


def test_enumerate_single_edge():
    walks = enumerate_walks(build(2, [(0, 1)]), 1)
    assert walks.groups == {(0, 0): [()], (0, 1): [(0,)], (1, 1): [()]}
    assert walks.walk_count == 3


def test_enumerate_single_loop():
    walks = enumerate_walks(build(1, [(0, 0)]), 2)
    assert walks.groups == {(0, 0): [(), (0,), (0, 0)]}


def test_enumerate_small_triploid():
    # 4 empty walks, 4 single edges, and one length-2 side per middle vertex.
    walks = enumerate_walks(triploid(TriploidParams(1, 2, 1, 0, 4)), 2)
    non_empty = [w for group in walks.groups.values() for w in group if w]
    assert len(non_empty) == 6
    assert sorted(w for w in non_empty if len(w) == 2) == [(0, 2), (1, 3)]
    assert walks.walk_count == 10


def test_enumeration_has_no_duplicates():
    rng = random.Random(11)
    for _ in range(100):
        d = random_diagram(rng)
        walks = enumerate_walks(d.graph, d.graph.vertex_count, budget=10**5)
        for group in walks.groups.values():
            assert len(group) == len(set(group))


def test_budget_exceeded_is_an_error():
    dense = build(1, [(0, 0)] * 6)
    with pytest.raises(BudgetExceededError):
        enumerate_walks(dense, 6, budget=100)
    d = Diagram(dense, ADDITIVE, [number(0)] * 6)
    with pytest.raises(BudgetExceededError):
        oracle_verify(d, 6, budget=100)


def test_oracle_examples():
    loop2 = Diagram(build(1, [(0, 0)]), ADDITIVE, [number(2)])
    assert not oracle_verify(loop2, 1)
    loop0 = Diagram(build(1, [(0, 0)]), ADDITIVE, [number(0)])
    assert oracle_verify(loop0, 1)
    assert oracle_verify(kirchhoff_square(), 4)


def test_oracle_rejects_rhomboid_gap_at_length_two():
    graph = build(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    d = rhomboid_gap_labeling(graph, Rhomboid(0, 1, 2, 3))
    assert not oracle_verify(d, 2)


def test_oracle_monotone_in_length_bound():
    rng = random.Random(13)
    for _ in range(100):
        d = random_diagram(rng)
        verdicts = [oracle_verify(d, bound, budget=10**5) for bound in range(d.graph.vertex_count + 2)]
        for earlier, later in zip(verdicts, verdicts[1:]):
            assert earlier or not later


def test_oracle_exactness_cross_check_at_longer_bound():
    # The |V| bound is exact; pushing to |V| + 3 must never flip a verdict.
    rng = random.Random(14)
    for _ in range(300):
        d = random_diagram(rng)
        n = d.graph.vertex_count
        assert oracle_verify(d, n, budget=10**6) == oracle_verify(d, n + 3, budget=10**6)


def test_validate_nonidentity_loop():
    d = Diagram(build(1, [(0, 0)]), matrix_monoid(2), [matrix(((1, 1), (0, 1)))])
    assert validate_witness(d, NonIdentityLoop(0))
    identity_loop = Diagram(build(1, [(0, 0)]), ADDITIVE, [number(0)])
    assert not validate_witness(identity_loop, NonIdentityLoop(0))
    not_a_loop = Diagram(build(2, [(0, 1)]), FREE, [word(3)])
    assert not validate_witness(not_a_loop, NonIdentityLoop(0))


def test_validate_multi_edge_mismatch():
    d = Diagram(build(2, [(0, 1), (0, 1)]), FREE, [word(0), word(1)])
    assert validate_witness(d, MultiEdgeMismatch(edge=1, kept=0))
    assert not validate_witness(d, MultiEdgeMismatch(edge=1, kept=1))
    equal = Diagram(build(2, [(0, 1), (0, 1)]), FREE, [word(0), word(0)])
    assert not validate_witness(equal, MultiEdgeMismatch(edge=1, kept=0))


def test_validate_path_mismatch():
    graph = build(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    d = rhomboid_gap_labeling(graph, Rhomboid(0, 1, 2, 3))
    assert validate_witness(d, PathMismatch(Path((0, 1), 0, 3), Path((2, 3), 0, 3)))
    # Mismatched endpoints are structurally invalid, hence False.
    assert not validate_witness(d, PathMismatch(Path((0,), 0, 1), Path((2, 3), 0, 3)))
    # Non-composing edges make an invalid path.
    assert not validate_witness(d, PathMismatch(Path((1, 0), 0, 3), Path((2, 3), 0, 3)))


def test_validate_witness_malformed_raises():
    d = Diagram(build(2, [(0, 1)]), FREE, [word(0)])
    with pytest.raises(ValueError):
        validate_witness(d, NonIdentityLoop(9))
    with pytest.raises(ValueError):
        validate_witness(d, PathMismatch(Path((9,), 0, 1), Path((0,), 0, 1)))
    with pytest.raises(TypeError):
        validate_witness(d, "bogus")


def test_every_verifier_witness_validates():
    rng = random.Random(15)
    rejected = 0
    for _ in range(400):
        d = random_diagram(rng)
        report = verify(d)
        if report.commutative:
            assert report.witness is None
        else:
            assert report.witness is not None
            assert validate_witness(d, report.witness)
            rejected += 1
    assert rejected > 50


def test_negative_walk_length_is_refused():
    with pytest.raises(ValueError, match="length bound must be non-negative"):
        enumerate_walks(build(1, []), -1)


def test_validate_multi_edge_mismatch_needs_equal_endpoints():
    # Two edges with unequal labels are no parallel pair when an endpoint differs.
    other_tail = Diagram(build(3, [(0, 1), (0, 2)]), FREE, [word(0), word(1)])
    assert not validate_witness(other_tail, MultiEdgeMismatch(edge=1, kept=0))
    other_origin = Diagram(build(3, [(0, 2), (1, 2)]), FREE, [word(0), word(1)])
    assert not validate_witness(other_origin, MultiEdgeMismatch(edge=1, kept=0))
