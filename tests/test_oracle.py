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
    label_of_sequence,
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

from . import reference
from .conftest import boxed_diagram, kirchhoff_square, random_diagram, rhomboid_square_graph
from .reference import enumerate_walks


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


@pytest.mark.parametrize(
    "length_bound, budget, message",
    [
        (2.5, 10**6, "length bound must be an integer, got 2.5"),
        (True, 10**6, "length bound must be an integer, got True"),
        (None, 10**6, "length bound must be an integer, got None"),
        (-1, 10**6, "length bound must be non-negative, got -1"),
        (4, True, "walk budget must be an integer, got True"),
        (4, 100.0, "walk budget must be an integer, got 100.0"),
        (4, -1, "walk budget must be non-negative, got -1"),
    ],
)
def test_oracle_refuses_a_bound_or_budget_that_is_no_count(length_bound, budget, message):
    # 2.5 enumerated walks of length 3, True acted as 1, and None raised
    # TypeError; a budget of True ran out as "walk budget of True".
    with pytest.raises(ValueError) as info:
        oracle_verify(kirchhoff_square(), length_bound, budget=budget)
    assert str(info.value) == message
    # Zero is a count: no walk at all, and a budget the first walk exceeds.
    assert oracle_verify(kirchhoff_square(), 0)
    with pytest.raises(BudgetExceededError, match="walk budget of 0 exceeded"):
        oracle_verify(kirchhoff_square(), 4, budget=0)


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


def test_validate_path_mismatch_refuses_non_integer_endpoints():
    d = rhomboid_gap_labeling(rhomboid_square_graph(), Rhomboid(0, 1, 2, 3))
    for origin, tail in ((False, 3), (0.0, 3), (0, 3.0), (0.0, 3.0)):
        witness = PathMismatch(Path((0, 1), origin, tail), Path((2, 3), origin, tail))
        assert not validate_witness(d, witness), (origin, tail)
        assert not reference.validate_witness(d, witness), (origin, tail)


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


def _reference_verdict(d, length_bound):
    """Whether every walk group has equal labels, and the walks themselves."""
    walks = enumerate_walks(d.graph, length_bound)
    eq = d.monoid.eq
    for group in walks.groups.values():
        labels = [label_of_sequence(d, walk) for walk in group]
        if not all(eq(label, labels[0]) for label in labels[1:]):
            return False, walks
    return True, walks


def _oracle_inputs(rng, count):
    for _ in range(count):
        d = random_diagram(rng)
        yield d
        yield boxed_diagram(d)[0]
    gap = rhomboid_gap_labeling(build(4, [(0, 1), (1, 3), (0, 2), (2, 3)]), Rhomboid(0, 1, 2, 3))
    for d in (kirchhoff_square(), gap):
        yield d
        yield boxed_diagram(d)[0]


def test_oracle_matches_the_walk_reference():
    diagrams = list(_oracle_inputs(random.Random(17), 150))
    families = {type(d.monoid).__name__ for d in diagrams}
    assert families == {"FreeMonoid", "AdditiveMonoid", "MatrixMonoid", "CountingMonoid"}
    verdicts = {True: 0, False: 0}
    for d in diagrams:
        n = d.graph.vertex_count
        for bound in (0, 1, n):
            expected, walks = _reference_verdict(d, bound)
            assert oracle_verify(d, bound) == expected, (d.graph.edges, bound)
            verdicts[expected] += 1
            if expected:
                # The oracle counts exactly the reference's walks.
                assert oracle_verify(d, bound, budget=walks.walk_count)
                with pytest.raises(BudgetExceededError):
                    oracle_verify(d, bound, budget=walks.walk_count - 1)
    assert verdicts[True] > 300 and verdicts[False] > 100


def test_oracle_operation_counts_match_the_walk_reference():
    # On a commuting input: one identity per start, one product per non-empty
    # walk and one check per walk after the first of its group.
    rng = random.Random(18)
    for plain in _oracle_inputs(rng, 100):
        n = plain.graph.vertex_count
        expected, walks = _reference_verdict(plain, n)
        if not expected:
            continue
        d, counting = boxed_diagram(plain)
        assert oracle_verify(d, n)
        assert counting.identity_calls == n
        assert counting.op_calls == walks.walk_count - n
        assert counting.eq_calls == walks.walk_count - len(walks.groups)


_BAD_IDS = (True, False, -1, None)


def _random_edge_id(rng, m):
    if m and rng.random() < 0.8:
        return rng.randrange(m)
    return rng.choice(_BAD_IDS + (m, m + 3))


def _random_walk(rng, graph, start, length):
    edges = []
    at = start
    for _ in range(length):
        out = graph.adjacency[at]
        if not out:
            break
        e = rng.choice(out)
        edges.append(e)
        at = graph.tail(e)
    return edges, at


def _random_path(rng, graph, start):
    n = graph.vertex_count
    edges, end = _random_walk(rng, graph, start, rng.randint(0, 3))
    roll = rng.random()
    if roll < 0.1 and edges:
        edges[rng.randrange(len(edges))] = _random_edge_id(rng, graph.edge_count)
    elif roll < 0.2:
        edges.reverse()
    elif roll < 0.3:
        end = rng.choice((rng.randrange(n), -1, n, None, True))
    elif roll < 0.35:
        start = rng.choice((-1, n, None))
    return Path(tuple(edges), start, end)


def _random_witness(rng, d):
    graph = d.graph
    n, m = graph.vertex_count, graph.edge_count
    kind = rng.randrange(4)
    if kind == 0:
        loops = graph.loops
        if loops and rng.random() < 0.6:
            return NonIdentityLoop(rng.choice(loops))
        return NonIdentityLoop(_random_edge_id(rng, m))
    if kind == 1:
        if graph.duplicates and rng.random() < 0.5:
            e, kept = rng.choice(graph.duplicates)
            return MultiEdgeMismatch(*rng.choice(((e, kept), (kept, e), (e, e))))
        return MultiEdgeMismatch(_random_edge_id(rng, m), _random_edge_id(rng, m))
    if kind == 2:
        start = rng.randrange(n)
        return PathMismatch(_random_path(rng, graph, start), _random_path(rng, graph, start))
    return rng.choice(("bogus", None, Path((), 0, 0), (0, 0), 3))


def _outcome(check, d, witness):
    try:
        return check(d, witness)
    except Exception as exc:
        return type(exc), str(exc)


def test_validate_witness_matches_the_reference():
    rng = random.Random(19)
    outcomes = set()
    for _ in range(600):
        plain = random_diagram(rng)
        witnesses = [_random_witness(rng, plain) for _ in range(8)]
        report = verify(plain)
        if report.witness is not None:
            witnesses.append(report.witness)
        for witness in witnesses:
            expected = _outcome(reference.validate_witness, plain, witness)
            assert _outcome(validate_witness, plain, witness) == expected, (plain.graph.edges, witness)
            ref_boxed, ref_counting = boxed_diagram(plain)
            boxed, counting = boxed_diagram(plain)
            assert _outcome(reference.validate_witness, ref_boxed, witness) == expected
            assert _outcome(validate_witness, boxed, witness) == expected
            calls = (counting.identity_calls, counting.op_calls, counting.eq_calls)
            assert calls == (ref_counting.identity_calls, ref_counting.op_calls, ref_counting.eq_calls)
            assert counting.eq_calls <= 1 and (expected is not True or counting.eq_calls == 1)
            outcomes.add(expected if isinstance(expected, bool) else expected[0])
    assert outcomes == {True, False, ValueError, TypeError}


@pytest.mark.parametrize(
    ("length_bound", "message"),
    [
        (2.5, "length bound must be an integer, got 2.5"),
        (True, "length bound must be an integer, got True"),
        (None, "length bound must be an integer, got None"),
    ],
)
def test_walk_reference_refuses_a_bound_that_is_no_count(length_bound, message):
    # The reference takes the bound as ``oracle_verify`` does: 2.5 is no
    # bound of 3, nor ``True`` one of 1.
    with pytest.raises(ValueError, match=message):
        enumerate_walks(build(2, [(0, 1), (1, 0)]), length_bound)
