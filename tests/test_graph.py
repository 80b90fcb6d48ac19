"""Graph structure, predicates, and the loop-count formula."""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from diagcheck import (
    FREE,
    Diagram,
    NonIdentityLoop,
    OrientedGraph,
    Path,
    TriploidParams,
    build,
    has_multiple_edges,
    has_triangle,
    is_2_path_bounded,
    is_quasi_acyclic,
    is_rhomboid,
    is_valid_path,
    label_of_sequence,
    loop_count,
    nz_edge_labeling,
    strip_loops,
    triploid,
    validate_witness,
    word,
)

from .conftest import rhomboid_square_graph, triangle_graph
from .reference import predicates, reduction

_DERIVED = ("adjacency", "tails", "loops", "duplicates", "reduced")
_PREDICATES = (loop_count, has_multiple_edges, has_triangle, is_2_path_bounded, is_quasi_acyclic)


def test_build_read_back_is_identity():
    edges = [(0, 1), (1, 1), (1, 0), (0, 1)]
    graph = build(2, edges)
    assert graph.edges == tuple(edges)
    assert graph.adjacency == ((0, 3), (1, 2))


def test_build_single_edge_and_loop():
    assert build(2, [(0, 1)]).edge_count == 1
    loop = build(1, [(0, 0)])
    assert loop.is_loop(0)


def test_build_rejects_out_of_range_endpoints():
    # Booleans and floats are not vertex ids, even where they equal one, and
    # an entry that is not a pair is named by its index too.
    for edge in [(0, 2), (-1, 0), (True, 0), (0, 1.0), (0.0, 1), 5, None, (0,), (0, 1, 1)]:
        with pytest.raises(ValueError, match="edge 0"):
            build(2, [edge])


def test_fig4_triploid_shape():
    graph = triploid(TriploidParams(3, 2, 4, 2, 16))
    assert graph.vertex_count == 11
    assert graph.edge_count == 16
    assert loop_count(graph) == 2


def test_quasi_acyclic():
    assert not is_quasi_acyclic(build(2, [(0, 1), (1, 0)]))
    assert is_quasi_acyclic(build(1, [(0, 0)]))
    assert is_quasi_acyclic(triploid(TriploidParams(3, 2, 4, 2, 16)))
    assert not is_quasi_acyclic(build(3, [(0, 1), (1, 2), (2, 0)]))


def test_two_path_bounded():
    assert not is_2_path_bounded(build(4, [(0, 1), (1, 2), (2, 3)]))
    assert is_2_path_bounded(triploid(TriploidParams(3, 2, 4, 2, 16)))
    assert is_2_path_bounded(build(4, [(0, 1), (1, 3), (0, 2), (2, 3)]))
    # Loops never extend a loop-free walk.
    assert is_2_path_bounded(build(3, [(0, 0), (0, 1), (1, 2)]))


def test_has_triangle():
    assert has_triangle(triangle_graph())
    assert not has_triangle(triploid(TriploidParams(3, 2, 4, 2, 16)))
    assert not has_triangle(build(1, []))


def test_has_multiple_edges():
    assert has_multiple_edges(build(2, [(0, 1), (0, 1)]))
    assert not has_multiple_edges(build(1, [(0, 0), (0, 0)]))
    assert not has_multiple_edges(triploid(TriploidParams(3, 2, 4, 2, 16)))


def test_loop_count_against_direct_count():
    for params in (TriploidParams(3, 2, 4, 2, 16), TriploidParams(1, 2, 1, 0, 10)):
        graph = triploid(params)
        direct = sum(1 for origin, tail in graph.edges if origin == tail)
        assert loop_count(graph) == direct == params.loops
    assert loop_count(triploid(TriploidParams(1, 2, 1, 0, 10))) == 6
    assert loop_count(build(2, [(0, 1)])) == 0


def test_strip_loops_keeps_bipartite_prefix_ids():
    graph = triploid(TriploidParams(3, 2, 4, 2, 16))
    stripped = strip_loops(graph)
    assert stripped.edge_count == 14
    assert stripped.edges == graph.edges[:14]
    assert loop_count(stripped) == 0


def test_path_validity():
    graph = build(3, [(0, 1), (1, 2)])
    assert is_valid_path(graph, Path((0, 1), 0, 2))
    assert is_valid_path(graph, Path((), 1, 1))
    assert not is_valid_path(graph, Path((), 1, 2))
    assert not is_valid_path(graph, Path((1, 0), 1, 1))
    assert not is_valid_path(graph, Path((0,), 0, 2))
    assert not is_valid_path(graph, Path((7,), 0, 1))


def test_path_ids_must_be_exact_integers():
    square = rhomboid_square_graph()
    assert is_valid_path(square, Path((1,), 1, 3))
    for path in (
        Path((1,), True, 3),
        Path((True,), 1, 3),
        Path((0.0,), 0, 1),
        Path((0,), 0.0, 1),
        Path((0,), 0, 1.0),
        Path((), False, False),
    ):
        assert not is_valid_path(square, path), path


def _reference_is_valid_path(graph, path) -> bool:
    # The four-check form ``is_valid_path`` replaced, kept as the reference.
    for e in path.edges:
        if not 0 <= e < graph.edge_count:
            return False
    if not path.edges:
        return path.origin == path.tail and 0 <= path.origin < graph.vertex_count
    if graph.origin(path.edges[0]) != path.origin:
        return False
    if graph.tail(path.edges[-1]) != path.tail:
        return False
    for prev, nxt in zip(path.edges, path.edges[1:]):
        if graph.tail(prev) != graph.origin(nxt):
            return False
    return True


def _path_cases(graph, rng):
    n, m = graph.vertex_count, graph.edge_count
    vertex = start = rng.randrange(n)
    walk = []
    for _ in range(rng.randint(0, 5)):
        out = graph.adjacency[vertex]
        if not out:
            break
        e = rng.choice(out)
        walk.append(e)
        vertex = graph.tail(e)
    yield Path(walk, start, vertex)
    if len(walk) >= 2:
        i, j = rng.sample(range(len(walk)), 2)
        swapped = list(walk)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield Path(swapped, start, vertex)
    if walk:
        for bad in (m, m + rng.randint(1, 3), -1, -rng.randint(2, 4)):
            broken = list(walk)
            broken[rng.randrange(len(walk))] = bad
            yield Path(broken, start, vertex)
    yield Path(walk, (start + 1) % n, vertex)
    yield Path(walk, start, (vertex + 1) % n)
    yield Path(walk, start, n)
    yield Path((), start, start)
    yield Path((), start, (start + 1) % n)
    yield Path((), n, n)
    yield Path((), -1, -1)


def test_is_valid_path_matches_reference_on_walks_and_mutations():
    rng = random.Random(4937)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 6)
        graph = build(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 10))])
        for path in _path_cases(graph, rng):
            verdict = is_valid_path(graph, path)
            assert verdict == _reference_is_valid_path(graph, path), (graph.edges, path)
            verdicts[verdict] += 1
    assert verdicts[True] > 500 and verdicts[False] > 500


def _has_multi_vertex_cycle(graph) -> bool:
    # Independent white/gray/black DFS over non-loop edges.
    n = graph.vertex_count
    color = [0] * n
    adjacency = [[] for _ in range(n)]
    for origin, tail in graph.edges:
        if origin != tail:
            adjacency[origin].append(tail)

    def visit(v) -> bool:
        color[v] = 1
        for u in adjacency[v]:
            if color[u] == 1:
                return True
            if color[u] == 0 and visit(u):
                return True
        color[v] = 2
        return False

    return any(color[v] == 0 and visit(v) for v in range(n))


def test_quasi_acyclic_matches_cycle_search_on_random_graphs():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(1, 7)
        m = rng.randint(0, 10)
        graph = build(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
        assert is_quasi_acyclic(graph) == (not _has_multi_vertex_cycle(graph))


def _all_components_single(graph) -> bool:
    # Brute force: no two distinct vertices reach each other.
    n = graph.vertex_count
    reach = [[u == v for u in range(n)] for v in range(n)]
    for origin, tail in graph.edges:
        reach[origin][tail] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return not any(reach[i][j] and reach[j][i] for i in range(n) for j in range(i + 1, n))


def test_quasi_acyclic_matches_mutual_reachability():
    rng = random.Random(7)
    assert is_quasi_acyclic(build(0, []))
    assert is_quasi_acyclic(build(2, [(0, 1), (0, 1), (1, 1), (0, 0)]))
    assert not is_quasi_acyclic(build(3, [(2, 2), (0, 1), (1, 0), (0, 1)]))
    for _ in range(600):
        n = rng.randint(0, 7)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 10))] if n else []
        if n >= 2 and rng.random() < 0.3:
            u, v = rng.sample(range(n), 2)
            pairs += [(u, v), (v, u)]
        if pairs and rng.random() < 0.3:
            pairs.append(rng.choice(pairs))
        rng.shuffle(pairs)
        graph = build(n, pairs)
        assert is_quasi_acyclic(graph) == _all_components_single(graph), pairs


@pytest.mark.parametrize("bad", [True, 1.5])
def test_edge_ids_are_checked_alike_everywhere(bad):
    square = rhomboid_square_graph()
    labeled = Diagram(square, FREE, [word(e) for e in range(square.edge_count)])
    with pytest.raises(ValueError):
        is_rhomboid(square, bad, 1, 2, 3)
    with pytest.raises(ValueError):
        label_of_sequence(labeled, (bad,))
    with pytest.raises(ValueError):
        validate_witness(labeled, NonIdentityLoop(bad))
    with pytest.raises(ValueError):
        nz_edge_labeling(square, bad)


def test_negative_vertex_count_is_refused():
    with pytest.raises(ValueError, match="vertex count must be a non-negative integer"):
        OrientedGraph(-1, [])


def test_graph_repr_gives_the_sizes():
    assert repr(rhomboid_square_graph()) == "OrientedGraph(vertices=4, edges=4)"


def test_reduction_fields_are_listed_in_origin_then_edge_id_order():
    # Vertex 1's edges come first in the input, yet vertex 0's come first in
    # every list; within a vertex the edge ids ascend.
    graph = build(3, [(1, 1), (1, 2), (1, 2), (0, 0), (0, 1), (0, 1), (0, 0), (0, 2)])
    assert graph.tails == (1, 2, 2, 0, 1, 1, 0, 2)
    assert graph.loops == (3, 6, 0)
    assert graph.duplicates == ((5, 4), (2, 1))
    assert graph.reduced == ((4, 7), (1,), ())


def _random_multigraph(rng):
    n = rng.randint(0, 7)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 14))] if n else []
    while pairs and len(pairs) < 14 and rng.random() < 0.3:
        pairs.append(rng.choice(pairs))  # a parallel edge or a second loop
    rng.shuffle(pairs)
    return build(n, pairs)


def test_reduction_and_predicates_match_their_definitions():
    # A fixed seed, so every run checks the same graphs.
    rng = random.Random(1212)
    seen = {name: set() for name in ("loops", "duplicates", *(p.__name__ for p in _PREDICATES))}
    for _ in range(1500):
        graph = _random_multigraph(rng)
        expected = reduction(graph)
        assert {name: getattr(graph, name) for name in expected} == expected, graph.edges
        truth = predicates(graph)
        for predicate in _PREDICATES:
            value = predicate(graph)
            assert value == truth[predicate.__name__], (predicate.__name__, graph.edges)
            seen[predicate.__name__].add(bool(value))
        seen["loops"].add(bool(graph.loops))
        seen["duplicates"].add(bool(graph.duplicates))
    assert all(values == {False, True} for values in seen.values()), seen


def test_derived_fields_leave_equality_and_hashing_alone():
    assert OrientedGraph.__match_args__ == ("vertex_count", "edges") and OrientedGraph.__slots__[2:] == _DERIVED
    graph = build(3, [(0, 0), (0, 1), (0, 1), (1, 2)])
    twin = build(3, [(0, 0), (0, 1), (0, 1), (1, 2)])
    assert graph == twin and hash(graph) == hash(twin) == hash((3, graph.edges))
    assert graph != build(3, [(0, 1), (0, 0), (0, 1), (1, 2)])


def test_derived_fields_survive_pickle_and_deepcopy():
    graph = build(3, [(1, 1), (1, 2), (1, 2), (0, 0), (0, 1), (0, 2)])
    for clone in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
        assert clone == graph
        for name in _DERIVED:
            assert getattr(clone, name) == getattr(graph, name), name
