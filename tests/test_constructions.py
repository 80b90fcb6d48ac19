"""Rhomboids, triploids, parameter selection, and rank bounds."""

from __future__ import annotations

import itertools
import random
import time
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from diagcheck import (
    BudgetExceededError,
    LOWER_BOUND_SCALE,
    Rhomboid,
    TriploidParams,
    are_disjoint,
    build,
    choose_triploid,
    explicit_rhomboid_family,
    greedy_disjoint_rhomboids,
    is_rhomboid,
    loop_count,
    rank_bounds,
    triploid,
    verify_nu_ge,
)
from diagcheck.constructions import _middle_row_size

from .conftest import fan_graph, rhomboid_square_graph


def test_is_rhomboid_on_the_plain_square():
    graph = rhomboid_square_graph()
    assert is_rhomboid(graph, 0, 1, 2, 3)
    assert is_rhomboid(graph, 2, 3, 0, 1)
    assert not is_rhomboid(graph, 0, 1, 0, 1)


def test_is_rhomboid_shared_side_edge_fails_distinctness():
    graph = rhomboid_square_graph()
    # a = c forces o(d) = t(a), so the corners collapse.
    assert not is_rhomboid(graph, 0, 1, 0, 3)


def test_is_rhomboid_three_vertex_square_fails():
    graph = build(3, [(0, 1), (1, 2), (0, 2), (2, 2)])
    assert not is_rhomboid(graph, 0, 1, 2, 3)


def test_is_rhomboid_rejects_bad_ids():
    with pytest.raises(ValueError):
        is_rhomboid(rhomboid_square_graph(), 0, 1, 2, 9)


def test_disjointness_conditions():
    r = Rhomboid(0, 1, 2, 3)
    assert not are_disjoint(r, r)
    assert not are_disjoint(r, Rhomboid(2, 3, 0, 1))
    # Sharing a single edge (not a consecutive pair) is fine.
    assert are_disjoint(r, Rhomboid(0, 5, 2, 6))
    assert are_disjoint(Rhomboid(0, 1, 2, 3), Rhomboid(4, 5, 6, 7))


def test_disjoint_pair_sharing_only_the_sink():
    graph = build(7, [(0, 1), (0, 2), (1, 6), (2, 6), (3, 4), (3, 5), (4, 6), (5, 6)])
    left = Rhomboid(0, 2, 1, 3)
    right = Rhomboid(4, 6, 5, 7)
    assert is_rhomboid(graph, *left) and is_rhomboid(graph, *right)
    assert are_disjoint(left, right)


def test_triploid_layout_is_deterministic():
    graph = triploid(TriploidParams(1, 2, 1, 0, 4))
    assert graph.edges == ((0, 1), (0, 2), (1, 3), (2, 3))

    fig4 = triploid(TriploidParams(3, 2, 4, 2, 16))
    assert fig4.vertex_count == 11
    assert fig4.edge_count == 16
    assert loop_count(fig4) == 2
    assert fig4.edges[14] == (0, 0) and fig4.edges[15] == (0, 0)

    tall = triploid(TriploidParams(1, 2, 1, 6, 12))
    assert tall.vertex_count == 10
    assert tall.edge_count == 12
    assert loop_count(tall) == 8


def test_triploid_params_validation():
    with pytest.raises(ValueError):
        TriploidParams(0, 2, 1, 0, 4)
    with pytest.raises(ValueError):
        TriploidParams(1, 2, 1, 0, 3)
    with pytest.raises(ValueError):
        TriploidParams(1, 2, -1, 0, 4)


def test_explicit_family_counts():
    fig4 = TriploidParams(3, 2, 4, 2, 16)
    family = explicit_rhomboid_family(fig4)
    assert len(family) == 12 == fig4.n1 * fig4.n3 * (fig4.n2 // 2)
    graph = triploid(fig4)
    for square in family:
        assert is_rhomboid(graph, *square)
    for first, second in itertools.combinations(family, 2):
        assert are_disjoint(first, second)

    assert explicit_rhomboid_family(TriploidParams(1, 2, 1, 0, 4)) == [Rhomboid(0, 2, 1, 3)]
    assert explicit_rhomboid_family(TriploidParams(2, 1, 2, 0, 4)) == []


def test_choose_triploid_examples():
    assert choose_triploid(10, 12) == TriploidParams(1, 2, 1, 6, 12)
    assert choose_triploid(100, 50) == TriploidParams(12, 2, 12, 74, 50)
    assert choose_triploid(20, 100) == TriploidParams(2, 10, 2, 6, 100)
    params = choose_triploid(5, 30)
    assert params == TriploidParams(1, 2, 1, 1, 30)
    assert params.loops == 26


def test_choose_triploid_rejects_small_inputs():
    with pytest.raises(ValueError):
        choose_triploid(3, 10)
    with pytest.raises(ValueError):
        choose_triploid(10, 3)


def test_choose_triploid_covers_the_whole_range():
    # The four parameter regimes, tried in order, must catch every pair and
    # always produce exactly n vertices and m edges.
    for n in range(4, 513):
        for m in range(4, 513):
            params = choose_triploid(n, m)
            assert params.vertex_count == n
            assert params.e == m


def test_middle_row_size_matches_high_precision_ceiling():
    getcontext().prec = 50
    for n in range(17, 131):
        for m in range(max(17, 2 * n - 3), min(512, n * n) + 1):
            disc = max(0, n * n - 4 * m)
            s = Decimal(disc).sqrt()
            expected = int(-((s - Decimal(n)) / 2).to_integral_value(rounding="ROUND_FLOOR"))
            assert _middle_row_size(n, m) == expected


def _middle_row_predicate(n: int, m: int, t: int) -> bool:
    rest = n - 2 * t
    return rest <= 0 or n * n - 4 * m >= rest * rest


def test_middle_row_size_is_the_least_t_satisfying_its_predicate():
    # Past m = n^2 / 4 the discriminant is negative and the answer no longer
    # depends on m, so m up to n^2 // 4 + 1 and m = n^2 cover every case.
    for n in range(0, 301):
        for m in [*range(0, n * n // 4 + 2), n * n]:
            t = _middle_row_size(n, m)
            assert _middle_row_predicate(n, m, t), (n, m, t)
            assert t == 0 or not _middle_row_predicate(n, m, t - 1), (n, m, t)


def _first_fit_reference(graph):
    """Every rhomboid in ascending (a, b, c, d) order, kept when pairwise
    disjoint from those kept before, plus the number of steps the greedy's
    b, c and d scans take: one per (a, b), (a, b, c) and (a, b, c, d) prefix
    whose own prefix passed the greedy's filters."""
    edges = range(graph.edge_count)
    origin, tail = graph.origin, graph.tail
    chosen = []
    steps = 0
    for a in edges:
        x, y = graph.edges[a]
        for b in (b for b in edges if origin(b) == y):
            w = tail(b)
            steps += x != y
            for c in (c for c in edges if origin(c) == x):
                z = tail(c)
                steps += x != y and w not in (x, y)
                for d in (d for d in edges if origin(d) == z):
                    if x != y and w not in (x, y) and z not in (x, y, w):
                        steps += 1
                    if is_rhomboid(graph, a, b, c, d):
                        candidate = Rhomboid(a, b, c, d)
                        if all(are_disjoint(candidate, other) for other in chosen):
                            chosen.append(candidate)
    return chosen, steps


def test_greedy_matches_pairwise_first_fit_on_random_graphs():
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(4, 5)
        m = rng.randint(6, 14)
        graph = build(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
        expected, steps = _first_fit_reference(graph)
        assert greedy_disjoint_rhomboids(graph, budget=steps) == expected
        if steps:
            with pytest.raises(BudgetExceededError):
                greedy_disjoint_rhomboids(graph, budget=steps - 1)
    fig4 = triploid(TriploidParams(3, 2, 4, 2, 16))
    assert greedy_disjoint_rhomboids(fig4) == _first_fit_reference(fig4)[0]


def test_greedy_on_fig4_finds_the_full_family():
    graph = triploid(TriploidParams(3, 2, 4, 2, 16))
    family = greedy_disjoint_rhomboids(graph)
    assert len(family) >= 12
    for first, second in itertools.combinations(family, 2):
        assert are_disjoint(first, second)


def test_greedy_rhomboid_free_graph_is_empty():
    assert greedy_disjoint_rhomboids(build(3, [(0, 1), (1, 2), (0, 2)])) == []


def test_greedy_on_conflicting_squares_keeps_one():
    graph = build(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    assert len(greedy_disjoint_rhomboids(graph)) == 1


@pytest.mark.parametrize(
    "n, pairs",
    [(2, [(0, 1)] * 2000 + [(1, 0)] * 2000), (3, [(0, 1)] * 4000 + [(1, 2)])],
    ids=["b-scan", "c-scan"],
)
def test_greedy_budget_bounds_the_scans_that_find_no_candidate(n, pairs):
    # Every b step of the first graph, and every c step of the second, fails
    # the greedy's filters, so no d scan starts: Θ(k²) steps, no rhomboid.
    graph = build(n, pairs)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="budget of 1000 exceeded"):
        greedy_disjoint_rhomboids(graph, budget=1000)
    assert time.perf_counter() - start < 0.5
    small = build(n, pairs[:6] + pairs[-6:])
    expected, steps = _first_fit_reference(small)
    assert expected == [] and steps > 50
    assert greedy_disjoint_rhomboids(small, budget=steps) == []
    with pytest.raises(BudgetExceededError):
        greedy_disjoint_rhomboids(small, budget=steps - 1)


def test_greedy_budget_error():
    graph = triploid(TriploidParams(3, 2, 4, 2, 16))
    with pytest.raises(BudgetExceededError):
        greedy_disjoint_rhomboids(graph, budget=5)


@pytest.mark.parametrize("budget", [5.5, True, None, "5", -1])
def test_greedy_refuses_a_budget_that_is_no_count(budget):
    graph = triploid(TriploidParams(3, 2, 4, 2, 16))
    with pytest.raises(ValueError, match="rhomboid enumeration budget must be"):
        greedy_disjoint_rhomboids(graph, budget=budget)
    with pytest.raises(BudgetExceededError, match="budget of 0 exceeded"):
        greedy_disjoint_rhomboids(graph, budget=0)


def test_rank_bounds_values():
    bounds = rank_bounds(11, 16)
    assert bounds["eta_upper"] == 192
    assert bounds["nu_upper"] == 176

    bounds = rank_bounds(4, 4)
    assert bounds["eta_lower"] == Fraction(20, 16384)
    assert bounds["nu_lower"] == Fraction(16, 16384)
    assert LOWER_BOUND_SCALE == 16384


def test_rank_lower_never_exceeds_upper():
    rng = random.Random(3)
    for _ in range(300):
        n, m = rng.randint(1, 200), rng.randint(1, 5000)
        bounds = rank_bounds(n, m)
        assert bounds["eta_lower"] <= bounds["eta_upper"]
        assert bounds["nu_lower"] <= bounds["nu_upper"]


def test_verify_nu_ge_examples():
    result = verify_nu_ge(10, 12)
    assert result["rh_family_size"] == 1
    assert result["loops"] == 8
    assert result["inequality_1_holds"] and result["inequality_2_holds"]

    result = verify_nu_ge(100, 50)
    assert result["rh_family_size"] == 144
    assert result["loops"] == 2
    assert result["inequality_1_holds"] and result["inequality_2_holds"]

    result = verify_nu_ge(4, 4)
    assert result["params"] == TriploidParams(1, 2, 1, 0, 4)
    assert result["rh_family_size"] == 1
    assert result["loops"] == 0
    assert result["inequality_1_holds"] and result["inequality_2_holds"]


def test_fan_graph_disjoint_family_is_one():
    assert len(greedy_disjoint_rhomboids(fan_graph())) == 1
