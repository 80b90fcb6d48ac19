"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance here is zero: all comparisons are
exact integer or exact rational comparisons.
"""

from __future__ import annotations

import random

from diagcheck import (
    NonIdentityLoop,
    PathMismatch,
    TriploidParams,
    bound_eq_checks,
    bound_mults,
    choose_triploid,
    eq,
    explicit_rhomboid_family,
    has_multiple_edges,
    identity_matrix,
    is_quasi_acyclic,
    loop_count,
    loop_indicator_labeling,
    loop_kernel_labeling,
    nz_edge_labeling,
    nz_pair_labeling,
    op,
    oracle_verify,
    parse_diagram,
    rank_bounds,
    rhomboid_gap_labeling,
    serialize_diagram,
    strip_loops,
    triploid,
    validate_witness,
    verify,
    verify_nu_ge,
)

from .conftest import random_diagram
from .reference import identity_labeled, predicted_counters, random_graph

SMALL_SUITE_SEED = 0xD1A6
SMALL_SUITE_SIZE = 10_000
GRID_LIMIT = 130  # criterion 3/4 grid: 4 <= n, m <= 130, 16129 pairs

N_GRID = (4, 8, 16, 32, 64)
M_GRID = (4, 16, 64, 256, 1024, 4096)


def _small_suite():
    rng = random.Random(SMALL_SUITE_SEED)
    for _ in range(SMALL_SUITE_SIZE):
        yield random_diagram(rng)


def _announce(number, title):
    print(f"ACCEPTANCE {number} {title}: PASS")


def test_criterion_1_oracle_equivalence():
    mismatches = 0
    saw_loop = saw_parallel = saw_cycle = False
    for diagram in _small_suite():
        fast = verify(diagram).commutative
        slow = oracle_verify(diagram, diagram.graph.vertex_count)
        if fast != slow:
            mismatches += 1
        saw_loop = saw_loop or loop_count(diagram.graph) > 0
        saw_parallel = saw_parallel or has_multiple_edges(diagram.graph)
        saw_cycle = saw_cycle or not is_quasi_acyclic(diagram.graph)
    assert mismatches == 0
    assert saw_loop and saw_parallel and saw_cycle
    _announce(1, "ORACLE EQUIVALENCE (10000 diagrams, zero mismatches)")


def test_criterion_2_count_bounds():
    # Every run stays within the bounds; a commuting run's counters equal
    # the graph's prediction exactly.
    def check(diagram) -> bool:
        n = diagram.graph.vertex_count
        m = diagram.graph.edge_count
        report = verify(diagram)
        reduced = report.reduced_edges
        assert report.eq_total <= bound_eq_checks(n, m, reduced) <= bound_eq_checks(n, m)
        assert report.mult_total <= bound_mults(n, m, reduced) <= bound_mults(n, m)
        if report.commutative:
            assert report.counters == predicted_counters(diagram.graph)
        return report.commutative

    commuting = sum(check(diagram) for diagram in _small_suite())
    assert commuting > 3000

    rng = random.Random(SMALL_SUITE_SEED + 1)
    for n in N_GRID:
        for m in M_GRID:
            for _ in range(2):
                assert check(identity_labeled(random_graph(n, m, rng)))
    _announce(2, "COUNT BOUNDS AND EXACT COMMUTING COUNTS (tolerance 0)")


def test_criterion_3_nu_ge_on_the_full_grid():
    pairs_checked = 0
    for n in range(4, GRID_LIMIT + 1):
        for m in range(4, GRID_LIMIT + 1):
            result = verify_nu_ge(n, m)
            params = result["params"]
            assert params.vertex_count == n and params.e == m
            assert result["inequality_1_holds"], (n, m)
            assert result["inequality_2_holds"], (n, m)
            family = explicit_rhomboid_family(params)
            assert len(family) == result["rh_family_size"]
            # Two rhomboids are disjoint exactly when no consecutive side
            # pair (a, b) or (c, d) belongs to both, so the whole family is
            # pairwise disjoint iff no side pair has two owners.
            owner = {}
            for index, (a, b, c, d) in enumerate(family):
                for side_pair in ((a, b), (c, d)):
                    assert owner.setdefault(side_pair, index) == index, (n, m, side_pair)
            pairs_checked += 1
    assert pairs_checked == 16_129
    _announce(3, "APPENDIX PARAMETER SELECTION (16129 pairs, C = 2^-14 exact)")


def test_criterion_4_family_size_and_loop_count_formulas():
    for n in range(4, GRID_LIMIT + 1):
        for m in range(4, GRID_LIMIT + 1):
            params = choose_triploid(n, m)
            family = explicit_rhomboid_family(params)
            assert len(family) == params.n1 * params.n3 * (params.n2 // 2)
            graph = triploid(params)
            assert loop_count(graph) == params.e - params.n2 * (params.n1 + params.n3)

    fig4 = TriploidParams(3, 2, 4, 2, 16)
    graph = triploid(fig4)
    assert len(explicit_rhomboid_family(fig4)) == 12
    assert loop_count(graph) == 2
    assert graph.vertex_count == 11
    assert graph.edge_count == 16
    _announce(4, "EXPLICIT FAMILY AND LOOP-COUNT FORMULAS (exact on the grid)")


def test_criterion_5_fixture_behavior():
    rng = random.Random(SMALL_SUITE_SEED + 3)

    # nz-edge and nz-pair on loop-stripped grid triploids.
    accepted = 0
    for _ in range(100):
        n = rng.randint(4, GRID_LIMIT)
        m = rng.randint(4, GRID_LIMIT)
        graph = strip_loops(triploid(choose_triploid(n, m)))
        edge = rng.randrange(graph.edge_count)
        d = nz_edge_labeling(graph, edge)
        assert verify(d).commutative
        assert oracle_verify(d, graph.vertex_count)
        other = rng.randrange(graph.edge_count)
        if other != edge:
            d = nz_pair_labeling(graph, edge, other)
            assert verify(d).commutative
            assert oracle_verify(d, graph.vertex_count)
        accepted += 1
    assert accepted == 100

    # rhomboid-gap: all 12 explicit squares of the loop-stripped Fig.4 triploid.
    params = TriploidParams(3, 2, 4, 2, 16)
    stripped = strip_loops(triploid(params))
    for square in explicit_rhomboid_family(params):
        d = rhomboid_gap_labeling(stripped, square)
        report = verify(d)
        assert not report.commutative
        assert isinstance(report.witness, PathMismatch)
        assert validate_witness(d, report.witness)

    # loop-kernel with a cancelling vector still trips on the first loop.
    with_loops = triploid(params)
    d = loop_kernel_labeling(with_loops, [1, -1])
    assert eq(op(d.labels[14], d.labels[15]), identity_matrix(2))
    report = verify(d)
    assert not report.commutative
    assert isinstance(report.witness, NonIdentityLoop)
    assert validate_witness(d, report.witness)

    # loop-indicator accepted wherever it is defined.
    for n, m in ((10, 12), (5, 30), (20, 100)):
        d = loop_indicator_labeling(triploid(choose_triploid(n, m)))
        assert verify(d).commutative
    _announce(5, "FIXTURE BEHAVIOR (accepts and rejections as constructed)")


def test_criterion_6_witness_soundness_and_determinism():
    rejected = 0
    for diagram in _small_suite():
        report = verify(diagram)
        if report.commutative:
            assert report.witness is None
        else:
            assert report.witness is not None
            assert validate_witness(diagram, report.witness)
            rejected += 1
    assert rejected > 0

    rng = random.Random(SMALL_SUITE_SEED + 4)
    for _ in range(200):
        diagram = random_diagram(rng)
        text = serialize_diagram(diagram)
        first = verify(parse_diagram(text), trace=True).to_json()
        second = verify(parse_diagram(text), trace=True).to_json()
        assert first.encode() == second.encode()
    _announce(6, "WITNESS SOUNDNESS AND BYTE-IDENTICAL REPORTS")


def test_criterion_7_lower_bound_substitution_cross_check():
    # The asymptotic optimality claim itself is a universally quantified
    # statement; at desk scale the grid inequalities of criterion 3 stand in
    # for it, plus this consistency check: the certified family never beats
    # the closed-form upper bound.
    for n in range(4, GRID_LIMIT + 1):
        for m in range(4, GRID_LIMIT + 1):
            result = verify_nu_ge(n, m)
            upper = rank_bounds(n, m)["eta_upper"]
            assert result["rh_family_size"] + result["loops"] <= upper, (n, m)
    _announce(7, "LOWER-BOUND SUBSTITUTION CROSS-CHECK (certificate <= upper bound)")
