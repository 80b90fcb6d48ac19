"""Verification pass: phases, counters, witnesses, traces, determinism."""

from __future__ import annotations

import random

import pytest

from diagcheck import (
    ADDITIVE,
    FREE,
    Counters,
    Diagram,
    MultiEdgeMismatch,
    NonIdentityLoop,
    Path,
    PathMismatch,
    TriploidParams,
    VerificationReport,
    bound_eq_checks,
    bound_mults,
    build,
    explicit_rhomboid_family,
    identity_matrix,
    label_of_sequence,
    matrix,
    matrix_monoid,
    matrix_unit,
    nz_edge_labeling,
    number,
    parse_diagram,
    rhomboid_gap_labeling,
    serialize_diagram,
    strip_loops,
    triploid,
    validate_witness,
    verify,
    word,
    zero_matrix,
)
from diagcheck import verifier as verifier_module
from diagcheck.verifier import (
    reduced_edge_count,
    remove_loops,
    remove_multiple_edges,
)

from .conftest import boxed_diagram, kirchhoff_square, random_diagram, triangle_graph
from .reference import identity_labeled, predicted_counters, random_graph, trace_to_dict


def test_remove_loops_drops_identity_loops():
    graph = build(2, [(0, 0), (0, 1)])
    d = Diagram(graph, matrix_monoid(2), [identity_matrix(2), zero_matrix(2)])
    counters = Counters()
    assert remove_loops(d, counters) is None
    assert counters.eq_loops == 1
    assert graph.reduced[0] == (1,)


def test_remove_loops_catches_nonidentity_loop():
    graph = build(1, [(0, 0)])
    d = Diagram(graph, matrix_monoid(2), [matrix(((1, 1), (0, 1)))])
    counters = Counters()
    witness = remove_loops(d, counters)
    assert witness == NonIdentityLoop(0)
    assert counters.eq_loops == 1


def test_remove_loops_no_loops_no_checks():
    counters = Counters()
    assert remove_loops(kirchhoff_square(), counters) is None
    assert counters.eq_loops == 0


def test_remove_multiple_edges_merges_equal_labels():
    graph = build(2, [(0, 1), (0, 1)])
    d = Diagram(graph, FREE, [word(5), word(5)])
    counters = Counters()
    assert remove_multiple_edges(d, counters) is None
    assert counters.eq_multi == 1
    assert graph.reduced[0] == (0,)


def test_remove_multiple_edges_catches_mismatch():
    graph = build(2, [(0, 1), (0, 1)])
    d = Diagram(graph, FREE, [word(0), word(1)])
    counters = Counters()
    witness = remove_multiple_edges(d, counters)
    assert witness == MultiEdgeMismatch(edge=1, kept=0)


def test_remove_multiple_edges_simple_graph_zero_checks():
    counters = Counters()
    assert remove_multiple_edges(kirchhoff_square(), counters) is None
    assert counters.eq_multi == 0


def test_dfs_check_additive_triangle_commutes():
    d = Diagram(triangle_graph(), ADDITIVE, [number(1), number(2), number(3)])
    report = verify(d)
    assert report.commutative and report.witness is None
    # Root 0 makes 3 products and 1 check (edge 2 reaches the visited
    # vertex 2); root 1 adds the product along edge 1; root 2 has no out-edge.
    assert report.counters.mult_dfs == 4
    assert report.counters.eq_dfs == 1


def test_dfs_check_free_triangle_mismatch():
    d = Diagram(triangle_graph(), FREE, [word(0), word(1), word(2)])
    witness = verify(d).witness
    assert isinstance(witness, PathMismatch)
    assert witness.path1.edges == (0, 1)
    assert witness.path2.edges == (2,)
    assert witness.path1.origin == witness.path2.origin == 0
    assert validate_witness(d, witness)


def test_dfs_check_rhomboid_gap_mismatch():
    graph = build(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    labels = [matrix_unit(3, 0, 1), matrix_unit(3, 1, 2), zero_matrix(3), zero_matrix(3)]
    d = Diagram(graph, matrix_monoid(3), labels)
    witness = verify(d).witness
    assert witness == PathMismatch(Path((0, 1), 0, 3), Path((2, 3), 0, 3))
    assert validate_witness(d, witness)


def test_verify_empty_graph():
    report = verify(Diagram(build(1, []), FREE, []))
    assert report.commutative
    assert report.eq_total == 0 and report.mult_total == 0
    assert report.reduced_edges == 0


def test_verify_kirchhoff_square_counters():
    # Hand trace: roots 0..3 perform 6 multiplications and 1 equality check.
    report = verify(kirchhoff_square())
    assert report.commutative
    assert report.counters.eq_loops == 0
    assert report.counters.eq_multi == 0
    assert report.counters.eq_dfs == 1
    assert report.counters.mult_dfs == 6
    assert report.reduced_edges == 4
    assert report.witness is None


def test_verify_chain_counters():
    # Path 0 -> 1 -> 2: three (root, edge) reachable pairs, no revisits.
    d = Diagram(build(3, [(0, 1), (1, 2)]), FREE, [word(0), word(1)])
    report = verify(d)
    assert report.commutative
    assert report.counters.mult_dfs == 3
    assert report.counters.eq_dfs == 0


def test_verify_nz_edge_on_stripped_triploid():
    graph = strip_loops(triploid(TriploidParams(3, 2, 4, 2, 16)))
    report = verify(nz_edge_labeling(graph, 0))
    assert report.commutative
    assert report.eq_total <= bound_eq_checks(11, 14)
    assert report.mult_total <= bound_mults(11, 14)


def test_verify_stops_at_first_nonidentity_loop():
    graph = build(1, [(0, 0), (0, 0)])
    d = Diagram(graph, ADDITIVE, [number(2), number(1)])
    report = verify(d)
    assert not report.commutative
    assert report.witness == NonIdentityLoop(0)
    assert report.counters.eq_loops == 1
    assert report.counters.mult_dfs == 0


def test_bound_formulas():
    assert bound_eq_checks(11, 16) == 192
    assert bound_mults(11, 16) == 176
    assert bound_eq_checks(4, 0) == 0
    assert bound_mults(4, 0) == 0
    assert bound_eq_checks(2, 100) == 108
    # Refined forms with the reduced edge count supplied.
    assert bound_eq_checks(11, 16, reduced_edges=14) == 14 * 11 + 16
    assert bound_mults(11, 16, reduced_edges=14) == 14 * 11


def test_counters_within_bounds_on_random_diagrams():
    rng = random.Random(77)
    for _ in range(500):
        d = random_diagram(rng)
        n, m = d.graph.vertex_count, d.graph.edge_count
        report = verify(d)
        assert report.counters.eq_loops + report.counters.eq_multi <= m
        assert report.eq_total <= bound_eq_checks(n, m, report.reduced_edges) <= bound_eq_checks(n, m)
        assert report.mult_total <= bound_mults(n, m, report.reduced_edges) <= bound_mults(n, m)


def test_counters_equal_the_graph_prediction_on_commuting_runs():
    # The bounds above leave room for a phase that skips edges; the exact
    # prediction does not.
    rng = random.Random(94)
    commuting = 0
    for _ in range(1000):
        d = random_diagram(rng, max_vertices=7, max_edges=14)
        report = verify(d)
        if report.commutative:
            assert report.counters == predicted_counters(d.graph), d.graph.edges
            commuting += 1
    assert commuting > 150
    for n, m in ((5, 25), (16, 64), (40, 200), (11, 16)):
        d = identity_labeled(random_graph(n, m, rng))
        assert verify(d).counters == predicted_counters(d.graph)
    d = identity_labeled(triploid(TriploidParams(3, 2, 4, 2, 16)))
    assert verify(d).counters == predicted_counters(d.graph)


def test_verify_calls_each_phase_through_the_module(monkeypatch):
    # Profilers time the phases by rebinding these names on the module, so
    # ``verify`` must look each one up there on every call, traced or not.
    calls = dict.fromkeys(("remove_loops", "remove_multiple_edges", "reduced_edge_count"), 0)
    for name in calls:

        def counting(*args, _name=name, _phase=getattr(verifier_module, name)):
            calls[_name] += 1
            return _phase(*args)

        monkeypatch.setattr(verifier_module, name, counting)
    assert verify(kirchhoff_square()).commutative
    assert verify(kirchhoff_square(), trace=True).commutative
    assert calls == {"remove_loops": 2, "remove_multiple_edges": 2, "reduced_edge_count": 2}


def test_trace_counts_match_counters():
    rng = random.Random(88)
    for _ in range(200):
        d = random_diagram(rng)
        report = verify(d, trace=True)
        assert len(report.trace.relations) == report.eq_total
        assert len(report.trace.products) == report.mult_total


def test_trace_relations_reflect_the_run():
    # On a commutative run every recorded relation holds; on a failed run all
    # but the last hold and the last one is the violation.
    rng = random.Random(89)
    mon_checked = 0
    for _ in range(200):
        d = random_diagram(rng)
        report = verify(d, trace=True)
        relations = report.trace.relations
        for lhs, rhs in relations[:-1]:
            assert d.monoid.eq(label_of_sequence(d, lhs), label_of_sequence(d, rhs))
        if relations:
            last_holds = d.monoid.eq(
                label_of_sequence(d, relations[-1][0]),
                label_of_sequence(d, relations[-1][1]),
            )
            assert last_holds == report.commutative
            mon_checked += 1
    assert mon_checked > 50


def test_trace_sequences_are_built_from_recorded_products():
    rng = random.Random(90)
    for _ in range(100):
        d = random_diagram(rng)
        report = verify(d, trace=True)
        known = {()} | {(e,) for e in range(d.graph.edge_count)}
        for lhs, rhs in report.trace.products:
            assert lhs in known and rhs in known
            known.add(lhs + rhs)
        for lhs, rhs in report.trace.relations:
            assert lhs in known and rhs in known


def test_reports_are_deterministic():
    rng = random.Random(91)
    for _ in range(100):
        d = random_diagram(rng)
        text = serialize_diagram(d)
        first = verify(parse_diagram(text), trace=True).to_json()
        second = verify(parse_diagram(text), trace=True).to_json()
        assert first == second


def test_per_root_reset_rechecks_every_root():
    # A diamond reachable from two roots: each root redoes its own checks.
    graph = build(5, [(4, 0), (0, 1), (1, 3), (0, 2), (2, 3)])
    labels = [number(0), number(5), number(7), number(4), number(8)]
    report = verify(Diagram(graph, ADDITIVE, labels))
    assert report.commutative
    # Roots 4 and 0 both verify the square join; roots 1 and 2 see no joins.
    assert report.counters.eq_dfs == 2
    assert report.counters.mult_dfs == 5 + 4 + 1 + 1


def test_verifier_touches_labels_only_through_the_monoid():
    rng = random.Random(92)
    for _ in range(300):
        plain = random_diagram(rng)
        boxed, counting = boxed_diagram(plain)
        plain_report = verify(plain)
        boxed_report = verify(boxed)
        assert boxed_report.commutative == plain_report.commutative
        assert counting.eq_calls == boxed_report.eq_total == plain_report.eq_total
        assert counting.op_calls == boxed_report.mult_total == plain_report.mult_total


def test_roots_without_reduced_out_edges_take_no_identity():
    # One identity for the loop phase, then one per root whose search runs:
    # every root with a reduced out-edge, up to the root of a path mismatch.
    rng = random.Random(96)
    sinks = 0
    diagrams = [kirchhoff_square(), Diagram(build(4, [(2, 2)]), ADDITIVE, [number(0)])]
    diagrams += [random_diagram(rng) for _ in range(300)]
    for plain in diagrams:
        boxed, counting = boxed_diagram(plain)
        report = verify(boxed)
        graph = plain.graph
        last = graph.vertex_count - 1
        if isinstance(report.witness, PathMismatch):
            last = report.witness.path1.origin
        elif report.witness is not None:
            last = -1
        roots = [v for v in range(last + 1) if graph.reduced[v]]
        assert counting.identity_calls == 1 + len(roots), graph.edges
        sinks += last + 1 - len(roots)
    assert sinks > 200


def test_completed_reduction_matches_structural_count():
    # The reported reduced-edge count is the distinct non-loop pair count;
    # whenever both phases finish, they have checked every other edge once.
    rng = random.Random(93)
    completed = 0
    for _ in range(200):
        d = random_diagram(rng)
        counters = Counters()
        if remove_loops(d, counters) is None:
            if remove_multiple_edges(d, counters) is None:
                distinct = {pair for pair in d.graph.edges if pair[0] != pair[1]}
                assert reduced_edge_count(d) == len(distinct)
                assert counters.eq_loops + counters.eq_multi + len(distinct) == d.graph.edge_count
                completed += 1
    assert completed > 50


def test_trace_on_rhomboid_gap_records_single_violation():
    graph = strip_loops(triploid(TriploidParams(3, 2, 4, 2, 16)))
    square = explicit_rhomboid_family(TriploidParams(3, 2, 4, 2, 16))[0]
    d = rhomboid_gap_labeling(graph, square)
    report = verify(d, trace=True)
    assert not report.commutative
    lhs, rhs = report.trace.relations[-1]
    assert {tuple(lhs), tuple(rhs)} == {(square.a, square.b), (square.c, square.d)}


def test_trace_contents_and_order_are_pinned():
    # One loop, one parallel pair and one square: every relation kind in
    # call order, each pair being the operands of one eq or op call.
    graph = build(3, [(0, 0), (0, 1), (0, 1), (1, 2), (0, 2)])
    relations = [[[0], []], [[2], [1]], [[1, 3], [4]]]
    products = [[[], [1]], [[1], [3]], [[], [4]], [[], [3]]]
    report = verify(Diagram(graph, ADDITIVE, [number(x) for x in (0, 1, 1, 2, 3)]), trace=True)
    assert report.commutative
    assert trace_to_dict(report.trace) == {"relations": relations, "products": products}
    # With label 4 on edge 4 the square's relation fails and the run stops there.
    report = verify(Diagram(graph, ADDITIVE, [number(x) for x in (0, 1, 1, 2, 4)]), trace=True)
    assert not report.commutative
    assert trace_to_dict(report.trace) == {"relations": relations, "products": products[:3]}


def test_unrefined_bounds_are_refined_bounds_at_the_capped_edge_count():
    # The raw bounds are the paper's min(n^2, m) * min(n, m + 1) (+ m), and
    # equal the refined ones at the capped edge count, including past n^2.
    for n in range(41):
        for m in range(2001):
            cap = min(n * n, m)
            assert bound_mults(n, m) == cap * min(n, m + 1) == bound_mults(n, m, cap), (n, m)
            assert bound_eq_checks(n, m) == bound_mults(n, m, cap) + m, (n, m)


def _latest_potential_twin(seed: int, family: str, n: int = 16, m: int = 64) -> Diagram:
    """A random potential labeling (it commutes) with one label perturbed:
    of the perturbations the DFS catches, the one it catches last."""
    rng = random.Random(seed)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    graph = build(n, edges)
    if family == "additive":
        phi = [rng.randint(-50, 50) for _ in range(n)]
        mon, labels = ADDITIVE, [number(phi[t] - phi[o]) for o, t in edges]
        bump = number(1)
    else:
        mon, labels, bump = FREE, [word()] * m, word(1)
    best, best_mults = None, -1
    for e in range(m):
        twin = list(labels)
        twin[e] = mon.op(labels[e], bump)
        d = Diagram(graph, mon, twin)
        report = verify(d)
        if isinstance(report.witness, PathMismatch) and report.mult_total > best_mults:
            best, best_mults = d, report.mult_total
    return best


def _deep_rejections():
    params = TriploidParams(3, 2, 4, 2, 16)
    graph = strip_loops(triploid(params))
    yield rhomboid_gap_labeling(graph, explicit_rhomboid_family(params)[-1])
    for seed in range(4):
        for family in ("additive", "free"):
            yield _latest_potential_twin(seed, family)


def test_counters_are_flushed_on_a_deep_early_exit():
    for d in _deep_rejections():
        plain = verify(d)
        assert isinstance(plain.witness, PathMismatch)
        assert plain.counters.mult_dfs > d.graph.vertex_count
        boxed, counting = boxed_diagram(d)
        report = verify(boxed)
        assert counting.op_calls == report.mult_total == plain.mult_total
        assert counting.eq_calls == report.eq_total == plain.eq_total
        assert report.witness == plain.witness
        traced = verify(d, trace=True)
        assert traced.counters == plain.counters
        assert len(traced.trace.products) == plain.mult_total
        assert len(traced.trace.relations) == plain.eq_total


def _tree_edges(graph, root: int) -> set:
    """The tree edges of a full search from ``root`` on ``graph.reduced``."""
    seen, tree = {root}, set()

    def visit(v):
        for e in graph.reduced[v]:
            u = graph.tails[e]
            if u not in seen:
                seen.add(u)
                tree.add(e)
                visit(u)

    visit(root)
    return tree


def _stop_kinds(graph, witness) -> set:
    """Where the run stopped, by phase and, in the DFS, by the state of the
    search at the failing edge e out of the current vertex v."""
    if isinstance(witness, NonIdentityLoop):
        return {"loop phase"}
    if isinstance(witness, MultiEdgeMismatch):
        return {"multi-edge phase"}
    if witness is None:
        return {"no stop"}
    edges, root = witness.path2.edges, witness.path2.origin
    v = graph.origin(edges[-1])
    out = graph.reduced[v]
    at = out.index(edges[-1])
    kinds = {"deep stack"} if len(edges) > 16 else set()
    if v == root:
        kinds.add("root's own frame")
    if root > min(r for r in range(graph.vertex_count) if graph.reduced[r]):
        kinds.add("later root")
    if at and out[at - 1] in _tree_edges(graph, root):
        kinds.add("right after a return")
    if at == len(out) - 1:
        kinds.add("last out-edge of a frame")
    return kinds


def _sweep_graphs():
    """(graph, monoid, commuting labels, bump) cases whose edges are bumped in turn."""
    rng = random.Random(24)
    for _ in range(30):
        graph = random_graph(rng.randint(2, 7), rng.randint(4, 16), rng)
        phi = [rng.randint(-9, 9) for _ in range(graph.vertex_count)]
        yield graph, ADDITIVE, [number(phi[t] - phi[o]) for o, t in graph.edges], number(1)
        yield graph, FREE, [word()] * graph.edge_count, word(1)
    graph = strip_loops(triploid(TriploidParams(3, 2, 4, 2, 16)))
    yield graph, FREE, [word()] * graph.edge_count, word(0)
    # A 40-vertex path taken first, so the search stacks 39 frames, then
    # chords checked on the way back up and one back edge closing a cycle.
    chords = [(i, j) for i in range(0, 36, 5) for j in (i + 2, i + 4)]
    graph = build(40, [(i, i + 1) for i in range(39)] + chords + [(39, 0)])
    yield graph, FREE, [word()] * graph.edge_count, word(2)


def test_counts_equal_the_calls_at_every_stop_position():
    # The DFS derives its counts from the search's shape and the reduction
    # phases from their stopping position; bumping each edge of each graph
    # in turn stops the run at every kind of place, and at each one the
    # counting monoid must have made exactly the reported calls.
    seen = set()
    for graph, monoid, labels, bump in _sweep_graphs():
        for e in range(graph.edge_count):
            twin = list(labels)
            twin[e] = monoid.op(labels[e], bump)
            d = Diagram(graph, monoid, twin)
            plain = verify(d)
            boxed, counting = boxed_diagram(d)
            report = verify(boxed)
            assert report.witness == plain.witness, (graph.edges, e)
            assert report.counters == plain.counters == verify(d, trace=True).counters
            assert counting.op_calls == plain.mult_total
            assert counting.eq_calls == plain.eq_total
            c, witness = plain.counters, plain.witness
            loops, duplicates = graph.loops, graph.duplicates
            if isinstance(witness, NonIdentityLoop):
                assert (c.eq_loops, c.eq_multi, c.mult_dfs) == (loops.index(witness.edge) + 1, 0, 0)
            elif isinstance(witness, MultiEdgeMismatch):
                at = duplicates.index((witness.edge, witness.kept))
                assert (c.eq_loops, c.eq_multi, c.mult_dfs) == (len(loops), at + 1, 0)
            else:
                assert (c.eq_loops, c.eq_multi) == (len(loops), len(duplicates))
            last = graph.vertex_count - 1
            if isinstance(witness, PathMismatch):
                last = witness.path1.origin
            elif witness is not None:
                last = -1
            assert counting.identity_calls == 1 + sum(1 for v in range(last + 1) if graph.reduced[v])
            seen |= _stop_kinds(graph, witness)
    assert seen == {
        "loop phase",
        "multi-edge phase",
        "no stop",
        "deep stack",
        "root's own frame",
        "later root",
        "right after a return",
        "last out-edge of a frame",
    }


def test_report_with_a_foreign_witness_does_not_serialize():
    report = VerificationReport(False, Counters(), 0, witness=object())
    with pytest.raises(TypeError, match="not a witness: object"):
        report.to_json()
