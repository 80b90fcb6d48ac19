"""Metamorphic relations: transformations of a diagram that leave its whole
``verify`` run, or at least its verdict, unchanged, checked at sizes the
oracle's walk enumeration cannot reach.  The transformed labels and monoids
are built with test-side arithmetic, never with the package's kernels, so
each relation checks the kernels too."""

from __future__ import annotations

import random

import pytest

from diagcheck import Diagram, OrientedGraph, matrix, matrix_monoid, validate_witness, verify
from diagcheck.graph import Path
from diagcheck.verifier import MultiEdgeMismatch, NonIdentityLoop, PathMismatch

from .test_payload import _naive_product, _random_value, _unimodular_pair


def _potential_diagram(rng, k, n, m, kind):
    """A k x k unimodular potential on a random n-vertex, m-edge multigraph
    (loops and parallel edges included), or its planted twin: the same with
    one label replaced by a random matrix."""
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    phi = [_unimodular_pair(rng, k) for _ in range(n)]
    labels = [_naive_product(phi[o][1].entries, phi[t][0].entries) for o, t in edges]
    if kind == "twin" and labels:
        labels[rng.randrange(m)] = _random_value(rng, f"mat{k}").entries
    return Diagram(OrientedGraph(n, edges), matrix_monoid(k), [matrix(label) for label in labels])


def _gauged(d, rng):
    """``d`` with each label l(e) of an edge o -> t replaced by
    phi(o) * l(e) * phi(t)^-1, for a random unimodular phi(v) per vertex."""
    phi = [_unimodular_pair(rng, d.monoid.k) for _ in range(d.graph.vertex_count)]
    labels = [
        matrix(_naive_product(_naive_product(phi[o][0].entries, label.entries), phi[t][1].entries))
        for (o, t), label in zip(d.graph.edges, d.labels)
    ]
    return Diagram(d.graph, d.monoid, labels)


def _assert_same_run(d, gauged, trace):
    # Every product of the run is conjugated by the same invertible factors,
    # so every equality, and with it the whole run, comes out the same.
    before, after = verify(d, trace=trace), verify(gauged, trace=trace)
    assert after.commutative is before.commutative
    assert after.counters == before.counters
    assert after.reduced_edges == before.reduced_edges
    assert after.witness == before.witness
    assert after.to_json() == before.to_json()
    if not before.commutative:
        assert validate_witness(gauged, after.witness)
    return before.commutative


# (k, vertices, edges, seeds): 2x2 up to 64/1024, 3x3 up to 32/256, the
# wider matrices on small graphs only.
_SIZES = (
    (2, 4, 8, 40),
    (2, 16, 64, 12),
    (2, 64, 1024, 2),
    (3, 5, 12, 30),
    (3, 16, 64, 8),
    (3, 32, 256, 2),
    (4, 6, 16, 30),
    (4, 12, 48, 6),
    (8, 5, 12, 30),
    (8, 10, 32, 4),
)


@pytest.mark.parametrize("kind", ("potential", "twin"))
@pytest.mark.parametrize("k, n, m, seeds", _SIZES, ids=[f"{k}x{k}-{n}/{m}" for k, n, m, _ in _SIZES])
def test_gauge_leaves_the_run_unchanged(k, n, m, seeds, kind):
    verdicts = set()
    for seed in range(seeds):
        rng = random.Random(f"gauge/{k}/{n}/{m}/{kind}/{seed}")
        d = _potential_diagram(rng, k, n, m, kind)
        verdicts.add(_assert_same_run(d, _gauged(d, rng), trace=m <= 64))
    # Potentials commute; a planted twin may too, if no cycle or parallel
    # edge runs through its label, but most do not.
    assert verdicts == {True} if kind == "potential" else False in verdicts


# ---------------------------------------------------------------------------
# Reversal: the reversed graph over the opposite monoid


class _OppositeMatrices:
    """k x k integer matrices, held as row tuples, under the opposite product
    a *' b = b * a, computed by the test's reference product.  Not a built-in
    family, so a run over it takes the duck-typed path and no package kernel."""

    def __init__(self, k):
        self.one = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))

    def identity(self):
        return self.one

    def op(self, a, b):
        return _naive_product(b, a)

    def eq(self, a, b):
        return a == b

    def owns(self, value):
        return type(value) is tuple and len(value) == len(self.one)


def _reversed(d):
    """Every edge o -> t as t -> o, same id and label, over the opposite monoid:
    a walk's label there is the label of the reversed walk here."""
    graph = OrientedGraph(d.graph.vertex_count, [(t, o) for o, t in d.graph.edges])
    return Diagram(graph, _OppositeMatrices(d.monoid.k), [label.entries for label in d.labels])


def _unreversed(witness):
    """A witness of the reversed diagram, read on the original one."""
    if isinstance(witness, PathMismatch):
        return PathMismatch(*(Path(path.edges[::-1], path.tail, path.origin) for path in (witness.path1, witness.path2)))
    assert isinstance(witness, (NonIdentityLoop, MultiEdgeMismatch))
    return witness


# (k, vertices, edges, seeds).  The reference product is slow, so sizes stay small.
_REVERSAL_SIZES = ((2, 6, 16, 30), (2, 32, 256, 2), (3, 6, 16, 20), (3, 16, 64, 3), (8, 5, 12, 8))


@pytest.mark.parametrize("kind", ("potential", "twin"))
@pytest.mark.parametrize("k, n, m, seeds", _REVERSAL_SIZES, ids=[f"{k}x{k}-{n}/{m}" for k, n, m, _ in _REVERSAL_SIZES])
def test_reversal_over_the_opposite_monoid_keeps_the_verdict(k, n, m, seeds, kind):
    verdicts = set()
    for seed in range(seeds):
        rng = random.Random(f"reversal/{k}/{n}/{m}/{kind}/{seed}")
        d = _potential_diagram(rng, k, n, m, kind)
        report, mirrored = verify(d), verify(_reversed(d))
        assert mirrored.commutative is report.commutative
        assert mirrored.reduced_edges == report.reduced_edges
        if not mirrored.commutative:
            assert validate_witness(d, _unreversed(mirrored.witness)) is True
        verdicts.add(report.commutative)
    assert verdicts == {True} if kind == "potential" else False in verdicts


# ---------------------------------------------------------------------------
# Relabeling: the same diagram with its vertex ids permuted


def _permuted(d, perm):
    graph = OrientedGraph(d.graph.vertex_count, [(perm[o], perm[t]) for o, t in d.graph.edges])
    return Diagram(graph, d.monoid, d.labels)


def _unpermuted(witness, inverse):
    """A witness of the permuted diagram, read on the original one: edge ids
    are kept, so only a path's endpoints move."""
    if isinstance(witness, PathMismatch):
        return PathMismatch(*(Path(p.edges, inverse[p.origin], inverse[p.tail]) for p in (witness.path1, witness.path2)))
    return witness


_RELABELING_SIZES = ((2, 8, 24, 30), (2, 64, 1024, 2), (3, 8, 24, 20), (3, 32, 256, 2), (8, 6, 16, 10))


@pytest.mark.parametrize("kind", ("potential", "twin"))
@pytest.mark.parametrize("k, n, m, seeds", _RELABELING_SIZES, ids=[f"{k}x{k}-{n}/{m}" for k, n, m, _ in _RELABELING_SIZES])
def test_relabeling_the_vertices_keeps_the_verdict(k, n, m, seeds, kind):
    # The counters are sums over roots of what each root reaches, so on a
    # commuting run they do not depend on the order the roots are taken in;
    # a failing run stops at a root that depends on it.
    verdicts = set()
    for seed in range(seeds):
        rng = random.Random(f"relabeling/{k}/{n}/{m}/{kind}/{seed}")
        d = _potential_diagram(rng, k, n, m, kind)
        perm = list(range(n))
        rng.shuffle(perm)
        report, relabeled = verify(d), verify(_permuted(d, perm))
        assert relabeled.commutative is report.commutative
        assert relabeled.reduced_edges == report.reduced_edges
        if report.commutative:
            assert relabeled.counters == report.counters
        else:
            inverse = [0] * n
            for v, image in enumerate(perm):
                inverse[image] = v
            assert validate_witness(d, _unpermuted(relabeled.witness, inverse)) is True
        verdicts.add(report.commutative)
    assert verdicts == {True} if kind == "potential" else False in verdicts
