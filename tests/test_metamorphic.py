"""Metamorphic relations: transformations of a diagram that leave its whole
``verify`` run unchanged, checked at sizes the oracle's walk enumeration
cannot reach.  The transformed labels are built with test-side arithmetic,
never with the package's kernels, so each relation checks the kernels too."""

from __future__ import annotations

import random

import pytest

from diagcheck import Diagram, OrientedGraph, matrix, matrix_monoid, validate_witness, verify

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


# (k, vertices, edges, seeds): 2x2 up to 64/1024, the wider matrices on
# small graphs only.
_SIZES = (
    (2, 4, 8, 40),
    (2, 16, 64, 12),
    (2, 64, 1024, 2),
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
