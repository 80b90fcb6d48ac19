"""Seeded benchmark inputs whose verdicts are known from how they were built.

Every diagram here is either a *potential* labeling, which commutes by
construction, or a potential labeling with one edge label multiplied by a
non-identity group element (a *twin*).  Whether a twin commutes is decided by
``perturbation_rejects``, a plain reachability rule that never calls the
verifier or the oracle:

    a twin perturbed on edge e is non-commutative iff
      (a) tail(e) reaches origin(e) (this covers loops), or
      (b) in G - e, some ancestor of origin(e) reaches some descendant of
          tail(e).

Labels are built with the package's public value constructors; graphs with
``OrientedGraph``.  Triploid fixtures come from the package's constructions
and adversarial labelings, whose answers are fixed by the paper's lemmas
(nz-edge commutes, rhomboid-gap does not).
"""

from __future__ import annotations

import random
from fractions import Fraction

import diagcheck.adversarial as adversarial
import diagcheck.constructions as constructions
import diagcheck.graph as graph_mod
from diagcheck.diagram import Diagram
from diagcheck.graph import OrientedGraph
from diagcheck.monoid import ADDITIVE, FREE, IntMatrix, matrix_monoid, number, word

# ---------------------------------------------------------------------------
# Known-answer rule


def _closure(adjacency, sources) -> set:
    seen = set(sources)
    stack = list(seen)
    while stack:
        v = stack.pop()
        for u in adjacency[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def perturbation_rejects(n: int, edges, e: int) -> bool:
    """Whether perturbing edge e of a potential labeling breaks commutativity."""
    origin, tail = edges[e]
    if origin == tail:
        return True
    out = [[] for _ in range(n)]
    into = [[] for _ in range(n)]
    for idx, (a, b) in enumerate(edges):
        if idx != e:
            out[a].append(b)
            into[b].append(a)
    # A walk from tail to origin that used e would pass origin first, so
    # searching G - e decides (a) as well.
    if origin in _closure(out, [tail]):
        return True
    ancestors = _closure(into, [origin])
    descendants = _closure(out, [tail])
    return not _closure(out, ancestors).isdisjoint(descendants)


# ---------------------------------------------------------------------------
# Potential labelings and perturbations


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _elementary(k: int, i: int, j: int, c: int):
    return tuple(tuple(1 if r == s else (c if (r, s) == (i, j) else 0) for s in range(k)) for r in range(k))


def _unimodular_pair(k: int, rng: random.Random):
    """A random unimodular matrix and its exact inverse, as elementary products."""
    ident = _elementary(k, 0, 0, 0)
    forward, backward = ident, ident
    for _ in range(2 if k == 2 else 3):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-1, 1))
        forward = _matmul(forward, _elementary(k, i, j, c))
        backward = _matmul(_elementary(k, i, j, -c), backward)
    return forward, backward


def potential_labels(family: str, n: int, edges, rng: random.Random):
    """(monoid, labels, perturb) for a commuting labeling of the given edges.

    ``perturb(label)`` returns a label that differs from ``label`` by a
    non-identity group element, so it breaks every relation through the edge.
    """
    if family == "free":
        return FREE, [word()] * len(edges), lambda label: word(rng.randrange(4))
    if family == "additive":
        phi = [Fraction(rng.randint(-99, 99), rng.randint(1, 6)) for _ in range(n)]
        labels = [number(phi[t] - phi[o]) for o, t in edges]
        return ADDITIVE, labels, lambda label: number(label.value + rng.choice((-3, -1, 1, 2)))
    k = {"mat2": 2, "mat8": 8}[family]
    pairs = [_unimodular_pair(k, rng) for _ in range(n)]
    labels = [IntMatrix(_matmul(pairs[o][1], pairs[t][0])) for o, t in edges]

    def perturb(label):
        i, j = rng.sample(range(k), 2)
        return IntMatrix(_matmul(label.entries, _elementary(k, i, j, rng.choice((-1, 1)))))

    return matrix_monoid(k), labels, perturb


def random_edges(n: int, m: int, rng: random.Random):
    """Uniform endpoints; loops and parallel edges arise naturally."""
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]


def first_roots(n: int, edges) -> list:
    """For each vertex, the lowest-numbered vertex that reaches it.

    The verifier searches from roots in ascending order, so a violation on
    an edge out of v can show up no earlier than the search from this root.
    """
    out = [[] for _ in range(n)]
    for o, t in edges:
        out[o].append(t)
    first = [-1] * n
    for root in range(n):
        if first[root] == -1:
            for v in _closure(out, [root]):
                if first[v] == -1:
                    first[v] = root
    return first


def potential_pair(tag: str, family: str, n: int, edges, rng: random.Random, want_reject: bool = True):
    """A commuting potential diagram and its twin with one perturbed edge.

    With ``want_reject`` the twin carries a planted violation: the perturbed
    edge is drawn among the rejecting edges that the verifier's ascending
    root order reaches last, so the twin runs the longest early exit the
    graph allows.  Without it a random edge is perturbed and the rule gives
    the answer either way.  Returns ``[(key, diagram, commutes), ...]``.
    """
    monoid, labels, perturb = potential_labels(family, n, edges, rng)
    graph = OrientedGraph(n, edges)
    cases = [(f"{tag}/{family}", Diagram(graph, monoid, labels), True)]
    if not edges:
        return cases
    order = list(range(len(edges)))
    rng.shuffle(order)
    e = order[0]
    if want_reject:
        first = first_roots(n, edges)
        order.sort(key=lambda x: -first[edges[x][0]])
        e = next((x for x in order if perturbation_rejects(n, edges, x)), None)
        if e is None:
            return cases
    twin = list(labels)
    twin[e] = perturb(labels[e])
    rejects = perturbation_rejects(n, edges, e)
    cases.append((f"{tag}/{family}/twin", Diagram(graph, monoid, twin), not rejects))
    return cases


# ---------------------------------------------------------------------------
# Triploid inputs


def stripped_triploid(n: int, m: int):
    params = constructions.choose_triploid(n, m)
    return params, graph_mod.strip_loops(constructions.triploid(params))


def triploid_fixtures(tag: str, params, stripped, rng: random.Random):
    """nz-edge (commutes) and rhomboid-gap (rejects) on a stripped triploid.

    Only the search from a square's first corner can see its gap, so, like
    the twins' planted violations, the square is drawn among those whose
    first corner the ascending root order reaches last.
    """
    edge = rng.randrange(stripped.edge_count)
    cases = [(f"{tag}/nz-edge", adversarial.nz_edge_labeling(stripped, edge), True)]
    family = constructions.explicit_rhomboid_family(params)
    if family:
        last = max(stripped.origin(r.a) for r in family)
        square = rng.choice([r for r in family if stripped.origin(r.a) == last])
        cases.append((f"{tag}/rhomboid-gap", adversarial.rhomboid_gap_labeling(stripped, square), False))
    return cases


def walk_count(n: int, edges, limit: int) -> int:
    """Walks of length at most n from every vertex, capped just above limit;
    the oracle's work on a commuting input."""
    out = [[] for _ in range(n)]
    for o, t in edges:
        out[o].append(t)
    total = 0
    for root in range(n):
        layer = {root: 1}
        total += 1
        for _ in range(n):
            nxt: dict = {}
            for v, count in layer.items():
                for u in out[v]:
                    nxt[u] = nxt.get(u, 0) + count
            layer = nxt
            total += sum(layer.values())
            if total > limit or not layer:
                break
        if total > limit:
            return total
    return total
