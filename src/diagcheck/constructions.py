"""Worst-case instance machinery: rhomboids, triploids, and rank bounds.

A rhomboid is a diagram square: four edges a, b, c, d with o(a)=o(c),
t(a)=o(b), t(c)=o(d), t(b)=t(d) on four distinct corner vertices.  Two
rhomboids are disjoint when they share no consecutive side pair.  A triploid
stacks three vertex rows with complete bipartite edge sets between rows 1-2
and 2-3, parks any excess edges as loops on the first row's first vertex,
and packs many pairwise-disjoint rhomboids; `choose_triploid` picks the
parameters realizing the lower-bound family for any vertex/edge budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .errors import BudgetExceededError, is_exact_int
from .graph import OrientedGraph, require_edge
from .verifier import bound_eq_checks, bound_mults

# Scale of the certified lower-bound constant: bounds are numerator / 2**14.
LOWER_BOUND_SCALE = 2**14


class Rhomboid(NamedTuple):
    a: int
    b: int
    c: int
    d: int


@dataclass(frozen=True)
class TriploidParams:
    """Row sizes (n1, n2, n3), isolated-vertex count n0, and total edges e."""

    n1: int
    n2: int
    n3: int
    n0: int
    e: int

    def __post_init__(self):
        for name in ("n1", "n2", "n3", "n0", "e"):
            value = getattr(self, name)
            if not is_exact_int(value) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer")
        if self.n1 == 0:
            raise ValueError("n1 must be positive (loops attach to the first row)")
        if self.e < self.n2 * (self.n1 + self.n3):
            raise ValueError("e must cover both complete bipartite blocks")

    @property
    def vertex_count(self) -> int:
        return self.n1 + self.n2 + self.n3 + self.n0

    @property
    def loops(self) -> int:
        return self.e - self.n2 * (self.n1 + self.n3)


def is_rhomboid(graph: OrientedGraph, a: int, b: int, c: int, d: int) -> bool:
    """Literal check of the square conditions plus corner distinctness."""
    for e in (a, b, c, d):
        require_edge(graph, e)
    origin, tail = graph.origin, graph.tail
    if origin(a) != origin(c) or tail(b) != tail(d):
        return False
    if tail(a) != origin(b) or tail(c) != origin(d):
        return False
    corners = {origin(a), tail(a), origin(d), tail(d)}
    return len(corners) == 4


def are_disjoint(first: Rhomboid, second: Rhomboid) -> bool:
    """No shared consecutive side pair, in either matching."""
    a, b, c, d = first
    a2, b2, c2, d2 = second
    return (
        (a != a2 or b != b2)
        and (a != c2 or b != d2)
        and (c != c2 or d != d2)
        and (c != a2 or d != b2)
    )


def triploid(params: TriploidParams) -> OrientedGraph:
    """Materialize a triploid with a deterministic id layout.

    Vertices: rows 1, 2, 3, then the isolated row.  Edges: the row-1 to
    row-2 block in (row, column) order, then the row-2 to row-3 block, then
    the loops.
    """
    n1, n2, n3 = params.n1, params.n2, params.n3
    row2 = n1
    row3 = n1 + n2
    edges = []
    for k in range(n1):
        for l in range(n2):
            edges.append((k, row2 + l))
    for k in range(n2):
        for l in range(n3):
            edges.append((row2 + k, row3 + l))
    edges.extend((0, 0) for _ in range(params.loops))
    return OrientedGraph(params.vertex_count, edges)


def explicit_rhomboid_family(params: TriploidParams) -> list[Rhomboid]:
    """The n1 * n3 * floor(n2/2) pairwise-disjoint rhomboids that route every
    top/bottom vertex pair through a dedicated pair of middle vertices."""
    n1, n2, n3 = params.n1, params.n2, params.n3
    block2 = n1 * n2
    family = []
    for i in range(n1):
        for pair in range(n2 // 2):
            left = 2 * pair
            right = 2 * pair + 1
            a = i * n2 + left
            c = i * n2 + right
            for k in range(n3):
                b = block2 + left * n3 + k
                d = block2 + right * n3 + k
                family.append(Rhomboid(a, b, c, d))
    return family


def _middle_row_size(n: int, m: int) -> int:
    # Least t with n - 2t <= 0 or n^2 - 4m >= (n - 2t)^2, that is
    # ceil((n - sqrt(max(0, n^2 - 4m))) / 2) without leaving the integers.
    return (n - isqrt(max(0, n * n - 4 * m)) + 1) // 2


def choose_triploid(n: int, m: int) -> TriploidParams:
    """Triploid parameters realizing the worst-case rhomboid family for an
    n-vertex, m-edge graph.

    The four parameter regimes overlap at their boundaries; the first match
    below wins, which keeps the selection deterministic.
    """
    if n < 4 or m < 4:
        raise ValueError("choose_triploid requires n, m >= 4")
    if m <= 16 or (n <= 16 and m <= n * n):
        return TriploidParams(1, 2, 1, n - 4, m)
    if 16 < m <= 2 * n - 4:
        q = m // 4
        return TriploidParams(q, 2, q, n - 2 * q - 2, m)
    if n > 16 and m > 16 and 2 * n - 4 < m <= n * n:
        t = _middle_row_size(n, m)
        q = (n - t) // 4
        return TriploidParams(q, t, q, n - 2 * q - t, m)
    # Regimes 1-3 cover every m <= n^2, so here n^2 < m.
    q = n // 4
    half = n // 2
    return TriploidParams(q, half, q, n - 2 * q - half, m)


def greedy_disjoint_rhomboids(graph: OrientedGraph, budget: int = 10**6) -> list[Rhomboid]:
    """First-fit pairwise-disjoint family over rhomboids enumerated in
    ascending (a, b, c, d) edge-id order.

    A lower-bound certificate for the best possible family, not a maximizer.
    Within each adjacency list edge ids ascend, so the four nested scans
    below enumerate candidate tuples in lexicographic order.
    """
    tail = graph.tail
    adjacency = graph.adjacency
    chosen: list[Rhomboid] = []
    # A candidate is disjoint from every chosen rhomboid exactly when neither
    # of its side pairs (a, b) and (c, d) is a side pair of a chosen one.
    used_sides: set[tuple[int, int]] = set()
    steps = 0
    for a in range(graph.edge_count):
        x, y = graph.edges[a]
        if x == y:
            continue
        for b in adjacency[y]:
            w = tail(b)
            if w == y or w == x:
                continue
            for c in adjacency[x]:
                z = tail(c)
                if z == x or z == y or z == w:
                    continue
                for d in adjacency[z]:
                    steps += 1
                    if steps > budget:
                        raise BudgetExceededError(f"rhomboid enumeration budget of {budget} exceeded")
                    if tail(d) != w:
                        continue
                    if (a, b) not in used_sides and (c, d) not in used_sides:
                        used_sides.add((a, b))
                        used_sides.add((c, d))
                        chosen.append(Rhomboid(a, b, c, d))
    return chosen


def rank_bounds(n: int, m: int) -> dict:
    """Closed-form bounds on the minimum relation-system size (eta) and the
    minimum product count (nu) for any n-vertex, m-edge graph.

    Uppers are exact integers; lowers are exact rationals over 2**14.
    """
    if n < 1 or m < 1:
        raise ValueError("rank_bounds requires n, m >= 1")
    base = min(n * n, m) * min(n, m)
    return {
        "eta_upper": bound_eq_checks(n, m),
        "nu_upper": bound_mults(n, m),
        "eta_lower": Fraction(base + m, LOWER_BOUND_SCALE),
        "nu_lower": Fraction(base, LOWER_BOUND_SCALE),
    }


def verify_nu_ge(n: int, m: int) -> dict:
    """Check both certified lower-bound inequalities for the (n, m) triploid
    in exact rational arithmetic.  The rhomboid family size and the loop
    count are the closed forms that `explicit_rhomboid_family` and
    `triploid` realize, so nothing is materialized."""
    params = choose_triploid(n, m)
    rh = params.n1 * params.n3 * (params.n2 // 2)
    bounds = rank_bounds(n, m)
    return {
        "params": params,
        "rh_family_size": rh,
        "loops": params.loops,
        "inequality_1_holds": rh + params.loops >= bounds["eta_lower"],
        "inequality_2_holds": rh >= bounds["nu_lower"],
    }
