"""The payload kernels ``verify`` and ``oracle_verify`` run the built-in
families on, against the boxed ``op``/``eq`` and against the boxed path."""

from __future__ import annotations

import copy
import json
import pickle
import random
from fractions import Fraction
from math import lcm

import pytest

from diagcheck import (
    ADDITIVE,
    FREE,
    Diagram,
    OrientedGraph,
    matrix,
    matrix_monoid,
    number,
    oracle_verify,
    validate_witness,
    verify,
    word,
)
from diagcheck import monoid as monoid_module
from diagcheck.graph import Path
from diagcheck.monoid import (
    _INT_SUM,
    _SCALE_CAP_BITS,
    AdditiveMonoid,
    FreeMonoid,
    MatrixMonoid,
    _add_pairs,
    _mul_rows,
)
from diagcheck.verifier import PathMismatch

from .conftest import boxed_diagram

MATRIX_KS = (1, 2, 3, 4, 8)
FAMILIES = ("free", "additive") + tuple(f"mat{k}" for k in MATRIX_KS)
KINDS = ("potential", "twin", "reduction")


def _monoid(family):
    if family == "free":
        return FREE
    if family == "additive":
        return ADDITIVE
    return matrix_monoid(int(family[3:]))


def _random_value(rng, family):
    if family == "free":
        return word(*(rng.randrange(3) for _ in range(rng.randint(0, 3))))
    if family == "additive":
        return number(Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
    k = int(family[3:])
    # Mostly-zero and dense rows both occur, so ``_mul_rows`` combines few and many rows.
    density = rng.choice((0.2, 0.5, 1.0))
    return matrix(tuple(
        tuple(rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(k)) for _ in range(k)
    ))


def _unimodular_pair(rng, k):
    """A k x k integer matrix with an integer inverse, and that inverse: a
    sign diagonal times a few shears."""
    mon = matrix_monoid(k)
    signs = matrix(tuple(tuple(rng.choice((1, -1)) if i == j else 0 for j in range(k)) for i in range(k)))
    p = pinv = signs
    for _ in range(rng.randint(0, 3) if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-2, -1, 1, 2))
        shear = [[int(r == s) for s in range(k)] for r in range(k)]
        unshear = [row[:] for row in shear]
        shear[i][j], unshear[i][j] = c, -c
        p = mon.op(p, matrix(shear))
        pinv = mon.op(matrix(unshear), pinv)
    return p, pinv


def _potential_labels(rng, family, edges, n):
    """Labels l(u -> v) with every path's product fixed by its endpoints; for
    free words only the edges ``u -> v`` whose potential prefixes v's keep."""
    mon = _monoid(family)
    if family == "free":
        base = [rng.randrange(3) for _ in range(4)]
        length = [rng.randint(0, 4) for _ in range(n)]
        edges = [(o, t) for o, t in edges if length[o] <= length[t]]
        return edges, [word(*base[length[o]:length[t]]) for o, t in edges]
    if family == "additive":
        phi = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        return edges, [number(phi[t] - phi[o]) for o, t in edges]
    pairs = [_unimodular_pair(rng, mon.k) for _ in range(n)]
    return edges, [mon.op(pairs[o][1], pairs[t][0]) for o, t in edges]


def _differential_diagram(seed, family, kind, max_vertices, max_edges):
    """A seeded diagram of one kind: a commuting potential labeling, the same
    with one random label replaced (a planted twin), or the same with a loop
    or a parallel edge made to disagree."""
    rng = random.Random(f"{seed}/{family}/{kind}")
    n = rng.randint(1, max_vertices)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, max_edges))]
    if kind == "reduction":
        origin = rng.randrange(n)
        # A loop, or a parallel copy of an edge; either is checked before the DFS.
        edges.append((origin, origin) if rng.random() < 0.5 or not edges else rng.choice(edges))
    edges, labels = _potential_labels(rng, family, edges, n)
    if labels and kind == "twin":
        labels[rng.randrange(len(labels))] = _random_value(rng, family)
    if labels and kind == "reduction":
        labels[-1] = _random_value(rng, family)
    return Diagram(OrientedGraph(n, edges), _monoid(family), labels)


def _without_trace(report_json):
    doc = json.loads(report_json)
    del doc["trace"]
    return doc


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_payload_path_reports_match_the_boxed_path(family, kind):
    verdicts = set()
    for seed in range(40):
        d = _differential_diagram(seed, family, kind, max_vertices=8, max_edges=20)
        # An additive run adds integers over its labels' common denominator.
        assert d._run.monoid is (_INT_SUM if family == "additive" else d.monoid._kernel)
        report = verify(d)
        boxed, counting = boxed_diagram(d)
        boxed_report = verify(boxed)
        assert report.to_json() == boxed_report.to_json()
        assert counting.op_calls == report.mult_total
        assert counting.eq_calls == report.eq_total
        traced_json = verify(d, trace=True).to_json()
        assert _without_trace(traced_json) == _without_trace(report.to_json())
        assert traced_json == verify(boxed_diagram(d)[0], trace=True).to_json()
        if not report.commutative:
            assert validate_witness(d, report.witness) is True
            assert validate_witness(boxed, report.witness) is True
        verdicts.add(report.commutative)
    if kind == "potential":
        assert verdicts == {True}
    else:
        assert False in verdicts


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_payload_path_oracle_matches_the_boxed_path(family, kind):
    for seed in range(25):
        d = _differential_diagram(seed, family, kind, max_vertices=4, max_edges=6)
        n = d.graph.vertex_count
        verdict = oracle_verify(d, n)
        assert verdict == oracle_verify(boxed_diagram(d)[0], n) == verify(d).commutative


@pytest.mark.parametrize("family", FAMILIES)
def test_built_in_families_run_every_check_on_the_kernel(family, monkeypatch):
    # The expected results come from the boxed path, before it is disabled.
    cases = []
    for seed in range(10):
        for kind in KINDS:
            d = _differential_diagram(seed, family, kind, max_vertices=4, max_edges=6)
            boxed = boxed_diagram(d)[0]
            cases.append((d, verify(boxed).witness, verify(boxed, trace=True).to_json()))

    def boxed_call(self, a, b):
        raise AssertionError("boxed op/eq called")

    for cls in (FreeMonoid, AdditiveMonoid, MatrixMonoid):
        monkeypatch.setattr(cls, "op", boxed_call)
        monkeypatch.setattr(cls, "eq", boxed_call)
    for d, witness, traced_json in cases:
        assert verify(d, trace=True).to_json() == traced_json
        assert oracle_verify(d, d.graph.vertex_count) is (witness is None)
        if witness is not None:
            assert validate_witness(d, witness) is True


# ---------------------------------------------------------------------------
# Each kernel against the boxed operation


def test_free_kernel_matches_the_boxed_op():
    kernel = FREE._kernel
    rng = random.Random(3)
    words = [word()] + [_random_value(rng, "free") for _ in range(20)]
    assert kernel.identity() == FREE.identity().letters
    for a in words:
        for b in words:
            assert kernel.op(kernel.payload(a), kernel.payload(b)) == FREE.op(a, b).letters
            assert kernel.eq(kernel.payload(a), kernel.payload(b)) is FREE.eq(a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        (Fraction(1, 2), Fraction(1, 3)),  # coprime denominators
        (Fraction(1, 6), Fraction(1, 4)),  # a common factor the sum keeps
        (Fraction(1, 6), Fraction(1, 6)),  # a common factor the sum cancels
        (Fraction(5, 12), Fraction(-5, 12)),  # a zero sum
        (Fraction(-7, 3), 4),
    ],
    ids=["gcd-1", "gcd-kept", "gcd-cancels", "zero", "integer"],
)
def test_add_pairs_matches_fractions_and_the_boxed_op(a, b):
    x, y = number(a), number(b)
    total = _add_pairs(ADDITIVE._kernel.payload(x), ADDITIVE._kernel.payload(y))
    assert total == (Fraction(a + b).numerator, Fraction(a + b).denominator)
    assert total == ADDITIVE._kernel.payload(ADDITIVE.op(x, y))


def test_additive_kernel_identity_and_eq():
    kernel = ADDITIVE._kernel
    assert kernel.identity() == kernel.payload(ADDITIVE.identity()) == (0, 1)
    assert kernel.eq(kernel.payload(number(Fraction(2, 4))), kernel.payload(number(Fraction(1, 2))))
    assert not kernel.eq(kernel.payload(number(Fraction(1, 2))), kernel.payload(number(Fraction(-1, 2))))


# ---------------------------------------------------------------------------
# Additive runs on integers over the labels' common denominator L


def _assert_runs_match_the_boxed_path(d):
    """``verify`` (plain and traced), ``oracle_verify`` and ``validate_witness``
    give on ``d`` what they give on its boxed copy, byte for byte."""
    boxed = boxed_diagram(d)[0]
    report = verify(d)
    assert report.to_json() == verify(boxed).to_json()
    assert verify(d, trace=True).to_json() == verify(boxed, trace=True).to_json()
    n = d.graph.vertex_count
    assert oracle_verify(d, n) is oracle_verify(boxed, n) is report.commutative
    if report.witness is not None:
        assert validate_witness(d, report.witness) is validate_witness(boxed, report.witness) is True
    return report


# Mersenne prime exponents p: with one vertex per p, the labels' common
# denominator L is the product of the primes 2^p - 1, of 4,095 bits, 4,096
# bits (the cap, still scaled) and 4,097 bits (past it).
_CAP_CASES = [
    ((2203, 1279, 521, 89, 3), 4095),
    ((3217, 607, 127, 107, 31, 7), 4096),
    ((2203, 1279, 521, 89, 3, 2), 4097),
]


def _prime_potential_diagram(exponents, planted):
    """The potential labeling phi(t) - phi(o), phi(v) = 1/(2^p_v - 1), on a
    path through every vertex, a shortcut from vertex 0 to each later one, a
    loop and a parallel edge; ``planted`` adds 1 to the last shortcut's label."""
    n = len(exponents)
    phi = [Fraction(1, 2**p - 1) for p in exponents]
    edges = [(v, v + 1) for v in range(n - 1)] + [(0, v) for v in range(2, n)] + [(1, 1), (0, 1)]
    labels = [number(phi[t] - phi[o]) for o, t in edges]
    if planted:
        shortcut = edges.index((0, n - 1))
        labels[shortcut] = number(labels[shortcut].value + 1)
    return Diagram(OrientedGraph(n, edges), ADDITIVE, labels)


@pytest.mark.parametrize("planted", [False, True], ids=["commuting", "planted"])
@pytest.mark.parametrize("exponents, bits", _CAP_CASES, ids=[f"{bits}-bits" for _, bits in _CAP_CASES])
def test_additive_runs_scale_up_to_the_cap(exponents, bits, planted):
    d = _prime_potential_diagram(exponents, planted)
    assert lcm(*(label.den for label in d.labels)).bit_length() == bits
    run = d._run
    if bits <= _SCALE_CAP_BITS:
        assert run.monoid is _INT_SUM
        assert all(type(x) is int for x in run.labels)
    else:
        assert run.monoid is ADDITIVE._kernel
        assert run.labels == [(label.num, label.den) for label in d.labels]
    report = _assert_runs_match_the_boxed_path(d)
    assert report.commutative is not planted
    if not planted:
        # Two paths with equal labels are no witness, on either path.
        n = len(exponents)
        along = Path(tuple(range(n - 1)), 0, n - 1)
        across = Path((d.graph.edges.index((0, n - 1)),), 0, n - 1)
        assert validate_witness(d, PathMismatch(along, across)) is False
        assert validate_witness(boxed_diagram(d)[0], PathMismatch(along, across)) is False


def test_additive_runs_without_fractions_add_the_numerators():
    edgeless = Diagram(OrientedGraph(3, []), ADDITIVE, [])
    assert edgeless._run == (edgeless.graph, _INT_SUM, [])
    assert _assert_runs_match_the_boxed_path(edgeless).commutative is True
    graph = OrientedGraph(3, [(0, 1), (1, 2), (0, 2), (2, 2), (0, 2)])
    for labels, commutative in (([2, -5, -3, 0, -3], True), ([2, -5, 10**30, 0, 10**30], False)):
        d = Diagram(graph, ADDITIVE, [number(x) for x in labels])
        run = d._run
        assert run.monoid is _INT_SUM and run.labels == labels
        assert _assert_runs_match_the_boxed_path(d).commutative is commutative


def _primes(count):
    """The first ``count`` primes, by a sieve up to the 20,000th's 224,737."""
    limit = 224_738
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    primes = [p for p in range(limit) if sieve[p]]
    assert len(primes) >= count
    return primes[:count]


def test_many_distinct_denominators_keep_the_pair_kernel_after_few_lcm_steps(monkeypatch):
    # A star of 20,000 edges, edge i labeled 1/p_i for the i-th prime: L would
    # have over 300,000 bits.  The lcm stops once it passes the cap, within a
    # few hundred steps whatever order the set of denominators takes.
    primes = _primes(20_000)
    star = OrientedGraph(len(primes) + 1, [(0, v) for v in range(1, len(primes) + 1)])
    labels = [number(Fraction(1, p)) for p in primes]
    steps = []
    real_lcm = monoid_module.lcm
    monkeypatch.setattr(monoid_module, "lcm", lambda a, b: steps.append(b) or real_lcm(a, b))
    # ``Diagram(...)`` builds the run, so the count starts before it.
    d = Diagram(star, ADDITIVE, labels)
    run = d._run
    assert run.monoid is ADDITIVE._kernel
    assert run.labels == [(1, p) for p in primes]
    # Any 430 distinct primes multiply to at least the product of the 430
    # primes below 3,000, which has 4,231 bits.
    assert len(steps) <= 430
    assert verify(d).to_json() == verify(boxed_diagram(d)[0]).to_json()


def _naive_product(a, b):
    k = len(a)
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(k)) for i in range(k))


def test_mul_rows_takes_sparse_and_dense_rows():
    # One row strategy serves every kind of row: row 0 is dense (all of b's
    # rows combined), row 1 has one entry of 1 (a shared row of b), row 2 one
    # entry of 3, row 3 is zero.
    a = ((1, 2, 3, 4), (0, 0, 1, 0), (0, 3, 0, 0), (0, 0, 0, 0))
    b = ((1, 0, 2, 0), (0, -1, 0, 5), (7, 0, 0, 1), (2, 2, 2, 2))
    assert _mul_rows(a, b) == _naive_product(a, b)
    assert _mul_rows(a, b)[1] is b[2]


def _assert_mul_rows_exact(a, b):
    product = _mul_rows(a, b)
    assert product == _naive_product(a, b)
    assert type(product) is tuple
    assert all(type(row) is tuple and len(row) == len(a) for row in product)
    assert all(type(x) is int for row in product for x in row)
    # A unit row of ``a`` takes ``b``'s row itself.
    for row, out in zip(a, product):
        nonzero = [t for t, c in enumerate(row) if c]
        if len(nonzero) == 1 and row[nonzero[0]] == 1:
            assert out is b[nonzero[0]]


def _sparse_rows(rng, k, density, values):
    return tuple(tuple(rng.choice(values) if rng.random() < density else 0 for _ in range(k)) for _ in range(k))


@pytest.mark.parametrize("table", ("filled", "empty"))
@pytest.mark.parametrize("k", (1, 4, 5, 8, 9))
def test_mul_rows_equals_the_naive_product(k, table, monkeypatch):
    # Without its unit-row table the kernel takes every row the long way, and
    # still returns ``b``'s row itself for a unit row.
    matrix_monoid(k)
    if table == "empty":
        monkeypatch.setattr(monoid_module, "_UNIT_ROWS", {})
    rng = random.Random(f"mul_rows/{k}")
    small = (-2, -1, 0, 1, 2)
    big = small + (2**64 + 1, -(2**70), 3**50)
    for density in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
        for values in (small, big):
            for _ in range(8):
                _assert_mul_rows_exact(_sparse_rows(rng, k, density, values), _sparse_rows(rng, k, 1.0, values))
    # Potential labels pinv[o] * p[t], as perfbench builds them, and the
    # products of consecutive ones along a path.
    pairs = [_unimodular_pair(rng, k) for _ in range(6)]
    labels = {(o, t): _mul_rows(pairs[o][1].entries, pairs[t][0].entries) for o in range(6) for t in range(6)}
    for (o, s), left in labels.items():
        for t in range(6):
            _assert_mul_rows_exact(left, labels[s, t])
            _assert_mul_rows_exact(pairs[o][0].entries, left)


@pytest.mark.parametrize("k", (1, 4, 5, 8, 9))
def test_mul_rows_takes_identity_rows_by_lookup(k):
    mon = matrix_monoid(k)
    assert all(monoid_module._UNIT_ROWS[row] == t for t, row in enumerate(mon.identity().entries))
    rng = random.Random(f"identity/{k}")
    b = _sparse_rows(rng, k, 0.5, (-2, -1, 1, 2, 2**65))
    product = _mul_rows(mon.identity().entries, b)
    assert product == b
    assert all(out is row for out, row in zip(product, b))
    permuted = tuple(mon.identity().entries[t] for t in rng.sample(range(k), k))
    assert all(out is b[row.index(1)] for row, out in zip(permuted, _mul_rows(permuted, b)))


def test_unpickled_matrix_monoid_fills_the_unit_row_table(monkeypatch):
    monkeypatch.setattr(monoid_module, "_UNIT_ROWS", {})
    mon = pickle.loads(pickle.dumps(matrix_monoid(6)))
    assert monoid_module._UNIT_ROWS == {row: t for t, row in enumerate(mon.identity().entries)}
    # The unrolled kernels read no table.
    pickle.loads(pickle.dumps(matrix_monoid(3)))
    assert len(monoid_module._UNIT_ROWS) == 6


@pytest.mark.parametrize("k", MATRIX_KS)
def test_matrix_kernel_matches_the_boxed_op(k):
    mon = matrix_monoid(k)
    kernel = mon._kernel
    rng = random.Random(k)
    values = [mon.identity()] + [_random_value(rng, f"mat{k}") for _ in range(12)]
    assert kernel.identity() == mon.identity().entries
    for a in values:
        for b in values:
            product = kernel.op(kernel.payload(a), kernel.payload(b))
            assert product == mon.op(a, b).entries == _naive_product(a.entries, b.entries)
            assert kernel.eq(kernel.payload(a), kernel.payload(b)) is mon.eq(a, b)


# ---------------------------------------------------------------------------
# Monoids that must keep the boxed path


class _RecordingFree(FreeMonoid):
    """A ``FreeMonoid`` subclass that overrides ``op`` and ``eq`` to count them."""

    def __init__(self):
        object.__setattr__(self, "calls", {"op": 0, "eq": 0})

    def op(self, a, b):
        self.calls["op"] += 1
        return super().op(a, b)

    def eq(self, a, b):
        self.calls["eq"] += 1
        return super().eq(a, b)


class _ForwardingMonoid:
    """A wrapper that counts ``op``/``eq`` and forwards every other attribute
    to the monoid it wraps, ``_kernel`` included."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = {"op": 0, "eq": 0}

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def identity(self):
        return self.inner.identity()

    def op(self, a, b):
        self.calls["op"] += 1
        return self.inner.op(a, b)

    def eq(self, a, b):
        self.calls["eq"] += 1
        return self.inner.eq(a, b)


_DISPATCH_CASES = [
    ("subclass", "free", lambda mon: _RecordingFree()),
    ("wrapper", "free", _ForwardingMonoid),
    ("wrapper", "additive", _ForwardingMonoid),
    ("wrapper", "mat2", _ForwardingMonoid),
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("wrap, family, make", _DISPATCH_CASES, ids=[f"{w}-{f}" for w, f, _ in _DISPATCH_CASES])
def test_subclasses_and_wrappers_keep_the_boxed_path(wrap, family, make, kind):
    for seed in range(15):
        plain = _differential_diagram(seed, family, kind, max_vertices=5, max_edges=10)
        monoid = make(plain.monoid)
        d = Diagram(plain.graph, monoid, plain.labels)
        assert d._run.monoid is monoid
        assert d._run.labels is d.labels
        report = verify(d)
        assert monoid.calls == {"op": report.mult_total, "eq": report.eq_total}
        assert report.to_json() == verify(plain).to_json()
        monoid.calls.update(op=0, eq=0)
        n = d.graph.vertex_count
        assert oracle_verify(d, n) == oracle_verify(plain, n)
        assert monoid.calls["op"] + monoid.calls["eq"] > 0 or d.graph.edge_count == 0


# ---------------------------------------------------------------------------
# The run view ``Diagram(...)`` builds once

# Every family, and additive labels just under and just past the cap.
_VIEW_CASES = [*FAMILIES, *(exponents for exponents, _ in _CAP_CASES[1:])]


@pytest.mark.parametrize(
    "case", _VIEW_CASES, ids=[*FAMILIES, *(f"additive-{bits}-bits" for _, bits in _CAP_CASES[1:])]
)
def test_diagram_builds_the_run_view_once_and_runs_only_read_it(monkeypatch, case):
    if case in FAMILIES:
        plain = _differential_diagram(3, case, "twin", max_vertices=6, max_edges=12)
    else:
        plain = _prime_potential_diagram(case, planted=True)
    calls = []
    family_type = type(plain.monoid)
    real_run = family_type._run
    monkeypatch.setattr(family_type, "_run", lambda self, labels: calls.append(labels) or real_run(self, labels))
    d = Diagram(plain.graph, plain.monoid, plain.labels)
    assert calls == [d.labels]
    assert d._run == plain._run
    report = verify(d)
    verify(d, trace=True)
    oracle_verify(d, d.graph.vertex_count)
    validate_witness(d, report.witness or PathMismatch(Path((), 0, 0), Path((), 0, 0)))
    assert len(calls) == 1


def test_additive_diagram_past_the_cap_pickles_and_copies():
    exponents, bits = _CAP_CASES[-1]
    assert bits > _SCALE_CAP_BITS
    d = _prime_potential_diagram(exponents, planted=True)
    assert d._run.monoid is ADDITIVE._kernel
    plain, traced = verify(d).to_json(), verify(d, trace=True).to_json()
    clones = [pickle.loads(pickle.dumps(d, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in [*clones, copy.deepcopy(d)]:
        assert clone == d
        assert clone._run.labels == d._run.labels
        assert verify(clone).to_json() == plain
        assert verify(clone, trace=True).to_json() == traced
