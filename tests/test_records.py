"""The observable surface of every record the package defines: repr,
equality, hashing, pickling, copying and frozenness."""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from diagcheck import (
    ADDITIVE,
    FREE,
    AdditiveNumber,
    Counters,
    Diagram,
    FreeWord,
    IntMatrix,
    MultiEdgeMismatch,
    NonIdentityLoop,
    OrientedGraph,
    Path,
    PathMismatch,
    RelationTrace,
    TriploidParams,
    VerificationReport,
    build,
    matrix,
    matrix_monoid,
    number,
    verify,
    word,
)
from diagcheck.monoid import AdditiveMonoid, FreeMonoid, MatrixMonoid

from .conftest import rhomboid_square_graph

_GRAPH = build(2, [(0, 1), (0, 1), (1, 1)])
_PATH1 = Path((1,), 0, 1)
_PATH2 = Path((0,), 0, 1)


def _report():
    trace = RelationTrace([((0,), (1,))], [((), (0,))])
    return VerificationReport(False, Counters(1, 2, 3, 4), 5, MultiEdgeMismatch(1, 0), trace)


# (record, its exact repr, an equal record built separately, an unequal record)
_FROZEN = {
    "OrientedGraph": (_GRAPH, "OrientedGraph(vertices=2, edges=3)", build(2, [(0, 1), (0, 1), (1, 1)]),
                      build(2, [(0, 1), (1, 1), (0, 1)])),
    "Path": (_PATH1, "Path(edges=(1,), origin=0, tail=1)", Path([1], 0, 1), Path((1,), 0, 0)),
    "FreeWord": (word(1, 2), "FreeWord(letters=(1, 2))", FreeWord((1, 2)), word(2, 1)),
    "AdditiveNumber": (number(3), "AdditiveNumber(value=Fraction(3, 1))", number(Fraction(6, 2)), number(-3)),
    "IntMatrix": (matrix(((1, 2), (3, 4))), "IntMatrix(entries=((1, 2), (3, 4)))", IntMatrix([[1, 2], [3, 4]]),
                  matrix(((1, 2), (3, 5)))),
    "FreeMonoid": (FREE, "FreeMonoid()", FreeMonoid(), ADDITIVE),
    "AdditiveMonoid": (ADDITIVE, "AdditiveMonoid()", AdditiveMonoid(), FREE),
    "MatrixMonoid": (matrix_monoid(2), "MatrixMonoid(k=2)", MatrixMonoid(2), matrix_monoid(3)),
    "Diagram": (Diagram(_GRAPH, FREE, [word(1), word(1), word()]),
                "Diagram(OrientedGraph(vertices=2, edges=3), monoid={'family': 'free'})",
                Diagram(build(2, [(0, 1), (0, 1), (1, 1)]), FREE, [word(1), word(1), word()]),
                Diagram(_GRAPH, FREE, [word(1), word(2), word()])),
    "NonIdentityLoop": (NonIdentityLoop(3), "NonIdentityLoop(edge=3)", NonIdentityLoop(3), NonIdentityLoop(2)),
    "MultiEdgeMismatch": (MultiEdgeMismatch(2, 1), "MultiEdgeMismatch(edge=2, kept=1)", MultiEdgeMismatch(2, 1),
                          MultiEdgeMismatch(1, 2)),
    "PathMismatch": (PathMismatch(_PATH1, _PATH2),
                     "PathMismatch(path1=Path(edges=(1,), origin=0, tail=1), path2=Path(edges=(0,), origin=0, tail=1))",
                     PathMismatch(Path((1,), 0, 1), Path((0,), 0, 1)), PathMismatch(_PATH2, _PATH1)),
    "TriploidParams": (TriploidParams(1, 2, 1, 0, 4), "TriploidParams(n1=1, n2=2, n3=1, n0=0, e=4)",
                       TriploidParams(n1=1, n2=2, n3=1, n0=0, e=4), TriploidParams(1, 2, 1, 0, 5)),
}

_MUTABLE = {
    "Counters": (Counters(), "Counters(eq_loops=0, eq_multi=0, eq_dfs=0, mult_dfs=0)",
                 Counters(eq_loops=0, eq_multi=0, eq_dfs=0, mult_dfs=0), Counters(0, 0, 0, 1)),
    "RelationTrace": (RelationTrace(), "RelationTrace(relations=[], products=[])", RelationTrace([], []),
                      RelationTrace([((0,), ())])),
    "VerificationReport": (
        _report(),
        "VerificationReport(commutative=False, counters=Counters(eq_loops=1, eq_multi=2, eq_dfs=3, mult_dfs=4), "
        "reduced_edges=5, witness=MultiEdgeMismatch(edge=1, kept=0), "
        "trace=RelationTrace(relations=[((0,), (1,))], products=[((), (0,))]))",
        _report(),
        VerificationReport(False, Counters(1, 2, 3, 4), 5, MultiEdgeMismatch(1, 0)),
    ),
}

_ALL = {**_FROZEN, **_MUTABLE}


def test_every_record_is_pinned():
    assert len(_ALL) == 16
    for name, (record, *_) in _ALL.items():
        assert type(record).__name__ == name


@pytest.mark.parametrize("name", list(_ALL))
def test_repr_is_exact(name):
    record, text, twin, _ = _ALL[name]
    assert repr(record) == text
    assert repr(twin) == text


@pytest.mark.parametrize("name", list(_ALL))
def test_equality_compares_the_fields_of_one_class(name):
    record, _, twin, other = _ALL[name]
    assert record == twin and not record != twin
    assert record != other and not record == other
    # Two records of different classes are never equal, whatever their fields.
    assert record != (record,) and record.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("name", list(_FROZEN))
def test_frozen_records_hash_like_their_equality(name):
    record, _, twin, _ = _FROZEN[name]
    assert hash(record) == hash(twin)
    assert {record, twin} == {record}


@pytest.mark.parametrize("name", list(_MUTABLE))
def test_mutable_records_are_unhashable(name):
    record = _MUTABLE[name][0]
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


def test_equalities_between_instances_and_families():
    assert FREE == FreeMonoid() and ADDITIVE == AdditiveMonoid()
    assert hash(FREE) == hash(FreeMonoid()) == hash(()) == hash(ADDITIVE)
    assert FREE != ADDITIVE
    assert matrix_monoid(2) == MatrixMonoid(2) and hash(matrix_monoid(2)) == hash((2,))
    assert NonIdentityLoop(1) != MultiEdgeMismatch(1, 1)
    assert hash(number(Fraction(-3, 4))) == hash((-3, 4))
    assert hash(word(1, 2)) == hash(((1, 2),))
    assert hash(_PATH1) == hash(((1,), 0, 1))
    assert hash(TriploidParams(1, 2, 1, 0, 4)) == hash((1, 2, 1, 0, 4))


@pytest.mark.parametrize("name", list(_ALL))
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(name, protocol):
    record = _ALL[name][0]
    clone = pickle.loads(pickle.dumps(record, protocol))
    assert type(clone) is type(record) and clone == record and repr(clone) == repr(record)


@pytest.mark.parametrize("name", list(_ALL))
def test_deepcopy_and_copy_round_trip(name):
    record = _ALL[name][0]
    for clone in (copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is type(record) and clone == record and repr(clone) == repr(record)


def test_records_pickle_as_calls_to_their_constructors():
    diagram = _FROZEN["Diagram"][0]
    assert diagram.__reduce__() == (Diagram, (_GRAPH, FREE, diagram.labels))
    assert _GRAPH.__reduce__() == (OrientedGraph, (2, ((0, 1), (0, 1), (1, 1))))
    assert matrix_monoid(5).__reduce__() == (MatrixMonoid, (5,))
    assert _report().__reduce__()[0] is VerificationReport
    # An additive number's constructor takes its value, not its pair.
    assert number(Fraction(-3, 4)).__reduce__() == (AdditiveNumber, (Fraction(-3, 4),))


def test_copied_monoids_still_multiply():
    for mon in (FREE, ADDITIVE, matrix_monoid(2), matrix_monoid(5)):
        for clone in (pickle.loads(pickle.dumps(mon)), copy.deepcopy(mon)):
            one = clone.identity()
            assert clone.eq(one, mon.identity()) and clone.op(one, one) == mon.identity()


def test_copied_report_is_independent():
    report = verify(Diagram(rhomboid_square_graph(), FREE, [word(1), word(2), word(1), word(2)]), trace=True)
    clone = copy.deepcopy(report)
    clone.counters.eq_dfs += 1
    clone.trace.relations.append(((), ()))
    assert clone != report and report.counters.eq_dfs == 1 and len(report.trace.relations) == 1


def test_mutable_records_accept_field_writes():
    counters = Counters()
    counters.eq_loops += 2
    assert counters == Counters(eq_loops=2)
    report = _report()
    report.witness = None
    report.commutative = True
    assert report.witness is None and report.commutative


@pytest.mark.parametrize("name", list(_FROZEN))
def test_frozen_records_refuse_every_write_and_delete(name):
    record = _FROZEN[name][0]
    names = [attr for attr in dir(record) if not attr.startswith("__")]
    for attribute in ("extra", *names):
        with pytest.raises(FrozenInstanceError):
            setattr(record, attribute, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(record, attribute)
    assert record == _FROZEN[name][2]


def test_constructors_take_their_fields_by_keyword():
    assert Path(edges=(1,), origin=0, tail=1) == _PATH1
    assert NonIdentityLoop(edge=3) == NonIdentityLoop(3)
    assert MultiEdgeMismatch(edge=2, kept=1) == MultiEdgeMismatch(2, 1)
    assert PathMismatch(path1=_PATH1, path2=_PATH2) == PathMismatch(_PATH1, _PATH2)
    assert VerificationReport(commutative=True, counters=Counters(), reduced_edges=0) == VerificationReport(
        True, Counters(), 0, None, None
    )
    assert RelationTrace().relations is not RelationTrace().relations
    assert FreeWord(letters=[1]) == word(1) and IntMatrix(entries=((1,),)) == matrix(((1,),))
    assert MatrixMonoid(k=3) == matrix_monoid(3)
    assert OrientedGraph(vertex_count=1, edge_list=[(0, 0)]) == build(1, [(0, 0)])
    assert AdditiveNumber(value=Fraction(1, 2)) == number(Fraction(1, 2))
    assert Diagram(graph=_GRAPH, monoid=FREE, labels=[word()] * 3) == Diagram(_GRAPH, FREE, [word()] * 3)
