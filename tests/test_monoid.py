"""Monoid laws and the exact value families."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from diagcheck import (
    ADDITIVE,
    FREE,
    AdditiveNumber,
    FreeWord,
    IntMatrix,
    MonoidMismatchError,
    eq,
    identity,
    identity_matrix,
    matrix,
    matrix_monoid,
    matrix_unit,
    number,
    op,
    upper_unitriangular,
    word,
    zero_matrix,
)
from diagcheck.monoid import _INT_SUM, MatrixMonoid


def test_identities():
    assert identity(matrix_monoid(2)) == matrix(((1, 0), (0, 1)))
    assert identity(FREE) == word()
    assert identity(ADDITIVE) == number(0)


def test_matrix_unit_refuses_non_integer_arguments():
    assert matrix_unit(2, 1, 0) == matrix(((0, 0), (1, 0)))
    for args in ((2, 0.5, 0), (2, True, False), (2, 0, 1.0), (2.0, 0, 0), (True, 0, 0)):
        with pytest.raises(ValueError, match="matrix unit dimension and position must be integers"):
            matrix_unit(*args)
    for args in ((2, 2, 0), (2, 0, -1), (0, 0, 0)):
        with pytest.raises(ValueError, match="matrix unit position out of range"):
            matrix_unit(*args)


def test_matrix_unit_products():
    assert op(matrix_unit(3, 0, 1), matrix_unit(3, 1, 2)) == matrix_unit(3, 0, 2)
    assert op(matrix_unit(3, 1, 2), matrix_unit(3, 0, 1)) == zero_matrix(3)


def test_unitriangular_products_add_corners():
    assert op(upper_unitriangular(3), upper_unitriangular(4)) == upper_unitriangular(7)
    assert op(upper_unitriangular(1), upper_unitriangular(-1)) == identity_matrix(2)


def test_word_concatenation():
    assert op(word(0, 1), word(2)) == word(0, 1, 2)
    assert not eq(word(0, 1), word(1, 0))


def test_eq_examples():
    assert not eq(matrix_unit(2, 0, 1), zero_matrix(2))
    assert eq(identity_matrix(2), identity_matrix(2))
    assert eq(number(Fraction(1, 2)), number(Fraction(2, 4)))


def test_additive_negate():
    a = number(Fraction(3, 7))
    assert eq(op(a, a.negate()), identity(ADDITIVE))


def test_instance_mismatch_raises():
    with pytest.raises(MonoidMismatchError):
        op(word(1), number(1))
    with pytest.raises(MonoidMismatchError):
        eq(matrix_unit(2, 0, 1), matrix_unit(3, 0, 1))
    with pytest.raises(MonoidMismatchError):
        matrix_monoid(2).op(matrix_unit(2, 0, 0), matrix_unit(3, 0, 0))


def test_value_validation():
    with pytest.raises(ValueError):
        word(-1)
    with pytest.raises(ValueError):
        matrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        IntMatrix(())
    with pytest.raises(ValueError):
        AdditiveNumber(1.5)


def _random_value(rng, family):
    if family == "free":
        return word(*(rng.randrange(5) for _ in range(rng.randint(0, 4))))
    if family == "additive":
        return number(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    k = rng.choice((2, 3))
    return IntMatrix(tuple(tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(k)))


@pytest.mark.parametrize("family", ["free", "additive", "matrix"])
def test_associativity_1000_random_triples(family):
    rng = random.Random(1234)
    for _ in range(1000):
        if family == "matrix":
            k = rng.choice((2, 3))
            a, b, c = (
                IntMatrix(tuple(tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(k)))
                for _ in range(3)
            )
        else:
            a, b, c = (_random_value(rng, family) for _ in range(3))
        assert eq(op(op(a, b), c), op(a, op(b, c)))


@pytest.mark.parametrize("family", ["free", "additive", "matrix"])
def test_identity_laws_1000_random_values(family):
    rng = random.Random(4321)
    for _ in range(1000):
        a = _random_value(rng, family)
        one = identity(a.monoid)
        assert eq(op(one, a), a)
        assert eq(op(a, one), a)


def test_three_vanishing_unit_pool():
    # Any triple product out of {E(0,1), E(1,2), 0} lands on the zero matrix.
    pool3 = (matrix_unit(3, 0, 1), matrix_unit(3, 1, 2), zero_matrix(3))
    for a, b, c in itertools.product(pool3, repeat=3):
        assert eq(op(op(a, b), c), zero_matrix(3))
    pool2 = (matrix_unit(2, 0, 1), zero_matrix(2))
    for a, b, c in itertools.product(pool2, repeat=3):
        assert eq(op(op(a, b), c), zero_matrix(2))


def test_zero_matrix_absorbs():
    rng = random.Random(7)
    zero = zero_matrix(3)
    for _ in range(50):
        a = IntMatrix(tuple(tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3)))
        assert eq(op(zero, a), zero)
        assert eq(op(a, zero), zero)


_words = st.builds(FreeWord, st.lists(st.integers(min_value=0, max_value=9), max_size=6).map(tuple))


@given(_words, _words, _words)
def test_free_word_associativity(a, b, c):
    assert op(op(a, b), c) == op(a, op(b, c))


def test_large_matrix_entries_stay_exact():
    big = matrix(((10**30, 0), (0, 10**30)))
    product = op(big, big)
    assert product.entries[0][0] == 10**60


# ---------------------------------------------------------------------------
# Descriptor kernels build products without re-validation; these tests pin
# them to the public, validating constructors.

_big = st.integers(min_value=2**64, max_value=2**70)
_entries = st.one_of(st.integers(min_value=-5, max_value=5), _big, _big.map(lambda x: -x))
_letters = st.lists(st.one_of(st.integers(min_value=0, max_value=9), _big), max_size=6)
_rationals = st.one_of(st.integers(min_value=-9, max_value=9), _big, st.fractions())


_coefficients = st.one_of(st.sampled_from((1, 1, -1, 2)), _entries.filter(bool))


@st.composite
def _rows(draw, k):
    # The nonzero counts give the row kernel every kind of row: zero rows, one
    # nonzero (b's row reused or scaled), two, about half and all nonzeros (that
    # many of b's rows combined).
    nonzeros = draw(st.sampled_from(sorted({0, 1, min(2, k), k // 2, k // 2 + 1, k})))
    row = [0] * k
    for t in draw(st.permutations(range(k)))[:nonzeros]:
        row[t] = draw(_coefficients)
    return row


@st.composite
def _matrices(draw, k):
    kind = draw(st.sampled_from(("rows", "rows", "unit", "zero", "dense")))
    if kind == "unit":
        return matrix_unit(k, draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1)))
    if kind == "zero":
        return zero_matrix(k)
    row = _rows(k) if kind == "rows" else st.lists(_entries, min_size=k, max_size=k)
    return matrix(draw(st.lists(row, min_size=k, max_size=k)))


@st.composite
def _matrix_pairs(draw):
    k = draw(st.sampled_from((1, 2, 3, 4, 8)))
    return draw(_matrices(k)), draw(_matrices(k))


def _reference_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    k = a.k
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            for t in range(k):
                rows[i][j] += a.entries[i][t] * b.entries[t][j]
    return matrix(rows)


def _assert_equals_validated(mon, product, expected):
    assert product == expected
    assert hash(product) == hash(expected)
    assert mon.owns(product)
    assert mon.eq(product, expected)


@given(_letters, _letters)
def test_free_kernel_equals_validated_construction(x, y):
    a, b = FreeWord(tuple(x)), FreeWord(tuple(y))
    product = FREE.op(a, b)
    _assert_equals_validated(FREE, product, FreeWord(a.letters + b.letters))
    assert type(product.letters) is tuple


@given(_rationals, _rationals)
def test_additive_kernel_equals_validated_construction(x, y):
    a, b = number(x), number(y)
    product = ADDITIVE.op(a, b)
    _assert_equals_validated(ADDITIVE, product, AdditiveNumber(a.value + b.value))
    assert type(product.value) is Fraction


_B4 = matrix(((1, -2, 3, 2**64), (0, 5, 0, -7), (2**70, 1, 1, 1), (-1, 0, 0, 9)))


@given(_matrix_pairs())
# One example per kernel: the unrolled k = 2 and k = 3 formulas, and for the
# row kernel each kind of row: a fully dense row, a dense row holding a zero,
# a zero row, a single coefficient of 1 (b's row reused), a single other
# coefficient, two nonzeros, and k = 1.
@example((matrix(((1, -2), (2**64, 3))), matrix(((0, 5), (-1, 2**65)))))
@example((matrix(((1, 0, -2), (0, 0, 0), (3, 2**64, 1))), matrix(((2, 1, 0), (0, -1, 4), (5, 0, 2**66)))))
@example((matrix(((2, -3, 2**64, 5),) * 4), _B4))
@example((matrix(((2, 0, 1, 3),) * 4), _B4))
@example((zero_matrix(4), _B4))
@example((matrix_unit(4, 1, 2), _B4))
@example((matrix(((0, 0, 0, -(2**64)),) * 4), _B4))
@example((matrix(((0, 1, 0, -3),) * 4), _B4))
@example((matrix(((0,),)), matrix(((7,),))))
@example((matrix(((-3,),)), matrix(((2**64,),))))
def test_matrix_kernel_equals_validated_construction(pair):
    a, b = pair
    mon = matrix_monoid(a.k)
    product = mon.op(a, b)
    _assert_equals_validated(mon, product, _reference_product(a, b))
    assert type(product.entries) is tuple
    assert all(type(row) is tuple and len(row) == a.k for row in product.entries)
    assert all(type(x) is int for row in product.entries for x in row)


def test_matrix_kernels_by_dimension():
    assert matrix_monoid(2)._kernel.op.__name__ == "_mul_2"
    assert matrix_monoid(3)._kernel.op.__name__ == "_mul_3"
    assert {matrix_monoid(k)._kernel.op.__name__ for k in (1, 4, 8, 16)} == {"_mul_rows"}


def test_row_kernel_reuses_rows_for_a_coefficient_of_one():
    a = matrix(((0, 0, 1, 0), (0, 0, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0)))
    product = matrix_monoid(4).op(a, _B4)
    assert product == _reference_product(a, _B4)
    assert product.entries[0] is _B4.entries[2]


_signed_big = st.one_of(_big, _big.map(lambda x: -x))
_additive_operands = st.one_of(
    st.integers(min_value=-9, max_value=9),
    _signed_big,
    st.fractions(),
    # Small denominators share factors often, which the reduced-sum steps need.
    st.builds(Fraction, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=12)),
    st.builds(Fraction, _signed_big, st.integers(min_value=1, max_value=2**70)),
)


@given(_additive_operands, st.one_of(_additive_operands, st.just(None)))
# Examples for the kernel's cases: equal denominators that reduce, coprime
# denominators, a shared factor with and without a second reduction, and a
# sum of zero.
@example(Fraction(1, 6), Fraction(1, 6))
@example(Fraction(1, 2), Fraction(-1, 3))
@example(Fraction(1, 6), Fraction(1, 4))
@example(Fraction(1, 6), Fraction(1, 3))
@example(Fraction(-5, 12), Fraction(5, 12))
def test_additive_kernel_is_normalized_fraction_addition(x, y):
    y = x if y is None else y
    a, b = number(x), number(y)
    product = ADDITIVE.op(a, b)
    assert product.value == x + y
    assert type(product.num) is int and type(product.den) is int
    assert product.den > 0 and gcd(product.num, product.den) == 1
    assert product == number(x + y) and hash(product) == hash(number(x + y))
    assert ADDITIVE.eq(product, number(x + y))
    assert ADDITIVE.eq(a, b) == (Fraction(x) == Fraction(y))


# Denominators up to 2**70, so three of them have a common multiple far
# below the cap and every run of them scales.
_scalable_operands = st.one_of(
    st.integers(min_value=-9, max_value=9),
    _signed_big,
    st.builds(Fraction, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=12)),
    st.builds(Fraction, _signed_big, st.integers(min_value=1, max_value=2**70)),
)


@given(_scalable_operands, st.one_of(_scalable_operands, st.just(None)))
@example(Fraction(1, 6), Fraction(1, 6))
@example(Fraction(1, 6), Fraction(2, 12))
@example(Fraction(-5, 12), Fraction(5, 12))
@example(Fraction(1, 2**70), Fraction(1, 2**70 - 1))
def test_additive_run_scaling_is_additive_and_injective(x, y):
    y = x if y is None else y
    labels = [number(x), number(y), number(x + y), ADDITIVE.identity()]
    kernel, (sx, sy, sxy, zero) = ADDITIVE._run(labels)
    assert kernel is _INT_SUM
    assert kernel.op(sx, sy) == sxy and zero == kernel.identity() == 0
    assert kernel.eq(sx, sy) is (Fraction(x) == Fraction(y))


@pytest.mark.parametrize("value", [word(1, 2), number(Fraction(-3, 4)), matrix(((1, 2), (3, 4)))])
def test_values_pickle_copy_and_stay_frozen(value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
        assert value.monoid.eq(clone, value)
    for name in (type(value).__match_args__[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_free_product_with_the_empty_word_is_the_other_operand():
    w = word(3, 1, 4)
    assert FREE.op(w, word()) is w
    assert FREE.op(word(), w) is w
    assert FREE.op(w, FREE.identity()) is w


def test_free_product_never_returns_a_subclass_operand():
    class Word(FreeWord):
        pass

    for product in (FREE.op(Word((1, 2)), word()), FREE.op(word(), Word((1, 2)))):
        assert type(product) is FreeWord
        assert product == word(1, 2)


def test_descriptor_methods_accept_subclass_operands():
    class Word(FreeWord):
        pass

    assert FREE.op(Word((1,)), word(2)) == word(1, 2)
    assert FREE.eq(word(1), Word((1,)))


_FOREIGN = [
    (FREE, word(1), number(1)),
    (FREE, word(1), matrix_unit(2, 0, 1)),
    (FREE, word(1), (1,)),
    (FREE, word(1), 1),
    (ADDITIVE, number(1), word(1)),
    (ADDITIVE, number(1), 1),
    (ADDITIVE, number(1), Fraction(1)),
    (matrix_monoid(2), matrix_unit(2, 0, 1), matrix_unit(3, 0, 1)),
    (matrix_monoid(3), matrix_unit(3, 0, 1), matrix_unit(2, 0, 1)),
    (matrix_monoid(2), matrix_unit(2, 0, 1), word(1)),
    (matrix_monoid(2), matrix_unit(2, 0, 1), ((1, 0), (0, 1))),
    (matrix_monoid(2), matrix_unit(2, 0, 1), 1),
]


@pytest.mark.parametrize("method", ["op", "eq"])
@pytest.mark.parametrize("mon, own, foreign", _FOREIGN)
def test_descriptor_methods_refuse_foreign_operands(method, mon, own, foreign):
    call = getattr(mon, method)
    with pytest.raises(MonoidMismatchError, match="^expected an? "):
        call(foreign, own)
    with pytest.raises(MonoidMismatchError, match="^expected an? "):
        call(own, foreign)
    with pytest.raises(MonoidMismatchError, match="^expected an? "):
        call(foreign, foreign)


def test_constructor_argument_errors():
    with pytest.raises(ValueError, match="matrix entries must be exact integers"):
        IntMatrix(((1, 0), (0, 1.0)))
    with pytest.raises(ValueError, match="matrix dimension must be a positive integer"):
        matrix_monoid(0)
    with pytest.raises(ValueError, match="matrix unit position out of range"):
        matrix_unit(2, 2, 0)


@pytest.mark.parametrize("k", (True, False, 2.0, 0, -1, "2", None))
def test_matrix_dimension_must_be_a_positive_exact_integer(k):
    # ``True`` hashes like 1, so ``matrix_monoid`` checks before its cache.
    matrix_monoid(1)
    for build in (MatrixMonoid, matrix_monoid):
        with pytest.raises(ValueError, match="matrix dimension must be a positive integer"):
            build(k)


def test_additive_repr_shows_the_fraction():
    assert repr(number(Fraction(-3, 4))) == "AdditiveNumber(value=Fraction(-3, 4))"
