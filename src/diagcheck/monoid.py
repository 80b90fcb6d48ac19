"""Monoid instances and the exact value families used for edge labels.

Three families cover everything the verifier, the generators, and the tests
need: free words under concatenation, exact additive numbers, and k x k
integer matrices under multiplication.  All arithmetic is exact (Python
ints; rationals are reduced integer pairs), so equality is always decidable
and no tolerance parameter exists anywhere in the package.

Each family's arithmetic is written once, as a kernel on the raw payload a
value holds (a free word's ``letters``, an additive number's ``(num, den)``
pair, a matrix's ``entries``): ``_kernel`` is the family's monoid on
payloads, with no operand check.  ``verify``, ``oracle_verify`` and
``validate_witness`` run on it once a ``Diagram`` has checked every label.
Values are immutable and know their monoid instance; instances are small
descriptor objects exposing ``identity``, ``op`` and ``eq``, and the one
``op``/``eq`` they share is a checked adapter over the kernel: it checks both
operands, runs the kernel on their payloads and boxes the result.  Because
values are immutable, ``op`` may return one of its operands: ``FREE.op``
returns the other word when one word is empty.  Each matrix instance picks
its product kernel once, by k: unrolled formulas for k = 2 and 3, and for
any other k a row-by-row product that skips the zero entries of mostly-zero
rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd
from operator import add, attrgetter, mul
from typing import Callable, NamedTuple

from .errors import frozen, is_exact_int


class MonoidMismatchError(ValueError):
    """Operands or labels do not belong to the same monoid instance."""


# ---------------------------------------------------------------------------
# Values


@frozen
@dataclass(frozen=True, slots=True)
class FreeWord:
    """Element of the free monoid: a finite sequence of generator ids."""

    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        for x in self.letters:
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise ValueError("free-word letters must be non-negative integers")

    @property
    def monoid(self) -> "FreeMonoid":
        return FREE


@frozen
@dataclass(frozen=True, slots=True, init=False, repr=False)
class AdditiveNumber:
    """Exact rational under addition, held as a normalized integer pair:
    ``den > 0`` and ``gcd(num, den) == 1``, so equal values have equal pairs."""

    num: int
    den: int

    def __init__(self, value):
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise ValueError("additive value must be an int or a Fraction")
        value = Fraction(value)
        object.__setattr__(self, "num", value.numerator)
        object.__setattr__(self, "den", value.denominator)

    def __repr__(self):
        return f"AdditiveNumber(value={self.value!r})"

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def monoid(self) -> "AdditiveMonoid":
        return ADDITIVE

    def negate(self) -> "AdditiveNumber":
        return _additive(-self.num, self.den)


@frozen
@dataclass(frozen=True, slots=True)
class IntMatrix:
    """Square matrix of exact integers under multiplication."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if not rows:
            raise ValueError("matrix dimension must be at least 1")
        for row in rows:
            if len(row) != len(rows):
                raise ValueError("matrix must be square")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError("matrix entries must be exact integers")

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def monoid(self) -> "MatrixMonoid":
        return matrix_monoid(self.k)


# Trusted builders: a value holding an already-valid payload, set through the
# slot descriptors without re-validation.  Only for payloads valid by
# construction: products of valid values (each family is closed under its
# operation), the negation of a normalized pair, and the payloads
# ``diagram``'s parser has checked entry by entry (exact-``int`` tuples and
# normalized pairs).

_new = object.__new__
_set_letters = FreeWord.letters.__set__
_set_num = AdditiveNumber.num.__set__
_set_den = AdditiveNumber.den.__set__
_set_entries = IntMatrix.entries.__set__


def _free_word(letters: tuple) -> FreeWord:
    value = _new(FreeWord)
    _set_letters(value, letters)
    return value


def _additive(num: int, den: int) -> AdditiveNumber:
    value = _new(AdditiveNumber)
    _set_num(value, num)
    _set_den(value, den)
    return value


def _int_matrix(entries: tuple) -> IntMatrix:
    value = _new(IntMatrix)
    _set_entries(value, entries)
    return value


# ---------------------------------------------------------------------------
# Payload kernels.  ``_Kernel`` is a family's monoid on raw payloads, with no
# operand check: ``payload`` maps a checked value to its payload, and ``box``
# maps a product back to a value through the trusted builder.


class _Kernel(NamedTuple):
    one: object
    op: Callable
    eq: Callable
    payload: Callable
    box: Callable

    def identity(self):
        return self.one


def _add_pairs(a, b):
    """The sum of two normalized ``(num, den)`` pairs, normalized: the steps
    of CPython's ``Fraction._add``, which leave the sum in lowest terms."""
    na, da = a
    nb, db = b
    g = gcd(da, db)
    if g == 1:
        return (na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return (t, s * db)
    return (t // g2, s * (db // g2))


# Matrix product kernels on row tuples.  ``MatrixMonoid`` picks one per k;
# they are module-level functions so that instances still pickle.


def _mul_2(a, b):
    (p, q), (r, s) = a
    (w, x), (y, z) = b
    return ((p * w + q * y, p * x + q * z), (r * w + s * y, r * x + s * z))


def _mul_3(a, b):
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
    return (
        (a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8),
        (a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8),
        (a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8),
    )


def _mul_rows(a, b):
    """Any k.  A row of ``a`` with fewer than half zero entries takes dot
    products with ``b``'s columns, which are transposed once, on the first
    such row.  Any other row is the combination of ``b``'s rows at its nonzero
    entries, reusing a row of ``b`` as is for a coefficient of 1."""
    k = len(a)
    half = (k + 1) >> 1
    cols = None
    rows = []
    for row in a:
        # ``all`` is the cheaper test, and it settles a fully dense row.
        if all(row) or row.count(0) < half:
            if cols is None:
                cols = tuple(zip(*b))
            rows.append(tuple([sum(map(mul, row, col)) for col in cols]))
        else:
            acc = None
            for t in compress(range(k), row):
                c = row[t]
                term = b[t] if c == 1 else [c * x for x in b[t]]
                acc = term if acc is None else list(map(add, acc, term))
            rows.append((0,) * k if acc is None else tuple(acc))
    return tuple(rows)


_MUL_KERNELS = {2: _mul_2, 3: _mul_3}


# ---------------------------------------------------------------------------
# Instance descriptors
#
# ``op``/``eq`` are defined once, on ``_Monoid``: ``_check`` raises the
# mismatch error for a foreign operand and accepts a subclass, then the
# family's kernel runs on the payloads and ``op`` boxes the product.  Each
# instance builds its identity once; values are immutable, so every caller
# may share it, and a product may be one of its operands: when the kernel
# returns an operand's own payload and that operand is exactly of the value
# class, ``op`` returns the operand (a subclass operand is never returned).


class _Monoid:
    """The descriptor surface every family shares.  A subclass sets
    ``family``, its identity ``_one``, its ``_value_class``, the ``_noun``
    that mismatch errors name and its payload ``_kernel``."""

    def identity(self):
        return self._one

    def owns(self, value) -> bool:
        return isinstance(value, self._value_class)

    def descriptor(self) -> dict:
        return {"family": self.family}

    def _check(self, *values):
        for value in values:
            if not self.owns(value):
                raise MonoidMismatchError(f"expected {self._noun}, got {type(value).__name__}")

    def op(self, a, b):
        self._check(a, b)
        kernel = self._kernel
        pa = kernel.payload(a)
        pb = kernel.payload(b)
        product = kernel.op(pa, pb)
        if product is pa and type(a) is self._value_class:
            return a
        if product is pb and type(b) is self._value_class:
            return b
        return kernel.box(product)

    def eq(self, a, b) -> bool:
        self._check(a, b)
        kernel = self._kernel
        return kernel.eq(kernel.payload(a), kernel.payload(b))


@dataclass(frozen=True)
class FreeMonoid(_Monoid):
    """Free words under concatenation; the identity is the empty word."""

    family = "free"
    _one = FreeWord(())
    _value_class = FreeWord
    _noun = "a free word"
    # Tuple concatenation returns the other tuple itself when one is empty.
    _kernel = _Kernel((), add, operator.eq, attrgetter("letters"), _free_word)


@dataclass(frozen=True)
class AdditiveMonoid(_Monoid):
    """Exact rationals under addition; the identity is 0."""

    family = "additive"
    _one = AdditiveNumber(0)
    _value_class = AdditiveNumber
    _noun = "an additive number"
    _kernel = _Kernel((0, 1), _add_pairs, operator.eq, attrgetter("num", "den"), lambda p: _additive(*p))


@dataclass(frozen=True)
class MatrixMonoid(_Monoid):
    """k x k integer matrices under multiplication; the identity matrix is 1."""

    k: int
    family = "matrix"
    _value_class = IntMatrix

    def __post_init__(self):
        k = self.k
        one = IntMatrix(tuple(tuple(int(i == j) for j in range(k)) for i in range(k)))
        product = _MUL_KERNELS.get(k, _mul_rows)
        object.__setattr__(self, "_one", one)
        kernel = _Kernel(one.entries, product, operator.eq, attrgetter("entries"), _int_matrix)
        object.__setattr__(self, "_kernel", kernel)

    def owns(self, value) -> bool:
        return isinstance(value, IntMatrix) and value.k == self.k

    def descriptor(self) -> dict:
        return {"family": "matrix", "k": self.k}

    def _check(self, *values):
        for value in values:
            if not self.owns(value):
                raise MonoidMismatchError(f"expected a {self.k}x{self.k} integer matrix, got {value!r}")


FREE = FreeMonoid()
ADDITIVE = AdditiveMonoid()

_matrix_monoids: dict[int, MatrixMonoid] = {}


def matrix_monoid(k: int) -> MatrixMonoid:
    if not is_exact_int(k) or k < 1:
        raise ValueError("matrix dimension must be a positive integer")
    mon = _matrix_monoids.get(k)
    if mon is None:
        mon = _matrix_monoids[k] = MatrixMonoid(k)
    return mon


# ---------------------------------------------------------------------------
# Generic operations (dispatch on the values' own instance)


def identity(monoid):
    """The identity element of a monoid instance."""
    return monoid.identity()


def op(a, b):
    """The monoid product a * b; a's instance rejects a foreign b."""
    return a.monoid.op(a, b)


def eq(a, b) -> bool:
    """Decidable equality in a's instance, which rejects a foreign b."""
    return a.monoid.eq(a, b)


# ---------------------------------------------------------------------------
# Construction helpers


def word(*letters: int) -> FreeWord:
    return FreeWord(tuple(letters))


def number(value) -> AdditiveNumber:
    return AdditiveNumber(value)


def matrix(rows) -> IntMatrix:
    return IntMatrix(rows)


def matrix_unit(k: int, row: int, col: int) -> IntMatrix:
    """The k x k matrix with a single 1 at (row, col), 0-based."""
    if not (is_exact_int(k) and is_exact_int(row) and is_exact_int(col)):
        raise ValueError("matrix unit dimension and position must be integers")
    if not 0 <= row < k or not 0 <= col < k:
        raise ValueError("matrix unit position out of range")
    return IntMatrix(tuple(tuple(1 if (i, j) == (row, col) else 0 for j in range(k)) for i in range(k)))


def zero_matrix(k: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(0 for _ in range(k)) for _ in range(k)))


def identity_matrix(k: int) -> IntMatrix:
    return matrix_monoid(k).identity()


def upper_unitriangular(x: int) -> IntMatrix:
    """The 2x2 matrix [[1, x], [0, 1]]; these multiply by adding the corner."""
    return IntMatrix(((1, x), (0, 1)))
