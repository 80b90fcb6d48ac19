"""Shared errors, the default budgets, the exact-integer rule, and the two
record bases every package record derives from."""

# The default budgets of ``oracle_verify`` and ``greedy_disjoint_rhomboids``,
# kept here so that the CLI can offer them as ``oracle --budget``'s and
# ``rhomboids --budget``'s defaults without importing ``oracle`` or
# ``constructions``.
DEFAULT_WALK_BUDGET = 10**6
DEFAULT_RHOMBOID_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """An enumeration outgrew its configured budget; no verdict was produced."""


def is_exact_int(value) -> bool:
    """Whether ``value`` is an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_count(value, what: str) -> None:
    """Raise ValueError unless ``value`` is a non-negative exact integer."""
    if not is_exact_int(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be non-negative, got {value}")


class Record:
    """A mutable, unhashable record, and the base of ``Frozen``.  A subclass
    stores its fields in ``__slots__`` and sets them in its own ``__init__``;
    ``__match_args__`` names the fields that the repr, ``==`` and pattern
    matching read, in order.  Two records are equal when they are of one class
    and those fields are equal.  A record pickles and copies as a call to its
    own class with those fields, so its constructor checks them again and
    rebuilds every other slot."""

    __slots__ = ()
    __match_args__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __reduce__(self):
        return type(self), self._key()


def _refuse(message):
    # The error dataclasses' frozen instances raise, imported only when raised.
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(message)


class Frozen(Record):
    """A record that refuses every attribute assignment and deletion with
    ``FrozenInstanceError``.  Its ``__init__`` sets each slot through
    ``object.__setattr__``, and it hashes as the tuple of its
    ``__match_args__`` fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        _refuse(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        _refuse(f"cannot delete field {name!r}")
