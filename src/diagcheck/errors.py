"""Errors shared across modules, and the decorator that makes the frozen
records raise ``FrozenInstanceError`` for every attribute change."""

from dataclasses import FrozenInstanceError


class BudgetExceededError(RuntimeError):
    """An enumeration outgrew its configured budget; no verdict was produced."""


def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen(cls):
    """Refuse every attribute assignment and deletion on ``cls``.

    The ``__setattr__``/``__delattr__`` that ``dataclass(frozen=True,
    slots=True)`` generates on Python 3.11 still name the class that the
    slotted copy replaced, so a name that is not a field raises ``TypeError``
    from ``super()`` instead of ``FrozenInstanceError``.
    """
    cls.__setattr__ = _refuse_set
    cls.__delattr__ = _refuse_del
    return cls
