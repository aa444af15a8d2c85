"""Exact integer money in minor units (cents).

Every balance and price in the simulator is a `Money` value. Amounts are
plain integers so conservation checks can assert exact equality; fractional
minor units cannot be represented at all. The ecosystem is single-currency:
mixing currencies in arithmetic or comparisons raises `CurrencyMismatch`.

`Money` is an immutable NamedTuple of (amount, currency): assigning a field
raises `AttributeError`. It is equal only to another `Money` with the same
amount and currency, never to a plain tuple, and equal values hash alike.
"""

from __future__ import annotations

from typing import NamedTuple


class CurrencyMismatch(Exception):
    """Arithmetic or comparison attempted across two different currencies."""


class _MoneyFields(NamedTuple):
    amount: int
    currency: str = "USD"


# builds a NamedTuple record, such as a Money whose amount is already known
# to be an int, from a tuple of all its fields, without a Python-level call
_new = tuple.__new__


class Money(_MoneyFields):
    __slots__ = ()

    def __new__(cls, amount: int, currency: str = "USD") -> Money:
        if amount.__class__ is not int and (
                not isinstance(amount, int) or isinstance(amount, bool)):
            raise TypeError(f"Money amount must be an int, got {type(amount).__name__}")
        return _new(cls, (amount, currency))

    def _check(self, other: Money) -> None:
        if self.currency != other.currency:
            raise CurrencyMismatch(f"{self.currency} vs {other.currency}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Money) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __add__(self, other: Money) -> Money:
        self._check(other)
        return _new(Money, (self.amount + other.amount, self.currency))

    def __sub__(self, other: Money) -> Money:
        self._check(other)
        return _new(Money, (self.amount - other.amount, self.currency))

    def __neg__(self) -> Money:
        return _new(Money, (-self.amount, self.currency))

    def __mul__(self, factor: int) -> Money:
        if not isinstance(factor, int) or isinstance(factor, bool):
            raise TypeError("Money can only be multiplied by an int")
        return _new(Money, (self.amount * factor, self.currency))

    __rmul__ = __mul__

    def __lt__(self, other: Money) -> bool:
        self._check(other)
        return self.amount < other.amount

    def __le__(self, other: Money) -> bool:
        self._check(other)
        return self.amount <= other.amount

    def __gt__(self, other: Money) -> bool:
        self._check(other)
        return self.amount > other.amount

    def __ge__(self, other: Money) -> bool:
        self._check(other)
        return self.amount >= other.amount

    def __str__(self) -> str:
        return f"{self.amount}{self.currency}"
