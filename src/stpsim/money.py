"""Exact integer money in minor units (cents).

Every balance and price in the simulator is a `Money` value. Amounts are
plain integers so conservation checks can assert exact equality; fractional
minor units cannot be represented at all. The ecosystem is single-currency:
mixing currencies in arithmetic or comparisons raises `CurrencyMismatch`.
"""

from __future__ import annotations

from dataclasses import dataclass


class CurrencyMismatch(Exception):
    """Arithmetic or comparison attempted across two different currencies."""


@dataclass(frozen=True, order=False)
class Money:
    amount: int
    currency: str = "USD"

    def __post_init__(self) -> None:
        if not isinstance(self.amount, int) or isinstance(self.amount, bool):
            raise TypeError(f"Money amount must be an int, got {type(self.amount).__name__}")

    def _check(self, other: "Money") -> None:
        if self.currency != other.currency:
            raise CurrencyMismatch(f"{self.currency} vs {other.currency}")

    def __add__(self, other: "Money") -> "Money":
        self._check(other)
        return Money(self.amount + other.amount, self.currency)

    def __sub__(self, other: "Money") -> "Money":
        self._check(other)
        return Money(self.amount - other.amount, self.currency)

    def __neg__(self) -> "Money":
        return Money(-self.amount, self.currency)

    def __mul__(self, factor: int) -> "Money":
        if not isinstance(factor, int) or isinstance(factor, bool):
            raise TypeError("Money can only be multiplied by an int")
        return Money(self.amount * factor, self.currency)

    __rmul__ = __mul__

    def __lt__(self, other: "Money") -> bool:
        self._check(other)
        return self.amount < other.amount

    def __le__(self, other: "Money") -> bool:
        self._check(other)
        return self.amount <= other.amount

    def __gt__(self, other: "Money") -> bool:
        self._check(other)
        return self.amount > other.amount

    def __ge__(self, other: "Money") -> bool:
        self._check(other)
        return self.amount >= other.amount

    def __str__(self) -> str:
        return f"{self.amount}{self.currency}"


def cents(amount: int, currency: str = "USD") -> Money:
    return Money(amount, currency)
