"""Semantics of the immutable value records.

`Money` arithmetic and ordering are the int arithmetic and ordering of its
amounts, within one currency; across currencies they raise. A `Money` is
equal only to another `Money`, and equal values hash alike. Every value
record refuses attribute assignment.
"""

import operator

import pytest
from hypothesis import given, strategies as st

from stpsim.broker import OrderDraft
from stpsim.clearing import Obligation
from stpsim.ledger import AccountSnapshot, JournalEntry
from stpsim.lifecycle import CheckResult
from stpsim.money import CurrencyMismatch, Money
from stpsim.registry import ParticipantId, ParticipantRole
from stpsim.trading import (
    AllocationDetail,
    AuditEvent,
    ContractNote,
    EquityLeg,
    MoneyLeg,
    OrderType,
    Rejection,
    Side,
)

amounts = st.integers(-10**15, 10**15)
currencies = st.sampled_from(["USD", "EUR", "JPY"])

COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)


@given(a=amounts, b=amounts, factor=st.integers(-10**6, 10**6), currency=currencies)
def test_money_arithmetic_and_order_are_those_of_its_amounts(a, b, factor, currency):
    x, y = Money(a, currency), Money(b, currency)
    assert x + y == Money(a + b, currency)
    assert x * factor == factor * x == Money(a * factor, currency)
    for compare in COMPARISONS:
        assert compare(x, y) is compare(a, b)


@pytest.mark.parametrize("combine", [
    operator.add, operator.lt, operator.le, operator.gt, operator.ge])
def test_money_across_currencies_raises(combine):
    with pytest.raises(CurrencyMismatch, match="^USD vs EUR$"):
        combine(Money(1, "USD"), Money(1, "EUR"))


@pytest.mark.parametrize("amount", [True, False, 1.0, "1", None])
def test_money_amount_must_be_an_int_and_not_a_bool(amount):
    with pytest.raises(TypeError):
        Money(amount)


def test_money_equals_only_money():
    assert Money(5) != (5, "USD")
    assert (5, "USD") != Money(5)
    assert not Money(5) == (5, "USD")
    assert not (5, "USD") == Money(5)
    assert Money(5) != Money(5, "EUR")
    assert Money(5) == Money(5, "USD")


@given(a=amounts, currency=currencies)
def test_equal_money_hashes_alike(a, currency):
    x, y = Money(a, currency), Money(a, currency) + Money(0, currency)
    assert x == y and x is not y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


BROKER = ParticipantId(ParticipantRole.BROKER, "BR1")

RECORDS = [
    Money(5),
    JournalEntry(1, "money", "a", "b", 5, None, "cause"),
    AccountSnapshot(Money(5), {"ACME": 1}),
    CheckResult("check", True),
    AllocationDetail("A1", "INST1", "EC1", "BR1-O1", "ACME", 10, Money(5)),
    ContractNote("BR1-O1", BROKER, Side.BUY, ("BR1-C1",)),
    AuditEvent("BR1-O1", "validation", "ok"),
    OrderDraft("RC1", Side.BUY, "ACME", 10, OrderType.LIMIT, Money(5)),
    Rejection("validation", "MissingPrice"),
    Obligation("a", "b", "ACME", 10, Money(-50), ("T1",)),
    MoneyLeg("a", "b", Money(5)),
    EquityLeg("a", "b", "ACME", 10),
    BROKER,
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_value_records_refuse_assignment(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
