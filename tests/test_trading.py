import pytest

from stpsim.money import Money
from stpsim.registry import ParticipantId, ParticipantRole
from stpsim.trading import (
    EquityLeg,
    MoneyLeg,
    Order,
    OrderType,
    SettlementInstruction,
    Side,
    Trade,
    TradeStatus,
)

EXCHANGE = ParticipantId(ParticipantRole.EXCHANGE, "X1")


def make_trade():
    return Trade("T1", "B1", "S1", "ACME", Money(1040), 100, EXCHANGE)


def test_trade_lifecycle_advances_in_order():
    trade = make_trade()
    trade.advance(TradeStatus.CLEARED)
    trade.advance(TradeStatus.SETTLED)
    assert trade.status is TradeStatus.SETTLED


@pytest.mark.parametrize("target", [TradeStatus.SETTLED, TradeStatus.EXECUTED])
def test_trade_cannot_skip_or_regress(target):
    trade = make_trade()
    with pytest.raises(ValueError):
        trade.advance(target)


@pytest.mark.parametrize("target", [TradeStatus.EXECUTED, TradeStatus.CLEARED])
def test_cleared_trade_cannot_regress_or_repeat(target):
    trade = make_trade()
    trade.advance(TradeStatus.CLEARED)
    with pytest.raises(ValueError, match=f"^trade T1: cannot go cleared -> {target.value}$"):
        trade.advance(target)
    assert trade.status is TradeStatus.CLEARED


def test_trade_cannot_settle_twice():
    trade = make_trade()
    trade.advance(TradeStatus.CLEARED)
    trade.advance(TradeStatus.SETTLED)
    with pytest.raises(ValueError):
        trade.advance(TradeStatus.SETTLED)


def test_trade_value():
    assert make_trade().value == Money(104000)


def test_instruction_requires_at_least_one_leg():
    with pytest.raises(ValueError):
        SettlementInstruction("I1", None, None, ("T1",))


def test_instruction_rejects_non_positive_legs():
    with pytest.raises(ValueError):
        SettlementInstruction(
            "I1", MoneyLeg("a", "b", Money(0)), None, ("T1",))
    with pytest.raises(ValueError):
        SettlementInstruction(
            "I1", None, EquityLeg("a", "b", "ACME", -5), ("T1",))


def test_order_types_requiring_price():
    assert not OrderType.MARKET.requires_price
    for order_type in (OrderType.LIMIT, OrderType.IMMEDIATE_OR_CANCEL,
                       OrderType.FILL_OR_KILL):
        assert order_type.requires_price


def test_order_remaining_defaults_to_quantity():
    order = Order("O1", "c", ParticipantId(ParticipantRole.BROKER, "B"),
                  Side.BUY, "ACME", 70, OrderType.LIMIT, Money(1000))
    assert order.remaining == 70
    assert order.filled_quantity == 0
    assert not order.is_terminal


def test_orders_and_trades_take_only_their_fields():
    order = Order("O1", "c", ParticipantId(ParticipantRole.BROKER, "B"),
                  Side.BUY, "ACME", 70, OrderType.LIMIT, Money(1000))
    for record in (order, make_trade()):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.remainder = 0        # a misspelt field is an error, not a new attribute
