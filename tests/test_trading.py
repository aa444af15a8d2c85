import pytest

from stpsim.money import Money
from stpsim.registry import ParticipantId, ParticipantRole
from stpsim.trading import (
    AllocationDetail,
    EquityLeg,
    MoneyLeg,
    Order,
    OrderType,
    SettlementInstruction,
    Side,
    Trade,
    TradeStatus,
    allocation_detail_rule,
    order_shape_rule,
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


def test_instruction_legs_of_one_unit_are_positive():
    instruction = SettlementInstruction(
        "I1", MoneyLeg("a", "b", Money(1)), EquityLeg("b", "a", "ACME", 1), ("T1",))
    assert (instruction.money_leg.amount, instruction.equity_leg.quantity) == (Money(1), 1)


def _shape_rule(order_type, limit_price, price_cap=None):
    """`order_shape_rule` for a 10-share retail buy, every type offered."""
    return order_shape_rule(order_type, 10, limit_price, frozenset(OrderType), False, "USD",
                            True, price_cap, Side.BUY)


def test_order_types_requiring_price():
    """MARKET takes no limit price; every other type needs one."""
    assert _shape_rule(OrderType.MARKET, None, Money(1040)) is None
    assert _shape_rule(OrderType.MARKET, Money(1040), Money(1040)) == "PriceNotAllowed"
    for order_type in (OrderType.LIMIT, OrderType.IMMEDIATE_OR_CANCEL,
                       OrderType.FILL_OR_KILL):
        assert _shape_rule(order_type, None) == "MissingPrice"
        assert _shape_rule(order_type, Money(1040)) is None


def test_market_buy_capped_at_one_minor_unit_passes_the_shape_rules():
    assert _shape_rule(OrderType.MARKET, None, Money(1)) is None
    assert _shape_rule(OrderType.MARKET, None, Money(0)) == "NonPositivePrice"


@pytest.mark.parametrize("order_type", [
    OrderType.LIMIT, OrderType.IMMEDIATE_OR_CANCEL, OrderType.FILL_OR_KILL])
def test_limit_price_of_one_minor_unit_passes_the_shape_rules(order_type):
    assert _shape_rule(order_type, Money(1)) is None
    assert _shape_rule(order_type, Money(0)) == "NonPositivePrice"


def test_allocation_price_of_one_minor_unit_passes_the_extended_pack():
    detail = AllocationDetail("A1", "INST1", "EC1", "BR1-O1", "ACME", 10, Money(1))
    pack = ("INST1", "BR1-O1", "ACME", True)    # institution, block, symbol, extended
    assert allocation_detail_rule([detail], *pack) is None
    assert allocation_detail_rule([detail._replace(price=Money(0))], *pack) == "NonPositivePrice"


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
