import itertools

import pytest
from hypothesis import given, settings, strategies as st

from matchdriver import COMBOS, build_order, comparator_for, ranked
from stpsim.exchange import (
    ExchangeService,
    OrderBook,
    PrecedenceComparator,
    SecondaryPrecedence,
    TieBreak,
    TradeReport,
)
from stpsim.money import Money
from stpsim.registry import ParticipantId, ParticipantRole, ServiceRegistry
from stpsim.trading import Order, OrderStatus, OrderType, Side


def tuple_trade(buy, sell, price, qty):
    return (price.amount, qty, buy.order_id, sell.order_id)


def make_book(secondary="time", tiebreak="fifo"):
    return OrderBook("SYM", comparator_for(secondary, tiebreak))


class _SilentBroker:
    def execution_report(self, order_id, trade):
        pass


def make_exchange(extended=False):
    registry = ServiceRegistry()
    registry.register(ParticipantId(ParticipantRole.BROKER, "TEST"), _SilentBroker())
    pid = ParticipantId(ParticipantRole.EXCHANGE, "X1")
    exchange = ExchangeService(
        pid, registry, ("ACME",),
        PrecedenceComparator(SecondaryPrecedence.TIME_PRIORITY, TieBreak.FIFO),
        extended_validation=extended)
    registry.register(pid, exchange)
    return exchange


# -- validation -------------------------------------------------------------

def draft_order(side=Side.BUY, qty=100, otype=OrderType.LIMIT, price=1050):
    return Order(
        order_id="O1", client="c", broker=ParticipantId(ParticipantRole.BROKER, "TEST"),
        side=side, symbol="ACME", quantity=qty, order_type=otype,
        limit_price=Money(price) if price is not None else None)


def test_extended_validation_caps_order_size():
    exchange = make_exchange(extended=True)
    order = draft_order(qty=2_000_000)
    assert exchange.validate_incoming_order(order).rule == "OrderTooLarge"
    assert order.status is OrderStatus.REJECTED and order.seq is None


def test_standard_validation_takes_an_order_of_any_size():
    assert make_exchange().validate_incoming_order(draft_order(qty=2_000_000)) is None


def test_extended_validation_takes_an_order_of_exactly_the_size_cap():
    exchange = make_exchange(extended=True)
    assert exchange.validate_incoming_order(draft_order(qty=1_000_000)) is None
    assert exchange.validate_incoming_order(
        draft_order(qty=1_000_001)).rule == "OrderTooLarge"


def test_accepted_orders_get_increasing_seq():
    exchange = make_exchange()
    first = draft_order()
    second = draft_order(side=Side.SELL, price=1060)
    second.order_id = "O2"
    assert exchange.validate_incoming_order(first) is None
    assert exchange.validate_incoming_order(second) is None
    assert (first.seq, second.seq) == (1, 2)
    assert first.status is OrderStatus.VALIDATED


# -- matching: the worked examples -------------------------------------------

def test_limit_buy_on_empty_book_rests_as_best_bid():
    book = make_book()
    order = build_order(1, "buy", "limit", 1050, 100)
    trades = book.submit(order, tuple_trade)
    assert trades == []
    assert order.status is OrderStatus.RESTING
    assert book.side(Side.BUY).head() is order


def test_cross_executes_at_resting_price():
    book = make_book()
    resting = build_order(1, "sell", "limit", 1040, 100)
    book.submit(resting, tuple_trade)
    incoming = build_order(2, "buy", "limit", 1050, 100)
    trades = book.submit(incoming, tuple_trade)
    assert trades == [(1040, 100, "O2", "O1")]
    assert incoming.status is OrderStatus.FILLED
    assert resting.status is OrderStatus.FILLED
    assert ranked(book.bids) == [] and ranked(book.asks) == []


def test_time_vs_size_priority_attribution():
    # resting asks 50 (seq 1) and 200 (seq 2) at the same price; market buy 100
    def run(secondary):
        book = make_book(secondary)
        book.submit(build_order(1, "sell", "limit", 1040, 50), tuple_trade)
        book.submit(build_order(2, "sell", "limit", 1040, 200), tuple_trade)
        return book.submit(build_order(3, "buy", "market", None, 100), tuple_trade)

    assert run("time") == [(1040, 50, "O3", "O1"), (1040, 50, "O3", "O2")]
    assert run("size") == [(1040, 100, "O3", "O2")]


def test_fill_or_kill_all_or_nothing():
    book = make_book()
    book.submit(build_order(1, "sell", "limit", 1040, 100), tuple_trade)
    fok = build_order(2, "buy", "fok", 1050, 150)
    trades = book.submit(fok, tuple_trade)
    assert trades == []
    assert fok.status is OrderStatus.CANCELLED
    assert [o.order_id for o in ranked(book.asks)] == ["O1"]
    assert ranked(book.asks)[0].remaining == 100


def test_fill_or_kill_fills_exactly_when_possible():
    book = make_book()
    book.submit(build_order(1, "sell", "limit", 1040, 100), tuple_trade)
    book.submit(build_order(2, "sell", "limit", 1045, 100), tuple_trade)
    fok = build_order(3, "buy", "fok", 1045, 150)
    trades = book.submit(fok, tuple_trade)
    assert sum(qty for _, qty, _, _ in trades) == 150
    assert fok.status is OrderStatus.FILLED


def test_market_remainder_cancels_never_rests():
    book = make_book()
    book.submit(build_order(1, "sell", "limit", 1040, 60), tuple_trade)
    market = build_order(2, "buy", "market", None, 100)
    trades = book.submit(market, tuple_trade)
    assert trades == [(1040, 60, "O2", "O1")]
    assert market.status is OrderStatus.CANCELLED
    assert ranked(book.bids) == []


def test_market_buy_cap_is_a_protection_price():
    book = make_book()
    book.submit(build_order(1, "sell", "limit", 1000, 5), tuple_trade)
    book.submit(build_order(2, "sell", "limit", 1200, 5), tuple_trade)
    market = build_order(3, "buy", "market", None, 10)
    market.price_cap = Money(1000)
    assert book.fillable_quantity(market) == 5
    trades = book.submit(market, tuple_trade)
    assert trades == [(1000, 5, "O3", "O1")]    # the 1200 ask is over the cap
    assert market.status is OrderStatus.CANCELLED
    assert [o.order_id for o in ranked(book.asks)] == ["O2"]
    assert ranked(book.bids) == []


def test_market_sell_cap_bounds_nothing():
    book = make_book()
    book.submit(build_order(1, "buy", "limit", 1200, 5), tuple_trade)
    book.submit(build_order(2, "buy", "limit", 900, 5), tuple_trade)
    market = build_order(3, "sell", "market", None, 10)
    market.price_cap = Money(1000)
    trades = book.submit(market, tuple_trade)
    assert trades == [(1200, 5, "O1", "O3"), (900, 5, "O2", "O3")]
    assert market.status is OrderStatus.FILLED


def test_immediate_or_cancel_takes_then_cancels():
    book = make_book()
    book.submit(build_order(1, "sell", "limit", 1040, 60), tuple_trade)
    book.submit(build_order(2, "sell", "limit", 1060, 60), tuple_trade)
    ioc = build_order(3, "buy", "ioc", 1050, 100)
    trades = book.submit(ioc, tuple_trade)
    assert trades == [(1040, 60, "O3", "O1")]   # 1060 ask is over the limit
    assert ioc.status is OrderStatus.CANCELLED
    assert [o.order_id for o in ranked(book.asks)] == ["O2"]


def test_partial_fill_rests_remainder():
    book = make_book()
    book.submit(build_order(1, "sell", "limit", 1040, 30), tuple_trade)
    incoming = build_order(2, "buy", "limit", 1040, 100)
    trades = book.submit(incoming, tuple_trade)
    assert trades == [(1040, 30, "O2", "O1")]
    assert incoming.status is OrderStatus.PARTIALLY_FILLED
    assert incoming.remaining == 70
    assert book.side(Side.BUY).head() is incoming


def test_limit_trades_never_beat_the_limit():
    book = make_book()
    book.submit(build_order(1, "sell", "limit", 1030, 40), tuple_trade)
    book.submit(build_order(2, "sell", "limit", 1045, 40), tuple_trade)
    buy = build_order(3, "buy", "limit", 1040, 100)
    trades = book.submit(buy, tuple_trade)
    assert all(price <= 1040 for price, _, _, _ in trades)
    assert trades == [(1030, 40, "O3", "O1")]


def test_book_never_crossed_after_submissions():
    book = make_book()
    for index, (side, price, qty) in enumerate(
            [("sell", 1040, 50), ("buy", 1030, 50), ("sell", 1035, 20),
             ("buy", 1035, 10), ("buy", 1037, 80), ("sell", 1020, 200)], start=1):
        book.submit(build_order(index, side, "limit", price, qty), tuple_trade)
        assert not book.is_crossed()


def test_locked_book_counts_as_crossed():
    # resting a bid at the best ask directly, past matching, locks the book
    book = make_book()
    book.submit(build_order(1, "sell", "limit", 1040, 50), tuple_trade)
    book.submit(build_order(2, "buy", "limit", 1030, 50), tuple_trade)
    assert not book.is_crossed()
    book.bids.append(build_order(3, "buy", "limit", 1040, 10))
    assert book.is_crossed()


# -- price levels in minor units ------------------------------------------------

def _naive_levels(orders):
    levels = {}
    for order in orders:
        levels[order.limit_price.amount] = levels.get(order.limit_price.amount, 0) + order.remaining
    return levels


def _naive_fillable(book, incoming):
    """Shares resting at prices `incoming` may trade at, by `Money` comparisons."""
    buying = incoming.side is Side.BUY
    if incoming.order_type is not OrderType.MARKET:
        bound = incoming.limit_price
    else:
        bound = incoming.price_cap if buying else None
    return sum(order.remaining for order in ranked(book.asks if buying else book.bids)
               if bound is None
               or (order.limit_price <= bound if buying else order.limit_price >= bound))


_submission = st.tuples(
    st.sampled_from(["buy", "sell"]),
    st.sampled_from(["market", "limit", "ioc", "fok"]),
    st.integers(1000, 1004),
    st.integers(1, 20),
    st.booleans(),                  # a market order carries the price as its cap
)


@pytest.mark.parametrize("secondary,tiebreak", COMBOS)
@settings(max_examples=60, deadline=None)
@given(st.lists(_submission, min_size=1, max_size=30))
def test_levels_and_fillable_quantity_agree_with_the_resting_orders(
        secondary, tiebreak, submissions):
    book = OrderBook("SYM", comparator_for(secondary, tiebreak))
    for index, (side, otype, price, qty, capped) in enumerate(submissions, start=1):
        order = build_order(index, side, otype, None if otype == "market" else price, qty)
        if otype == "market" and capped:
            order.price_cap = Money(price)
        assert book.fillable_quantity(order) == _naive_fillable(book, order)
        book.submit(order, tuple_trade)
        for resting in (book.bids, book.asks):
            assert resting.levels == _naive_levels(ranked(resting))
            assert all(type(price) is int for price in resting.levels)


# -- comparator laws ----------------------------------------------------------

_comparators = [
    PrecedenceComparator(secondary, tiebreak)
    for secondary, tiebreak in itertools.product(SecondaryPrecedence, TieBreak)
]


@given(
    st.lists(
        st.tuples(st.integers(1000, 1002), st.integers(1, 10)),
        min_size=2, max_size=8),
    st.sampled_from(_comparators),
    st.sampled_from([Side.BUY, Side.SELL]),
)
def test_comparator_is_strict_total_order(specs, comparator, side):
    orders = []
    for index, (price, qty) in enumerate(specs, start=1):
        order = build_order(index, side.value, "limit", price, qty)
        order.remaining = qty
        orders.append(order)
    keys = [comparator.key(order) for order in orders]
    # unique seq => keys all distinct => strict total order
    assert len(set(keys)) == len(keys)
    ranked = sorted(orders, key=comparator.key)
    # price always dominates
    for earlier, later in zip(ranked, ranked[1:]):
        if side is Side.BUY:
            assert earlier.limit_price >= later.limit_price
        else:
            assert earlier.limit_price <= later.limit_price


def test_equal_size_falls_through_to_sequence_tiebreak():
    comparator_fifo = comparator_for("size", "fifo")
    comparator_lifo = comparator_for("size", "lifo")
    first = build_order(1, "sell", "limit", 1040, 70)
    second = build_order(2, "sell", "limit", 1040, 70)
    assert comparator_fifo.key(first) < comparator_fifo.key(second)
    assert comparator_lifo.key(second) < comparator_lifo.key(first)


# -- trade reporting ----------------------------------------------------------

class _RecordingClearing:
    def __init__(self):
        self.received = []

    def submit_trade(self, report):
        self.received.append(report)
        return None


def test_report_trades_rec_exactly_once():
    exchange = make_exchange()
    clearing = _RecordingClearing()
    exchange.registry.register(
        ParticipantId(ParticipantRole.CLEARING_CORPORATION, "CC1"), clearing)

    sell = draft_order(side=Side.SELL, qty=100, price=1040)
    sell.order_id = "S1"
    buy = draft_order(side=Side.BUY, qty=100, price=1040)
    buy.order_id = "B1"
    assert exchange.validate_incoming_order(sell) is None
    exchange.submit_order(sell)
    assert exchange.validate_incoming_order(buy) is None
    trades = exchange.submit_order(buy)
    assert len(trades) == 1

    assert exchange.report_trades_rec() == 1
    assert exchange.report_trades_rec() == 0   # nothing pending: no-op
    assert len(clearing.received) == 1
    report = clearing.received[0]
    assert type(report) is TradeReport
    assert report.trade is trades[0]
    assert report.trade.buy_order_id == "B1" and report.trade.sell_order_id == "S1"


def test_crossed_book_is_a_panic_level_fault():
    from stpsim.exchange import BookInvariantViolation
    book = make_book()
    # force an illegal crossed state behind the API's back
    book.bids.append(build_order(1, "buy", "limit", 1100, 10))
    book.asks.append(build_order(2, "sell", "limit", 1000, 10))
    incoming = build_order(3, "buy", "limit", 900, 10)   # touches nothing
    with pytest.raises(BookInvariantViolation):
        book.submit(incoming, tuple_trade)


def test_report_without_clearing_registered_fails_fast():
    exchange = make_exchange()
    sell = draft_order(side=Side.SELL, qty=10, price=1040)
    sell.order_id = "S1"
    buy = draft_order(side=Side.BUY, qty=10, price=1040)
    buy.order_id = "B1"
    exchange.validate_incoming_order(sell)
    exchange.submit_order(sell)
    exchange.validate_incoming_order(buy)
    exchange.submit_order(buy)
    from stpsim.registry import NotFound
    with pytest.raises(NotFound):
        exchange.report_trades_rec()
