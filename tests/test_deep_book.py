"""The heap-ordered book on deep books: trade-for-trade equality with the
naive matcher, the size-priority head re-rank, and FOK at a level's edge."""

import random

import pytest

from matchdriver import COMBOS, build_order, comparator_for, drive_pair, random_instance, ranked
from stpsim.exchange import OrderBook
from stpsim.trading import OrderStatus, Side

LEVELS = tuple(range(1000, 1150, 10))   # 15 price levels
N_INSTANCES = 20


def tuple_trade(buy, sell, price, qty):
    return (price.amount, qty, buy.order_id, sell.order_id)


def stacked_instance(rng, resting=150, incoming=150):
    """One side built deep first, then mixed flow of every type against it."""
    side = rng.choice(["buy", "sell"])
    orders = [(side, "limit", rng.choice(LEVELS), rng.randint(1, 50)) for _ in range(resting)]
    return orders + random_instance(rng, max_orders=incoming, price_levels=LEVELS, max_qty=50)


def assert_equivalent(instance, secondary, tiebreak):
    impl, ref, impl_state, ref_state, impl_crossed, ref_crossed = drive_pair(
        instance, secondary, tiebreak)
    for index, (impl_trades, ref_trades) in enumerate(zip(impl, ref), start=1):
        assert impl_trades == ref_trades, (index, instance[index - 1])
    assert len(impl) == len(ref) == len(instance)
    assert impl_state == ref_state
    assert not impl_crossed and not ref_crossed


@pytest.mark.parametrize("secondary,tiebreak", COMBOS)
def test_deep_random_flow_matches_reference_trade_for_trade(secondary, tiebreak):
    rng = random.Random(f"deep/{secondary}/{tiebreak}")
    for _ in range(N_INSTANCES):
        instance = random_instance(rng, max_orders=300, price_levels=LEVELS, max_qty=50)
        assert_equivalent(instance, secondary, tiebreak)


@pytest.mark.parametrize("secondary,tiebreak", COMBOS)
def test_stacked_book_matches_reference_trade_for_trade(secondary, tiebreak):
    rng = random.Random(f"stacked/{secondary}/{tiebreak}")
    for _ in range(N_INSTANCES):
        assert_equivalent(stacked_instance(rng), secondary, tiebreak)


# -- size priority: the partially filled head gives way ----------------------

@pytest.mark.parametrize("tiebreak", ["fifo", "lifo"])
def test_partial_fill_lets_larger_same_price_order_take_the_head(tiebreak):
    book = OrderBook("SYM", comparator_for("size", tiebreak))
    book.submit(build_order(1, "sell", "limit", 1040, 100), tuple_trade)
    book.submit(build_order(2, "sell", "limit", 1040, 80), tuple_trade)
    book.submit(build_order(3, "sell", "limit", 1050, 500), tuple_trade)
    assert book.side(Side.SELL).head().order_id == "O1"

    trades = book.submit(build_order(4, "buy", "market", None, 30), tuple_trade)
    assert trades == [(1040, 30, "O4", "O1")]
    assert book.side(Side.SELL).head().order_id == "O2"
    asks = ranked(book.asks)
    assert [o.order_id for o in asks] == ["O2", "O1", "O3"]
    assert [o.remaining for o in asks] == [80, 70, 500]
    assert asks[0].status is OrderStatus.RESTING
    assert asks[1].status is OrderStatus.PARTIALLY_FILLED
    assert book.depth() == 3

    trades = book.submit(build_order(5, "buy", "limit", 1040, 85), tuple_trade)
    assert trades == [(1040, 80, "O5", "O2"), (1040, 5, "O5", "O1")]
    assert [o.order_id for o in ranked(book.asks)] == ["O1", "O3"]
    assert book.side(Side.SELL).head().remaining == 65
    assert book.depth() == 2 and ranked(book.bids) == []


# -- FOK at a level's edge ----------------------------------------------------

ASK_LADDER = [(1040, 30), (1045, 25), (1045, 15), (1050, 20), (1060, 100)]
BID_LADDER = [(1060, 30), (1055, 25), (1055, 15), (1050, 20), (1040, 100)]


def _laddered_book(secondary, tiebreak, side, ladder):
    book = OrderBook("SYM", comparator_for(secondary, tiebreak))
    for index, (price, qty) in enumerate(ladder, start=1):
        book.submit(build_order(index, side, "limit", price, qty), tuple_trade)
    return book


@pytest.mark.parametrize("secondary,tiebreak", COMBOS)
@pytest.mark.parametrize("side,ladder", [("sell", ASK_LADDER), ("buy", BID_LADDER)])
def test_fok_at_limit_fills_exactly_through_the_limit_level(secondary, tiebreak, side, ladder):
    book = _laddered_book(secondary, tiebreak, side, ladder)
    incoming_side = "buy" if side == "sell" else "sell"
    fok = build_order(9, incoming_side, "fok", 1050, 90)   # 30 + 40 + 20: through 1050
    assert book.fillable_quantity(fok) == 90
    trades = book.submit(fok, tuple_trade)
    assert fok.status is OrderStatus.FILLED
    assert sum(qty for _, qty, _, _ in trades) == 90
    assert {price for price, _, _, _ in trades} == {ladder[0][0], ladder[1][0], 1050}
    resting = book.asks if side == "sell" else book.bids
    assert [(o.order_id, o.remaining) for o in ranked(resting)] == [("O5", 100)]


@pytest.mark.parametrize("secondary,tiebreak", COMBOS)
@pytest.mark.parametrize("side,ladder", [("sell", ASK_LADDER), ("buy", BID_LADDER)])
def test_fok_one_share_beyond_the_limit_level_is_killed(secondary, tiebreak, side, ladder):
    book = _laddered_book(secondary, tiebreak, side, ladder)
    incoming_side = "buy" if side == "sell" else "sell"
    fok = build_order(9, incoming_side, "fok", 1050, 91)
    assert book.submit(fok, tuple_trade) == []
    assert fok.status is OrderStatus.CANCELLED
    resting = book.asks if side == "sell" else book.bids
    assert sorted(o.remaining for o in ranked(resting)) == sorted(qty for _, qty in ladder)
    assert book.depth() == len(ladder)
