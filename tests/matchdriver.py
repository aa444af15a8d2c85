"""Drives identical order flow through the production book and the
reference matcher, for the oracle-equivalence tests."""

from stpsim.exchange import OrderBook, PrecedenceComparator, SecondaryPrecedence, TieBreak
from stpsim.money import Money
from stpsim.registry import ParticipantId, ParticipantRole
from stpsim.trading import Order, OrderType, Side

from naivematch import RefOrder, ReferenceBook

_OTYPES = {
    "market": OrderType.MARKET,
    "limit": OrderType.LIMIT,
    "ioc": OrderType.IMMEDIATE_OR_CANCEL,
    "fok": OrderType.FILL_OR_KILL,
}

_BROKER = ParticipantId(ParticipantRole.BROKER, "TEST")

COMBOS = [
    ("time", "fifo"),
    ("time", "lifo"),
    ("size", "fifo"),
    ("size", "lifo"),
]


def ranked(side) -> list[Order]:
    """The orders resting on one `BookSide`, best first."""
    return [order for _, order in sorted(side._heap)]


def comparator_for(secondary: str, tiebreak: str) -> PrecedenceComparator:
    return PrecedenceComparator(
        SecondaryPrecedence.TIME_PRIORITY if secondary == "time"
        else SecondaryPrecedence.SIZE_PRIORITY,
        TieBreak.FIFO if tiebreak == "fifo" else TieBreak.LIFO,
    )


def build_order(index: int, side: str, otype: str, price: int | None, qty: int) -> Order:
    order = Order(
        order_id=f"O{index}",
        client="client",
        broker=_BROKER,
        side=Side(side),
        symbol="SYM",
        quantity=qty,
        order_type=_OTYPES[otype],
        limit_price=Money(price) if price is not None else None,
    )
    order.seq = index
    return order


def drive_pair(instance, secondary: str, tiebreak: str):
    """Returns (impl_submissions, ref_submissions, impl_state, ref_state,
    impl_crossed, ref_crossed); each submissions list holds one trade list
    per incoming order, trades as (price, qty, buy_oid, sell_oid)."""
    book = OrderBook("SYM", comparator_for(secondary, tiebreak))
    ref = ReferenceBook(secondary, tiebreak)

    impl_submissions = []
    ref_submissions = []
    for index, (side, otype, price, qty) in enumerate(instance, start=1):
        order = build_order(index, side, otype, price, qty)
        trades = book.submit(
            order, lambda b, s, p, q: (p.amount, q, b.order_id, s.order_id))
        impl_submissions.append(trades)
        ref_submissions.append(
            ref.submit(RefOrder(f"O{index}", side, otype, price, qty, index)))

    impl_state = {
        order.order_id: order.remaining
        for side_orders in (book.bids, book.asks)
        for order in ranked(side_orders)
    }
    return (impl_submissions, ref_submissions, impl_state, ref.state(),
            book.is_crossed(), ref.crossed())


def random_instance(rng, max_orders=10, price_levels=(1000, 1010, 1020), max_qty=10):
    count = rng.randint(1, max_orders)
    orders = []
    for _ in range(count):
        otype = rng.choice(["limit", "limit", "limit", "market", "ioc", "fok"])
        price = rng.choice(price_levels) if otype != "market" else None
        orders.append((rng.choice(["buy", "sell"]), otype, price, rng.randint(1, max_qty)))
    return orders
