"""The exchange: order validation, the book, and per-type matching.

Resting orders are ranked by price first (higher bid / lower ask), then by
the product's secondary precedence variant, then by its sequence-number
tie-break variant; unique sequence numbers make the ranking a strict total
order. Execution always happens at the resting order's price. Market
orders never rest: any unfilled remainder cancels. A market buy's cap is
its protection price: it trades only at prices at or below it.

Matching compares prices as minor units (plain ints), so an exchange
trades in one currency: the scenario's, in which the broker priced every
order it routes. The broker has also judged each order's shape by
`trading.order_shape_rule`, with types it offers only where the catalog
requires the exchange to match them, and the parser has refused an order
for an undeclared symbol. So exchange validation only caps the size, under
the extended variant, and numbers the order.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass

from .money import Money
from .registry import CLEARING_CORPORATION, ParticipantId, ParticipantRole, ServiceRegistry
from .trading import (
    BUY, CANCELLED, FILL_OR_KILL, FILLED, INSTITUTIONAL, LIMIT, MARKET, MAX_ORDER_QUANTITY,
    PARTIALLY_FILLED, REJECTED, RESTING, VALIDATED, ClearingRejected, Order, Rejection, Side,
    Trade)


class BookInvariantViolation(RuntimeError):
    """The book crossed between operations: an internal defect, never handled."""


class SecondaryPrecedence(enum.Enum):
    TIME_PRIORITY = "TimePriority"
    SIZE_PRIORITY = "SizePriority"


class TieBreak(enum.Enum):
    FIFO = "FifoTieBreak"
    LIFO = "LifoTieBreak"


# each member as a module constant, as `trading` explains
TIME_PRIORITY, SIZE_PRIORITY = SecondaryPrecedence.TIME_PRIORITY, SecondaryPrecedence.SIZE_PRIORITY
FIFO, LIFO = TieBreak.FIFO, TieBreak.LIFO


@dataclass(frozen=True)
class PrecedenceComparator:
    secondary: SecondaryPrecedence
    tie_break: TieBreak

    def key(self, order: Order):
        """Sort key; lowest key = first to trade. Total because seq is unique."""
        price = order.limit_price.amount if order.limit_price else 0
        primary = -price if order.side is BUY else price
        if self.secondary is TIME_PRIORITY:
            second = order.seq
        else:
            second = -order.remaining
        third = order.seq if self.tie_break is FIFO else -order.seq
        return (primary, second, third)


class BookSide:
    """One side's resting orders, kept as a heap in precedence order.

    Entries are ``(comparator.key(order), order)``; the keys are unique
    because seq is, so orders themselves are never compared, and one heap
    serves all four comparators. Only the head ever trades, so under size
    priority only the head's rank can change: it is re-pushed after a
    partial fill, and every other entry's key stays exact. ``levels`` maps
    each resting price, in minor units of the scenario's currency, to its
    total remaining quantity.
    """

    def __init__(self, key):
        self._key = key
        self._heap: list[tuple[tuple, Order]] = []
        self.levels: dict[int, int] = {}

    def append(self, order: Order) -> None:
        """Rest `order` (a priced order with quantity remaining)."""
        heapq.heappush(self._heap, (self._key(order), order))
        price = order.limit_price.amount
        self.levels[price] = self.levels.get(price, 0) + order.remaining

    def head(self) -> Order | None:
        return self._heap[0][1] if self._heap else None

    def take(self, qty: int) -> None:
        """Fill `qty` of the head; pop it when done, else re-rank it."""
        head = self._heap[0][1]
        head.remaining -= qty
        price = head.limit_price.amount
        left = self.levels[price] - qty
        if left:
            self.levels[price] = left
        else:
            del self.levels[price]
        if head.remaining:
            heapq.heapreplace(self._heap, (self._key(head), head))
        else:
            heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


class OrderBook:
    """One symbol's resting orders. The owning exchange serializes access.

    Each side is a `BookSide`, so the best order is its head and a fill
    costs O(log depth). `is_crossed` compares the two heads, and FOK's
    `fillable_quantity` sums price levels, not orders. Prices are compared
    as minor units, all in the scenario's one currency.
    """

    def __init__(self, symbol: str, comparator: PrecedenceComparator):
        self.symbol = symbol
        self.bids = BookSide(comparator.key)
        self.asks = BookSide(comparator.key)

    def side(self, side: Side) -> BookSide:
        return self.bids if side is BUY else self.asks

    def depth(self) -> int:
        return len(self.bids) + len(self.asks)

    def is_crossed(self) -> bool:
        bids, asks = self.bids._heap, self.asks._heap  # each side's head is its [0][1]
        if not bids or not asks:
            return False
        return bids[0][1].limit_price.amount >= asks[0][1].limit_price.amount

    @staticmethod
    def _bound(incoming: Order) -> int | None:
        """The worst price, in minor units, `incoming` may trade at; None for any."""
        if incoming.order_type is MARKET:
            cap = incoming.price_cap     # a market sell's cap bounds nothing
            return cap.amount if cap is not None and incoming.side is BUY else None
        return incoming.limit_price.amount

    def fillable_quantity(self, incoming: Order) -> int:
        """Shares available at compatible prices; does not mutate the book."""
        bound = self._bound(incoming)
        levels = self.side(incoming.side.opposite).levels
        if bound is None:
            return sum(levels.values())
        if incoming.side is BUY:
            return sum(qty for price, qty in levels.items() if price <= bound)
        return sum(qty for price, qty in levels.items() if price >= bound)

    def submit(self, incoming: Order, make_trade) -> list[Trade]:
        """Match `incoming` per its order type; returns executed trades.

        `make_trade(buy_order, sell_order, price, qty) -> Trade` supplies
        trade identity so the book stays reusable outside an exchange.
        """
        if incoming.order_type is FILL_OR_KILL:
            if self.fillable_quantity(incoming) < incoming.remaining:
                incoming.status = CANCELLED
                return []

        trades = self._sweep(incoming, make_trade)

        if incoming.remaining == 0:
            incoming.status = FILLED
        elif incoming.order_type is LIMIT:
            incoming.status = PARTIALLY_FILLED if trades else RESTING
            (self.bids if incoming.side is BUY else self.asks).append(incoming)
        else:
            incoming.status = CANCELLED

        if self.is_crossed():
            raise BookInvariantViolation(f"{self.symbol} book crossed after {incoming.order_id}")
        return trades

    def _sweep(self, incoming: Order, make_trade) -> list[Trade]:
        trades: list[Trade] = []
        buying = incoming.side is BUY
        opposite = self.asks if buying else self.bids
        heap = opposite._heap  # `take` changes it in place; its head is heap[0][1]
        bound = self._bound(incoming)
        while incoming.remaining > 0 and heap:
            resting = heap[0][1]
            price = resting.limit_price
            if bound is not None and (price.amount > bound if buying else price.amount < bound):
                break
            qty = min(incoming.remaining, resting.remaining)
            buy, sell = (incoming, resting) if buying else (resting, incoming)
            trades.append(make_trade(buy, sell, price, qty))
            incoming.remaining -= qty
            opposite.take(qty)
            resting.status = PARTIALLY_FILLED if resting.remaining else FILLED
        return trades


@dataclass(slots=True)
class TradeReport:
    """What the exchange tells the clearing corporation about one trade.

    Each side carries the account that will settle it and whether that side
    must first be covered by the custodian's client-level trades, the
    block's allocation details, which it hands on after affirmation
    (institutional orders settle from the custodian omnibus).
    """

    trade: Trade
    buy_account: str
    sell_account: str
    buy_deferred: bool
    sell_deferred: bool


class ExchangeService:
    """One exchange instance with the product's bound precedence and
    validation variants: a book per declared symbol, all priced in the
    scenario's currency."""

    role = ParticipantRole.EXCHANGE

    def __init__(
        self,
        pid: ParticipantId,
        registry: ServiceRegistry,
        symbols: tuple[str, ...],
        comparator: PrecedenceComparator,
        extended_validation: bool = False,
    ):
        self.pid = pid
        self.registry = registry
        self.comparator = comparator
        self.extended_validation = extended_validation
        self.books: dict[str, OrderBook] = {
            symbol: OrderBook(symbol, comparator) for symbol in sorted(symbols)
        }
        self.executed: list[Trade] = []
        self._unreported: list[TradeReport] = []
        self._next_seq = 1
        self._next_trade = 1

    def best_quote(self, symbol: str, side: Side) -> Money | None:
        best = self.books[symbol].side(side).head()
        return best.limit_price if best else None

    def book_depth(self, symbol: str) -> int:
        return self.books[symbol].depth()

    def validate_incoming_order(self, order: Order) -> Rejection | None:
        """The size cap under the extended variant, the one rule the broker
        may not have applied already (see the module docstring).

        Returns None on acceptance (order gets its seq number) and a
        Rejection identifying the violated rule otherwise.
        """
        if self.extended_validation and order.quantity > MAX_ORDER_QUANTITY:
            order.status = REJECTED
            return Rejection("exchange_validation", "OrderTooLarge")

        order.seq = self._next_seq
        self._next_seq += 1
        order.status = VALIDATED
        return None

    def submit_order(self, order: Order) -> list[Trade]:
        """Match a validated order. Trades are queued for the clearing report."""
        if order.seq is None:
            raise ValueError(f"order {order.order_id} was not validated here")
        book = self.books[order.symbol]
        trades = book.submit(order, self._make_trade)
        return trades

    def _make_trade(self, buy: Order, sell: Order, price: Money, qty: int) -> Trade:
        trade = Trade(f"{self.pid.id}-T{self._next_trade}", buy.order_id, sell.order_id,
                      buy.symbol, price, qty, self.pid)
        self._next_trade += 1
        self.executed.append(trade)
        self._unreported.append(TradeReport(
            trade, buy.settlement_account, sell.settlement_account,
            buy.client_kind is INSTITUTIONAL, sell.client_kind is INSTITUTIONAL))
        lookup = self.registry.lookup
        lookup(buy.broker).execution_report(buy.order_id, trade)
        lookup(sell.broker).execution_report(sell.order_id, trade)
        return trade

    def pending_report_count(self) -> int:
        return len(self._unreported)

    def report_trades_rec(self) -> int:
        """Push every executed-but-unreported trade to the clearing corporation."""
        submit = self.registry.first(CLEARING_CORPORATION).submit_trade
        reports, self._unreported = self._unreported, []
        for report in reports:
            result = submit(report)
            if result is not None:
                raise ClearingRejected(f"exchange trade {report.trade.trade_id}", result)
        return len(reports)
