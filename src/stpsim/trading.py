"""Orders, trades, and the institutional post-trade documents.

An `Order` travels client -> broker -> exchange and mutates as it goes
(sequence number at exchange acceptance, remaining quantity as it fills).
A `Trade` is the match of two orders; its status only ever advances
executed -> cleared -> settled. AllocationDetail / ContractNote /
Affirmation are the documents of the institutional post-trade flow: the
manager's per-client split, the broker's one note per block (a contract id
per detail) and the custodian's acceptance of it, which moves settlement
responsibility from the broker to the custodian. The details stay the one
per-allocation record: the custodian forwards them to clearing as the
block's client-level trades. The broker judges each order's shape by
`order_shape_rule`, the one place those rules run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .money import Money
from .registry import ParticipantId

MAX_ORDER_QUANTITY = 1_000_000      # the extended order checks' size cap
MAX_ORDER_VALUE = 100_000_000       # MaxOrderValueCap, in minor units of the ledger's currency
MAX_TRADE_VALUE = 10**12            # the extended trade checks' cap, in the same units


class Side(enum.Enum):
    BUY = "buy"
    SELL = "sell"

    __hash__ = object.__hash__  # by identity, as `registry.ParticipantRole` explains

    @property
    def opposite(self) -> "Side":
        return SELL if self is BUY else BUY


class OrderType(enum.Enum):
    MARKET = "market"
    LIMIT = "limit"
    IMMEDIATE_OR_CANCEL = "immediate_or_cancel"
    FILL_OR_KILL = "fill_or_kill"

    __hash__ = object.__hash__  # by identity, as `registry.ParticipantRole` explains


class OrderStatus(enum.Enum):
    NEW = "new"
    VALIDATED = "validated"
    ROUTED = "routed"
    RESTING = "resting"
    PARTIALLY_FILLED = "partially_filled"
    FILLED = "filled"
    CANCELLED = "cancelled"
    REJECTED = "rejected"


class ClientKind(enum.Enum):
    RETAIL = "retail"
    INSTITUTIONAL = "institutional"


class TradeStatus(enum.Enum):
    EXECUTED = "executed"
    CLEARED = "cleared"
    SETTLED = "settled"


# Each member as a module constant, the same object, for the run path to read:
# on CPython 3.11 `EnumType.__getattr__` makes every `Side.BUY` over ten
# times slower than a module global (README, "Enum members on the run path").
BUY, SELL = Side.BUY, Side.SELL
MARKET, LIMIT = OrderType.MARKET, OrderType.LIMIT
IMMEDIATE_OR_CANCEL, FILL_OR_KILL = OrderType.IMMEDIATE_OR_CANCEL, OrderType.FILL_OR_KILL
NEW, VALIDATED, ROUTED = OrderStatus.NEW, OrderStatus.VALIDATED, OrderStatus.ROUTED
RESTING, PARTIALLY_FILLED = OrderStatus.RESTING, OrderStatus.PARTIALLY_FILLED
FILLED, CANCELLED, REJECTED = OrderStatus.FILLED, OrderStatus.CANCELLED, OrderStatus.REJECTED
RETAIL, INSTITUTIONAL = ClientKind.RETAIL, ClientKind.INSTITUTIONAL
EXECUTED, CLEARED, SETTLED = TradeStatus.EXECUTED, TradeStatus.CLEARED, TradeStatus.SETTLED


@dataclass(slots=True)
class Order:
    order_id: str
    client: str                      # ledger account of the ordering client
    broker: ParticipantId
    side: Side
    symbol: str
    quantity: int
    order_type: OrderType
    limit_price: Money | None = None
    price_cap: Money | None = None   # a market buy's protection price
    client_kind: ClientKind = RETAIL
    settlement_account: str = ""     # broker house or custodian omnibus
    seq: int | None = None           # assigned at exchange acceptance
    remaining: int = 0
    status: OrderStatus = NEW

    def __post_init__(self) -> None:
        if self.remaining == 0 and self.status is NEW:
            self.remaining = self.quantity

    @property
    def filled_quantity(self) -> int:
        return self.quantity - self.remaining

    @property
    def is_terminal(self) -> bool:
        return self.status in (FILLED, CANCELLED, REJECTED)


@dataclass(slots=True)
class Trade:
    trade_id: str
    buy_order_id: str
    sell_order_id: str
    symbol: str
    price: Money          # per share, set by the resting order
    quantity: int
    exchange: ParticipantId
    status: TradeStatus = EXECUTED

    def advance(self, to: TradeStatus) -> None:
        """Move one status on: executed -> cleared -> settled."""
        status = self.status
        if not (to is CLEARED and status is EXECUTED or to is SETTLED and status is CLEARED):
            raise ValueError(f"trade {self.trade_id}: cannot go {status.value} -> {to.value}")
        self.status = to

    @property
    def value(self) -> Money:
        return self.price * self.quantity


class AllocationDetail(NamedTuple):
    alloc_id: str
    institution: str                 # institution account reference
    end_client_account: str
    block_order_id: str
    symbol: str
    quantity: int
    price: Money


class ContractNote(NamedTuple):
    """The broker's contracts for one block: one id per allocation detail,
    in detail order; each contract's terms are its detail's."""

    block_order_id: str
    broker: ParticipantId
    side: Side
    contract_ids: tuple[str, ...]


@dataclass(frozen=True)
class Affirmation:
    affirmation_id: str
    custodian: ParticipantId
    broker: ParticipantId
    block_order_id: str
    contract_ids: tuple[str, ...]


class MoneyLeg(NamedTuple):
    payer: str
    payee: str
    amount: Money


class EquityLeg(NamedTuple):
    deliverer: str
    receiver: str
    symbol: str
    quantity: int


@dataclass(frozen=True)
class SettlementInstruction:
    """Paired money and equity movements committed atomically (DVP).

    Trade-for-trade clearing plans one per trade, with both legs between the
    two settlement accounts. Multilateral netting plans one per net
    obligation, with legs between the account and the CCP; it can net one
    side of an (account, symbol) pair to zero, leaving a single leg. At
    least one leg is always present and present legs are strictly positive.
    The clearing corporation commits a cycle's instructions together: every
    leg the CCP does not pay, in instruction order, money before equity,
    then every leg the CCP pays.
    """

    instruction_id: str
    money_leg: MoneyLeg | None
    equity_leg: EquityLeg | None
    trade_refs: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.money_leg is None and self.equity_leg is None:
            raise ValueError(f"instruction {self.instruction_id} has no legs")
        if self.money_leg is not None and self.money_leg.amount.amount <= 0:
            raise ValueError(f"instruction {self.instruction_id}: non-positive money leg")
        if self.equity_leg is not None and self.equity_leg.quantity <= 0:
            raise ValueError(f"instruction {self.instruction_id}: non-positive equity leg")


def order_shape_rule(
    order_type: OrderType,
    quantity: int,
    limit_price: Money | None,
    supported: frozenset[OrderType],
    size_capped: bool,
    cap_required: bool = False,
    price_cap: Money | None = None,
    side: Side | None = None,
) -> str | None:
    """The first order-shape rule the order breaks, or None.

    Broker validation applies these rules, in this order. `size_capped`
    (the extended checks) caps the quantity at `MAX_ORDER_QUANTITY`. A
    price cap is a buyer's bound: a retail market buy must carry one
    (`cap_required`), a sell none (checked where `side` is given), and any
    cap must be positive. Prices are not checked for currency: every order
    is priced in the scenario's one currency.
    """
    if quantity <= 0:
        return "NonPositiveQuantity"
    if order_type not in supported:
        return "UnsupportedOrderType"
    if order_type is not MARKET:  # every other type takes a limit price
        if limit_price is None:
            return "MissingPrice"
        if limit_price.amount <= 0:
            return "NonPositivePrice"
    else:
        if limit_price is not None:
            return "PriceNotAllowed"
        if cap_required and price_cap is None:
            return "MissingPriceCap"
        if price_cap is not None and price_cap.amount <= 0:
            return "NonPositivePrice"
        if price_cap is not None and side is SELL:
            return "CapOnSell"
    if size_capped and quantity > MAX_ORDER_QUANTITY:
        return "OrderTooLarge"
    return None


class Rejection(NamedTuple):
    """A pipeline refusal: which stage said no, and which rule fired."""

    stage: str
    rule: str
    detail: str = ""

    def __str__(self) -> str:
        text = f"rejected at {self.stage}: {self.rule}"
        return f"{text} ({self.detail})" if self.detail else text


class ClearingRejected(Exception):
    """The clearing corporation refused a street trade; the run aborts with
    this as its cause."""

    def __init__(self, submission: str, rejection: Rejection):
        super().__init__(f"clearing rejected {submission}: {rejection}")


class AuditEvent(NamedTuple):
    """One broker stage's verdict on an order or a block's allocation. The
    broker keeps one per order, its last: `passed` names the stages it passed
    before `stage`, in the order they ran."""

    order_id: str
    stage: str
    outcome: str          # "ok" | "rejected"
    rule: str = ""
    passed: tuple[str, ...] = ()
