"""Orders, trades, and the institutional post-trade documents.

An `Order` travels client -> broker -> exchange and mutates as it goes
(sequence number at exchange acceptance, remaining quantity as it fills).
A `Trade` is the match of two orders; its status only ever advances
executed -> cleared -> settled. AllocationDetail / Contract / Affirmation
are the documents of the institutional post-trade flow: the manager's
per-client split, the broker's mirror of that split, and the custodian's
signed agreement that the two match.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .money import Money
from .registry import ParticipantId


class Side(enum.Enum):
    BUY = "buy"
    SELL = "sell"

    @property
    def opposite(self) -> "Side":
        return Side.SELL if self is Side.BUY else Side.BUY


class OrderType(enum.Enum):
    MARKET = "market"
    LIMIT = "limit"
    IMMEDIATE_OR_CANCEL = "immediate_or_cancel"
    FILL_OR_KILL = "fill_or_kill"

    @property
    def requires_price(self) -> bool:
        return self is not OrderType.MARKET


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


@dataclass
class Order:
    order_id: str
    client: str                      # ledger account of the ordering client
    broker: ParticipantId
    side: Side
    symbol: str
    quantity: int
    order_type: OrderType
    limit_price: Money | None = None
    client_kind: ClientKind = ClientKind.RETAIL
    settlement_account: str = ""     # broker house or custodian omnibus
    seq: int | None = None           # assigned at exchange acceptance
    remaining: int = 0
    status: OrderStatus = OrderStatus.NEW

    def __post_init__(self) -> None:
        if self.remaining == 0 and self.status is OrderStatus.NEW:
            self.remaining = self.quantity

    @property
    def filled_quantity(self) -> int:
        return self.quantity - self.remaining

    @property
    def is_terminal(self) -> bool:
        return self.status in (OrderStatus.FILLED, OrderStatus.CANCELLED, OrderStatus.REJECTED)


@dataclass
class Trade:
    trade_id: str
    buy_order_id: str
    sell_order_id: str
    symbol: str
    price: Money          # per share, set by the resting order
    quantity: int
    exchange: ParticipantId
    status: TradeStatus = TradeStatus.EXECUTED

    def advance(self, to: TradeStatus) -> None:
        allowed = {
            TradeStatus.EXECUTED: TradeStatus.CLEARED,
            TradeStatus.CLEARED: TradeStatus.SETTLED,
        }
        if allowed.get(self.status) is not to:
            raise ValueError(f"trade {self.trade_id}: cannot go {self.status.value} -> {to.value}")
        self.status = to

    @property
    def value(self) -> Money:
        return self.price * self.quantity

    def export_line(self) -> str:
        return (f"{self.trade_id}|{self.symbol}|{self.price.amount}|{self.quantity}"
                f"|{self.buy_order_id}|{self.sell_order_id}")


@dataclass(frozen=True)
class AllocationDetail:
    alloc_id: str
    institution: str                 # institution account reference
    end_client_account: str
    block_order_id: str
    symbol: str
    quantity: int
    price: Money


@dataclass(frozen=True)
class Contract:
    contract_id: str
    broker: ParticipantId
    custodian: ParticipantId
    alloc_ref: str
    block_order_id: str
    symbol: str
    quantity: int
    price: Money


@dataclass(frozen=True)
class Affirmation:
    affirmation_id: str
    custodian: ParticipantId
    broker: ParticipantId
    block_order_id: str
    contract_ids: tuple[str, ...]


@dataclass(frozen=True)
class MoneyLeg:
    payer: str
    payee: str
    amount: Money


@dataclass(frozen=True)
class EquityLeg:
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


@dataclass(frozen=True)
class Rejection:
    """A pipeline refusal: which stage said no, and which rule fired."""

    stage: str
    rule: str
    detail: str = ""

    def __str__(self) -> str:
        text = f"rejected at {self.stage}: {self.rule}"
        return f"{text} ({self.detail})" if self.detail else text


@dataclass
class AuditEvent:
    order_id: str
    stage: str
    outcome: str          # "ok" | "rejected"
    rule: str = ""

    def export_line(self) -> str:
        return f"{self.order_id}|{self.stage}|{self.outcome}|{self.rule}"
