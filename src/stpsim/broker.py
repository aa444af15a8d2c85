"""The broker: client intake pipeline, routing, post-trade paperwork.

Order intake runs a fixed pipeline whose stages are filled by the
product's bound variants: validation -> risks -> governmental compliance ->
client compliance -> venue selection -> prepayment -> routing. A rejection
at any stage stops the pipeline and leaves the ledger net-unchanged (a
prepayment taken before a routing rejection is refunded in the same call).
Each order leaves one audit record, its last stage's verdict, which names
the stages it passed before; each allocation check leaves one more.
Validation judges the order's shape by `trading.order_shape_rule`, the one
place those rules run; it does not ask whether the client is this
broker's, since the runner sends each order to the broker its client line
names, nor the price's currency, since the runner prices every order in
the ledger's.

Retail clients prepay the broker house account: money for buys at the
limit or cap price, shares for sells. The house keeps each prepayment as
one escrow entry per order, an integer (minor units for a buy, shares for
a sell). The entry is returned exactly once, by `_return_escrow`: with
nothing used when routing rejects the order, or, once the order is
terminal and all its trades are settled and credited, with the street's
cost (a buy) or the filled quantity (a sell) used. It refunds the rest. No
fill costs more than the limit or cap, so the rest is never negative.
Prepayment, crediting and refund all go through one house-client
transfer, `_transfer`. Institutional clients never prepay: their assets
sit at the custodian, which takes over settlement once it affirms the
broker's contracts. The custodian has already accepted the manager's
allocation details, so the broker checks only what it alone knows, its
block order: the block is done filling and the details cover its filled
quantity. It then sends one contract note for the block, a contract id per
detail on the detail's terms, which the custodian affirms as it is handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .ledger import InsufficientFunds, InsufficientPosition, Ledger
from .money import Money, _new
from .registry import EXCHANGE, ParticipantId, ParticipantRole, ServiceRegistry
from .trading import (
    BUY,
    INSTITUTIONAL,
    MAX_ORDER_VALUE,
    RETAIL,
    ROUTED,
    SELL,
    SETTLED,
    Affirmation,
    AllocationDetail,
    AuditEvent,
    ClientKind,
    ContractNote,
    Order,
    OrderType,
    Rejection,
    Side,
    Trade,
    order_shape_rule,
)


class NoVenues(Exception):
    pass


# The intake stages an accepted order passes before routing, by client kind
# (an institution prepays nothing). Its one audit record, routing's, carries
# them; a rejection's carries the prefix before the stage that refused.
RETAIL_PASSED = ("validation", "risk", "governmental_compliance", "client_compliance",
                 "venue_selection", "prepayment")
INSTITUTIONAL_PASSED = RETAIL_PASSED[:-1]


class OrderDraft(NamedTuple):
    client: str
    side: Side
    symbol: str
    quantity: int
    order_type: OrderType
    limit_price: Money | None = None
    price_cap: Money | None = None          # funding bound for retail market buys
    ref: str | None = None                  # the client's own order reference (FIX ClOrdID)


@dataclass(frozen=True)
class BrokerConfig:
    """The broker pipeline's bound variants, projected from a ProductSpec."""

    extended_order_checks: bool
    venue_algorithm: str
    offered_types: frozenset[OrderType]
    money_method: str
    equity_method: str
    risk_checks: frozenset[str]
    restricted_screening: bool
    value_cap_enabled: bool


class BrokerService:
    role = ParticipantRole.BROKER

    def __init__(
        self,
        pid: ParticipantId,
        registry: ServiceRegistry,
        ledger: Ledger,
        house_account: str,
        config: BrokerConfig,
        restricted_symbols: frozenset[str] = frozenset(),
    ):
        self.pid = pid
        self.registry = registry
        self.ledger = ledger
        self.house_account = house_account
        self.config = config
        self.restricted_symbols = restricted_symbols
        # the journal cause suffixes naming the bound transfer methods
        self._money_method = f"/method={config.money_method}"
        self._equity_method = f"/method={config.equity_method}"
        self.institutions: dict[str, ParticipantId] = {}  # institution account -> custodian
        self.orders: dict[str, Order] = {}
        self.fills: dict[str, list[Trade]] = {}
        self.audit_records: list[AuditEvent] = []  # one per order placed or allocation checked
        self.contracts_sent: set[str] = set()  # block orders whose contracts went out
        self.affirmed_blocks: set[str] = set()  # settlement now the custodian's
        self._escrow: dict[str, int] = {}  # retail order id -> prepaid units not yet returned
        self._credited: set[tuple[str, str]] = set()
        self._seen_refs: set[tuple[str, str]] = set()  # (client, ref) of each referenced order
        self._next_order = 1
        self._next_contract = 1

    # -- wiring -----------------------------------------------------------

    def add_institution(self, account: str, custodian: ParticipantId) -> None:
        self.institutions[account] = custodian

    # -- order intake -------------------------------------------------------

    def place_retail_order(self, draft: OrderDraft) -> str | Rejection:
        return self._run_pipeline(draft, RETAIL)

    def place_institutional_order(self, draft: OrderDraft) -> str | Rejection:
        return self._run_pipeline(draft, INSTITUTIONAL)

    def _run_pipeline(self, draft: OrderDraft, kind: ClientKind) -> str | Rejection:
        order_id = f"{self.pid.id}-O{self._next_order}"
        self._next_order += 1
        retail = kind is RETAIL
        passed = RETAIL_PASSED if retail else INSTITUTIONAL_PASSED

        if rule := self._stage_validation(draft, kind):
            return self._rejected(order_id, passed, "validation", rule)
        if rule := self._stage_risk(draft, kind):
            return self._rejected(order_id, passed, "risk", rule)
        if rule := self._stage_governmental(draft):
            return self._rejected(order_id, passed, "governmental_compliance", rule)
        if rule := self._stage_client_compliance(draft):
            return self._rejected(order_id, passed, "client_compliance", rule)

        try:
            venue = self.select_venue(draft, self.registry.list_by_role(EXCHANGE))
        except NoVenues:
            return self._rejected(order_id, passed, "venue_selection", "NoVenues")

        order = self._build_order(order_id, draft, kind)

        if retail:
            if rule := self._stage_prepayment(order, draft):
                return self._rejected(order_id, passed, "prepayment", rule)

        if rejection := self._stage_routing(order, venue):
            if retail:
                self._return_escrow(order, 0)
            return self._rejected(order_id, passed, "routing", rejection.rule)
        self.audit_records.append(_new(AuditEvent, (order_id, "routing", "ok", "", passed)))

        self.orders[order_id] = order
        return order_id

    def _rejected(self, order_id: str, passed: tuple[str, ...], stage: str,
                  rule: str) -> Rejection:
        """Record that `stage` refused the order after the stages of `passed`
        that come before it (all of them, for routing)."""
        if stage in passed:
            passed = passed[:passed.index(stage)]
        self.audit_records.append(AuditEvent(order_id, stage, "rejected", rule, passed))
        return Rejection(stage, rule)

    def _stage_validation(self, draft: OrderDraft, kind: ClientKind) -> str | None:
        side = draft.side
        return order_shape_rule(
            draft.order_type, draft.quantity, draft.limit_price, self.config.offered_types,
            self.config.extended_order_checks, kind is RETAIL and side is BUY, draft.price_cap,
            side)

    def _stage_risk(self, draft: OrderDraft, kind: ClientKind) -> str | None:
        """`DuplicateOrderCheck`: a client's second order under one `ref` (an
        order without one is never a duplicate); `PrefundingRiskCheck`: a
        retail client must hold what the order could cost or deliver."""
        checks = self.config.risk_checks
        if draft.ref is not None and "DuplicateOrderCheck" in checks:
            key = (draft.client, draft.ref)
            if key in self._seen_refs:
                return "DuplicateOrder"
            self._seen_refs.add(key)
        if "PrefundingRiskCheck" in checks and kind is RETAIL:
            if draft.side is BUY:
                # validation guarantees a retail buy a limit or a cap
                required = (draft.limit_price or draft.price_cap) * draft.quantity
                if self.ledger.balance(draft.client) < required:
                    return "InsufficientPrefunding"
            elif self.ledger.position(draft.client, draft.symbol) < draft.quantity:
                return "InsufficientPrefunding"
        return None

    def _stage_governmental(self, draft: OrderDraft) -> str | None:
        if self.config.restricted_screening and draft.symbol in self.restricted_symbols:
            return "RestrictedSymbol"
        return None

    def _stage_client_compliance(self, draft: OrderDraft) -> str | None:
        if not self.config.value_cap_enabled:
            return None
        price = draft.limit_price or draft.price_cap
        if price is not None and price.amount * draft.quantity > MAX_ORDER_VALUE:
            return "OrderValueOverCap"
        return None

    def _build_order(self, order_id: str, draft: OrderDraft, kind: ClientKind) -> Order:
        if kind is RETAIL:
            settlement = self.house_account
        else:
            custodian = self.registry.lookup(self.institutions[draft.client])
            settlement = custodian.omnibus_account
        # positionally, in `Order`'s field order (tests/test_broker.py checks it)
        return Order(order_id, draft.client, self.pid, draft.side, draft.symbol, draft.quantity,
                     draft.order_type, draft.limit_price, draft.price_cap, kind, settlement)

    def _stage_prepayment(self, order: Order, draft: OrderDraft) -> str | None:
        money = order.side is BUY
        # a retail buy prepays at its limit or its cap, which validation guarantees
        prepaid = ((draft.limit_price or draft.price_cap).amount * order.quantity if money
                   else order.quantity)
        try:
            self._transfer(order, prepaid, money, f"prepay:{order.order_id}", to_client=False)
        except InsufficientFunds:
            return "InsufficientFunds"
        except InsufficientPosition:
            return "InsufficientPosition"
        self._escrow[order.order_id] = prepaid
        return None

    def _transfer(self, order: Order, units: int, money: bool, cause: str,
                  to_client: bool = True) -> None:
        """Move `units` minor units of money, or shares of the order's symbol,
        from the house account to the order's client (or back), journaled
        as `cause` and the bound transfer method."""
        src, dst = self.house_account, order.client
        if not to_client:
            src, dst = dst, src
        if money:
            self.ledger.transfer_money(src, dst, _new(Money, (units, self.ledger.currency)),
                                       cause + self._money_method)
        else:
            self.ledger.transfer_equity(src, dst, order.symbol, units,
                                        cause + self._equity_method)

    def _return_escrow(self, order: Order, used: int) -> None:
        """Release the order's escrow, refunding what the street did not use."""
        unused = self._escrow.pop(order.order_id) - used
        if unused > 0:
            self._transfer(order, unused, order.side is BUY, f"refund:{order.order_id}")

    def _stage_routing(self, order: Order, venue: ParticipantId) -> Rejection | None:
        exchange = self.registry.lookup(venue)
        rejection = exchange.validate_incoming_order(order)
        if rejection:
            return rejection
        order.status = ROUTED
        exchange.submit_order(order)
        return None

    # -- placeholder algorithms ----------------------------------------------

    def select_venue(self, draft: OrderDraft, venues: list[ParticipantId]) -> ParticipantId:
        """Pick an execution venue by the bound algorithm; FirstVenueChoice: the first."""
        if not venues:
            raise NoVenues("no exchanges registered")
        if self.config.venue_algorithm == "BestQuoteVenueChoice":
            best_pid, best_amount = None, None
            for pid in venues:
                quote = self.registry.lookup(pid).best_quote(draft.symbol, draft.side.opposite)
                if quote is None:
                    continue
                better = (
                    best_amount is None
                    or (draft.side is BUY and quote.amount < best_amount)
                    or (draft.side is SELL and quote.amount > best_amount)
                )
                if better:
                    best_pid, best_amount = pid, quote.amount
            return best_pid if best_pid is not None else venues[0]
        if self.config.venue_algorithm == "LeastLoadedVenueChoice":
            return min(venues, key=lambda pid: self.registry.lookup(pid).book_depth(draft.symbol))
        return venues[0]

    # -- execution and post-trade ---------------------------------------------

    def execution_report(self, order_id: str, trade: Trade) -> None:
        """Exchange callback: one of this broker's orders traded."""
        fills = self.fills.get(order_id)
        if fills is None:
            self.fills[order_id] = [trade]
        else:
            fills.append(trade)

    def handle_allocation_details(
            self, details: list[AllocationDetail]) -> ContractNote | Rejection:
        """Check the block's details and send one contract per detail, in a
        note for the block whose ids run on from this broker's counter."""
        block_id = details[0].block_order_id
        order = self.orders[block_id]
        rule = self._validate_details(order, details)
        if rule:
            self.audit_records.append(AuditEvent(block_id, "allocation_validation",
                                                 "rejected", rule))
            return Rejection("allocation_validation", rule)

        prefix, first = f"{self.pid.id}-C", self._next_contract
        self._next_contract += len(details)
        self.contracts_sent.add(block_id)
        self.audit_records.append(
            _new(AuditEvent, (block_id, "allocation_validation", "ok", "", ())))
        return _new(ContractNote, (block_id, self.pid, order.side, tuple(
            f"{prefix}{number}" for number in range(first, self._next_contract))))

    def _validate_details(self, order: Order, details: list[AllocationDetail]) -> str | None:
        """The custodian has passed `details` (a non-empty list for `order`,
        one of this broker's institutional orders, each priced at its one
        fill price); the block must be done filling, and the details must
        cover it."""
        if not order.is_terminal:
            return "BlockNotFilled"
        if sum(detail.quantity for detail in details) != order.filled_quantity:
            return "QuantityMismatch"
        return None

    def receive_affirmation(self, affirmation: Affirmation) -> None:
        """Custodian affirmed: settlement responsibility leaves this broker."""
        self.affirmed_blocks.add(affirmation.block_order_id)

    # -- settlement --------------------------------------------------------

    def settle_retail_rec(self) -> int:
        """Credit retail clients for settled trades; idempotent. One pass per
        order credits each settled trade not yet credited, sums the street's
        cost, and returns the escrow once the order is terminal and settled."""
        credited = 0
        done, escrow, fills = self._credited, self._escrow, self.fills.get
        for order_id, order in self.orders.items():
            if order.client_kind is not RETAIL:
                continue
            buy = order.side is BUY
            cost = 0
            settled = True
            for trade in fills(order_id, ()):
                if trade.status is not SETTLED:
                    settled = False
                    continue
                quantity = trade.quantity
                value = trade.price.amount * quantity
                cost += value
                key = (order_id, trade.trade_id)
                if key in done:
                    continue
                if buy:
                    self._transfer(order, quantity, False, f"settle:{trade.trade_id}")
                else:
                    self._transfer(order, value, True, f"settle:{trade.trade_id}")
                done.add(key)
                credited += 1
            if settled and order_id in escrow and order.is_terminal:
                self._return_escrow(order, cost if buy else order.filled_quantity)
        return credited

    def unaffirmed_blocks(self) -> list[str]:
        return [block_id for block_id in self.contracts_sent
                if block_id not in self.affirmed_blocks]
