"""Clearing and settlement: obligations, netting, and atomic DVP.

The clearing corporation queues trade reports from exchanges and
client-level records from custodians, both through one intake check in
`submit_trade`. A street trade whose side was placed for an institutional
client stays pending until custodian records cover that order's full
executed quantity (affirmation has transferred settlement responsibility),
then clears under the product's bound rule:

* trade_for_trade: one money obligation and one equity obligation per
  trade, whose counterparty is the trade's other settlement account.
* multilateral_netting: per (account, symbol) signed sums, whose
  counterparty is the central counterparty (CCP) account, which must end
  every cycle flat.

Both rules settle through one path, `ClearingCorporation.settle_rec`:

1. Plan one instruction per trade (trade-for-trade) or per net obligation
   (netting). Every leg runs from the side that owes, by the sign of the
   obligation's money or share sum, to the other side.
2. Precheck the whole cycle: replay every transfer, debits and credits,
   over scratch balances in commit order, and raise `SettlementFailed` at
   the first shortfall, before anything is written.
3. Commit every leg the CCP does not pay, in instruction order, money
   before equity; then every leg the CCP pays, in the same order. Under
   trade-for-trade no leg touches the CCP, so this is per-trade money then
   equity; under netting everything flows into the CCP before anything
   flows out, so the CCP account never overdraws.

Money legs execute through the clearing bank and equity legs through the
depository. A cycle commits whole or not at all, and every trade it
cleared is SETTLED afterwards, also when netting left nothing to move.
"""

from __future__ import annotations

from typing import NamedTuple

from .ledger import Ledger
from .money import Money
from .registry import ParticipantId, ParticipantRole, ServiceRegistry
from .trading import (
    EquityLeg,
    MoneyLeg,
    Rejection,
    SettlementInstruction,
    Side,
    TradeStatus,
)
from .exchange import TradeReport


class SettlementFailed(Exception):
    def __init__(self, instruction: SettlementInstruction, failed_leg: str, reason: str):
        super().__init__(f"instruction {instruction.instruction_id}: {failed_leg} leg failed ({reason})")
        self.instruction = instruction
        self.failed_leg = failed_leg


class _Transfer(NamedTuple):
    """One leg of an instruction; `symbol` is None for a money leg."""

    instruction: SettlementInstruction
    leg: str              # "money" | "equity"
    src: str
    dst: str
    symbol: str | None
    amount: int


def _transfers(instruction: SettlementInstruction) -> list[_Transfer]:
    transfers = []
    if instruction.money_leg:
        leg = instruction.money_leg
        transfers.append(_Transfer(instruction, "money", leg.payer, leg.payee, None, leg.amount.amount))
    if instruction.equity_leg:
        eleg = instruction.equity_leg
        transfers.append(_Transfer(
            instruction, "equity", eleg.deliverer, eleg.receiver, eleg.symbol, eleg.quantity))
    return transfers


class ClientTradeRecord(NamedTuple):
    """A custodian's per-allocation trade submission, covering one side of a
    street trade's block order after affirmation."""

    trade_id: str
    block_order_id: str
    side: Side
    symbol: str
    quantity: int
    price: Money
    account: str          # custodian omnibus


class Obligation(NamedTuple):
    kind: str             # "money" | "equity" | "net"
    party: str
    counterparty: str
    symbol: str
    net_quantity: int     # signed; positive = party receives shares
    net_money: Money      # signed; positive = party receives money
    trade_refs: tuple[str, ...]


class ClearingBank:
    role = ParticipantRole.CLEARING_BANK

    def __init__(self, pid: ParticipantId, ledger: Ledger):
        self.pid = pid
        self.ledger = ledger

    def transfer_money(self, src: str, dst: str, amount: Money, cause: str) -> int:
        return self.ledger.transfer_money(src, dst, amount, f"{cause}/bank={self.pid.id}")


class Depository:
    role = ParticipantRole.DEPOSITORY

    def __init__(self, pid: ParticipantId, ledger: Ledger):
        self.pid = pid
        self.ledger = ledger

    def transfer_equity(self, src: str, dst: str, symbol: str, qty: int, cause: str) -> int:
        return self.ledger.transfer_equity(src, dst, symbol, qty, f"{cause}/depository={self.pid.id}")


class ClearingCorporation:
    role = ParticipantRole.CLEARING_CORPORATION

    def __init__(
        self,
        pid: ParticipantId,
        registry: ServiceRegistry,
        ledger: Ledger,
        netting: bool,
        ccp_account: str,
        extended_validation: bool = False,
    ):
        self.pid = pid
        self.registry = registry
        self.ledger = ledger
        self.netting = netting
        self.ccp_account = ccp_account
        self.extended_validation = extended_validation
        self.max_trade_value = Money(10**12, ledger.currency)
        self.queued: list[TradeReport] = []
        self.pending_obligations: list[Obligation] = []
        self.executed_instructions: list[SettlementInstruction] = []
        self._cleared_reports: list[TradeReport] = []
        self._seen_trade_ids: set[str] = set()
        self._street_qty: dict[str, int] = {}       # block/any order id -> executed qty
        self._covered_qty: dict[str, int] = {}      # order id -> custodian-covered qty
        self._order_trades: dict[str, list[TradeReport]] = {}
        self._next_instruction = 1

    # -- intake ---------------------------------------------------------

    def submit_trade(self, record: TradeReport | ClientTradeRecord, source: str) -> Rejection | None:
        """Validate and queue one submission; None means accepted.

        Street reports and client records pass one intake check: a new trade
        id, a positive quantity and price, and open settlement accounts. A
        street trade also meets the extended checks' `max_trade_value`.
        """
        if source == "exchange":
            trade, accounts = record.trade, (record.buy_account, record.sell_account)
        elif source == "custodian":
            trade, accounts = record, (record.account,)
        else:
            return Rejection("trade_validation", "UnknownSource", source)
        if trade.trade_id in self._seen_trade_ids:
            return Rejection("trade_validation", "DuplicateTrade", trade.trade_id)
        if trade.quantity <= 0:
            return Rejection("trade_validation", "NonPositiveQuantity", str(trade.quantity))
        if trade.price.amount <= 0:
            return Rejection("trade_validation", "NonPositivePrice", str(trade.price))
        for account in accounts:
            if account not in self.ledger.accounts:
                return Rejection("trade_validation", "UnknownAccount", account)
        if source == "exchange" and self.extended_validation and trade.value > self.max_trade_value:
            return Rejection("trade_validation", "TradeValueTooLarge", str(trade.value))
        self._seen_trade_ids.add(trade.trade_id)
        if source == "exchange":
            self._accept_street(record)
        else:
            block = record.block_order_id
            self._covered_qty[block] = self._covered_qty.get(block, 0) + record.quantity
        return None

    def _accept_street(self, report: TradeReport) -> None:
        self.queued.append(report)
        for order_id, deferred in (
            (report.trade.buy_order_id, report.buy_deferred),
            (report.trade.sell_order_id, report.sell_deferred),
        ):
            self._order_trades.setdefault(order_id, []).append(report)
            if deferred:
                self._street_qty[order_id] = self._street_qty.get(order_id, 0) + report.trade.quantity

    def _side_ready(self, order_id: str, deferred: bool) -> bool:
        if not deferred:
            return True
        return self._covered_qty.get(order_id, 0) >= self._street_qty.get(order_id, 0)

    def _ready(self, report: TradeReport) -> bool:
        return self._side_ready(report.trade.buy_order_id, report.buy_deferred) and \
            self._side_ready(report.trade.sell_order_id, report.sell_deferred)

    # -- clearing -------------------------------------------------------

    def clear_rec(self) -> list[Obligation]:
        """Apply the bound clearing rule to every settlement-ready trade."""
        ready, waiting = [], []
        for report in self.queued:
            (ready if self._ready(report) else waiting).append(report)
        self.queued = waiting
        obligations = self._net(ready) if self.netting else self._gross(ready)
        for report in ready:
            report.trade.advance(TradeStatus.CLEARED)
        self.pending_obligations.extend(obligations)
        self._cleared_reports.extend(ready)
        return obligations

    def _gross(self, reports: list[TradeReport]) -> list[Obligation]:
        obligations: list[Obligation] = []
        for report in reports:
            trade = report.trade
            value = trade.value
            obligations.append(Obligation(
                "money", report.buy_account, report.sell_account, trade.symbol,
                0, -value, (trade.trade_id,),
            ))
            obligations.append(Obligation(
                "equity", report.sell_account, report.buy_account, trade.symbol,
                -trade.quantity, Money(0, self.ledger.currency), (trade.trade_id,),
            ))
        return obligations

    def _net(self, reports: list[TradeReport]) -> list[Obligation]:
        sums: dict[tuple[str, str], tuple[int, int, list[str]]] = {}
        for report in reports:
            trade = report.trade
            value = trade.price.amount * trade.quantity
            for account, sign in ((report.buy_account, 1), (report.sell_account, -1)):
                key = (account, trade.symbol)
                qty, money, refs = sums.get(key, (0, 0, []))
                qty += sign * trade.quantity
                money -= sign * value
                refs.append(trade.trade_id)
                sums[key] = (qty, money, refs)
        obligations = []
        for (account, symbol) in sorted(sums):
            qty, money, refs = sums[(account, symbol)]
            if qty == 0 and money == 0:
                continue
            obligations.append(Obligation(
                "net", account, self.ccp_account, symbol,
                qty, Money(money, self.ledger.currency), tuple(refs),
            ))
        return obligations

    # -- settlement -----------------------------------------------------

    def settle_rec(self) -> list[SettlementInstruction]:
        """Settle every pending obligation as one all-or-nothing DVP cycle.

        Plans the instructions, prechecks the whole cycle, then commits it
        (see the module docstring for the commit order) and advances every
        cleared trade to SETTLED. On `SettlementFailed` nothing is written:
        no journal entry, no instruction id used, no trade advanced.
        """
        instructions = self._plan()
        transfers = [transfer for instruction in instructions for transfer in _transfers(instruction)]
        transfers.sort(key=lambda transfer: transfer.src == self.ccp_account)   # stable
        if transfers:
            bank = self.registry.first(ParticipantRole.CLEARING_BANK)
            depository = self.registry.first(ParticipantRole.DEPOSITORY)
            self._precheck(transfers)
            for transfer in transfers:
                cause = f"dvp:{transfer.instruction.instruction_id}"
                if transfer.symbol is None:
                    bank.transfer_money(transfer.src, transfer.dst,
                                        Money(transfer.amount, self.ledger.currency), cause)
                else:
                    depository.transfer_equity(
                        transfer.src, transfer.dst, transfer.symbol, transfer.amount, cause)
        for report in self._cleared_reports:
            report.trade.advance(TradeStatus.SETTLED)
        self._cleared_reports = []
        self.pending_obligations = []
        self._next_instruction += len(instructions)
        self.executed_instructions.extend(instructions)
        return instructions

    def _plan(self) -> list[SettlementInstruction]:
        # a trade's two gross obligations share trades and accounts; two net
        # obligations never do, since each (account, symbol) nets once
        legs: dict[tuple, dict[str, MoneyLeg | EquityLeg]] = {}
        for ob in self.pending_obligations:
            owed = legs.setdefault((ob.trade_refs, frozenset((ob.party, ob.counterparty))), {})
            owes = (ob.party, ob.counterparty)      # a negative sum: party owes counterparty
            money, qty = ob.net_money.amount, ob.net_quantity
            if money:
                payer, payee = owes if money < 0 else owes[::-1]
                owed["money"] = MoneyLeg(payer, payee, Money(abs(money), ob.net_money.currency))
            if qty:
                deliverer, receiver = owes if qty < 0 else owes[::-1]
                owed["equity"] = EquityLeg(deliverer, receiver, ob.symbol, abs(qty))
        return [
            SettlementInstruction(
                instruction_id=f"{self.pid.id}-S{self._next_instruction + offset}",
                money_leg=owed.get("money"),
                equity_leg=owed.get("equity"),
                trade_refs=refs,
            )
            for offset, ((refs, _), owed) in enumerate(legs.items())
        ]

    def _precheck(self, transfers: list[_Transfer]) -> None:
        held: dict[tuple[str, str | None], int] = {}

        def holding(account: str, symbol: str | None) -> int:
            if (account, symbol) not in held:
                held[account, symbol] = (self.ledger.balance(account).amount if symbol is None
                                         else self.ledger.position(account, symbol))
            return held[account, symbol]

        for transfer in transfers:
            src, dst, symbol, amount = transfer.src, transfer.dst, transfer.symbol, transfer.amount
            have = holding(src, symbol)
            if have < amount:
                raise SettlementFailed(
                    transfer.instruction, transfer.leg,
                    f"{src} short {amount - have}{symbol or self.ledger.currency}")
            held[src, symbol] = have - amount
            held[dst, symbol] = holding(dst, symbol) + amount

    # -- bookkeeping ----------------------------------------------------

    def is_order_settled(self, order_id: str) -> bool:
        """Settlement status inquiry: every street trade of `order_id` settled."""
        reports = self._order_trades.get(order_id, [])
        return bool(reports) and all(
            report.trade.status is TradeStatus.SETTLED for report in reports)

    def queue_size(self) -> int:
        return len(self.queued)

    def unsettled_obligations(self) -> int:
        return len(self.pending_obligations)
