"""Clearing and settlement: obligations, netting, and atomic DVP.

The clearing corporation queues the exchanges' trade reports through
`submit_trade`, and takes each custodian's client-level trades for an
affirmed block, that block's allocation details, through
`submit_client_trades`. What the exchange and the custodian already
guarantee (trade ids from the exchange's counter, positive quantities,
accepted prices in the ledger's currency, accounts opened at assembly) it
does not check again; the one intake rule is the extended checks' cap on a
street trade's value. A street trade whose side was placed for an institutional
client stays pending until client-level trades cover that order's full
executed quantity (affirmation has transferred settlement
responsibility), then clears under the product's bound rule:

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
from .money import Money, _new
from .registry import CLEARING_BANK, DEPOSITORY, ParticipantId, ParticipantRole, ServiceRegistry
from .trading import (
    CLEARED,
    MAX_TRADE_VALUE,
    SETTLED,
    AllocationDetail,
    EquityLeg,
    MoneyLeg,
    Rejection,
    SettlementInstruction,
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
    src: str
    dst: str
    symbol: str | None
    amount: int


class Obligation(NamedTuple):
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
        self._suffix = f"/bank={pid.id}"    # names this bank in each journal cause

    def transfer_money(self, src: str, dst: str, amount: Money, cause: str) -> int:
        return self.ledger.transfer_money(src, dst, amount, cause + self._suffix)


class Depository:
    role = ParticipantRole.DEPOSITORY

    def __init__(self, pid: ParticipantId, ledger: Ledger):
        self.pid = pid
        self.ledger = ledger
        self._suffix = f"/depository={pid.id}"

    def transfer_equity(self, src: str, dst: str, symbol: str, qty: int, cause: str) -> int:
        return self.ledger.transfer_equity(src, dst, symbol, qty, cause + self._suffix)


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
        self.queued: list[TradeReport] = []
        self.pending_obligations: list[Obligation] = []
        self.executed_instructions: list[SettlementInstruction] = []
        self._cleared_reports: list[TradeReport] = []
        self._street_qty: dict[str, int] = {}       # block/any order id -> executed qty
        self._covered_qty: dict[str, int] = {}      # order id -> custodian-covered qty
        self._order_trades: dict[str, list[TradeReport]] = {}
        self._next_instruction = 1

    # -- intake ---------------------------------------------------------

    def submit_trade(self, report: TradeReport) -> Rejection | None:
        """Queue an exchange's street trade; None means accepted. It must
        meet the extended checks' `MAX_TRADE_VALUE`."""
        trade = report.trade
        # on minor units: the price is in the ledger's currency, as is the cap
        if self.extended_validation and trade.price.amount * trade.quantity > MAX_TRADE_VALUE:
            return Rejection("trade_validation", "TradeValueTooLarge", str(trade.value))
        self.queued.append(report)
        quantity, order_trades, street_qty = trade.quantity, self._order_trades, self._street_qty
        for order_id, deferred in ((trade.buy_order_id, report.buy_deferred),
                                   (trade.sell_order_id, report.sell_deferred)):
            reports = order_trades.get(order_id)
            if reports is None:
                order_trades[order_id] = [report]
            else:
                reports.append(report)
            if deferred:
                street_qty[order_id] = street_qty.get(order_id, 0) + quantity
        return None

    def submit_client_trades(self, details: tuple[AllocationDetail, ...]) -> None:
        """Take a custodian's client-level trades for one affirmed block, its
        allocation details: they cover that much of the block's street
        trades. Never refused."""
        block = details[0].block_order_id
        self._covered_qty[block] = self._covered_qty.get(block, 0) + sum(
            detail.quantity for detail in details)

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
            if (report.buy_deferred or report.sell_deferred) and not self._ready(report):
                waiting.append(report)
            else:
                ready.append(report)
        self.queued = waiting
        obligations = self._net(ready) if self.netting else self._gross(ready)
        for report in ready:
            report.trade.advance(CLEARED)
        self.pending_obligations.extend(obligations)
        self._cleared_reports.extend(ready)
        return obligations

    def _gross(self, reports: list[TradeReport]) -> list[Obligation]:
        currency = self.ledger.currency
        obligations: list[Obligation] = []
        add = obligations.append
        for report in reports:
            trade = report.trade
            buyer, seller, symbol = report.buy_account, report.sell_account, trade.symbol
            price, quantity, trade_id = trade.price, trade.quantity, trade.trade_id
            add(_new(Obligation, (buyer, seller, symbol, 0, _new(
                Money, (-price.amount * quantity, price.currency)), (trade_id,))))
            add(_new(Obligation, (seller, buyer, symbol, -quantity,
                                  _new(Money, (0, currency)), (trade_id,))))
        return obligations

    def _net(self, reports: list[TradeReport]) -> list[Obligation]:
        # (account, symbol) -> [shares received, money received, trade ids], signed
        sums: dict[tuple[str, str], list] = {}
        for report in reports:
            trade = report.trade
            symbol, quantity, trade_id = trade.symbol, trade.quantity, trade.trade_id
            value = trade.price.amount * quantity
            for account, sign in ((report.buy_account, 1), (report.sell_account, -1)):
                entry = sums.get((account, symbol))
                if entry is None:
                    sums[account, symbol] = [sign * quantity, -sign * value, [trade_id]]
                else:
                    entry[0] += sign * quantity
                    entry[1] -= sign * value
                    entry[2].append(trade_id)
        currency, ccp = self.ledger.currency, self.ccp_account
        return [
            _new(Obligation, (account, ccp, symbol, qty, _new(Money, (money, currency)),
                              tuple(refs)))
            for (account, symbol), (qty, money, refs) in sorted(sums.items())
            if qty or money]

    # -- settlement -----------------------------------------------------

    def settle_rec(self) -> list[SettlementInstruction]:
        """Settle every pending obligation as one all-or-nothing DVP cycle.

        Plans the instructions, prechecks the whole cycle, then commits it
        (see the module docstring for the commit order) and advances every
        cleared trade to SETTLED. On `SettlementFailed` nothing is written:
        no journal entry, no instruction id used, no trade advanced.
        """
        instructions, transfers = self._plan()
        if transfers:
            bank = self.registry.first(CLEARING_BANK)
            depository = self.registry.first(DEPOSITORY)
            self._precheck(transfers)
            currency = self.ledger.currency
            for instruction, src, dst, symbol, amount in transfers:
                cause = f"dvp:{instruction.instruction_id}"
                if symbol is None:
                    bank.transfer_money(src, dst, _new(Money, (amount, currency)), cause)
                else:
                    depository.transfer_equity(src, dst, symbol, amount, cause)
        for report in self._cleared_reports:
            report.trade.advance(SETTLED)
        self._cleared_reports = []
        self.pending_obligations = []
        self._next_instruction += len(instructions)
        self.executed_instructions.extend(instructions)
        return instructions

    def _plan(self) -> tuple[list[SettlementInstruction], list[_Transfer]]:
        """The cycle's instructions, and their legs as transfers in commit order."""
        # a trade's two gross obligations share trades and accounts; two net
        # obligations never do, since each (account, symbol) nets once
        legs: dict[tuple, dict[str, MoneyLeg | EquityLeg]] = {}
        for ob in self.pending_obligations:
            party, counterparty = ob.party, ob.counterparty
            owed = legs.setdefault((ob.trade_refs, frozenset((party, counterparty))), {})
            money, qty = ob.net_money.amount, ob.net_quantity
            # a negative sum: party owes counterparty
            if money:
                payer, payee = (party, counterparty) if money < 0 else (counterparty, party)
                owed["money"] = _new(MoneyLeg, (payer, payee,
                                          _new(Money, (abs(money), ob.net_money.currency))))
            if qty:
                deliverer, receiver = (party, counterparty) if qty < 0 else (counterparty, party)
                owed["equity"] = _new(EquityLeg, (deliverer, receiver, ob.symbol, abs(qty)))
        ccp, prefix, first = self.ccp_account, f"{self.pid.id}-S", self._next_instruction
        instructions, transfers, ccp_pays = [], [], []
        for number, ((refs, _), owed) in enumerate(legs.items(), first):
            money_leg, equity_leg = owed.get("money"), owed.get("equity")
            instruction = SettlementInstruction(f"{prefix}{number}", money_leg, equity_leg, refs)
            instructions.append(instruction)
            if money_leg:
                payer, payee, amount = money_leg
                (ccp_pays if payer == ccp else transfers).append(_new(_Transfer, (
                    instruction, payer, payee, None, amount.amount)))
            if equity_leg:
                deliverer, receiver, symbol, qty = equity_leg
                (ccp_pays if deliverer == ccp else transfers).append(_new(_Transfer, (
                    instruction, deliverer, receiver, symbol, qty)))
        transfers += ccp_pays
        return instructions, transfers

    def _precheck(self, transfers: list[_Transfer]) -> None:
        ledger = self.ledger
        held: dict[tuple[str, str | None], int] = {}

        def holding(account: str, symbol: str | None) -> int:
            have = held.get((account, symbol))
            if have is None:
                have = (ledger.balance(account).amount if symbol is None
                        else ledger.position(account, symbol))
            return have

        for instruction, src, dst, symbol, amount in transfers:
            have = holding(src, symbol)
            if have < amount:
                raise SettlementFailed(instruction, "money" if symbol is None else "equity",
                                       f"{src} short {amount - have}{symbol or ledger.currency}")
            held[src, symbol] = have - amount
            held[dst, symbol] = holding(dst, symbol) + amount

    # -- bookkeeping ----------------------------------------------------

    def is_order_settled(self, order_id: str) -> bool:
        """Settlement status inquiry: every street trade of `order_id` settled."""
        reports = self._order_trades.get(order_id, [])
        return bool(reports) and all(
            report.trade.status is SETTLED for report in reports)

    def queue_size(self) -> int:
        return len(self.queued)

    def unsettled_obligations(self) -> int:
        return len(self.pending_obligations)
