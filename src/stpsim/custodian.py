"""The custodian: safekeeping, affirmation, institutional settlement.

The custodian holds institutional assets in an omnibus ledger account.
The manager's allocation details wait pending once the split is known to
hold at least one detail, each of a positive quantity. The rest of each
detail is the runner's to write: the allocating institution, its one
block order, the block's fill symbol and price, and an alloc id from one
counter; the parser refuses an empty end-client key. So the product's
`CustodianAllocationDetailValidationRules` and
`AllocationDetailAffirmationRules` variants bind nothing. The broker
checks the details against its block order and builds one contract from
each, so the custodian affirms the contracts it is handed: the block's
details become affirmed, the broker is told, and settlement
responsibility moves here. The custodian then forwards per-allocation
client trade records, which the clearing corporation never refuses, and,
once the street trades settle, distributes shares or proceeds from the
omnibus account to each end client.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clearing import ClientTradeRecord
from .ledger import Ledger
from .money import Money, _new
from .registry import CLEARING_CORPORATION, ParticipantId, ParticipantRole, ServiceRegistry
from .trading import BUY, Affirmation, AllocationDetail, Contract, Rejection, Side


@dataclass(frozen=True)
class CustodianConfig:
    money_method: str
    equity_method: str


@dataclass
class _AffirmedBlock:
    details: tuple[AllocationDetail, ...]
    side: Side
    forwarded: bool = False
    distributed: bool = False


class CustodianService:
    role = ParticipantRole.CUSTODIAN

    def __init__(
        self,
        pid: ParticipantId,
        registry: ServiceRegistry,
        ledger: Ledger,
        omnibus_account: str,
        config: CustodianConfig,
    ):
        self.pid = pid
        self.registry = registry
        self.ledger = ledger
        self.omnibus_account = omnibus_account
        self.config = config
        # the journal cause suffixes naming the bound transfer methods
        self._money_method = f"/method={config.money_method}"
        self._equity_method = f"/method={config.equity_method}"
        self.pending_details: dict[str, tuple[AllocationDetail, ...]] = {}
        self.affirmed: dict[str, _AffirmedBlock] = {}
        self.affirmations: list[Affirmation] = []
        self._next_affirmation = 1
        self._next_record = 1

    # -- intake ----------------------------------------------------------

    def receive_allocation_details(self, details: list[AllocationDetail]) -> Rejection | None:
        """Validate and store the manager's split, pending affirmation."""
        rule = self._validate_details(details)
        if rule:
            return Rejection("custodian_allocation_validation", rule)
        self.pending_details[details[0].block_order_id] = tuple(details)
        return None

    def _validate_details(self, details: list[AllocationDetail]) -> str | None:
        if not details:
            return "NoDetails"
        for detail in details:
            if detail.quantity <= 0:
                return "NonPositiveQuantity"
        return None

    # -- affirmation -------------------------------------------------------

    def affirm_contracts(self, contracts: list[Contract]) -> Affirmation:
        """Affirm the broker's contracts for one block: its pending details
        become affirmed, and settlement responsibility moves here.

        The broker builds each contract from the same detail this custodian
        holds (alloc id, symbol, quantity and price), so there is nothing
        to compare: the affirmation echoes the broker's contract ids.
        """
        block, broker_pid = contracts[0].block_order_id, contracts[0].broker
        details = self.pending_details.pop(block)
        affirmation = Affirmation(
            affirmation_id=f"{self.pid.id}-F{self._next_affirmation}",
            custodian=self.pid,
            broker=broker_pid,
            block_order_id=block,
            contract_ids=tuple(c.contract_id for c in contracts),
        )
        self._next_affirmation += 1
        self.affirmations.append(affirmation)

        broker = self.registry.lookup(broker_pid)
        broker.receive_affirmation(affirmation)
        side = broker.order_info(block).side
        self.affirmed[block] = _AffirmedBlock(details, side)
        return affirmation

    # -- clearing and settlement -----------------------------------------

    def send_trades_to_clearing_rec(self) -> int:
        """Submit one client-level trade record per affirmed allocation; the
        clearing corporation refuses no client record."""
        submit = self.registry.first(CLEARING_CORPORATION).submit_trade
        prefix, omnibus = f"{self.pid.id}-R", self.omnibus_account
        sent = 0
        for block, affirmed in self.affirmed.items():
            if affirmed.forwarded:
                continue
            details, side = affirmed.details, affirmed.side
            first = self._next_record
            self._next_record += len(details)
            for number, (_, _, _, _, symbol, quantity, price) in enumerate(details, first):
                submit(_new(ClientTradeRecord, (
                    f"{prefix}{number}", block, side, symbol, quantity, price, omnibus)))
            sent += len(details)
            affirmed.forwarded = True
        return sent

    def settle_institutional_rec(self) -> int:
        """Distribute settled blocks from the omnibus to end clients; idempotent."""
        clearing = self.registry.first(CLEARING_CORPORATION)
        omnibus = self.omnibus_account
        moved = 0
        for block, affirmed in self.affirmed.items():
            if affirmed.distributed or not affirmed.forwarded:
                continue
            if not clearing.is_order_settled(block):
                continue
            details = affirmed.details
            if affirmed.side is BUY:
                transfer, method = self.ledger.transfer_equity, self._equity_method
                for alloc_id, _, end_client, _, symbol, quantity, _ in details:
                    transfer(omnibus, end_client, symbol, quantity,
                             f"distribute:{alloc_id}{method}")
            else:
                transfer, method = self.ledger.transfer_money, self._money_method
                for alloc_id, _, end_client, _, _, quantity, price in details:
                    transfer(omnibus, end_client,
                             _new(Money, (price.amount * quantity, price.currency)),
                             f"distribute:{alloc_id}{method}")
            moved += len(details)
            affirmed.distributed = True
        return moved

    # -- bookkeeping -------------------------------------------------------

    def undistributed_blocks(self) -> list[str]:
        return [b for b, a in self.affirmed.items() if not a.distributed]

    def pending_blocks(self) -> list[str]:
        return list(self.pending_details)
