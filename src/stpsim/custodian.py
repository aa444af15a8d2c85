"""The custodian: safekeeping, affirmation, institutional settlement.

The custodian holds institutional assets in an omnibus ledger account.
The manager's allocation details wait pending once the split is known to
hold at least one detail, each of a positive quantity. The rest of each
detail is the runner's to write: the allocating institution, its one
block order, the block's fill symbol and price, and an alloc id from one
counter; the parser refuses an empty end-client key. So the product's
`CustodianAllocationDetailValidationRules` and
`AllocationDetailAffirmationRules` variants bind nothing. The broker
checks the details against its block order and sends one contract note
for the block, a contract id per detail on that detail's terms, so the
custodian affirms the note it is handed: the block's details become
affirmed, the broker is told, and settlement responsibility moves here.
The custodian then hands the clearing corporation each affirmed block's
details as its client-level trades, in one call per block, which clearing
never refuses, and, once the street trades settle, distributes shares or
proceeds from the omnibus account to each end client: one `Ledger.pay_out`
per block, one leg per detail, the posting call the broker credits its
retail clients with, so a block is paid out whole or not at all.
A block is marked distributed once paid, so a second
`settle_institutional_rec` pays nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ledger import Ledger
from .registry import CLEARING_CORPORATION, ParticipantId, ParticipantRole, ServiceRegistry
from .trading import BUY, Affirmation, AllocationDetail, ContractNote, Rejection, Side


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

    def affirm_contracts(self, note: ContractNote) -> Affirmation:
        """Affirm the broker's contracts for one block: its pending details
        become affirmed, and settlement responsibility moves here.

        The broker's contracts carry the terms of the very details this
        custodian holds (one contract per detail), so there is nothing to
        compare: the affirmation echoes the note's contract ids.
        """
        block, broker_pid, side, contract_ids = note
        details = self.pending_details.pop(block)
        affirmation = Affirmation(
            affirmation_id=f"{self.pid.id}-F{self._next_affirmation}",
            custodian=self.pid,
            broker=broker_pid,
            block_order_id=block,
            contract_ids=contract_ids,
        )
        self._next_affirmation += 1
        self.affirmations.append(affirmation)

        self.registry.lookup(broker_pid).receive_affirmation(affirmation)
        self.affirmed[block] = _AffirmedBlock(details, side)
        return affirmation

    # -- clearing and settlement -----------------------------------------

    def send_trades_to_clearing_rec(self) -> int:
        """Hand clearing each affirmed block's details, its client-level
        trades, once; return how many trades went."""
        submit = self.registry.first(CLEARING_CORPORATION).submit_client_trades
        sent = 0
        for affirmed in self.affirmed.values():
            if affirmed.forwarded:
                continue
            submit(affirmed.details)
            sent += len(affirmed.details)
            affirmed.forwarded = True
        return sent

    def settle_institutional_rec(self) -> int:
        """Distribute settled blocks from the omnibus to end clients; idempotent."""
        clearing = self.registry.first(CLEARING_CORPORATION)
        omnibus, pay_out = self.omnibus_account, self.ledger.pay_out
        moved = 0
        for block, affirmed in self.affirmed.items():
            if affirmed.distributed or not affirmed.forwarded:
                continue
            if not clearing.is_order_settled(block):
                continue
            details = affirmed.details
            if affirmed.side is BUY:
                method = self._equity_method
                moves = [(end_client, symbol, quantity, f"distribute:{alloc_id}{method}")
                         for alloc_id, _, end_client, _, symbol, quantity, _ in details]
            else:
                method = self._money_method
                moves = [(end_client, None, price.amount * quantity,
                          f"distribute:{alloc_id}{method}")
                         for alloc_id, _, end_client, _, _, quantity, price in details]
            pay_out(omnibus, moves)
            moved += len(details)
            affirmed.distributed = True
        return moved

    # -- bookkeeping -------------------------------------------------------

    def undistributed_blocks(self) -> list[str]:
        return [b for b, a in self.affirmed.items() if not a.distributed]

    def pending_blocks(self) -> list[str]:
        return list(self.pending_details)
