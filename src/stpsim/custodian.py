"""The custodian: safekeeping, affirmation, institutional settlement.

The custodian holds institutional assets in an omnibus ledger account.
The manager's allocation details of a known institution pass
`trading.allocation_detail_rule`, as at the broker. When broker contracts
arrive it affirms them against those pending details with the product's
bound rule packs; a successful affirmation transfers settlement
responsibility here. The custodian then forwards per-allocation client
trade records to the clearing corporation and, once the street trades
settle, distributes shares or proceeds from the omnibus account to each
end client.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .clearing import ClientTradeRecord
from .ledger import Ledger
from .money import Money, _new
from .registry import CLEARING_CORPORATION, ParticipantId, ParticipantRole, ServiceRegistry
from .trading import (
    BUY, Affirmation, AllocationDetail, ClearingRejected, Contract, Rejection, Side,
    allocation_detail_rule)


class CustodianError(Exception):
    pass


class NoPendingDetails(CustodianError):
    pass


@dataclass(frozen=True)
class AffirmationViolation:
    rule: str
    contract_id: str
    alloc_id: str

    def __str__(self) -> str:
        return f"{self.rule}: contract={self.contract_id or '-'} detail={self.alloc_id or '-'}"


@dataclass(frozen=True)
class AffirmationRejection:
    block_order_id: str
    violations: tuple[AffirmationViolation, ...]

    def __str__(self) -> str:
        return "; ".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class CustodianConfig:
    extended_detail_checks: bool
    affirmation_rules: frozenset[str]
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
        self.institutions: set[str] = set()
        self.pending_details: dict[str, tuple[AllocationDetail, ...]] = {}
        self.affirmed: dict[str, _AffirmedBlock] = {}
        self.affirmations: list[Affirmation | AffirmationRejection] = []
        self._next_affirmation = 1
        self._next_record = 1

    def add_institution(self, account: str) -> None:
        self.institutions.add(account)

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
        first = details[0]
        if first.institution not in self.institutions:
            return "UnknownInstitution"
        return allocation_detail_rule(
            details, first.institution, first.block_order_id, first.symbol,
            self.config.extended_detail_checks)

    # -- affirmation -------------------------------------------------------

    def affirm_contracts(self, contracts: list[Contract]) -> Affirmation | AffirmationRejection:
        """Check contracts against pending details under the bound rule packs.

        The verdict is a pure function of (contracts, details, rules): it
        does not depend on arrival order. Success sends an Affirmation to
        the broker and moves settlement responsibility to this custodian.
        """
        if not contracts:
            if not self.pending_details:
                raise NoPendingDetails("no contracts and no pending details")
            block = next(iter(self.pending_details))
            violations = [AffirmationViolation("UnmatchedDetails", "", "")]
        else:
            block = contracts[0].block_order_id
            details = self.pending_details.get(block)
            if details is None:
                raise NoPendingDetails(block)
            violations = self._affirmation_violations(contracts, details)
        if violations:
            rejection = AffirmationRejection(block, tuple(violations))
            self.affirmations.append(rejection)
            return rejection

        broker_pid = contracts[0].broker
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
        del self.pending_details[block]
        return affirmation

    def _affirmation_violations(
        self,
        contracts: list[Contract],
        details: tuple[AllocationDetail, ...],
    ) -> list[AffirmationViolation]:
        violations: list[AffirmationViolation] = []
        by_alloc = {d.alloc_id: d for d in details}

        if "FieldEqualityAffirmation" in self.config.affirmation_rules:
            seen_refs: set[str] = set()
            for contract in sorted(contracts, key=attrgetter("contract_id")):
                detail = by_alloc.get(contract.alloc_ref)
                if detail is None:
                    violations.append(AffirmationViolation(
                        "UnknownAllocationRef", contract.contract_id, contract.alloc_ref))
                    continue
                if contract.alloc_ref in seen_refs:
                    violations.append(AffirmationViolation(
                        "DuplicateAllocationRef", contract.contract_id, contract.alloc_ref))
                    continue
                seen_refs.add(contract.alloc_ref)
                if contract.symbol != detail.symbol:
                    violations.append(AffirmationViolation(
                        "SymbolMismatch", contract.contract_id, detail.alloc_id))
                if contract.quantity != detail.quantity:
                    violations.append(AffirmationViolation(
                        "QuantityMismatch", contract.contract_id, detail.alloc_id))
                # a broker's contract carries its detail's own Money; compare
                # the values only when they are different objects
                if contract.price is not detail.price and contract.price != detail.price:
                    violations.append(AffirmationViolation(
                        "PriceMismatch", contract.contract_id, detail.alloc_id))

        if "CoverageAffirmation" in self.config.affirmation_rules:
            if sum(c.quantity for c in contracts) != sum(d.quantity for d in details):
                violations.append(AffirmationViolation("QuantitySumMismatch", "", ""))
            unmatched = by_alloc.keys() - {c.alloc_ref for c in contracts}
            if unmatched:  # one violation per detail, so a repeated alloc id repeats
                violations.extend(
                    AffirmationViolation("UnmatchedDetails", "", alloc_id)
                    for alloc_id in sorted(d.alloc_id for d in details if d.alloc_id in unmatched))

        return violations

    # -- clearing and settlement -----------------------------------------

    def send_trades_to_clearing_rec(self) -> int:
        """Submit one client-level trade record per affirmed allocation."""
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
                rejection = submit(_new(ClientTradeRecord, (
                    f"{prefix}{number}", block, side, symbol, quantity, price, omnibus)))
                if rejection is not None:
                    raise ClearingRejected(f"client trade for {block}", rejection)
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
