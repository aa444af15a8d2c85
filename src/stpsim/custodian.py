"""The custodian: safekeeping, affirmation, institutional settlement.

The custodian holds institutional assets in an omnibus ledger account.
When broker contracts arrive it affirms them against the manager's pending
allocation details with the product's bound rule packs; a successful
affirmation transfers settlement responsibility here. The custodian then
forwards per-allocation client trade records to the clearing corporation
and, once the street trades settle, distributes shares or proceeds from
the omnibus account to each end client.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clearing import ClientTradeRecord
from .ledger import Ledger
from .registry import ParticipantId, ParticipantRole, ServiceRegistry
from .trading import Affirmation, AllocationDetail, Contract, Rejection, Side


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
    extended_detail_checks: bool = False
    affirmation_rules: frozenset[str] = frozenset(
        {"FieldEqualityAffirmation", "CoverageAffirmation"})
    money_method: str = "CustodianBookEntryPayment"
    equity_method: str = "CustodianBookEntryEquityTransfer"


@dataclass
class _AffirmedBlock:
    details: tuple[AllocationDetail, ...]
    contracts: tuple[Contract, ...]
    side: Side
    broker: ParticipantId
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
        config: CustodianConfig | None = None,
    ):
        self.pid = pid
        self.registry = registry
        self.ledger = ledger
        self.omnibus_account = omnibus_account
        self.config = config or CustodianConfig()
        self.institutions: set[str] = set()
        self.pending_details: dict[str, tuple[AllocationDetail, ...]] = {}
        self.received_contracts: dict[str, tuple[Contract, ...]] = {}
        self.affirmed: dict[str, _AffirmedBlock] = {}
        self.affirmation_log: list[str] = []
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
        if details[0].institution not in self.institutions:
            return "UnknownInstitution"
        if any(d.institution != details[0].institution for d in details):
            return "InstitutionMismatch"
        if any(d.block_order_id != details[0].block_order_id for d in details):
            return "MixedBlockOrders"
        if any(d.quantity <= 0 for d in details):
            return "NonPositiveQuantity"
        if any(d.symbol != details[0].symbol for d in details):
            return "SymbolMismatch"
        if self.config.extended_detail_checks:
            if any(not d.end_client_account for d in details):
                return "EmptyEndClientAccount"
            if any(d.price.amount <= 0 for d in details):
                return "NonPositivePrice"
            if len({d.alloc_id for d in details}) != len(details):
                return "DuplicateAllocId"
        return None

    def receive_contracts(self, contracts: list[Contract]) -> None:
        if contracts:
            self.received_contracts[contracts[0].block_order_id] = tuple(contracts)

    # -- affirmation -------------------------------------------------------

    def affirm_contracts(self, contracts: list[Contract]) -> Affirmation | AffirmationRejection:
        """Check contracts against pending details under the bound rule packs.

        The verdict is a pure function of (contracts, details, rules): it
        does not depend on arrival order. Success sends an Affirmation to
        the broker and moves settlement responsibility to this custodian.
        """
        if not contracts:
            if self.pending_details:
                block = next(iter(self.pending_details))
                return AffirmationRejection(
                    block, (AffirmationViolation("UnmatchedDetails", "", ""),))
            raise NoPendingDetails("no contracts and no pending details")

        block = contracts[0].block_order_id
        details = self.pending_details.get(block)
        if details is None:
            raise NoPendingDetails(block)

        violations = self._affirmation_violations(contracts, details)
        if violations:
            summary = ";".join(str(v) for v in violations)
            self.affirmation_log.append(f"rejected|{block}|{summary}")
            return AffirmationRejection(block, tuple(violations))

        broker_pid = contracts[0].broker
        affirmation = Affirmation(
            affirmation_id=f"{self.pid.id}-F{self._next_affirmation}",
            custodian=self.pid,
            broker=broker_pid,
            block_order_id=block,
            contract_ids=tuple(c.contract_id for c in contracts),
        )
        self._next_affirmation += 1
        self.affirmation_log.append(
            f"affirmed|{block}|{affirmation.affirmation_id}|"
            f"{','.join(affirmation.contract_ids)}")

        broker = self.registry.lookup(broker_pid)
        broker.receive_affirmation(affirmation)
        side = broker.order_info(block).side
        self.affirmed[block] = _AffirmedBlock(details, tuple(contracts), side, broker_pid)
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
            for contract in sorted(contracts, key=lambda c: c.contract_id):
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
                if contract.price != detail.price:
                    violations.append(AffirmationViolation(
                        "PriceMismatch", contract.contract_id, detail.alloc_id))

        if "CoverageAffirmation" in self.config.affirmation_rules:
            if sum(c.quantity for c in contracts) != sum(d.quantity for d in details):
                violations.append(AffirmationViolation("QuantitySumMismatch", "", ""))
            referenced = {c.alloc_ref for c in contracts}
            for detail in sorted(details, key=lambda d: d.alloc_id):
                if detail.alloc_id not in referenced:
                    violations.append(AffirmationViolation(
                        "UnmatchedDetails", "", detail.alloc_id))

        return violations

    # -- clearing and settlement -----------------------------------------

    def send_trades_to_clearing_rec(self) -> int:
        """Submit one client-level trade record per affirmed allocation."""
        clearing = self.registry.first(ParticipantRole.CLEARING_CORPORATION)
        sent = 0
        for block, affirmed in self.affirmed.items():
            if affirmed.forwarded:
                continue
            for detail in affirmed.details:
                record = ClientTradeRecord(
                    trade_id=f"{self.pid.id}-T{self._next_record}",
                    block_order_id=block,
                    side=affirmed.side,
                    symbol=detail.symbol,
                    quantity=detail.quantity,
                    price=detail.price,
                    account=self.omnibus_account,
                )
                self._next_record += 1
                rejection = clearing.submit_trade(record, source="custodian")
                if rejection is not None:
                    raise CustodianError(
                        f"clearing rejected client trade for {block}: {rejection}")
                sent += 1
            affirmed.forwarded = True
        return sent

    def settle_institutional_rec(self) -> int:
        """Distribute settled blocks from the omnibus to end clients; idempotent."""
        clearing = self.registry.first(ParticipantRole.CLEARING_CORPORATION)
        moved = 0
        for block, affirmed in self.affirmed.items():
            if affirmed.distributed or not affirmed.forwarded:
                continue
            if not clearing.is_order_settled(block):
                continue
            for detail in affirmed.details:
                if affirmed.side is Side.BUY:
                    self.ledger.transfer_equity(
                        self.omnibus_account, detail.end_client_account,
                        detail.symbol, detail.quantity,
                        f"distribute:{detail.alloc_id}/method={self.config.equity_method}")
                else:
                    self.ledger.transfer_money(
                        self.omnibus_account, detail.end_client_account,
                        detail.price * detail.quantity,
                        f"distribute:{detail.alloc_id}/method={self.config.money_method}")
                moved += 1
            affirmed.distributed = True
        return moved

    # -- bookkeeping -------------------------------------------------------

    def affirmation_export_lines(self) -> list[str]:
        return list(self.affirmation_log)

    def undistributed_blocks(self) -> list[str]:
        return [b for b, a in self.affirmed.items() if not a.distributed]

    def pending_blocks(self) -> list[str]:
        return list(self.pending_details)
