"""Wiring a derived product into a running ecosystem.

`BINDING_TABLE` is the product line the assembly can run: for each
participant, each variation point it binds, the config field that point
sets and the value each of its variants drives. `project` reads a
ProductSpec's bindings through it and raises UnsupportedModel for any
binding outside it. `build_ecosystem` then constructs each participant
service from its projected fields, gives it its ledger accounts and
registers it under its role. One ecosystem hosts any mix of participant
instances, all sharing one ledger and one registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .broker import BrokerConfig, BrokerService
from .clearing import ClearingBank, ClearingCorporation, Depository
from .custodian import CustodianConfig, CustodianService
from .exchange import ExchangeService, PrecedenceComparator, SecondaryPrecedence, TieBreak
from .features import FeatureModelError, ProductSpec
from .ledger import Ledger
from .money import Money
from .registry import ParticipantId, ParticipantRole, ServiceRegistry
from .scenarios import Scenario, ccp_account, house_account, omnibus_account
from .trading import OrderType


class UnsupportedModel(FeatureModelError):
    """A product binds what the binding table cannot run."""

    def __init__(self, point: str, why: str):
        super().__init__(f"variation point {point}: {why}")


class Point(NamedTuple):
    """A variation point's row: the config field it sets, each variant's value."""

    field: str | None               # None: the point drives nothing
    variants: dict[str, object]
    many: bool = False              # an or-group: the field is the set of bound values
    unbound: str | None = None      # the variant an unbound optional point runs as


def _named(*variants: str) -> dict[str, str]:
    """Variants that drive their own name (transfer methods only label journal causes)."""
    return {variant: variant for variant in variants}


BINDING_TABLE: dict[str, dict[str, Point]] = {
    "Broker": {
        "BrokerOrderValidationRules": Point("extended_order_checks", {
            "BrokerStandardOrderChecks": False, "BrokerExtendedOrderChecks": True}),
        "PortfolioOptimizationAlgorithms": Point(None, _named(
            "EqualWeightAllocation", "SingleBestAllocation", "RankWeightedAllocation")),
        "BestVenueAnalysisAlgorithms": Point("venue_algorithm", _named(
            "FirstVenueChoice", "BestQuoteVenueChoice", "LeastLoadedVenueChoice"),
            unbound="FirstVenueChoice"),
        "ClientOrderTypes": Point("offered_types", {
            "MarketOrderType": OrderType.MARKET, "LimitOrderType": OrderType.LIMIT,
            "ImmediateOrCancelOrderType": OrderType.IMMEDIATE_OR_CANCEL,
            "FillOrKillOrderType": OrderType.FILL_OR_KILL}, many=True),
        "BrokerMoneyTransferMethods": Point("money_method", _named(
            "BrokerBookEntryPayment", "BrokerBankWirePayment")),
        "BrokerEquityTransferMethods": Point("equity_method", _named(
            "BrokerBookEntryEquityTransfer", "BrokerCertificateEquityTransfer")),
        "OrderRisks": Point("risk_checks", _named(
            "DuplicateOrderCheck", "PrefundingRiskCheck"), many=True),
        "GovernmentalComplianceChecks": Point("restricted_screening", {
            "RestrictedSymbolScreening": True, "PermissiveGovernmentalPolicy": False}),
        "ClientComplianceChecks": Point("value_cap_enabled", {
            "MaxOrderValueCap": True, "UnrestrictedClientPolicy": False}),
        "BrokerAllocationDetailValidationRules": Point(None, _named(
            "BrokerStandardAllocationChecks", "BrokerExtendedAllocationChecks")),
    },
    "Custodian": {
        "CustodianAllocationDetailValidationRules": Point(None, _named(
            "CustodianStandardAllocationChecks", "CustodianExtendedAllocationChecks")),
        "AllocationDetailAffirmationRules": Point(None, _named(
            "FieldEqualityAffirmation", "CoverageAffirmation"), many=True),
        "CustodianMoneyTransferMethods": Point("money_method", _named(
            "CustodianBookEntryPayment", "CustodianBankWirePayment")),
        "CustodianEquityTransferMethods": Point("equity_method", _named(
            "CustodianBookEntryEquityTransfer", "CustodianCertificateEquityTransfer")),
    },
    "Exchange": {
        "ExchangeOrderValidationRules": Point("extended_validation", {
            "ExchangeStandardOrderChecks": False, "ExchangeExtendedOrderChecks": True}),
        "SecondaryOrderPrecedenceRules": Point("secondary", {
            "TimePriority": SecondaryPrecedence.TIME_PRIORITY,
            "SizePriority": SecondaryPrecedence.SIZE_PRIORITY}),
        "DefaultSecondaryOrderPrecedenceRules": Point("tie_break", {
            "FifoTieBreak": TieBreak.FIFO, "LifoTieBreak": TieBreak.LIFO}),
        "OrderMatchingAlgorithms": Point(None, _named(
            "MarketMatching", "LimitMatching", "ImmediateOrCancelMatching",
            "FillOrKillMatching"), many=True),
    },
    "ClearingCorporation": {
        "TradeValidationRules": Point("extended_validation", {
            "ClearingStandardTradeChecks": False, "ClearingExtendedTradeChecks": True}),
        "TradeClearingRules": Point("netting", {
            "TradeForTradeClearing": False, "MultilateralNettingClearing": True}),
    },
}

_POINTS = {name: point for points in BINDING_TABLE.values() for name, point in points.items()}


def project(product: ProductSpec) -> dict[str, dict[str, object]]:
    """participant -> config field -> value, read off the binding table.

    Raises UnsupportedModel for a bound point or variant the table lacks,
    a single-valued point bound to other than one variant, or an unbound
    point the table requires (one with a field and no `unbound` variant).
    """
    for name, chosen in product.bindings.items():
        if name not in _POINTS:
            raise UnsupportedModel(name, f"not in the binding table (binds {', '.join(chosen)})")
    fields: dict[str, dict[str, object]] = {}
    for participant, points in BINDING_TABLE.items():
        values = fields[participant] = {}
        for name, point in points.items():
            chosen = product.bindings.get(name)
            if chosen is None:
                if point.field is None:
                    continue
                if point.unbound is None:
                    raise UnsupportedModel(
                        name, f"unbound, needs one of {', '.join(point.variants)}")
                chosen = (point.unbound,)
            for variant in chosen:
                if variant not in point.variants:
                    raise UnsupportedModel(name, f"variant {variant} is not in the binding table")
            if not point.many and len(chosen) != 1:
                raise UnsupportedModel(name, f"binds {len(chosen)} variants "
                                             f"({', '.join(chosen) or 'none'}), needs exactly 1")
            if point.field is not None:
                driven = [point.variants[variant] for variant in chosen]
                values[point.field] = frozenset(driven) if point.many else driven[0]
    return fields


@dataclass
class Ecosystem:
    product: ProductSpec
    registry: ServiceRegistry
    ledger: Ledger
    brokers: dict[str, BrokerService] = field(default_factory=dict)
    custodians: dict[str, CustodianService] = field(default_factory=dict)
    exchanges: dict[str, ExchangeService] = field(default_factory=dict)
    clearing: ClearingCorporation | None = None


def build_ecosystem(product: ProductSpec, scenario: Scenario) -> Ecosystem:
    """Open every account, build every participant from the product's
    projected fields, and register them; the result is ready to run."""
    fields = project(product)
    ledger = Ledger(scenario.currency)
    registry = ServiceRegistry()
    eco = Ecosystem(product, registry, ledger)
    endowed = {e.account: (Money(e.money, scenario.currency), dict(e.positions))
               for e in scenario.endowments}

    open_account = ledger.open_account

    def opened(account: str) -> str:
        money, positions = endowed.get(account, (None, None))
        open_account(account, money, positions)
        return account

    def participants(role: ParticipantRole) -> list[ParticipantId]:
        return [ParticipantId(role, name) for name in scenario.participant_ids(role)]

    def registered(service):
        registry.register(service.pid, service)
        return service

    exchange = fields["Exchange"]
    comparator = PrecedenceComparator(exchange.pop("secondary"), exchange.pop("tie_break"))
    for pid in participants(ParticipantRole.EXCHANGE):
        eco.exchanges[pid.id] = registered(ExchangeService(
            pid, registry, scenario.symbols, comparator, **exchange))
    for pid in participants(ParticipantRole.CLEARING_BANK):
        registered(ClearingBank(pid, ledger))
    for pid in participants(ParticipantRole.DEPOSITORY):
        registered(Depository(pid, ledger))
    for pid in participants(ParticipantRole.CLEARING_CORPORATION):
        eco.clearing = registered(ClearingCorporation(
            pid, registry, ledger, ccp_account=opened(ccp_account(pid.id)),
            **fields["ClearingCorporation"]))
    cust_config = CustodianConfig(**fields["Custodian"])
    for pid in participants(ParticipantRole.CUSTODIAN):
        eco.custodians[pid.id] = registered(CustodianService(
            pid, registry, ledger, opened(omnibus_account(pid.id)), cust_config))
    brk_config = BrokerConfig(**fields["Broker"])
    for pid in participants(ParticipantRole.BROKER):
        eco.brokers[pid.id] = registered(BrokerService(
            pid, registry, ledger, opened(house_account(pid.id)), brk_config))

    for retail in scenario.retail_clients:
        opened(retail.account)
    for institution in scenario.institutions:
        custodian_pid = ParticipantId(ParticipantRole.CUSTODIAN, institution.custodian)
        eco.brokers[institution.broker].add_institution(opened(institution.account), custodian_pid)
        for end_client in institution.end_clients:
            opened(end_client)

    return eco
