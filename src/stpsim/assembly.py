"""Wiring a derived product into a running ecosystem.

This is where feature bindings become behavior: each participant service
is constructed from the ProductSpec's bound variants, given its ledger
accounts, and registered in the service registry under its role. One
ecosystem hosts any mix of participant instances, all sharing one ledger
and one registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .broker import BrokerConfig, BrokerParams, BrokerService
from .clearing import ClearingBank, ClearingCorporation, Depository
from .custodian import CustodianConfig, CustodianService
from .exchange import ExchangeService, PrecedenceComparator, SecondaryPrecedence, TieBreak
from .features import ProductSpec
from .ledger import Ledger
from .money import Money
from .registry import ParticipantId, ParticipantRole, ServiceRegistry
from .scenarios import Scenario
from .trading import OrderType

_ORDER_TYPE_VARIANTS = {
    "MarketOrderType": OrderType.MARKET,
    "LimitOrderType": OrderType.LIMIT,
    "ImmediateOrCancelOrderType": OrderType.IMMEDIATE_OR_CANCEL,
    "FillOrKillOrderType": OrderType.FILL_OR_KILL,
}

_MATCHING_VARIANTS = {
    "MarketMatching": OrderType.MARKET,
    "LimitMatching": OrderType.LIMIT,
    "ImmediateOrCancelMatching": OrderType.IMMEDIATE_OR_CANCEL,
    "FillOrKillMatching": OrderType.FILL_OR_KILL,
}


def broker_config(product: ProductSpec) -> BrokerConfig:
    bindings = product.bindings
    portfolio = (product.single("PortfolioOptimizationAlgorithms")
                 if "PortfolioOptimizationAlgorithms" in bindings else None)
    venue = (product.single("BestVenueAnalysisAlgorithms")
             if "BestVenueAnalysisAlgorithms" in bindings else None)
    return BrokerConfig(
        extended_order_checks=(
            product.single("BrokerOrderValidationRules") == "BrokerExtendedOrderChecks"),
        portfolio_algorithm=portfolio,
        venue_algorithm=venue,
        offered_types=frozenset(
            _ORDER_TYPE_VARIANTS[v] for v in product.bound("ClientOrderTypes")),
        money_method=product.single("BrokerMoneyTransferMethods"),
        equity_method=product.single("BrokerEquityTransferMethods"),
        risk_checks=frozenset(product.bound("OrderRisks")),
        restricted_screening=(
            product.single("GovernmentalComplianceChecks") == "RestrictedSymbolScreening"),
        value_cap_enabled=(
            product.single("ClientComplianceChecks") == "MaxOrderValueCap"),
        extended_alloc_checks=(
            product.single("BrokerAllocationDetailValidationRules")
            == "BrokerExtendedAllocationChecks"),
    )


def custodian_config(product: ProductSpec) -> CustodianConfig:
    return CustodianConfig(
        extended_detail_checks=(
            product.single("CustodianAllocationDetailValidationRules")
            == "CustodianExtendedAllocationChecks"),
        affirmation_rules=frozenset(product.bound("AllocationDetailAffirmationRules")),
        money_method=product.single("CustodianMoneyTransferMethods"),
        equity_method=product.single("CustodianEquityTransferMethods"),
    )


def exchange_comparator(product: ProductSpec) -> PrecedenceComparator:
    return PrecedenceComparator(
        secondary=SecondaryPrecedence(product.single("SecondaryOrderPrecedenceRules")),
        tie_break=TieBreak(product.single("DefaultSecondaryOrderPrecedenceRules")),
    )


def exchange_supported_types(product: ProductSpec) -> frozenset[OrderType]:
    return frozenset(_MATCHING_VARIANTS[v] for v in product.bound("OrderMatchingAlgorithms"))


def uses_netting(product: ProductSpec) -> bool:
    return product.single("TradeClearingRules") == "MultilateralNettingClearing"


@dataclass
class Ecosystem:
    product: ProductSpec
    registry: ServiceRegistry
    ledger: Ledger
    brokers: dict[str, BrokerService] = field(default_factory=dict)
    custodians: dict[str, CustodianService] = field(default_factory=dict)
    exchanges: dict[str, ExchangeService] = field(default_factory=dict)
    clearing: ClearingCorporation | None = None


def house_account(broker_id: str) -> str:
    return f"{broker_id}.house"


def omnibus_account(custodian_id: str) -> str:
    return f"{custodian_id}.omnibus"


def ccp_account(clearing_id: str) -> str:
    return f"{clearing_id}.ccp"


def build_ecosystem(
    product: ProductSpec,
    scenario: Scenario,
    broker_params: BrokerParams | None = None,
) -> Ecosystem:
    """Open every account, build every participant per the product's
    bindings, and register them; the result is ready to run."""
    ledger = Ledger(scenario.currency)
    registry = ServiceRegistry()
    eco = Ecosystem(product, registry, ledger)

    endowed = {e.account: e for e in scenario.endowments}

    def open_with_endowment(account: str) -> None:
        endowment = endowed.get(account)
        if endowment is None:
            ledger.open_account(account)
        else:
            ledger.open_account(
                account,
                Money(endowment.money, scenario.currency),
                dict(endowment.positions),
            )

    for retail in scenario.retail_clients:
        open_with_endowment(retail.account)
    for institution in scenario.institutions:
        open_with_endowment(institution.account)
        for end_client in institution.end_clients:
            open_with_endowment(end_client)

    comparator = exchange_comparator(product)
    supported = exchange_supported_types(product)
    extended_exchange = (
        product.single("ExchangeOrderValidationRules") == "ExchangeExtendedOrderChecks")
    for exchange_id in scenario.participant_ids(ParticipantRole.EXCHANGE):
        pid = ParticipantId(ParticipantRole.EXCHANGE, exchange_id)
        service = ExchangeService(
            pid, registry, set(scenario.symbols), comparator, supported,
            extended_validation=extended_exchange,
        )
        registry.register(pid, service)
        eco.exchanges[exchange_id] = service

    for bank_id in scenario.participant_ids(ParticipantRole.CLEARING_BANK):
        pid = ParticipantId(ParticipantRole.CLEARING_BANK, bank_id)
        ledger.open_account(f"{bank_id}.book")
        registry.register(pid, ClearingBank(pid, ledger))
    for depo_id in scenario.participant_ids(ParticipantRole.DEPOSITORY):
        pid = ParticipantId(ParticipantRole.DEPOSITORY, depo_id)
        ledger.open_account(f"{depo_id}.book")
        registry.register(pid, Depository(pid, ledger))

    extended_clearing = (
        product.single("TradeValidationRules") == "ClearingExtendedTradeChecks")
    for clearing_id in scenario.participant_ids(ParticipantRole.CLEARING_CORPORATION):
        pid = ParticipantId(ParticipantRole.CLEARING_CORPORATION, clearing_id)
        account = ccp_account(clearing_id)
        open_with_endowment(account)
        service = ClearingCorporation(
            pid, registry, ledger,
            netting=uses_netting(product),
            ccp_account=account,
            extended_validation=extended_clearing,
        )
        registry.register(pid, service)
        eco.clearing = service

    cust_config = custodian_config(product)
    for custodian_id in scenario.participant_ids(ParticipantRole.CUSTODIAN):
        pid = ParticipantId(ParticipantRole.CUSTODIAN, custodian_id)
        account = omnibus_account(custodian_id)
        open_with_endowment(account)
        service = CustodianService(pid, registry, ledger, account, cust_config)
        registry.register(pid, service)
        eco.custodians[custodian_id] = service

    brk_config = broker_config(product)
    for broker_id in scenario.participant_ids(ParticipantRole.BROKER):
        pid = ParticipantId(ParticipantRole.BROKER, broker_id)
        account = house_account(broker_id)
        open_with_endowment(account)
        service = BrokerService(pid, registry, ledger, account, brk_config, broker_params)
        registry.register(pid, service)
        eco.brokers[broker_id] = service

    for retail in scenario.retail_clients:
        eco.brokers[retail.broker].add_retail_client(retail.account)
    for institution in scenario.institutions:
        custodian_pid = ParticipantId(ParticipantRole.CUSTODIAN, institution.custodian)
        eco.brokers[institution.broker].add_institution(institution.account, custodian_pid)
        eco.custodians[institution.custodian].add_institution(institution.account)

    return eco
