"""Bindings-to-behavior projection: derived products must configure the
participant services exactly as their variant selections say."""

import pytest

from conftest import load_scenario
from stpsim.assembly import (
    broker_config,
    build_ecosystem,
    custodian_config,
    exchange_comparator,
    exchange_supported_types,
    uses_netting,
)
from stpsim.exchange import SecondaryPrecedence, TieBreak
from stpsim.features import Configuration, derive_product
from stpsim.money import Money
from stpsim.registry import ParticipantId, ParticipantRole
from stpsim.trading import Order, OrderType, Side


def test_product_a_broker_config(product_a):
    config = broker_config(product_a)
    assert not config.extended_order_checks
    assert config.venue_algorithm == "BestQuoteVenueChoice"
    assert config.offered_types == frozenset(OrderType)
    assert config.money_method == "BrokerBookEntryPayment"
    assert config.equity_method == "BrokerBookEntryEquityTransfer"
    assert config.risk_checks == frozenset({"DuplicateOrderCheck"})
    assert config.restricted_screening
    assert config.value_cap_enabled
    assert not config.extended_alloc_checks


def test_product_b_broker_config(product_b):
    config = broker_config(product_b)
    assert config.extended_order_checks
    assert config.venue_algorithm == "FirstVenueChoice"
    assert config.risk_checks == frozenset({"DuplicateOrderCheck", "PrefundingRiskCheck"})
    assert not config.restricted_screening
    assert not config.value_cap_enabled
    assert config.money_method == "BrokerBankWirePayment"


def test_custodian_configs_differ_between_products(product_a, product_b):
    config_a = custodian_config(product_a)
    config_b = custodian_config(product_b)
    assert not config_a.extended_detail_checks
    assert config_b.extended_detail_checks
    assert config_a.affirmation_rules == config_b.affirmation_rules == frozenset(
        {"FieldEqualityAffirmation", "CoverageAffirmation"})
    assert config_a.money_method == "CustodianBookEntryPayment"
    assert config_b.money_method == "CustodianBankWirePayment"


def test_exchange_comparators(product_a, product_b):
    comp_a = exchange_comparator(product_a)
    comp_b = exchange_comparator(product_b)
    assert comp_a.secondary is SecondaryPrecedence.TIME_PRIORITY
    assert comp_a.tie_break is TieBreak.FIFO
    assert comp_b.secondary is SecondaryPrecedence.SIZE_PRIORITY
    assert comp_b.tie_break is TieBreak.LIFO


def test_clearing_rule_projection(product_a, product_b):
    assert not uses_netting(product_a)
    assert uses_netting(product_b)


def test_product_without_fok_matching_rejects_fok_orders(catalog, seco_a_config):
    cfg = Configuration(
        seco_a_config.selected - {"FillOrKillMatching", "FillOrKillOrderType"})
    product = derive_product(catalog, cfg, "NO_FOK")
    assert exchange_supported_types(product) == frozenset(
        {OrderType.MARKET, OrderType.LIMIT, OrderType.IMMEDIATE_OR_CANCEL})

    eco = build_ecosystem(product, load_scenario("retail_retail"))
    exchange = eco.exchanges["X1"]
    order = Order(
        "O1", "RC1", ParticipantId(ParticipantRole.BROKER, "BR1"),
        Side.BUY, "ACME", 10, OrderType.FILL_OR_KILL, Money(1000))
    rejection = exchange.validate_incoming_order(order)
    assert rejection.rule == "UnsupportedOrderType"

    # and the broker will not even offer the type
    assert broker_config(product).offered_types == frozenset(
        {OrderType.MARKET, OrderType.LIMIT, OrderType.IMMEDIATE_OR_CANCEL})


def test_build_ecosystem_opens_all_accounts(product_a):
    scenario = load_scenario("institutional_institutional")
    eco = build_ecosystem(product_a, scenario)
    accounts = set(eco.ledger.accounts)
    assert {"BR1.house", "BR2.house", "CU1.omnibus", "CU2.omnibus", "CC1.ccp",
            "INST1", "INST2",
            "EC1", "EC2", "EC3", "EC4"} == accounts
    assert eco.ledger.balance("CU1.omnibus") == Money(104000)
    assert eco.ledger.position("CU2.omnibus", "ACME") == 100


def test_ecosystem_wires_clients_to_their_participants(product_a):
    scenario = load_scenario("retail_institutional")
    eco = build_ecosystem(product_a, scenario)
    assert "RC2" in eco.brokers["BR2"].retail_clients
    assert eco.brokers["BR1"].institutions["INST1"] == ParticipantId(
        ParticipantRole.CUSTODIAN, "CU1")
    assert "INST1" in eco.custodians["CU1"].institutions
    assert eco.clearing is not None and eco.clearing.netting is False
