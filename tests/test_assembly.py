"""Bindings-to-behavior projection: derived products must configure the
participant services exactly as the binding table says, and a product the
table cannot run must be refused with one typed error."""

import pytest

from conftest import load_scenario
from stpsim.assembly import BINDING_TABLE, UnsupportedModel, build_ecosystem, project
from stpsim.broker import OrderDraft
from stpsim.cli import main
from stpsim.data import catalog_path, config_path
from stpsim.exchange import SecondaryPrecedence, TieBreak
from stpsim.features import (
    Configuration,
    ProductSpec,
    derive_product,
    parse_configuration,
    parse_feature_model,
    validate_configuration,
)
from stpsim.lifecycle import assert_conservation, run_scenario
from stpsim.money import Money
from stpsim.registry import ParticipantId, ParticipantRole
from stpsim.scenarios import SCENARIO_IDS
from stpsim.trading import OrderType, Rejection, Side

CATALOG_TEXT = catalog_path().read_text()
CATALOG = parse_feature_model(CATALOG_TEXT)
SECO_A = parse_configuration(config_path("seco_a").read_text())


def test_product_a_broker_config(product_a):
    broker = project(product_a)["Broker"]
    assert broker == {
        "extended_order_checks": False,
        "venue_algorithm": "BestQuoteVenueChoice",
        "offered_types": frozenset(OrderType),
        "money_method": "BrokerBookEntryPayment",
        "equity_method": "BrokerBookEntryEquityTransfer",
        "risk_checks": frozenset({"DuplicateOrderCheck"}),
        "restricted_screening": True,
        "value_cap_enabled": True,
    }


def test_product_b_broker_config(product_b):
    broker = project(product_b)["Broker"]
    assert broker["extended_order_checks"]
    assert broker["venue_algorithm"] == "FirstVenueChoice"
    assert broker["risk_checks"] == frozenset({"DuplicateOrderCheck", "PrefundingRiskCheck"})
    assert not broker["restricted_screening"]
    assert not broker["value_cap_enabled"]
    assert broker["money_method"] == "BrokerBankWirePayment"


def test_custodian_configs_differ_between_products(product_a, product_b):
    custodian_a = project(product_a)["Custodian"]
    custodian_b = project(product_b)["Custodian"]
    # the products bind different detail checks and both bind both
    # affirmation variants, and neither point drives a field
    assert set(product_a.bindings["CustodianAllocationDetailValidationRules"]) == {
        "CustodianStandardAllocationChecks"}
    assert set(product_b.bindings["CustodianAllocationDetailValidationRules"]) == {
        "CustodianExtendedAllocationChecks"}
    for product in (product_a, product_b):
        assert set(product.bindings["AllocationDetailAffirmationRules"]) == {
            "FieldEqualityAffirmation", "CoverageAffirmation"}
    for point in ("CustodianAllocationDetailValidationRules", "AllocationDetailAffirmationRules"):
        assert BINDING_TABLE["Custodian"][point].field is None
    assert custodian_a.keys() == custodian_b.keys() == {"money_method", "equity_method"}
    assert custodian_a["money_method"] == "CustodianBookEntryPayment"
    assert custodian_b["money_method"] == "CustodianBankWirePayment"


def test_exchange_comparators(product_a, product_b):
    exchange_a = project(product_a)["Exchange"]
    exchange_b = project(product_b)["Exchange"]
    assert exchange_a["secondary"] is SecondaryPrecedence.TIME_PRIORITY
    assert exchange_a["tie_break"] is TieBreak.FIFO
    assert exchange_b["secondary"] is SecondaryPrecedence.SIZE_PRIORITY
    assert exchange_b["tie_break"] is TieBreak.LIFO


def test_clearing_rule_projection(product_a, product_b):
    assert not project(product_a)["ClearingCorporation"]["netting"]
    assert project(product_b)["ClearingCorporation"]["netting"]


def test_product_without_fok_matching_rejects_fok_orders(catalog, seco_a_config):
    cfg = Configuration(
        seco_a_config.selected - {"FillOrKillMatching", "FillOrKillOrderType"})
    product = derive_product(catalog, cfg, "NO_FOK")
    no_fok = frozenset({OrderType.MARKET, OrderType.LIMIT, OrderType.IMMEDIATE_OR_CANCEL})
    # the matching point only constrains the configuration: the catalog
    # makes each offered order type require its matching variant
    assert BINDING_TABLE["Exchange"]["OrderMatchingAlgorithms"].field is None
    assert project(product)["Exchange"].keys() == {
        "extended_validation", "secondary", "tie_break"}

    eco = build_ecosystem(product, load_scenario("retail_retail"))
    broker = eco.brokers["BR1"]
    assert broker.config.offered_types == no_fok
    draft = OrderDraft("RC1", Side.BUY, "ACME", 10, OrderType.FILL_OR_KILL, Money(1000))
    assert broker.place_retail_order(draft) == Rejection("validation", "UnsupportedOrderType")
    assert eco.exchanges["X1"].book_depth("ACME") == 0


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
    assert {"RC2", "INST1", "EC1", "EC2"} <= eco.ledger.accounts.keys()
    assert eco.brokers["BR1"].institutions == {
        "INST1": ParticipantId(ParticipantRole.CUSTODIAN, "CU1")}
    assert eco.brokers["BR2"].institutions == {}
    assert eco.clearing is not None and eco.clearing.netting is False


# -- the table against the catalog ----------------------------------------------

def test_table_holds_each_catalog_point_under_its_participant_with_its_variants():
    for participant, points in BINDING_TABLE.items():
        children = {child.name for child in CATALOG.feature(participant).children}
        for name, point in points.items():
            assert name in children, (participant, name)
            assert tuple(point.variants) == CATALOG.concrete_descendants(name)
    tabled = {name for points in BINDING_TABLE.values() for name in points}
    assert tabled == {point.name for point in CATALOG.variation_points()}


def _swapped(point, variant):
    """seco_a.cfg with `variant` alone bound at `point`."""
    return Configuration(
        SECO_A.selected - set(CATALOG.concrete_descendants(point)) | {variant})


# every variant of every catalog point swapped into seco_a.cfg, where valid
SWAPS = [
    (participant, name, variant)
    for participant, points in BINDING_TABLE.items()
    for name in points
    for variant in CATALOG.concrete_descendants(name)
    if validate_configuration(CATALOG, _swapped(name, variant)).valid
]


def test_swaps_cover_bindings_neither_shipped_product_has():
    swapped = {(name, variant) for _, name, variant in SWAPS}
    assert {
        ("BestVenueAnalysisAlgorithms", "LeastLoadedVenueChoice"),
        ("AllocationDetailAffirmationRules", "FieldEqualityAffirmation"),
        ("AllocationDetailAffirmationRules", "CoverageAffirmation"),
        ("PortfolioOptimizationAlgorithms", "RankWeightedAllocation"),
        ("OrderRisks", "PrefundingRiskCheck"),
    } <= swapped


def _held(eco, participant, field):
    """The value a built service holds for one of the table's fields."""
    if participant == "Broker":
        return getattr(eco.brokers["BR1"].config, field)
    if participant == "Custodian":
        return getattr(eco.custodians["CU1"].config, field)
    if participant == "Exchange":
        exchange = eco.exchanges["X1"]
        return getattr(exchange.comparator if field in ("secondary", "tie_break") else exchange,
                       field)
    return getattr(eco.clearing, field)


@pytest.mark.parametrize("participant, name, variant", SWAPS,
                         ids=[variant for _, _, variant in SWAPS])
def test_every_swapped_variant_builds_with_the_tables_value(participant, name, variant):
    product = derive_product(CATALOG, _swapped(name, variant), "SWAPPED")
    eco = build_ecosystem(product, load_scenario("institutional_institutional"))
    point = BINDING_TABLE[participant][name]
    if point.field is None:
        return
    value = point.variants[variant]
    expected = frozenset({value}) if point.many else value
    assert project(product)[participant][point.field] == expected
    assert _held(eco, participant, point.field) == expected


def test_unbound_venue_point_runs_as_first_venue_choice_and_passes_every_scenario():
    cfg = Configuration(SECO_A.selected - {"BestQuoteVenueChoice"})
    product = derive_product(CATALOG, cfg, "NO_VENUE")
    assert "BestVenueAnalysisAlgorithms" not in product.bindings
    assert project(product)["Broker"]["venue_algorithm"] == "FirstVenueChoice"
    for scenario_id in SCENARIO_IDS:
        report = run_scenario(product, load_scenario(scenario_id))
        assert report.aborted is None, scenario_id
        failed = [c.line() for c in list(report.finals) + assert_conservation(report)
                  if not c.passed]
        assert not failed, (scenario_id, failed)


def test_single_valued_point_bound_to_nothing_is_unsupported(product_a):
    product = ProductSpec("EMPTY", product_a.configuration,
                          {**product_a.bindings, "TradeClearingRules": ()})
    with pytest.raises(UnsupportedModel, match=(
            r"^variation point TradeClearingRules: binds 0 variants \(none\), needs exactly 1$")):
        project(product)


# -- models and configurations the table cannot run -------------------------------

def _edit(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def _add_line(text, after, line):
    return _edit(text, after + "\n", after + "\n" + line + "\n")


def _swap_cfg(old, new):
    return _edit(config_path("seco_a").read_text(), old + "\n", new + "\n")


SECO_B_TEXT = config_path("seco_b").read_text()

# case -> (catalog text, configuration text, the one error line)
UNSUPPORTED = {
    "point_dropped": (
        _edit(CATALOG_TEXT, "    abstract mandatory BrokerMoneyTransferMethods group:alt\n", ""),
        SECO_B_TEXT,
        "variation point ClientOrderTypes: variant BrokerBankWirePayment "
        "is not in the binding table"),
    "alternative_made_or": (
        _edit(CATALOG_TEXT, "DefaultSecondaryOrderPrecedenceRules group:alt",
              "DefaultSecondaryOrderPrecedenceRules group:or"),
        config_path("seco_a").read_text() + "LifoTieBreak\n",
        "variation point DefaultSecondaryOrderPrecedenceRules: binds 2 variants "
        "(FifoTieBreak, LifoTieBreak), needs exactly 1"),
    "unknown_venue_algorithm": (
        _add_line(CATALOG_TEXT, "      concrete optional LeastLoadedVenueChoice",
                  "      concrete optional RandomVenueChoice"),
        _swap_cfg("BestQuoteVenueChoice", "RandomVenueChoice"),
        "variation point BestVenueAnalysisAlgorithms: variant RandomVenueChoice "
        "is not in the binding table"),
    "unknown_tie_break": (
        _add_line(CATALOG_TEXT, "      concrete optional LifoTieBreak",
                  "      concrete optional RandomTieBreak"),
        _swap_cfg("FifoTieBreak", "RandomTieBreak"),
        "variation point DefaultSecondaryOrderPrecedenceRules: variant RandomTieBreak "
        "is not in the binding table"),
    "unknown_order_checks": (
        _add_line(CATALOG_TEXT, "      concrete optional BrokerExtendedOrderChecks",
                  "      concrete optional BrokerStrictOrderChecks"),
        _swap_cfg("BrokerStandardOrderChecks", "BrokerStrictOrderChecks"),
        "variation point BrokerOrderValidationRules: variant BrokerStrictOrderChecks "
        "is not in the binding table"),
    "unknown_point": (
        _add_line(CATALOG_TEXT, "      concrete optional BrokerExtendedAllocationChecks",
                  "    abstract optional BrokerFeeSchedules group:alt\n"
                  "      concrete optional FlatFee\n"
                  "      concrete optional TieredFee"),
        config_path("seco_a").read_text() + "FlatFee\n",
        "variation point BrokerFeeSchedules: not in the binding table (binds FlatFee)"),
    "required_point_unbound": (
        _edit(CATALOG_TEXT, "abstract mandatory TradeClearingRules",
              "abstract optional TradeClearingRules"),
        _edit(config_path("seco_a").read_text(), "TradeForTradeClearing\n", ""),
        "variation point TradeClearingRules: unbound, needs one of "
        "TradeForTradeClearing, MultilateralNettingClearing"),
}


@pytest.mark.parametrize("model, config, message", UNSUPPORTED.values(),
                         ids=UNSUPPORTED.keys())
def test_run_refuses_what_the_table_cannot_run_with_one_error_line(
        capsys, tmp_path, model, config, message):
    (tmp_path / "model.fm").write_text(model)
    (tmp_path / "product.cfg").write_text(config)
    args = [str(tmp_path / "model.fm"), str(tmp_path / "product.cfg")]
    assert main(["validate-config", *args]) == 0
    capsys.readouterr()
    assert main(["run", *args, "retail_retail"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
