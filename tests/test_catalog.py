"""Coverage checks for the shipped catalog and product configurations."""

from stpsim.features import GroupKind, validate_configuration

# One feature per documented variation point, grouped by participant.
BROKER_VARIATION_POINTS = [
    "BrokerOrderValidationRules",
    "PortfolioOptimizationAlgorithms",
    "BestVenueAnalysisAlgorithms",
    "ClientOrderTypes",
    "BrokerMoneyTransferMethods",
    "BrokerEquityTransferMethods",
    "OrderRisks",
    "GovernmentalComplianceChecks",
    "ClientComplianceChecks",
    "BrokerAllocationDetailValidationRules",
]
CUSTODIAN_VARIATION_POINTS = [
    "CustodianAllocationDetailValidationRules",
    "AllocationDetailAffirmationRules",
    "CustodianMoneyTransferMethods",
    "CustodianEquityTransferMethods",
]
EXCHANGE_VARIATION_POINTS = [
    "ExchangeOrderValidationRules",
    "SecondaryOrderPrecedenceRules",
    "DefaultSecondaryOrderPrecedenceRules",
    "OrderMatchingAlgorithms",
]
CLEARING_VARIATION_POINTS = [
    "TradeValidationRules",
    "TradeClearingRules",
]
ALL_VARIATION_POINTS = (
    BROKER_VARIATION_POINTS + CUSTODIAN_VARIATION_POINTS
    + EXCHANGE_VARIATION_POINTS + CLEARING_VARIATION_POINTS
)

ORDER_TYPE_TO_ALGORITHM = {
    "MarketOrderType": "MarketMatching",
    "LimitOrderType": "LimitMatching",
    "ImmediateOrCancelOrderType": "ImmediateOrCancelMatching",
    "FillOrKillOrderType": "FillOrKillMatching",
}


def test_catalog_has_all_twenty_variation_points(catalog):
    modeled = {p.name for p in catalog.variation_points()}
    assert modeled == set(ALL_VARIATION_POINTS)
    assert len(ALL_VARIATION_POINTS) == 20


def test_every_variation_point_has_at_least_two_variants(catalog):
    for name in ALL_VARIATION_POINTS:
        variants = catalog.concrete_descendants(name)
        assert len(variants) >= 2, name


def test_total_variant_count_meets_floor(catalog):
    total = sum(
        len(catalog.concrete_descendants(p.name)) for p in catalog.variation_points())
    assert total >= 46


def test_variation_points_sit_under_their_participants(catalog):
    subtrees = {
        "Broker": BROKER_VARIATION_POINTS,
        "Custodian": CUSTODIAN_VARIATION_POINTS,
        "Exchange": EXCHANGE_VARIATION_POINTS,
        "ClearingCorporation": CLEARING_VARIATION_POINTS,
    }
    for participant, points in subtrees.items():
        children = {c.name for c in catalog.feature(participant).children}
        assert set(points) <= children


def test_participant_roots_are_classifications_not_variation_points(catalog):
    for name in ("EquityMarket", "Broker", "Custodian", "Exchange", "ClearingCorporation"):
        feature = catalog.feature(name)
        assert feature.group is GroupKind.AND
        assert not feature.is_variation_point


def test_one_constraint_per_order_type(catalog):
    texts = {c.describe() for c in catalog.constraints}
    assert texts == {
        f"{order_type} => {algorithm}"
        for order_type, algorithm in ORDER_TYPE_TO_ALGORITHM.items()
    }


def test_shipped_configurations_are_valid(catalog, seco_a_config, seco_b_config):
    assert validate_configuration(catalog, seco_a_config).valid
    assert validate_configuration(catalog, seco_b_config).valid


def test_products_differ_in_at_least_five_bindings(product_a, product_b):
    differing = [
        point for point in set(product_a.bindings) | set(product_b.bindings)
        if product_a.bindings.get(point) != product_b.bindings.get(point)
    ]
    assert len(differing) >= 5
    assert product_a.bindings["SecondaryOrderPrecedenceRules"] == ("TimePriority",)
    assert product_b.bindings["SecondaryOrderPrecedenceRules"] == ("SizePriority",)
    assert product_a.bindings["TradeClearingRules"] == ("TradeForTradeClearing",)
    assert product_b.bindings["TradeClearingRules"] == ("MultilateralNettingClearing",)
