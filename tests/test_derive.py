import dataclasses

import pytest

from stpsim.features import (
    Configuration,
    InvalidConfiguration,
    derive_product,
    parse_feature_model,
)


SECONDARY_FM = """\
abstract mandatory Market group:and
  abstract mandatory SecondaryPrecedence group:alt
    concrete optional TimePriority
    concrete optional SizePriority
"""


def test_alternative_binding_is_direct_projection():
    model = parse_feature_model(SECONDARY_FM)
    product = derive_product(model, Configuration.of("TimePriority"), "P")
    assert product.bindings["SecondaryPrecedence"] == ("TimePriority",)


def test_seco_a_binds_all_twenty_variation_points(catalog, seco_a_config):
    product = derive_product(catalog, seco_a_config, "SECO_A")
    assert len(product.bindings) == 20
    assert set(product.bindings) == {p.name for p in catalog.variation_points()}


def test_invalid_configuration_is_rejected_with_report(toy_model):
    # missing the mandatory alternative choice under Mode
    with pytest.raises(InvalidConfiguration) as err:
        derive_product(toy_model, Configuration.of("Toy"), "P")
    assert not err.value.report.valid


def test_bindings_flatten_to_selected_concrete_descendants(catalog, seco_a_config, product_a):
    flattened = {variant for chosen in product_a.bindings.values() for variant in chosen}
    expected = set()
    for point in catalog.variation_points():
        for name in catalog.concrete_descendants(point.name):
            if name in product_a.configuration.selected:
                expected.add(name)
    assert flattened == expected


def test_or_group_binds_all_selected_variants(product_b):
    assert set(product_b.bindings["OrderRisks"]) == {
        "DuplicateOrderCheck", "PrefundingRiskCheck"}
    assert product_b.bindings["ClientOrderTypes"] == (
        "MarketOrderType", "LimitOrderType",
        "ImmediateOrCancelOrderType", "FillOrKillOrderType")


def test_product_spec_is_immutable(product_a):
    with pytest.raises(dataclasses.FrozenInstanceError):
        product_a.product_name = "other"


def test_optional_variation_point_absent_when_deselected(catalog, seco_a_config):
    cfg = Configuration(
        seco_a_config.selected - {"SingleBestAllocation"})
    product = derive_product(catalog, cfg, "NO_PORTFOLIO")
    assert "PortfolioOptimizationAlgorithms" not in product.bindings
    assert len(product.bindings) == 19


def test_alternative_point_binds_its_one_variant(product_a):
    assert product_a.bindings["SecondaryOrderPrecedenceRules"] == ("TimePriority",)
