import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

import bruteforce
from conftest import feature_models
from stpsim.data import catalog_path
from stpsim.features import (
    Configuration,
    GroupKind,
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
    product = derive_product(model, Configuration(frozenset({"TimePriority"})), "P")
    assert product.bindings["SecondaryPrecedence"] == ("TimePriority",)


def test_seco_a_binds_all_twenty_variation_points(catalog, seco_a_config):
    product = derive_product(catalog, seco_a_config, "SECO_A")
    assert len(product.bindings) == 20
    assert set(product.bindings) == {p.name for p in catalog.variation_points()}


def test_invalid_configuration_is_rejected_with_report(toy_model):
    # missing the mandatory alternative choice under Mode
    with pytest.raises(InvalidConfiguration) as err:
        derive_product(toy_model, Configuration(frozenset({"Toy"})), "P")
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


# variation points nested two deep under an or-group root, and a concrete
# feature with a concrete child, so a variant can belong to several bindings
NESTED_FM = """\
abstract mandatory Root group:or
  abstract optional Inner group:alt
    concrete optional X group:and
      concrete optional Xa
    abstract optional Innermost group:or
      concrete optional Y
      concrete optional Z
  concrete optional W
"""


def assert_bindings_match_the_walk(model, selected):
    product = derive_product(model, Configuration(selected), "P")
    expected = bruteforce.bindings_by_walk(model, selected)
    assert list(product.bindings.items()) == list(expected.items())


@settings(max_examples=40, deadline=None)
@given(feature_models(max_features=9))
@example(parse_feature_model(NESTED_FM))
def test_bindings_equal_the_bruteforce_walk_for_every_valid_configuration(model):
    for selected in bruteforce.enumerate_by_bruteforce(model):
        assert_bindings_match_the_walk(model, selected)


CATALOG = parse_feature_model(catalog_path().read_text())


@st.composite
def catalog_selections(draw):
    """Children drawn group by group down the selected tree (one of an
    alternative, some of an or-group, the mandatory and any optional ones of
    an and-group), plus up to two features from anywhere, then closed by the
    brute-force BFS closure; so a selection may break a group or a
    constraint."""
    info = bruteforce.index_tree(CATALOG)
    chosen = {CATALOG.root.name}
    for name, meta in info.items():     # document order: parents first
        children = meta["children"]
        if name not in chosen or not children:
            continue
        if meta["group"] is GroupKind.ALTERNATIVE:
            chosen.add(draw(st.sampled_from(children)))
        elif meta["group"] is GroupKind.OR:
            chosen |= draw(st.sets(st.sampled_from(children), min_size=1))
        else:
            chosen |= set(meta["mandatory_children"]) | draw(st.sets(st.sampled_from(children)))
    chosen |= draw(st.sets(st.sampled_from(list(info)), max_size=2))
    return bruteforce.close_selection(CATALOG, frozenset(chosen))


@settings(max_examples=100, deadline=None)
@given(catalog_selections())
def test_bindings_equal_the_bruteforce_walk_on_catalog_selections(selected):
    if bruteforce.satisfies_directly(CATALOG, selected):
        assert_bindings_match_the_walk(CATALOG, selected)
    else:
        with pytest.raises(InvalidConfiguration):
            derive_product(CATALOG, Configuration(selected), "P")
