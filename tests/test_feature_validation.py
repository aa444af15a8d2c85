import pytest
from hypothesis import given, settings, strategies as st

import bruteforce
from conftest import feature_models
from stpsim.data import catalog_path
from stpsim.features import (
    Configuration,
    GroupKind,
    Optionality,
    UnknownFeatureName,
    normalize,
    parse_feature_model,
    validate_configuration,
)


def test_mandatory_closure_of_root_is_valid():
    model = parse_feature_model(
        "abstract mandatory Root group:and\n"
        "  concrete mandatory Base\n"
        "  concrete optional Extra\n")
    report = validate_configuration(model, Configuration(frozenset({"Root"})))
    assert report.valid
    assert report.normalized == {"Root", "Base"}


def test_order_type_without_matching_algorithm_names_the_constraint(catalog, seco_a_config):
    cfg = Configuration(seco_a_config.selected - {"FillOrKillMatching"})
    report = validate_configuration(catalog, cfg)
    assert not report.valid
    messages = [v.message for v in report.violations]
    assert any("FillOrKillOrderType => FillOrKillMatching" in m for m in messages)


def test_two_children_of_alternative_group_rejected(toy_model):
    report = validate_configuration(
        toy_model, Configuration(frozenset({"Toy", "Core", "Mode", "Fast", "Safe"})))
    assert not report.valid
    assert any(v.code == "AlternativeCardinality" for v in report.violations)


def test_empty_selection_misses_root(toy_model):
    report = validate_configuration(toy_model, Configuration(frozenset()))
    assert not report.valid
    assert any(v.code == "RootNotSelected" for v in report.violations)


def test_or_group_needs_a_child():
    model = parse_feature_model(
        "abstract mandatory Root group:and\n"
        "  abstract mandatory Point group:or\n"
        "    concrete optional A\n"
        "    concrete optional B\n")
    report = validate_configuration(model, Configuration(frozenset({"Root"})))
    assert not report.valid
    assert any(v.code == "OrCardinality" for v in report.violations)


def test_unknown_feature_name_raises(toy_model):
    with pytest.raises(UnknownFeatureName):
        validate_configuration(toy_model, Configuration(frozenset({"Ghost"})))


def test_closure_pulls_ancestors_and_mandatory_children(toy_model):
    normalized = normalize(toy_model, frozenset({"Fast"}))
    # ancestors of Fast plus the mandatory Core under the selected root
    assert normalized == {"Toy", "Core", "Mode", "Fast"}


def test_selecting_a_variant_is_enough_to_be_valid(toy_model):
    report = validate_configuration(toy_model, Configuration(frozenset({"Fast"})))
    assert report.valid


def test_catalog_closure_reaches_every_ancestor(catalog):
    normalized = normalize(catalog, frozenset({"TimePriority"}))
    assert {"TimePriority", "SecondaryOrderPrecedenceRules", "Exchange",
            "EquityMarket"} <= normalized


@given(feature_models())
def test_monotone_closure_only_adds(model):
    names = list(model.feature_names())
    parents = _parents(model)
    for step in (1, 2, 3):
        seed_selection = frozenset(names[::step])
        closed = normalize(model, seed_selection)
        assert seed_selection <= closed
        for name in closed - seed_selection:
            feature = model.feature(name)
            is_ancestor = any(
                _is_ancestor(parents, name, selected) for selected in closed)
            parent = parents[name]
            is_mandatory_child = (
                feature.optionality.value == "mandatory"
                and parent in closed
                and model.feature(parent).group.value == "and")
            assert is_ancestor or is_mandatory_child


def _parents(model):
    """feature name -> its parent's name, None for the root."""
    return {name: entry["parent"] for name, entry in bruteforce.index_tree(model).items()}


def _is_ancestor(parents, candidate, name):
    parent = parents[name]
    while parent is not None:
        if parent == candidate:
            return True
        parent = parents[parent]
    return False


@given(feature_models())
def test_closure_agrees_with_independent_bfs_closure(model):
    names = list(model.feature_names())
    for step in (1, 2, 3):
        selection = frozenset(names[::step])
        assert normalize(model, selection) == bruteforce.close_selection(model, selection)


@given(feature_models())
def test_validity_agrees_with_bruteforce_predicate(model):
    names = list(model.feature_names())
    selections = [frozenset(), frozenset(names[:1]), frozenset(names[::2]),
                  frozenset(names[::3]), frozenset(names)]
    for selection in selections:
        report = validate_configuration(model, Configuration(selection))
        assert report.valid == bruteforce.valid_with_closure(model, selection)


def test_root_alone_reports_every_unbound_group_in_document_order(catalog):
    report = validate_configuration(catalog, Configuration(frozenset({"EquityMarket"})))
    groups = [
        ("alt", "BrokerOrderValidationRules"), ("or", "ClientOrderTypes"),
        ("alt", "BrokerMoneyTransferMethods"), ("alt", "BrokerEquityTransferMethods"),
        ("or", "OrderRisks"), ("alt", "GovernmentalComplianceChecks"),
        ("alt", "ClientComplianceChecks"), ("alt", "BrokerAllocationDetailValidationRules"),
        ("alt", "CustodianAllocationDetailValidationRules"),
        ("or", "AllocationDetailAffirmationRules"), ("alt", "CustodianMoneyTransferMethods"),
        ("alt", "CustodianEquityTransferMethods"), ("alt", "ExchangeOrderValidationRules"),
        ("alt", "SecondaryOrderPrecedenceRules"), ("alt", "DefaultSecondaryOrderPrecedenceRules"),
        ("or", "OrderMatchingAlgorithms"), ("alt", "TradeValidationRules"),
        ("alt", "TradeClearingRules"),
    ]
    expected = [
        ("AlternativeCardinality",
         f"alternative group {name} selects 0 children (none), needs exactly 1")
        if kind == "alt" else
        ("OrCardinality", f"or group {name} selects no children, needs at least 1")
        for kind, name in groups
    ]
    assert not report.valid
    assert [(v.code, v.message) for v in report.violations] == expected


def test_missing_matching_is_the_only_violation(catalog, seco_a_config):
    cfg = Configuration(seco_a_config.selected - {"FillOrKillMatching"})
    report = validate_configuration(catalog, cfg)
    assert [str(v) for v in report.violations] == [
        "ConstraintViolated: cross-tree constraint violated: "
        "FillOrKillOrderType => FillOrKillMatching",
    ]
    assert report.describe() == str(report.violations[0])


CATALOG = parse_feature_model(catalog_path().read_text())
CATALOG_PARENTS = _parents(CATALOG)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sets(st.sampled_from(CATALOG.feature_names())))
def test_closure_holds_every_parent_and_mandatory_child(selection):
    """The invariant that lets validation skip parent and mandatory-child checks."""
    normalized = validate_configuration(CATALOG, Configuration(selection)).normalized
    for name in normalized:
        parent = CATALOG_PARENTS[name]
        assert parent is None or parent in normalized
        feature = CATALOG.feature(name)
        if feature.group is GroupKind.AND:
            for child in feature.children:
                if child.optionality is Optionality.MANDATORY:
                    assert child.name in normalized
