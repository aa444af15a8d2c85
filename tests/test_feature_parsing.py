import pytest
from hypothesis import given

from conftest import TOY_FM, feature_models
from stpsim.features import (
    DuplicateFeatureName,
    FeatureKind,
    GroupKind,
    MalformedGroup,
    ModelSyntaxError,
    Optionality,
    UnknownNameInConstraint,
    parse_configuration,
    parse_feature_model,
)
from stpsim.features import formula as fm


def serialize_feature_model(model) -> str:
    """`model` in the `.fm` format that `parse_feature_model` reads."""
    lines: list[str] = []

    def emit(feature, depth: int) -> None:
        parts = [feature.kind.value, feature.optionality.value, feature.name]
        if feature.children:    # a model has no leaf with children nor childless or/alt
            parts.append(f"group:{feature.group.value}")
        lines.append("  " * depth + " ".join(parts))
        for child in feature.children:
            emit(child, depth + 1)

    emit(model.root, 0)
    if model.constraints:
        lines.append("constraints:")
        for constraint in model.constraints:
            lines.append(constraint.describe())
    return "\n".join(lines) + "\n"


def serialize_configuration(cfg) -> str:
    """`cfg` in the `.cfg` format that `parse_configuration` reads."""
    return "\n".join(sorted(cfg.selected)) + "\n"


def tree_and_constraints(model):
    return model.root, model.constraints


def test_minimal_model_two_features_no_constraints():
    model = parse_feature_model(
        "abstract mandatory EquityMarket group:and\n"
        "  concrete mandatory Core\n")
    assert len(model) == 2
    assert model.constraints == ()
    assert model.root.name == "EquityMarket"
    assert model.feature("Core").group is GroupKind.LEAF


def test_constraint_line_becomes_implies_formula():
    model = parse_feature_model(
        "abstract mandatory Root group:and\n"
        "  concrete optional LimitOrderType\n"
        "  concrete optional LimitMatchingAlgorithm\n"
        "constraints:\n"
        "LimitOrderType => LimitMatchingAlgorithm\n")
    assert len(model.constraints) == 1
    assert model.constraints[0].formula == fm.Implies(
        fm.Var("LimitOrderType"), fm.Var("LimitMatchingAlgorithm"))


def test_alternative_group_of_one_child_is_malformed():
    with pytest.raises(MalformedGroup):
        parse_feature_model(
            "abstract mandatory Root group:alt\n"
            "  concrete optional Only\n")


def test_or_group_of_one_child_is_malformed():
    with pytest.raises(MalformedGroup):
        parse_feature_model(
            "abstract mandatory Root group:and\n"
            "  abstract mandatory Point group:or\n"
            "    concrete optional Only\n")


def test_duplicate_feature_name_rejected():
    with pytest.raises(DuplicateFeatureName):
        parse_feature_model(
            "abstract mandatory Root group:and\n"
            "  concrete optional Twin\n"
            "  concrete optional Twin\n")


def test_unknown_name_in_constraint_rejected():
    with pytest.raises(UnknownNameInConstraint):
        parse_feature_model(
            "abstract mandatory Root group:and\n"
            "  concrete optional A\n"
            "constraints:\n"
            "A => Ghost\n")


@pytest.mark.parametrize("text,line", [
    ("abstract mandatory Root\nabstract mandatory Second\n", 2),   # two roots
    ("  abstract mandatory Root\n", 1),                            # indented root
    ("abstract mandatory Root group:and\n    concrete optional Deep\n", 2),  # level jump
    ("abstract mandatory Root group:and\n concrete optional Odd\n", 2),      # odd indent
    ("abstract Root\n", 1),                                        # missing optionality
    ("abstract mandatory Root group:xor\n", 1),                    # unknown group
    ("", 1),                                                       # empty document
])
def test_syntax_errors_carry_line_numbers(text, line):
    with pytest.raises(ModelSyntaxError) as err:
        parse_feature_model(text)
    assert err.value.line == line


def test_bad_constraint_reports_its_line():
    with pytest.raises(ModelSyntaxError) as err:
        parse_feature_model(
            "abstract mandatory Root group:and\n"
            "  concrete optional A\n"
            "constraints:\n"
            "A & & A\n")
    assert err.value.line == 4


def test_comments_and_blank_lines_ignored():
    model = parse_feature_model(
        "# header comment\n"
        "abstract mandatory Root group:and\n"
        "\n"
        "  concrete optional A  # trailing\n")
    assert len(model) == 2


def test_kind_and_optionality_parsed():
    model = parse_feature_model(TOY_FM)
    assert model.feature("Toy").kind is FeatureKind.ABSTRACT
    assert model.feature("Core").kind is FeatureKind.CONCRETE
    assert model.feature("Core").optionality is Optionality.MANDATORY
    assert model.feature("Logging").optionality is Optionality.OPTIONAL
    assert model.feature("Mode").group is GroupKind.ALTERNATIVE


def test_round_trip_toy_model():
    model = parse_feature_model(TOY_FM)
    again = parse_feature_model(serialize_feature_model(model))
    assert tree_and_constraints(again) == tree_and_constraints(model)


def test_round_trip_is_idempotent(catalog):
    once = serialize_feature_model(catalog)
    again = serialize_feature_model(parse_feature_model(once))
    assert once == again


@given(feature_models())
def test_round_trip_random_models(model):
    again = parse_feature_model(serialize_feature_model(model))
    assert tree_and_constraints(again) == tree_and_constraints(model)


def test_parse_configuration_names_and_comments():
    cfg = parse_configuration("# product\nAlpha\n\nBeta # chosen\nAlpha\n")
    assert cfg.selected == {"Alpha", "Beta"}


def test_parse_configuration_rejects_garbage():
    with pytest.raises(ModelSyntaxError):
        parse_configuration("not a name!\n")


def test_configuration_round_trip():
    cfg = parse_configuration("B\nA\n")
    assert parse_configuration(serialize_configuration(cfg)) == cfg
