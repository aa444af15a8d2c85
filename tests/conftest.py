import random

import pytest
from hypothesis import strategies as st

from stpsim.assembly import project
from stpsim.data import catalog_path, config_path, scenario_path
from stpsim.features import (
    Configuration,
    CrossTreeConstraint,
    Feature,
    FeatureKind,
    FeatureModel,
    GroupKind,
    Optionality,
    derive_product,
    parse_configuration,
    parse_feature_model,
)
from stpsim.features import formula as fm
from stpsim.scenarios import parse_scenario


@pytest.fixture(scope="session")
def catalog():
    return parse_feature_model(catalog_path().read_text())


@pytest.fixture(scope="session")
def seco_a_config():
    return parse_configuration(config_path("seco_a").read_text())


@pytest.fixture(scope="session")
def seco_b_config():
    return parse_configuration(config_path("seco_b").read_text())


@pytest.fixture(scope="session")
def product_a(catalog, seco_a_config):
    return derive_product(catalog, seco_a_config, "SECO_A")


@pytest.fixture(scope="session")
def product_b(catalog, seco_b_config):
    return derive_product(catalog, seco_b_config, "SECO_B")


def load_scenario(scenario_id):
    return parse_scenario(scenario_path(scenario_id).read_text())


def projected(config_name):
    """participant -> config field -> value for a shipped configuration."""
    model = parse_feature_model(catalog_path().read_text())
    config = parse_configuration(config_path(config_name).read_text())
    return project(derive_product(model, config, config_name.upper()))


def over_the_trade_value_cap():
    """retail_retail's text at a trade value of 10**13 cents, over the 10**12
    cap of the clearing's extended trade checks (bound by SECO B only)."""
    text = scenario_path("retail_retail").read_text()
    for old, new in [
        ("endow: RC1 money=150000", "endow: RC1 money=20000000000000"),
        ("endow: RC2 ACME=100", "endow: RC2 ACME=1000000"),
        ("order: RC2 sell 100 ACME limit 1040", "order: RC2 sell 1000000 ACME limit 10000000"),
        ("order: RC1 buy 100 ACME limit 1040", "order: RC1 buy 1000000 ACME limit 10000000"),
    ]:
        assert old in text
        text = text.replace(old, new)
    return text


TOY_FM = """\
abstract mandatory Toy group:and
  concrete mandatory Core
  abstract mandatory Mode group:alt
    concrete optional Fast
    concrete optional Safe
  concrete optional Logging
"""

TOY_OR_FM = """\
abstract mandatory Rig group:and
  abstract mandatory Sensors group:or
    concrete optional Lidar
    concrete optional Radar
  concrete optional Fusion
constraints:
Fusion => Lidar & Radar
"""

TOY_LOGIC_FM = """\
abstract mandatory Kit group:and
  concrete optional A
  concrete optional B
  concrete optional C
constraints:
A => B
B <=> C
"""


@pytest.fixture
def toy_model():
    return parse_feature_model(TOY_FM)


# -- random feature-model strategy -------------------------------------------

def _build_tree(rng: random.Random, count: int) -> Feature:
    parents = [0] * count
    for i in range(1, count):
        parents[i] = rng.randrange(i)
    children: dict[int, list[int]] = {i: [] for i in range(count)}
    for i in range(1, count):
        children[parents[i]].append(i)

    def build(i: int) -> Feature:
        kids = [build(j) for j in children[i]]
        if len(kids) >= 2:
            group = rng.choice([GroupKind.AND, GroupKind.OR, GroupKind.ALTERNATIVE])
        elif kids:
            group = GroupKind.AND
        else:
            group = GroupKind.LEAF
        kind = FeatureKind.ABSTRACT if kids else rng.choice(list(FeatureKind))
        opt = Optionality.MANDATORY if i == 0 else rng.choice(list(Optionality))
        return Feature(f"F{i}", kind, opt, group, tuple(kids))

    return build(0)


def _random_formula(rng: random.Random, names: list[str], depth: int = 2) -> fm.Formula:
    if depth == 0 or rng.random() < 0.4:
        return fm.Var(rng.choice(names))
    op = rng.choice(["not", "and", "or", "implies", "iff"])
    if op == "not":
        return fm.Not(_random_formula(rng, names, depth - 1))
    left = _random_formula(rng, names, depth - 1)
    right = _random_formula(rng, names, depth - 1)
    return {"and": fm.And, "or": fm.Or, "implies": fm.Implies, "iff": fm.Iff}[op](left, right)


@st.composite
def feature_models(draw, min_features=3, max_features=12, max_constraints=2):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    count = rng.randint(min_features, max_features)
    root = _build_tree(rng, count)
    names = [f"F{i}" for i in range(count)]
    constraints = tuple(
        CrossTreeConstraint(_random_formula(rng, names))
        for _ in range(rng.randint(0, max_constraints))
    )
    return FeatureModel(root, constraints)


@st.composite
def configurations_for(draw, model: FeatureModel):
    names = list(model.feature_names())
    chosen = draw(st.sets(st.sampled_from(names)))
    return Configuration(frozenset(chosen))
