"""Mutation fuzzing of the shipped `.scn` files.

Each example edits a shipped scenario line by line: it drops a line,
duplicates one, swaps two, truncates one at a field boundary or inserts one
character. Whatever the edits, `parse_scenario` either raises
ScenarioFormatError or returns a Scenario that `run_scenario` builds and
runs to a `ScenarioReport` under both shipped products, completed or with
its abort recorded; no edit ends in any other exception.
"""

import pytest
from hypothesis import given, settings, strategies as st

from mutations import mutate
from stpsim.data import scenario_path
from stpsim.lifecycle import ScenarioReport, run_scenario
from stpsim.scenarios import SCENARIO_IDS, ScenarioFormatError, parse_scenario

SHIPPED = {scenario_id: scenario_path(scenario_id).read_text().splitlines()
           for scenario_id in SCENARIO_IDS}


@pytest.fixture(scope="module")
def products(product_a, product_b):
    return product_a, product_b


@settings(max_examples=500, deadline=None, derandomize=True)
@given(scenario_id=st.sampled_from(SCENARIO_IDS), data=st.data())
def test_mutated_scenario_is_rejected_or_builds(products, scenario_id, data):
    try:
        scenario = parse_scenario(mutate(SHIPPED[scenario_id], data))
    except ScenarioFormatError:
        return
    for product in products:
        assert isinstance(run_scenario(product, scenario), ScenarioReport)
