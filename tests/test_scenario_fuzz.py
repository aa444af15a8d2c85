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

from stpsim.data import scenario_path
from stpsim.lifecycle import ScenarioReport, run_scenario
from stpsim.scenarios import SCENARIO_IDS, ScenarioFormatError, parse_scenario

SHIPPED = {scenario_id: scenario_path(scenario_id).read_text().splitlines()
           for scenario_id in SCENARIO_IDS}

# characters an inserted typo may be: separators, signs, digits, letters
INSERTED = " \t=,:#-_.+0159AEKZaekz"
BOUNDARIES = " =,:"


def _drop(lines, data):
    del lines[data.draw(st.integers(0, len(lines) - 1))]


def _duplicate(lines, data):
    index = data.draw(st.integers(0, len(lines) - 1))
    lines.insert(index, lines[index])


def _swap(lines, data):
    first = data.draw(st.integers(0, len(lines) - 1))
    second = data.draw(st.integers(0, len(lines) - 1))
    lines[first], lines[second] = lines[second], lines[first]


def _truncate(lines, data):
    index = data.draw(st.integers(0, len(lines) - 1))
    cuts = [at for at, char in enumerate(lines[index]) if char in BOUNDARIES]
    if cuts:
        lines[index] = lines[index][:data.draw(st.sampled_from(cuts))]


def _insert(lines, data):
    index = data.draw(st.integers(0, len(lines) - 1))
    at = data.draw(st.integers(0, len(lines[index])))
    char = data.draw(st.sampled_from(INSERTED))
    lines[index] = lines[index][:at] + char + lines[index][at:]


MUTATIONS = (_drop, _duplicate, _swap, _truncate, _insert)


@pytest.fixture(scope="module")
def products(product_a, product_b):
    return product_a, product_b


@settings(max_examples=500, deadline=None, derandomize=True)
@given(scenario_id=st.sampled_from(SCENARIO_IDS), data=st.data())
def test_mutated_scenario_is_rejected_or_builds(products, scenario_id, data):
    lines = list(SHIPPED[scenario_id])
    for mutation in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        if lines:
            mutation(lines, data)
    try:
        scenario = parse_scenario("\n".join(lines) + "\n")
    except ScenarioFormatError:
        return
    for product in products:
        assert isinstance(run_scenario(product, scenario), ScenarioReport)
