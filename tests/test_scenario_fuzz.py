"""Mutation fuzzing of the shipped `.scn` files.

Each example edits a shipped scenario line by line: it drops a line,
duplicates one, swaps two, truncates one at a field boundary or inserts one
character. Whatever the edits, `parse_scenario` either raises
ScenarioFormatError or returns a Scenario that `run_scenario` builds and
runs to a `ScenarioReport` under both shipped products, completed or with
its abort recorded; no edit ends in any other exception. The machine report
of each run reads back its scenario id, every account's final money and
positions, and every check's name and verdict.
"""

import pytest
from hypothesis import given, settings, strategies as st

from mutations import mutate
from stpsim.data import scenario_path
from stpsim.lifecycle import ScenarioReport, assert_conservation, run_scenario
from stpsim.report import parse_machine, render_machine
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
        report = run_scenario(product, scenario)
        assert isinstance(report, ScenarioReport)
        _assert_reads_back(report)


def _assert_reads_back(report):
    """The machine report of `report` reads back what the run holds."""
    checks = assert_conservation(report)
    parsed = parse_machine(render_machine(report, checks))
    assert parsed.scenario_id == report.scenario_id
    final = dict(report.steps[-1].snapshot) if report.steps else {}
    assert parsed.final_balances == {
        account: (balances.money.amount,
                  ",".join(f"{symbol}={qty}" for symbol, qty in sorted(balances.positions.items())))
        for account, balances in final.items()}
    assert [(check.name, check.passed) for check in parsed.checks] == [
        (check.name, check.passed) for check in [*report.finals, *checks]]
