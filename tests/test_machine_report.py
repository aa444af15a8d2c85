"""The machine report: delta balance lines, reading back, and drift.

A ``balance|n|…`` line gives an account's balances from step n on, so a
step lists only what changed. The oracle here rebuilds every step's full
balances from the balance lines alone, independently of ``parse_machine``,
and compares them with the recorded snapshots. A report written in the
earlier full format, every account at every step, must read back the same.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stpsim
from conftest import load_scenario
from stpsim.assembly import build_ecosystem
from stpsim.cli import main
from stpsim.data import catalog_path, config_path
from stpsim.ledger import Ledger, LedgerError, Money
from stpsim.lifecycle import (
    ScenarioReport, ScenarioRunner, StepRecord, assert_conservation, run_scenario)
from stpsim.report import (
    ReportParseError, VanishedAccountError, parse_machine, render_machine)
from stpsim.scenarios import SCENARIO_IDS

PAIRS = [(product, scenario_id) for product in ("seco_a", "seco_b")
         for scenario_id in SCENARIO_IDS]


@pytest.fixture(scope="module")
def products(product_a, product_b):
    return {"seco_a": product_a, "seco_b": product_b}


def run_pair(products, product, scenario_id):
    report = run_scenario(products[product], load_scenario(scenario_id))
    checks = assert_conservation(report)
    return report, checks, render_machine(report, checks)


def expected_state(snapshot):
    return {account: (balances.money.amount,
                      ",".join(f"{symbol}={qty}" for symbol, qty in sorted(balances.positions.items())))
            for account, balances in snapshot.items()}


def rebuild_steps(machine):
    """Every step's full balances from the step and balance lines alone.

    Asserts on the way that no balance line restates what the reader
    already holds for that account, so the format carries changes only.
    """
    states = []
    for line in machine.splitlines():
        tag, *fields = line.split("|")
        if tag == "step":
            states.append(dict(states[-1]) if states else {})
        elif tag == "balance":
            step, account, money, positions = fields
            assert int(step) == len(states)
            value = (int(money), positions)
            assert states[-1].get(account) != value, f"restated: {line}"
            states[-1][account] = value
    return states


def full_format(report, machine):
    """`machine` with every account restated at every step, as reports were
    written before balance lines became deltas."""
    lines = []
    for line in machine.splitlines():
        tag = line.split("|", 1)[0]
        if tag == "balance":
            continue
        lines.append(line)
        if tag == "step":
            index = int(line.split("|")[1])
            state = expected_state(report.steps[index - 1].snapshot)
            lines.extend(f"balance|{index}|{account}|{money}|{positions}"
                         for account, (money, positions) in sorted(state.items()))
    return "\n".join(lines) + "\n"


# -- delta round trip ----------------------------------------------------------

@pytest.mark.parametrize("product,scenario_id", PAIRS)
def test_delta_lines_rebuild_every_step(products, product, scenario_id):
    report, _, machine = run_pair(products, product, scenario_id)
    states = rebuild_steps(machine)
    assert len(states) == len(report.steps)
    for step, state in zip(report.steps, states):
        assert state == expected_state(step.snapshot), step.name
    assert parse_machine(machine).final_balances == states[-1]


OWNERS = ("a0", "a1", "a2", "a3")


@settings(max_examples=150, deadline=None)
@given(moves=st.lists(st.tuples(st.sampled_from(OWNERS), st.sampled_from(OWNERS),
                                st.sampled_from(("money", "shares", "open")),
                                st.integers(0, 40)), max_size=25))
def test_delta_lines_rebuild_every_step_of_random_transfers(moves):
    ledger = Ledger()
    for owner in OWNERS:
        ledger.open_account(owner, Money(100), {"SYM": 20})
    steps = [StepRecord("setup", ledger.snapshot())]
    for index, (src, dst, kind, amount) in enumerate(moves, start=1):
        try:
            if kind == "money":
                ledger.transfer_money(src, dst, Money(amount))
            elif kind == "shares":
                ledger.transfer_equity(src, dst, "SYM", amount)
            else:
                ledger.open_account(f"n{index}", Money(amount), {"NEW": amount})
        except LedgerError:
            pass
        steps.append(StepRecord(f"move_{index}", ledger.snapshot()))

    report = ScenarioReport("P", "hypothesis", steps=steps)
    machine = render_machine(report, [])
    states = rebuild_steps(machine)
    assert states == [expected_state(step.snapshot) for step in steps]
    assert parse_machine(full_format(report, machine)) == parse_machine(machine)


def test_vanished_account_cannot_be_rendered(products):
    report, checks, _ = run_pair(products, "seco_a", "retail_retail")
    victim = report.steps[3]
    victim.snapshot = dict(victim.snapshot)
    del victim.snapshot["RC1"]
    with pytest.raises(VanishedAccountError, match=r"step 4 \(.*\) lacks account 'RC1'"):
        render_machine(report, checks)


# -- reports in the earlier full format ----------------------------------------

@pytest.mark.parametrize("product,scenario_id", PAIRS)
def test_full_format_report_reads_back_the_same(products, product, scenario_id):
    report, _, machine = run_pair(products, product, scenario_id)
    full = full_format(report, machine)
    assert full.count("\nbalance|") > machine.count("\nbalance|")
    parsed = parse_machine(machine)
    assert parse_machine(full) == parsed
    assert len(parsed.steps) == len(report.steps)
    assert parsed.trade_count == len(report.trade_lines)
    assert parsed.journal_count == len(report.journal_lines)
    assert parsed.aborted is None


# -- run and report render the same outcome ------------------------------------

def outcome_blocks(human):
    return [block for block in human.split("\n\n")
            if block.startswith(("final balances:", "checks:", "result:"))]


@pytest.mark.parametrize("product,scenario_id", PAIRS)
def test_run_and_report_agree(capsys, tmp_path, product, scenario_id):
    run_args = ("run", str(catalog_path()), str(config_path(product)), scenario_id)
    assert main(list(run_args)) == 0
    human = capsys.readouterr().out
    assert main([*run_args, "--format", "machine"]) == 0
    saved = tmp_path / "run.out"
    saved.write_text(capsys.readouterr().out)
    assert main(["report", str(saved)]) == 0
    assert len(outcome_blocks(human)) == 3
    assert capsys.readouterr().out == human


# -- malformed reports -----------------------------------------------------------

# case -> (prefix of the shipped line to replace, the record put in its place)
BAD_RECORDS = {
    "truncated_step": ("step|1|", "step|1"),
    "truncated_balance": ("balance|1|", "balance|1"),
    "truncated_check": ("check|no_unreported_trades[X1]|", "check|no_unreported_trades[X1]"),
    "truncated_abort": ("end|", "end|aborted"),
    "non_integer_step": ("balance|1|", "balance|x1|BR1.house|0|"),
    "non_integer_money": ("balance|1|", "balance|1|BR1.house|zz|"),
    "balance_ahead_of_its_step": ("balance|1|", "balance|2|BR1.house|0|"),
    "step_out_of_sequence": ("step|2|", "step|3|order_1_RC2|"),
    "unknown_check_status": ("check|no_unreported_trades[X1]|", "check|x|maybe"),
    "unknown_end_status": ("end|", "end|paused"),
}


def with_bad_record(machine, prefix, record):
    lines = machine.splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[index] = record
    return "\n".join(lines) + "\n", index + 1


@pytest.fixture(scope="module")
def shipped_machine(products):
    return run_pair(products, "seco_a", "retail_retail")[2]


@pytest.mark.parametrize("prefix,record", BAD_RECORDS.values(), ids=BAD_RECORDS.keys())
def test_malformed_record_raises_parse_error_with_line_number(shipped_machine, prefix, record):
    text, line_no = with_bad_record(shipped_machine, prefix, record)
    with pytest.raises(ReportParseError, match=rf"^line {line_no}: "):
        parse_machine(text)


def test_report_exits_one_without_traceback_on_malformed_record(shipped_machine, tmp_path):
    text, line_no = with_bad_record(shipped_machine, *BAD_RECORDS["truncated_balance"])
    bad = tmp_path / "bad.out"
    bad.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(stpsim.__file__).parent.parent))
    result = subprocess.run([sys.executable, "-m", "stpsim.cli", "report", str(bad)],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr == f"error: line {line_no}: truncated balance record 'balance|1'\n"


# -- all_trades_settled ------------------------------------------------------------

def test_all_trades_settled_passes_on_a_shipped_run(products):
    report, _, machine = run_pair(products, "seco_b", "institutional_institutional")
    assert [check.passed for check in report.finals
            if check.name == "all_trades_settled"] == [True]
    assert "\ncheck|all_trades_settled|pass\n" in machine


def test_all_trades_settled_names_the_first_unsettled_trade(products):
    scenario = load_scenario("retail_retail")
    eco = build_ecosystem(products["seco_a"], scenario)
    eco.clearing.settle_rec = lambda: []   # clear, but never settle
    report = ScenarioRunner(eco, scenario).run()
    (check,) = [check for check in report.finals if check.name == "all_trades_settled"]
    assert (check.passed, check.detail) == (False, "X1-T1 is cleared")
