"""The machine report: record lines, delta balance lines, reading back, and drift.

`render_machine` writes every record kind; one exact line of each is pinned
here, from records the participants themselves keep. A ``balance|n|…``
line gives an account's balances from step n on, so a
step lists only what changed. The oracle here rebuilds every step's full
balances from the balance lines alone, independently of ``parse_machine``,
and compares them with the recorded snapshots. A report written in the
earlier full format, every account at every step, must read back the same.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stpsim
from conftest import load_scenario
from faults import run_leaking
from test_broker import (
    PIPELINE, REJECTED_AT, _filled_block, audit_events, buy_draft, detail, make_desk)
from test_custodian import fixture_contracts, fixture_details, make_custodian
from test_exchange import draft_order, make_exchange
from perfbench.workloads import WORKLOADS
from stpsim.assembly import build_ecosystem
from stpsim.broker import BrokerService
from stpsim.cli import main
from stpsim.data import catalog_path, config_path, scenario_path
from stpsim.ledger import Ledger, LedgerError, Money
from stpsim.lifecycle import (
    ScenarioReport, ScenarioRunner, StepRecord, assert_conservation, run_scenario)
from stpsim.report import (
    ReportParseError, parse_machine, render_machine, render_parsed)
from stpsim.scenarios import SCENARIO_IDS, parse_scenario
from stpsim.trading import EquityLeg, MoneyLeg, SettlementInstruction, Side
from test_pinned_outputs import EDITS, PINS

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


# -- one exact line per record kind --------------------------------------------

def record_lines(**records):
    """The lines `render_machine` writes for `records` alone, between the
    run header and the end record."""
    return render_machine(ScenarioReport("P", "s", **records), []).splitlines()[1:-1]


def test_trade_record_line():
    exchange = make_exchange()
    sell = draft_order(side=Side.SELL, qty=100, price=1040)
    sell.order_id = "S1"
    buy = draft_order(side=Side.BUY, qty=100, price=1040)
    buy.order_id = "B1"
    for order in (sell, buy):
        exchange.validate_incoming_order(order)
        exchange.submit_order(order)
    assert record_lines(trade_lines=exchange.executed) == ["trade|X1-T1|ACME|1040|100|B1|S1"]


def test_audit_record_lines():
    broker, _, _, _ = make_desk()
    broker.place_retail_order(buy_draft(qty=0))
    broker.place_retail_order(buy_draft())
    assert record_lines(audit_lines=audit_events(broker)[:2]) == [
        "audit|BR1-O1|validation|rejected|NonPositiveQuantity",
        "audit|BR1-O2|validation|ok|",
    ]


@pytest.mark.parametrize("stage, rule, desk, draft, prepare", REJECTED_AT.values(),
                         ids=REJECTED_AT.keys())
def test_a_rejection_record_writes_the_stages_it_passed_then_itself(
        stage, rule, desk, draft, prepare):
    broker, exchanges, _, _ = make_desk(**desk)
    if prepare:
        prepare(exchanges)
    broker.place_retail_order(draft)
    assert len(broker.audit_records) == 1
    assert record_lines(audit_lines=broker.audit_records) == [
        *(f"audit|BR1-O1|{ok}|ok|" for ok in PIPELINE[:PIPELINE.index(stage)]),
        f"audit|BR1-O1|{stage}|rejected|{rule}"]


def test_an_allocation_rejection_record_writes_one_line_after_its_block():
    broker, exchanges, _, _ = make_desk()
    block_id = _filled_block(broker, exchanges)
    broker.handle_allocation_details([detail("A1", block_id, 60), detail("A2", block_id, 30)])
    assert len(broker.audit_records) == 2
    institutional = [stage for stage in PIPELINE if stage != "prepayment"]
    assert record_lines(audit_lines=broker.audit_records) == [
        *(f"audit|BR1-O1|{stage}|ok|" for stage in institutional),
        "audit|BR1-O1|allocation_validation|rejected|QuantityMismatch"]


def _pinned_run(argv):
    """(product, scenario text) of a pinned machine run of a shipped
    scenario, an edited one, or a workload's at seed 1; None for any other row."""
    if argv[0] != "run" or "machine" not in argv:
        return None
    product, scenario = Path(argv[2]).stem, argv[3].strip("{}")
    if scenario in SCENARIO_IDS:
        return product, scenario_path(scenario).read_text(encoding="utf-8")
    if scenario in EDITS:
        scenario_id, old, new = EDITS[scenario]
        return product, scenario_path(scenario_id).read_text(encoding="utf-8").replace(old, new)
    if scenario in WORKLOADS:
        return product, WORKLOADS[scenario].scenario_text(1)
    return None


PINNED_RUNS = {row: run for row, (argv, *_) in PINS.items() if (run := _pinned_run(argv))}


@pytest.mark.parametrize("product, text", PINNED_RUNS.values(), ids=PINNED_RUNS.keys())
def test_each_order_and_allocation_leaves_one_audit_record(products, monkeypatch, product, text):
    handled = []  # each order placed and each allocation checked, by the method's name
    for name in ("place_retail_order", "place_institutional_order", "handle_allocation_details"):
        def counted(self, arg, _method=getattr(BrokerService, name), _name=name):
            handled.append(_name)
            return _method(self, arg)
        monkeypatch.setattr(BrokerService, name, counted)
    scenario = parse_scenario(text)
    eco = build_ecosystem(products[product], scenario)
    report = ScenarioRunner(eco, scenario).run()
    machine = render_machine(report, assert_conservation(report))
    assert len(report.audit_lines) == len(handled) > 0
    events = [event for broker in eco.brokers.values() for event in audit_events(broker)]
    assert [line for line in machine.splitlines() if line.startswith("audit|")] == [
        line for event in events for line in record_lines(audit_lines=[event])]


def test_affirmation_record_lines_for_both_outcomes():
    custodian, _, _, _ = make_custodian()
    details = fixture_details()
    custodian.receive_allocation_details(details)
    contracts = fixture_contracts(details)
    rejection = custodian.affirm_contracts(
        [contracts[0]._replace(price=Money(1)), contracts[1]._replace(quantity=41)])
    custodian.affirm_contracts(contracts)
    assert record_lines(affirmation_lines=custodian.affirmations) == [
        "affirmation|rejected|BR1-O1|PriceMismatch: contract=BR1-C1 detail=A1;"
        "QuantityMismatch: contract=BR1-C2 detail=A2;QuantitySumMismatch: contract=- detail=-",
        "affirmation|affirmed|BR1-O1|CU1-F1|BR1-C1,BR1-C2",
    ]
    parse_machine(render_machine(
        ScenarioReport("P", "s", affirmation_lines=custodian.affirmations), []))
    # the abort cause joins the same violations with "; "
    assert str(rejection) == (
        "PriceMismatch: contract=BR1-C1 detail=A1; QuantityMismatch: contract=BR1-C2 "
        "detail=A2; QuantitySumMismatch: contract=- detail=-")


def test_instruction_record_lines_write_a_missing_leg_as_a_dash():
    assert record_lines(instruction_lines=[
        SettlementInstruction("CC1-I1", MoneyLeg("BR1.house", "BR2.house", Money(104000)),
                              EquityLeg("BR2.house", "BR1.house", "ACME", 100), ("X1-T1",)),
        SettlementInstruction("CC1-I2", None, EquityLeg("CC1.ccp", "BR1.house", "ACME", 5),
                              ("X1-T2", "X1-T3")),
        SettlementInstruction("CC1-I3", MoneyLeg("BR1.house", "CC1.ccp", Money(700)), None,
                              ("X1-T2",)),
    ]) == [
        "instruction|CC1-I1|BR1.house->BR2.house:104000|BR2.house->BR1.house:100ACME|X1-T1",
        "instruction|CC1-I2|-|CC1.ccp->BR1.house:5ACME|X1-T2,X1-T3",
        "instruction|CC1-I3|BR1.house->CC1.ccp:700|-|X1-T2",
    ]


def test_journal_record_lines():
    ledger = Ledger()
    ledger.open_account("alice", Money(1000), {"ACME": 10})
    ledger.open_account("bob")
    ledger.transfer_money("alice", "bob", Money(7), "step1")
    ledger.transfer_equity("alice", "bob", "ACME", 2, "step2")
    assert record_lines(journal_lines=ledger.journal) == [
        "journal|1|money|alice|bob|7||step1",
        "journal|2|equity|alice|bob|2|ACME|step2",
    ]


def test_run_report_holds_the_participants_records(products):
    scenario = load_scenario("institutional_institutional")
    eco = build_ecosystem(products["seco_a"], scenario)
    report = ScenarioRunner(eco, scenario).run()
    assert report.journal_lines == tuple(eco.ledger.journal)
    assert report.trade_lines == [trade for exchange in eco.exchanges.values()
                                  for trade in exchange.executed]
    assert report.audit_lines == [record for broker in eco.brokers.values()
                                  for record in broker.audit_records]
    assert report.affirmation_lines == [verdict for custodian in eco.custodians.values()
                                        for verdict in custodian.affirmations]
    assert report.instruction_lines == eco.clearing.executed_instructions
    assert all(len(lines) > 0 for lines in (
        report.trade_lines, report.audit_lines, report.affirmation_lines,
        report.instruction_lines, report.journal_lines))


def test_editing_the_reports_journal_raises_and_leaves_the_ledgers_journal(products):
    scenario = load_scenario("retail_retail")
    eco = build_ecosystem(products["seco_a"], scenario)
    report = ScenarioRunner(eco, scenario).run()
    journal = list(eco.ledger.journal)
    assert journal
    with pytest.raises(AttributeError):
        report.journal_lines.pop()
    with pytest.raises(TypeError):
        report.journal_lines[0] = journal[-1]
    assert eco.ledger.journal == journal


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


# -- the human view of a failed or an aborted run ----------------------------------

RETAIL_RETAIL_HEAD = """\
product:  SECO_A
scenario: retail_retail

steps:
   1. setup
   2. order_1_RC2  [order_id=BR2-O1]
"""

TAMPERED_HUMAN = RETAIL_RETAIL_HEAD + """\
   3. order_2_RC1  [order_id=BR1-O1]
   4. report_trades  [X1:reported=1]
   5. client_trades_to_clearing
   6. clear  [obligations=2]
   7. settle  [instructions=1]
   8. custodian_settle
   9. broker_settle  [BR1:credits=1;BR2:credits=1]

final balances:
  BR1.house  money=0           -
  BR2.house  money=1           -
  CC1.ccp    money=0           -
  RC1        money=46000       ACME=100
  RC2        money=104000      -

trades: 1, journal entries: 6

checks:
  no_unreported_trades[X1]: pass
  clearing_queue_empty: pass
  no_unsettled_obligations: pass
  no_unaffirmed_contracts[BR1]: pass
  no_unaffirmed_contracts[BR2]: pass
  all_trades_settled: pass
  conserve_money[setup->order_1_RC2]: pass
  conserve_equity[setup->order_1_RC2]: pass
  conserve_money[order_1_RC2->order_2_RC1]: pass
  conserve_equity[order_1_RC2->order_2_RC1]: pass
  conserve_money[order_2_RC1->report_trades]: pass
  conserve_equity[order_2_RC1->report_trades]: pass
  conserve_money[report_trades->client_trades_to_clearing]: pass
  conserve_equity[report_trades->client_trades_to_clearing]: pass
  conserve_money[client_trades_to_clearing->clear]: pass
  conserve_equity[client_trades_to_clearing->clear]: pass
  conserve_money[clear->settle]: FAIL (150000 -> 150001)
  conserve_equity[clear->settle]: pass
  conserve_money[settle->custodian_settle]: pass
  conserve_equity[settle->custodian_settle]: pass
  conserve_money[custodian_settle->broker_settle]: pass
  conserve_equity[custodian_settle->broker_settle]: pass
  final[RC1]: pass
  final[RC2]: pass
  final[BR1.house]: pass
  final[BR2.house]: FAIL (have money=1 positions={}, want money=0 positions={})
  final[CC1.ccp]: pass

result: FAIL (2 checks failed)
"""

UNDERFUNDED_HUMAN = RETAIL_RETAIL_HEAD + """\
   3. aborted_order_2_RC1

final balances:
  BR1.house  money=0           -
  BR2.house  money=0           ACME=100
  CC1.ccp    money=0           -
  RC1        money=100000      -
  RC2        money=0           -

trades: 0, journal entries: 1

checks:
  conserve_money[setup->order_1_RC2]: pass
  conserve_equity[setup->order_1_RC2]: pass
  conserve_money[order_1_RC2->aborted_order_2_RC1]: pass
  conserve_equity[order_1_RC2->aborted_order_2_RC1]: pass
  final[RC1]: FAIL (have money=100000 positions={}, want money=46000 positions={'ACME': 100})
  final[RC2]: FAIL (have money=0 positions={}, want money=104000 positions={})
  final[BR1.house]: pass
  final[BR2.house]: FAIL (have money=0 positions={'ACME': 100}, want money=0 positions={})
  final[CC1.ccp]: pass

result: ABORTED at order_2_RC1: rejected at prepayment: InsufficientFunds
"""


def test_tampered_step_snapshot_renders_its_failed_checks(products):
    # a ledger fault: the first money transfer once four steps are recorded,
    # the DVP money leg, credits a cent more than it debits
    report, ledger = run_leaking(
        products["seco_a"], load_scenario("retail_retail"), kind="money", after=4)
    assert [report.steps[at].name for at in ledger.leaked] == ["settle"]
    machine = render_machine(report, assert_conservation(report))
    assert render_parsed(parse_machine(machine)) == TAMPERED_HUMAN


def test_underfunded_run_renders_its_abort(capsys, tmp_path):
    shipped = scenario_path("retail_retail").read_text()
    assert "\nendow: RC1 money=150000\n" in shipped
    scenario = tmp_path / "underfunded.scn"
    scenario.write_text(shipped.replace("\nendow: RC1 money=150000\n",
                                        "\nendow: RC1 money=100000\n"))
    run_args = ("run", str(catalog_path()), str(config_path("seco_a")), str(scenario))
    assert main(list(run_args)) == 1
    assert capsys.readouterr().out == UNDERFUNDED_HUMAN
    assert main([*run_args, "--format", "machine"]) == 1
    saved = tmp_path / "run.out"
    saved.write_text(capsys.readouterr().out)
    assert main(["report", str(saved)]) == 1
    assert capsys.readouterr().out == UNDERFUNDED_HUMAN


# -- malformed reports -----------------------------------------------------------

# case -> (prefix of the shipped line to replace, the record put in its place,
#          the error after "line N: ")
BAD_RECORDS = {
    "truncated_step": ("step|1|", "step|1", "truncated step record 'step|1'"),
    "truncated_balance": ("balance|1|", "balance|1", "truncated balance record 'balance|1'"),
    "truncated_check": ("check|no_unreported_trades[X1]|", "check|no_unreported_trades[X1]",
                        "truncated check record 'check|no_unreported_trades[X1]'"),
    "truncated_abort": ("end|", "end|aborted", "truncated end record 'end|aborted'"),
    "non_integer_step": ("balance|1|", "balance|x1|BR1.house|0|", "step 'x1' is not an integer"),
    "non_integer_money": ("balance|1|", "balance|1|BR1.house|zz|",
                          "money 'zz' is not an integer"),
    "non_integer_step_number": ("step|2|", "step|two|order_1_RC2|",
                                "step 'two' is not an integer"),
    "balance_ahead_of_its_step": ("balance|1|", "balance|2|BR1.house|0|",
                                  "balance for step 2 follows step 1"),
    "step_out_of_sequence": ("step|2|", "step|3|order_1_RC2|", "step 3 follows step 1"),
    "unknown_check_status": ("check|no_unreported_trades[X1]|", "check|x|maybe",
                             "check status 'maybe'"),
    "unknown_end_status": ("end|", "end|paused", "end status 'paused'"),
    "unknown_record": ("audit|", "quote|X1|ACME|1040", "unknown record 'quote'"),
}


def with_bad_record(machine, prefix, record):
    lines = machine.splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[index] = record
    return "\n".join(lines) + "\n", index + 1


def parse_error(text):
    with pytest.raises(ReportParseError) as raised:
        parse_machine(text)
    return str(raised.value)


@pytest.fixture(scope="module")
def shipped_machine(products):
    return run_pair(products, "seco_a", "retail_retail")[2]


@pytest.mark.parametrize("prefix,record,message", BAD_RECORDS.values(), ids=BAD_RECORDS.keys())
def test_malformed_record_raises_parse_error_with_line_number(
        shipped_machine, prefix, record, message):
    text, line_no = with_bad_record(shipped_machine, prefix, record)
    assert parse_error(text) == f"line {line_no}: {message}"


def test_blank_and_whitespace_only_lines_are_skipped(shipped_machine):
    lines = shipped_machine.splitlines()
    spaced = "\n".join([lines[0], "", " \t ", *lines[1:5], "   ", *lines[5:]]) + "\n"
    assert parse_machine(spaced) == parse_machine(shipped_machine)


def test_balance_before_the_first_step_is_rejected():
    text = "run|product=A|scenario=x\nbalance|0|X|5|\nend|completed\n"
    assert parse_error(text) == "line 2: balance for step 0 precedes the first step"


@pytest.mark.parametrize("record", ["end|aborted|settle|boom", "end|completed",
                                    "step|10|late|", "balance|9|RC1|5|", "audit|BR1-O9|risk|ok|"])
def test_record_after_the_end_record_is_rejected(shipped_machine, record):
    line_no = len(shipped_machine.splitlines()) + 2
    tag = record.split("|")[0]
    assert (parse_error(shipped_machine + "\n" + record + "\n")
            == f"line {line_no}: {tag} record after the end record")


def test_blank_lines_may_follow_the_end_record(shipped_machine):
    assert parse_machine(shipped_machine + "\n  \n\n") == parse_machine(shipped_machine)


@pytest.mark.parametrize("kept", [1, 20, -1])
def test_report_without_its_end_record_is_rejected(shipped_machine, kept):
    cut = "\n".join(shipped_machine.splitlines()[:kept]) + "\n"
    assert parse_error(cut) == "truncated machine report: missing end record"


def test_missing_run_header_is_reported_before_a_missing_end_record():
    assert parse_error("step|1|order_1_RC1|\n") == "not a machine report: missing run header"


@pytest.fixture(scope="module")
def institutional_machine(products):
    return run_pair(products, "seco_a", "institutional_institutional")[2]


# the fields, tag included, of each record kind's shortest layout
SHORTEST = {"journal": 8, "trade": 7, "audit": 5, "affirmation": 4, "instruction": 5}


@pytest.mark.parametrize("tag,kept", [(tag, kept) for tag, least in SHORTEST.items()
                                      for kept in (2, least - 1)])
def test_record_cut_short_raises_parse_error(institutional_machine, tag, kept):
    shipped = next(line for line in institutional_machine.splitlines()
                   if line.startswith(f"{tag}|"))
    cut = "|".join(shipped.split("|")[:kept])
    text, line_no = with_bad_record(institutional_machine, f"{tag}|", cut)
    with pytest.raises(ReportParseError,
                       match=rf"^line {line_no}: truncated {tag} record {re.escape(repr(cut))}$"):
        parse_machine(text)


def test_report_exits_one_on_a_truncated_record(tmp_path, capsys):
    saved = tmp_path / "cut.out"
    saved.write_text("run|product=A|scenario=x\njournal|\ntrade|\nend|completed\n")
    assert main(["report", str(saved)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: truncated journal record 'journal|'\n"


def test_report_exits_one_on_a_run_cut_before_its_end_record(
        shipped_machine, tmp_path, capsys):
    saved = tmp_path / "cut.out"
    saved.write_text("".join(shipped_machine.splitlines(keepends=True)[:20]))
    assert main(["report", str(saved)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: truncated machine report: missing end record\n"


def test_report_counts_a_failed_check_with_an_empty_detail(tmp_path, capsys):
    saved = tmp_path / "failed.out"
    saved.write_text("run|product=P|scenario=s\ncheck|x|FAIL|\nend|completed\n")
    assert main(["report", str(saved)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ("product:  P\nscenario: s\n\nsteps:\n\n"
                            "trades: 0, journal entries: 0\n\nchecks:\n  x: FAIL\n\n"
                            "result: FAIL (1 checks failed)\n")
    assert captured.err == ""


def test_report_exits_one_without_traceback_on_malformed_record(shipped_machine, tmp_path):
    text, line_no = with_bad_record(shipped_machine, *BAD_RECORDS["truncated_balance"][:2])
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
