import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_scenario, over_the_trade_value_cap
from faults import FAULT_KINDS, LeakyLedger, inject, run_leaking
from matchdriver import comparator_for
from stpsim.data import config_path, scenario_path
from stpsim.features import derive_product, parse_configuration
from stpsim.ledger import (
    AccountSnapshot, LedgerError, Money, total_money, total_positions)
from stpsim.lifecycle import (
    CheckResult, ScenarioReport, StepRecord, assert_conservation, run_scenario)
from stpsim.report import render_machine
from stpsim.scenarios import SCENARIO_IDS, parse_scenario

ALL_SCENARIOS = list(SCENARIO_IDS)


@pytest.fixture(scope="module")
def products(product_a, product_b):
    return {"SECO_A": product_a, "SECO_B": product_b}


def run_pair(product, scenario_id):
    report = run_scenario(product, load_scenario(scenario_id))
    checks = assert_conservation(report)
    return report, checks


def journal_lines(report, checks):
    """The run's ``journal|`` lines as its machine report writes them, untagged."""
    return [line.removeprefix("journal|") for line in render_machine(report, checks).splitlines()
            if line.startswith("journal|")]


@pytest.mark.parametrize("product_key", ["SECO_A", "SECO_B"])
@pytest.mark.parametrize("scenario_id", ALL_SCENARIOS)
def test_scenarios_complete_with_expected_finals(products, product_key, scenario_id):
    report, checks = run_pair(products[product_key], scenario_id)
    assert report.aborted is None
    failed = [c for c in report.finals + checks if not c.passed]
    assert not failed, [c.line() for c in failed]


@pytest.mark.parametrize("scenario_id", ALL_SCENARIOS)
def test_snapshot_after_every_step(products, scenario_id):
    report, _ = run_pair(products["SECO_A"], scenario_id)
    names = [step.name for step in report.steps]
    assert names[0] == "setup"
    assert names[-1] == "broker_settle"
    assert len(names) == len(set(names))
    for step in report.steps:
        assert step.snapshot


def test_repeated_runs_are_byte_identical(products):
    for scenario_id in ALL_SCENARIOS:
        outputs = []
        for _ in range(2):
            report, checks = run_pair(products["SECO_B"], scenario_id)
            outputs.append(render_machine(report, checks))
        assert outputs[0] == outputs[1]


def test_products_differ_in_journal_but_agree_on_finals(products):
    finals = {}
    journals = {}
    for key, product in products.items():
        report, checks = run_pair(product, "retail_retail")
        assert report.all_checks_passed and all(c.passed for c in checks)
        finals[key] = report.steps[-1].snapshot
        journals[key] = tuple(report.journal_lines)
    assert finals["SECO_A"] == finals["SECO_B"]
    # netting routes through the CCP account, so the journals must differ
    assert journals["SECO_A"] != journals["SECO_B"]


def test_underfunded_client_aborts_at_order_step(products):
    scenario = load_scenario("retail_retail")
    starved = tuple(
        e._replace(money=50_000) if e.account == "RC1" else e
        for e in scenario.endowments)
    scenario = dataclasses.replace(scenario, endowments=starved)
    report = run_scenario(products["SECO_A"], scenario)
    assert report.aborted is not None
    step, cause = report.aborted
    assert step == "order_2_RC1"
    assert "InsufficientFunds" in cause
    # the failed prepayment left no trace on the ledger
    checks = assert_conservation(report)
    assert all(c.passed for c in checks if c.name.startswith("conserve"))


@pytest.mark.parametrize("product_key", ["SECO_A", "SECO_B"])
@pytest.mark.parametrize("old, new, step", [
    ("order: RC2 sell 100 ACME limit 1040", "order: RC2 sell 100 ACME limit 0", "order_1_RC2"),
    ("order: RC1 buy 100 ACME limit 1040", "order: RC1 buy 100 ACME market cap=0", "order_2_RC1"),
])
def test_zero_price_or_cap_is_read_as_zero_not_absent(products, product_key, old, new, step):
    text = scenario_path("retail_retail").read_text()
    report = run_scenario(products[product_key], parse_scenario(text.replace(old, new)))
    assert report.aborted == (step, "rejected at validation: NonPositivePrice")


@pytest.mark.parametrize("product_key", ["SECO_A", "SECO_B"])
@pytest.mark.parametrize("refs, aborted", [
    (("A", "B"), None),
    (("A", "A"), ("order_3_RC1", "rejected at risk: DuplicateOrder")),
], ids=["two_refs", "one_ref_twice"])
def test_a_clients_second_order_under_one_ref_is_a_duplicate(products, product_key, refs,
                                                             aborted):
    text = scenario_path("retail_retail").read_text().replace(
        "order: RC1 buy 100 ACME limit 1040",
        "order: RC1 buy 50 ACME limit 1040 ref={}\n"
        "order: RC1 buy 50 ACME limit 1040 ref={}".format(*refs))
    scenario = parse_scenario(text)
    assert [order.ref for order in scenario.orders] == [None, *refs]
    report = run_scenario(products[product_key], scenario)
    assert report.aborted == aborted
    checks = assert_conservation(report)
    assert all(check.passed for check in checks if check.name.startswith("conserve"))
    if aborted is None:
        assert report.all_checks_passed and all(check.passed for check in checks)


def test_aborted_run_is_ledger_neutral_per_snapshot(products):
    # the omnibus account is 4000 short of the block's price, so the run
    # aborts at settle, after the allocation and affirmation steps
    text = scenario_path("retail_institutional").read_text().replace(
        "endow: CU1.omnibus money=104000", "endow: CU1.omnibus money=100000")
    report = run_scenario(products["SECO_A"], parse_scenario(text))
    assert report.aborted is not None and report.aborted[0] == "settle"
    checks = assert_conservation(report)
    conservation = [c for c in checks if c.name.startswith("conserve")]
    assert conservation and all(c.passed for c in conservation)


def test_journal_replay_reproduces_every_step_snapshot(products):
    for scenario_id in ALL_SCENARIOS:
        report, checks = run_pair(products["SECO_A"], scenario_id)
        initial = report.steps[0].snapshot
        money = {owner: snap.money.amount for owner, snap in initial.items()}
        positions = {owner: dict(snap.positions) for owner, snap in initial.items()}

        entries = []
        for line in journal_lines(report, checks):
            seq, kind, src, dst, amount, symbol, cause = line.split("|", 6)
            entries.append((kind, src, dst, int(amount), symbol))

        # replay forward; at each step boundary compare against the snapshot
        cursor = 0
        for step in report.steps[1:]:
            target = step.snapshot
            while cursor < len(entries):
                state = {
                    owner: (money[owner], {s: q for s, q in positions[owner].items() if q})
                    for owner in money}
                want = {owner: (snap.money.amount, dict(snap.positions))
                        for owner, snap in target.items()}
                if state == want:
                    break
                kind, src, dst, amount, symbol = entries[cursor]
                cursor += 1
                if kind == "money":
                    money[src] -= amount
                    money[dst] += amount
                else:
                    positions[src][symbol] = positions[src].get(symbol, 0) - amount
                    positions[dst][symbol] = positions[dst].get(symbol, 0) + amount
            state = {
                owner: (money[owner], {s: q for s, q in positions[owner].items() if q})
                for owner in money}
            want = {owner: (snap.money.amount, dict(snap.positions))
                    for owner, snap in target.items()}
            assert state == want, f"{scenario_id}: replay diverged at {step.name}"
        assert cursor == len(entries)


@pytest.mark.parametrize("kind", ["money", "equity"])
def test_off_journal_mutation_is_detected(products, kind):
    # a ledger fault after the third step: one transfer credits a unit more
    # than it debits, a movement its journal entry does not show
    report, ledger = run_leaking(
        products["SECO_A"], load_scenario("retail_retail"), kind=kind, after=3)
    [at] = ledger.leaked
    victim = report.steps[at]
    checks = assert_conservation(report)
    failing = [c for c in checks if not c.passed]
    assert failing
    assert any(victim.name in c.name for c in failing)


@pytest.mark.parametrize("kind", ["money", "equity"])
def test_a_leak_in_the_custodians_posting_fails_the_run(products, kind):
    # institutional_institutional distributes both ways: INST1's bought
    # shares and INST2's sale proceeds, each block in one posting
    scenario = load_scenario("institutional_institutional")
    names = [step.name for step in run_pair(products["SECO_A"], scenario.scenario_id)[0].steps]
    report, ledger = run_leaking(products["SECO_A"], scenario, kind=kind,
                                 after=names.index("custodian_settle"))
    assert [report.steps[at].name for at in ledger.leaked] == ["custodian_settle"]
    failing = [check.name for check in assert_conservation(report) if not check.passed]
    assert f"conserve_{kind}[settle->custodian_settle]" in failing


@pytest.mark.parametrize("product_key", ["SECO_A", "SECO_B"])
def test_an_unallocated_block_names_the_trade_it_holds_back(products, product_key):
    shipped = scenario_path("retail_institutional").read_text()
    allocation = "allocate: INST1 order=2 EC1=60 EC2=40\n"
    assert shipped.count(allocation) == 1
    report = run_scenario(products[product_key],
                          parse_scenario(shipped.replace(allocation, "")))
    checks = {check.name: check for check in report.finals}
    assert checks["clearing_queue_empty"] == (
        "clearing_queue_empty", False, "X1-T1 waits for BR1-O1: 0 of 100 shares covered")
    assert checks["all_trades_settled"].detail == "X1-T1 is executed"


def test_responsibility_exclusivity_by_journal_inspection(products):
    """For each scenario, every client crediting comes from exactly one of
    broker settlement or custodian distribution, never both."""
    for scenario_id in ("retail_institutional", "institutional_institutional"):
        report, checks = run_pair(products["SECO_A"], scenario_id)
        scenario = report.scenario
        end_clients = {
            end for inst in scenario.institutions for end in inst.end_clients}
        retail = {r.account for r in scenario.retail_clients}
        journal = journal_lines(report, checks)
        for line in journal:
            _, kind, src, dst, amount, symbol, cause = line.split("|", 6)
            if dst in end_clients:
                assert cause.startswith("distribute:"), line
            if dst in retail and cause.startswith(("settle:", "refund:")):
                assert src.endswith(".house"), line
        # retail credits never target end clients and vice versa
        credited_by_broker = {
            line.split("|")[3] for line in journal
            if line.split("|", 6)[6].startswith("settle:")}
        assert credited_by_broker.isdisjoint(end_clients)


def test_trade_attribution_differs_between_products_on_size_fixture(products):
    """The 50-then-200 resting book: time priority splits the fill, size
    priority sends it all to the larger order."""
    results = {}
    for key in ("SECO_A", "SECO_B"):
        comparator = comparator_for(
            "time" if key == "SECO_A" else "size",
            "fifo" if key == "SECO_A" else "lifo")
        from stpsim.exchange import OrderBook
        from matchdriver import build_order
        book = OrderBook("SYM", comparator)
        collect = lambda b, s, p, q: (p.amount, q, b.order_id, s.order_id)
        book.submit(build_order(1, "sell", "limit", 1040, 50), collect)
        book.submit(build_order(2, "sell", "limit", 1040, 200), collect)
        results[key] = book.submit(build_order(3, "buy", "market", None, 100), collect)
    assert results["SECO_A"] == [(1040, 50, "O3", "O1"), (1040, 50, "O3", "O2")]
    assert results["SECO_B"] == [(1040, 100, "O3", "O2")]
    assert results["SECO_A"] != results["SECO_B"]


def test_scenario_participants_match_expected_roster():
    from stpsim.registry import ParticipantRole as R
    rosters = {
        # custodians appear only in the institutional life cycles
        "retail_retail": (),
        "retail_institutional": ("CU1",),
        "institutional_institutional": ("CU1", "CU2"),
    }
    for scenario_id, custodians in rosters.items():
        scenario = load_scenario(scenario_id)
        assert scenario.participant_ids(R.BROKER) == ("BR1", "BR2"), scenario_id
        assert scenario.participant_ids(R.CUSTODIAN) == custodians, scenario_id
        assert scenario.participant_ids(R.EXCHANGE) == ("X1",), scenario_id
        assert scenario.participant_ids(R.CLEARING_CORPORATION) == ("CC1",), scenario_id
        assert scenario.participant_ids(R.CLEARING_BANK) == ("CB1",), scenario_id
        assert scenario.participant_ids(R.DEPOSITORY) == ("DP1",), scenario_id


def test_machine_report_carries_participant_export_sections(products):
    report, checks = run_pair(products["SECO_A"], "retail_institutional")
    machine = render_machine(report, checks)
    assert "\ntrade|X1-T1|ACME|1040|100|" in machine
    assert ("\naudit|BR1-O1|routing|ok||validation,risk,governmental_compliance,"
            "client_compliance,venue_selection\n") in machine
    assert "\naffirmation|affirmed|" in machine
    assert "\ninstruction|CC1-S1|" in machine
    assert "\njournal|1|" in machine


INTERNALIZED = """\
# Both retail clients sit at one broker, so every settlement account nets flat.
scenario: internalized
currency: USD
symbol: ACME
broker: BR1
exchange: X1
clearing_corporation: CC1
clearing_bank: CB1
depository: DP1
retail: RC1 broker=BR1
retail: RC2 broker=BR1
endow: RC1 money=10000
endow: RC2 ACME=10
order: RC2 sell 10 ACME limit 1000
order: RC1 buy 10 ACME limit 1000
expect: RC1 ACME=10
expect: RC2 money=10000
expect: BR1.house money=0
expect: CC1.ccp money=0
"""


@pytest.mark.parametrize("product_key", ["SECO_A", "SECO_B"])
def test_internalized_trade_settles_under_both_clearing_rules(products, product_key):
    report = run_scenario(products[product_key], parse_scenario(INTERNALIZED))
    checks = assert_conservation(report)
    assert report.aborted is None
    failed = [c for c in report.finals + checks if not c.passed]
    assert not failed, [c.line() for c in failed]
    final = report.steps[-1].snapshot
    assert final["RC1"] == AccountSnapshot(Money(0), {"ACME": 10})
    assert final["RC2"] == AccountSnapshot(Money(10000), {})
    assert final["BR1.house"] == AccountSnapshot(Money(0), {})


CAPPED_MARKET_BUY = """\
scenario: capped_market_buy
currency: USD
symbol: ACME
broker: BR1
broker: BR2
exchange: X1
clearing_corporation: CC1
clearing_bank: CB1
depository: DP1
retail: RC1 broker=BR1
retail: RC2 broker=BR2
endow: RC1 money=20000
endow: RC2 ACME=10
order: RC2 sell 5 ACME limit 1000
order: RC2 sell 5 ACME limit 1200
order: RC1 buy 10 ACME market cap=1000
expect: RC1 money=15000 ACME=5
expect: RC2 money=5000
expect: BR2.house ACME=5
expect: CC1.ccp money=0
"""


@pytest.mark.parametrize("product_key", ["SECO_A", "SECO_B"])
def test_market_buy_cap_is_its_protection_price(products, product_key):
    # the cap stops the sweep at 1000: 5 fill, 5 cancel, and 5000 of the
    # 10000 prepaid at the cap comes back. A cap the exchange did not see let
    # the buy sweep the 1200 level, and the run aborted at settle with
    # BR1.house short 1000USD.
    report = run_scenario(products[product_key], parse_scenario(CAPPED_MARKET_BUY))
    checks = assert_conservation(report)
    assert report.aborted is None
    failed = [c for c in report.finals + checks if not c.passed]
    assert not failed, [c.line() for c in failed]
    final = report.steps[-1].snapshot
    assert final["RC1"] == AccountSnapshot(Money(15000), {"ACME": 5})
    assert final["BR1.house"] == AccountSnapshot(Money(0), {})


CAPPED_MARKET_SELL = """\
scenario: capped_market_sell
currency: USD
symbol: ACME
broker: BR1
broker: BR2
exchange: X1
clearing_corporation: CC1
clearing_bank: CB1
depository: DP1
retail: RC1 broker=BR1
retail: RC2 broker=BR2
endow: RC1 money=90000
endow: RC2 ACME=100
order: RC1 buy 100 ACME limit 900
order: RC2 sell 100 ACME market cap=5000
expect: RC1 ACME=100
expect: RC2 money=90000
"""


@pytest.mark.parametrize("product_key", ["SECO_A", "SECO_B"])
def test_market_sell_with_a_cap_is_rejected_at_validation(products, product_key):
    # a cap bounds what a buyer pays; on a sell it bounded nothing, and the
    # sell filled at the 900 bid under a cap of 5000
    report = run_scenario(products[product_key], parse_scenario(CAPPED_MARKET_SELL))
    assert report.aborted == ("order_2_RC2", "rejected at validation: CapOnSell")


def test_clearing_refusal_of_a_street_trade_aborts_at_report_trades(products):
    report = run_scenario(products["SECO_B"], parse_scenario(over_the_trade_value_cap()))
    assert report.aborted == (
        "report_trades",
        "clearing rejected exchange trade X1-T1: "
        "rejected at trade_validation: TradeValueTooLarge (10000000000000USD)")
    assert report.steps[-1].name == "aborted_report_trades"
    checks = assert_conservation(report)
    assert all(c.passed for c in checks if c.name.startswith("conserve"))


@pytest.mark.parametrize("product_key", ["SECO_A", "SECO_B"])
@pytest.mark.parametrize("scenario_id, old, new", [
    ("retail_institutional", "CU1", "X1"),
    ("retail_institutional", "X1", "CU1"),
    ("institutional_institutional", "CU1", "X1"),
    ("institutional_institutional", "X1", "CU1"),
    ("institutional_institutional", "CU2", "X1"),
    ("institutional_institutional", "X1", "CU2"),
])
def test_a_custodian_and_an_exchange_may_share_an_id(products, product_key, scenario_id, old, new):
    # the custodian's client records once took ids <custodian>-T<n>, the
    # exchange's trade ids, and the clearing refused them as DuplicateTrade
    text = re.sub(rf"\b{old}\b", new, scenario_path(scenario_id).read_text())
    report = run_scenario(products[product_key], parse_scenario(text))
    checks = assert_conservation(report)
    assert report.aborted is None
    failed = [c for c in report.finals + checks if not c.passed]
    assert not failed, [c.line() for c in failed]


@pytest.mark.parametrize("product_key", ["SECO_A", "SECO_B"])
def test_unlisted_accounts_left_holding_fail_once_each_after_the_listed_ones(
        products, product_key):
    text = scenario_path("institutional_institutional").read_text()
    for line in ("expect: EC2 ACME=40\n", "expect: EC1 ACME=60\n"):
        assert line in text
        text = text.replace(line, "")
    report = run_scenario(products[product_key], parse_scenario(text))
    assert report.aborted is None
    finals = [check for check in assert_conservation(report) if check.name.startswith("final[")]
    listed = ["EC3", "EC4", "CU1.omnibus", "CU2.omnibus", "BR1.house", "BR2.house", "CC1.ccp"]
    assert finals[:len(listed)] == [CheckResult(f"final[{account}]", True) for account in listed]
    assert finals[len(listed):] == [
        CheckResult("final[EC1]", False,
                    "unlisted account not flat: money=0 positions={'ACME': 60}"),
        CheckResult("final[EC2]", False,
                    "unlisted account not flat: money=0 positions={'ACME': 40}"),
    ]
    names = [check.name for check in finals]
    assert len(names) == len(set(names))


def test_every_scenario_conserves_totals_throughout(products):
    for key, product in products.items():
        for scenario_id in ALL_SCENARIOS:
            report, _ = run_pair(product, scenario_id)
            totals_money = {total_money(s.snapshot) for s in report.steps}
            assert len(totals_money) == 1
            per_symbol = {tuple(sorted(total_positions(s.snapshot).items()))
                          for s in report.steps}
            assert len(per_symbol) == 1


# -- full-totals oracle for the incremental conservation check ---------------

def full_totals_conservation(report):
    """The pairwise conservation checks computed from the full totals of
    both snapshots of every consecutive pair, sharing nothing."""
    checks = []
    for previous, current in zip(report.steps, report.steps[1:]):
        pair = f"{previous.name}->{current.name}"
        money_before, money_after = total_money(previous.snapshot), total_money(current.snapshot)
        checks.append(CheckResult(
            f"conserve_money[{pair}]", money_before == money_after,
            "" if money_before == money_after else f"{money_before} -> {money_after}"))
        before, after = total_positions(previous.snapshot), total_positions(current.snapshot)
        checks.append(CheckResult(
            f"conserve_equity[{pair}]", before == after,
            "" if before == after else f"{before} -> {after}"))
    return checks


def assert_matches_oracle(report):
    oracle = full_totals_conservation(report)
    assert assert_conservation(report)[:len(oracle)] == oracle
    return oracle


@pytest.mark.parametrize("product_key", ["SECO_A", "SECO_B"])
@pytest.mark.parametrize("scenario_id", ALL_SCENARIOS)
def test_incremental_check_matches_full_totals_oracle(products, product_key, scenario_id):
    report, _ = run_pair(products[product_key], scenario_id)
    assert all(check.passed for check in assert_matches_oracle(report))

    leaky, ledger = run_leaking(
        products[product_key], load_scenario(scenario_id), kind="money", after=3)
    [at] = ledger.leaked
    failing = [check for check in assert_matches_oracle(leaky) if not check.passed]
    assert failing and all(leaky.steps[at].name in check.name for check in failing)


OWNERS = ("a0", "a1", "a2", "a3", "a4")


@settings(max_examples=150, deadline=None)
@given(moves=st.lists(st.tuples(st.sampled_from(OWNERS), st.sampled_from(OWNERS),
                                st.booleans(), st.integers(1, 40)), max_size=25),
       data=st.data())
def test_incremental_check_matches_oracle_under_tampering(moves, data):
    # ledger faults drawn between the moves: (the step that records the
    # fault, its kind, the units it is off by)
    faults = data.draw(st.lists(st.tuples(
        st.integers(0, len(moves)), st.sampled_from(FAULT_KINDS),
        st.integers(-30, 30).filter(bool)), max_size=4))
    ledger = LeakyLedger()
    for owner in OWNERS:
        ledger.open_account(owner, Money(100), {"SYM": 20})
    steps = []
    for index, move in enumerate([None, *moves]):
        if move is not None:
            src, dst, is_money, amount = move
            try:
                if is_money:
                    ledger.transfer_money(src, dst, Money(amount))
                else:
                    ledger.transfer_equity(src, dst, "SYM", amount)
            except LedgerError:
                pass
        for at, kind, amount in faults:
            if at == index:
                inject(ledger, kind, amount, lambda options: data.draw(st.sampled_from(options)))
        steps.append(StepRecord("setup" if move is None else f"move_{index}", ledger.snapshot()))

    report = ScenarioReport("P", "hypothesis", steps=steps)
    assert assert_conservation(report) == full_totals_conservation(report)


# Two exchanges and two custodians under least-loaded venue choice: the
# first sell rests on X1, the second on X2, RC1's buy fills on X1 and,
# once RC3's two unfilled sells make X1 the deeper book, INST1's block
# fills on X2, so every per-participant step reports on both of its ids.
TWO_VENUES = """\
scenario: two_venues
currency: USD
symbol: ACME

broker: BR1
broker: BR2
custodian: CU1
custodian: CU2
exchange: X1
exchange: X2
clearing_corporation: CC1
clearing_bank: CB1
depository: DP1

retail: RC1 broker=BR1
retail: RC2 broker=BR2
retail: RC3 broker=BR2
institution: INST1 broker=BR1 custodian=CU1 ends=EC1,EC2
institution: INST2 broker=BR2 custodian=CU2 ends=EC3,EC4

endow: RC1 money=150000
endow: RC2 ACME=100
endow: RC3 ACME=30
endow: CU1.omnibus money=104000
endow: CU2.omnibus ACME=100

order: RC2 sell 100 ACME limit 1040
order: INST2 sell 100 ACME limit 1040
order: RC1 buy 100 ACME limit 1040 cap=1040
order: RC3 sell 10 ACME limit 2000
order: RC3 sell 20 ACME limit 2100
order: INST1 buy 100 ACME limit 1040
allocate: INST2 order=2 EC3=70 EC4=30
allocate: INST1 order=6 EC1=60 EC2=40

expect: RC1 money=46000 ACME=100
expect: RC2 money=104000
expect: BR2.house ACME=30
expect: EC1 ACME=60
expect: EC2 ACME=40
expect: EC3 money=72800
expect: EC4 money=31200
expect: CU1.omnibus money=0
expect: CU2.omnibus money=0
expect: BR1.house money=0
expect: CC1.ccp money=0
"""


@pytest.mark.parametrize("config_name, venue, instructions", [
    ("seco_a", "BestQuoteVenueChoice", 2),  # trade-for-trade: one per trade
    ("seco_b", "FirstVenueChoice", 4),  # netting: one per obligation
])
def test_step_records_of_a_run_with_two_exchanges_and_two_custodians(
        catalog, config_name, venue, instructions):
    text = config_path(config_name).read_text()
    assert f"\n{venue}\n" in text
    config = parse_configuration(text.replace(f"\n{venue}\n", "\nLeastLoadedVenueChoice\n"))
    product = derive_product(catalog, config, config_name.upper())
    report = run_scenario(product, parse_scenario(TWO_VENUES))
    checks = assert_conservation(report)
    assert report.aborted is None
    failed = [c for c in report.finals + checks if not c.passed]
    assert not failed, [c.line() for c in failed]
    assert [(step.name, step.events) for step in report.steps] == [
        ("setup", ()),
        ("order_1_RC2", ("order_id=BR2-O1",)),
        ("order_2_INST2", ("order_id=BR2-O2",)),
        ("order_3_RC1", ("order_id=BR1-O1",)),
        ("order_4_RC3", ("order_id=BR2-O3",)),
        ("order_5_RC3", ("order_id=BR2-O4",)),
        ("order_6_INST1", ("order_id=BR1-O2",)),
        ("report_trades", ("X1:reported=1", "X2:reported=1")),
        ("allocation_INST2", ("contracts=2",)),
        ("affirmation_INST2", ("CU2-F1",)),
        ("allocation_INST1", ("contracts=2",)),
        ("affirmation_INST1", ("CU1-F1",)),
        ("client_trades_to_clearing", ("CU1:client_trades=2", "CU2:client_trades=2")),
        ("clear", ("obligations=4",)),
        ("settle", (f"instructions={instructions}",)),
        ("custodian_settle", ("CU1:distributions=2", "CU2:distributions=2")),
        ("broker_settle", ("BR1:credits=1", "BR2:credits=1")),
    ]
