"""What one participant hands on passes the checks the next no longer repeats.

The broker does not re-check the allocation details the custodian has
accepted, and the clearing corporation does not check a submission's id,
quantity, price, currency or accounts: an earlier participant guarantees
each of them (see the `broker.py` and `clearing.py` docstrings). These
tests keep the deleted checks as an oracle. Every list that reaches
`BrokerService.handle_allocation_details`, and every submission that
reaches `ClearingCorporation.submit_trade`, must pass them: in each pinned
machine run, and in runs of mutated shipped scenarios under both products.
"""

import pytest
from hypothesis import given, settings, strategies as st

from mutations import mutate
from stpsim.broker import BrokerService
from stpsim.cli import main
from stpsim.clearing import ClearingCorporation
from stpsim.data import scenario_path
from stpsim.exchange import TradeReport
from stpsim.lifecycle import run_scenario
from stpsim.scenarios import SCENARIO_IDS, ScenarioFormatError, parse_scenario
from stpsim.trading import INSTITUTIONAL, allocation_detail_rule
from test_pinned_outputs import PINS, argv_of  # noqa: F401 (the fixture)

MACHINE_RUNS = [row for row, (argv, *_) in PINS.items() if "machine" in argv]
SHIPPED = {scenario_id: scenario_path(scenario_id).read_text().splitlines()
           for scenario_id in SCENARIO_IDS}


def deleted_allocation_rule(broker, details):
    """The first rule the broker's former allocation checks would report, or None."""
    if not details:
        return "NoDetails"
    block_id = details[0].block_order_id
    order = broker.orders.get(block_id)
    if order is None or order.client_kind is not INSTITUTIONAL:
        return "UnknownBlockOrder"
    rule = allocation_detail_rule(details, order.client, block_id, order.symbol, True)
    if rule:
        return rule
    if order.filled_quantity == 0:
        return "BlockNotFilled"
    fills = broker.fills.get(block_id, [])
    if {detail.price for detail in details} - {trade.price for trade in fills}:
        return "PriceMismatch"
    if sum(detail.quantity for detail in details) == order.filled_quantity and \
            sum(detail.price.amount * detail.quantity for detail in details) != \
            sum(trade.price.amount * trade.quantity for trade in fills):
        return "PriceMismatch"
    return None


def deleted_intake_rule(clearing, record, seen):
    """The first rule clearing's former intake checks would report, or None;
    `seen` holds the ids this clearing corporation has accepted."""
    if type(record) is TradeReport:
        trade, accounts = record.trade, (record.buy_account, record.sell_account)
    else:
        trade, accounts = record, (record.account,)
    if trade.trade_id in seen:
        return "DuplicateTrade"
    if trade.quantity <= 0:
        return "NonPositiveQuantity"
    if trade.price.amount <= 0:
        return "NonPositivePrice"
    if trade.price.currency != clearing.ledger.currency:
        return "CurrencyMismatch"
    if any(account not in clearing.ledger.accounts for account in accounts):
        return "UnknownAccount"
    return None


class Handoffs:
    """Wraps both intakes and records each input a deleted check would refuse."""

    def __init__(self, monkeypatch):
        self.refused = []          # (intake, the rule, what it was handed)
        self.allocations = self.submissions = 0
        self._seen = {}            # clearing corporation -> the ids it accepted
        handle, submit = BrokerService.handle_allocation_details, ClearingCorporation.submit_trade

        def checked_handle(broker, details):
            self.allocations += 1
            rule = deleted_allocation_rule(broker, details)
            if rule:
                self.refused.append(("broker", rule, details))
            return handle(broker, details)

        def checked_submit(clearing, record):
            self.submissions += 1
            seen = self._seen.setdefault(clearing, set())
            rule = deleted_intake_rule(clearing, record, seen)
            if rule:
                self.refused.append(("clearing", rule, record))
            result = submit(clearing, record)
            if result is None:
                seen.add(record.trade.trade_id if type(record) is TradeReport else record.trade_id)
            return result

        monkeypatch.setattr(BrokerService, "handle_allocation_details", checked_handle)
        monkeypatch.setattr(ClearingCorporation, "submit_trade", checked_submit)


@pytest.mark.parametrize("row", MACHINE_RUNS)
def test_no_pinned_run_hands_on_what_a_deleted_check_refused(argv_of, capsys, monkeypatch, row):
    handoffs = Handoffs(monkeypatch)
    code = main(argv_of(row))
    capsys.readouterr()
    assert code == PINS[row][1]
    assert handoffs.refused == []
    if code == 0:       # a completed run has traded, so clearing has seen its trades
        assert handoffs.submissions > 0


def test_the_pinned_runs_reach_both_intakes(argv_of, capsys, monkeypatch):
    handoffs = Handoffs(monkeypatch)
    for row in MACHINE_RUNS:
        main(argv_of(row))
    capsys.readouterr()
    assert handoffs.allocations > 0 and handoffs.submissions > 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scenario_id=st.sampled_from(SCENARIO_IDS), data=st.data())
def test_no_mutated_scenario_hands_on_what_a_deleted_check_refused(
        product_a, product_b, scenario_id, data):
    try:
        scenario = parse_scenario(mutate(SHIPPED[scenario_id], data))
    except ScenarioFormatError:
        return
    with pytest.MonkeyPatch.context() as monkeypatch:
        handoffs = Handoffs(monkeypatch)
        for product in (product_a, product_b):
            run_scenario(product, scenario)
    assert handoffs.refused == []
