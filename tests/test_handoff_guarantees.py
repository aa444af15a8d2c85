"""What one participant hands on passes the checks the next no longer repeats.

The broker does not ask whether an order's client is its own or whether
its price is in the ledger's currency; the exchange does not re-judge an
order's symbol or shape; the custodian does not check a detail's
institution, block, symbol, end client, price or alloc id; the broker does
not re-check the allocation details the custodian has accepted; and the
clearing corporation does not check a street trade's id, quantity, price,
currency or accounts, nor a client-level trade's (a forwarded allocation
detail's) alloc id, quantity, price, currency or omnibus account. The
runner, the parser, assembly or an earlier participant guarantees each of
them (see the `broker.py`, `exchange.py`, `custodian.py` and `clearing.py`
docstrings). These tests keep the deleted checks as an oracle. Every draft
that reaches `BrokerService.place_retail_order` or
`place_institutional_order`, every order that reaches
`ExchangeService.validate_incoming_order`, every detail list that reaches
`CustodianService.receive_allocation_details` or
`BrokerService.handle_allocation_details`, every street trade that reaches
`ClearingCorporation.submit_trade` and every client-level trade that
reaches `ClearingCorporation.submit_client_trades` must pass them: in each
pinned machine run, and in runs of mutated shipped scenarios under both
products.
"""

import pytest
from hypothesis import given, settings, strategies as st

from mutations import mutate
from stpsim.broker import BrokerService
from stpsim.cli import main
from stpsim.clearing import ClearingCorporation
from stpsim.custodian import CustodianService
from stpsim.data import scenario_path
from stpsim.exchange import ExchangeService
from stpsim.lifecycle import ScenarioRunner, run_scenario
from stpsim.scenarios import SCENARIO_IDS, ScenarioFormatError, parse_scenario
from stpsim.trading import INSTITUTIONAL, OrderType, order_shape_rule
from test_pinned_outputs import PINS, argv_of  # noqa: F401 (the fixture)

MACHINE_RUNS = [row for row, (argv, *_) in PINS.items() if "machine" in argv]
SHIPPED = {scenario_id: scenario_path(scenario_id).read_text().splitlines()
           for scenario_id in SCENARIO_IDS}

# the order type each OrderMatchingAlgorithms variant matches
MATCHED = {"MarketMatching": OrderType.MARKET, "LimitMatching": OrderType.LIMIT,
           "ImmediateOrCancelMatching": OrderType.IMMEDIATE_OR_CANCEL,
           "FillOrKillMatching": OrderType.FILL_OR_KILL}


def naive_detail_rule(details, institution, block_order_id, symbol, extended):
    """The former allocation-detail rule, one scan per rule in its order:
    the standard pack the first four, the extended pack all seven."""
    if any(d.institution != institution for d in details):
        return "InstitutionMismatch"
    if any(d.block_order_id != block_order_id for d in details):
        return "MixedBlockOrders"
    if any(d.quantity <= 0 for d in details):
        return "NonPositiveQuantity"
    if any(d.symbol != symbol for d in details):
        return "SymbolMismatch"
    if extended:
        if any(not d.end_client_account for d in details):
            return "EmptyEndClientAccount"
        if any(d.price.amount <= 0 for d in details):
            return "NonPositivePrice"
        if len({d.alloc_id for d in details}) != len(details):
            return "DuplicateAllocId"
    return None


def _priced_in(currency, limit_price, price_cap):
    return all(price is None or price.currency == currency for price in (limit_price, price_cap))


def deleted_placement_rule(clients, ledger, draft):
    """The first rule the broker's former validation would report that it no
    longer makes, or None; `clients` are the ones the scenario gives it."""
    if draft.client not in clients or draft.client not in ledger.accounts:
        return "UnknownClient"
    if not _priced_in(ledger.currency, draft.limit_price, draft.price_cap):
        return "CurrencyMismatch"
    return None


def deleted_exchange_rule(exchange, supported, currency, order):
    """The first rule the exchange's former validation would report that it
    no longer makes, or None: the symbol, then the order-shape rules over
    the product's matching variants and the scenario's currency (the size
    cap is still the exchange's)."""
    if order.symbol not in exchange.books:
        return "UnknownSymbol"
    rule = order_shape_rule(order.order_type, order.quantity, order.limit_price, supported,
                            False, False, order.price_cap)
    if rule:
        return rule
    if not _priced_in(currency, order.limit_price, order.price_cap):
        return "CurrencyMismatch"
    return None


def deleted_custodian_rule(institutions, details):
    """The first rule the custodian's former intake would report that it no
    longer makes, or None; `institutions` are the ones the scenario gives
    it. It still refuses an empty list and a non-positive quantity, so
    those are left out."""
    if not details:
        return None
    first = details[0]
    if first.institution not in institutions:
        return "UnknownInstitution"
    positive = [d._replace(quantity=max(d.quantity, 1)) for d in details]
    return naive_detail_rule(positive, first.institution, first.block_order_id, first.symbol,
                             True)


def deleted_allocation_rule(broker, details):
    """The first rule the broker's former allocation checks would report, or None."""
    if not details:
        return "NoDetails"
    block_id = details[0].block_order_id
    order = broker.orders.get(block_id)
    if order is None or order.client_kind is not INSTITUTIONAL:
        return "UnknownBlockOrder"
    rule = naive_detail_rule(details, order.client, block_id, order.symbol, True)
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


def _deleted_trade_rule(clearing, trade_id, quantity, price, accounts, seen):
    """The first rule clearing's former intake checks would report for one
    trade, or None; `seen` holds the ids this clearing corporation has taken."""
    if trade_id in seen:
        return "DuplicateTrade"
    if quantity <= 0:
        return "NonPositiveQuantity"
    if price.amount <= 0:
        return "NonPositivePrice"
    if price.currency != clearing.ledger.currency:
        return "CurrencyMismatch"
    if any(account not in clearing.ledger.accounts for account in accounts):
        return "UnknownAccount"
    return None


def deleted_intake_rule(clearing, report, seen):
    """The first rule clearing's former intake checks would report for a
    street trade, or None."""
    trade = report.trade
    return _deleted_trade_rule(clearing, trade.trade_id, trade.quantity, trade.price,
                               (report.buy_account, report.sell_account), seen)


def deleted_client_trade_rule(clearing, omnibus, details, seen):
    """The first rule clearing's former intake checks would report for one
    of a block's client-level trades, or None; `omnibus` maps each
    institution to its custodian's omnibus account, and an alloc id must be
    new across every submission."""
    for detail in details:
        rule = _deleted_trade_rule(clearing, detail.alloc_id, detail.quantity, detail.price,
                                   (omnibus.get(detail.institution),), seen)
        if rule:
            return rule
        seen.add(detail.alloc_id)
    return None


class Handoffs:
    """Wraps every intake and records each input a deleted check would refuse.

    Each run's scenario and product are read where the runner is built:
    the clients each broker serves, the institutions each custodian holds,
    and each exchange's matching variants and currency."""

    def __init__(self, monkeypatch):
        self.refused = []          # (intake, the rule, what it was handed)
        self.handed = dict.fromkeys(
            ("placement", "exchange", "custodian", "allocation", "clearing", "client_trades"), 0)
        self._clients = {}         # broker -> (its retail clients, its institutions)
        self._institutions = {}    # custodian -> the scenario's institutions at it
        self._venue = {}           # exchange -> (its matched types, the scenario's currency)
        self._omnibus = {}         # clearing corporation -> institution -> omnibus account
        self._seen = {}            # clearing corporation -> the trade ids it accepted
        self._allocs = {}          # clearing corporation -> the alloc ids it took
        init = ScenarioRunner.__init__
        place = {name: getattr(BrokerService, name)
                 for name in ("place_retail_order", "place_institutional_order")}
        validate = ExchangeService.validate_incoming_order
        receive = CustodianService.receive_allocation_details
        handle, submit = BrokerService.handle_allocation_details, ClearingCorporation.submit_trade
        submit_client = ClearingCorporation.submit_client_trades

        def check(intake, rule, handed):
            self.handed[intake] += 1
            if rule:
                self.refused.append((intake, rule, handed))

        def recording_init(runner, eco, scenario):
            for broker_id, broker in eco.brokers.items():
                self._clients[broker] = (
                    {c.account for c in scenario.retail_clients if c.broker == broker_id},
                    {i.account for i in scenario.institutions if i.broker == broker_id})
            for custodian_id, custodian in eco.custodians.items():
                self._institutions[custodian] = {
                    i.account for i in scenario.institutions if i.custodian == custodian_id}
            supported = frozenset(
                MATCHED[variant] for variant in eco.product.bindings["OrderMatchingAlgorithms"])
            for exchange in eco.exchanges.values():
                self._venue[exchange] = (supported, scenario.currency)
            self._omnibus[eco.clearing] = {
                i.account: eco.custodians[i.custodian].omnibus_account
                for i in scenario.institutions}
            init(runner, eco, scenario)

        def checked_place(name, institutional):
            def placed(broker, draft):
                clients = self._clients[broker][institutional]
                check("placement", deleted_placement_rule(clients, broker.ledger, draft), draft)
                return place[name](broker, draft)
            return placed

        def checked_validate(exchange, order):
            check("exchange", deleted_exchange_rule(exchange, *self._venue[exchange], order),
                  order)
            return validate(exchange, order)

        def checked_receive(custodian, details):
            check("custodian", deleted_custodian_rule(self._institutions[custodian], details),
                  details)
            return receive(custodian, details)

        def checked_handle(broker, details):
            check("allocation", deleted_allocation_rule(broker, details), details)
            return handle(broker, details)

        def checked_submit(clearing, report):
            seen = self._seen.setdefault(clearing, set())
            check("clearing", deleted_intake_rule(clearing, report, seen), report)
            result = submit(clearing, report)
            if result is None:
                seen.add(report.trade.trade_id)
            return result

        def checked_submit_client(clearing, details):
            check("client_trades", deleted_client_trade_rule(
                clearing, self._omnibus[clearing], details,
                self._allocs.setdefault(clearing, set())), details)
            return submit_client(clearing, details)

        monkeypatch.setattr(ScenarioRunner, "__init__", recording_init)
        monkeypatch.setattr(BrokerService, "place_retail_order",
                            checked_place("place_retail_order", False))
        monkeypatch.setattr(BrokerService, "place_institutional_order",
                            checked_place("place_institutional_order", True))
        monkeypatch.setattr(ExchangeService, "validate_incoming_order", checked_validate)
        monkeypatch.setattr(CustodianService, "receive_allocation_details", checked_receive)
        monkeypatch.setattr(BrokerService, "handle_allocation_details", checked_handle)
        monkeypatch.setattr(ClearingCorporation, "submit_trade", checked_submit)
        monkeypatch.setattr(ClearingCorporation, "submit_client_trades", checked_submit_client)


@pytest.mark.parametrize("row", MACHINE_RUNS)
def test_no_pinned_run_hands_on_what_a_deleted_check_refused(argv_of, capsys, monkeypatch, row):
    handoffs = Handoffs(monkeypatch)
    code = main(argv_of(row))
    capsys.readouterr()
    assert code == PINS[row][1]
    assert handoffs.refused == []
    if code == 0:       # a completed run has traded, so clearing has seen its trades
        assert handoffs.handed["clearing"] > 0


def test_the_pinned_runs_reach_every_intake(argv_of, capsys, monkeypatch):
    handoffs = Handoffs(monkeypatch)
    for row in MACHINE_RUNS:
        main(argv_of(row))
    capsys.readouterr()
    assert all(handoffs.handed.values()), handoffs.handed


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
