from dataclasses import replace

import pytest

from conftest import projected
from matchdriver import ranked
from stpsim.broker import (
    BrokerConfig,
    BrokerService,
    NoVenues,
    OrderDraft,
    UnknownContracts,
)
from stpsim.exchange import (
    ExchangeService,
    PrecedenceComparator,
    SecondaryPrecedence,
    TieBreak,
)
from stpsim.ledger import Ledger, total_money, total_positions
from stpsim.money import Money
from stpsim.registry import ParticipantId, ParticipantRole, ServiceRegistry
from stpsim.trading import (
    MAX_ORDER_VALUE,
    Affirmation,
    AllocationDetail,
    AuditEvent,
    ClientKind,
    Order,
    OrderStatus,
    OrderType,
    Rejection,
    Side,
    TradeStatus,
)

COMPARATOR = PrecedenceComparator(SecondaryPrecedence.TIME_PRIORITY, TieBreak.FIFO)
FIRST_VENUE = replace(BrokerConfig(**projected("seco_a")["Broker"]),
                      venue_algorithm="FirstVenueChoice")


class _StubCustodian:
    omnibus_account = "CU1.omnibus"


class _SilentBroker:
    def execution_report(self, order_id, trade):
        pass


_COUNTERPARTY = ParticipantId(ParticipantRole.BROKER, "CP")


def rest_order(exchange, side, price, qty, oid="O99"):
    """Seed a resting counterparty order straight at the exchange."""
    order = Order(
        order_id=oid, client="street", broker=_COUNTERPARTY, side=Side(side),
        symbol="ACME", quantity=qty, order_type=OrderType.LIMIT,
        limit_price=Money(price), settlement_account="street.house")
    assert exchange.validate_incoming_order(order) is None
    exchange.submit_order(order)
    return order


def make_desk(config=None, restricted_symbols=frozenset(), symbols=("ACME",), n_exchanges=1,
              exchange_types=frozenset(OrderType), extended_exchange=False, currency="USD"):
    ledger = Ledger(currency)
    registry = ServiceRegistry()
    exchanges = []
    for i in range(n_exchanges):
        pid = ParticipantId(ParticipantRole.EXCHANGE, f"X{i + 1}")
        exchange = ExchangeService(
            pid, registry, set(symbols), COMPARATOR, exchange_types,
            extended_validation=extended_exchange)
        registry.register(pid, exchange)
        exchanges.append(exchange)

    registry.register(_COUNTERPARTY, _SilentBroker())
    broker_pid = ParticipantId(ParticipantRole.BROKER, "BR1")
    ledger.open_account("BR1.house")
    ledger.open_account("client", Money(150000, currency), {"ACME": 100})
    ledger.open_account("CU1.omnibus", Money(10**9, currency), {"ACME": 10**6})
    broker = BrokerService(
        broker_pid, registry, ledger, "BR1.house",
        config or FIRST_VENUE,
        restricted_symbols)
    registry.register(broker_pid, broker)
    broker.add_retail_client("client")

    custodian = _StubCustodian()
    custodian_pid = ParticipantId(ParticipantRole.CUSTODIAN, "CU1")
    registry.register(custodian_pid, custodian)
    ledger.open_account("fund")
    broker.add_institution("fund", custodian_pid)
    return broker, exchanges, ledger, custodian


def buy_draft(qty=100, price=1040, otype=OrderType.LIMIT, client="client", **kwargs):
    return OrderDraft(
        client=client, side=Side.BUY, symbol="ACME", quantity=qty,
        order_type=otype, limit_price=Money(price) if price else None, **kwargs)


def sell_draft(qty=100, price=1040, client="client"):
    return OrderDraft(
        client=client, side=Side.SELL, symbol="ACME", quantity=qty,
        order_type=OrderType.LIMIT, limit_price=Money(price))


def audit_events(broker):
    """The broker's audit trail as one event per stage, in the order the
    stages ran: each record's "ok" event for every stage it passed, then the
    record itself, as the machine report writes them."""
    return [event for record in broker.audit_records
            for event in (*(AuditEvent(record.order_id, stage, "ok") for stage in record.passed),
                          record._replace(passed=()))]


# -- pipeline stages ------------------------------------------------------------

def test_zero_quantity_rejected_at_validation_stage():
    broker, _, _, _ = make_desk()
    rejection = broker.place_retail_order(buy_draft(qty=0))
    assert rejection == Rejection("validation", "NonPositiveQuantity")


def test_insufficient_funds_at_prepayment_leaves_ledger_unchanged():
    broker, _, ledger, _ = make_desk()
    before = ledger.snapshot()
    rejection = broker.place_retail_order(buy_draft(qty=100, price=2000))  # needs 200000
    assert rejection == Rejection("prepayment", "InsufficientFunds")
    assert ledger.snapshot() == before


def test_restricted_symbol_rejected_at_governmental_stage():
    broker, _, _, _ = make_desk(
        restricted_symbols=frozenset({"ACME"}))
    rejection = broker.place_retail_order(buy_draft())
    assert rejection.stage == "governmental_compliance"
    assert rejection.rule == "RestrictedSymbol"


def test_permissive_governmental_variant_allows_restricted_symbol():
    broker, _, _, _ = make_desk(
        config=replace(FIRST_VENUE, restricted_screening=False),
        restricted_symbols=frozenset({"ACME"}))
    outcome = broker.place_retail_order(buy_draft())
    assert isinstance(outcome, str)


def test_order_value_cap_rejects_large_block():
    broker, _, _, _ = make_desk()
    rejection = broker.place_institutional_order(
        buy_draft(qty=2000, price=60_000, client="fund"))  # 120_000_000 over the cap
    assert rejection == Rejection("client_compliance", "OrderValueOverCap")


def test_order_value_cap_is_inclusive_in_any_currency():
    broker, _, _, _ = make_desk(currency="EUR")

    def block(qty, price):
        return broker.place_institutional_order(OrderDraft(
            "fund", Side.BUY, "ACME", qty, OrderType.LIMIT, Money(price, "EUR")))

    assert isinstance(block(1000, MAX_ORDER_VALUE // 1000), str)
    assert block(1, MAX_ORDER_VALUE + 1) == Rejection("client_compliance", "OrderValueOverCap")


def test_duplicate_order_risk_within_one_step():
    """A client's second order under one reference (its ClOrdID) is a duplicate,
    whatever it orders; another reference, another client's, or none is not."""
    broker, _, _, _ = make_desk()
    assert isinstance(broker.place_retail_order(buy_draft(qty=10, ref="A")), str)
    second = broker.place_retail_order(buy_draft(qty=20, price=1000, ref="A"))
    assert second == Rejection("risk", "DuplicateOrder")
    assert isinstance(broker.place_retail_order(sell_draft(qty=10)), str)
    assert isinstance(broker.place_retail_order(sell_draft(qty=10)), str)
    assert isinstance(broker.place_retail_order(buy_draft(qty=10, ref="B")), str)
    assert isinstance(broker.place_institutional_order(
        buy_draft(qty=10, client="fund", ref="A")), str)

    unchecked, _, _, _ = make_desk(config=replace(FIRST_VENUE, risk_checks=frozenset()))
    for _ in range(2):
        assert isinstance(unchecked.place_retail_order(buy_draft(qty=10, ref="A")), str)


def test_prefunding_risk_check_variant():
    config = replace(FIRST_VENUE, risk_checks=frozenset({"PrefundingRiskCheck"}))
    broker, _, ledger, _ = make_desk(config=config)
    rejection = broker.place_retail_order(buy_draft(qty=200, price=1000))  # needs 200000
    assert rejection == Rejection("risk", "InsufficientPrefunding")
    assert ledger.balance("client") == Money(150000)


def test_unknown_client_rejected():
    broker, _, _, _ = make_desk()
    rejection = broker.place_retail_order(buy_draft(client="stranger"))
    assert rejection == Rejection("validation", "UnknownClient")
    rejection = broker.place_institutional_order(buy_draft(client="stranger"))
    assert rejection == Rejection("validation", "UnknownClient")


def test_another_brokers_client_is_unknown():
    """BR2's clients hold accounts in the ledger BR1 shares, but BR1 does
    not serve them: BR1 refuses their orders, and BR2 takes them."""
    broker, _, ledger, _ = make_desk()
    pid = ParticipantId(ParticipantRole.BROKER, "BR2")
    for owner, money in (("BR2.house", None), ("rc2", Money(150000)), ("fund2", None)):
        ledger.open_account(owner, money)
    other = BrokerService(pid, broker.registry, ledger, "BR2.house", FIRST_VENUE)
    broker.registry.register(pid, other)
    other.add_retail_client("rc2")
    other.add_institution("fund2", ParticipantId(ParticipantRole.CUSTODIAN, "CU1"))
    assert broker.place_retail_order(buy_draft(client="rc2")) == Rejection(
        "validation", "UnknownClient")
    assert broker.place_institutional_order(buy_draft(client="fund2")) == Rejection(
        "validation", "UnknownClient")
    assert isinstance(other.place_retail_order(buy_draft(client="rc2")), str)
    assert isinstance(other.place_institutional_order(buy_draft(client="fund2")), str)


def test_market_retail_buy_requires_price_cap():
    broker, _, _, _ = make_desk()
    rejection = broker.place_retail_order(buy_draft(price=None, otype=OrderType.MARKET))
    assert rejection == Rejection("validation", "MissingPriceCap")


def test_price_cap_rules_keep_their_place_among_the_shape_rules():
    config = replace(FIRST_VENUE, extended_order_checks=True)
    broker, _, _, _ = make_desk(config=config)

    def market_buy(qty, **cap):
        return broker.place_retail_order(
            buy_draft(qty=qty, price=None, otype=OrderType.MARKET, **cap))

    assert market_buy(2_000_000) == Rejection("validation", "MissingPriceCap")
    assert market_buy(2_000_000, price_cap=Money(0)) == Rejection("validation", "NonPositivePrice")
    assert market_buy(0) == Rejection("validation", "NonPositiveQuantity")


def test_market_sell_may_not_carry_a_price_cap():
    broker, _, _, _ = make_desk()
    rejection = broker.place_retail_order(OrderDraft(
        "client", Side.SELL, "ACME", 10, OrderType.MARKET, price_cap=Money(5000)))
    assert rejection == Rejection("validation", "CapOnSell")
    assert isinstance(broker.place_retail_order(OrderDraft(
        "client", Side.SELL, "ACME", 10, OrderType.MARKET)), str)


# Both sides bind the extended checks and offer every type but fill-or-kill.
# case -> (quantity, order type, limit price in cents or None, the rule broken first)
BAD_SHAPES = {
    "zero_quantity": (0, OrderType.LIMIT, 1040, "NonPositiveQuantity"),
    "unsupported_type": (100, OrderType.FILL_OR_KILL, 1040, "UnsupportedOrderType"),
    "missing_price": (100, OrderType.LIMIT, None, "MissingPrice"),
    "zero_price": (100, OrderType.IMMEDIATE_OR_CANCEL, 0, "NonPositivePrice"),
    "negative_price": (100, OrderType.LIMIT, -5, "NonPositivePrice"),
    "market_with_price": (100, OrderType.MARKET, 1040, "PriceNotAllowed"),
    "too_large": (2_000_000, OrderType.LIMIT, 1040, "OrderTooLarge"),
    "zero_quantity_and_missing_price": (0, OrderType.LIMIT, None, "NonPositiveQuantity"),
    "market_with_price_and_too_large": (2_000_000, OrderType.MARKET, 1040, "PriceNotAllowed"),
}


@pytest.mark.parametrize("qty, otype, price, rule", BAD_SHAPES.values(), ids=BAD_SHAPES.keys())
def test_broker_and_exchange_reject_a_bad_shape_by_the_same_rule(qty, otype, price, rule):
    offered = frozenset(OrderType) - {OrderType.FILL_OR_KILL}
    broker, (exchange,), _, _ = make_desk(
        config=replace(FIRST_VENUE, extended_order_checks=True, offered_types=offered),
        exchange_types=offered, extended_exchange=True)
    limit_price = None if price is None else Money(price)
    at_broker = broker.place_retail_order(OrderDraft(
        client="client", side=Side.BUY, symbol="ACME", quantity=qty, order_type=otype,
        limit_price=limit_price))
    at_exchange = exchange.validate_incoming_order(Order(
        order_id="O1", client="client", broker=broker.pid, side=Side.BUY, symbol="ACME",
        quantity=qty, order_type=otype, limit_price=limit_price))
    assert at_broker == Rejection("validation", rule)
    assert at_exchange == Rejection("exchange_validation", rule)


def test_pipeline_short_circuits_audit_trail():
    broker, _, _, _ = make_desk(
        restricted_symbols=frozenset({"ACME"}))
    broker.place_retail_order(buy_draft())
    stages = [(event.stage, event.outcome) for event in audit_events(broker)]
    assert stages == [
        ("validation", "ok"),
        ("risk", "ok"),
        ("governmental_compliance", "rejected"),
    ]


PIPELINE = ("validation", "risk", "governmental_compliance", "client_compliance",
            "venue_selection", "prepayment", "routing")


def _no_symbols(exchanges):
    exchanges[0].symbols.clear()           # every order is now UnknownSymbol


# case -> (the stage that rejects, its rule, make_desk arguments, the draft,
# what to do to the exchanges first)
REJECTED_AT = {
    "validation": ("validation", "NonPositiveQuantity", {}, buy_draft(qty=0), None),
    "risk": ("risk", "InsufficientPrefunding",
             {"config": replace(FIRST_VENUE, risk_checks=frozenset({"PrefundingRiskCheck"}))},
             buy_draft(qty=200, price=1000), None),
    "governmental_compliance": ("governmental_compliance", "RestrictedSymbol",
                                {"restricted_symbols": frozenset({"ACME"})}, buy_draft(), None),
    "client_compliance": ("client_compliance", "OrderValueOverCap", {},
                          buy_draft(qty=2000, price=60_000), None),
    "venue_selection": ("venue_selection", "NoVenues", {"n_exchanges": 0}, buy_draft(), None),
    "prepayment": ("prepayment", "InsufficientFunds", {}, buy_draft(qty=100, price=2000), None),
    "routing_buy": ("routing", "UnknownSymbol", {}, buy_draft(), _no_symbols),
    "routing_sell": ("routing", "UnknownSymbol", {}, sell_draft(), _no_symbols),
}


@pytest.mark.parametrize("stage, rule, desk, draft, prepare", REJECTED_AT.values(),
                         ids=REJECTED_AT.keys())
def test_rejection_at_each_stage_audits_the_stages_before_it(stage, rule, desk, draft, prepare):
    broker, exchanges, ledger, _ = make_desk(**desk)
    if prepare:
        prepare(exchanges)
    before = ledger.snapshot()
    before_money, before_shares = total_money(before), total_positions(before)
    assert broker.place_retail_order(draft) == Rejection(stage, rule)
    passed = PIPELINE[:PIPELINE.index(stage)]
    assert [(event.order_id, event.stage, event.outcome, event.rule)
            for event in audit_events(broker)] == [
        *(("BR1-O1", ok, "ok", "") for ok in passed), ("BR1-O1", stage, "rejected", rule)]
    assert broker.orders == {}
    after = ledger.snapshot()
    assert after == before
    assert (total_money(after), total_positions(after)) == (before_money, before_shares)


# -- prepayment and routing ------------------------------------------------------

def test_buy_prepayment_is_quantity_times_limit():
    broker, _, ledger, _ = make_desk()
    order_id = broker.place_retail_order(buy_draft(qty=100, price=1040))
    assert isinstance(order_id, str)
    assert ledger.balance("client") == Money(150000 - 104000)
    assert ledger.balance("BR1.house") == Money(104000)


def test_sell_prepayment_moves_the_shares():
    broker, _, ledger, _ = make_desk()
    broker.place_retail_order(sell_draft(qty=100))
    assert ledger.position("client", "ACME") == 0
    assert ledger.position("BR1.house", "ACME") == 100


def test_routing_rejection_refunds_prepayment_net_zero():
    broker, exchanges, ledger, _ = make_desk()
    exchanges[0].symbols.clear()           # everything now UnknownSymbol
    before_money = total_money(ledger.snapshot())
    rejection = broker.place_retail_order(buy_draft())
    assert rejection.stage == "routing"
    assert rejection.rule == "UnknownSymbol"
    assert ledger.balance("client") == Money(150000)
    assert ledger.balance("BR1.house") == Money(0)
    assert total_money(ledger.snapshot()) == before_money
    # the prepayment and its refund are both journaled
    causes = [entry.cause.split("/")[0] for entry in ledger.journal]
    assert causes == ["prepay:BR1-O1", "refund:BR1-O1"]


# -- one currency per book --------------------------------------------------------

def test_a_price_or_cap_in_another_currency_than_the_ledger_is_refused_at_validation():
    broker, _, ledger, _ = make_desk()
    before = ledger.snapshot()
    euro_sell = OrderDraft("client", Side.SELL, "ACME", 10, OrderType.LIMIT, Money(1000, "EUR"))
    assert broker.place_retail_order(euro_sell) == Rejection("validation", "CurrencyMismatch")
    euro_cap = buy_draft(qty=10, price=None, otype=OrderType.MARKET,
                         price_cap=Money(1000, "EUR"))
    assert broker.place_retail_order(euro_cap) == Rejection("validation", "CurrencyMismatch")
    assert ledger.journal == []
    assert ledger.snapshot()._delta == {}
    assert ledger.snapshot() == before
    # the buy that would have met the euro sell inside matching now rests
    order_id = broker.place_retail_order(buy_draft(qty=10, price=1000))
    assert broker.orders[order_id].status is OrderStatus.RESTING


@pytest.mark.parametrize("draft", [
    buy_draft(qty=10, price=1000),
    buy_draft(qty=10, price=None, otype=OrderType.MARKET, price_cap=Money(1000)),
], ids=["limit", "capped_market"])
def test_an_order_in_another_currency_than_the_book_is_refused_at_routing_and_refunded(draft):
    broker, exchanges, ledger, _ = make_desk()
    street = Order(
        order_id="O99", client="street", broker=_COUNTERPARTY, side=Side.SELL,
        symbol="ACME", quantity=10, order_type=OrderType.LIMIT,
        limit_price=Money(1000, "EUR"), settlement_account="street.house")
    assert exchanges[0].validate_incoming_order(street) is None
    exchanges[0].submit_order(street)
    before = ledger.snapshot()
    assert broker.place_retail_order(draft) == Rejection("routing", "CurrencyMismatch")
    assert broker.orders == {} and broker._escrow == {}
    assert [entry.cause.split("/")[0] for entry in ledger.journal] == [
        "prepay:BR1-O1", "refund:BR1-O1"]
    assert ledger.snapshot() == before
    assert ledger.balance("client") == Money(150000)
    asks = ranked(exchanges[0].books["ACME"].asks)
    assert [(o.order_id, o.remaining) for o in asks] == [("O99", 10)]


@pytest.mark.parametrize("client, kind, settlement", [
    ("client", ClientKind.RETAIL, "BR1.house"),
    ("fund", ClientKind.INSTITUTIONAL, "CU1.omnibus"),
], ids=["retail", "institutional"])
@pytest.mark.parametrize("otype, limit_price, price_cap", [
    (OrderType.LIMIT, Money(1000), None),
    (OrderType.MARKET, None, Money(1100)),
], ids=["limit", "capped_market"])
def test_the_broker_builds_the_order_its_fields_name(client, kind, settlement, otype,
                                                     limit_price, price_cap):
    broker, _, _, _ = make_desk()
    draft = OrderDraft(client, Side.BUY, "ACME", 10, otype, limit_price, price_cap)
    assert broker._build_order("BR1-O7", draft, kind) == Order(
        order_id="BR1-O7", client=client, broker=broker.pid, side=Side.BUY, symbol="ACME",
        quantity=10, order_type=otype, limit_price=limit_price, price_cap=price_cap,
        client_kind=kind, settlement_account=settlement)


def test_institutional_routing_rejection_writes_no_journal_entry():
    broker, exchanges, ledger, _ = make_desk()
    exchanges[0].symbols.clear()
    rejection = broker.place_institutional_order(buy_draft(client="fund"))
    assert rejection == Rejection("routing", "UnknownSymbol")
    assert ledger.journal == []


def test_institutional_order_skips_prepayment_and_uses_omnibus():
    broker, exchanges, ledger, _ = make_desk()
    order_id = broker.place_institutional_order(buy_draft(client="fund"))
    assert isinstance(order_id, str)
    assert ledger.balance("fund") == Money(0)
    order = broker.orders[order_id]
    assert order.settlement_account == "CU1.omnibus"
    assert len(ledger.journal) == 0


# -- placeholder algorithms -------------------------------------------------------

def test_select_venue_first_and_empty():
    broker, exchanges, _, _ = make_desk(n_exchanges=3)
    venues = broker.registry.list_by_role(ParticipantRole.EXCHANGE)
    assert broker.select_venue(buy_draft(), venues) == venues[0]
    with pytest.raises(NoVenues):
        broker.select_venue(buy_draft(), [])


def test_select_venue_best_quote():
    config = replace(FIRST_VENUE, venue_algorithm="BestQuoteVenueChoice")
    broker, exchanges, _, _ = make_desk(config=config, n_exchanges=2)
    # ask 1040 on X2, 1050 on X1: a buyer should route to X2
    rest_order(exchanges[0], "sell", 1050, 10)
    rest_order(exchanges[1], "sell", 1040, 10)
    venues = broker.registry.list_by_role(ParticipantRole.EXCHANGE)
    chosen = broker.select_venue(buy_draft(), venues)
    assert chosen.id == "X2"


def test_select_venue_best_quote_tie_goes_to_the_first_venue():
    config = replace(FIRST_VENUE, venue_algorithm="BestQuoteVenueChoice")
    broker, exchanges, _, _ = make_desk(config=config, n_exchanges=2)
    # both venues ask 1040 and bid 1030: each side ties, and X1 registered first
    for exchange in exchanges:
        rest_order(exchange, "sell", 1040, 10, oid="O98")
        rest_order(exchange, "buy", 1030, 10, oid="O99")
    venues = broker.registry.list_by_role(ParticipantRole.EXCHANGE)
    assert broker.select_venue(buy_draft(), venues).id == "X1"
    assert broker.select_venue(sell_draft(), venues).id == "X1"


def test_select_venue_least_loaded():
    config = replace(FIRST_VENUE, venue_algorithm="LeastLoadedVenueChoice")
    broker, exchanges, _, _ = make_desk(config=config, n_exchanges=2)
    rest_order(exchanges[0], "sell", 1050, 10)
    venues = broker.registry.list_by_role(ParticipantRole.EXCHANGE)
    assert broker.select_venue(buy_draft(), venues).id == "X2"


def test_select_venue_least_loaded_tie_goes_to_the_first_venue():
    config = replace(FIRST_VENUE, venue_algorithm="LeastLoadedVenueChoice")
    broker, _, _, _ = make_desk(config=config, n_exchanges=2)
    # both books are empty: the depths tie, and X1 registered first
    venues = broker.registry.list_by_role(ParticipantRole.EXCHANGE)
    assert broker.select_venue(buy_draft(), venues).id == "X1"


# -- allocation details and contracts ----------------------------------------------

def _filled_block(broker, exchanges, qty=100, price=1040):
    rest_order(exchanges[0], "sell", price, qty)
    order_id = broker.place_institutional_order(
        buy_draft(qty=qty, price=price, client="fund"))
    assert isinstance(order_id, str)
    return order_id


def detail(alloc_id, block_id, qty, price=1040, end="EC1"):
    return AllocationDetail(
        alloc_id=alloc_id, institution="fund", end_client_account=end,
        block_order_id=block_id, symbol="ACME", quantity=qty, price=Money(price))


def test_details_summing_under_block_rejected():
    broker, exchanges, _, _ = make_desk()
    block_id = _filled_block(broker, exchanges)
    outcome = broker.handle_allocation_details(
        [detail("A1", block_id, 60), detail("A2", block_id, 30)])
    assert outcome == Rejection("allocation_validation", "QuantityMismatch")


def test_empty_details_rejected():
    broker, _, _, _ = make_desk()
    assert broker.handle_allocation_details([]) == \
        Rejection("allocation_validation", "NoDetails")


def test_contracts_mirror_details_field_for_field():
    broker, exchanges, _, _ = make_desk()
    block_id = _filled_block(broker, exchanges)
    details = [detail("A1", block_id, 60, end="EC1"), detail("A2", block_id, 40, end="EC2")]
    contracts = broker.handle_allocation_details(details)
    assert len(contracts) == 2
    for contract, alloc in zip(contracts, details):
        assert contract.alloc_ref == alloc.alloc_id
        assert contract.symbol == alloc.symbol
        assert contract.quantity == alloc.quantity
        assert contract.price == alloc.price
        assert contract.custodian.id == "CU1"


def test_wrong_price_detail_rejected():
    broker, exchanges, _, _ = make_desk()
    block_id = _filled_block(broker, exchanges)
    outcome = broker.handle_allocation_details(
        [detail("A1", block_id, 60, price=1041), detail("A2", block_id, 40)])
    assert outcome == Rejection("allocation_validation", "PriceMismatch")


def test_receive_affirmation_flips_responsibility():
    broker, exchanges, _, _ = make_desk()
    block_id = _filled_block(broker, exchanges)
    contracts = broker.handle_allocation_details(
        [detail("A1", block_id, 60), detail("A2", block_id, 40)])
    affirmation = Affirmation(
        "F1", ParticipantId(ParticipantRole.CUSTODIAN, "CU1"), broker.pid,
        block_id, tuple(c.contract_id for c in contracts))
    broker.receive_affirmation(affirmation)
    assert broker.responsibility[block_id] == "custodian"
    assert broker.unaffirmed_blocks() == []


def test_receive_affirmation_unknown_contracts():
    broker, exchanges, _, _ = make_desk()
    block_id = _filled_block(broker, exchanges)
    broker.handle_allocation_details([detail("A1", block_id, 60), detail("A2", block_id, 40)])
    bogus = Affirmation(
        "F1", ParticipantId(ParticipantRole.CUSTODIAN, "CU1"), broker.pid,
        block_id, ("GHOST-1",))
    with pytest.raises(UnknownContracts):
        broker.receive_affirmation(bogus)


# A block of 100 ACME filled at 1040 (60 of it when the case says so), split
# A1 60 / A2 40. case -> (extended pack bound, shares resting against the
# block, {detail index: field edits}, the rule broken first)
BAD_BROKER_DETAILS = {
    "unknown_block": (False, 100, {0: {"block_order_id": "BR1-O9"}}, "UnknownBlockOrder"),
    "institution_mismatch": (False, 100, {1: {"institution": "other"}}, "InstitutionMismatch"),
    "mixed_block_orders": (False, 100, {1: {"block_order_id": "BR1-O9"}}, "MixedBlockOrders"),
    "zero_quantity": (False, 100, {0: {"quantity": 100}, 1: {"quantity": 0}},
                      "NonPositiveQuantity"),
    "symbol_mismatch": (False, 100, {1: {"symbol": "OTHR"}}, "SymbolMismatch"),
    "block_not_filled": (False, 60, {}, "BlockNotFilled"),
    "quantity_mismatch": (False, 100, {1: {"quantity": 30}}, "QuantityMismatch"),
    "price_off_the_fills": (False, 100, {0: {"price": Money(1041)}}, "PriceMismatch"),
    "zero_price_basic_pack": (False, 100, {0: {"price": Money(0)}}, "PriceMismatch"),
    "empty_end_client": (True, 100, {1: {"end_client_account": ""}}, "EmptyEndClientAccount"),
    "zero_price": (True, 100, {0: {"price": Money(0)}}, "NonPositivePrice"),
    "duplicate_alloc_id": (True, 100, {1: {"alloc_id": "A1"}}, "DuplicateAllocId"),
    "empty_end_client_basic_pack": (False, 100, {1: {"end_client_account": ""}}, None),
}


def _split(block_id, edits):
    details = [detail("A1", block_id, 60, end="EC1"), detail("A2", block_id, 40, end="EC2")]
    return [d._replace(**edits.get(i, {})) for i, d in enumerate(details)]


@pytest.mark.parametrize("extended, resting, edits, rule", BAD_BROKER_DETAILS.values(),
                         ids=BAD_BROKER_DETAILS.keys())
def test_each_allocation_detail_rule_at_the_broker(extended, resting, edits, rule):
    broker, exchanges, _, _ = make_desk(
        config=replace(FIRST_VENUE, extended_alloc_checks=extended))
    rest_order(exchanges[0], "sell", 1040, resting)
    block_id = broker.place_institutional_order(buy_draft(qty=100, price=1040, client="fund"))
    outcome = broker.handle_allocation_details(_split(block_id, edits))
    if rule is None:
        assert len(outcome) == 2
    else:
        assert outcome == Rejection("allocation_validation", rule)


def test_broker_reports_allocation_rules_in_the_documented_order():
    # every edit breaks one rule; undoing them one at a time must surface
    # the rules in this order
    broken = [
        ("InstitutionMismatch", 1, "institution", "other"),
        ("MixedBlockOrders", 1, "block_order_id", "BR1-O9"),
        ("NonPositiveQuantity", 1, "quantity", -40),
        ("SymbolMismatch", 1, "symbol", "OTHR"),
        ("EmptyEndClientAccount", 0, "end_client_account", ""),
        ("NonPositivePrice", 1, "price", Money(0)),
        ("DuplicateAllocId", 1, "alloc_id", "A1"),
        ("QuantityMismatch", 0, "quantity", 61),
        ("PriceMismatch", 0, "price", Money(1041)),
    ]
    broker, exchanges, _, _ = make_desk(
        config=replace(FIRST_VENUE, extended_alloc_checks=True))
    block_id = _filled_block(broker, exchanges)
    good = _split(block_id, {})
    details = list(good)
    for _, index, name, value in broken:
        details[index] = details[index]._replace(**{name: value})
    reported = []
    for _, index, name, _ in broken:
        reported.append(broker.handle_allocation_details(details).rule)
        details[index] = details[index]._replace(**{name: getattr(good[index], name)})
    assert reported == [rule for rule, *_ in broken]
    assert len(broker.handle_allocation_details(details)) == 2


# -- retail settlement ---------------------------------------------------------

def _settle_all_trades(broker):
    for trades in broker.fills.values():
        for trade in trades:
            if trade.status is TradeStatus.EXECUTED:
                trade.advance(TradeStatus.CLEARED)
            if trade.status is TradeStatus.CLEARED:
                trade.advance(TradeStatus.SETTLED)


def _street(ledger):
    """Open a street account for a test to settle the house's street side
    against with ledger transfers, as the clearing's DVP would."""
    ledger.open_account("street", Money(10**6), {"ACME": 10**6})
    return "street"


def test_settle_retail_credits_buyer_and_is_idempotent():
    broker, exchanges, ledger, _ = make_desk()
    rest_order(exchanges[0], "sell", 1040, 100)
    broker.place_retail_order(buy_draft(qty=100, price=1040))
    # simulate street settlement: house got the shares, paid the money
    street = _street(ledger)
    ledger.transfer_money("BR1.house", street, Money(104000))
    ledger.transfer_equity(street, "BR1.house", "ACME", 100)
    assert (ledger.balance("BR1.house"), ledger.position("BR1.house", "ACME")) == (Money(0), 100)
    _settle_all_trades(broker)

    assert broker.settle_retail_rec() == 1
    assert ledger.position("client", "ACME") == 200   # started with 100, bought 100
    assert ledger.balance("client") == Money(46000)
    assert broker.settle_retail_rec() == 0     # second call is a no-op
    assert ledger.position("client", "ACME") == 200


def test_settle_refunds_price_improvement():
    broker, exchanges, ledger, _ = make_desk()
    rest_order(exchanges[0], "sell", 1000, 100)   # better than the 1040 limit
    broker.place_retail_order(buy_draft(qty=100, price=1040))
    street = _street(ledger)
    ledger.transfer_money("BR1.house", street, Money(100000))
    ledger.transfer_equity(street, "BR1.house", "ACME", 100)
    assert ledger.balance("BR1.house") == Money(104000 - 100000)
    _settle_all_trades(broker)

    broker.settle_retail_rec()
    # prepaid 104000, street cost 100000: 4000 comes back
    assert ledger.balance("client") == Money(150000 - 100000)
    assert ledger.balance("BR1.house") == Money(0)


def test_market_buy_never_fills_above_its_cap_and_settle_refunds_in_full():
    broker, exchanges, ledger, _ = make_desk()
    resting = rest_order(exchanges[0], "sell", 1100, 100)   # above the 1040 cap
    order_id = broker.place_retail_order(
        buy_draft(price=None, otype=OrderType.MARKET, price_cap=Money(1040)))
    assert broker.fills.get(order_id) is None
    assert broker.orders[order_id].status is OrderStatus.CANCELLED
    assert resting.remaining == 100
    assert ledger.balance("client") == Money(150000 - 104000)   # prepaid at the cap

    broker.settle_retail_rec()
    assert ledger.balance("client") == Money(150000)
    assert ledger.balance("BR1.house") == Money(0)


def test_partly_filled_sell_gets_its_unfilled_shares_back_once():
    broker, exchanges, ledger, _ = make_desk()
    rest_order(exchanges[0], "buy", 1040, 60)
    order_id = broker.place_retail_order(OrderDraft(
        "client", Side.SELL, "ACME", 100, OrderType.IMMEDIATE_OR_CANCEL, Money(1040)))
    assert broker.orders[order_id].status is OrderStatus.CANCELLED
    assert broker.orders[order_id].filled_quantity == 60
    # simulate street settlement: house delivered 60 shares, was paid 62400
    street = _street(ledger)
    ledger.transfer_equity("BR1.house", street, "ACME", 60)
    ledger.transfer_money(street, "BR1.house", Money(62400))
    assert (ledger.balance("BR1.house"), ledger.position("BR1.house", "ACME")) == (
        Money(62400), 40)
    _settle_all_trades(broker)

    assert broker.settle_retail_rec() == 1
    assert broker.settle_retail_rec() == 0
    refunds = [entry for entry in ledger.journal if entry.cause.startswith("refund:")]
    assert [(e.kind, e.src, e.dst, e.amount, e.symbol) for e in refunds] == [
        ("equity", "BR1.house", "client", 40, "ACME")]
    assert refunds[0].cause == f"refund:{order_id}/method=BrokerBookEntryEquityTransfer"
    assert ledger.position("client", "ACME") == 40
    assert ledger.balance("client") == Money(150000 + 62400)
    assert ledger.position("BR1.house", "ACME") == 0
    assert ledger.balance("BR1.house") == Money(0)


def test_conservation_through_order_placement():
    broker, exchanges, ledger, _ = make_desk()
    start_money = total_money(ledger.snapshot())
    start_positions = total_positions(ledger.snapshot())
    broker.place_retail_order(buy_draft(qty=10, price=1000))
    broker.place_retail_order(sell_draft(qty=10, price=1100))
    assert total_money(ledger.snapshot()) == start_money
    assert total_positions(ledger.snapshot()) == start_positions
