import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from conftest import projected
from stpsim.clearing import ClientTradeRecord
from stpsim.custodian import (
    AffirmationRejection,
    CustodianConfig,
    CustodianService,
    NoPendingDetails,
)
from stpsim.ledger import Ledger
from stpsim.money import Money
from stpsim.registry import ParticipantId, ParticipantRole, ServiceRegistry
from stpsim.trading import Affirmation, AllocationDetail, Contract, Rejection, Side

BROKER_PID = ParticipantId(ParticipantRole.BROKER, "BR1")
CUSTODIAN_PID = ParticipantId(ParticipantRole.CUSTODIAN, "CU1")
SECO_A = CustodianConfig(**projected("seco_a")["Custodian"])


class _StubOrder:
    def __init__(self, side):
        self.side = side


class _StubBroker:
    """Only what the custodian calls back into."""

    def __init__(self, side=Side.BUY):
        self.side = side
        self.affirmations = []

    def receive_affirmation(self, affirmation):
        self.affirmations.append(affirmation)

    def order_info(self, order_id):
        return _StubOrder(self.side)


class _StubClearing:
    def __init__(self):
        self.records = []
        self.settled_orders = set()

    def submit_trade(self, record):
        self.records.append(record)
        return None

    def is_order_settled(self, order_id):
        return order_id in self.settled_orders


def make_custodian(config=None, side=Side.BUY, omnibus_money=10**6, omnibus_shares=1000):
    ledger = Ledger()
    ledger.open_account("CU1.omnibus", Money(omnibus_money), {"ACME": omnibus_shares})
    for end in ("EC1", "EC2"):
        ledger.open_account(end)
    registry = ServiceRegistry()
    broker = _StubBroker(side)
    clearing = _StubClearing()
    registry.register(BROKER_PID, broker)
    registry.register(ParticipantId(ParticipantRole.CLEARING_CORPORATION, "CC1"), clearing)
    custodian = CustodianService(
        CUSTODIAN_PID, registry, ledger, "CU1.omnibus", config or SECO_A)
    registry.register(CUSTODIAN_PID, custodian)
    custodian.add_institution("fund")
    return custodian, broker, clearing, ledger


def detail(alloc_id, qty, price=1040, end="EC1", block="BR1-O1", symbol="ACME"):
    return AllocationDetail(
        alloc_id=alloc_id, institution="fund", end_client_account=end,
        block_order_id=block, symbol=symbol, quantity=qty, price=Money(price))


def contract_for(alloc, n=1):
    return Contract(
        contract_id=f"BR1-C{n}", broker=BROKER_PID, custodian=CUSTODIAN_PID,
        alloc_ref=alloc.alloc_id, block_order_id=alloc.block_order_id,
        symbol=alloc.symbol, quantity=alloc.quantity, price=alloc.price)


def fixture_details():
    return [detail("A1", 60, end="EC1"), detail("A2", 40, end="EC2")]


def fixture_contracts(details):
    return [contract_for(alloc, n + 1) for n, alloc in enumerate(details)]


# -- detail validation ----------------------------------------------------------

def test_negative_quantity_rejected():
    custodian, _, _, _ = make_custodian()
    rejection = custodian.receive_allocation_details([detail("A1", -5)])
    assert rejection.rule == "NonPositiveQuantity"


def test_unknown_institution_rejected():
    custodian, _, _, _ = make_custodian()
    stranger = detail("A1", 10)._replace(institution="stranger")
    assert custodian.receive_allocation_details([stranger]).rule == "UnknownInstitution"


def test_mixed_symbols_rejected():
    custodian, _, _, _ = make_custodian()
    rejection = custodian.receive_allocation_details(
        [detail("A1", 10), detail("A2", 10, symbol="OTHR")])
    assert rejection.rule == "SymbolMismatch"


def test_valid_details_stored_pending():
    custodian, _, _, _ = make_custodian()
    details = fixture_details()
    assert custodian.receive_allocation_details(details) is None
    assert custodian.pending_blocks() == ["BR1-O1"]


def test_extended_checks_require_end_account():
    custodian, _, _, _ = make_custodian(replace(SECO_A, extended_detail_checks=True))
    rejection = custodian.receive_allocation_details([detail("A1", 10, end="")])
    assert rejection.rule == "EmptyEndClientAccount"


# The split A1 60 / A2 40 of block BR1-O1. case -> (extended pack bound,
# {detail index: field edits} or None for no details, the rule broken first)
BAD_CUSTODIAN_DETAILS = {
    "no_details": (False, None, "NoDetails"),
    "unknown_institution": (False, {0: {"institution": "stranger"}}, "UnknownInstitution"),
    "institution_mismatch": (False, {1: {"institution": "other"}}, "InstitutionMismatch"),
    "mixed_block_orders": (False, {1: {"block_order_id": "BR1-O9"}}, "MixedBlockOrders"),
    "zero_quantity": (False, {1: {"quantity": 0}}, "NonPositiveQuantity"),
    "symbol_mismatch": (False, {1: {"symbol": "OTHR"}}, "SymbolMismatch"),
    "empty_end_client": (True, {1: {"end_client_account": ""}}, "EmptyEndClientAccount"),
    "zero_price": (True, {0: {"price": Money(0)}}, "NonPositivePrice"),
    "duplicate_alloc_id": (True, {1: {"alloc_id": "A1"}}, "DuplicateAllocId"),
    "zero_price_basic_pack": (False, {0: {"price": Money(0)}}, None),
    "duplicate_alloc_id_basic_pack": (False, {1: {"alloc_id": "A1"}}, None),
}


@pytest.mark.parametrize("extended, edits, rule", BAD_CUSTODIAN_DETAILS.values(),
                         ids=BAD_CUSTODIAN_DETAILS.keys())
def test_each_allocation_detail_rule_at_the_custodian(extended, edits, rule):
    custodian, _, _, _ = make_custodian(replace(SECO_A, extended_detail_checks=extended))
    details = [] if edits is None else [
        d._replace(**edits.get(i, {})) for i, d in enumerate(fixture_details())]
    rejection = custodian.receive_allocation_details(details)
    if rule is None:
        assert rejection is None
    else:
        assert rejection == Rejection("custodian_allocation_validation", rule)


def test_custodian_reports_allocation_rules_in_the_documented_order():
    # every edit breaks one rule; undoing them one at a time must surface
    # the rules in this order
    broken = [
        ("UnknownInstitution", 0, "institution", "stranger"),
        ("InstitutionMismatch", 1, "institution", "other"),
        ("MixedBlockOrders", 1, "block_order_id", "BR1-O9"),
        ("NonPositiveQuantity", 0, "quantity", 0),
        ("SymbolMismatch", 1, "symbol", "OTHR"),
        ("EmptyEndClientAccount", 0, "end_client_account", ""),
        ("NonPositivePrice", 1, "price", Money(-1)),
        ("DuplicateAllocId", 1, "alloc_id", "A1"),
    ]
    custodian, _, _, _ = make_custodian(replace(SECO_A, extended_detail_checks=True))
    good = fixture_details()
    details = list(good)
    for _, index, name, value in broken:
        details[index] = details[index]._replace(**{name: value})
    reported = []
    for _, index, name, _ in broken:
        reported.append(custodian.receive_allocation_details(details).rule)
        details[index] = details[index]._replace(**{name: getattr(good[index], name)})
    assert reported == [rule for rule, *_ in broken]
    assert custodian.receive_allocation_details(details) is None


# -- affirmation -----------------------------------------------------------------

def test_exact_contracts_affirmed_and_responsibility_taken():
    custodian, broker, _, _ = make_custodian()
    details = fixture_details()
    custodian.receive_allocation_details(details)
    contracts = fixture_contracts(details)
    verdict = custodian.affirm_contracts(contracts)
    assert isinstance(verdict, Affirmation)
    assert verdict.contract_ids == ("BR1-C1", "BR1-C2")
    assert broker.affirmations == [verdict]
    assert custodian.undistributed_blocks() == ["BR1-O1"]
    assert custodian.pending_blocks() == []


def test_one_cent_price_perturbation_rejected_with_contract_id():
    custodian, broker, _, _ = make_custodian()
    details = fixture_details()
    custodian.receive_allocation_details(details)
    contracts = fixture_contracts(details)
    contracts[0] = contracts[0]._replace(price=Money(1041))
    verdict = custodian.affirm_contracts(contracts)
    assert isinstance(verdict, AffirmationRejection)
    rules = {(v.rule, v.contract_id) for v in verdict.violations}
    assert ("PriceMismatch", "BR1-C1") in rules
    assert broker.affirmations == []
    assert custodian.affirmed == {}


def test_empty_contracts_with_pending_details_rejected():
    custodian, _, _, _ = make_custodian()
    custodian.receive_allocation_details(fixture_details())
    verdict = custodian.affirm_contracts([])
    assert isinstance(verdict, AffirmationRejection)
    assert verdict.violations[0].rule == "UnmatchedDetails"


def test_empty_contracts_rejection_is_recorded_like_every_verdict():
    custodian, broker, _, _ = make_custodian()
    custodian.receive_allocation_details(fixture_details())
    verdict = custodian.affirm_contracts([])
    assert custodian.affirmations == [verdict]
    assert broker.affirmations == []
    assert custodian.pending_blocks() == ["BR1-O1"]


def test_no_pending_details_is_an_error():
    custodian, _, _, _ = make_custodian()
    with pytest.raises(NoPendingDetails):
        custodian.affirm_contracts(fixture_contracts(fixture_details()))


def test_affirmation_is_order_independent():
    details = fixture_details()
    contracts = fixture_contracts(details)
    for ordering in ([0, 1], [1, 0]):
        custodian, _, _, _ = make_custodian()
        custodian.receive_allocation_details(details)
        verdict = custodian.affirm_contracts([contracts[i] for i in ordering])
        assert isinstance(verdict, Affirmation)


def _oracle_multisets_equal(contracts, details):
    left = sorted((c.alloc_ref, c.symbol, c.quantity, c.price.amount) for c in contracts)
    right = sorted((d.alloc_id, d.symbol, d.quantity, d.price.amount) for d in details)
    return left == right


@given(st.data())
def test_affirmation_verdict_equals_multiset_equality_oracle(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    count = rng.randint(1, 4)
    details = [
        detail(f"A{i}", rng.randint(1, 50), price=rng.choice([1000, 1040]),
               end=f"EC{i % 2 + 1}")
        for i in range(count)
    ]
    contracts = fixture_contracts(details)

    mutation = rng.choice(["none", "price", "qty", "drop", "dup", "alien"])
    if mutation == "price" :
        i = rng.randrange(len(contracts))
        contracts[i] = contracts[i]._replace(price=Money(999))
    elif mutation == "qty":
        i = rng.randrange(len(contracts))
        contracts[i] = contracts[i]._replace(quantity=contracts[i].quantity + 1)
    elif mutation == "drop" and len(contracts) > 1:
        contracts.pop()
    elif mutation == "dup":
        contracts.append(contracts[0]._replace(contract_id="BR1-C99"))
    elif mutation == "alien":
        contracts.append(contracts[0]._replace(contract_id="BR1-C98",
                                               alloc_ref="GHOST"))
    rng.shuffle(contracts)

    custodian, _, _, _ = make_custodian()
    custodian.receive_allocation_details(details)
    verdict = custodian.affirm_contracts(contracts)
    assert isinstance(verdict, Affirmation) == _oracle_multisets_equal(contracts, details)


def test_affirmations_keep_both_outcomes():
    custodian, _, _, _ = make_custodian()
    details = fixture_details()
    custodian.receive_allocation_details(details)
    contracts = fixture_contracts(details)
    bad = [contracts[0]._replace(price=Money(1))] + contracts[1:]
    rejection = custodian.affirm_contracts(bad)
    affirmation = custodian.affirm_contracts(contracts)
    assert isinstance(rejection, AffirmationRejection)
    assert isinstance(affirmation, Affirmation)
    assert custodian.affirmations == [rejection, affirmation]


# -- forwarding to clearing --------------------------------------------------------

def _affirmed_custodian(side=Side.BUY):
    custodian, broker, clearing, ledger = make_custodian(side=side)
    details = fixture_details()
    custodian.receive_allocation_details(details)
    custodian.affirm_contracts(fixture_contracts(details))
    return custodian, broker, clearing, ledger


def test_send_trades_exactly_once():
    custodian, _, clearing, _ = _affirmed_custodian()
    assert custodian.send_trades_to_clearing_rec() == 2
    assert custodian.send_trades_to_clearing_rec() == 0
    assert len(clearing.records) == 2
    record = clearing.records[0]
    assert type(record) is ClientTradeRecord
    assert record.block_order_id == "BR1-O1"
    assert record.account == "CU1.omnibus"
    assert record.side is Side.BUY
    assert {r.quantity for r in clearing.records} == {60, 40}


def test_nothing_affirmed_is_a_noop():
    custodian, _, clearing, _ = make_custodian()
    assert custodian.send_trades_to_clearing_rec() == 0
    assert clearing.records == []


# -- institutional settlement --------------------------------------------------------

def test_buy_side_distributes_shares_to_end_clients():
    custodian, _, clearing, ledger = _affirmed_custodian(side=Side.BUY)
    custodian.send_trades_to_clearing_rec()
    assert custodian.settle_institutional_rec() == 0   # street not settled yet
    clearing.settled_orders.add("BR1-O1")
    assert custodian.settle_institutional_rec() == 2
    assert ledger.position("EC1", "ACME") == 60
    assert ledger.position("EC2", "ACME") == 40
    assert custodian.settle_institutional_rec() == 0   # idempotent
    assert custodian.undistributed_blocks() == []


def test_sell_side_distributes_money_by_allocation():
    custodian, _, clearing, ledger = _affirmed_custodian(side=Side.SELL)
    custodian.send_trades_to_clearing_rec()
    clearing.settled_orders.add("BR1-O1")
    custodian.settle_institutional_rec()
    assert ledger.balance("EC1") == Money(60 * 1040)
    assert ledger.balance("EC2") == Money(40 * 1040)
