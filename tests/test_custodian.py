import pytest

from conftest import projected
from stpsim.custodian import CustodianConfig, CustodianService
from stpsim.ledger import Ledger
from stpsim.money import Money
from stpsim.registry import ParticipantId, ParticipantRole, ServiceRegistry
from stpsim.trading import Affirmation, AllocationDetail, ContractNote, Rejection, Side

BROKER_PID = ParticipantId(ParticipantRole.BROKER, "BR1")
CUSTODIAN_PID = ParticipantId(ParticipantRole.CUSTODIAN, "CU1")
SECO_A = CustodianConfig(**projected("seco_a")["Custodian"])


class _StubBroker:
    """Only what the custodian calls back into."""

    def __init__(self):
        self.affirmations = []

    def receive_affirmation(self, affirmation):
        self.affirmations.append(affirmation)


class _StubClearing:
    def __init__(self):
        self.submissions = []     # each block's client-level trades, as handed on
        self.settled_orders = set()

    def submit_client_trades(self, details):
        self.submissions.append(details)

    def is_order_settled(self, order_id):
        return order_id in self.settled_orders


def make_custodian(config=None, omnibus_money=10**6, omnibus_shares=1000):
    ledger = Ledger()
    ledger.open_account("CU1.omnibus", Money(omnibus_money), {"ACME": omnibus_shares})
    for end in ("EC1", "EC2"):
        ledger.open_account(end)
    registry = ServiceRegistry()
    broker = _StubBroker()
    clearing = _StubClearing()
    registry.register(BROKER_PID, broker)
    registry.register(ParticipantId(ParticipantRole.CLEARING_CORPORATION, "CC1"), clearing)
    custodian = CustodianService(
        CUSTODIAN_PID, registry, ledger, "CU1.omnibus", config or SECO_A)
    registry.register(CUSTODIAN_PID, custodian)
    return custodian, broker, clearing, ledger


def detail(alloc_id, qty, price=1040, end="EC1", block="BR1-O1", symbol="ACME"):
    return AllocationDetail(
        alloc_id=alloc_id, institution="fund", end_client_account=end,
        block_order_id=block, symbol=symbol, quantity=qty, price=Money(price))


def fixture_details():
    return [detail("A1", 60, end="EC1"), detail("A2", 40, end="EC2")]


def fixture_note(details, side=Side.BUY):
    """The broker's note for the details' block: one contract id per detail."""
    return ContractNote(details[0].block_order_id, BROKER_PID, side,
                        tuple(f"BR1-C{n}" for n in range(1, len(details) + 1)))


# -- detail validation ----------------------------------------------------------

def test_negative_quantity_rejected():
    custodian, _, _, _ = make_custodian()
    rejection = custodian.receive_allocation_details([detail("A1", -5)])
    assert rejection.rule == "NonPositiveQuantity"


def test_valid_details_stored_pending():
    custodian, _, _, _ = make_custodian()
    details = fixture_details()
    assert custodian.receive_allocation_details(details) is None
    assert custodian.pending_blocks() == ["BR1-O1"]


# The split A1 60 / A2 40 of block BR1-O1. case -> ({detail index: field
# edits} or None for no details, the rule broken first)
BAD_CUSTODIAN_DETAILS = {
    "no_details": (None, "NoDetails"),
    "zero_quantity": ({1: {"quantity": 0}}, "NonPositiveQuantity"),
}


@pytest.mark.parametrize("edits, rule", BAD_CUSTODIAN_DETAILS.values(),
                         ids=BAD_CUSTODIAN_DETAILS.keys())
def test_each_allocation_detail_rule_at_the_custodian(edits, rule):
    custodian, _, _, _ = make_custodian()
    details = [] if edits is None else [
        d._replace(**edits.get(i, {})) for i, d in enumerate(fixture_details())]
    rejection = custodian.receive_allocation_details(details)
    assert rejection == Rejection("custodian_allocation_validation", rule)
    assert custodian.pending_blocks() == []


# -- affirmation -----------------------------------------------------------------

def test_exact_contracts_affirmed_and_responsibility_taken():
    custodian, broker, _, _ = make_custodian()
    details = fixture_details()
    custodian.receive_allocation_details(details)
    verdict = custodian.affirm_contracts(fixture_note(details))
    assert isinstance(verdict, Affirmation)
    assert verdict.contract_ids == ("BR1-C1", "BR1-C2")
    assert broker.affirmations == custodian.affirmations == [verdict]
    assert custodian.affirmed["BR1-O1"].details == tuple(details)
    assert custodian.undistributed_blocks() == ["BR1-O1"]
    assert custodian.pending_blocks() == []


def test_affirmation_is_order_independent():
    details = fixture_details()
    note = fixture_note(details)
    for ordering in ([0, 1], [1, 0]):
        custodian, _, _, _ = make_custodian()
        custodian.receive_allocation_details(details)
        ids = tuple(note.contract_ids[i] for i in ordering)
        verdict = custodian.affirm_contracts(note._replace(contract_ids=ids))
        assert verdict.contract_ids == ids
        assert custodian.affirmed["BR1-O1"].details == tuple(details)


# -- forwarding to clearing --------------------------------------------------------

def _affirmed_custodian(side=Side.BUY):
    custodian, broker, clearing, ledger = make_custodian()
    details = fixture_details()
    custodian.receive_allocation_details(details)
    custodian.affirm_contracts(fixture_note(details, side))
    return custodian, broker, clearing, ledger


def test_send_trades_exactly_once():
    custodian, _, clearing, _ = _affirmed_custodian()
    assert custodian.send_trades_to_clearing_rec() == 2
    assert custodian.send_trades_to_clearing_rec() == 0
    # one call for the block, handing on the affirmed details themselves
    assert clearing.submissions == [tuple(fixture_details())]
    assert clearing.submissions[0] is custodian.affirmed["BR1-O1"].details


def test_nothing_affirmed_is_a_noop():
    custodian, _, clearing, _ = make_custodian()
    assert custodian.send_trades_to_clearing_rec() == 0
    assert clearing.submissions == []


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
