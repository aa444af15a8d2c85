import operator
import sys
import types
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import live_balances, load_scenario
from faults import FAULT_KINDS, LeakyLedger, inject
from stpsim.ledger import (
    AccountSnapshot,
    DuplicateAccount,
    InsufficientFunds,
    InsufficientPosition,
    Ledger,
    LedgerError,
    NonPositiveAmount,
    NonPositiveQuantity,
    Snapshot,
    UnknownAccount,
    total_money,
    total_positions,
)
from perfbench.workloads import WORKLOADS
from stpsim.assembly import build_ecosystem
from stpsim.lifecycle import ScenarioRunner, StepRecord, assert_conservation, run_scenario
from stpsim.money import CurrencyMismatch, Money
from stpsim.report import render_machine
from stpsim.scenarios import parse_scenario


def test_money_arithmetic_is_exact_integers():
    assert Money(1040) * 100 == Money(104000)
    assert Money(46000) + Money(104000) == Money(150000)


def test_money_rejects_cross_currency():
    with pytest.raises(CurrencyMismatch):
        Money(1, "USD") + Money(1, "EUR")
    with pytest.raises(CurrencyMismatch):
        Money(1, "USD") < Money(1, "EUR")


def test_money_rejects_non_integer_amounts():
    with pytest.raises(TypeError):
        Money(1.5)
    with pytest.raises(TypeError):
        Money(10) * 0.5


def make_ledger():
    ledger = Ledger()
    ledger.open_account("alice", Money(1000), {"ACME": 10})
    ledger.open_account("bob")
    return ledger


def test_transfer_money_exact_drain():
    ledger = make_ledger()
    ledger.transfer_money("alice", "bob", Money(1000))
    assert ledger.balance("alice") == Money(0)
    assert ledger.balance("bob") == Money(1000)


def test_transfer_money_zero_rejected():
    ledger = make_ledger()
    with pytest.raises(NonPositiveAmount):
        ledger.transfer_money("alice", "bob", Money(0))


def test_scenario_prepayment_amount():
    # buyer prepayment of qty 100 x 1040 cents
    ledger = Ledger()
    ledger.open_account("client", Money(150000))
    ledger.open_account("house")
    ledger.transfer_money("client", "house", Money(1040) * 100, "prepay")
    assert ledger.balance("client") == Money(46000)
    assert ledger.balance("house") == Money(104000)


def test_transfer_equity_exact_drain():
    ledger = make_ledger()
    ledger.transfer_equity("alice", "bob", "ACME", 10)
    assert ledger.position("alice", "ACME") == 0
    assert ledger.position("bob", "ACME") == 10


def test_transfer_equity_zero_rejected():
    ledger = make_ledger()
    with pytest.raises(NonPositiveQuantity):
        ledger.transfer_equity("alice", "bob", "ACME", 0)


@pytest.mark.parametrize("call", [
    lambda l: l.transfer_money("alice", "bob", Money(2000)),
    lambda l: l.transfer_equity("alice", "bob", "ACME", 11),
    lambda l: l.transfer_money("alice", "nobody", Money(1)),
    lambda l: l.transfer_money("nobody", "bob", Money(1)),
    lambda l: l.transfer_equity("alice", "bob", "OTHER", 1),
    lambda l: l.transfer_money("alice", "bob", Money(-5)),
])
def test_failed_transfers_leave_ledger_untouched(call):
    ledger = make_ledger()
    before = ledger.snapshot()
    journal_len = len(ledger.journal)
    with pytest.raises((InsufficientFunds, InsufficientPosition,
                        UnknownAccount, NonPositiveAmount, NonPositiveQuantity)):
        call(ledger)
    assert ledger.snapshot() == before
    assert len(ledger.journal) == journal_len


@pytest.mark.parametrize("call, kind, amount, symbol", [
    (lambda l: l.transfer_money("alice", "alice", Money(400), "self"), "money", 400, None),
    (lambda l: l.transfer_equity("alice", "alice", "ACME", 4, "self"), "equity", 4, "ACME"),
])
def test_self_transfer_is_net_zero_and_journaled_once(call, kind, amount, symbol):
    ledger = make_ledger()
    before = ledger.snapshot()
    assert call(ledger) == 1
    assert ledger.journal == [(1, kind, "alice", "alice", amount, symbol, "self")]
    after = ledger.snapshot()
    assert "alice" in dict(after.changes())
    assert after == before
    assert ledger.balance("alice") == Money(1000)
    assert ledger.position("alice", "ACME") == 10


def test_cross_currency_transfer_raises_and_writes_nothing():
    ledger = make_ledger()
    before = ledger.snapshot()
    with pytest.raises(LedgerError, match="^currency EUR != ledger USD$"):
        ledger.transfer_money("alice", "bob", Money(1, "EUR"))
    assert ledger.journal == []
    after = ledger.snapshot()
    assert dict(after.changes()) == {}
    assert after == before


@pytest.mark.parametrize("call, error, message", [
    (lambda l: l.transfer_money("alice", "bob", Money(1001)), InsufficientFunds,
     "alice holds 1000USD, needs 1001USD"),
    (lambda l: l.transfer_money("bob", "alice", Money(1)), InsufficientFunds,
     "bob holds 0USD, needs 1USD"),
    (lambda l: l.transfer_equity("alice", "bob", "ACME", 11), InsufficientPosition,
     "alice holds 10 ACME, needs 11"),
    (lambda l: l.transfer_equity("bob", "alice", "OTHER", 1), InsufficientPosition,
     "bob holds 0 OTHER, needs 1"),
])
def test_shortfall_messages(call, error, message):
    ledger = make_ledger()
    ledger.snapshot()
    with pytest.raises(error) as raised:
        call(ledger)
    assert str(raised.value) == message
    assert ledger.journal == []
    assert dict(ledger.snapshot().changes()) == {}


@pytest.mark.parametrize("call, missing", [
    (lambda l: l.transfer_money("alice", "nobody", Money(1)), "nobody"),
    (lambda l: l.transfer_money("nobody", "bob", Money(1)), "nobody"),
    (lambda l: l.transfer_money("ghost", "nobody", Money(1)), "ghost"),
    (lambda l: l.transfer_equity("alice", "nobody", "ACME", 1), "nobody"),
    (lambda l: l.transfer_equity("nobody", "bob", "ACME", 1), "nobody"),
    (lambda l: l.transfer_equity("ghost", "nobody", "ACME", 1), "ghost"),
    (lambda l: l.balance("nobody"), "nobody"),
    (lambda l: l.position("nobody", "ACME"), "nobody"),
])
def test_unknown_account_names_the_missing_owner(call, missing):
    ledger = make_ledger()
    with pytest.raises(UnknownAccount) as raised:
        call(ledger)
    assert str(raised.value) == missing


# every way a transfer can be refused, each checked before the first write
REFUSED = {
    "insufficient_funds": lambda l: l.transfer_money("bob", "alice", Money(1)),
    "insufficient_position": lambda l: l.transfer_equity("alice", "bob", "ACME", 11),
    "no_position": lambda l: l.transfer_equity("bob", "alice", "ACME", 1),
    "zero_amount": lambda l: l.transfer_money("alice", "bob", Money(0)),
    "negative_amount": lambda l: l.transfer_money("alice", "bob", Money(-5)),
    "zero_quantity": lambda l: l.transfer_equity("alice", "bob", "ACME", 0),
    "negative_quantity": lambda l: l.transfer_equity("alice", "bob", "ACME", -1),
    "wrong_currency": lambda l: l.transfer_money("alice", "bob", Money(1, "EUR")),
    "unknown_payee": lambda l: l.transfer_money("alice", "nobody", Money(1)),
    "unknown_receiver": lambda l: l.transfer_equity("alice", "nobody", "ACME", 1),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_refused_transfer_leaves_balances_journal_and_next_delta_empty(call):
    ledger = make_ledger()
    ledger.open_account("carol", Money(7), {"ACME": 1})
    before = ledger.snapshot()
    with pytest.raises(LedgerError):
        call(ledger)
    assert ledger.journal == []
    after = ledger.snapshot()
    assert dict(after.changes()) == {}
    assert after == before
    assert [ledger.balance(owner) for owner in ("alice", "bob", "carol")] == [
        Money(1000), Money(0), Money(7)]
    assert live_balances(ledger) == {
        "alice": (Money(1000), {"ACME": 10}), "bob": (Money(0), {}),
        "carol": (Money(7), {"ACME": 1})}


@pytest.mark.parametrize("call, owners", [
    (lambda l: l.transfer_money("alice", "bob", Money(10)), {"alice", "bob"}),
    (lambda l: l.transfer_money("bob", "carol", Money(1)), {"bob", "carol"}),
    (lambda l: l.transfer_equity("alice", "carol", "ACME", 2), {"alice", "carol"}),
    (lambda l: l.transfer_money("carol", "carol", Money(7)), {"carol"}),
    (lambda l: l.transfer_equity("alice", "alice", "ACME", 10), {"alice"}),
])
def test_transfer_marks_exactly_its_two_owners(call, owners):
    ledger = make_ledger()
    ledger.open_account("carol", Money(7))
    ledger.transfer_money("alice", "bob", Money(1))     # bob can pay a cent
    ledger.snapshot()
    call(ledger)
    assert len(ledger.journal) == 2
    assert dict(ledger.snapshot().changes()).keys() == owners
    assert dict(ledger.snapshot().changes()) == {}


def test_duplicate_account_rejected():
    ledger = make_ledger()
    with pytest.raises(DuplicateAccount):
        ledger.open_account("alice")


def test_snapshot_isolated_from_later_mutation():
    ledger = make_ledger()
    snap = ledger.snapshot()
    ledger.transfer_money("alice", "bob", Money(500))
    ledger.transfer_equity("alice", "bob", "ACME", 3)
    assert snap["alice"].money == Money(1000)
    assert snap["alice"].positions == {"ACME": 10}


def test_snapshot_of_empty_ledger():
    assert Ledger().snapshot() == {}


def replay(initial, journal):
    """Independent journal replay: apply entries to plain dicts."""
    money = {owner: snap.money.amount for owner, snap in initial.items()}
    positions = {owner: dict(snap.positions) for owner, snap in initial.items()}
    for entry in journal:
        if entry.kind == "money":
            money[entry.src] -= entry.amount
            money[entry.dst] += entry.amount
        else:
            positions[entry.src][entry.symbol] = (
                positions[entry.src].get(entry.symbol, 0) - entry.amount)
            positions[entry.dst][entry.symbol] = (
                positions[entry.dst].get(entry.symbol, 0) + entry.amount)
    return {
        owner: (money[owner], {s: q for s, q in positions[owner].items() if q})
        for owner in money
    }


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.booleans(), st.integers(1, 50)), max_size=30))
def test_conservation_and_replay_over_random_transfers(moves):
    owners = ["a0", "a1", "a2", "a3"]
    ledger = Ledger()
    for owner in owners:
        ledger.open_account(owner, Money(100), {"SYM": 20})
    initial = ledger.snapshot()
    start_money = total_money(initial)
    start_positions = total_positions(initial)

    for src_i, dst_i, is_money, amount in moves:
        src, dst = owners[src_i], owners[dst_i]
        if src == dst:
            continue
        try:
            if is_money:
                ledger.transfer_money(src, dst, Money(amount))
            else:
                ledger.transfer_equity(src, dst, "SYM", amount)
        except (InsufficientFunds, InsufficientPosition):
            pass
        snap = ledger.snapshot()
        assert total_money(snap) == start_money
        assert total_positions(snap) == start_positions

    final = ledger.snapshot()
    replayed = replay(initial, ledger.journal)
    assert replayed == {
        owner: (snap.money.amount, snap.positions) for owner, snap in final.items()
    }


# -- read-only balances, touched accounts and shared snapshots -----------------

# An `Account` has no public surface: its slots are private and it takes no
# new attribute; `balance` hands out an immutable Money and `position` an
# int, so neither is a path to a write.
@pytest.mark.parametrize("write", [
    lambda l: setattr(l.accounts["alice"], "money", Money(7)),
    lambda l: setattr(l.accounts["alice"], "positions", {"ACME": 99}),
    lambda l: setattr(l.accounts["alice"], "cash", Money(7)),
    lambda l: setattr(l.balance("alice"), "amount", 7),
    lambda l: setattr(l.balance("alice"), "currency", "EUR"),
    lambda l: operator.setitem(l.balance("alice"), 0, 7),
], ids=["money", "positions", "new_attribute", "balance_amount", "balance_currency",
        "balance_setitem"])
def test_direct_account_write_raises_and_changes_nothing(write):
    ledger = make_ledger()
    before = ledger.snapshot()
    with pytest.raises((AttributeError, TypeError)):
        write(ledger)
    assert live_balances(ledger) == {"alice": (Money(1000), {"ACME": 10}), "bob": (Money(0), {})}
    assert dict(ledger.snapshot().changes()) == {}
    assert before["alice"] == AccountSnapshot(Money(1000), {"ACME": 10})


def test_live_reads_follow_the_ledger_and_record_nothing():
    ledger = make_ledger()
    first = ledger.snapshot()
    assert (ledger.balance("alice"), ledger.position("alice", "ACME")) == (Money(1000), 10)
    assert dict(ledger.snapshot().changes()) == {}
    ledger.transfer_equity("alice", "bob", "ACME", 7)
    assert (ledger.position("alice", "ACME"), ledger.position("bob", "ACME")) == (3, 7)
    second = ledger.snapshot()
    assert ledger.position("alice", "ACME") == 3
    assert ledger.snapshot()["alice"] is second["alice"] is not first["alice"]


def _codes(code):
    """`code` and the code of every function or comprehension nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _codes(const)


# all a life cycle may run of ledger.py: the transfers, the step record, the
# two live reads and a step's changes
LIFE_CYCLE_SURFACE = {
    code for function in (Ledger.transfer_money, Ledger.transfer_equity, Ledger.snapshot,
                          Ledger.balance, Ledger.position, Snapshot.changes)
    for code in _codes(function.__code__)}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_workload_life_cycle_reads_the_ledger_one_way(request, workload):
    """Run, conservation check and rendering, as the benchmark times them,
    enter no other function of ledger.py."""
    spec = WORKLOADS[workload]
    product = request.getfixturevalue({"seco_a": "product_a", "seco_b": "product_b"}[spec.product])
    scenario = parse_scenario(spec.scenario_text(1))
    eco = build_ecosystem(product, scenario)
    ledger_file = Ledger.snapshot.__code__.co_filename
    entered: Counter = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename == ledger_file
                and code not in LIFE_CYCLE_SURFACE):
            entered[code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        report = ScenarioRunner(eco, scenario).run()
        render_machine(report, assert_conservation(report))
    finally:
        sys.setprofile(previous)
    assert report.all_checks_passed
    assert entered == {}


def test_snapshot_shares_untouched_accounts_and_renews_touched_ones():
    ledger = make_ledger()
    ledger.open_account("carol", Money(5))
    first = ledger.snapshot()
    ledger.transfer_money("alice", "bob", Money(1))
    second = ledger.snapshot()
    assert second["carol"] is first["carol"]
    assert second["alice"] is not first["alice"]
    assert second["bob"] is not first["bob"]
    assert list(second) == ["alice", "bob", "carol"]


@pytest.mark.parametrize("write", [
    lambda snap: operator.setitem(snap, "alice", AccountSnapshot(Money(1), {})),
    lambda snap: operator.delitem(snap, "bob"),
    lambda snap: snap.pop("bob"),
    lambda snap: snap.update(mallory=AccountSnapshot(Money(10**6), {"ACME": 1})),
    lambda snap: operator.setitem(snap["alice"].positions, "ACME", 5),
    lambda snap: snap["alice"].positions.clear(),
], ids=["setitem", "delitem", "pop", "update", "positions_setitem", "positions_clear"])
def test_editing_a_returned_snapshot_raises(write):
    ledger = make_ledger()
    snap = ledger.snapshot()
    expected = {owner: (acct.money, dict(acct.positions)) for owner, acct in snap.items()}
    with pytest.raises((AttributeError, TypeError)):
        write(snap)
    assert snap == expected and dict(snap.changes()) == expected
    assert ledger.snapshot() == expected


def _journal_accounts(machine):
    """Every account a ``journal|`` line of the machine report names."""
    return {field for line in machine.splitlines() if line.startswith("journal|")
            for field in line.split("|")[3:5]}


@pytest.mark.parametrize("scenario_id", ["retail_retail", "institutional_institutional"])
def test_account_no_step_touched_keeps_one_snapshot_object(product_a, scenario_id):
    report = run_scenario(product_a, load_scenario(scenario_id))
    untouched = set(report.steps[0].snapshot) - _journal_accounts(render_machine(report, []))
    assert untouched
    for previous, current in zip(report.steps, report.steps[1:]):
        for account in untouched:
            assert current.snapshot[account] is previous.snapshot[account]


def test_a_recorded_step_cannot_be_edited(product_a):
    report = run_scenario(product_a, load_scenario("retail_retail"))

    def balances():
        return [{owner: (acct.money, dict(acct.positions)) for owner, acct in step.snapshot.items()}
                for step in report.steps]

    before = balances()
    victim = report.steps[3]
    account = sorted(victim.snapshot)[0]
    with pytest.raises(AttributeError):
        victim.snapshot = {account: victim.snapshot[account]}
    with pytest.raises(AttributeError):
        victim.name = "renamed"
    with pytest.raises(TypeError):
        victim.snapshot[account] = victim.snapshot[account]._replace(
            money=victim.snapshot[account].money + Money(1))
    with pytest.raises(TypeError):
        del victim.snapshot[account]
    # CC1.ccp is touched by no later step, so every step shares this record
    with pytest.raises(TypeError):
        report.steps[0].snapshot["CC1.ccp"].positions["ACME"] = 5
    assert balances() == before


# -- snapshots that record only their step's delta ------------------------------

def full_copy(ledger):
    """Every account's balances, copied from the live accounts."""
    return {owner: AccountSnapshot(money, {s: q for s, q in positions.items() if q})
            for owner, (money, positions) in live_balances(ledger).items()}


OWNERS = ("a0", "a1", "a2", "a3")


@settings(max_examples=150, deadline=None)
@given(moves=st.lists(st.tuples(st.sampled_from(OWNERS), st.sampled_from(OWNERS),
                                st.sampled_from(("money", "shares", "open", *FAULT_KINDS)),
                                st.integers(-40, 40).filter(bool)), max_size=25),
       data=st.data())
def test_snapshots_equal_full_copies_under_tampering(moves, data):
    """Every recorded step equals a full copy of the live accounts taken with
    it, through moves, openings and ledger faults alike."""
    ledger = LeakyLedger()
    for owner in OWNERS:
        ledger.open_account(owner, Money(100), {"SYM": 20})
    steps = [StepRecord("setup", ledger.snapshot())]
    copies = [full_copy(ledger)]
    for index, (src, dst, kind, amount) in enumerate(moves, start=1):
        try:
            if kind == "money":
                ledger.transfer_money(src, dst, Money(abs(amount)))
            elif kind == "shares":
                ledger.transfer_equity(src, dst, "SYM", abs(amount))
            elif kind == "open":
                ledger.open_account(f"n{index}", Money(abs(amount)), {"NEW": abs(amount)})
            else:
                inject(ledger, kind, amount, lambda options: data.draw(st.sampled_from(options)))
        except LedgerError:
            pass
        steps.append(StepRecord(f"move_{index}", ledger.snapshot()))
        copies.append(full_copy(ledger))

    for step, copy in zip(steps, copies):
        assert isinstance(step.snapshot, Snapshot)
        assert dict(step.snapshot) == copy
        assert len(step.snapshot) == len(list(step.snapshot)) == len(copy)
        assert list(step.snapshot) == list(copy)  # account-opening order
    assert dict(ledger.snapshot()) == full_copy(ledger)


@pytest.mark.parametrize("product_key", ["product_a", "product_b"])
@pytest.mark.parametrize("scenario_id",
                         ["retail_retail", "retail_institutional", "institutional_institutional"])
def test_recorded_deltas_are_bounded_by_openings_and_journal(request, product_key, scenario_id):
    scenario = load_scenario(scenario_id)
    eco = build_ecosystem(request.getfixturevalue(product_key), scenario)
    report = ScenarioRunner(eco, scenario).run()
    recorded = sum(len(dict(step.snapshot.changes())) for step in report.steps)
    assert recorded <= len(eco.ledger.accounts) + 2 * len(eco.ledger.journal)


def test_changes_are_taken_only_since_the_previous_snapshot():
    ledger = make_ledger()
    first = ledger.snapshot()
    ledger.transfer_money("alice", "bob", Money(1))
    second = ledger.snapshot()
    third = ledger.snapshot()
    assert dict(first.changes()) == dict(first)
    assert dict(second.changes()) == {"alice": second["alice"], "bob": second["bob"]}
    assert dict(third.changes()) == {}
    # a step read late still gives what it recorded then
    assert dict(second.changes()) == {"alice": second["alice"], "bob": second["bob"]}
