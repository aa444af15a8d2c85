import random

import pytest
from hypothesis import example, given, settings, strategies as st

from stpsim.clearing import (
    ClearingBank,
    ClearingCorporation,
    Depository,
    SettlementFailed,
)
from stpsim.exchange import TradeReport
from stpsim.ledger import Ledger, total_money, total_positions
from stpsim.money import Money
from stpsim.registry import ParticipantId, ParticipantRole, ServiceRegistry
from stpsim.trading import MAX_TRADE_VALUE, AllocationDetail, Trade, TradeStatus


EXCHANGE_PID = ParticipantId(ParticipantRole.EXCHANGE, "X1")


def make_clearing(netting=False, accounts=("acct_a", "acct_b"), endow_money=10**9,
                  endow_shares=10**6, symbols=("S0", "S1")):
    ledger = Ledger()
    for account in accounts:
        ledger.open_account(
            account, Money(endow_money), {symbol: endow_shares for symbol in symbols})
    ledger.open_account("CC1.ccp")
    registry = ServiceRegistry()
    bank_pid = ParticipantId(ParticipantRole.CLEARING_BANK, "CB1")
    depo_pid = ParticipantId(ParticipantRole.DEPOSITORY, "DP1")
    registry.register(bank_pid, ClearingBank(bank_pid, ledger))
    registry.register(depo_pid, Depository(depo_pid, ledger))
    cc_pid = ParticipantId(ParticipantRole.CLEARING_CORPORATION, "CC1")
    clearing = ClearingCorporation(cc_pid, registry, ledger, netting, "CC1.ccp")
    registry.register(cc_pid, clearing)
    return clearing, ledger


_trade_counter = [0]


def street_trade(buy_account, sell_account, symbol="S0", qty=10, price=1000,
                 buy_deferred=False, sell_deferred=False, buy_order="BO", sell_order="SO",
                 currency="USD"):
    _trade_counter[0] += 1
    trade = Trade(
        trade_id=f"T{_trade_counter[0]}",
        buy_order_id=buy_order,
        sell_order_id=sell_order,
        symbol=symbol,
        price=Money(price, currency),
        quantity=qty,
        exchange=EXCHANGE_PID,
    )
    return TradeReport(
        trade=trade,
        buy_account=buy_account,
        sell_account=sell_account,
        buy_deferred=buy_deferred,
        sell_deferred=sell_deferred,
    )


# -- intake validation -------------------------------------------------------

@pytest.mark.parametrize("unit", [{"qty": 1}, {"price": 1}], ids=["one_share", "one_minor_unit"])
def test_a_trade_of_one_unit_is_accepted(unit):
    clearing, _ = make_clearing()
    assert clearing.submit_trade(street_trade("acct_a", "acct_b", **unit)) is None
    assert clearing.queue_size() == 1


def test_extended_validation_caps_trade_value():
    clearing, ledger = make_clearing()
    clearing.extended_validation = True
    report = street_trade("acct_a", "acct_b", qty=1_000_001, price=1_000_000)
    assert clearing.submit_trade(report).rule == "TradeValueTooLarge"


@pytest.mark.parametrize("qty, price, rule", [
    (1_000_000, 1_000_000, None),
    (1, MAX_TRADE_VALUE + 1, "TradeValueTooLarge"),
], ids=["at_the_cap", "one_unit_over"])
def test_extended_validation_takes_a_trade_of_exactly_the_value_cap(qty, price, rule):
    assert qty * price - MAX_TRADE_VALUE == (0 if rule is None else 1)
    clearing, _ = make_clearing()
    clearing.extended_validation = True
    rejection = clearing.submit_trade(street_trade("acct_a", "acct_b", qty=qty, price=price))
    assert (rejection and rejection.rule) == rule
    assert clearing.queue_size() == (rule is None)


# -- gross clearing -----------------------------------------------------------

def test_gross_single_trade_obligation_pair():
    clearing, _ = make_clearing()
    clearing.submit_trade(street_trade("acct_a", "acct_b", qty=100, price=1040))
    obligations = clearing.clear_rec()
    assert len(obligations) == 2
    # a trade's money obligation moves no shares, its equity obligation no money
    money_ob = next(o for o in obligations if o.net_quantity == 0)
    equity_ob = next(o for o in obligations if o.net_money.amount == 0)
    assert money_ob.party == "acct_a" and money_ob.net_money == Money(-104000)
    assert equity_ob.party == "acct_b" and equity_ob.net_quantity == -100


def test_empty_queue_clears_to_nothing():
    clearing, _ = make_clearing()
    assert clearing.clear_rec() == []


def test_gross_settles_bilaterally_and_marks_settled():
    clearing, ledger = make_clearing(endow_money=104000, endow_shares=100)
    report = street_trade("acct_a", "acct_b", qty=100, price=1040)
    clearing.submit_trade(report)
    clearing.clear_rec()
    assert report.trade.status is TradeStatus.CLEARED
    instructions = clearing.settle_rec()
    assert len(instructions) == 1
    assert report.trade.status is TradeStatus.SETTLED
    assert ledger.balance("acct_a") == Money(0)
    assert ledger.balance("acct_b") == Money(104000 + 104000)
    assert ledger.position("acct_a", "S0") == 200
    assert ledger.position("acct_b", "S0") == 0


# -- netting -----------------------------------------------------------------

def test_netting_signed_sums_per_account_and_symbol():
    # account C buys 100 and sells 60 of S0 at 1040: nets +40 shares, -41600
    clearing, _ = make_clearing(accounts=("acct_c", "other"))
    clearing.submit_trade(
        street_trade("acct_c", "other", qty=100, price=1040, buy_order="b1", sell_order="s1"))
    clearing.submit_trade(
        street_trade("other", "acct_c", qty=60, price=1040, buy_order="b2", sell_order="s2"))
    clearing.netting = True
    obligations = clearing.clear_rec()
    net_c = next(o for o in obligations if o.party == "acct_c")
    assert net_c.net_quantity == 40
    assert net_c.net_money == Money(-41600)
    # a closed system nets to zero
    assert sum(o.net_money.amount for o in obligations) == 0
    assert sum(o.net_quantity for o in obligations) == 0


def test_netting_zero_net_accounts_get_no_obligation():
    clearing, _ = make_clearing(accounts=("acct_c", "other"))
    clearing.netting = True
    clearing.submit_trade(
        street_trade("acct_c", "other", qty=50, price=1000, buy_order="b1", sell_order="s1"))
    clearing.submit_trade(
        street_trade("other", "acct_c", qty=50, price=1000, buy_order="b2", sell_order="s2"))
    assert clearing.clear_rec() == []


def _random_trades(rng, accounts, symbols, count):
    trades = []
    for _ in range(count):
        buy, sell = rng.sample(accounts, 2)
        trades.append(dict(
            buy_account=buy, sell_account=sell,
            symbol=rng.choice(symbols),
            qty=rng.randint(1, 50),
            price=rng.choice([900, 1000, 1100]),
            buy_order=f"bo{rng.randint(0, 10**9)}",
            sell_order=f"so{rng.randint(0, 10**9)}",
        ))
    return trades


def _run_mode(netting, trades, accounts, symbols):
    clearing, ledger = make_clearing(netting=netting, accounts=accounts, symbols=symbols)
    for spec in trades:
        rejection = clearing.submit_trade(street_trade(**spec))
        assert rejection is None
    clearing.clear_rec()
    clearing.settle_rec()
    return clearing, ledger


def test_gross_and_netting_produce_identical_snapshots():
    rng = random.Random("equivalence")
    accounts = ["acct_a", "acct_b", "acct_c", "acct_d"]
    symbols = ["S0", "S1"]
    for _ in range(40):
        trades = _random_trades(rng, accounts, symbols, rng.randint(1, 12))
        _, gross_ledger = _run_mode(False, trades, accounts, symbols)
        clearing_net, net_ledger = _run_mode(True, trades, accounts, symbols)
        assert gross_ledger.snapshot() == net_ledger.snapshot()
        assert net_ledger.balance("CC1.ccp") == Money(0)
        assert net_ledger.snapshot()["CC1.ccp"].positions == {}  # zeros are not recorded


ACCOUNTS = ("acct_a", "acct_b", "acct_c")
SYMBOLS = ("S0", "S1")


def expected_outcome(netting, ledger, reports):
    """The balances after the cycle, or None if it cannot settle, computed
    from the trades alone. Trade-for-trade pays each trade's money, then its
    shares, in trade order. Netting first collects every negative
    (account, symbol) sum into the CCP, then pays every positive one out."""
    money = {a: ledger.balance(a).amount for a in ACCOUNTS}
    shares = {(a, s): ledger.position(a, s) for a in ACCOUNTS for s in SYMBOLS}
    if not netting:
        for r in reports:
            value, key = r.trade.value.amount, r.trade.symbol
            if money[r.buy_account] < value or shares[r.sell_account, key] < r.trade.quantity:
                return None
            money[r.buy_account] -= value
            money[r.sell_account] += value
            shares[r.sell_account, key] -= r.trade.quantity
            shares[r.buy_account, key] += r.trade.quantity
        return money, shares
    net_money, net_shares = dict.fromkeys(shares, 0), dict.fromkeys(shares, 0)
    for r in reports:
        for account, sign in ((r.buy_account, 1), (r.sell_account, -1)):
            net_money[account, r.trade.symbol] -= sign * r.trade.value.amount
            net_shares[account, r.trade.symbol] += sign * r.trade.quantity
    for account in ACCOUNTS:
        if money[account] < sum(max(-net_money[account, s], 0) for s in SYMBOLS):
            return None
    if any(shares[key] + qty < 0 for key, qty in net_shares.items()):
        return None
    for (account, symbol), amount in net_money.items():
        money[account] += amount
        shares[account, symbol] += net_shares[account, symbol]
    return money, shares


@pytest.mark.parametrize("netting", [False, True], ids=["gross", "netting"])
@settings(max_examples=120, deadline=None)
@given(endowments=st.lists(st.tuples(st.integers(0, 40_000), st.integers(0, 30),
                                     st.integers(0, 30)),
                           min_size=len(ACCOUNTS), max_size=len(ACCOUNTS)),
       trades=st.lists(st.tuples(st.permutations(ACCOUNTS), st.sampled_from(SYMBOLS),
                                 st.integers(1, 20), st.sampled_from([900, 1000, 1100])),
                       min_size=1, max_size=8))
@example(endowments=[(10_000, 10, 0)] * 3,      # a round trip that nets to nothing
         trades=[(("acct_a", "acct_b", "acct_c"), "S0", 10, 1000),
                 (("acct_b", "acct_a", "acct_c"), "S0", 10, 1000)])
def test_settlement_cycle_is_all_or_nothing(netting, endowments, trades):
    clearing, ledger = make_clearing(netting=netting, accounts=())
    for account, (money, s0, s1) in zip(ACCOUNTS, endowments):
        ledger.open_account(account, Money(money), {"S0": s0, "S1": s1})
    reports = [street_trade(buy, sell, symbol=symbol, qty=qty, price=price)
               for (buy, sell, _), symbol, qty, price in trades]
    for report in reports:
        assert clearing.submit_trade(report) is None
    clearing.clear_rec()
    expected = expected_outcome(netting, ledger, reports)
    journal_before = len(ledger.journal)
    snapshot_before = ledger.snapshot()

    try:
        instructions = clearing.settle_rec()
    except SettlementFailed:
        assert expected is None
        assert len(ledger.journal) == journal_before
        assert ledger.snapshot() == snapshot_before
        assert clearing.executed_instructions == []
        assert all(r.trade.status is TradeStatus.CLEARED for r in reports)
        return

    assert expected is not None
    # each leg has its own cause, so sorting never compares the symbols
    legs = [(f"dvp:{i.instruction_id}/bank=CB1", leg.payer, leg.payee, leg.amount.amount, None)
            for i in instructions if (leg := i.money_leg)]
    legs += [(f"dvp:{i.instruction_id}/depository=DP1", leg.deliverer, leg.receiver,
              leg.quantity, leg.symbol)
             for i in instructions if (leg := i.equity_leg)]
    added = ledger.journal[journal_before:]
    assert sorted(legs) == sorted(
        (e.cause, e.src, e.dst, e.amount, e.symbol) for e in added)
    assert clearing.executed_instructions == instructions
    assert all(r.trade.status is TradeStatus.SETTLED for r in reports)
    money, shares = expected
    assert {a: ledger.balance(a).amount for a in ACCOUNTS} == money
    assert {k: ledger.position(*k) for k in shares} == shares
    assert ledger.balance("CC1.ccp") == Money(0)


@pytest.mark.parametrize("netting", [False, True], ids=["gross", "netting"])
def test_cycle_short_on_second_instruction_commits_nothing(netting):
    # acct_a can pay for one of two trades; the reason reads the same under both rules
    clearing, ledger = make_clearing(netting=netting, endow_money=15000, symbols=("S0",))
    reports = [street_trade("acct_a", "acct_b", qty=10, price=1000,
                            buy_order=f"b{i}", sell_order=f"s{i}") for i in range(2)]
    for report in reports:
        clearing.submit_trade(report)
    clearing.clear_rec()
    journal_before = len(ledger.journal)
    snapshot_before = ledger.snapshot()
    with pytest.raises(SettlementFailed) as err:
        clearing.settle_rec()
    assert err.value.instruction.instruction_id == ("CC1-S1" if netting else "CC1-S2")
    assert err.value.failed_leg == "money"
    assert "(acct_a short 5000USD)" in str(err.value)
    assert len(ledger.journal) == journal_before
    assert ledger.snapshot() == snapshot_before
    assert clearing.executed_instructions == []
    assert all(r.trade.status is TradeStatus.CLEARED for r in reports)


def test_dvp_atomicity_gross_failed_leg_leaves_no_journal():
    clearing, ledger = make_clearing(endow_money=10**9, endow_shares=0, symbols=("S0",))
    clearing.submit_trade(street_trade("acct_a", "acct_b", qty=10, price=1000))
    clearing.clear_rec()
    journal_before = len(ledger.journal)
    snapshot_before = ledger.snapshot()
    with pytest.raises(SettlementFailed) as err:
        clearing.settle_rec()
    assert err.value.failed_leg == "equity"
    assert len(ledger.journal) == journal_before
    assert ledger.snapshot() == snapshot_before


def test_dvp_atomicity_netting_failed_leg_leaves_no_journal():
    clearing, ledger = make_clearing(
        netting=True, endow_money=0, endow_shares=10**6, symbols=("S0",))
    clearing.submit_trade(street_trade("acct_a", "acct_b", qty=10, price=1000))
    clearing.clear_rec()
    journal_before = len(ledger.journal)
    snapshot_before = ledger.snapshot()
    with pytest.raises(SettlementFailed) as err:
        clearing.settle_rec()
    assert err.value.failed_leg == "money"
    assert len(ledger.journal) == journal_before
    assert ledger.snapshot() == snapshot_before


def test_gross_instructions_pair_money_and_equity_entries():
    clearing, ledger = make_clearing()
    for i in range(3):
        clearing.submit_trade(
            street_trade("acct_a", "acct_b", qty=5 + i, price=1000,
                         buy_order=f"b{i}", sell_order=f"s{i}"))
    clearing.clear_rec()
    instructions = clearing.settle_rec()
    for instruction in instructions:
        cause = f"dvp:{instruction.instruction_id}"
        money_entries = [e for e in ledger.journal
                         if e.kind == "money" and e.cause.startswith(cause)]
        equity_entries = [e for e in ledger.journal
                          if e.kind == "equity" and e.cause.startswith(cause)]
        assert (len(money_entries) > 0) == (len(equity_entries) > 0)
        assert len(money_entries) == 1 and len(equity_entries) == 1


# -- deferred sides and custodian coverage --------------------------------------

def client_trades(block_order, *quantities):
    """A custodian's client-level trades for one block: its allocation details."""
    return tuple(AllocationDetail(f"A{n}", "fund", f"EC{n}", block_order, "S0", qty, Money(1000))
                 for n, qty in enumerate(quantities, 1))


def test_deferred_side_waits_for_coverage():
    clearing, _ = make_clearing()
    report = street_trade("acct_a", "acct_b", qty=100, price=1000,
                          buy_deferred=True, buy_order="BLOCK1")
    clearing.submit_trade(report)
    assert clearing.clear_rec() == []
    assert clearing.queue_size() == 1

    clearing.submit_client_trades(client_trades("BLOCK1", 35, 25))
    clearing.submit_client_trades(client_trades("OTHER", 40))
    assert clearing.clear_rec() == []          # 60 of 100 covered

    clearing.submit_client_trades(client_trades("BLOCK1", 40))
    obligations = clearing.clear_rec()          # 100 of 100 covered
    assert len(obligations) == 2
    assert clearing.queue_size() == 0


def test_is_order_settled_tracks_street_trades():
    clearing, _ = make_clearing()
    report = street_trade("acct_a", "acct_b", qty=10, price=1000, buy_order="BLOCKX")
    clearing.submit_trade(report)
    assert not clearing.is_order_settled("BLOCKX")
    clearing.clear_rec()
    clearing.settle_rec()
    assert clearing.is_order_settled("BLOCKX")
    assert not clearing.is_order_settled("never_seen")


def test_conservation_across_clearing_cycles():
    rng = random.Random("conserve")
    accounts = ["acct_a", "acct_b", "acct_c"]
    for netting in (False, True):
        clearing, ledger = make_clearing(netting=netting, accounts=accounts)
        start_money = total_money(ledger.snapshot())
        start_positions = total_positions(ledger.snapshot())
        for spec in _random_trades(rng, accounts, ["S0", "S1"], 10):
            clearing.submit_trade(street_trade(**spec))
        clearing.clear_rec()
        clearing.settle_rec()
        assert total_money(ledger.snapshot()) == start_money
        assert total_positions(ledger.snapshot()) == start_positions
