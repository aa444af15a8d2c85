"""`build_ecosystem` against the scenario as the naive reference parser reads it.

On the shipped `.scn` files, on valid texts that Hypothesis writes and on
one large generated text, every declared account must be opened once, in
declaration order by kind, with its endowment; each account must hold its
own positions dict, so that a transfer into one account changes only that
account and marks only it and the payer in the ledger's next snapshot.
"""

import random

import pytest
from hypothesis import given, settings

from naivescenario import parse as naive_parse
from stpsim.assembly import build_ecosystem
from stpsim.data import scenario_path
from stpsim.money import Money
from stpsim.scenarios import SCENARIO_IDS, parse_scenario
from test_scenario_oracle import valid_scenarios


def opening_order(plain):
    """Every account the scenario declares, in the order the build opens them:
    clearing, custodian and broker accounts by participant line, then retail
    clients, then each institution followed by its end clients."""
    participants = plain["participants"]
    return [
        *(f"{name}.ccp" for name in participants.get("clearing_corporation", [])),
        *(f"{name}.omnibus" for name in participants.get("custodian", [])),
        *(f"{name}.house" for name in participants.get("broker", [])),
        *(account for account, _ in plain["retail"]),
        *(name for account, _, _, ends in plain["institutions"] for name in (account, *ends)),
    ]


def check_build(product, text):
    plain = naive_parse(text)
    ledger = build_ecosystem(product, parse_scenario(text)).ledger
    currency = plain["currency"]
    assert list(ledger.accounts) == opening_order(plain)

    endowed = {account: (money, dict(positions))
               for account, money, positions in plain["endowments"]}
    for owner, account in ledger.accounts.items():
        money, positions = endowed.get(owner, (0, {}))
        assert account.owner == owner
        assert (account._money, account._positions) == (Money(money, currency), positions)

    accounts = list(ledger.accounts.values())
    assert len({id(account._positions) for account in accounts}) == len(accounts)

    # a cent and a share into every account in turn, from an account opened for it
    source = "ZZ.oracle"
    ledger.open_account(source, Money(len(accounts), currency), {"ZZ-ORACLE": len(accounts)})
    ledger.snapshot()  # records every opening
    for account in accounts:
        ledger.transfer_money(source, account.owner, Money(1, currency))
        ledger.transfer_equity(source, account.owner, "ZZ-ORACLE", 1)
        assert list(ledger.snapshot()._delta) == [source, account.owner]
    for account in accounts:
        money, positions = endowed.get(account.owner, (0, {}))
        assert (account._money, account._positions) == (
            Money(money + 1, currency), {**positions, "ZZ-ORACLE": 1})


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_shipped_scenario_builds_like_the_reference(product_a, product_b, scenario_id):
    text = scenario_path(scenario_id).read_text()
    check_build(product_a, text)
    check_build(product_b, text)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=valid_scenarios())
def test_valid_scenario_builds_like_the_reference(product_b, text):
    check_build(product_b, text)


def large_text(seed=3, institutions=12, ends=120, retail=40):
    """A valid scenario, its lines shuffled, with `institutions` institutions
    of `ends` end clients each, some accounts endowed, and an `expect:` line
    for every client."""
    rng = random.Random(seed)
    lines = ["scenario: large", "currency: EUR", "symbol: ACME", "symbol: BOLT",
             "broker: BR1", "broker: BR2", "broker: BR3", "custodian: CU1", "custodian: CU2",
             "exchange: X1", "clearing_corporation: CC1", "clearing_bank: CB1",
             "depository: DP1"]
    clients = []
    for n in range(retail):
        clients.append(f"R{n:03d}")
        lines.append(f"retail: R{n:03d} broker=BR{rng.randint(1, 3)}")
    for i in range(institutions):
        names = [f"I{i:02d}E{n:03d}" for n in range(ends)]
        clients += [f"I{i:02d}", *names]
        lines.append(f"institution: I{i:02d} broker=BR{rng.randint(1, 3)} "
                     f"custodian=CU{rng.randint(1, 2)} ends={','.join(names)}")
    for account in rng.sample([*clients, "BR2.house", "CU1.omnibus", "CC1.ccp"], 60):
        lines.append(f"endow: {account} money={rng.randint(0, 10**6)} "
                     f"ACME={rng.randint(0, 500)} BOLT={rng.randint(0, 500)}")
    lines += [f"expect: {client} money={rng.randint(0, 10**6)}" for client in clients]
    rng.shuffle(lines)  # any line order is valid: the text has no order lines
    return "\n".join(lines) + "\n"


def test_large_scenario_builds_like_the_reference(product_b):
    text = large_text()
    plain = naive_parse(text)
    assert len(plain["expected"]) >= 1000
    assert min(len(ends) for *_, ends in plain["institutions"]) >= 100
    check_build(product_b, text)
