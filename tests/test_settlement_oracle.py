"""The retail post-trade path against a naive reference built from dicts of ints.

Hypothesis writes retail order flows that fill in full, in part or not at
all: limit, IOC, FOK and market orders, buys prepaid at their limit or cap
and sells prepaid in shares, over two symbols and two brokers, under SECO A
(trade-for-trade clearing) and SECO B (multilateral netting). The system
runs each flow end to end. The reference takes the orders and the trades the
exchange executed, and predicts from the scenario's rules alone:

- every prepayment, DVP, credit and refund journal entry, in order;
- every account's final money and positions;
- that settling the brokers a second time moves nothing.

It imports nothing from the broker, clearing or ledger modules.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from conftest import live_balances
from stpsim.assembly import build_ecosystem
from stpsim.data import catalog_path, config_path
from stpsim.features import derive_product, parse_configuration, parse_feature_model
from stpsim.lifecycle import ScenarioRunner
from stpsim.scenarios import parse_scenario

SYMBOLS = ("ACME", "BOLT")
BROKERS = ("BR1", "BR2")
CCP = "CC1.ccp"
# each product's clearing rule and the broker's bound transfer methods, as
# its .cfg file names them
RULES = {
    "seco_a": ("trade_for_trade", "BrokerBookEntryPayment", "BrokerBookEntryEquityTransfer"),
    "seco_b": ("netting", "BrokerBankWirePayment", "BrokerCertificateEquityTransfer"),
}


@lru_cache(maxsize=None)
def product(name):
    model = parse_feature_model(catalog_path().read_text())
    return derive_product(model, parse_configuration(config_path(name).read_text()),
                          name.upper())


# -- the flows -------------------------------------------------------------------

orders = st.lists(st.tuples(
    st.integers(0, 3),                                  # client
    st.sampled_from(["buy", "sell"]),
    st.integers(1, 40),                                 # quantity
    st.sampled_from(SYMBOLS),
    st.sampled_from(["limit", "limit", "ioc", "fok", "market"]),
    st.integers(95, 105),                               # limit, or a market buy's cap
), min_size=1, max_size=16)


@st.composite
def flows(draw):
    """(product name, client -> broker, orders, client -> spare money)."""
    clients = [f"RC{n}" for n in range(1, draw(st.integers(2, 4)) + 1)]
    brokers = {client: draw(st.sampled_from(BROKERS)) for client in clients}
    flow = [(clients[c % len(clients)], side, qty, symbol, kind, price)
            for c, side, qty, symbol, kind, price in draw(orders)]
    spare = {client: draw(st.integers(0, 30)) for client in clients}
    return draw(st.sampled_from(sorted(RULES))), brokers, flow, spare


def prepaid(side, qty, price):
    """Minor units of money for a buy, shares for a sell."""
    return price * qty if side == "buy" else qty


def endowments(brokers, flow, spare):
    """client -> {"money": int, symbol: int}: every prepayment plus the spare."""
    held = {client: {"money": spare[client], **{s: spare[client] for s in SYMBOLS}}
            for client in brokers}
    for client, side, qty, symbol, kind, price in flow:
        held[client]["money" if side == "buy" else symbol] += prepaid(side, qty, price)
    return held


def scenario_text(brokers, flow, held):
    lines = ["scenario: settlement_oracle", "currency: USD",
             *(f"symbol: {s}" for s in SYMBOLS), *(f"broker: {b}" for b in BROKERS),
             "exchange: X1", "clearing_corporation: CC1", "clearing_bank: CB1",
             "depository: DP1"]
    lines += [f"retail: {client} broker={broker}" for client, broker in brokers.items()]
    lines += ["endow: " + client + "".join(f" {key}={value}" for key, value in amounts.items())
              for client, amounts in held.items()]
    for client, side, qty, symbol, kind, price in flow:
        if kind == "market":
            tail = f" cap={price}" if side == "buy" else ""
        else:
            tail = f" {price}"
        lines.append(f"order: {client} {side} {qty} {symbol} {kind}{tail}")
    return "\n".join(lines) + "\n"


# -- the reference -----------------------------------------------------------------

def predict(rule, money_method, equity_method, brokers, flow, held, trades):
    """(journal entries in order, final balances) for a completed run.

    `trades` are (trade id, buy order id, sell order id, symbol, price,
    quantity) in execution order. A journal entry is (kind, src, dst,
    amount, symbol or None, cause).
    """
    journal = []

    def money(src, dst, units, cause):
        journal.append(("money", src, dst, units, None, f"{cause}/method={money_method}"))

    def shares(src, dst, symbol, qty, cause):
        journal.append(("equity", src, dst, qty, symbol, f"{cause}/method={equity_method}"))

    # intake: each broker numbers its orders; each order prepays its house
    numbered = {broker: 0 for broker in BROKERS}
    placed = []  # (order id, client, house, side, qty, symbol, kind, price)
    for client, side, qty, symbol, kind, price in flow:
        broker = brokers[client]
        numbered[broker] += 1
        order_id = f"{broker}-O{numbered[broker]}"
        house = f"{broker}.house"
        placed.append((order_id, client, house, side, qty, symbol, kind, price))
        if side == "buy":
            money(client, house, prepaid(side, qty, price), f"prepay:{order_id}")
        else:
            shares(client, house, symbol, qty, f"prepay:{order_id}")
    house_of = {order[0]: order[2] for order in placed}

    # clearing and DVP
    if rule == "trade_for_trade":
        for number, (_, buy, sell, symbol, price, qty) in enumerate(trades, 1):
            cause = f"dvp:CC1-S{number}"
            journal.append(("money", house_of[buy], house_of[sell], price * qty, None,
                            f"{cause}/bank=CB1"))
            journal.append(("equity", house_of[sell], house_of[buy], qty, symbol,
                            f"{cause}/depository=DP1"))
    else:
        net = {}  # (account, symbol) -> [shares in, money in]
        for _, buy, sell, symbol, price, qty in trades:
            for account, sign in ((house_of[buy], 1), (house_of[sell], -1)):
                entry = net.setdefault((account, symbol), [0, 0])
                entry[0] += sign * qty
                entry[1] -= sign * price * qty
        into_ccp, out_of_ccp = [], []
        number = 0
        for (account, symbol), (qty, units) in sorted(net.items()):
            if qty == 0 and units == 0:
                continue
            number += 1
            cause = f"dvp:CC1-S{number}"
            if units:
                leg = ("money", account, CCP, -units, None, f"{cause}/bank=CB1") if units < 0 \
                    else ("money", CCP, account, units, None, f"{cause}/bank=CB1")
                (into_ccp if units < 0 else out_of_ccp).append(leg)
            if qty:
                leg = ("equity", account, CCP, -qty, symbol, f"{cause}/depository=DP1") \
                    if qty < 0 else ("equity", CCP, account, qty, symbol,
                                     f"{cause}/depository=DP1")
                (into_ccp if qty < 0 else out_of_ccp).append(leg)
        journal += into_ccp + out_of_ccp

    # crediting: broker by broker, order by order, each trade once, then the
    # escrow of a terminal order comes back less what the street used
    fills = {}
    for trade in trades:
        for order_id in trade[1:3]:
            fills.setdefault(order_id, []).append(trade)
    for broker in BROKERS:
        for order_id, client, house, side, qty, symbol, kind, price in placed:
            if not order_id.startswith(broker + "-"):
                continue
            mine = fills.get(order_id, [])
            for trade_id, _, _, _, fill_price, fill_qty in mine:
                if side == "buy":
                    shares(house, client, symbol, fill_qty, f"settle:{trade_id}")
                else:
                    money(house, client, fill_price * fill_qty, f"settle:{trade_id}")
            filled = sum(fill_qty for *_, fill_qty in mine)
            if filled < qty and kind == "limit":
                continue                        # rests on the book; escrow stays
            if side == "buy":
                unused = prepaid(side, qty, price) - sum(p * q for *_, p, q in mine)
                if unused:
                    money(house, client, unused, f"refund:{order_id}")
            elif qty - filled:
                shares(house, client, symbol, qty - filled, f"refund:{order_id}")

    balances = {account: dict(amounts) for account, amounts in held.items()}
    for kind, src, dst, amount, symbol, _ in journal:
        key = "money" if kind == "money" else symbol
        for account, signed in ((src, -amount), (dst, amount)):
            row = balances.setdefault(account, {})
            row[key] = row.get(key, 0) + signed
    return journal, balances


# -- the comparison ----------------------------------------------------------------

def run(flow):
    """The flow run end to end: (ecosystem, report, endowments)."""
    name, brokers, orders_, spare = flow
    held = endowments(brokers, orders_, spare)
    scenario = parse_scenario(scenario_text(brokers, orders_, held))
    eco = build_ecosystem(product(name), scenario)
    return eco, ScenarioRunner(eco, scenario).run(), held


def nonzero(balances):
    return {owner: {key: value for key, value in row.items() if value}
            for owner, row in balances.items()}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(flow=flows())
def test_post_trade_journal_and_finals_match_the_reference(flow):
    name, brokers, orders_, _ = flow
    eco, report, held = run(flow)
    assert report.aborted is None

    trades = [(t.trade_id, t.buy_order_id, t.sell_order_id, t.symbol, t.price.amount,
               t.quantity) for t in eco.exchanges["X1"].executed]
    journal, balances = predict(*RULES[name], brokers, orders_, held, trades)
    got = [(e.kind, e.src, e.dst, e.amount, e.symbol, e.cause) for e in eco.ledger.journal]
    assert got == journal
    assert [e.seq for e in eco.ledger.journal] == list(range(1, len(journal) + 1))
    live = nonzero({owner: {"money": money.amount, **positions}
                    for owner, (money, positions) in live_balances(eco.ledger).items()})
    want = nonzero(balances)
    for owner in live.keys() | want.keys():
        assert live.get(owner, {}) == want.get(owner, {}), owner

    # settling again credits and refunds nothing
    for broker in eco.brokers.values():
        assert broker.settle_retail_rec() == 0
    assert len(eco.ledger.journal) == len(journal)


def test_flows_reach_every_post_trade_case():
    """The flows the test above draws reach each case of the path."""
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(flow=flows())
    def survey(flow):
        eco, _, _ = run(flow)
        filled = {}
        for trade in eco.exchanges["X1"].executed:
            for order_id in (trade.buy_order_id, trade.sell_order_id):
                filled[order_id] = filled.get(order_id, 0) + trade.quantity
        seen.add(flow[0])
        for broker in eco.brokers.values():
            for order_id, order in broker.orders.items():
                got = filled.get(order_id, 0)
                seen.add((order.side.value, order.order_type.value,
                          "full" if got == order.quantity else "part" if got else "none"))
        seen.update(entry.cause.partition(":")[0] for entry in eco.ledger.journal)
        if any(entry.src == CCP for entry in eco.ledger.journal):
            seen.add("ccp pays")

    survey()
    assert {"seco_a", "seco_b", "prepay", "dvp", "settle", "refund", "ccp pays"} <= seen
    for side in ("buy", "sell"):
        for kind in ("limit", "market", "immediate_or_cancel"):
            assert {(side, kind, "full"), (side, kind, "part")} <= seen, (side, kind)
        assert {(side, "fill_or_kill", "full"), (side, "fill_or_kill", "none")} <= seen
