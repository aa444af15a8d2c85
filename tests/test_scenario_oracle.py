"""The production scenario parser against the naive reference parser.

On the shipped `.scn` files, on the benchmark workloads' large seed-7
scenarios and on valid texts that Hypothesis writes, `parse_scenario` and
`naivescenario.parse` must give field-for-field equal records.
"""

import pytest
from hypothesis import given, settings, strategies as st

from naivescenario import parse as naive_parse
from perfbench.workloads import WORKLOADS
from stpsim.data import scenario_path
from stpsim.scenarios import SCENARIO_IDS, parse_scenario
from test_pinned_outputs import LARGE


def as_plain(scenario):
    """The production Scenario in the reference parser's plain shape."""
    return {
        "scenario_id": scenario.scenario_id,
        "currency": scenario.currency,
        "symbols": list(scenario.symbols),
        "participants": {role.value: list(ids) for role, ids in scenario.participants.items()},
        "retail": [(c.account, c.broker) for c in scenario.retail_clients],
        "institutions": [(i.account, i.broker, i.custodian, list(i.end_clients))
                         for i in scenario.institutions],
        "endowments": [(e.account, e.money, list(e.positions)) for e in scenario.endowments],
        "orders": [(o.index, o.client, o.side.value, o.quantity, o.symbol, o.order_type.value,
                    o.price, o.cap) for o in scenario.orders],
        "allocations": [(a.institution, a.order_index, list(a.splits))
                        for a in scenario.allocations],
        "expected": [(x.account, x.money, list(x.positions)) for x in scenario.expected],
    }


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_shipped_scenario_parses_like_the_reference(scenario_id):
    text = scenario_path(scenario_id).read_text()
    assert as_plain(parse_scenario(text)) == naive_parse(text)


@pytest.mark.parametrize("name", LARGE)
def test_large_workload_parses_like_the_reference(name):
    text = WORKLOADS[name].scenario_text(7, **LARGE[name])
    assert as_plain(parse_scenario(text)) == naive_parse(text)


# -- valid texts ------------------------------------------------------------------

SYMBOLS = ("ACME", "BOLT", "CRUX")
amounts = st.integers(0, 10**6)
# a comment may hold the format's own separators
comments = st.text(alphabet="abc :=#,-", max_size=8).map(lambda text: "#" + text)
gaps = st.sampled_from([" ", "  ", "\t", " \t "])


def _key_values(draw, pairs):
    """'key=value' words for the pairs, with some pairs said twice: first
    with a throwaway value, then with the real one, which the parser keeps."""
    words = []
    for key, value in pairs:
        if draw(st.booleans()) and draw(st.booleans()):
            words.append(f"{key}={draw(amounts)}")
        words.append(f"{key}={value}")
    return words


def _holdings(draw, symbols):
    pairs = []
    if draw(st.booleans()):
        pairs.append(("money", draw(amounts)))
    for symbol in draw(st.lists(st.sampled_from(symbols), unique=True, max_size=2)):
        pairs.append((symbol, draw(amounts)))
    return pairs


@st.composite
def valid_scenarios(draw):
    """The text of a valid scenario: every declaration rule holds."""
    brokers = [f"BR{n}" for n in range(1, draw(st.integers(1, 3)) + 1)]
    custodians = [f"CU{n}" for n in range(1, draw(st.integers(0, 2)) + 1)]
    lines = [["scenario:", f"s{draw(st.integers(0, 99))}"]]
    if draw(st.booleans()):
        lines.append(["currency:", draw(st.sampled_from(["USD", "EUR"]))])
    symbols = SYMBOLS[:draw(st.integers(1, 3))]
    lines += [["symbol:", symbol] for symbol in symbols]
    lines += [["broker:", broker] for broker in brokers]
    lines += [["custodian:", custodian] for custodian in custodians]
    lines += [["exchange:", f"X{n}"] for n in range(1, draw(st.integers(1, 2)) + 1)]
    lines += [["clearing_corporation:", "CC1"]]
    lines += [["clearing_bank:", f"CB{n}"] for n in range(1, draw(st.integers(1, 2)) + 1)]
    lines += [["depository:", f"DP{n}"] for n in range(1, draw(st.integers(1, 2)) + 1)]

    retail = [f"R{n}" for n in range(1, draw(st.integers(0, 3)) + 1)]
    for client in retail:
        lines.append(["retail:", client, f"broker={draw(st.sampled_from(brokers))}"])
    ends = {}
    for n in range(1, (draw(st.integers(0, 2)) if custodians else 0) + 1):
        institution = f"I{n}"
        ends[institution] = [f"I{n}E{m}" for m in range(1, draw(st.integers(1, 3)) + 1)]
        fields = [f"broker={draw(st.sampled_from(brokers))}",
                  f"custodian={draw(st.sampled_from(custodians))}",
                  f"ends={','.join(ends[institution])}"]
        lines.append(["institution:", institution, *draw(st.permutations(fields))])

    accounts = [*retail, *ends, *(end for names in ends.values() for end in names),
                *(f"{b}.house" for b in brokers), *(f"{c}.omnibus" for c in custodians),
                "CC1.ccp"]
    for account in draw(st.lists(st.sampled_from(accounts), unique=True, max_size=4)):
        lines.append(["endow:", account, *_key_values(draw, _holdings(draw, symbols))])

    clients = [*retail, *ends]
    orders = []
    if clients:
        for _ in range(draw(st.integers(0, 6))):
            client = draw(st.sampled_from(clients))
            kind = draw(st.sampled_from(["market", "limit", "ioc", "fok"]))
            extras = []
            if draw(st.booleans()):
                extras.append(str(draw(amounts)))
            if draw(st.booleans()):
                extras.append(f"cap={draw(amounts)}")
            orders.append(client)
            lines.append(["order:", client, draw(st.sampled_from(["buy", "sell"])),
                          str(draw(st.integers(0, 10**4))), draw(st.sampled_from(symbols)),
                          kind, *draw(st.permutations(extras))])
    for index, client in enumerate(orders, start=1):
        if client in ends and draw(st.booleans()):
            splits = [(end, draw(st.integers(0, 500)))
                      for end in draw(st.lists(st.sampled_from(ends[client]), unique=True))]
            words = _key_values(draw, splits)
            words.insert(draw(st.integers(0, len(words))), f"order={index}")
            lines.append(["allocate:", client, *words])

    for account in draw(st.lists(st.sampled_from(accounts), unique=True, max_size=4)):
        lines.append(["expect:", account, *_key_values(draw, _holdings(draw, symbols))])

    # any order of lines is valid as long as the orders keep theirs
    shuffled = draw(st.permutations(lines))
    order_lines = iter([line for line in lines if line[0] == "order:"])
    lines = [next(order_lines) if line[0] == "order:" else line for line in shuffled]

    text = []
    for words in lines:
        if draw(st.booleans()) and draw(st.booleans()):
            text.append(draw(st.sampled_from(["", "   ", draw(comments)])))
        key = words[0] if draw(st.booleans()) else words[0][:-1] + " :"
        line = draw(gaps).join([key, *words[1:]])
        if draw(st.booleans()) and draw(st.booleans()):
            line = draw(gaps) + line + draw(gaps) + draw(comments)
        text.append(line)
    return "\n".join(text) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=valid_scenarios())
def test_valid_scenario_parses_like_the_reference(text):
    assert as_plain(parse_scenario(text)) == naive_parse(text)
