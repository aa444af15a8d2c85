"""A from-scratch reference parser for `.scn` files, for oracle tests.

Deliberately naive and happy-path only: it assumes the file is valid and
checks nothing. Every record is plain data (strings, ints, lists and
tuples); the only shared vocabulary with the production parser is the
file format itself:

- ``#`` starts a comment, blank lines are skipped, and a line is
  ``key: words...`` with the words split on whitespace;
- order lines are numbered from 1 in file order;
- after an order's five fixed words, ``cap=N`` is the cap and any other
  word is the price; a later one replaces an earlier one;
- in ``key=value`` words a repeated key keeps its last value and the place
  of its first appearance.
"""

ORDER_TYPES = {
    "market": "market",
    "limit": "limit",
    "ioc": "immediate_or_cancel",
    "fok": "fill_or_kill",
}

PARTICIPANT_KEYS = ("broker", "custodian", "exchange", "clearing_corporation",
                    "clearing_bank", "depository")


def key_values(words):
    """[(key, value)] for 'key=value' words, last value wins, first place kept."""
    keys = []
    last = {}
    for word in words:
        key, value = word.split("=", 1)
        if key not in keys:
            keys.append(key)
        last[key] = value
    return [(key, last[key]) for key in keys]


def holdings(words):
    """(money, [(symbol, quantity)]) from 'money=N' and 'SYM=N' words."""
    money = 0
    positions = []
    for key, value in key_values(words):
        if key == "money":
            money = int(value)
        else:
            positions.append((key, int(value)))
    return money, positions


def parse(text):
    scenario = {
        "scenario_id": "", "currency": "USD", "symbols": [],
        "participants": {}, "retail": [], "institutions": [], "endowments": [],
        "orders": [], "allocations": [], "expected": [],
    }
    for line in text.split("\n"):
        line = line.split("#")[0]
        if line.strip() == "":
            continue
        key, rest = line.split(":", 1)
        key = key.strip()
        words = rest.split()

        if key == "scenario":
            scenario["scenario_id"] = words[0]
        elif key == "currency":
            scenario["currency"] = words[0]
        elif key == "symbol":
            scenario["symbols"].append(words[0])
        elif key in PARTICIPANT_KEYS:
            scenario["participants"].setdefault(key, []).append(words[0])
        elif key == "retail":
            fields = dict(key_values(words[1:]))
            scenario["retail"].append((words[0], fields["broker"]))
        elif key == "institution":
            fields = dict(key_values(words[1:]))
            scenario["institutions"].append(
                (words[0], fields["broker"], fields["custodian"], fields["ends"].split(",")))
        elif key == "endow":
            money, positions = holdings(words[1:])
            scenario["endowments"].append((words[0], money, positions))
        elif key == "order":
            price = None
            cap = None
            for word in words[5:]:
                if word.startswith("cap="):
                    cap = int(word[len("cap="):])
                else:
                    price = int(word)
            scenario["orders"].append((
                len(scenario["orders"]) + 1,    # index
                words[0],                       # client
                words[1],                       # side
                int(words[2]),                  # quantity
                words[3],                       # symbol
                ORDER_TYPES[words[4]],          # order type
                price,
                cap,
            ))
        elif key == "allocate":
            pairs = key_values(words[1:])
            order = [int(value) for key, value in pairs if key == "order"][0]
            splits = [(key, int(value)) for key, value in pairs if key != "order"]
            scenario["allocations"].append((words[0], order, splits))
        elif key == "expect":
            money, positions = holdings(words[1:])
            scenario["expected"].append((words[0], money, positions))
    return scenario
