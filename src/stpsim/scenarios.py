"""Scenario definitions: who participates, who holds what, who orders what.

Scenario files (``.scn``) are line-oriented UTF-8 with ``#`` comments:

    scenario: <id>
    currency: <code>
    symbol: <SYM>                       (repeatable)
    broker|exchange|clearing_corporation|clearing_bank|depository|custodian: <ID>
    retail: <ACCOUNT> broker=<ID>
    institution: <ACCOUNT> broker=<ID> custodian=<ID> ends=<A1,A2,...>
    endow: <ACCOUNT> [money=<cents>] [<SYM>=<qty>]...
    order: <ACCOUNT> <buy|sell> <qty> <SYM> <market|limit|ioc|fok> [<price>]
           [cap=<cents>] [ref=<id>]
    allocate: <ACCOUNT> order=<n> <END=QTY>...
    expect: <ACCOUNT> [money=<cents>] [<SYM>=<qty>]...

Order lines are numbered from 1 in file order; ``allocate`` references them.
After an order's five fixed words, ``cap=N`` is the cap, ``ref=ID`` the
client's own reference for the order (FIX's ClOrdID), and any other word
is the price; a later one replaces an earlier one. Under the broker's
``DuplicateOrderCheck`` a second order from one client with one ``ref`` is
rejected as ``DuplicateOrder``; an order without one is never checked. A
repeated ``key=value`` part on one line keeps its last value. The key of a
``key=value`` part, and each name in ``ends``, must not be empty. No line
may hold a ``|`` (the machine report's field separator) but in its comment.

Declaration rules; a line that breaks one fails parsing with its number:

- a ``scenario:``, ``currency:``, ``symbol:`` or participant line takes
  exactly one value;
- a scenario has at most one ``scenario:`` and one ``currency:`` line, and
  declares each symbol, and each participant id per role, on one line only;
- every scenario has exactly one ``clearing_corporation:`` line, and at
  least one ``clearing_bank:`` and one ``depository:`` line (a missing one
  is reported on line 1, like a missing ``scenario:`` header);
- every account is declared once: each client and end-client account by
  its ``retail:`` or ``institution:`` line, and the participant accounts
  ``<broker>.house``, ``<custodian>.omnibus`` and ``<clearing>.ccp`` by
  their participant lines;
- every broker, custodian, client, institution, order, endowed account and
  expected account a line names is declared somewhere in the file, before
  or after it;
- every symbol an order, or an ``endow:`` or ``expect:`` position, names is
  declared by a ``symbol:`` line, before or after it;
- an account is endowed on at most one line, with no negative amount, and
  expected on at most one line;
- a ``retail:`` or ``institution:`` line carries no key besides its own;
- an order is allocated on at most one line, by the institution that
  placed it, and only to that institution's ``ends``.

All orders run before all allocations (the street execution must exist
before a manager can split it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .money import Money, _new
from .registry import ParticipantRole
from .trading import OrderType, Side


class ScenarioFormatError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


SCENARIO_IDS = ("retail_retail", "retail_institutional", "institutional_institutional")


def house_account(broker_id: str) -> str:
    return f"{broker_id}.house"


def omnibus_account(custodian_id: str) -> str:
    return f"{custodian_id}.omnibus"


def ccp_account(clearing_id: str) -> str:
    return f"{clearing_id}.ccp"


# the ledger account each participant line declares, by role
_PARTICIPANT_ACCOUNTS = {"broker": house_account, "custodian": omnibus_account,
                         "clearing_corporation": ccp_account}
# the roles a scenario cannot run without
_REQUIRED_ROLES = ("clearing_corporation", "clearing_bank", "depository")

# A pick says which names `_Line.names` takes from a line: a word's index, a
# key (each name of a list), the line's kind, or every key the row does not
# list. `_ONE_VALUE` marks a row that takes no key at all.
_KIND, _OTHER_KEYS, _ONE_VALUE = "<kind>", "<other keys>", "<one value>"


class _Line(NamedTuple):
    """One kind of scenario line."""
    words: tuple[str, ...]  # its positional words, as a line short of one names them
    # (index, label, read) of each word that is not a name: `read` gives its
    # value, or raises KeyError for an unknown <label> or ValueError for a bad integer
    types: tuple = ()
    keys: dict = {}  # each key it takes -> int, str, or the label of each name in a list
    required: tuple[str, ...] = ()  # keys it must carry, in the order a missing one is reported
    # a word that is none of `keys`: with `int`, another key, its value an
    # integer; with a key's name, that key's integer value; with None, refused
    other: type | str | None = None
    # (pick, label, verb): each picked name is a <label>, which this line declares
    # ("declared") or some line must declare. Under any verb but "named", a second
    # line giving the name fails with "<label> <name> already <verb> on line n".
    names: tuple = ()


# The grammar, one row per line kind. `money=` on endow: and expect: lines is the
# account's money, any other key there a symbol, and on allocate: an end client.
_LINES = {
    "scenario": _Line(("id",), names=((_KIND, "", "declared"),)),
    "currency": _Line(("code",), names=((_KIND, "", "declared"),)),
    "symbol": _Line(("symbol",), names=((0, "symbol", "declared"),)),
    **{role.value: _Line(("id",), names=((0, role.value, "declared"),))
       for role in ParticipantRole},
    "retail": _Line(("account",), keys={"broker": str}, required=("broker",),
                    names=((0, "account", "declared"), (0, "client", "declared"),
                           ("broker", "broker", "named"))),
    "institution": _Line(
        ("account",), keys={"broker": str, "custodian": str, "ends": "end client"},
        required=("broker", "custodian", "ends"),
        names=((0, "account", "declared"), ("ends", "account", "declared"),
               (0, "client", "declared"), (0, "institution", "declared"),
               ("broker", "broker", "named"), ("custodian", "custodian", "named"))),
    "endow": _Line(("account",), keys={"money": int}, other=int,
                   names=((0, "account", "endowed"), (_OTHER_KEYS, "symbol", "named"))),
    "expect": _Line(("account",), keys={"money": int}, other=int,
                    names=((0, "account", "expected"), (_OTHER_KEYS, "symbol", "named"))),
    "allocate": _Line(("account",), keys={"order": int}, required=("order",), other=int,
                      names=(("order", "order", "allocated"), (0, "institution", "named"))),
    "order": _Line(
        ("client", "side", "qty", "symbol", "type"),
        types=((1, "side", {side.value: side for side in Side}.__getitem__), (2, "", int),
               (4, "order type", {"market": OrderType.MARKET, "limit": OrderType.LIMIT,
                                  "ioc": OrderType.IMMEDIATE_OR_CANCEL,
                                  "fok": OrderType.FILL_OR_KILL}.__getitem__)),
        keys={"cap": int, "ref": str}, other="price",
        names=((0, "client", "named"), (3, "symbol", "named"))),
}
# every (label, verb) in the table; a parse keeps a register of names for each
_REGISTERS = tuple(dict.fromkeys(
    (label, verb) for row in _LINES.values() for _, label, verb in row.names))


def _plan(row: _Line) -> tuple:
    """`row` as the reader unpacks it: each pick with its register's index and
    whether a name is given once only, word picks apart, other keys' register."""
    picks = [(pick, _REGISTERS.index((label, verb)), verb != "named")
             for pick, label, verb in row.names if pick != _OTHER_KEYS]
    others = [_REGISTERS.index((label, verb)) for pick, label, verb in row.names
              if pick == _OTHER_KEYS]
    return (len(row.words), row.types, row.keys, row.required,
            row.other if row.other.__class__ is str else None,
            _OTHER_KEYS if row.other is int else None if row.keys else _ONE_VALUE,
            others[0] if others else None,
            tuple(entry for entry in picks if entry[0].__class__ is int),
            tuple(entry for entry in picks if entry[0].__class__ is not int))


_PLANS = {key: _plan(row) for key, row in _LINES.items()}


class RetailClient(NamedTuple):
    account: str
    broker: str


class Institution(NamedTuple):
    account: str
    broker: str
    custodian: str
    end_clients: tuple[str, ...]


class Endowment(NamedTuple):
    account: str
    money: int
    positions: tuple[tuple[str, int], ...]


class OrderAction(NamedTuple):
    index: int
    client: str
    side: Side
    quantity: int
    symbol: str
    order_type: OrderType
    price: int | None
    cap: int | None
    ref: str | None = None


class AllocateAction(NamedTuple):
    institution: str
    order_index: int
    splits: tuple[tuple[str, int], ...]


class ExpectedBalance(NamedTuple):
    account: str
    money: int
    positions: tuple[tuple[str, int], ...]


@dataclass
class Scenario:
    scenario_id: str
    currency: str = "USD"
    symbols: tuple[str, ...] = ()
    participants: dict[ParticipantRole, tuple[str, ...]] = field(default_factory=dict)
    retail_clients: tuple[RetailClient, ...] = ()
    institutions: tuple[Institution, ...] = ()
    endowments: tuple[Endowment, ...] = ()
    orders: tuple[OrderAction, ...] = ()
    allocations: tuple[AllocateAction, ...] = ()
    expected: tuple[ExpectedBalance, ...] = ()
    # client account -> broker, and institution account -> institution; built
    # from the client tuples on construction (also by `dataclasses.replace`),
    # and read in place, per order, by `lifecycle.ScenarioRunner`
    _brokers: dict[str, str] = field(init=False, repr=False, compare=False)
    _institutions: dict[str, Institution] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._brokers = {}
        for client in (*self.retail_clients, *self.institutions):
            self._brokers.setdefault(client.account, client.broker)
        self._institutions = {}
        for institution in self.institutions:
            self._institutions.setdefault(institution.account, institution)

    def participant_ids(self, role: ParticipantRole) -> tuple[str, ...]:
        return self.participants.get(role, ())

    def institution(self, account: str) -> Institution:
        """The first institution declared under `account`."""
        return self._institutions[account]  # KeyError(account) if unknown

    def money(self, amount: int) -> Money:
        return Money(amount, self.currency)


def _already(label: str, verb: str, name, first: int, line_no: int) -> ScenarioFormatError:
    """The error for a name registered a second time. `label` names it
    (``account 'A'``, ``order 2``); empty, the bare name shows."""
    shown = f"{label} {name!r}" if label else name
    return ScenarioFormatError(f"{shown} already {verb} on line {first}", line_no)


def parse_scenario(text: str) -> Scenario:
    header: dict[str, str] = {}
    retail, institutions, endowments, orders, allocations, expected = [], [], [], [], [], []
    registers: list[dict] = [{} for _ in _REGISTERS]  # name -> the first line giving it
    accounts = registers[_REGISTERS.index(("account", "declared"))]
    last = None  # the key of the line before, whose plan is unpacked

    for line_no, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.partition("#")[0]
        if "|" in line:
            raise ScenarioFormatError(
                "'|' is reserved: it separates the machine report's fields", line_no)
        raw, colon, rest = line.partition(":")
        if not colon:
            if line.strip():
                raise ScenarioFormatError(f"expected 'key: value', got {line.strip()!r}", line_no)
            continue
        parts = rest.split()
        if not parts:
            raise ScenarioFormatError(f"{raw.strip()!r} needs a value", line_no)
        if raw != last:
            key, last = raw.strip(), raw
            plan = _PLANS.get(key)
            if plan is None:
                raise ScenarioFormatError(f"unknown directive {key!r}", line_no)
            count, types, keys, required, bare, other, others_named, word_names, key_names = plan
        if len(parts) < count:
            raise ScenarioFormatError(f"{key} needs: {' '.join(_LINES[key].words)}", line_no)

        pairs = {}
        try:  # `value` holds the text being read, for the error
            for index, label, read in types:
                value = parts[index]
                parts[index] = read(value)
            for part in parts[count:]:
                if bare and ("=" not in part or part.partition("=")[0] not in keys):
                    value = part
                    pairs[bare] = int(part)
                    continue
                name, eq, value = part.partition("=")
                kind = keys.get(name, other) if eq else other
                if kind is int:
                    pairs[name] = int(value)
                elif kind is _OTHER_KEYS and eq and name:
                    pairs[name] = int(value)
                    if others_named is not None:  # not an allocate: line's end client
                        registers[others_named].setdefault(name, line_no)
                elif kind is str:
                    pairs[name] = value
                elif kind is _ONE_VALUE:
                    raise ScenarioFormatError(
                        f"{key!r} takes one value, got {' '.join(parts)!r}", line_no)
                elif not (eq and name):
                    raise ScenarioFormatError(f"expected key=value, got {part!r}", line_no)
                elif kind is None:
                    raise ScenarioFormatError(f"unknown key {name!r}", line_no)
                else:  # a list of names, `kind` labelling each
                    names = tuple(value.split(","))
                    if "" in names:
                        raise ScenarioFormatError(
                            f"empty {kind} name in {name}={value!r}", line_no)
                    pairs[name] = names
        except KeyError:
            raise ScenarioFormatError(f"unknown {label} {value!r}", line_no) from None
        except ValueError:
            raise ScenarioFormatError(f"bad integer {value!r}", line_no) from None
        for name in required:
            if name not in pairs:
                raise ScenarioFormatError(f"missing {name}=", line_no)
        for index, register, once in word_names:
            given, name = registers[register], parts[index]
            if name not in given:
                given[name] = line_no
            elif once:
                raise _already(*_REGISTERS[register], name, given[name], line_no)
        for pick, register, once in key_names:
            given, value = registers[register], key if pick == _KIND else pairs[pick]
            for name in value if value.__class__ is tuple else (value,):
                if name not in given:
                    given[name] = line_no
                elif once:
                    raise _already(*_REGISTERS[register], name, given[name], line_no)

        if key == "order":
            orders.append(_new(OrderAction, (
                len(orders) + 1, parts[0], parts[1], parts[2], parts[3], parts[4],
                pairs.get("price"), pairs.get("cap"), pairs.get("ref"))))
        elif key == "expect":
            expected.append(_new(ExpectedBalance, (
                parts[0], pairs.pop("money", 0), tuple(pairs.items()))))
        elif key == "endow":
            if pairs and min(pairs.values()) < 0:
                name = next(name for name, amount in pairs.items() if amount < 0)
                raise ScenarioFormatError(
                    f"negative endowment {name}={pairs[name]} for {parts[0]!r}", line_no)
            endowments.append(_new(Endowment, (
                parts[0], pairs.pop("money", 0), tuple(pairs.items()))))
        elif key == "retail":
            retail.append(_new(RetailClient, (parts[0], pairs["broker"])))
        elif key == "allocate":
            allocations.append(_new(AllocateAction, (
                parts[0], pairs.pop("order"), tuple(pairs.items()))))
        elif key == "institution":
            institutions.append(_new(Institution, (
                parts[0], pairs["broker"], pairs["custodian"], pairs["ends"])))
        elif key in ("scenario", "currency"):
            header[key] = parts[0]
        elif key != "symbol":  # a participant line
            ids = registers[_REGISTERS.index((key, "declared"))]
            if key == "clearing_corporation" and len(ids) > 1:
                first, first_line = next(iter(ids.items()))
                raise ScenarioFormatError(
                    f"second clearing_corporation {parts[0]!r} "
                    f"({first!r} declared on line {first_line})", line_no)
            if key in _PARTICIPANT_ACCOUNTS:
                name = _PARTICIPANT_ACCOUNTS[key](parts[0])
                if name in accounts:
                    raise _already("account", "declared", name, accounts[name], line_no)
                accounts[name] = line_no

    if "scenario" not in header:
        raise ScenarioFormatError("missing 'scenario:' header", 1)
    declared = {label: names for (label, verb), names in zip(_REGISTERS, registers)
                if verb == "declared"}
    declared["order"] = range(1, len(orders) + 1)  # an order line declares its number
    # The expected accounts are checked after the roles, whose lines declare
    # the participant accounts an expect: line names.
    late, line_no, kind, name = min(
        [(verb == "expected", names[name], label, name)
         for (label, verb), names in zip(_REGISTERS, registers) if verb != "declared"
         for name in names.keys() - declared[label]], default=(None, 0, "", ""))
    if late is False:
        raise ScenarioFormatError(f"undeclared {kind} {name!r}", line_no)
    ends = {institution.account: set(institution.end_clients) for institution in institutions}
    allocated = registers[_REGISTERS.index(("order", "allocated"))]
    for institution, index, splits in allocations:
        members = ends[institution]
        for end_client, _ in splits:
            if end_client not in members:
                raise ScenarioFormatError(f"{end_client!r} is not an end client of {institution}",
                                          allocated[index])
        client = orders[index - 1].client
        if client != institution:
            raise ScenarioFormatError(
                f"order {index} is {client}'s, not {institution}'s", allocated[index])
    for role in _REQUIRED_ROLES:
        if not declared[role]:
            raise ScenarioFormatError(f"missing '{role}:' line", 1)
    if late:
        raise ScenarioFormatError(f"undeclared {kind} {name!r}", line_no)
    return Scenario(header["scenario"], header.get("currency", "USD"), tuple(declared["symbol"]),
                    {role: tuple(declared[role.value])
                     for role in ParticipantRole if declared[role.value]},
                    tuple(retail), tuple(institutions), tuple(endowments),
                    tuple(orders), tuple(allocations), tuple(expected))
