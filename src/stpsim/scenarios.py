"""Scenario definitions: who participates, who holds what, who orders what.

Scenario files (``.scn``) are line-oriented UTF-8 with ``#`` comments:

    scenario: <id>
    currency: <code>
    symbol: <SYM>                       (repeatable)
    broker|exchange|clearing_corporation|clearing_bank|depository|custodian: <ID>
    retail: <ACCOUNT> broker=<ID>
    institution: <ACCOUNT> broker=<ID> custodian=<ID> ends=<A1,A2,...>
    endow: <ACCOUNT> [money=<cents>] [<SYM>=<qty>]...
    order: <ACCOUNT> <buy|sell> <qty> <SYM> <market|limit|ioc|fok> [<price>] [cap=<cents>]
    allocate: <ACCOUNT> order=<n> <END=QTY>...
    expect: <ACCOUNT> [money=<cents>] [<SYM>=<qty>]...

Order lines are numbered from 1 in file order; ``allocate`` references them.
A repeated ``key=value`` part on one line keeps its last value. The key of
a ``key=value`` part, and each name in ``ends``, must not be empty.

Declaration rules; a line that breaks one fails parsing with its number:

- every scenario has exactly one ``clearing_corporation:`` line, and at
  least one ``clearing_bank:`` and one ``depository:`` line (a missing one
  is reported on line 1, like a missing ``scenario:`` header);
- a participant id is declared at most once per role;
- every account is declared once: each client and end-client account by
  its ``retail:`` or ``institution:`` line, and the participant accounts
  ``<broker>.house``, ``<custodian>.omnibus`` and ``<clearing>.ccp`` by
  their participant lines;
- every broker, custodian, client, institution, order and endowed account
  a line names is declared somewhere in the file, before or after it;
- every symbol an ``endow:`` or ``expect:`` position names is declared by a
  ``symbol:`` line, before or after it;
- an account is endowed on at most one line, with no negative amount, and
  expected on at most one line;
- a ``retail:`` or ``institution:`` line carries no key besides its own;
- an order is allocated on at most one line, and only to its
  institution's ``ends``.

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

_ORDER_TYPES = {
    "market": OrderType.MARKET,
    "limit": OrderType.LIMIT,
    "ioc": OrderType.IMMEDIATE_OR_CANCEL,
    "fok": OrderType.FILL_OR_KILL,
}

_SIDES = {side.value: side for side in Side}

_PARTICIPANT_KEYS = {role.value: role for role in ParticipantRole}


def house_account(broker_id: str) -> str:
    return f"{broker_id}.house"


def omnibus_account(custodian_id: str) -> str:
    return f"{custodian_id}.omnibus"


def ccp_account(clearing_id: str) -> str:
    return f"{clearing_id}.ccp"


# the ledger account each participant line declares, by role
_PARTICIPANT_ACCOUNTS = {
    ParticipantRole.BROKER: house_account,
    ParticipantRole.CUSTODIAN: omnibus_account,
    ParticipantRole.CLEARING_CORPORATION: ccp_account,
}

# the roles a scenario cannot run without
_REQUIRED_ROLES = (
    ParticipantRole.CLEARING_CORPORATION,
    ParticipantRole.CLEARING_BANK,
    ParticipantRole.DEPOSITORY,
)


@dataclass(frozen=True)
class RetailClient:
    account: str
    broker: str


@dataclass(frozen=True)
class Institution:
    account: str
    broker: str
    custodian: str
    end_clients: tuple[str, ...]


@dataclass(frozen=True)
class Endowment:
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


@dataclass(frozen=True)
class AllocateAction:
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
    # from the client tuples on construction (also by `dataclasses.replace`)
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

    def broker_of(self, client_account: str) -> str:
        return self._brokers[client_account]  # KeyError(client_account) if unknown

    def is_institution(self, client_account: str) -> bool:
        return client_account in self._institutions

    def institution(self, account: str) -> Institution:
        """The first institution declared under `account`."""
        return self._institutions[account]  # KeyError(account) if unknown

    def money(self, amount: int) -> Money:
        return Money(amount, self.currency)


def _split_kv(parts: list[str], line_no: int) -> dict[str, str]:
    out = {}
    for part in parts:
        key, eq, value = part.partition("=")
        if not (eq and key):
            raise ScenarioFormatError(f"expected key=value, got {part!r}", line_no)
        out[key] = value
    return out


def _pop_field(kv: dict[str, str], key: str, line_no: int) -> str:
    """Remove and return kv[key]; a missing key is a format error."""
    if key not in kv:
        raise ScenarioFormatError(f"missing {key}=", line_no)
    return kv.pop(key)


def _amounts(parts: list[str], line_no: int, lead: str,
             default: int | None) -> tuple[int | None, tuple[tuple[str, int], ...]]:
    """The integer ``key=value`` parts of a line: the value of `lead` (or
    `default`), and every other (key, value) pair in first-seen key order.
    A repeated key keeps its last value."""
    found = default
    out = {}
    for part in parts:
        key, eq, value = part.partition("=")
        if not (eq and key):
            raise ScenarioFormatError(f"expected key=value, got {part!r}", line_no)
        try:
            number = int(value)
        except ValueError:
            raise ScenarioFormatError(f"bad integer {value!r}", line_no) from None
        if key == lead:
            found = number
        else:
            out[key] = number
    return found, (tuple(out.items()) if out else ())


def _declare(accounts: dict[str, int], names: list[str], line_no: int) -> None:
    """Record the line declaring each account; a second declaration of one
    account is a format error."""
    for name in names:
        if name in accounts:
            raise ScenarioFormatError(
                f"account {name!r} already declared on line {accounts[name]}", line_no)
        accounts[name] = line_no


def parse_scenario(text: str) -> Scenario:
    scenario_id = ""
    currency = "USD"
    symbols: list[str] = []
    participants: dict[ParticipantRole, dict[str, int]] = {}  # role -> id -> declaring line
    retail: list[RetailClient] = []
    institutions: list[Institution] = []
    endowments: list[Endowment] = []
    orders: list[OrderAction] = []
    allocations: list[AllocateAction] = []
    expected: list[ExpectedBalance] = []
    # kind -> name -> first line naming it; each name must be declared
    named: dict[str, dict] = {kind: {} for kind in (
        "broker", "custodian", "client", "institution", "order", "account", "symbol")}
    accounts: dict[str, int] = {}  # every declared account -> line declaring it
    # an order is allocated, and an account endowed or expected, on one line only
    allocated: dict[int, int] = named["order"]
    endowed: dict[str, int] = named["account"]
    expected_on: dict[str, int] = {}
    client_lines, symbol_lines = named["client"], named["symbol"]
    side_of = _SIDES.get
    type_of = _ORDER_TYPES.get

    for line_no, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.partition("#")[0]
        key, colon, rest = line.partition(":")
        if not colon:
            line = line.strip()
            if line:
                raise ScenarioFormatError(f"expected 'key: value', got {line!r}", line_no)
            continue
        key = key.strip()
        parts = rest.split()
        if not parts:
            raise ScenarioFormatError(f"{key!r} needs a value", line_no)

        if key == "order":
            if len(parts) < 5:
                raise ScenarioFormatError("order needs: client side qty symbol type", line_no)
            client, side_text, qty_text, symbol, type_text = parts[:5]
            side = side_of(side_text)
            if side is None:
                raise ScenarioFormatError(f"unknown side {side_text!r}", line_no)
            order_type = type_of(type_text)
            if order_type is None:
                raise ScenarioFormatError(f"unknown order type {type_text!r}", line_no)
            price = cap = None
            try:  # `number` holds the text being read, for the error
                for extra in parts[5:]:
                    if extra.startswith("cap="):
                        number = extra[4:]
                        cap = int(number)
                    else:
                        number = extra
                        price = int(number)
                number = qty_text
                quantity = int(number)
            except ValueError:
                raise ScenarioFormatError(f"bad integer {number!r}", line_no) from None
            orders.append(_new(OrderAction, (
                len(orders) + 1, client, side, quantity, symbol, order_type, price, cap)))
            if client not in client_lines:
                client_lines[client] = line_no
        elif key == "expect":
            account = parts[0]
            money, positions = _amounts(parts[1:], line_no, "money", 0)
            first = expected_on.setdefault(account, line_no)
            if first != line_no:
                raise ScenarioFormatError(
                    f"account {account!r} already expected on line {first}", line_no)
            for symbol, _ in positions:
                if symbol not in symbol_lines:
                    symbol_lines[symbol] = line_no
            expected.append(_new(ExpectedBalance, (account, money, positions)))
        elif key == "endow":
            account = parts[0]
            money, positions = _amounts(parts[1:], line_no, "money", 0)
            if money < 0 or any(amount < 0 for _, amount in positions):
                amounts = dict(positions, money=money)
                name = next(key for key in dict.fromkeys(
                    part.partition("=")[0] for part in parts[1:]) if amounts[key] < 0)
                raise ScenarioFormatError(
                    f"negative endowment {name}={amounts[name]} for {account!r}", line_no)
            if account in endowed:
                raise ScenarioFormatError(
                    f"account {account!r} already endowed on line {endowed[account]}", line_no)
            endowed[account] = line_no
            for symbol, _ in positions:
                if symbol not in symbol_lines:
                    symbol_lines[symbol] = line_no
            endowments.append(Endowment(account, money, positions))
        elif key == "allocate":
            order_index, splits = _amounts(parts[1:], line_no, "order", None)
            if order_index is None:
                raise ScenarioFormatError("missing order=", line_no)
            if order_index in allocated:
                raise ScenarioFormatError(
                    f"order {order_index} already allocated on line {allocated[order_index]}",
                    line_no)
            allocated[order_index] = line_no
            allocations.append(AllocateAction(parts[0], order_index, splits))
            named["institution"].setdefault(parts[0], line_no)
        elif key == "retail":
            kv = _split_kv(parts[1:], line_no)
            retail.append(RetailClient(parts[0], _pop_field(kv, "broker", line_no)))
            if kv:  # a key the line kind does not have
                raise ScenarioFormatError(f"unknown key {next(iter(kv))!r}", line_no)
            _declare(accounts, parts[:1], line_no)
            named["broker"].setdefault(retail[-1].broker, line_no)
        elif key == "institution":
            kv = _split_kv(parts[1:], line_no)
            broker = _pop_field(kv, "broker", line_no)
            custodian = _pop_field(kv, "custodian", line_no)
            ends_text = _pop_field(kv, "ends", line_no)
            if kv:
                raise ScenarioFormatError(f"unknown key {next(iter(kv))!r}", line_no)
            end_clients = tuple(ends_text.split(","))
            if "" in end_clients:
                raise ScenarioFormatError(
                    f"empty end client name in ends={ends_text!r}", line_no)
            institutions.append(Institution(parts[0], broker, custodian, end_clients))
            _declare(accounts, [parts[0], *end_clients], line_no)
            named["broker"].setdefault(broker, line_no)
            named["custodian"].setdefault(custodian, line_no)
        elif key in _PARTICIPANT_KEYS:
            role = _PARTICIPANT_KEYS[key]
            participant = parts[0]
            declared_ids = participants.setdefault(role, {})
            if participant in declared_ids:
                raise ScenarioFormatError(
                    f"{key} {participant!r} already declared on line "
                    f"{declared_ids[participant]}", line_no)
            if role is ParticipantRole.CLEARING_CORPORATION and declared_ids:
                (first, first_line), = declared_ids.items()
                raise ScenarioFormatError(
                    f"second clearing_corporation {participant!r} "
                    f"({first!r} declared on line {first_line})", line_no)
            declared_ids[participant] = line_no
            if role in _PARTICIPANT_ACCOUNTS:
                _declare(accounts, [_PARTICIPANT_ACCOUNTS[role](participant)], line_no)
        elif key == "symbol":
            symbols.append(parts[0])
        elif key == "scenario":
            scenario_id = parts[0]
        elif key == "currency":
            currency = parts[0]
        else:
            raise ScenarioFormatError(f"unknown directive {key!r}", line_no)

    if not scenario_id:
        raise ScenarioFormatError("missing 'scenario:' header", 1)
    declared = {role.value: ids for role, ids in participants.items()}
    declared["client"] = {client.account for client in (*retail, *institutions)}
    declared["institution"] = {institution.account for institution in institutions}
    declared["order"] = range(1, len(orders) + 1)
    declared["account"] = accounts
    declared["symbol"] = set(symbols)
    undeclared = [(line_no, kind, name) for kind, names in named.items()
                  for name, line_no in names.items() if name not in declared.get(kind, ())]
    if undeclared:
        line_no, kind, name = min(undeclared)
        raise ScenarioFormatError(f"undeclared {kind} {name!r}", line_no)
    ends = {institution.account: set(institution.end_clients) for institution in institutions}
    for allocation in allocations:
        members = ends[allocation.institution]
        for end_client, _ in allocation.splits:
            if end_client not in members:
                raise ScenarioFormatError(
                    f"{end_client!r} is not an end client of {allocation.institution}",
                    allocated[allocation.order_index])
    for role in _REQUIRED_ROLES:
        if role not in participants:
            raise ScenarioFormatError(f"missing '{role.value}:' line", 1)
    return Scenario(
        scenario_id=scenario_id,
        currency=currency,
        symbols=tuple(symbols),
        participants={role: tuple(ids) for role, ids in participants.items()},
        retail_clients=tuple(retail),
        institutions=tuple(institutions),
        endowments=tuple(endowments),
        orders=tuple(orders),
        allocations=tuple(allocations),
        expected=tuple(expected),
    )
