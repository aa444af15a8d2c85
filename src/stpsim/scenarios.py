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
Every broker, custodian, client, institution and order a line names must be
declared somewhere in the file, each client and end-client account is
declared once, and an allocation splits only to its institution's ``ends``;
otherwise parsing fails with the offending line's number.
All orders run before all allocations (the street execution must exist
before a manager can split it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .money import Money
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


@dataclass(frozen=True)
class OrderAction:
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


@dataclass(frozen=True)
class ExpectedBalance:
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
    # client account -> broker, and the institution accounts; built from the
    # client tuples on construction (also by `dataclasses.replace`)
    _brokers: dict[str, str] = field(init=False, repr=False, compare=False)
    _institutions: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._brokers = {}
        for client in (*self.retail_clients, *self.institutions):
            self._brokers.setdefault(client.account, client.broker)
        self._institutions = frozenset(i.account for i in self.institutions)

    def participant_ids(self, role: ParticipantRole) -> tuple[str, ...]:
        return self.participants.get(role, ())

    def broker_of(self, client_account: str) -> str:
        return self._brokers[client_account]  # KeyError(client_account) if unknown

    def is_institution(self, client_account: str) -> bool:
        return client_account in self._institutions

    def money(self, amount: int) -> Money:
        return Money(amount, self.currency)


def _split_kv(parts: list[str], line_no: int) -> dict[str, str]:
    out = {}
    for part in parts:
        if "=" not in part:
            raise ScenarioFormatError(f"expected key=value, got {part!r}", line_no)
        key, value = part.split("=", 1)
        out[key] = value
    return out


def _pop_field(kv: dict[str, str], key: str, line_no: int) -> str:
    """Remove and return kv[key]; a missing key is a format error."""
    if key not in kv:
        raise ScenarioFormatError(f"missing {key}=", line_no)
    return kv.pop(key)


def _int(text: str, line_no: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioFormatError(f"bad integer {text!r}", line_no) from None


def _parse_holdings(parts: list[str], line_no: int) -> tuple[int, tuple[tuple[str, int], ...]]:
    money = 0
    positions = []
    for key, value in _split_kv(parts, line_no).items():
        number = _int(value, line_no)
        if key == "money":
            money = number
        else:
            positions.append((key, number))
    return money, tuple(positions)


def _declare(accounts: dict[str, int], names: list[str], line_no: int) -> None:
    """Record the line declaring each client account; a second declaration
    of one account is a format error."""
    for name in names:
        if name in accounts:
            raise ScenarioFormatError(
                f"account {name!r} already declared on line {accounts[name]}", line_no)
        accounts[name] = line_no


def parse_scenario(text: str) -> Scenario:
    scenario_id = ""
    currency = "USD"
    symbols: list[str] = []
    participants: dict[ParticipantRole, list[str]] = {}
    retail: list[RetailClient] = []
    institutions: list[Institution] = []
    endowments: list[Endowment] = []
    orders: list[OrderAction] = []
    allocations: list[AllocateAction] = []
    expected: list[ExpectedBalance] = []
    # kind -> name -> first line naming it; each name must be declared
    named: dict[str, dict[str | int, int]] = {
        kind: {} for kind in ("broker", "custodian", "client", "institution", "order")}
    accounts: dict[str, int] = {}  # client and end-client account -> line declaring it
    allocation_lines: list[int] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ScenarioFormatError(f"expected 'key: value', got {line!r}", line_no)
        key, rest = line.split(":", 1)
        key = key.strip()
        parts = rest.split()
        if not parts:
            raise ScenarioFormatError(f"{key!r} needs a value", line_no)

        if key == "scenario":
            scenario_id = parts[0]
        elif key == "currency":
            currency = parts[0]
        elif key == "symbol":
            symbols.append(parts[0])
        elif key in _PARTICIPANT_KEYS:
            participants.setdefault(_PARTICIPANT_KEYS[key], []).append(parts[0])
        elif key == "retail":
            kv = _split_kv(parts[1:], line_no)
            retail.append(RetailClient(parts[0], _pop_field(kv, "broker", line_no)))
            _declare(accounts, parts[:1], line_no)
            named["broker"].setdefault(retail[-1].broker, line_no)
        elif key == "institution":
            kv = _split_kv(parts[1:], line_no)
            institutions.append(Institution(
                parts[0], _pop_field(kv, "broker", line_no), _pop_field(kv, "custodian", line_no),
                tuple(_pop_field(kv, "ends", line_no).split(","))))
            _declare(accounts, [parts[0], *institutions[-1].end_clients], line_no)
            named["broker"].setdefault(institutions[-1].broker, line_no)
            named["custodian"].setdefault(institutions[-1].custodian, line_no)
        elif key == "endow":
            money, positions = _parse_holdings(parts[1:], line_no)
            endowments.append(Endowment(parts[0], money, positions))
        elif key == "order":
            if len(parts) < 5:
                raise ScenarioFormatError("order needs: client side qty symbol type", line_no)
            client, side_text, qty_text, symbol, type_text = parts[:5]
            if side_text not in _SIDES:
                raise ScenarioFormatError(f"unknown side {side_text!r}", line_no)
            if type_text not in _ORDER_TYPES:
                raise ScenarioFormatError(f"unknown order type {type_text!r}", line_no)
            price = None
            cap = None
            for extra in parts[5:]:
                if extra.startswith("cap="):
                    cap = _int(extra[4:], line_no)
                else:
                    price = _int(extra, line_no)
            orders.append(OrderAction(
                index=len(orders) + 1,
                client=client,
                side=_SIDES[side_text],
                quantity=_int(qty_text, line_no),
                symbol=symbol,
                order_type=_ORDER_TYPES[type_text],
                price=price,
                cap=cap,
            ))
            named["client"].setdefault(client, line_no)
        elif key == "allocate":
            kv = _split_kv(parts[1:], line_no)
            order_index = _int(_pop_field(kv, "order", line_no), line_no)
            splits = tuple((end, _int(qty, line_no)) for end, qty in kv.items())
            allocations.append(AllocateAction(parts[0], order_index, splits))
            allocation_lines.append(line_no)
            named["institution"].setdefault(parts[0], line_no)
            named["order"].setdefault(order_index, line_no)
        elif key == "expect":
            money, positions = _parse_holdings(parts[1:], line_no)
            expected.append(ExpectedBalance(parts[0], money, positions))
        else:
            raise ScenarioFormatError(f"unknown directive {key!r}", line_no)

    if not scenario_id:
        raise ScenarioFormatError("missing 'scenario:' header", 1)
    declared = {role.value: set(ids) for role, ids in participants.items()}
    declared["client"] = {client.account for client in (*retail, *institutions)}
    declared["institution"] = {institution.account for institution in institutions}
    declared["order"] = range(1, len(orders) + 1)
    undeclared = [(line_no, kind, name) for kind, names in named.items()
                  for name, line_no in names.items() if name not in declared.get(kind, ())]
    if undeclared:
        line_no, kind, name = min(undeclared)
        raise ScenarioFormatError(f"undeclared {kind} {name!r}", line_no)
    ends = {institution.account: set(institution.end_clients) for institution in institutions}
    for line_no, allocation in zip(allocation_lines, allocations):
        for end_client, _ in allocation.splits:
            if end_client not in ends[allocation.institution]:
                raise ScenarioFormatError(
                    f"{end_client!r} is not an end client of {allocation.institution}", line_no)
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
