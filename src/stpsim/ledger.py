"""Double-entry ledger of money balances and equity positions.

The ledger is the conservation substrate of the whole simulation: every
money or equity movement debits exactly one account and credits exactly one
other, and is appended to a journal. Failed transfers leave the ledger
untouched. Committed balances can never go negative (there is no credit,
no short selling).

Movements are written one at a time (`Ledger.transfer_money`,
`Ledger.transfer_equity`) or as one posting from one payer to many payees
(`Ledger.pay_out`), whose legs may mix money and shares of any symbols. A
posting checks every leg, and the payer's holding against the money total
and each symbol's total, before its first write, then debits the payer once
per total; its journal entries and touched owners are those of one transfer
per leg.

A balance is read one way while running and one way per step. Live, through
`Ledger.balance` and `Ledger.position`, each of which raises `UnknownAccount`
for an owner the ledger never opened; the `Account` records behind them are
this module's own. Per step, through the `Snapshot` that `Ledger.snapshot`
returns, whose `changes()` lists the accounts that step recorded anew.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import islice
from types import MappingProxyType
from typing import NamedTuple

from .money import Money, _new


class LedgerError(Exception):
    pass


class UnknownAccount(LedgerError):
    pass


class DuplicateAccount(LedgerError):
    pass


class InsufficientFunds(LedgerError):
    pass


class InsufficientPosition(LedgerError):
    pass


class NonPositiveAmount(LedgerError):
    pass


class NonPositiveQuantity(LedgerError):
    pass


# makes an `Account` or a `Snapshot` with empty slots, for `Ledger.open_account`
# or `Ledger.snapshot` to fill
_new_object = object.__new__


class Account:
    """One owner's live balances, held under the owner's name in
    `Ledger.accounts`: a record only this module reads.

    `Ledger.balance` and `Ledger.position` read it; `open_account`, the
    two transfers and `pay_out` write it, each marking its owners touched
    for the next `Ledger.snapshot`, and every transfer or leg is journalled. Accounts are made
    only by `Ledger.open_account`.
    """

    __slots__ = ("_money", "_positions")


class JournalEntry(NamedTuple):
    seq: int
    kind: str               # "money" | "equity"
    src: str
    dst: str
    amount: int             # minor units for money, share count for equity
    symbol: str | None
    cause: str


class AccountSnapshot(NamedTuple):
    """One account's recorded balances, without zero positions.

    An immutable NamedTuple whose `positions` is a read-only view of a dict
    no one else holds: assigning a field or writing a position raises.
    Every snapshot from the one that recorded it until the account is next
    touched returns this same object.
    """

    money: Money
    positions: Mapping[str, int]


class Snapshot(Mapping):
    """All balances as of one `Ledger.snapshot` call: owner -> `AccountSnapshot`.

    A read-only mapping that stores only the accounts touched since the
    ledger's previous snapshot, which `changes` returns. Any other owner
    resolves through the ledger's per-account version lists, by bisecting
    on this snapshot's index, so later ledger mutations are invisible to it.
    Owners iterate in account-opening order.

    Snapshots are made only by `Ledger.snapshot`, which fills their slots.
    """

    # `_versions` is the ledger's, of which the first `_count` owners had
    # been opened by then
    __slots__ = ("_delta", "_versions", "_index", "_count")

    def __getitem__(self, owner: str) -> AccountSnapshot:
        history = self._versions.get(owner)
        if history is not None:
            steps, balances = history
            at = bisect_right(steps, self._index)
            if at:
                return balances[at - 1]
        raise KeyError(owner)

    def __iter__(self) -> Iterator[str]:
        return islice(self._versions, self._count)

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return f"Snapshot({dict(self)!r})"

    def changes(self) -> Iterable[tuple[str, AccountSnapshot]]:
        """(owner, balances) for every account recorded anew since the ledger's
        previous snapshot; at its first, every account. Accounts are never
        closed, so every owner of the previous snapshot is an owner here too."""
        return self._delta.items()


class Ledger:
    """Single-writer ledger; the orchestrator owns the only mutable handle."""

    def __init__(self, currency: str = "USD"):
        self.currency = currency
        self.accounts: dict[str, Account] = {}
        self.journal: list[JournalEntry] = []
        # owners whose balances may have changed since the last snapshot; a
        # dict used as an insertion-ordered set, so a snapshot's `changes`
        # list owners in the order they were first touched, run after run
        self._touched: dict[str, None] = {}
        # owner -> (snapshot indices, the balances recorded at each); owners
        # in opening order
        self._versions: dict[str, tuple[list[int], list[AccountSnapshot]]] = {}
        self._taken = 0  # snapshots taken so far: the next one's index

    def open_account(self, owner: str, money: Money | None = None,
                     positions: dict[str, int] | None = None) -> None:
        """Check and open one account, marked touched; the only way to make an `Account`."""
        accounts, currency = self.accounts, self.currency
        if owner in accounts:
            raise DuplicateAccount(owner)
        if money is None:
            money = _new(Money, (0, currency))
        elif money.currency != currency:
            raise LedgerError(f"account currency {money.currency} != ledger {currency}")
        if money.amount < 0 or (positions and min(positions.values()) < 0):
            raise LedgerError("initial balances must be non-negative")
        accounts[owner] = acct = _new_object(Account)
        acct._money = money
        acct._positions = dict(positions) if positions else {}
        self._touched[owner] = None

    def balance(self, owner: str) -> Money:
        try:
            return self.accounts[owner]._money
        except KeyError:
            raise UnknownAccount(owner) from None

    def position(self, owner: str, symbol: str) -> int:
        try:
            return self.accounts[owner]._positions.get(symbol, 0)
        except KeyError:
            raise UnknownAccount(owner) from None

    def transfer_money(self, src: str, dst: str, amount: Money, cause: str = "") -> int:
        """Move `amount` from `src` to `dst`; returns the journal entry seq.

        Past the one currency check it computes on minor units, reading each
        balance just before writing it, so a self-transfer is net zero. It
        writes both accounts and marks them touched itself, and every check
        comes before the first write.
        """
        currency = self.currency
        if amount.currency != currency:
            raise LedgerError(f"currency {amount.currency} != ledger {currency}")
        units = amount.amount
        if units <= 0:
            raise NonPositiveAmount(f"transfer of {amount}")
        accounts = self.accounts
        try:
            payer = accounts[src]
            payee = accounts[dst]
        except KeyError as missing:
            raise UnknownAccount(missing.args[0]) from None
        held = payer._money.amount
        if held < units:
            raise InsufficientFunds(f"{src} holds {payer._money}, needs {amount}")
        payer._money = _new(Money, (held - units, currency))
        payee._money = _new(Money, (payee._money.amount + units, currency))
        touched = self._touched
        touched[src] = touched[dst] = None
        journal = self.journal
        seq = len(journal) + 1
        journal.append(_new(JournalEntry, (seq, "money", src, dst, units, None, cause)))
        return seq

    def transfer_equity(self, src: str, dst: str, symbol: str, qty: int, cause: str = "") -> int:
        """Move `qty` shares of `symbol` from `src` to `dst`; returns entry seq.

        Like `transfer_money`, it writes both position dicts and marks both
        owners touched itself.
        """
        if qty <= 0:
            raise NonPositiveQuantity(f"transfer of {qty} {symbol}")
        accounts = self.accounts
        try:
            delivering = accounts[src]._positions
            receiving = accounts[dst]._positions
        except KeyError as missing:
            raise UnknownAccount(missing.args[0]) from None
        held = delivering.get(symbol, 0)
        if held < qty:
            raise InsufficientPosition(f"{src} holds {held} {symbol}, needs {qty}")
        delivering[symbol] = held - qty
        receiving[symbol] = receiving.get(symbol, 0) + qty
        touched = self._touched
        touched[src] = touched[dst] = None
        journal = self.journal
        seq = len(journal) + 1
        journal.append(_new(JournalEntry, (seq, "equity", src, dst, qty, symbol, cause)))
        return seq

    def pay_out(self, src: str, moves: Sequence[tuple[str, str | None, int, str]]) -> None:
        """Pay each `(dst, symbol, units, cause)` of `moves` from `src`, all or
        nothing: minor units of money when `symbol` is None, else shares of
        `symbol`, so one posting may mix money and any symbols' shares.

        Every check comes before the first write: each leg's amount is
        positive, the payer and every payee are opened, and the payer holds
        the money legs' total and each symbol's legs' total (a leg back to
        `src` counts toward them), money first, then symbols as their first
        legs come. It then debits the payer once per total and credits each
        payee in leg order, reading its balance just before writing it. Each
        leg is journalled, and its owners marked touched, exactly as one
        `transfer_money` or `transfer_equity` per leg would.
        """
        if not moves:
            return
        money = 0
        shares: dict[str, int] = {}
        for _, symbol, units, _ in moves:
            if units <= 0:
                raise (NonPositiveAmount(f"transfer of {_new(Money, (units, self.currency))}")
                       if symbol is None else NonPositiveQuantity(f"transfer of {units} {symbol}"))
            if symbol is None:
                money += units
            else:
                shares[symbol] = shares.get(symbol, 0) + units
        accounts, currency = self.accounts, self.currency
        try:
            payer = accounts[src]
            payees = [accounts[dst] for dst, _, _, _ in moves]
        except KeyError as missing:
            raise UnknownAccount(missing.args[0]) from None
        held = payer._money.amount
        if held < money:
            raise InsufficientFunds(
                f"{src} holds {payer._money}, needs {_new(Money, (money, currency))}")
        delivering = payer._positions
        for symbol, total in shares.items():
            if delivering.get(symbol, 0) < total:
                raise InsufficientPosition(
                    f"{src} holds {delivering.get(symbol, 0)} {symbol}, needs {total}")
        if money:
            payer._money = _new(Money, (held - money, currency))
        for symbol, total in shares.items():
            delivering[symbol] -= total
        touched, journal = self._touched, self.journal
        touched[src] = None
        seq = len(journal)
        for payee, (dst, symbol, units, cause) in zip(payees, moves):
            seq += 1
            if symbol is None:
                payee._money = _new(Money, (payee._money.amount + units, currency))
                journal.append(_new(JournalEntry, (seq, "money", src, dst, units, None, cause)))
            else:
                receiving = payee._positions
                receiving[symbol] = receiving.get(symbol, 0) + units
                journal.append(_new(JournalEntry, (seq, "equity", src, dst, units, symbol, cause)))
            touched[dst] = None

    def snapshot(self) -> Snapshot:
        """All balances as a `Snapshot`; later ledger mutations are invisible to it.

        Each account opened or touched by a transfer since the previous
        call is recorded as a new `AccountSnapshot`, its positions a
        read-only view of a fresh copy, appended to its version list, so a
        call costs what changed since the last one, not the ledger's size.
        """
        accounts, versions, touched = self.accounts, self._versions, self._touched
        read_only = MappingProxyType
        index = self._taken
        delta = {}
        for owner in touched:
            acct = accounts[owner]
            held = acct._positions  # copied in C unless a zero position must be dropped
            delta[owner] = balances = _new(AccountSnapshot, (
                acct._money, read_only(
                    {**held} if 0 not in held.values() else {s: q for s, q in held.items() if q})))
            history = versions.get(owner)
            if history is None:
                versions[owner] = ([index], [balances])
            else:
                history[0].append(index)
                history[1].append(balances)
        touched.clear()
        snap = _new_object(Snapshot)
        snap._delta = delta
        snap._versions = versions
        snap._index = index
        snap._count = len(versions)
        self._taken = index + 1
        return snap


def total_money(snap: Mapping[str, AccountSnapshot]) -> int:
    return sum(acct.money.amount for acct in snap.values())


def total_positions(snap: Mapping[str, AccountSnapshot]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for acct in snap.values():
        for symbol, qty in acct.positions.items():
            totals[symbol] = totals.get(symbol, 0) + qty
    return {s: q for s, q in totals.items() if q}
