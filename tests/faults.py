"""Ledger faults on demand, for the tests of the conservation check.

Only the ledger writes a balance: an `Account` has no public surface
(only the ledger module reads its slots), `Ledger.balance` and
`Ledger.position` hand out an immutable `Money` and an int, and a step record is an immutable record over a
read-only snapshot. So a fault the conservation check must
catch is a fault of the ledger itself, which a run records through
`Ledger.snapshot` like any other change. `LeakyLedger` is a ledger with
such a fault on demand: a transfer that credits more, or less, than it
debits. Opening a funded account in the middle of a run is the other
fault, and needs no double.
"""

import pytest

from stpsim import assembly
from stpsim.ledger import Ledger
from stpsim.lifecycle import ScenarioRunner
from stpsim.money import Money

# what `inject` makes: a money or a share transfer that mints or burns, one
# that credits shares of a symbol nobody held, or a funded account opening
FAULT_KINDS = ("money", "shares", "new_symbol", "phantom")


class LeakyLedger(Ledger):
    """A `Ledger` whose transfers can be told to mint or burn.

    `leak(kind, extra, symbol, after)` arms the first transfer of `kind`
    ("money" or "equity") that the ledger makes once it has taken `after`
    snapshots, a `pay_out` leg of that kind counting as one transfer into
    its payee: that transfer credits `extra` more units than it debits
    (fewer, for a negative `extra`), in `symbol` if given, else in what it
    moved. Each leak that fires appends to `leaked` the index of the step
    whose snapshot records it, the number of snapshots taken before it.
    """

    def __init__(self, currency="USD"):
        super().__init__(currency)
        self.snapshots = 0
        self.armed = {}  # kind -> (extra, symbol, after)
        self.leaked = []

    def leak(self, kind, extra=1, symbol=None, after=0):
        self.armed[kind] = (extra, symbol, after)

    def _fire(self, kind):
        """The armed (extra, symbol) for this transfer of `kind`, or None."""
        armed = self.armed.get(kind)
        if armed is None or self.snapshots < armed[2]:
            return None
        del self.armed[kind]
        self.leaked.append(self.snapshots)
        return armed[:2]

    def snapshot(self):
        self.snapshots += 1
        return super().snapshot()

    def _leak_into(self, kind, dst, symbol=None):
        """Credit `dst` what the armed leak of `kind` adds, if it fires now."""
        fired = self._fire(kind)
        if fired is None:
            return
        extra, credited = fired
        if kind == "money":
            payee = self.accounts[dst]
            payee._money = Money(payee._money.amount + extra, self.currency)
        else:
            held = self.accounts[dst]._positions
            credited = credited or symbol
            held[credited] = held.get(credited, 0) + extra

    def transfer_money(self, src, dst, amount, cause=""):
        seq = super().transfer_money(src, dst, amount, cause)
        self._leak_into("money", dst)
        return seq

    def transfer_equity(self, src, dst, symbol, qty, cause=""):
        seq = super().transfer_equity(src, dst, symbol, qty, cause)
        self._leak_into("equity", dst, symbol)
        return seq

    def pay_out(self, src, moves):
        # a posting leaks like one transfer per leg: into the payee of its
        # first leg of the armed kind
        super().pay_out(src, moves)
        for dst, symbol, _, _ in moves:
            self._leak_into("money" if symbol is None else "equity", dst, symbol)


def run_leaking(product, scenario, **leak):
    """Run `scenario` on a `LeakyLedger` armed with `leak`; (report, ledger)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assembly, "Ledger", LeakyLedger)
        eco = assembly.build_ecosystem(product, scenario)
    eco.ledger.leak(**leak)
    return ScenarioRunner(eco, scenario).run(), eco.ledger


def inject(ledger, kind, amount, pick):
    """Make one fault of `kind` (see `FAULT_KINDS`) on `ledger`, a
    `LeakyLedger`, off by `amount` units: a 1-unit transfer between two
    accounts that `pick` chooses from a list, the payer among those that
    hold a unit (with none, it makes no fault), or the opening of a new
    account holding `abs(amount)` in money and in SYM shares."""
    if kind == "phantom":
        ledger.open_account(f"phantom{len(ledger.accounts)}", Money(abs(amount)),
                            {"SYM": abs(amount)})
        return
    owners = list(ledger.accounts)
    if kind == "money":
        payers = [owner for owner in owners if ledger.balance(owner).amount > 0]
    else:
        payers = [owner for owner in owners if ledger.position(owner, "SYM") > 0]
    if not payers:
        return
    src, dst = pick(payers), pick(owners)
    if kind == "money":
        ledger.leak("money", amount)
        ledger.transfer_money(src, dst, Money(1))
    else:
        ledger.leak("equity", amount, "NEW" if kind == "new_symbol" else None)
        ledger.transfer_equity(src, dst, "SYM", 1)
