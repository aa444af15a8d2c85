"""Sequential scenario orchestration with a snapshot after every step.

One orchestrator drives all participants in a fixed order, invoking the
recurring (`*_rec`) operations manually at the steps `run` lists:

    setup -> order_<n>_<client> per order -> report_trades -> per allocation:
    allocation_<inst>, affirmation_<inst> -> client_trades_to_clearing ->
    clear -> settle (DVP) -> custodian_settle -> broker_settle

A step that calls every participant of one role records one
`<id>:<label>=<count>` event each. Any rejection, clearing refusal or
settlement failure aborts the run; the report records every snapshot taken
up to that point. A step's snapshot stores only its delta, a new
`AccountSnapshot` for each account that step touched, and resolves every
other account through the ledger's per-account version lists, so recording
costs what changed, not the size of the ledger.

`assert_conservation` then replays the report: every consecutive snapshot
pair must conserve total money and per-symbol share counts exactly, and the
final snapshot must equal the scenario's expected balances, with every
unlisted account flat. In one loop over the steps it folds each step's
`Snapshot.changes()` into one running account -> `AccountSnapshot` dict,
so a pair costs its changes, and the sum of each changed entry's new minus
old balances equals the difference of the pair's full totals; `changes()`
is relative to the ledger's previous snapshot, so the steps must be its
consecutive ones. The final check pops each expected account from that
dict, reading its balances once, and what is left are the unlisted
accounts: recorded values only, never live accounts.
A step record and its snapshot are read-only, and only the ledger's
transfers and account openings change a balance, so a fault the check
catches is a fault of the ledger, recorded by `Ledger.snapshot`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from .assembly import Ecosystem, build_ecosystem
from .broker import OrderDraft
from .clearing import SettlementFailed
from .ledger import AccountSnapshot, JournalEntry, Snapshot, total_money, total_positions
from .money import _new
from .scenarios import AllocateAction, OrderAction, Scenario
from .trading import (
    SETTLED, Affirmation, AllocationDetail, AuditEvent, ClearingRejected, Rejection,
    SettlementInstruction, Trade)


class ScenarioAborted(Exception):
    def __init__(self, step: str, cause: str):
        super().__init__(f"aborted at {step}: {cause}")
        self.step = step
        self.cause = cause


class StepRecord(NamedTuple):
    """One step's name, ledger snapshot and events; an immutable record."""

    name: str
    snapshot: Snapshot
    events: tuple[str, ...] = ()


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status}" + (f" ({self.detail})" if self.detail else "")


@dataclass
class ScenarioReport:
    """One run's steps and outcome. Each `*_lines` field holds participants'
    records, and `render_machine` writes one machine line per record: an
    `audit_lines` record, one per order, names the stages the order passed
    on its own line. `journal_lines` is a tuple copy of the ledger's
    journal, so no edit of a report reaches the ledger."""

    product_name: str
    scenario_id: str
    steps: list[StepRecord] = field(default_factory=list)
    aborted: tuple[str, str] | None = None
    finals: list[CheckResult] = field(default_factory=list)
    journal_lines: tuple[JournalEntry, ...] = ()
    audit_lines: list[AuditEvent] = field(default_factory=list)
    trade_lines: list[Trade] = field(default_factory=list)
    instruction_lines: list[SettlementInstruction] = field(default_factory=list)
    affirmation_lines: list[Affirmation] = field(default_factory=list)
    scenario: Scenario | None = None

    @property
    def completed(self) -> bool:
        return self.aborted is None

    @property
    def all_checks_passed(self) -> bool:
        return self.completed and all(check.passed for check in self.finals)


class ScenarioRunner:
    """Drives one (product, scenario) pair; strictly single-threaded."""

    def __init__(self, ecosystem: Ecosystem, scenario: Scenario):
        self.eco = ecosystem
        self.scenario = scenario
        self.report = ScenarioReport(
            product_name=ecosystem.product.product_name,
            scenario_id=scenario.scenario_id,
            scenario=scenario,
        )
        self._order_ids: dict[int, str] = {}  # action index -> broker order id
        self._next_alloc = 1

    def run(self) -> ScenarioReport:
        eco = self.eco
        try:
            self._snapshot("setup")
            for action in self.scenario.orders:
                self._place_order(action)
            self._each("report_trades", eco.exchanges, "reported",
                       lambda exchange: exchange.report_trades_rec())
            for action in self.scenario.allocations:
                self._run_allocation(action)
            self._each("client_trades_to_clearing", eco.custodians, "client_trades",
                       lambda custodian: custodian.send_trades_to_clearing_rec())
            obligations = eco.clearing.clear_rec()
            self._snapshot("clear", (f"obligations={len(obligations)}",))
            try:
                instructions = eco.clearing.settle_rec()
            except SettlementFailed as failure:
                raise ScenarioAborted("settle", str(failure)) from None
            self._snapshot("settle", (f"instructions={len(instructions)}",))
            self._each("custodian_settle", eco.custodians, "distributions",
                       lambda custodian: custodian.settle_institutional_rec())
            self._each("broker_settle", eco.brokers, "credits",
                       lambda broker: broker.settle_retail_rec())
        except ScenarioAborted as abort:
            self.report.aborted = (abort.step, abort.cause)
            self._snapshot(f"aborted_{abort.step}")
        else:
            self._final_checks()
        self.report.journal_lines = tuple(eco.ledger.journal)
        for broker in eco.brokers.values():
            self.report.audit_lines.extend(broker.audit_records)
        for exchange in eco.exchanges.values():
            self.report.trade_lines.extend(exchange.executed)
        for custodian in eco.custodians.values():
            self.report.affirmation_lines.extend(custodian.affirmations)
        if eco.clearing is not None:
            self.report.instruction_lines.extend(eco.clearing.executed_instructions)
        return self.report

    # -- steps -----------------------------------------------------------

    def _snapshot(self, name: str, events: tuple[str, ...] = ()) -> None:
        self.report.steps.append(_new(StepRecord, (name, self.eco.ledger.snapshot(), events)))

    def _each(self, step: str, services: Mapping[str, Any], label: str,
              call: Callable[[Any], int]) -> None:
        """Record `step` with one `<id>:<label>=<count>` event per participant,
        `count` being what `call` returns for it, in participant order; a
        clearing refusal aborts the run at `step`. `call` looks its method up
        at call time, so a wrapper set on the class (perfbench's spans) sees it."""
        try:
            events = tuple(f"{pid}:{label}={call(service)}" for pid, service in services.items())
        except ClearingRejected as refusal:
            raise ScenarioAborted(step, str(refusal)) from None
        self._snapshot(step, events)

    def _place_order(self, action: OrderAction) -> None:
        scenario, client = self.scenario, action.client
        step = f"order_{action.index}_{client}"
        broker = self.eco.brokers[scenario._brokers[client]]
        draft = _new(OrderDraft, (
            client, action.side, action.symbol, action.quantity, action.order_type,
            None if action.price is None else scenario.money(action.price),
            None if action.cap is None else scenario.money(action.cap), action.ref))
        if client in scenario._institutions:
            outcome = broker.place_institutional_order(draft)
        else:
            outcome = broker.place_retail_order(draft)
        if isinstance(outcome, Rejection):
            raise ScenarioAborted(step, str(outcome))
        self._order_ids[action.index] = outcome
        self._snapshot(step, (f"order_id={outcome}",))

    def _run_allocation(self, action: AllocateAction) -> None:
        institution = self.scenario.institution(action.institution)
        broker = self.eco.brokers[institution.broker]
        custodian = self.eco.custodians[institution.custodian]
        order_id = self._order_ids[action.order_index]
        step = f"allocation_{action.institution}"

        fills = broker.fills.get(order_id, [])
        prices = {trade.price for trade in fills}
        if len(prices) != 1:
            raise ScenarioAborted(step, f"block {order_id} has {len(prices)} fill prices")
        account, price, symbol = action.institution, fills[0].price, fills[0].symbol

        prefix, first = f"{account}-A", self._next_alloc
        self._next_alloc += len(action.splits)
        details = [
            _new(AllocationDetail, (
                f"{prefix}{number}", account, end_client, order_id, symbol, quantity, price))
            for number, (end_client, quantity) in enumerate(action.splits, first)]

        rejection = custodian.receive_allocation_details(details)
        if rejection is not None:
            raise ScenarioAborted(step, f"custodian {rejection}")
        outcome = broker.handle_allocation_details(details)
        if isinstance(outcome, Rejection):
            raise ScenarioAborted(step, f"broker {outcome}")
        self._snapshot(step, (f"contracts={len(outcome.contract_ids)}",))

        affirmation = custodian.affirm_contracts(outcome)
        self._snapshot(f"affirmation_{action.institution}", (affirmation.affirmation_id,))

    # -- end-of-scenario checks -------------------------------------------

    def _final_checks(self) -> None:
        check = self.report.finals.append  # takes each CheckResult, built positionally
        for exchange_id, exchange in self.eco.exchanges.items():
            check(_new(CheckResult, (f"no_unreported_trades[{exchange_id}]",
                                     exchange.pending_report_count() == 0, "")))
        clearing = self.eco.clearing
        check(_new(CheckResult, (
            "clearing_queue_empty", clearing.queue_size() == 0, clearing.first_wait())))
        check(_new(CheckResult, (
            "no_unsettled_obligations", clearing.unsettled_obligations() == 0, "")))
        for broker_id, broker in self.eco.brokers.items():
            check(_new(CheckResult, (
                f"no_unaffirmed_contracts[{broker_id}]", not broker.unaffirmed_blocks(), "")))
        for custodian_id, custodian in self.eco.custodians.items():
            check(_new(CheckResult, (
                f"no_pending_details[{custodian_id}]", not custodian.pending_blocks(), "")))
            check(_new(CheckResult, (
                f"no_undistributed_blocks[{custodian_id}]",
                not custodian.undistributed_blocks(), "")))
        if clearing.netting:
            flat = self.eco.ledger.balance(clearing.ccp_account).amount == 0
            check(_new(CheckResult, ("ccp_flat", flat, "")))
        unsettled = next((trade for exchange in self.eco.exchanges.values()
                          for trade in exchange.executed
                          if trade.status is not SETTLED), None)
        check(_new(CheckResult, (
            "all_trades_settled", unsettled is None,
            "" if unsettled is None else f"{unsettled.trade_id} is {unsettled.status.value}")))


def run_scenario(product, scenario: Scenario) -> ScenarioReport:
    ecosystem = build_ecosystem(product, scenario)
    return ScenarioRunner(ecosystem, scenario).run()


def assert_conservation(report: ScenarioReport) -> list[CheckResult]:
    """Pairwise conservation over the recorded snapshots, then exact
    equality of the final snapshot against the scenario's expectations.

    The steps must be consecutive snapshots of one ledger, from its first,
    as `ScenarioRunner` records them."""
    checks: list[CheckResult] = []
    steps = report.steps
    final: dict[str, AccountSnapshot] = {}  # every account as of the last step folded
    record = checks.append  # takes each CheckResult, built positionally
    for previous, current in zip([None, *steps], steps):
        # bring `final` from the previous step to this one; the net money and
        # per-symbol share change equals the difference of their full totals
        after = current.snapshot
        money = 0
        shares: dict[str, int] = {}
        get = shares.get
        for account, now in after.changes():
            before = final.get(account)
            final[account] = now
            if before is not None:
                before_money, held = before
                money -= before_money.amount
                if held:
                    for symbol, qty in held.items():
                        shares[symbol] = get(symbol, 0) - qty
            now_money, held = now
            money += now_money.amount
            if held:
                for symbol, qty in held.items():
                    shares[symbol] = get(symbol, 0) + qty
        if previous is not None:
            before = previous.snapshot
            money_ok = money == 0
            record(_new(CheckResult, (
                f"conserve_money[{previous.name}->{current.name}]", money_ok,
                "" if money_ok else f"{total_money(before)} -> {total_money(after)}")))
            equity_ok = not any(shares.values())
            record(_new(CheckResult, (
                f"conserve_equity[{previous.name}->{current.name}]", equity_ok,
                "" if equity_ok else f"{total_positions(before)} -> {total_positions(after)}")))

    scenario = report.scenario
    if scenario is not None and steps:
        # each expected account is popped, so what is left of `final` is unlisted
        for account, money, positions in scenario.expected:
            have_money, have_positions = final.pop(account)
            # no dict for an expectation without positions: the account holds none
            want_positions = {s: q for s, q in positions if q} if positions else None
            ok = have_money.amount == money and (
                not have_positions if want_positions is None else have_positions == want_positions)
            record(_new(CheckResult, (f"final[{account}]", ok, "" if ok else
                   f"have money={have_money.amount} positions={dict(have_positions)}, "
                   f"want money={money} positions={want_positions or {}}")))
        for account, (have_money, have_positions) in sorted(final.items()):
            if have_money.amount or have_positions:
                record(_new(CheckResult, (
                    f"final[{account}]", False,
                    f"unlisted account not flat: money={have_money.amount} "
                    f"positions={dict(have_positions)}")))
    return checks
