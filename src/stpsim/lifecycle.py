"""Sequential scenario orchestration with a snapshot after every step.

One orchestrator drives all participants in a fixed order, invoking the
recurring (`*_rec`) operations manually at the defined points:

    setup -> order placement (both sides) -> exchange trade reporting ->
    allocation details + contracts -> affirmation -> custodian client
    trades to clearing -> clear -> settle (DVP) -> custodian settlement ->
    broker retail settlement

Retail-only scenarios simply have empty allocation steps. Any rejection or
settlement failure aborts the run; the report records every snapshot taken
up to that point. A step's snapshot stores only its delta, a new
`AccountSnapshot` for each account that step touched, and resolves every
other account through the ledger's per-account version lists, so recording
costs what changed, not the size of the ledger.

`assert_conservation` then replays the report: every consecutive snapshot
pair must conserve total money and per-symbol share counts exactly, and the
final snapshot must equal the scenario's expected balances, with every
unlisted account flat. It folds each step's `Snapshot.changes` into one
running account -> `AccountSnapshot` dict, so a pair costs its changes, and
the sum of each changed entry's new minus old balances equals the
difference of the pair's full totals. The final check reads that dict. It
reads only recorded values, never the ledger's live accounts or counters,
and an edit made to a step's snapshot after the run is among that step's
changes, so it is caught.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

from .assembly import Ecosystem, build_ecosystem
from .broker import OrderDraft
from .clearing import SettlementFailed
from .custodian import AffirmationRejection
from .ledger import AccountSnapshot, JournalEntry, Snapshot, total_money, total_positions
from .scenarios import AllocateAction, Scenario
from .trading import (
    Affirmation, AllocationDetail, AuditEvent, ClearingRejected, Rejection, SettlementInstruction,
    Trade, TradeStatus)


class ScenarioAborted(Exception):
    def __init__(self, step: str, cause: str):
        super().__init__(f"aborted at {step}: {cause}")
        self.step = step
        self.cause = cause


class StepRecord:
    """One step's name, events and ledger snapshot.

    Assigning a mapping to `snapshot` loads it into the step's `Snapshot` as
    that step's edits, so every consumer reads the same type.
    """

    __slots__ = ("name", "_snapshot", "events")

    def __init__(self, name: str, snapshot: Snapshot, events: tuple[str, ...] = ()):
        self.name = name
        self._snapshot = snapshot
        self.events = events

    @property
    def snapshot(self) -> Snapshot:
        return self._snapshot

    @snapshot.setter
    def snapshot(self, balances: Mapping[str, AccountSnapshot]) -> None:
        self._snapshot.load(balances)


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
    records, and `render_machine` writes one machine line per record;
    `journal_lines` is the ledger's journal itself."""

    product_name: str
    scenario_id: str
    steps: list[StepRecord] = field(default_factory=list)
    aborted: tuple[str, str] | None = None
    finals: list[CheckResult] = field(default_factory=list)
    journal_lines: list[JournalEntry] = field(default_factory=list)
    audit_lines: list[AuditEvent] = field(default_factory=list)
    trade_lines: list[Trade] = field(default_factory=list)
    instruction_lines: list[SettlementInstruction] = field(default_factory=list)
    affirmation_lines: list[Affirmation | AffirmationRejection] = field(default_factory=list)
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
        self._step_counter = 0
        self._next_alloc = 1

    def run(self) -> ScenarioReport:
        try:
            self._snapshot("setup")
            self._place_orders()
            self._report_trades()
            self._allocation_flow()
            self._clear_and_settle()
            self._participant_settlement()
        except ScenarioAborted as abort:
            self.report.aborted = (abort.step, abort.cause)
            self._snapshot(f"aborted_{abort.step}")
        else:
            self._final_checks()
        self.report.journal_lines = self.eco.ledger.journal
        for broker in self.eco.brokers.values():
            self.report.audit_lines.extend(broker.audit)
        for exchange in self.eco.exchanges.values():
            self.report.trade_lines.extend(exchange.executed)
        for custodian in self.eco.custodians.values():
            self.report.affirmation_lines.extend(custodian.affirmations)
        if self.eco.clearing is not None:
            self.report.instruction_lines.extend(self.eco.clearing.executed_instructions)
        return self.report

    # -- steps -----------------------------------------------------------

    def _snapshot(self, name: str, events: tuple[str, ...] = ()) -> None:
        self.report.steps.append(StepRecord(name, self.eco.ledger.snapshot(), events))

    def _bump_step(self) -> None:
        self._step_counter += 1
        for broker in self.eco.brokers.values():
            broker.mark_step(self._step_counter)

    def _place_orders(self) -> None:
        for action in self.scenario.orders:
            self._bump_step()
            step = f"order_{action.index}_{action.client}"
            broker = self.eco.brokers[self.scenario.broker_of(action.client)]
            draft = OrderDraft(
                action.client, action.side, action.symbol, action.quantity, action.order_type,
                None if action.price is None else self.scenario.money(action.price),
                None if action.cap is None else self.scenario.money(action.cap),
            )
            if self.scenario.is_institution(action.client):
                outcome = broker.place_institutional_order(draft)
            else:
                outcome = broker.place_retail_order(draft)
            if isinstance(outcome, Rejection):
                raise ScenarioAborted(step, str(outcome))
            self._order_ids[action.index] = outcome
            self._snapshot(step, (f"order_id={outcome}",))

    def _report_trades(self) -> None:
        events = []
        for exchange_id, exchange in self.eco.exchanges.items():
            try:
                count = exchange.report_trades_rec()
            except ClearingRejected as refusal:
                raise ScenarioAborted("report_trades", str(refusal)) from None
            events.append(f"{exchange_id}:reported={count}")
        self._snapshot("report_trades", tuple(events))

    def _allocation_flow(self) -> None:
        for action in self.scenario.allocations:
            self._run_allocation(action)

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
        price = fills[0].price

        details = []
        for end_client, quantity in action.splits:
            details.append(AllocationDetail(
                f"{action.institution}-A{self._next_alloc}", action.institution, end_client,
                order_id, fills[0].symbol, quantity, price))
            self._next_alloc += 1

        rejection = custodian.receive_allocation_details(details)
        if rejection is not None:
            raise ScenarioAborted(step, f"custodian {rejection}")
        outcome = broker.handle_allocation_details(details)
        if isinstance(outcome, Rejection):
            raise ScenarioAborted(step, f"broker {outcome}")
        self._snapshot(step, (f"contracts={len(outcome)}",))

        verdict = custodian.affirm_contracts(outcome)
        if isinstance(verdict, AffirmationRejection):
            raise ScenarioAborted(f"affirmation_{action.institution}", str(verdict))
        self._snapshot(f"affirmation_{action.institution}", (verdict.affirmation_id,))

    def _clear_and_settle(self) -> None:
        events = []
        for custodian_id, custodian in self.eco.custodians.items():
            try:
                sent = custodian.send_trades_to_clearing_rec()
            except ClearingRejected as refusal:
                raise ScenarioAborted("client_trades_to_clearing", str(refusal)) from None
            events.append(f"{custodian_id}:client_trades={sent}")
        self._snapshot("client_trades_to_clearing", tuple(events))

        clearing = self.eco.clearing
        obligations = clearing.clear_rec()
        self._snapshot("clear", (f"obligations={len(obligations)}",))

        try:
            instructions = clearing.settle_rec()
        except SettlementFailed as failure:
            raise ScenarioAborted("settle", str(failure)) from None
        self._snapshot("settle", (f"instructions={len(instructions)}",))

    def _participant_settlement(self) -> None:
        events = []
        for custodian_id, custodian in self.eco.custodians.items():
            moved = custodian.settle_institutional_rec()
            events.append(f"{custodian_id}:distributions={moved}")
        self._snapshot("custodian_settle", tuple(events))

        events = []
        for broker_id, broker in self.eco.brokers.items():
            credited = broker.settle_retail_rec()
            events.append(f"{broker_id}:credits={credited}")
        self._snapshot("broker_settle", tuple(events))

    # -- end-of-scenario checks -------------------------------------------

    def _final_checks(self) -> None:
        checks = self.report.finals
        for exchange_id, exchange in self.eco.exchanges.items():
            checks.append(CheckResult(
                f"no_unreported_trades[{exchange_id}]",
                exchange.pending_report_count() == 0))
        clearing = self.eco.clearing
        checks.append(CheckResult("clearing_queue_empty", clearing.queue_size() == 0))
        checks.append(CheckResult(
            "no_unsettled_obligations", clearing.unsettled_obligations() == 0))
        for broker_id, broker in self.eco.brokers.items():
            checks.append(CheckResult(
                f"no_unaffirmed_contracts[{broker_id}]", not broker.unaffirmed_blocks()))
        for custodian_id, custodian in self.eco.custodians.items():
            checks.append(CheckResult(
                f"no_pending_details[{custodian_id}]", not custodian.pending_blocks()))
            checks.append(CheckResult(
                f"no_undistributed_blocks[{custodian_id}]",
                not custodian.undistributed_blocks()))
        if clearing.netting:
            flat = self.eco.ledger.balance(clearing.ccp_account).amount == 0
            checks.append(CheckResult("ccp_flat", flat))
        unsettled = next((trade for exchange in self.eco.exchanges.values()
                          for trade in exchange.executed
                          if trade.status is not TradeStatus.SETTLED), None)
        checks.append(CheckResult(
            "all_trades_settled", unsettled is None,
            "" if unsettled is None else f"{unsettled.trade_id} is {unsettled.status.value}"))


def run_scenario(product, scenario: Scenario) -> ScenarioReport:
    ecosystem = build_ecosystem(product, scenario)
    return ScenarioRunner(ecosystem, scenario).run()


def _fold(running: dict[str, AccountSnapshot], current: Snapshot,
          previous: Snapshot | None) -> tuple[int, dict[str, int]]:
    """Bring `running` from `previous` to `current`; return the net money and
    per-symbol share change, which equals the difference of their full totals."""
    money = 0
    shares: dict[str, int] = {}
    for account, after in current.changes(previous):
        before = running.get(account)
        if before is not None:
            money -= before.money.amount
            for symbol, qty in before.positions.items():
                shares[symbol] = shares.get(symbol, 0) - qty
        if after is None:
            del running[account]
        else:
            running[account] = after
            money += after.money.amount
            for symbol, qty in after.positions.items():
                shares[symbol] = shares.get(symbol, 0) + qty
    return money, shares


def assert_conservation(report: ScenarioReport) -> list[CheckResult]:
    """Pairwise conservation over the recorded snapshots, then exact
    equality of the final snapshot against the scenario's expectations.

    The steps must be consecutive snapshots of one ledger, from its first,
    as `ScenarioRunner` records them."""
    checks: list[CheckResult] = []
    steps = report.steps
    final: dict[str, AccountSnapshot] = {}  # every account as of the last step folded
    before = None
    for previous, current in zip([None, *steps], steps):
        after = current.snapshot
        money, shares = _fold(final, after, before)
        if previous is not None:
            money_ok = money == 0
            checks.append(CheckResult(
                f"conserve_money[{previous.name}->{current.name}]", money_ok,
                "" if money_ok else f"{total_money(before)} -> {total_money(after)}"))
            equity_ok = not any(shares.values())
            checks.append(CheckResult(
                f"conserve_equity[{previous.name}->{current.name}]", equity_ok,
                "" if equity_ok else f"{total_positions(before)} -> {total_positions(after)}"))
        before = after

    scenario = report.scenario
    if scenario is not None and steps:
        listed = set()
        for expectation in scenario.expected:
            listed.add(expectation.account)
            actual = final.get(expectation.account)
            if actual is None:
                checks.append(CheckResult(
                    f"final[{expectation.account}]", False, "account missing"))
                continue
            want_positions = {s: q for s, q in expectation.positions if q}
            ok = (actual.money.amount == expectation.money
                  and actual.positions == want_positions)
            checks.append(CheckResult(
                f"final[{expectation.account}]", ok,
                "" if ok else
                f"have money={actual.money.amount} positions={actual.positions}, "
                f"want money={expectation.money} positions={want_positions}"))
        for account, balances in sorted(final.items()):
            if account in listed:
                continue
            flat = balances.money.amount == 0 and not balances.positions
            if not flat:
                checks.append(CheckResult(
                    f"final[{account}]", False,
                    f"unlisted account not flat: money={balances.money.amount} "
                    f"positions={balances.positions}"))
    return checks
