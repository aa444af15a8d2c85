"""Scenario report rendering: a machine line format, and the human step
log rendered from it.

Participants keep records; `render_machine` is the only code that writes
them as text. The machine format is byte-stable for identical inputs (no
timestamps, all identifiers are counters) so repeated runs can be diffed.
Its records, in file order, with amounts in minor units:

    run|product=<name>|scenario=<id>
    step|<n>|<name>|<event;event;...>
    balance|<step n>|<account>|<money>|<sym=qty,...>
    trade|<trade id>|<symbol>|<price>|<qty>|<buy order id>|<sell order id>
    audit|<order id>|<stage>|<ok or rejected>|<rule, empty when ok>
    affirmation|affirmed|<block order id>|<affirmation id>|<contract id,...>
    affirmation|rejected|<block order id>|<violation;violation;...>
    instruction|<id>|<money leg or ->|<equity leg or ->|<trade ref,...>
    journal|<seq>|<kind>|<from>|<to>|<amount>|<symbol?>|<cause>
    check|<name>|pass or check|<name>|FAIL|<detail>
    end|completed or end|aborted|<step>|<cause>

A violation reads ``<rule>: contract=<id or -> detail=<alloc id or ->``, a
money leg ``<payer>-><payee>:<amount>`` and an equity leg
``<deliverer>-><receiver>:<qty><symbol>``. A journal entry's kind is
``money`` (its symbol empty) or ``equity`` (its amount a share count).

A ``balance`` line gives an account's balances from step n on: step 1 lists
every account, and a later step lists only the accounts whose balances
changed since they were last written, so the report grows with what the run
changed, not with steps x accounts. A file that restates every account at
every step is read the same way. Accounts are never closed, so a step whose
snapshot lacks an account an earlier step had cannot be written.

The machine file is the only source of the human view: `render_parsed`
renders what `parse_machine` reads back. ``stpsim run`` renders its human
output from the machine text it would print, and ``stpsim report`` from a
saved file, so the two commands print the same text for the same run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .custodian import AffirmationRejection
from .ledger import Snapshot
from .lifecycle import CheckResult, ScenarioReport


def _positions_text(positions: dict[str, int]) -> str:
    return ",".join(f"{symbol}={qty}" for symbol, qty in sorted(positions.items()))


class VanishedAccountError(Exception):
    """A step's snapshot lacks an account that an earlier step recorded."""


def render_machine(report: ScenarioReport, checks: list[CheckResult]) -> str:
    lines = [f"run|product={report.product_name}|scenario={report.scenario_id}"]
    written: dict[str, str] = {}  # account -> the "|account|money|positions" text last written
    previous: Snapshot | None = None
    for index, step in enumerate(report.steps, start=1):
        lines.append(f"step|{index}|{step.name}|{';'.join(step.events)}")
        head = f"balance|{index}"
        snapshot = step.snapshot
        for account, balances in sorted(snapshot.changes(previous)):
            if balances is None:
                raise VanishedAccountError(
                    f"step {index} ({step.name}) lacks account {account!r}")
            text = f"|{account}|{balances.money.amount}|{_positions_text(balances.positions)}"
            if written.get(account) != text:
                written[account] = text
                lines.append(head + text)
        previous = snapshot
    for trade in report.trade_lines:
        lines.append(f"trade|{trade.trade_id}|{trade.symbol}|{trade.price.amount}"
                     f"|{trade.quantity}|{trade.buy_order_id}|{trade.sell_order_id}")
    lines.extend(f"audit|{order_id}|{stage}|{outcome}|{rule}"
                 for order_id, stage, outcome, rule in report.audit_lines)
    lines.extend(
        f"affirmation|rejected|{a.block_order_id}|{';'.join(map(str, a.violations))}"
        if isinstance(a, AffirmationRejection) else
        f"affirmation|affirmed|{a.block_order_id}|{a.affirmation_id}|{','.join(a.contract_ids)}"
        for a in report.affirmation_lines)
    for instruction in report.instruction_lines:
        money, equity = instruction.money_leg, instruction.equity_leg
        money_text = f"{money.payer}->{money.payee}:{money.amount.amount}" if money else "-"
        equity_text = (f"{equity.deliverer}->{equity.receiver}:{equity.quantity}{equity.symbol}"
                       if equity else "-")
        lines.append(f"instruction|{instruction.instruction_id}|{money_text}|{equity_text}"
                     f"|{','.join(instruction.trade_refs)}")
    lines.extend(f"journal|{seq}|{kind}|{src}|{dst}|{amount}|{symbol or ''}|{cause}"
                 for seq, kind, src, dst, amount, symbol, cause in report.journal_lines)
    for check in list(report.finals) + list(checks):
        if check.passed:
            lines.append(f"check|{check.name}|pass")
        else:
            lines.append(f"check|{check.name}|FAIL|{check.detail}")
    if report.aborted is None:
        lines.append("end|completed")
    else:
        step, cause = report.aborted
        lines.append(f"end|aborted|{step}|{cause}")
    return "\n".join(lines) + "\n"


@dataclass
class ParsedRun:
    """A machine-format report read back for re-rendering."""

    product_name: str = ""
    scenario_id: str = ""
    steps: list[tuple[str, str]] = field(default_factory=list)   # (name, events)
    final_balances: dict[str, tuple[int, str]] = field(default_factory=dict)
    journal_count: int = 0
    trade_count: int = 0
    checks: list[CheckResult] = field(default_factory=list)
    aborted: tuple[str, str] | None = None


class ReportParseError(Exception):
    pass


# The fewest "|"-separated fields, tag included, that each record can have.
_MIN_FIELDS = {"run": 1, "step": 3, "balance": 4, "journal": 8, "trade": 7, "audit": 5,
               "affirmation": 4, "instruction": 5, "check": 3, "end": 2}


def _integer(text: str, line_no: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ReportParseError(f"line {line_no}: {what} {text!r} is not an integer") from None


def parse_machine(text: str) -> ParsedRun:
    parsed = ParsedRun()
    balances = parsed.final_balances  # every account's balances as of the last step read
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("|")
        tag = fields[0]
        least = _MIN_FIELDS.get(tag)
        if least is None:
            raise ReportParseError(f"line {line_no}: unknown record {tag!r}")
        if len(fields) < least or (tag == "end" and fields[1:] == ["aborted"]):
            raise ReportParseError(f"line {line_no}: truncated {tag} record {line!r}")
        if tag == "run":
            for part in fields[1:]:
                key, _, value = part.partition("=")
                if key == "product":
                    parsed.product_name = value
                elif key == "scenario":
                    parsed.scenario_id = value
        elif tag == "step":
            if _integer(fields[1], line_no, "step") != len(parsed.steps) + 1:
                raise ReportParseError(
                    f"line {line_no}: step {fields[1]} follows step {len(parsed.steps)}")
            parsed.steps.append((fields[2], fields[3] if len(fields) > 3 else ""))
        elif tag == "balance":
            if _integer(fields[1], line_no, "step") != len(parsed.steps):
                raise ReportParseError(
                    f"line {line_no}: balance for step {fields[1]} "
                    f"follows step {len(parsed.steps)}")
            balances[fields[2]] = (_integer(fields[3], line_no, "money"),
                                   fields[4] if len(fields) > 4 else "")
        elif tag == "journal":
            parsed.journal_count += 1
        elif tag == "trade":
            parsed.trade_count += 1
        elif tag in ("audit", "affirmation", "instruction"):
            pass
        elif tag == "check":
            if fields[2] == "pass":
                parsed.checks.append(CheckResult(fields[1], True))
            elif fields[2] == "FAIL":
                detail = fields[3] if len(fields) > 3 else ""
                parsed.checks.append(CheckResult(fields[1], False, detail))
            else:
                raise ReportParseError(f"line {line_no}: check status {fields[2]!r}")
        elif fields[1] == "aborted":  # only the end record is left
            parsed.aborted = (fields[2], "|".join(fields[3:]))
        elif fields[1] != "completed":
            raise ReportParseError(f"line {line_no}: end status {fields[1]!r}")
    if not parsed.product_name and not parsed.scenario_id:
        raise ReportParseError("not a machine report: missing run header")
    return parsed


def render_parsed(parsed: ParsedRun) -> str:
    lines = [
        f"product:  {parsed.product_name}",
        f"scenario: {parsed.scenario_id}",
        "",
        "steps:",
    ]
    for index, (name, events) in enumerate(parsed.steps, start=1):
        suffix = f"  [{events}]" if events else ""
        lines.append(f"  {index:2d}. {name}{suffix}")
    if parsed.final_balances:
        lines.append("")
        lines.append("final balances:")
        width = max(len(account) for account in parsed.final_balances)
        for account in sorted(parsed.final_balances):
            money, positions = parsed.final_balances[account]
            lines.append(f"  {account:<{width}}  money={money:<10}  {positions or '-'}")
    lines.append("")
    lines.append(f"trades: {parsed.trade_count}, journal entries: {parsed.journal_count}")
    if parsed.checks:
        lines.append("")
        lines.append("checks:")
        for check in parsed.checks:
            lines.append(f"  {check.line()}")
    lines.append("")
    if parsed.aborted is not None:
        lines.append(f"result: ABORTED at {parsed.aborted[0]}: {parsed.aborted[1]}")
    elif all(check.passed for check in parsed.checks):
        lines.append("result: PASS")
    else:
        failed = sum(1 for check in parsed.checks if not check.passed)
        lines.append(f"result: FAIL ({failed} checks failed)")
    return "\n".join(lines) + "\n"
