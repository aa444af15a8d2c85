"""Scenario report rendering: a human step log or a machine line format.

The machine format is byte-stable for identical inputs (no timestamps, all
identifiers are counters) so repeated runs can be diffed:

    run|product=<name>|scenario=<id>
    step|<n>|<name>|<event;event;...>
    balance|<step n>|<account>|<money>|<sym=qty,...>
    journal|<seq>|<kind>|<from>|<to>|<amount>|<symbol?>|<cause>
    check|<name>|pass or check|<name>|FAIL|<detail>
    end|completed or end|aborted|<step>|<cause>

Every step lists every account. `render_machine` formats an account's
balance text once per `AccountSnapshot` object and reuses it for the steps
that share that object, so the cost of rendering follows what changed.

The ``report`` command reads a machine file back and renders the human view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ledger import AccountSnapshot, Snapshot
from .lifecycle import CheckResult, ScenarioReport


def _positions_text(positions: dict[str, int]) -> str:
    return ",".join(f"{symbol}={qty}" for symbol, qty in sorted(positions.items()))


def render_machine(report: ScenarioReport, checks: list[CheckResult]) -> str:
    lines = [f"run|product={report.product_name}|scenario={report.scenario_id}"]
    # account -> (the AccountSnapshot last formatted, its "|account|money|positions"
    # text); consecutive steps share the objects of untouched accounts
    suffixes: dict[str, tuple[AccountSnapshot, str]] = {}
    accounts: list[str] = []
    previous: Snapshot = {}
    for index, step in enumerate(report.steps, start=1):
        lines.append(f"step|{index}|{step.name}|{';'.join(step.events)}")
        snapshot = step.snapshot
        if snapshot.keys() != previous.keys():
            accounts = sorted(snapshot)
        previous = snapshot
        head = f"balance|{index}"
        for account in accounts:
            balances = snapshot[account]
            cached = suffixes.get(account)
            if cached is None or cached[0] is not balances:
                cached = suffixes[account] = (balances, (
                    f"|{account}|{balances.money.amount}|{_positions_text(balances.positions)}"))
            lines.append(head + cached[1])
    for trade_line in report.trade_lines:
        lines.append(f"trade|{trade_line}")
    for audit_line in report.audit_lines:
        lines.append(f"audit|{audit_line}")
    for affirmation_line in report.affirmation_lines:
        lines.append(f"affirmation|{affirmation_line}")
    for instruction_line in report.instruction_lines:
        lines.append(f"instruction|{instruction_line}")
    for journal_line in report.journal_lines:
        lines.append(f"journal|{journal_line}")
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


def render_human(report: ScenarioReport, checks: list[CheckResult]) -> str:
    lines = [
        f"product:  {report.product_name}",
        f"scenario: {report.scenario_id}",
        "",
        "steps:",
    ]
    for index, step in enumerate(report.steps, start=1):
        suffix = f"  [{'; '.join(step.events)}]" if step.events else ""
        lines.append(f"  {index:2d}. {step.name}{suffix}")
    if report.steps:
        lines.append("")
        lines.append("final balances:")
        final = report.steps[-1].snapshot
        width = max(len(account) for account in final)
        for account in sorted(final):
            balances = final[account]
            positions = _positions_text(balances.positions) or "-"
            lines.append(f"  {account:<{width}}  money={balances.money.amount:<10}  {positions}")
    all_checks = list(report.finals) + list(checks)
    if all_checks:
        lines.append("")
        lines.append("checks:")
        for check in all_checks:
            lines.append(f"  {check.line()}")
    lines.append("")
    if report.aborted is not None:
        step, cause = report.aborted
        lines.append(f"result: ABORTED at {step}: {cause}")
    elif all(check.passed for check in all_checks):
        lines.append("result: PASS")
    else:
        failed = sum(1 for check in all_checks if not check.passed)
        lines.append(f"result: FAIL ({failed} checks failed)")
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


def parse_machine(text: str) -> ParsedRun:
    parsed = ParsedRun()
    latest_step: int | None = None  # only this step's balances are kept
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("|")
        tag = fields[0]
        if tag == "run":
            for part in fields[1:]:
                key, _, value = part.partition("=")
                if key == "product":
                    parsed.product_name = value
                elif key == "scenario":
                    parsed.scenario_id = value
        elif tag == "step":
            parsed.steps.append((fields[2], fields[3] if len(fields) > 3 else ""))
        elif tag == "balance":
            step_index, money = int(fields[1]), int(fields[3])
            if latest_step is None or step_index > latest_step:
                latest_step, parsed.final_balances = step_index, {}
            if step_index == latest_step:
                parsed.final_balances[fields[2]] = (money, fields[4] if len(fields) > 4 else "")
        elif tag == "journal":
            parsed.journal_count += 1
        elif tag == "trade":
            parsed.trade_count += 1
        elif tag in ("audit", "affirmation", "instruction"):
            pass
        elif tag == "check":
            if fields[2] == "pass":
                parsed.checks.append(CheckResult(fields[1], True))
            else:
                detail = fields[3] if len(fields) > 3 else ""
                parsed.checks.append(CheckResult(fields[1], False, detail))
        elif tag == "end":
            if fields[1] == "aborted":
                parsed.aborted = (fields[2], "|".join(fields[3:]))
        else:
            raise ReportParseError(f"line {line_no}: unknown record {tag!r}")
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
