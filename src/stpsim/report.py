"""Scenario report rendering: a machine line format, and the human step
log rendered from it.

Participants keep records; `render_machine` is the only code that writes
them as text, each record as one line. The machine format is byte-stable
for identical inputs (no timestamps, all identifiers are counters) so
repeated runs can be diffed.
Its records, in file order, with amounts in minor units:

    run|product=<name>|scenario=<id>
    step|<n>|<name>|<event;event;...>
    balance|<step n>|<account>|<money>|<sym=qty,...>
    trade|<trade id>|<symbol>|<price>|<qty>|<buy order id>|<sell order id>
    audit|<order id>|<stage>|<ok or rejected>|<rule, empty when ok>|<passed stage,...>
    affirmation|affirmed|<block order id>|<affirmation id>|<contract id,...>
    instruction|<id>|<money leg or ->|<equity leg or ->|<trade ref,...>
    journal|<seq>|<kind>|<from>|<to>|<amount>|<symbol?>|<cause>
    check|<name>|pass or check|<name>|FAIL|<detail>
    end|completed or end|aborted|<step>|<cause>

A money leg ``<payer>-><payee>:<amount>`` and an equity leg
``<deliverer>-><receiver>:<qty><symbol>``. A journal entry's kind is
``money`` (its symbol empty) or ``equity`` (its amount a share count).
A broker's audit record, one per order placed or allocation checked, names
the last stage that ran and the stages passed before it (none for a
validation rejection or an allocation check).

A ``balance`` line gives an account's balances from step n on: step 1 lists
every account, and a later step lists only the accounts whose balances
changed since they were last written, so the report grows with what the run
changed, not with steps x accounts. `render_machine` writes them from each
step's `Snapshot.changes()`, which a step's record holds by itself. A file
that restates every account at every step is read the same way. Accounts
are never closed, so every step lists every account an earlier step had.

`parse_machine` reads a file back by these rules, and names the line of the
first record that breaks one in a `ReportParseError`: each record has at
least its kind's fields (`_MIN_FIELDS`), steps are numbered 1, 2, 3, ..., a
``balance`` record carries the number of the ``step`` read last (so none
comes before the first step), and only blank lines may follow the ``end``
record. Blank and whitespace-only lines are skipped.

The machine file is the only source of the human view: `render_parsed`
renders what `parse_machine` reads back. ``stpsim run`` renders its human
output from the machine text it would print, and ``stpsim report`` from a
saved file, so the two commands print the same text for the same run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lifecycle import CheckResult, ScenarioReport
from .money import _new


def render_machine(report: ScenarioReport, checks: list[CheckResult]) -> str:
    lines = [f"run|product={report.product_name}|scenario={report.scenario_id}"]
    written: dict[str, str] = {}  # account -> the "|account|money|positions" text last written
    for index, (name, snapshot, events) in enumerate(report.steps, start=1):
        lines.append(f"step|{index}|{name}|{';'.join(events)}")
        head = f"balance|{index}"
        changes = snapshot.changes()
        if len(changes) > 1:
            changes = sorted(changes)
        for account, (money, positions) in changes:
            if not positions:
                held = ""
            elif len(positions) == 1:  # one symbol: nothing to sort or join
                [(symbol, qty)] = positions.items()
                held = f"{symbol}={qty}"
            else:
                held = ",".join(f"{symbol}={qty}" for symbol, qty in sorted(positions.items()))
            text = f"|{account}|{money.amount}|{held}"
            if written.get(account) != text:
                written[account] = text
                lines.append(head + text)
    for trade in report.trade_lines:
        lines.append(f"trade|{trade.trade_id}|{trade.symbol}|{trade.price.amount}"
                     f"|{trade.quantity}|{trade.buy_order_id}|{trade.sell_order_id}")
    lines.extend(f"audit|{order_id}|{stage}|{outcome}|{rule}|{','.join(passed)}"
                 for order_id, stage, outcome, rule, passed in report.audit_lines)
    lines.extend(
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

    product_name: str
    scenario_id: str
    steps: list[tuple[str, str]]   # (name, events)
    final_balances: dict[str, tuple[int, str]]
    journal_count: int
    trade_count: int
    checks: list[CheckResult]
    aborted: tuple[str, str] | None


class ReportParseError(Exception):
    pass


# The fewest "|"-separated fields, tag included, that each record can have.
_MIN_FIELDS = {"run": 1, "step": 3, "balance": 4, "journal": 8, "trade": 7, "audit": 6,
               "affirmation": 5, "instruction": 5, "check": 3, "end": 2}


def _integer(text: str, line_no: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ReportParseError(f"line {line_no}: {what} {text!r} is not an integer") from None


def parse_machine(text: str) -> ParsedRun:
    product_name = scenario_id = ""
    steps: list[tuple[str, str]] = []
    final: dict[str, tuple[int, str]] = {}  # every account's balances as of the last step read
    checks: list[CheckResult] = []
    journal_count = trade_count = 0
    current = None  # the last step number read; no int equals it before the first step
    aborted = None
    ended = False
    lines = enumerate(text.splitlines(), start=1)
    # One split, one lookup and one length check per line, then the tags from
    # the most to the least frequent record. Audit, affirmation and instruction
    # records are only length-checked, journal and trade records only counted.
    for line_no, line in lines:
        fields = line.split("|")
        tag = fields[0]
        try:
            if len(fields) < _MIN_FIELDS[tag]:
                raise ReportParseError(f"line {line_no}: truncated {tag} record {line!r}")
        except KeyError:
            if line.strip():
                raise ReportParseError(f"line {line_no}: unknown record {tag!r}") from None
            continue
        if tag == "audit":
            pass
        elif tag == "journal":
            journal_count += 1
        elif tag == "balance":
            try:
                if int(fields[1]) != current:
                    raise ReportParseError(
                        f"line {line_no}: balance for step {fields[1]} "
                        + (f"follows step {current}" if current else "precedes the first step"))
                final[fields[2]] = (int(fields[3]), fields[4] if len(fields) > 4 else "")
            except ValueError:  # `_integer` words the error for the first non-integer
                _integer(fields[1], line_no, "step")
                _integer(fields[3], line_no, "money")
                raise
        elif tag == "check":
            status = fields[2]
            if status == "pass":
                checks.append(_new(CheckResult, (fields[1], True, "")))
            elif status == "FAIL":
                checks.append(_new(CheckResult, (fields[1], False,
                                                 fields[3] if len(fields) > 3 else "")))
            else:
                raise ReportParseError(f"line {line_no}: check status {status!r}")
        elif tag == "trade":
            trade_count += 1
        elif tag == "step":
            current = _integer(fields[1], line_no, "step")
            if current != len(steps) + 1:
                raise ReportParseError(f"line {line_no}: step {fields[1]} follows step {len(steps)}")
            steps.append((fields[2], fields[3] if len(fields) > 3 else ""))
        elif tag == "run":
            for part in fields[1:]:
                key, _, value = part.partition("=")
                if key == "product":
                    product_name = value
                elif key == "scenario":
                    scenario_id = value
        elif tag == "end":
            if fields[1] == "aborted":
                if len(fields) < 3:
                    raise ReportParseError(f"line {line_no}: truncated end record {line!r}")
                aborted = (fields[2], "|".join(fields[3:]))
            elif fields[1] != "completed":
                raise ReportParseError(f"line {line_no}: end status {fields[1]!r}")
            ended = True
            break
    for line_no, line in lines:  # only blank lines may follow the end record
        if line.strip():
            raise ReportParseError(
                f"line {line_no}: {line.split('|', 1)[0]} record after the end record")
    if not product_name and not scenario_id:
        raise ReportParseError("not a machine report: missing run header")
    if not ended:
        raise ReportParseError("truncated machine report: missing end record")
    return ParsedRun(product_name, scenario_id, steps, final, journal_count, trade_count,
                     checks, aborted)


def render_parsed(parsed: ParsedRun) -> str:
    lines = [
        f"product:  {parsed.product_name}",
        f"scenario: {parsed.scenario_id}",
        "",
        "steps:",
    ]
    lines += [f"  {index:2d}. {name}  [{events}]" if events else f"  {index:2d}. {name}"
              for index, (name, events) in enumerate(parsed.steps, start=1)]
    final = parsed.final_balances
    if final:
        row = f"  %-{max(map(len, final))}s  money=%-10d  %s"
        lines += ["", "final balances:"]
        lines += [row % (account, money, positions or "-")
                  for account in sorted(final) for money, positions in (final[account],)]
    lines += ["", f"trades: {parsed.trade_count}, journal entries: {parsed.journal_count}"]
    failed = 0
    if parsed.checks:
        lines += ["", "checks:"]
        append = lines.append
        for name, passed, detail in parsed.checks:
            if passed and not detail:
                append(f"  {name}: pass")
            else:
                failed += not passed
                append(f"  {name}: {'pass' if passed else 'FAIL'}"
                       + (f" ({detail})" if detail else ""))
    lines.append("")
    if parsed.aborted is not None:
        lines.append(f"result: ABORTED at {parsed.aborted[0]}: {parsed.aborted[1]}")
    elif failed:
        lines.append(f"result: FAIL ({failed} checks failed)")
    else:
        lines.append("result: PASS")
    return "\n".join(lines) + "\n"
