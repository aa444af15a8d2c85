"""One benchmark repeat, made only of the public calls the CLI makes.

``stpsim run --format machine`` parses and derives the product, parses the
scenario, builds the ecosystem, runs the life cycle, checks conservation
and renders the machine report; ``stpsim report`` parses that report back
and renders it. Every call here goes through its module attribute
(``features.derive_product``, not a local import), so the traced run can
wrap the same entry points that the untraced run calls.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from stpsim import assembly, data, features, lifecycle, report, scenarios
from stpsim.scenarios import SCENARIO_IDS
from stpsim.trading import TradeStatus

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_PRODUCTS = ("seco_a", "seco_b")

# Reported times are in reference seconds: a phase's wall time scaled by
# REFERENCE_S / (the time `reference_kernel` took just before and just after
# that phase). The shared host's speed drifts by up to 2x within seconds and
# across minutes, and CPU time drifts with it, so raw seconds from runs
# minutes apart cannot be compared. The kernel drifts the same way and never
# calls the program, so the ratio keeps every change the program makes and
# cancels the drift. On a machine where the kernel takes REFERENCE_S,
# reference seconds are seconds.
REFERENCE_S = 0.015


class BenchError(Exception):
    """The benchmark could not set a workload up; not a timing outcome."""


def setup(product_name: str, scenario_text: str):
    """Parse and derive the product, parse the scenario, build the ecosystem."""
    config = data.config_path(product_name)
    model = features.parse_feature_model(data.catalog_path().read_text(encoding="utf-8"))
    cfg = features.parse_configuration(config.read_text(encoding="utf-8"))
    validation = features.validate_configuration(model, cfg)
    if not validation.valid:
        raise BenchError(f"{config.name} is invalid: {validation.violations}")
    product = features.derive_product(model, cfg, config.stem.upper())
    scenario = scenarios.parse_scenario(scenario_text)
    return assembly.build_ecosystem(product, scenario), scenario


def life_cycle(eco, scenario):
    """Everything ``stpsim run --format machine`` does after set-up."""
    run_report = lifecycle.ScenarioRunner(eco, scenario).run()
    checks = lifecycle.assert_conservation(run_report)
    return run_report, checks, report.render_machine(run_report, checks)


def read_back(text: str):
    """The ``stpsim report`` read path."""
    parsed = report.parse_machine(text)
    report.render_parsed(parsed)
    return parsed


def verify(eco, run_report, checks, parsed) -> list[str]:
    """Reasons the repeat is wrong; empty when it is correct."""
    failures = []
    if run_report.aborted is not None:
        failures.append("aborted at {}: {}".format(*run_report.aborted))
    failures += [check.line() for check in list(run_report.finals) + checks
                 if not check.passed]
    unsettled = [trade.trade_id for exchange in eco.exchanges.values()
                 for trade in exchange.executed if trade.status is not TradeStatus.SETTLED]
    if unsettled:
        failures.append(f"{len(unsettled)} trades not settled, first {unsettled[0]}")
    live = (len(run_report.steps), len(run_report.trade_lines), len(run_report.journal_lines))
    read = (len(parsed.steps), parsed.trade_count, parsed.journal_count)
    if live != read:
        failures.append(f"report read back (steps, trades, journal) {read}, live {live}")
    return failures


class _Row:
    __slots__ = ("key", "rank", "name")

    def __init__(self, key: int, rank: int, name: str):
        self.key, self.rank, self.name = key, rank, name


def reference_kernel() -> int:
    """Fixed pure-Python work in the program's proportions: object and dict
    churn, keyed ``min`` scans, formatting and parsing of pipe records."""
    rows = [_Row(i, (i * 7919) % 1009, f"A{i:05d}") for i in range(3000)]
    best = [min(rows, key=lambda row: (row.rank, -row.key)) for _ in range(6)]
    copies = [{row.name: (row.rank, {"X": row.key}) for row in rows} for _ in range(3)]
    text = "\n".join(f"balance|{row.key}|{row.name}|{row.rank}" for row in rows)
    total = sum(int(line.split("|")[3]) for line in text.splitlines())
    return best[-1].key + len(copies) + total


def calibration_s() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


@dataclass
class Repeat:
    orders: int
    setup_s: float             # reference seconds, like the three below
    life_cycle_s: float
    report_s: float
    wall_s: float
    raw_s: tuple[float, ...]   # wall seconds of set-up, life cycle, report, kernel
    report_bytes: int
    digest: str
    failures: list[str] = field(default_factory=list)


def run_once(product_name: str, scenario_text: str) -> Repeat:
    """Set up, run and read back one workload, timing each phase.

    The reference kernel runs before, between and after the three phases,
    and each phase is scaled by the mean of the two kernel times around it.
    """
    clock = time.perf_counter
    kernel = [calibration_s()]
    start = clock()
    eco, scenario = setup(product_name, scenario_text)
    set_up = clock() - start
    kernel.append(calibration_s())
    start = clock()
    run_report, checks, text = life_cycle(eco, scenario)
    ran = clock() - start
    kernel.append(calibration_s())
    start = clock()
    parsed = read_back(text)
    read = clock() - start
    kernel.append(calibration_s())
    scales = [2 * REFERENCE_S / (a + b) for a, b in zip(kernel, kernel[1:])]
    encoded = text.encode("utf-8")
    return Repeat(
        orders=len(scenario.orders),
        setup_s=set_up * scales[0],
        life_cycle_s=ran * scales[1],
        report_s=read * scales[2],
        wall_s=set_up * scales[0] + ran * scales[1] + read * scales[2],
        raw_s=(set_up, ran, read, sum(kernel) / len(kernel)),
        report_bytes=len(encoded),
        digest=hashlib.sha256(encoded).hexdigest(),
        failures=verify(eco, run_report, checks, parsed),
    )


def cli_parity() -> list[str]:
    """Compare this module's call path with the CLI on every shipped pair.

    The CLI runs as its own process, exactly as a user would start it.
    """
    mismatches = []
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for product_name in SHIPPED_PRODUCTS:
        for scenario_id in SCENARIO_IDS:
            command = [sys.executable, "-m", "stpsim.cli", "run", str(data.catalog_path()),
                       str(data.config_path(product_name)), scenario_id, "--format", "machine"]
            cli = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, timeout=120)
            text = data.scenario_path(scenario_id).read_text(encoding="utf-8")
            ours = life_cycle(*setup(product_name, text))[2].encode("utf-8")
            if cli.returncode != 0 or cli.stdout != ours:
                mismatches.append(
                    f"{product_name} x {scenario_id}: cli exit {cli.returncode}, "
                    f"{len(cli.stdout)} bytes; harness {len(ours)} bytes")
    return mismatches
