"""Malformed `.scn` input raises ScenarioFormatError naming its line, and the
CLI turns it into exit code 1 with a one-line message, never a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stpsim
from stpsim.data import catalog_path, config_path
from stpsim.scenarios import ScenarioFormatError, parse_scenario

HEADER = """\
scenario: broken
symbol: ACME
broker: BR1
retail: A broker=BR1
order: A buy 10 ACME limit 5
"""
BAD_LINE = HEADER.count("\n") + 1

BAD_LINES = {
    "non_integer_quantity": "order: A buy ten ACME limit 5",
    "non_integer_cap": "order: A buy 10 ACME market cap=x",
    "non_integer_price": "order: A buy 10 ACME limit five",
    "unknown_side": "order: A hold 10 ACME limit 5",
    "retail_without_broker": "retail: B",
    "institution_without_broker": "institution: I custodian=CU1 ends=E1,E2",
    "institution_without_custodian": "institution: I broker=BR1 ends=E1,E2",
    "institution_without_ends": "institution: I broker=BR1 custodian=CU1",
    "allocate_without_order": "allocate: I E1=5",
    "allocate_non_integer_split": "allocate: I order=1 E1=five",
    "empty_symbol": "symbol:",
    "empty_retail": "retail:",
    "empty_scenario": "scenario:",
}


@pytest.mark.parametrize("bad", BAD_LINES.values(), ids=BAD_LINES.keys())
def test_malformed_line_raises_format_error_with_line_number(bad):
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(HEADER + bad + "\nexpect: A money=0\n")
    assert info.value.line == BAD_LINE
    assert str(info.value).startswith(f"line {BAD_LINE}: ")


def test_well_formed_header_parses():
    scenario = parse_scenario(HEADER)
    assert scenario.orders[0].quantity == 10
    assert scenario.broker_of("A") == "BR1"


def test_cli_exits_one_without_traceback_on_malformed_scenario(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text(HEADER + BAD_LINES["non_integer_quantity"] + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(stpsim.__file__).parent.parent))
    result = subprocess.run(
        [sys.executable, "-m", "stpsim.cli", "run", str(catalog_path()),
         str(config_path("seco_a")), str(bad)],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr == f"error: line {BAD_LINE}: bad integer 'ten'\n"
