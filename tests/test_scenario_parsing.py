"""Malformed `.scn` input raises ScenarioFormatError naming its line, and the
CLI turns it into exit code 1 with a one-line message, never a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stpsim
from stpsim.data import catalog_path, config_path, scenario_path
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


# -- names that nothing declares -----------------------------------------------

DECLARED = HEADER + "custodian: CU1\ninstitution: I broker=BR1 custodian=CU1 ends=E1\n"
UNDECLARED_LINE = DECLARED.count("\n") + 1

UNDECLARED = {
    "retail_broker": ("retail: B broker=BR7", "broker 'BR7'"),
    "institution_broker": ("institution: J broker=BR7 custodian=CU1 ends=E2", "broker 'BR7'"),
    "institution_custodian": ("institution: J broker=BR1 custodian=CU9 ends=E2",
                              "custodian 'CU9'"),
    "order_client": ("order: RC9 buy 10 ACME limit 5", "client 'RC9'"),
    "allocate_institution": ("allocate: I9 order=1 E1=10", "institution 'I9'"),
    "allocate_order": ("allocate: I order=9 E1=10", "order 9"),
}


@pytest.mark.parametrize("bad, named", UNDECLARED.values(), ids=UNDECLARED.keys())
def test_undeclared_name_raises_format_error_with_line_number(bad, named):
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(DECLARED + bad + "\n")
    assert str(info.value) == f"line {UNDECLARED_LINE}: undeclared {named}"


def test_names_may_be_declared_after_the_line_that_uses_them():
    scenario = parse_scenario("scenario: s\norder: A buy 1 ACME market\n"
                              "retail: A broker=BR1\nbroker: BR1\n")
    assert scenario.broker_of("A") == "BR1"


# -- accounts declared twice, and splits outside an institution's ends -----------

# The header declares A on line 4 and I with end client E1 on line 7.
MISDECLARED = {
    "retail_declared_twice": ("retail: A broker=BR1", "account 'A' already declared on line 4"),
    "retail_is_an_end_client": ("retail: E1 broker=BR1",
                                "account 'E1' already declared on line 7"),
    "institution_declared_twice": ("institution: I broker=BR1 custodian=CU1 ends=E2",
                                   "account 'I' already declared on line 7"),
    "end_client_of_two_institutions": ("institution: J broker=BR1 custodian=CU1 ends=E1",
                                       "account 'E1' already declared on line 7"),
    "end_client_listed_twice": ("institution: J broker=BR1 custodian=CU1 ends=E2,E2",
                                f"account 'E2' already declared on line {UNDECLARED_LINE}"),
    "split_outside_ends": ("allocate: I order=1 E9=10", "'E9' is not an end client of I"),
}


@pytest.mark.parametrize("bad, message", MISDECLARED.values(), ids=MISDECLARED.keys())
def test_misdeclared_account_raises_format_error_with_line_number(bad, message):
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(DECLARED + bad + "\n")
    assert str(info.value) == f"line {UNDECLARED_LINE}: {message}"


def test_split_may_name_an_end_client_declared_later():
    scenario = parse_scenario(HEADER + "allocate: I order=1 E1=10\ncustodian: CU1\n"
                              "institution: I broker=BR1 custodian=CU1 ends=E1\n")
    assert scenario.allocations[0].splits == (("E1", 10),)


@pytest.mark.parametrize("old, new, message", [
    ("EC1=60 EC2=40", "EC1=60 EC9=40", "line 24: 'EC9' is not an end client of INST1"),
    ("retail: RC2 broker=BR2\n", "retail: RC2 broker=BR2\nretail: RC2 broker=BR1\n",
     "line 17: account 'RC2' already declared on line 16"),
], ids=["split_outside_ends", "client_declared_twice"])
def test_cli_exits_one_without_traceback_on_misdeclared_account(tmp_path, old, new, message):
    text = scenario_path("retail_institutional").read_text()
    assert text.count(old) == 1
    edited = tmp_path / "edited.scn"
    edited.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(Path(stpsim.__file__).parent.parent))
    result = subprocess.run(
        [sys.executable, "-m", "stpsim.cli", "run", str(catalog_path()),
         str(config_path("seco_a")), str(edited)],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("scenario_id, old, new, message", [
    ("retail_retail", "retail: RC2 broker=BR2", "retail: RC2 broker=BR7",
     "line 14: undeclared broker 'BR7'"),
    ("retail_institutional", "custodian=CU1", "custodian=CU9",
     "line 17: undeclared custodian 'CU9'"),
    ("retail_retail", "order: RC2 sell", "order: RC9 sell",
     "line 19: undeclared client 'RC9'"),
], ids=["retail_broker", "institution_custodian", "order_client"])
def test_cli_exits_one_on_undeclared_name_in_shipped_scenario(capsys, tmp_path, scenario_id,
                                                              old, new, message):
    from stpsim.cli import main
    text = scenario_path(scenario_id).read_text()
    assert text.count(old) == 1
    edited = tmp_path / "edited.scn"
    edited.write_text(text.replace(old, new))
    assert main(["run", str(catalog_path()), str(config_path("seco_a")), str(edited)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
