"""Malformed `.scn` input raises ScenarioFormatError naming its line, and the
CLI turns it into exit code 1 with a one-line message, never a traceback."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import stpsim
from stpsim.data import catalog_path, config_path, scenario_path
from stpsim.scenarios import Institution, ScenarioFormatError, parse_scenario

HEADER = """\
scenario: broken
symbol: ACME
broker: BR1
retail: A broker=BR1
order: A buy 10 ACME limit 5
"""
BAD_LINE = HEADER.count("\n") + 1
# the three roles a scenario cannot run without; appended where a text must parse
ROLES = "clearing_corporation: CC1\nclearing_bank: CB1\ndepository: DP1\n"

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
    scenario = parse_scenario(HEADER + ROLES)
    assert scenario.orders[0].quantity == 10
    assert scenario._brokers["A"] == "BR1"  # the map the runner reads per order


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
    "order_symbol": ("order: A buy 10 ACMF limit 5", "symbol 'ACMF'"),
    "allocate_institution": ("allocate: I9 order=1 E1=10", "institution 'I9'"),
    "allocate_order": ("allocate: I order=9 E1=10", "order 9"),
}


@pytest.mark.parametrize("bad, named", UNDECLARED.values(), ids=UNDECLARED.keys())
def test_undeclared_name_raises_format_error_with_line_number(bad, named):
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(DECLARED + bad + "\n")
    assert str(info.value) == f"line {UNDECLARED_LINE}: undeclared {named}"


def test_names_may_be_declared_after_the_line_that_uses_them():
    scenario = parse_scenario("scenario: s\norder: A buy 1 ACME market\nsymbol: ACME\n"
                              "retail: A broker=BR1\nbroker: BR1\n" + ROLES)
    assert scenario._brokers["A"] == "BR1"
    assert scenario.symbols == ("ACME",)


def test_institutions_are_looked_up_by_account_also_after_replace():
    scenario = parse_scenario(DECLARED + ROLES)
    assert scenario.institution("I") == Institution("I", "BR1", "CU1", ("E1",))
    moved = Institution("J", "BR2", "CU1", ("E2",))
    edited = replace(scenario, institutions=(moved,))
    assert edited.institution("J") is moved
    assert "J" in edited._institutions and "I" not in edited._institutions
    assert edited._brokers["J"] == "BR2"


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
    scenario = parse_scenario(HEADER + "order: I buy 10 ACME limit 5\n"
                              "allocate: I order=2 E1=10\ncustodian: CU1\n"
                              "institution: I broker=BR1 custodian=CU1 ends=E1\n" + ROLES)
    assert scenario.allocations[0].splits == (("E1", 10),)


def test_an_institution_allocates_only_its_own_orders():
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(DECLARED + "allocate: I order=1 E1=10\n" + ROLES)
    assert str(info.value) == f"line {UNDECLARED_LINE}: order 1 is A's, not I's"
    # the shipped block allocated as RC2's sell: refused, not run to a false abort
    text = scenario_path("retail_institutional").read_text()
    edited = text.replace("allocate: INST1 order=2 ", "allocate: INST1 order=1 ")
    assert edited != text
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(edited)
    assert str(info.value) == "line 24: order 1 is RC2's, not INST1's"


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


# -- participants, endowments and allocations in a shipped scenario ---------------

# In retail_institutional.scn: BR1 is on line 8, X1 on 11, CC1 on 12, the
# RC2 endowment on 19 and the allocation of order 2 on 24.
SHIPPED_DEFECTS = {
    "broker_declared_twice": ("broker: BR2\n", "broker: BR2\nbroker: BR1\n",
                              "line 10: broker 'BR1' already declared on line 8"),
    "exchange_declared_twice": ("exchange: X1\n", "exchange: X1\nexchange: X1\n",
                                "line 12: exchange 'X1' already declared on line 11"),
    "second_clearing_corporation": (
        "clearing_corporation: CC1\n", "clearing_corporation: CC1\nclearing_corporation: CC2\n",
        "line 13: second clearing_corporation 'CC2' ('CC1' declared on line 12)"),
    "no_clearing_corporation": ("clearing_corporation: CC1\n", "",
                                "line 1: missing 'clearing_corporation:' line"),
    "no_clearing_bank": ("clearing_bank: CB1\n", "", "line 1: missing 'clearing_bank:' line"),
    "no_depository": ("depository: DP1\n", "", "line 1: missing 'depository:' line"),
    "client_named_like_a_house_account": (
        "retail: RC2 broker=BR2\n", "retail: RC2 broker=BR2\nretail: BR1.house broker=BR2\n",
        "line 17: account 'BR1.house' already declared on line 8"),
    "negative_endowment": ("endow: RC2 ACME=100", "endow: RC2 ACME=-100",
                           "line 19: negative endowment ACME=-100 for 'RC2'"),
    "undeclared_endowed_account": ("endow: RC2 ACME=100\n",
                                   "endow: RC2 ACME=100\nendow: ZZ9 money=500\n",
                                   "line 20: undeclared account 'ZZ9'"),
    "account_endowed_twice": ("endow: RC2 ACME=100\n",
                              "endow: RC2 ACME=100\nendow: RC2 money=500\n",
                              "line 20: account 'RC2' already endowed on line 19"),
    "order_allocated_twice": ("allocate: INST1 order=2 EC1=60 EC2=40\n",
                              "allocate: INST1 order=2 EC1=60 EC2=40\n" * 2,
                              "line 25: order 2 already allocated on line 24"),
    "undeclared_expected_account": ("expect: CC1.ccp money=0\n",
                                    "expect: CC1.ccp money=0\nexpect: ZZ9 money=0\n",
                                    "line 33: undeclared account 'ZZ9'"),
}


def _edited_shipped(old, new):
    text = scenario_path("retail_institutional").read_text()
    assert text.count(old) == 1
    return text.replace(old, new)


@pytest.mark.parametrize("old, new, message", SHIPPED_DEFECTS.values(),
                         ids=SHIPPED_DEFECTS.keys())
def test_shipped_scenario_defect_raises_format_error_with_line_number(old, new, message):
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(_edited_shipped(old, new))
    assert str(info.value) == message


def test_participant_accounts_may_be_endowed_before_their_participant_line():
    scenario = parse_scenario(_edited_shipped(
        "endow: RC2 ACME=100\n",
        "endow: RC2 ACME=100\nendow: BR1.house money=5\nendow: CC1.ccp ACME=0\n"
        "endow: EC1 money=0\n").replace("broker: BR1\n", "") + "broker: BR1\n")
    endowed = {e.account: (e.money, e.positions) for e in scenario.endowments}
    assert endowed["BR1.house"] == (5, ())
    assert endowed["CC1.ccp"] == (0, (("ACME", 0),))
    assert endowed["EC1"] == (0, ())


def test_cli_exits_one_without_traceback_on_shipped_scenario_defect(tmp_path):
    old, new, message = SHIPPED_DEFECTS["broker_declared_twice"]
    edited = tmp_path / "edited.scn"
    edited.write_text(_edited_shipped(old, new))
    env = dict(os.environ, PYTHONPATH=str(Path(stpsim.__file__).parent.parent))
    result = subprocess.run(
        [sys.executable, "-m", "stpsim.cli", "run", str(catalog_path()),
         str(config_path("seco_b")), str(edited)],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr == f"error: {message}\n"


# -- the full error text of a malformed key=value line ----------------------------

ERROR_TEXTS = {
    "expect_money_not_an_integer": ("expect: A money=x", "bad integer 'x'"),
    "expect_word_without_equals": ("expect: A ACME", "expected key=value, got 'ACME'"),
    "expect_empty_key": ("expect: A =7", "expected key=value, got '=7'"),
    "endow_money_not_an_integer": ("endow: A money=x", "bad integer 'x'"),
    "endow_word_without_equals": ("endow: A money=5 ACME", "expected key=value, got 'ACME'"),
    "endow_empty_key": ("endow: A =7", "expected key=value, got '=7'"),
    "endow_negative_after_a_repeat": ("endow: A ACME=5 money=-1 ACME=-2",
                                      "negative endowment ACME=-2 for 'A'"),
    "retail_broker_without_equals": ("retail: B broker", "expected key=value, got 'broker'"),
    "retail_without_broker": ("retail: B", "missing broker="),
    "retail_empty_key": ("retail: B broker=BR1 =x", "expected key=value, got '=x'"),
    "institution_broker_without_equals": ("institution: I broker custodian=CU1 ends=E1",
                                          "expected key=value, got 'broker'"),
    "institution_without_custodian": ("institution: I broker=BR1 ends=E1",
                                      "missing custodian="),
    "institution_empty_key": ("institution: I broker=BR1 custodian=CU1 ends=E1 =x",
                              "expected key=value, got '=x'"),
    "institution_trailing_comma": ("institution: I broker=BR1 custodian=CU1 ends=E1,E2,",
                                   "empty end client name in ends='E1,E2,'"),
    "institution_doubled_comma": ("institution: I broker=BR1 custodian=CU1 ends=E1,,E2",
                                  "empty end client name in ends='E1,,E2'"),
    "institution_empty_ends": ("institution: I broker=BR1 custodian=CU1 ends=",
                               "empty end client name in ends=''"),
    "allocate_split_not_an_integer": ("allocate: I order=1 E1=five", "bad integer 'five'"),
    "allocate_order_not_an_integer": ("allocate: I order=x E1=5", "bad integer 'x'"),
    "allocate_word_without_equals": ("allocate: I order=1 E1", "expected key=value, got 'E1'"),
    "allocate_without_order": ("allocate: I E1=5", "missing order="),
    "allocate_empty_key": ("allocate: I order=1 =5", "expected key=value, got '=5'"),
}


@pytest.mark.parametrize("bad, message", ERROR_TEXTS.values(), ids=ERROR_TEXTS.keys())
def test_malformed_key_value_line_raises_its_full_error_text(bad, message):
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(HEADER + bad + "\n" + ROLES)
    assert str(info.value) == f"line {BAD_LINE}: {message}"
    assert info.value.line == BAD_LINE


@pytest.mark.parametrize("ends", ["EC1,EC2,", "EC1,,EC2", ",EC1,EC2"])
def test_cli_refuses_an_empty_end_client_name_in_a_shipped_scenario(tmp_path, ends):
    text = scenario_path("institutional_institutional").read_text()
    assert text.count("ends=EC1,EC2\n") == 1
    edited = tmp_path / "edited.scn"
    edited.write_text(text.replace("ends=EC1,EC2\n", f"ends={ends}\n"))
    env = dict(os.environ, PYTHONPATH=str(Path(stpsim.__file__).parent.parent))
    result = subprocess.run(
        [sys.executable, "-m", "stpsim.cli", "run", str(catalog_path()),
         str(config_path("seco_b")), str(edited), "--format", "machine"],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"error: line 16: empty end client name in ends='{ends}'\n"



# -- unknown keys, undeclared symbols and a second expect: line --------------------

REFUSED = {
    "retail_unknown_key": ("retail: B broker=BR1 brokr=BR1", "unknown key 'brokr'"),
    "institution_unknown_key": ("institution: I broker=BR1 custodian=CU1 ends=E1 end=E2",
                                "unknown key 'end'"),
    "endow_undeclared_symbol": ("endow: A money=5 BOLT=3", "undeclared symbol 'BOLT'"),
    "expect_undeclared_symbol": ("expect: A ACME=10 BOLT=0", "undeclared symbol 'BOLT'"),
    "expect_twice": ("expect: A money=0\nexpect: A ACME=10",
                     f"account 'A' already expected on line {BAD_LINE}"),
    "expect_undeclared_account": ("expect: ZZ9 money=0", "undeclared account 'ZZ9'"),
    "scenario_twice": ("scenario: other", "scenario already declared on line 1"),
    "currency_twice": ("currency: USD\ncurrency: EUR",
                       f"currency already declared on line {BAD_LINE}"),
    "symbol_twice": ("symbol: ACME", "symbol 'ACME' already declared on line 2"),
}
# a header, symbol or participant line that names two values
REFUSED.update({
    f"{key}_two_values": (f"{key}: V1 V2", f"{key!r} takes one value, got 'V1 V2'")
    for key in ("scenario", "currency", "symbol", "broker", "exchange", "clearing_corporation",
                "clearing_bank", "depository", "custodian")})


@pytest.mark.parametrize("bad, message", REFUSED.values(), ids=REFUSED.keys())
def test_unknown_key_undeclared_symbol_and_second_expect_are_refused(bad, message):
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(HEADER + bad + "\n" + ROLES)
    line = BAD_LINE + bad.count("\n")
    assert str(info.value) == f"line {line}: {message}"


def test_a_symbol_may_be_declared_after_the_positions_that_name_it():
    scenario = parse_scenario(HEADER + "endow: A BOLT=3\nexpect: A BOLT=3\n"
                              "symbol: BOLT\n" + ROLES)
    assert scenario.endowments[0].positions == (("BOLT", 3),)
    assert scenario.expected[0].positions == (("BOLT", 3),)


@pytest.mark.parametrize("scenario_id, old, new, message", [
    ("retail_retail", "retail: RC2 broker=BR2\n", "retail: RC2 broker=BR2 brokr=BR1\n",
     "line 14: unknown key 'brokr'"),
    ("institutional_institutional", "endow: CU2.omnibus ACME=100\n",
     "endow: CU2.omnibus ACME=100 mony=5\n", "line 20: undeclared symbol 'mony'"),
    ("institutional_institutional", "expect: EC1 ACME=60\n", "expect: EC1 ACME=60 AMCE=0\n",
     "line 27: undeclared symbol 'AMCE'"),
    ("retail_retail", "order: RC2 sell 100 ACME", "order: RC2 sell 100 ACMF",
     "line 19: undeclared symbol 'ACMF'"),
    ("retail_retail", "expect: CC1.ccp money=0\n",
     "expect: CC1.ccp money=0\nexpect: RC1 money=1\n",
     "line 28: account 'RC1' already expected on line 23"),
    ("retail_retail", "currency: USD\n", "currency: USD\ncurrency: EUR\n",
     "line 4: currency already declared on line 3"),
    ("retail_retail", "scenario: retail_retail\n", "scenario: retail_retail\nscenario: other\n",
     "line 3: scenario already declared on line 2"),
    ("retail_retail", "symbol: ACME\n", "symbol: ACME\nsymbol: ACME\n",
     "line 5: symbol 'ACME' already declared on line 4"),
    ("retail_retail", "symbol: ACME\n", "symbol: ACME BOLT\n",
     "line 4: 'symbol' takes one value, got 'ACME BOLT'"),
    ("retail_retail", "broker: BR2\n", "broker: BR2 BR3\n",
     "line 7: 'broker' takes one value, got 'BR2 BR3'"),
    ("retail_retail", "expect: CC1.ccp money=0\n",
     "expect: CC1.ccp money=0\nexpect: ZZ9 money=0\n", "line 28: undeclared account 'ZZ9'"),
], ids=["retail_unknown_key", "endow_undeclared_symbol", "expect_undeclared_symbol",
        "order_undeclared_symbol", "expect_twice", "currency_twice", "scenario_twice",
        "symbol_twice", "symbol_two_values", "broker_two_values", "expect_undeclared_account"])
def test_cli_refuses_an_unknown_key_undeclared_symbol_or_second_expect(
        capsys, scenario_id, old, new, message, tmp_path):
    from stpsim.cli import main
    text = scenario_path(scenario_id).read_text()
    assert text.count(old) == 1
    edited = tmp_path / "edited.scn"
    edited.write_text(text.replace(old, new))
    assert main(["run", str(catalog_path()), str(config_path("seco_a")), str(edited),
                 "--format", "machine"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


# -- '|', the machine report's field separator -------------------------------------

BAR = "'|' is reserved: it separates the machine report's fields"


@pytest.mark.parametrize("old, new, line", [
    ("symbol: ACME\n", "symbol: AC|ME\n", 4),
    ("retail: RC1 broker=BR1\n", "retail: R|1 broker=BR1\n", 13),
    ("broker: BR1\n", "broker: B|1\n", 6),
    ("scenario: retail_retail\n", "scenario: retail|retail\n", 2),
], ids=["symbol", "account", "participant_id", "scenario_id"])
def test_cli_refuses_a_bar_in_a_name(capsys, tmp_path, old, new, line):
    from stpsim.cli import main
    text = scenario_path("retail_retail").read_text()
    assert text.count(old) == 1
    edited = tmp_path / "edited.scn"
    edited.write_text(text.replace(old, new))
    assert main(["run", str(catalog_path()), str(config_path("seco_a")), str(edited),
                 "--format", "machine"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: line {line}: {BAR}\n")


def test_a_bar_in_a_comment_is_allowed():
    scenario = parse_scenario(HEADER + "# money | shares\nexpect: A money=0  # a|b\n" + ROLES)
    assert scenario.expected[0].account == "A"
