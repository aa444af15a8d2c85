
import pytest

from conftest import over_the_trade_value_cap
from stpsim.cli import main
from stpsim.data import catalog_path, config_path
from stpsim.features import validate_configuration


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err
    return invoke


CATALOG = str(catalog_path())
SECO_A = str(config_path("seco_a"))
SECO_B = str(config_path("seco_b"))


def test_validate_model_ok(capture):
    code, out, _ = capture("validate-model", CATALOG)
    assert code == 0
    assert "20 variation points" in out
    assert "46 variants" in out


def test_validate_config_ok(capture):
    code, out, _ = capture("validate-config", CATALOG, SECO_A)
    assert code == 0
    assert out.startswith("ok:")


def test_validate_config_names_violated_constraint(capture, tmp_path):
    bad = tmp_path / "bad.cfg"
    lines = config_path("seco_a").read_text().splitlines()
    bad.write_text("\n".join(
        line for line in lines if line.strip() != "FillOrKillMatching") + "\n")
    code, out, _ = capture("validate-config", CATALOG, str(bad))
    assert code == 1
    assert "FillOrKillOrderType => FillOrKillMatching" in out


@pytest.mark.parametrize("argv", [("run", CATALOG, SECO_A, "retail_retail"),
                                  ("derive", CATALOG, SECO_A, "SECO_A")], ids=["run", "derive"])
def test_run_and_derive_validate_the_configuration_once(capture, monkeypatch, argv):
    from stpsim import cli
    from stpsim.features import analysis
    calls = []

    def counting(*args):
        calls.append(args)
        return validate_configuration(*args)

    monkeypatch.setattr(analysis, "validate_configuration", counting)
    monkeypatch.setattr(cli, "validate_configuration", counting)
    code, _, _ = capture(*argv)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command, extra", [("run", "retail_retail"), ("derive", "BAD")])
def test_run_and_derive_print_an_invalid_configuration_as_validate_config_does(
        capture, tmp_path, command, extra):
    bad = tmp_path / "bad.cfg"
    lines = config_path("seco_a").read_text().splitlines()
    bad.write_text("\n".join(
        line for line in lines if line.strip() != "FillOrKillMatching") + "\n")
    _, expected, _ = capture("validate-config", CATALOG, str(bad))
    code, out, err = capture(command, CATALOG, str(bad), extra)
    assert (code, out, err) == (1, expected, "")
    assert out.count("invalid configuration:") == 1


def test_derive_lists_bindings(capture):
    code, out, _ = capture("derive", CATALOG, SECO_A, "SECO_A")
    assert code == 0
    assert "20 variation points bound" in out
    assert "SecondaryOrderPrecedenceRules -> TimePriority" in out


def test_run_happy_path_exit_zero(capture):
    code, out, _ = capture("run", CATALOG, SECO_B, "retail_retail")
    assert code == 0
    assert "result: PASS" in out


def test_run_machine_format_is_byte_identical(capture):
    code1, out1, _ = capture("run", CATALOG, SECO_A, "retail_institutional",
                             "--format", "machine")
    code2, out2, _ = capture("run", CATALOG, SECO_A, "retail_institutional",
                             "--format", "machine")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("run|product=SECO_A|scenario=retail_institutional\n")
    assert out1.rstrip().endswith("end|completed")


def test_run_unknown_scenario_fails(capture):
    code, _, err = capture("run", CATALOG, SECO_A, "no_such_scenario")
    assert code == 1
    assert "unknown scenario" in err


def test_report_round_trip(capture, tmp_path):
    code, machine, _ = capture("run", CATALOG, SECO_A, "institutional_institutional",
                               "--format", "machine")
    assert code == 0
    saved = tmp_path / "run.out"
    saved.write_text(machine)
    code, human, _ = capture("report", str(saved))
    assert code == 0
    assert "result: PASS" in human
    assert "institutional_institutional" in human
    code, echoed, _ = capture("report", str(saved), "--format", "machine")
    assert code == 0
    assert echoed == machine


def test_report_rejects_non_report_file(capture, tmp_path):
    bogus = tmp_path / "bogus.txt"
    bogus.write_text("hello world\n")
    code, _, err = capture("report", str(bogus))
    assert code == 1
    assert "error" in err


def test_usage_error_exits_two(capture):
    with pytest.raises(SystemExit) as exit_info:
        main(["run"])          # missing arguments
    assert exit_info.value.code == 2


def test_missing_file_exits_one(capture):
    code, _, err = capture("validate-model", "/nonexistent/model.fm")
    assert code == 1
    assert "error" in err


def test_syntax_error_reports_location(capture, tmp_path):
    broken = tmp_path / "broken.fm"
    broken.write_text("abstract mandatory Root group:and\n      concrete optional Deep\n")
    code, _, err = capture("validate-model", str(broken))
    assert code == 1
    assert "line 2" in err


def test_run_scenario_from_explicit_path(capture, tmp_path):
    from stpsim.data import scenario_path
    copied = tmp_path / "copy.scn"
    copied.write_text(scenario_path("retail_retail").read_text())
    code, out, _ = capture("run", CATALOG, SECO_A, str(copied))
    assert code == 0
    assert "result: PASS" in out


@pytest.mark.parametrize("command, suffix", [
    ("model", ".fm"), ("config", ".cfg"), ("scenario", ".scn"), ("report", ".out")])
def test_non_utf8_input_exits_one_naming_the_byte(capture, tmp_path, command, suffix):
    from stpsim.data import scenario_path
    shipped = {"model": CATALOG, "config": SECO_A, "scenario": str(scenario_path("retail_retail"))}
    bad = tmp_path / f"bad{suffix}"
    bad.write_bytes(b"scenario: broken\n\xff\n")
    if command == "report":
        argv = ["report", str(bad)]
    else:
        argv = ["run", *{**shipped, command: str(bad)}.values()]
    code, _, err = capture(*argv)
    assert code == 1
    assert err == f"error: {bad}: not UTF-8 (byte 0xff at offset 17)\n"


def test_unreadable_input_exits_one_naming_the_path(capture, tmp_path):
    code, _, err = capture("report", str(tmp_path))
    assert code == 1
    assert err.startswith(f"error: {tmp_path}: ")


@pytest.mark.parametrize("config", [SECO_A, SECO_B])
def test_run_in_a_currency_other_than_usd(capture, tmp_path, config):
    from stpsim.data import scenario_path
    euro = tmp_path / "euro.scn"
    euro.write_text(scenario_path("retail_retail").read_text().replace(
        "currency: USD", "currency: EUR"))
    code, out, err = capture("run", CATALOG, config, str(euro))
    assert code == 0
    assert "result: PASS" in out
    assert err == ""


def test_clearing_refusal_ends_the_run_with_a_report_and_exit_one(capture, tmp_path):
    scn = tmp_path / "over_cap.scn"
    scn.write_text(over_the_trade_value_cap())
    code, out, err = capture("run", CATALOG, SECO_B, str(scn), "--format", "machine")
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == (
        "end|aborted|report_trades|clearing rejected exchange trade X1-T1: "
        "rejected at trade_validation: TradeValueTooLarge (10000000000000USD)")


def test_a_feature_declared_twice_is_named_in_one_error_line(capture, tmp_path):
    model = tmp_path / "twice.fm"
    model.write_text("abstract mandatory Root group:and\n"
                     "  concrete optional B\n"
                     "  concrete optional B\n")
    assert capture("validate-model", str(model)) == (1, "", "error: duplicate feature 'B'\n")


@pytest.mark.parametrize("command, extra", [
    ("validate-config", ()), ("derive", ("SECO_A",)), ("run", ("retail_retail",))])
def test_an_unknown_configured_feature_is_named_in_one_error_line(capture, tmp_path,
                                                                  command, extra):
    config = tmp_path / "unknown.cfg"
    config.write_text(config_path("seco_a").read_text() + "NoSuchFeature\n")
    assert capture(command, CATALOG, str(config), *extra) == (
        1, "", "error: unknown feature 'NoSuchFeature'\n")
