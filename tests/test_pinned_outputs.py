"""The pinned outputs of the CLI: the feature layer's commands and machine runs.

Each row is one command line, the exit code it must return and the md5 of its
stdout; stderr must stay empty. `{data}` is the shipped data directory,
`{nofok}` SECO A's configuration without `FillOrKillMatching` (so the
constraint `FillOrKillOrderType => FillOrKillMatching` breaks), `{root}`
a configuration selecting only the root, `{retail_cross}`, `{deep_book}`
and `{block_alloc}` the benchmark workloads' seed-1 scenarios,
`{retail_cross_large}`, `{deep_book_large}` and `{block_alloc_large}` their
large seed-7 scenarios (see LARGE), and `{underfunded}`,
`{short_allocation}`, `{zero_split}`, `{short_omnibus}`, `{two_fill_prices}`
and `{oversized_trade}` shipped scenarios with a few lines edited (see
EDITS). A `run --format machine` row also pins the md5 of what
`stpsim report` prints for that output, and that it equals the human output
of the same `run`.
Every row runs through `cli.main` in-process, and each `run` and `report`
must finish within LIMIT_S; the `run_no_fok_matching` row also runs as a
subprocess, to pin the process contract (exit code, nothing on stderr, no
traceback).
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stpsim
from stpsim.cli import main
from perfbench.workloads import WORKLOADS
from stpsim.data import catalog_path, config_path, scenario_path

PINS = {
    "validate_model": (
        ("validate-model", "{data}/catalog.fm"), 0, "a3418e289bae60e175f2210bed6b34c1"),
    "validate_config_seco_a": (
        ("validate-config", "{data}/catalog.fm", "{data}/seco_a.cfg"), 0,
        "0b7e08145c8c57bf66f12cccebbda40d"),
    "validate_config_seco_b": (
        ("validate-config", "{data}/catalog.fm", "{data}/seco_b.cfg"), 0,
        "41a28384a65ac97c9507b8b8ab1438ee"),
    "derive_seco_a": (
        ("derive", "{data}/catalog.fm", "{data}/seco_a.cfg", "SECO_A"), 0,
        "46b73116005fd8cefef2efb939d8ff34"),
    "derive_seco_b": (
        ("derive", "{data}/catalog.fm", "{data}/seco_b.cfg", "SECO_B"), 0,
        "c9bada12fd8a9565b966499e33c0793c"),
    "validate_config_no_fok_matching": (
        ("validate-config", "{data}/catalog.fm", "{nofok}"), 1,
        "b781b125c5f75e8a1ff86c5015f77ea7"),
    "validate_config_root_only": (
        ("validate-config", "{data}/catalog.fm", "{root}"), 1,
        "afb01eb58f67e1455e59c9cfcb7c6595"),
    # the same one report as validate-config prints, and nothing else
    "run_no_fok_matching": (
        ("run", "{data}/catalog.fm", "{nofok}", "retail_retail"), 1,
        "b781b125c5f75e8a1ff86c5015f77ea7"),
}


LIMIT_S = 60

# the benchmark workloads' large scenarios, at seed 7
LARGE = {"retail_cross": {"pairs": 1600}, "deep_book": {"levels": 384},
         "block_alloc": {"allocations": 400}}

# a shipped scenario with a few lines edited: (scenario, the lines, their edit)
EDITS = {
    "underfunded": ("retail_retail", "endow: RC1 money=150000\n", "endow: RC1 money=100000\n"),
    "short_allocation": ("institutional_institutional",
                         "allocate: INST1 order=2 EC1=60 EC2=40\n",
                         "allocate: INST1 order=2 EC1=60 EC2=30\n"),
    "zero_split": ("retail_institutional", "allocate: INST1 order=2 EC1=60 EC2=40\n",
                   "allocate: INST1 order=2 EC1=100 EC2=0\n"),
    "short_omnibus": ("retail_institutional", "endow: CU1.omnibus money=104000\n",
                      "endow: CU1.omnibus money=100000\n"),
    "two_fill_prices": ("retail_institutional",
                        "order: RC2 sell 100 ACME limit 1040\n"
                        "order: INST1 buy 100 ACME limit 1040\n"
                        "allocate: INST1 order=2 EC1=60 EC2=40\n",
                        "order: RC2 sell 60 ACME limit 1040\n"
                        "order: RC2 sell 40 ACME limit 1030\n"
                        "order: INST1 buy 100 ACME limit 1040\n"
                        "allocate: INST1 order=3 EC1=60 EC2=40\n"),
    "oversized_trade": ("retail_retail",
                        "endow: RC1 money=150000\n"
                        "endow: RC2 ACME=100\n\n"
                        "order: RC2 sell 100 ACME limit 1040\n"
                        "order: RC1 buy 100 ACME limit 1040\n",
                        "endow: RC1 money=3000000000000\n"
                        "endow: RC2 ACME=100\n\n"
                        "order: RC2 sell 100 ACME limit 20000000000\n"
                        "order: RC1 buy 100 ACME limit 20000000000\n"),
}


def _machine_run(product: str, scenario: str, digest: str, shown: str, code: int = 0):
    return (("run", "{data}/catalog.fm", f"{{data}}/{product}.cfg", scenario,
             "--format", "machine"), code, digest, shown)


# (argv, exit code, machine md5, `stpsim report` md5)
PINS.update({
    "seco_a_retail_retail": _machine_run(
        "seco_a", "retail_retail",
        "0fa896350bf09bc5407de82224e18604", "c64608fd5a1ba1190e75c46563e53816"),
    "seco_a_retail_institutional": _machine_run(
        "seco_a", "retail_institutional",
        "f331a9fa86944ae028f9d2728a9788d9", "f1b127afd2ff7878ea254fdc1ab2f02c"),
    "seco_a_institutional_institutional": _machine_run(
        "seco_a", "institutional_institutional",
        "3e8eb3c3a3e6ff1404add7bf0bfc8063", "b44c893c4a08070e9ef315c6735e8f02"),
    "seco_b_retail_retail": _machine_run(
        "seco_b", "retail_retail",
        "b954b318a997f157d1908b1e21eaafc7", "0e7b0500a72ac343f636be71c35cf1a1"),
    "seco_b_retail_institutional": _machine_run(
        "seco_b", "retail_institutional",
        "f981cba1e20af4d52626074943a091d1", "df49d079563860dc0fbbb9face93582f"),
    "seco_b_institutional_institutional": _machine_run(
        "seco_b", "institutional_institutional",
        "1719e3a121f83669977172f1352bdaca", "b23218a7b4affcb9290fc6f3819876e9"),
    "seco_a_retail_cross_seed_1": _machine_run(
        "seco_a", "{retail_cross}",
        "1ba412b778f870ee2a484c20d10d709b", "0df4306ab519e8dc04dd116acd1ee5ae"),
    "seco_b_deep_book_seed_1": _machine_run(
        "seco_b", "{deep_book}",
        "2ee33ad67407632bdc98ad5baf785c3a", "778d812aa768632403c98b5a0f455a11"),
    "seco_b_block_alloc_seed_1": _machine_run(
        "seco_b", "{block_alloc}",
        "3d48bb95d28c5559bbe5a05bae8e1f7b", "0efe4ddf1ace8df349457d64ab41539c"),
    "seco_a_retail_cross_pairs_1600_seed_7": _machine_run(
        "seco_a", "{retail_cross_large}",
        "1f9fd8e89b706dd5e7a2b0e362b86bb0", "6038610b0c9ffa3820589748d78b3910"),
    "seco_b_deep_book_levels_384_seed_7": _machine_run(
        "seco_b", "{deep_book_large}",
        "660063023a4f8da4f79085fcea4c3428", "000634631cdeb467e88b22a5ea3b7ce3"),
    "seco_b_block_alloc_allocations_400_seed_7": _machine_run(
        "seco_b", "{block_alloc_large}",
        "a2071a9f6dedb4b594f5eaef4fb8a47f", "ecd8db2574aaf7e3981a2b5263d7cda1"),
    # aborted at the first order: RC1 cannot prepay its buy
    "seco_a_retail_retail_underfunded": _machine_run(
        "seco_a", "{underfunded}",
        "d4e525cb2779207bd253679866c67509", "776dbac046e9864adc52e72f658d6d43", 1),
    "seco_b_retail_retail_underfunded": _machine_run(
        "seco_b", "{underfunded}",
        "aa7d99eda66d2d58f2457aeb81d35784", "7ed3b521c33899b558e736c70e4872fe", 1),
    # aborted at allocation_INST1: the splits miss the block's quantity
    "seco_a_institutional_institutional_short_allocation": _machine_run(
        "seco_a", "{short_allocation}",
        "13cf0546af3ffdefc3e445a879fcadb0", "22ba781e9a1fe9a814a2f4426f05a8b4", 1),
    "seco_b_institutional_institutional_short_allocation": _machine_run(
        "seco_b", "{short_allocation}",
        "419441d165a36ac797e29b078d33e645", "e971560dbc0b3ef19e1631f958462b02", 1),
    # aborted at allocation_INST1: the custodian refuses the zero split
    "seco_a_retail_institutional_zero_split": _machine_run(
        "seco_a", "{zero_split}",
        "4629d686c501030f5beaf8215415ac4c", "404d1afee9ca810da141e04d67c5ecf3", 1),
    "seco_b_retail_institutional_zero_split": _machine_run(
        "seco_b", "{zero_split}",
        "d0ace2ab96b01ae290d9a630876fd599", "113501ebc6b979f53f7a98497ff3853e", 1),
    # aborted at settle: the omnibus account is 4000USD short of the block's price
    "seco_a_retail_institutional_short_omnibus": _machine_run(
        "seco_a", "{short_omnibus}",
        "4c9418ad2723511b3c136c125fbcdb82", "a12b247151eca77f1a8708e2257ba965", 1),
    "seco_b_retail_institutional_short_omnibus": _machine_run(
        "seco_b", "{short_omnibus}",
        "618fe93cc105b292a68b0e4f8da0e450", "70cd21f5d4a322f730508acdc7a104c3", 1),
    # aborted at allocation_INST1: the block filled at 1030 and at 1040
    "seco_a_retail_institutional_two_fill_prices": _machine_run(
        "seco_a", "{two_fill_prices}",
        "8a4a7c8914208a949da074d554709bf3", "94539dd7c430b1f39b33f891cd779670", 1),
    "seco_b_retail_institutional_two_fill_prices": _machine_run(
        "seco_b", "{two_fill_prices}",
        "cb62d74c3bfebd0a8545a98f8ca3f758", "e45926d2188429f7456a4c7b430d7d64", 1),
    # aborted at report_trades: clearing refuses the trade's value (SECO A's
    # broker refuses the order first, an abort the underfunded rows already pin)
    "seco_b_retail_retail_oversized_trade": _machine_run(
        "seco_b", "{oversized_trade}",
        "df9c491b4e2366d1d24329519ede5aa0", "35c8e31a0437b8e4cae87af6ae68aac3", 1),
})


@pytest.fixture(scope="module")
def argv_of(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("inputs")
    nofok = inputs / "nofok.cfg"
    nofok.write_text("".join(
        line for line in config_path("seco_a").read_text().splitlines(keepends=True)
        if line.strip() != "FillOrKillMatching"))
    root = inputs / "root.cfg"
    root.write_text("EquityMarket\n")
    paths = {"data": catalog_path().parent, "nofok": nofok, "root": root}
    for name, workload in WORKLOADS.items():
        paths[name] = inputs / f"{name}.scn"
        paths[name].write_text(workload.scenario_text(1), encoding="utf-8")
        paths[f"{name}_large"] = inputs / f"{name}_large.scn"
        paths[f"{name}_large"].write_text(workload.scenario_text(7, **LARGE[name]),
                                          encoding="utf-8")
    for name, (scenario_id, old, new) in EDITS.items():
        text = scenario_path(scenario_id).read_text(encoding="utf-8")
        assert text.count(old) == 1
        paths[name] = inputs / f"{name}.scn"
        paths[name].write_text(text.replace(old, new), encoding="utf-8")
    return lambda row: [word.format(**paths) for word in PINS[row][0]]


def md5(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("row", PINS)
def test_pinned_output(argv_of, capsys, tmp_path, row):
    _, code, digest, *shown = PINS[row]
    argv = argv_of(row)
    start = time.perf_counter()
    got = main(argv)
    assert time.perf_counter() - start < LIMIT_S
    captured = capsys.readouterr()
    assert (got, md5(captured.out), captured.err) == (code, digest, "")
    if shown:
        machine = tmp_path / "machine.txt"
        machine.write_text(captured.out, encoding="utf-8")
        start = time.perf_counter()
        report = main(["report", str(machine)]), capsys.readouterr()
        assert time.perf_counter() - start < LIMIT_S
        human = main(argv[:-2]), capsys.readouterr()   # the same run, in the human format
        assert (report[0], md5(report[1].out), report[1].err) == (code, shown[0], "")
        assert human == report


def test_pinned_output_as_a_process(argv_of):
    row = "run_no_fok_matching"
    _, code, digest = PINS[row]
    env = dict(os.environ, PYTHONPATH=str(Path(stpsim.__file__).parent.parent))
    result = subprocess.run([sys.executable, "-m", "stpsim.cli", *argv_of(row)],
                            capture_output=True, text=True, env=env, timeout=60)
    assert (result.returncode, md5(result.stdout), result.stderr) == (code, digest, "")
