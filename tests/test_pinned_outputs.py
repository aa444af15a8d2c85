"""The pinned outputs of the CLI: the feature layer's commands and machine runs.

Each row is one command line, the exit code it must return and the md5 of its
stdout; stderr must stay empty. `{data}` is the shipped data directory,
`{nofok}` SECO A's configuration without `FillOrKillMatching` (so the
constraint `FillOrKillOrderType => FillOrKillMatching` breaks), `{root}`
a configuration selecting only the root, and `{retail_cross}`, `{deep_book}`
and `{block_alloc}` the benchmark workloads' seed-1 scenarios. A
`run --format machine` row also pins the md5 of what `stpsim report` prints
for that output, and that it equals the human output of the same `run`.
Every row runs through `cli.main` in-process; the `run_no_fok_matching` row
also runs as a subprocess, to pin the process contract (exit code, nothing
on stderr, no traceback).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stpsim
from stpsim.cli import main
from perfbench.workloads import WORKLOADS
from stpsim.data import catalog_path, config_path

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


def _machine_run(product: str, scenario: str, digest: str, shown: str):
    return (("run", "{data}/catalog.fm", f"{{data}}/{product}.cfg", scenario,
             "--format", "machine"), 0, digest, shown)


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
    return lambda row: [word.format(**paths) for word in PINS[row][0]]


def md5(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("row", PINS)
def test_pinned_output(argv_of, capsys, tmp_path, row):
    _, code, digest, *shown = PINS[row]
    argv = argv_of(row)
    got = main(argv)
    captured = capsys.readouterr()
    assert (got, md5(captured.out), captured.err) == (code, digest, "")
    if shown:
        machine = tmp_path / "machine.txt"
        machine.write_text(captured.out, encoding="utf-8")
        report = main(["report", str(machine)]), capsys.readouterr()
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
