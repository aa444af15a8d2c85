"""The pinned outputs of the feature layer's CLI commands.

Each row is one command line, the exit code it must return and the md5 of its
stdout; stderr must stay empty. `{data}` is the shipped data directory,
`{nofok}` SECO A's configuration without `FillOrKillMatching` (so the
constraint `FillOrKillOrderType => FillOrKillMatching` breaks) and `{root}`
a configuration selecting only the root. Every row runs through `cli.main`
in-process; the `run` row also runs as a subprocess, to pin the process
contract (exit code, nothing on stderr, no traceback).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stpsim
from stpsim.cli import main
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


@pytest.fixture
def argv_of(tmp_path):
    nofok = tmp_path / "nofok.cfg"
    nofok.write_text("".join(
        line for line in config_path("seco_a").read_text().splitlines(keepends=True)
        if line.strip() != "FillOrKillMatching"))
    root = tmp_path / "root.cfg"
    root.write_text("EquityMarket\n")
    paths = {"data": catalog_path().parent, "nofok": nofok, "root": root}
    return lambda row: [word.format(**paths) for word in PINS[row][0]]


def md5(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("row", PINS)
def test_pinned_output(argv_of, capsys, row):
    _, code, digest = PINS[row]
    got = main(argv_of(row))
    captured = capsys.readouterr()
    assert (got, md5(captured.out), captured.err) == (code, digest, "")


def test_pinned_output_as_a_process(argv_of):
    row = "run_no_fok_matching"
    _, code, digest = PINS[row]
    env = dict(os.environ, PYTHONPATH=str(Path(stpsim.__file__).parent.parent))
    result = subprocess.run([sys.executable, "-m", "stpsim.cli", *argv_of(row)],
                            capture_output=True, text=True, env=env, timeout=60)
    assert (result.returncode, md5(result.stdout), result.stderr) == (code, digest, "")
