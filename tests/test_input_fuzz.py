"""Mutation fuzzing of the CLI's other inputs: `.fm`, `.cfg` and machine files.

Each example edits a shipped file line by line (see `mutations`) and runs
the command that reads it. Whatever the edits, the CLI exits 0 or 1 and
raises nothing. Its stderr is empty or one `error:` line, and an exit of 1
with an empty stderr comes with the run's own verdict on stdout: the
violations of an invalid configuration, or a failed or aborted run.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from mutations import mutate
from stpsim.cli import main
from stpsim.data import catalog_path, config_path

CATALOG = str(catalog_path())
SHIPPED_CATALOG = catalog_path().read_text().splitlines()
SHIPPED_CONFIGS = {name: config_path(name).read_text().splitlines()
                   for name in ("seco_a", "seco_b")}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def shipped_run():
    """The machine output of one shipped run, as lines."""
    code, out, _ = _cli("run", CATALOG, str(config_path("seco_b")),
                        "institutional_institutional", "--format", "machine")
    assert code == 0
    return out.splitlines()


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code, out, err):
    assert code in (0, 1), (code, err)
    errors = err.splitlines()
    assert len(errors) <= 1 and all(line.startswith("error: ") for line in errors), err
    if code == 1 and not errors:
        assert out.startswith("invalid configuration:") or "\nresult: " in out, out
        assert "result: PASS" not in out, out


def _write(workdir, name, text):
    path = workdir / name
    path.write_text(text)
    return str(path)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_catalog_runs_or_exits_with_one_error_line(workdir, data):
    model = _write(workdir, "catalog.fm", mutate(SHIPPED_CATALOG, data))
    _assert_clean_exit(*_cli("run", model, str(config_path("seco_b")), "retail_retail"))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(SHIPPED_CONFIGS)), data=st.data())
def test_mutated_configuration_runs_or_exits_with_one_error_line(workdir, name, data):
    config = _write(workdir, f"{name}.cfg", mutate(SHIPPED_CONFIGS[name], data))
    _assert_clean_exit(*_cli("run", CATALOG, config, "retail_retail"))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_machine_report_renders_or_exits_with_one_error_line(
        workdir, shipped_run, data):
    saved = _write(workdir, "run.out", mutate(shipped_run, data))
    _assert_clean_exit(*_cli("report", saved))
