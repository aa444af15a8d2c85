"""Mutation fuzzing of the CLI's other inputs: `.fm`, `.cfg` and machine files.

Each example edits a shipped file line by line (see `mutations`) and runs
the command that reads it. Whatever the edits, the CLI exits 0 or 1 and
raises nothing. Its stderr is empty or one `error:` line, and an exit of 1
with an empty stderr comes with the run's own verdict on stdout: the
violations of an invalid configuration, or a failed or aborted run.

Deep nesting is generated rather than mutated: a constraint or a feature
tree of a known depth, accepted up to `MAX_NESTING` levels and refused
with one `error:` line past it.
"""

import io
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stpsim
from mutations import mutate
from stpsim.cli import main
from stpsim.data import catalog_path, config_path
from stpsim.features.formula import MAX_NESTING

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


# -- deep nesting -------------------------------------------------------------

# Ways to wrap a formula in one more level: (text, top) -> (text, top), each
# allowed only under the tops it does not re-associate; the other operand
# is a name. A top is "atom" (a name, `!` or parentheses) or an operator.
_WRAPS = (
    ({"atom", "&", "|", "=>", "<=>"}, lambda text: (f"({text})", "atom")),
    ({"atom"}, lambda text: (f"!{text}", "atom")),
    ({"atom", "&"}, lambda text: (f"{text} & Broker", "&")),
    ({"atom", "&", "|"}, lambda text: (f"{text} | Broker", "|")),
    ({"atom", "&", "|", "=>"}, lambda text: (f"Broker => {text}", "=>")),
    ({"atom", "&", "|", "=>"}, lambda text: (f"Broker <=> {text}", "<=>")),
)

DEPTHS = st.one_of(st.integers(0, 3 * MAX_NESTING),
                   st.sampled_from([MAX_NESTING, MAX_NESTING + 1, 1000]))


def _nested_formula(levels, rng):
    """Formula text over `Broker` that nests exactly `levels` levels."""
    text, top = "Broker", "atom"
    for _ in range(levels):
        wrap = rng.choice([wrap for tops, wrap in _WRAPS if top in tops])
        text, top = wrap(text)
    return text


def _nested_tree(levels):
    """A `.fm` tree whose deepest feature is `levels` levels below the root."""
    return "".join("  " * depth + f"concrete mandatory F{depth}\n" for depth in range(levels + 1))


def _assert_nesting_verdict(levels, code, out, err, line):
    if levels <= MAX_NESTING:
        assert (code, err) == (0, ""), err
    else:
        assert (code, out) == (1, ""), out
        assert err.startswith(f"error: line {line}, column ") and err.count("\n") == 1, err
        assert f"nested deeper than {MAX_NESTING} levels" in err, err


@settings(max_examples=100, deadline=None, derandomize=True)
@given(levels=DEPTHS, seed=st.integers(0, 2**32 - 1))
def test_a_nested_constraint_validates_or_exits_with_one_error_line(workdir, levels, seed):
    formula = _nested_formula(levels, random.Random(seed))
    model = _write(workdir, "nested.fm", "\n".join([*SHIPPED_CATALOG, formula]) + "\n")
    _assert_nesting_verdict(levels, *_cli("validate-model", model), len(SHIPPED_CATALOG) + 1)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(levels=DEPTHS)
def test_a_nested_tree_validates_or_exits_with_one_error_line(workdir, levels):
    model = _write(workdir, "nested.fm", _nested_tree(levels))
    _assert_nesting_verdict(levels, *_cli("validate-model", model), MAX_NESTING + 2)


def _assert_one_error_line_also_in_a_process(model, err):
    """`validate-model` on `model` exits 1 with `err` on stderr, in process and
    as ``python -m stpsim.cli``, where the interpreter's own recursion limit
    and stack apply."""
    assert _cli("validate-model", model) == (1, "", err)
    env = dict(os.environ, PYTHONPATH=str(Path(stpsim.__file__).parent.parent))
    result = subprocess.run([sys.executable, "-m", "stpsim.cli", "validate-model", model],
                            capture_output=True, text=True, env=env, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (1, "", err)
    assert "Traceback" not in result.stderr


def test_a_constraint_of_1000_nested_parentheses_is_one_error_line(workdir):
    # 1,000 levels once ended validate-model in a RecursionError traceback
    formula = "(" * 1000 + "Broker" + ")" * 1000
    model = _write(workdir, "parens.fm", "\n".join([*SHIPPED_CATALOG, formula]) + "\n")
    _assert_one_error_line_also_in_a_process(model, (
        f"error: line {len(SHIPPED_CATALOG) + 1}, column {MAX_NESTING + 2}: bad constraint: "
        f"nested deeper than {MAX_NESTING} levels (column {MAX_NESTING + 2})\n"))


def test_a_tree_1200_levels_deep_is_one_error_line(workdir):
    # so did a tree 1,200 levels deep, in FeatureModel._index and _Node.freeze
    model = _write(workdir, "tree.fm", _nested_tree(1199))
    _assert_one_error_line_also_in_a_process(model, (
        f"error: line {MAX_NESTING + 2}, column {2 * MAX_NESTING + 3}: "
        f"feature tree nested deeper than {MAX_NESTING} levels\n"))
