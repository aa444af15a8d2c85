"""`tools/reach.py` on toy packages. In the first, the run path, which
starts at `run`, reaches `run`, `helper` and `Box.size`; only a unit test
reaches `unit_only` and `Box.__repr__`; nothing reaches `unreached`; and
the allow-list names `Box.__repr__`. The second shows what a run-path test
file's own calls count for."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

TOY = '''\
def run():
    return helper() + Box().size - 4


def helper():
    return 1


def unit_only():
    return 2


def unreached():
    return 3


class Box:
    @property
    def size(self):
        return 4

    def __repr__(self):
        return "Box"
'''


def toy_checkout(root: Path) -> Path:
    (root / "src" / "toy").mkdir(parents=True)
    (root / "src" / "toy" / "__init__.py").write_text(TOY)
    (root / "tests").mkdir()
    (root / "tests" / "test_run.py").write_text(
        "import toy\n\n\ndef test_run():\n    assert toy.run() == 1\n"
        "    assert toy.Box().size == 4\n")
    (root / "tests" / "test_unit.py").write_text(
        "import toy\n\n\ndef test_unit():\n    assert toy.unit_only() == 2\n"
        "    assert repr(toy.Box()) == 'Box'\n")
    allow = root / "allow.txt"
    allow.write_text("# a comment\nsrc/toy/__init__.py::Box.__repr__ kept for failure output\n")
    return allow


def test_reach_names_unit_only_and_unreached_functions_and_honours_the_allow_list(
        tmp_path, capsys, monkeypatch):
    allow = toy_checkout(tmp_path)
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")   # the toy needs no plugin
    code = reach.main(["--check"], root=tmp_path, run_path=(("tests/test_run.py",),),
                      tier1=(("tests",),), allow_list=allow,
                      entries=(("src/toy/__init__.py", "run"),))
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[:5] == [
        "reached only by unit tests: 2",
        "  src/toy/__init__.py:9: unit_only",
        "  src/toy/__init__.py:22: Box.__repr__  [allowed: kept for failure output]",
        "reached by nothing: 1",
        "  src/toy/__init__.py:13: unreached",
    ]
    assert out[-2:] == ["not allow-listed: src/toy/__init__.py:9: unit_only",
                        "not allow-listed: src/toy/__init__.py:13: unreached"]
    # a decorated function starts at its decorator
    reached_by = {f["name"]: (f["line"], f["reached_by"])
                  for f in json.loads((tmp_path / reach.MAP).read_text())}
    assert reached_by == {
        "run": (1, ["tests/test_run.py"]),
        "helper": (5, ["tests/test_run.py"]),
        "unit_only": (9, ["tests/test_unit.py"]),
        "unreached": (13, []),
        "Box.size": (18, ["tests/test_run.py"]),
        "Box.__repr__": (22, ["tests/test_unit.py"]),
    }


CLI_TOY = '''\
def main():
    return beneath()


def beneath():
    return 1


def called_directly():
    return 2


def at_import():
    return 3


AT_IMPORT = at_import()
'''


def test_only_calls_beneath_an_entry_or_an_import_count_for_the_run_path(
        tmp_path, capsys, monkeypatch):
    """A run-path test file's direct call, here to `called_directly`, leaves
    that function reached only by unit tests."""
    (tmp_path / "src" / "toy").mkdir(parents=True)
    (tmp_path / "src" / "toy" / "__init__.py").write_text(CLI_TOY)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_run.py").write_text(
        "import toy\n\n\ndef test_run():\n    assert toy.main() == 1\n"
        "    assert toy.called_directly() == 2\n")
    allow = tmp_path / "allow.txt"
    allow.write_text("")
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    code = reach.main([], root=tmp_path, run_path=(("tests/test_run.py",),),
                      tier1=(("tests",),), allow_list=allow,
                      entries=(("src/toy/__init__.py", "main"),))
    assert code == 0
    assert capsys.readouterr().out.splitlines()[:3] == [
        "reached only by unit tests: 1",
        "  src/toy/__init__.py:9: called_directly",
        "reached by nothing: 0",
    ]


def test_an_allow_list_entry_needs_a_reason(tmp_path):
    allow = tmp_path / "allow.txt"
    allow.write_text("src/toy/__init__.py::unit_only a reason\nsrc/toy/__init__.py::unreached\n")
    with pytest.raises(ValueError, match=r"^allow.txt:2: src/toy/__init__.py::unreached gives no"):
        reach.read_allow_list(allow)


def test_check_refuses_an_unlisted_name_and_a_stale_entry():
    def function(line, name):
        return reach.Function("src/toy/__init__.py", line, name)

    survey = reach.Survey([function(9, "unit_only")], [function(13, "unreached")], {}, [])
    listed = {"src/toy/__init__.py::unit_only": "a reason",
              "src/toy/__init__.py::unreached": "a reason"}
    assert reach.problems(survey, listed) == []
    assert reach.problems(survey, {**listed, "src/toy/__init__.py::run": "a reason"}) == [
        "allow-listed but reached by the run path, or gone: src/toy/__init__.py::run"]
