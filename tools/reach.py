"""Which functions in src/ the run path reaches, and which only unit tests do.

    python3 tools/reach.py            # print both lists, write the reach map
    python3 tools/reach.py --check    # and exit 1 on a name not allow-listed

Run it from anywhere; it runs pytest in child processes from the root of
this checkout, with src/ on the path. The "run path" is what a user runs:
`stpsim.cli.main` and the benchmark's harness functions (ENTRIES). Pass
one runs the CLI, pinned-output, input-error and acceptance tests
(RUN_PATH) plus the benchmark's own tests, and records a function only
when it runs beneath an entry, or while a module under src/ is imported;
what those test files call directly, such as a helper that words an
assertion, does not count. Pass two runs all of tier-1 (TIER1) and records
every function it enters. Each pytest process runs under `sys.setprofile`;
`tests/` and `perfbench/` run in separate processes because their two
`conftest.py` would both import as the module `conftest`.

A function is a `def` found by `ast` in a `.py` file under src/, named by
its dotted path through classes and enclosing functions, and keyed by
(file, first line); a decorated function starts at its first decorator,
as its code object's ``co_firstlineno`` does. The tool prints, with file
and line, each function that pass two reaches and pass one does not ("only
unit tests"), and each that neither reaches ("nothing"). It writes
build/reach_map.json: every function, with the test files (paths from the
root) that reached it in either pass. A call made while a module is
collected is credited to that module; one made by a session-scoped fixture
or after a cache is warm is credited only to the test file that ran first.

ALLOW_LIST holds the names that stay although the run path does not reach
them, one a line, as ``<file>::<name> <reason>``. `--check` exits 1 when
a printed name is not on it, or when an entry names a function that is
gone or that the run path now reaches. A pass whose pytest run fails
makes both lists untrustworthy: the tool says so and exits 2.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ALLOW_LIST = Path(__file__).resolve().with_name("reach_allow.txt")
MAP = Path("build") / "reach_map.json"

# One tuple of pytest arguments per process, relative to the root.
RUN_PATH = (
    ("tests/test_pinned_outputs.py", "tests/test_cli.py", "tests/test_scenario_parsing.py",
     "tests/test_input_fuzz.py", "tests/test_scenario_fuzz.py", "tests/test_acceptance.py"),
    ("perfbench",),
)
TIER1 = (("tests",),)
# (file from the root, function name): what a user runs, and pass one counts beneath
ENTRIES = (
    ("src/stpsim/cli.py", "main"),
    *(("perfbench/harness.py", name) for name in ("setup", "life_cycle", "read_back", "verify")),
)

# Imports the tool in a child process, whose argv is
# [-c, tool, out, run path (JSON, or "" for every call), *pytest args].
_CHILD = ("import importlib.util, sys; "
          "spec = importlib.util.spec_from_file_location('reach', sys.argv[1]); "
          "tool = importlib.util.module_from_spec(spec); spec.loader.exec_module(tool); "
          "sys.exit(tool.probe(sys.argv[2], sys.argv[4:], sys.argv[3]))")


class Function(NamedTuple):
    file: str       # path from the root
    line: int
    name: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: {self.name}"


class Survey(NamedTuple):
    unit_only: list[Function]
    unreached: list[Function]
    reached_by: dict[Function, list[str]]   # every function -> test files, sorted
    failed: list[str]                       # one line per pytest process that failed


def functions(root: Path, src: Path) -> dict[tuple[str, int], Function]:
    """(absolute file, first line) -> Function, for every def under `src`."""
    found: dict[tuple[str, int], Function] = {}

    def visit(node: ast.AST, prefix: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), line] = Function(
                    path.relative_to(root).as_posix(), line, prefix + child.name)
                visit(child, f"{prefix}{child.name}.", path)
            else:
                visit(child, prefix, path)

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path.resolve())
    return found


def probe(out: str, args: list[str], run_path: str = "") -> int:
    """Run pytest on `args` in this process, recording the functions each test
    file enters; write {test file: [[code file, first line], ...]} to `out`.

    `run_path`, when not empty, is a JSON object {"src": dir, "entries":
    [[file, function name], ...]} with absolute paths: then a call is
    recorded only beneath an entry, or beneath a module body under that dir."""
    import pytest

    entered: dict[str, dict[int, object]] = {}
    spec = json.loads(run_path) if run_path else {"src": "", "entries": []}
    under, entries = os.path.join(spec["src"], ""), set(map(tuple, spec["entries"]))
    opens: dict[object, bool] = {}   # code -> whether a call to it opens the run path
    inside = [0]                     # run-path frames on the stack, across recorders

    def opener(code) -> bool:
        found = opens.get(code)
        if found is None:
            found = opens[code] = ((code.co_filename, code.co_name) in entries or (
                code.co_name == "<module>" and code.co_filename.startswith(under)))
        return found

    def recorder(file: str):
        seen = entered.setdefault(file, {})

        def every_call(frame, event, arg):
            if event == "call":
                code = frame.f_code
                seen[id(code)] = code   # keeps the code alive, so no id is reused

        def run_path_call(frame, event, arg):
            if event == "call":
                code = frame.f_code
                if opener(code):
                    inside[0] += 1
                if inside[0]:
                    seen[id(code)] = code
            elif event == "return" and inside[0] and opener(frame.f_code):
                inside[0] -= 1
        sys.setprofile(run_path_call if run_path else every_call)

    class Attribution:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_make_collect_report(self, collector):
            recorder(collector.nodeid.split("::")[0] or "<session>")
            yield

        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_protocol(self, item, nextitem):
            recorder(item.nodeid.split("::")[0])
            yield

    recorder("<session>")
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args], plugins=[Attribution()])
    finally:
        sys.setprofile(None)
    result = {file: sorted({(c.co_filename, c.co_firstlineno) for c in codes.values()})
              for file, codes in entered.items()}
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return int(status)


def run_pass(root: Path, src: Path, processes,
             entries=None) -> tuple[dict[tuple[str, int], set[str]], list[str]]:
    """(code file, first line) -> test files that entered it, over the
    pytest processes of one pass, and a line for each process that failed.
    With `entries`, only calls on the run path they open are recorded."""
    reached: dict[tuple[str, int], set[str]] = {}
    failed = []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    run_path = "" if entries is None else json.dumps({
        "src": str(src), "entries": [[str(root / file), name] for file, name in entries]})
    with tempfile.TemporaryDirectory() as scratch:
        for index, args in enumerate(processes):
            out = Path(scratch) / f"{index}.json"
            done = subprocess.run([sys.executable, "-c", _CHILD, __file__, str(out), run_path,
                                   *args], cwd=root, env=env, capture_output=True, text=True)
            if done.returncode or not out.exists():
                tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
                failed.append(f"pytest {' '.join(args)}: exit {done.returncode}: "
                              + " ".join(tail))
                continue
            for file, keys in json.loads(out.read_text(encoding="utf-8")).items():
                for code_file, line in keys:
                    reached.setdefault((code_file, line), set()).add(file)
    return reached, failed


def survey(root: Path, run_path=RUN_PATH, tier1=TIER1, entries=ENTRIES) -> Survey:
    root = root.resolve()   # as the code objects' file names are
    src = root / "src"
    defs = functions(root, src)
    on_run_path, failed = run_pass(root, src, run_path, entries)
    in_tier1, failed_tier1 = run_pass(root, src, tier1)
    unit_only, unreached, reached_by = [], [], {}
    for key, function in sorted(defs.items(), key=lambda item: item[1]):
        files = on_run_path.get(key, set()) | in_tier1.get(key, set())
        reached_by[function] = sorted(files)
        if key not in on_run_path:
            (unit_only if key in in_tier1 else unreached).append(function)
    return Survey(unit_only, unreached, reached_by, failed + failed_tier1)


def read_allow_list(path: Path) -> dict[str, str]:
    """``<file>::<name>`` -> reason; a line without a reason is an error."""
    allowed = {}
    for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        if not reason.strip():
            raise ValueError(f"{path.name}:{number}: {name} gives no reason")
        allowed[name] = reason.strip()
    return allowed


def problems(result: Survey, allowed: dict[str, str]) -> list[str]:
    """What `--check` refuses: a listed function not on the allow-list, and
    an allow-list entry that names no listed function."""
    listed = {f"{f.file}::{f.name}": f for f in result.unit_only + result.unreached}
    return ([f"not allow-listed: {function}" for name, function in listed.items()
             if name not in allowed]
            + [f"allow-listed but reached by the run path, or gone: {name}"
               for name in allowed if name not in listed])


def report(result: Survey, allowed: dict[str, str]) -> str:
    lines = []
    for title, group in (("reached only by unit tests", result.unit_only),
                         ("reached by nothing", result.unreached)):
        lines.append(f"{title}: {len(group)}")
        for function in group:
            reason = allowed.get(f"{function.file}::{function.name}")
            lines.append(f"  {function}" + (f"  [allowed: {reason}]" if reason else ""))
    return "\n".join(lines)


def main(argv: list[str] | None = None, root: Path = ROOT, run_path=RUN_PATH, tier1=TIER1,
         allow_list: Path = ALLOW_LIST, entries=ENTRIES) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on a name that is not allow-listed")
    args = parser.parse_args(argv)
    allowed = read_allow_list(allow_list)
    result = survey(root, run_path, tier1, entries)
    print(report(result, allowed))
    out = root / MAP
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps([{**f._asdict(), "reached_by": files}
                               for f, files in result.reached_by.items()], indent=1) + "\n",
                   encoding="utf-8")
    print(f"reach map: {out}")
    if result.failed:
        print("\n".join(["a pytest run failed, so neither list can be trusted:", *result.failed]))
        return 2
    if args.check:
        found = problems(result, allowed)
        print("\n".join(found) if found else "check: every name is allow-listed")
        return 1 if found else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
