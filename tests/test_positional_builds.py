"""The run path builds its records positionally, at no Python-level frame.

Calling a `typing.NamedTuple` class runs its generated `__new__`, a Python
function compiled from a string (its code's file is ``<string>``), which
binds each field by name before `tuple.__new__` builds the record; with
keywords it costs about twice that. The run path builds every record it
keeps with `money._new` (`tuple.__new__`) from a tuple of all its fields
instead, `StepRecord` and `CheckResult` among them, and `Ledger.snapshot`
fills a new `Snapshot`'s slots itself, so no `Snapshot.__init__` runs
either (README, "Design notes"). These tests count those frames while a
run, its conservation check and its machine rendering execute, and want
none.
"""

import contextlib
import sys
from collections import Counter

import pytest

from conftest import load_scenario
from perfbench.workloads import WORKLOADS
from stpsim.assembly import build_ecosystem
from stpsim.ledger import Snapshot
from stpsim.lifecycle import CheckResult, ScenarioRunner, assert_conservation
from stpsim.report import render_machine
from stpsim.scenarios import SCENARIO_IDS, parse_scenario


@contextlib.contextmanager
def record_builds():
    """Count the frames of NamedTuple `__new__`s, by record type, and of a
    Python-level `Snapshot.__init__`, as "Snapshot.__init__"."""
    builds: Counter = Counter()
    init = getattr(Snapshot.__init__, "__code__", None)  # None: no Python-level __init__

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename == "<string>":
            # collections.namedtuple evaluates `__new__` in a namespace named after the type
            name = frame.f_globals.get("__name__", "")
            if name.startswith("namedtuple_"):
                builds[name.removeprefix("namedtuple_")] += 1
        elif code is init:
            builds["Snapshot.__init__"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield builds
    finally:
        sys.setprofile(previous)


def builds_in_life_cycle(product, scenario) -> Counter:
    eco = build_ecosystem(product, scenario)
    with record_builds() as builds:
        report = ScenarioRunner(eco, scenario).run()
        render_machine(report, assert_conservation(report))
    assert report.all_checks_passed
    return builds


def test_the_counter_sees_a_keyword_built_record():
    with record_builds() as builds:
        CheckResult("a", True)
        CheckResult(name="b", passed=False, detail="c")
    assert builds == {"CheckResult": 2}


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
@pytest.mark.parametrize("product", ["product_a", "product_b"])
def test_a_shipped_run_builds_no_record_through_a_python_frame(request, product, scenario_id):
    scenario = load_scenario(scenario_id)
    assert builds_in_life_cycle(request.getfixturevalue(product), scenario) == {}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_workload_run_builds_no_record_through_a_python_frame(request, workload):
    spec = WORKLOADS[workload]
    product = request.getfixturevalue({"seco_a": "product_a", "seco_b": "product_b"}[spec.product])
    assert builds_in_life_cycle(product, parse_scenario(spec.scenario_text(1))) == {}
