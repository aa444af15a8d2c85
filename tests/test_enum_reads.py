"""The run path reads enum members as module constants, not through their class.

On CPython 3.11 `EnumType` defines `__getattr__`, which puts every attribute
read on an enum class (`Side.BUY`) on a slow path, about ten times the cost
of reading a module global. So the run path reads `trading.BUY`, the same
object, instead (README, "Enum members on the run path"). These tests count
the member reads made through any enum class while a run, its conservation
check and its machine rendering execute, and want none.
"""

import contextlib
from collections import Counter

import pytest

from conftest import load_scenario
from perfbench.workloads import WORKLOADS
from stpsim.assembly import build_ecosystem
from stpsim.lifecycle import ScenarioRunner, assert_conservation
from stpsim.report import render_machine
from stpsim.scenarios import SCENARIO_IDS, parse_scenario
from stpsim.trading import Side

ENUM_TYPE = type(Side)   # EnumType on 3.11, EnumMeta on 3.10


@contextlib.contextmanager
def member_reads():
    """Count reads of enum members through their class, by (class, member)."""
    reads: Counter = Counter()
    read = type.__getattribute__

    def counting(cls, name):
        if name in read(cls, "_member_map_"):
            reads[read(cls, "__name__"), name] += 1
        return read(cls, name)

    own = vars(ENUM_TYPE).get("__getattribute__")
    ENUM_TYPE.__getattribute__ = counting
    try:
        yield reads
    finally:
        if own is None:
            del ENUM_TYPE.__getattribute__
        else:
            ENUM_TYPE.__getattribute__ = own


def reads_in_life_cycle(product, scenario) -> Counter:
    eco = build_ecosystem(product, scenario)
    with member_reads() as reads:
        report = ScenarioRunner(eco, scenario).run()
        render_machine(report, assert_conservation(report))
    assert report.all_checks_passed
    return reads


def test_the_counter_sees_a_member_read_through_its_class():
    with member_reads() as reads:
        assert Side.BUY is not Side.SELL
    assert reads == {("Side", "BUY"): 1, ("Side", "SELL"): 1}
    assert "__getattribute__" not in vars(ENUM_TYPE)


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
@pytest.mark.parametrize("product", ["product_a", "product_b"])
def test_a_shipped_run_reads_no_enum_member_through_its_class(request, product, scenario_id):
    assert reads_in_life_cycle(request.getfixturevalue(product), load_scenario(scenario_id)) == {}


def test_a_deep_book_run_reads_no_enum_member_through_its_class(product_b):
    scenario = parse_scenario(WORKLOADS["deep_book"].scenario_text(1, levels=12))
    assert reads_in_life_cycle(product_b, scenario) == {}
