"""`tools/perf_pairs.py`'s summary of alternating benchmark pairs, on canned
result lines as `perfbench/run.py` prints them."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

BETTER = perf_pairs.directions(json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text()))


def line(orders_per_s, report_s, correct=True):
    return json.dumps({"correct": correct, "attempted": 6, "failed": 0 if correct else 1,
                       "metrics": {"orders_per_s": {"value": orders_per_s, "unit": "orders/s"},
                                   "report_s": {"value": report_s, "unit": "s"},
                                   "not_in_the_benchmark": {"value": 1, "unit": "count"}}})


def summary(parent, change):
    pairs = [(perf_pairs.result_of(f"human line\n{old}\n", "parent"),
              perf_pairs.result_of(f"{new}\n", "change"))
             for old, new in zip(parent, change)]
    return {row["metric"]: row for row in perf_pairs.summarize(pairs, BETTER)}


PARENT_ORDERS = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # q1 101.75, q3 107.25


def test_a_gain_that_wins_nine_pairs_and_clears_the_parents_spread_is_claimed():
    change = [112, 113, 114, 115, 116, 117, 118, 119, 120, 100]   # loses the last pair
    rows = summary([line(v, 0.01) for v in PARENT_ORDERS], [line(v, 0.01) for v in change])
    orders = rows["orders_per_s"]
    assert orders["parent"] == (101.75, 104.5, 107.25)
    assert orders["change"] == (112.75, 115.5, 118.25)
    assert orders["wins"] == 9 and orders["pairs"] == 10 and orders["claim"]
    assert orders["percent"] == pytest.approx(100 * 11 / 104.5)
    # equal in every pair: no wins for either side, and nothing claimed
    assert rows["report_s"]["wins"] == 0 and not rows["report_s"]["claim"]
    assert set(rows) == {"orders_per_s", "report_s"}


def test_eight_wins_or_a_gap_inside_the_parents_spread_is_not_claimed():
    eight = [112, 113, 114, 115, 116, 117, 118, 119, 100, 100]
    narrow = [v + 5 for v in PARENT_ORDERS]           # wins all ten by 5 < the IQR 5.5
    for change in (eight, narrow):
        rows = summary([line(v, 0.01) for v in PARENT_ORDERS], [line(v, 0.01) for v in change])
        assert not rows["orders_per_s"]["claim"]
    assert rows["orders_per_s"]["wins"] == 10


def test_lower_is_better_where_the_benchmark_says_so():
    parent = [line(100, 0.010 + i / 10_000) for i in range(10)]   # IQR 0.00055
    change = [line(100, 0.009 + i / 10_000) for i in range(10)]   # 0.001 less in every pair
    report = summary(parent, change)["report_s"]
    assert report["better"] == "lower" and report["wins"] == 10 and report["claim"]
    assert report["percent"] < 0
    assert "| report_s | s | lower |" in perf_pairs.table("deep_book", [report])


@pytest.mark.parametrize("stdout", [line(100, 0.01, correct=False), "", "not json"])
def test_a_run_that_is_not_correct_is_refused(stdout):
    with pytest.raises(perf_pairs.RunRefused):
        perf_pairs.result_of(stdout, "change")
