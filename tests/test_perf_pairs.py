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


def unscaled(setup, life_cycle, report, kernel):
    return ("median wall seconds, unscaled: setup {:.4g}, life cycle {:.4g}, report {:.4g}, "
            "reference kernel {:.4g}".format(setup, life_cycle, report, kernel))


def test_the_unscaled_phases_are_read_and_shown_beside_the_scaled_metrics():
    parent = [f"{unscaled(0.009, 0.0178 + i / 10_000, 0.007, 0.0124)}\n{line(1116 + i, 0.01)}"
              for i in range(10)]
    change = [f"{unscaled(0.009, 0.0156 + i / 10_000, 0.007, 0.0124)}\n{line(1296 + i, 0.01)}"
              for i in range(10)]
    assert perf_pairs.result_of(change[0], "change")["unscaled"] == {
        "setup": 0.009, "life cycle": 0.0156, "report": 0.007, "reference kernel": 0.0124}
    rows = summary(parent, change)
    assert list(rows) == ["orders_per_s", "report_s", "unscaled setup", "unscaled life cycle",
                          "unscaled report", "unscaled reference kernel"]
    life = rows["unscaled life cycle"]
    assert life["better"] == "lower" and life["unit"] == "s" and life["wins"] == 10
    assert life["percent"] == pytest.approx(100 * (0.01605 - 0.01825) / 0.01825)
    assert life["claim"] is None and rows["unscaled setup"]["wins"] == 0
    text = perf_pairs.table("block_alloc", list(rows.values()))
    assert "| unscaled life cycle | s | lower |" in text
    assert text.splitlines()[-3].endswith("| 10/10 | - |")
    # a run without the line (an older checkout's) shows no unscaled rows
    rows = summary([line(v, 0.01) for v in PARENT_ORDERS], change)
    assert set(rows) == {"orders_per_s", "report_s"}


@pytest.mark.parametrize("stdout", [line(100, 0.01, correct=False), "", "not json"])
def test_a_run_that_is_not_correct_is_refused(stdout):
    with pytest.raises(perf_pairs.RunRefused):
        perf_pairs.result_of(stdout, "change")


def test_a_refused_run_quotes_the_end_of_its_stderr(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "print('warming up', file=sys.stderr)\n"
        "print('CLI parity mismatch: seco_a x retail_retail', file=sys.stderr)\n"
        f"print({line(100, 0.01, correct=False)!r})\n")
    with pytest.raises(perf_pairs.RunRefused) as refused:
        perf_pairs.run(tmp_path, "retail_cross", 1, 0.1, 0)
    assert str(refused.value).splitlines() == [
        f"{tmp_path} retail_cross seed 1: correct is False, 1 of 6 repeats failed",
        "  warming up",
        "  CLI parity mismatch: seco_a x retail_retail",
    ]


def test_record_appends_one_trajectory_record_per_workload(tmp_path, monkeypatch):
    # canned runs: the change gains 11 orders/s in nine pairs of ten
    change = iter([112, 113, 114, 115, 116, 117, 118, 119, 120, 100] * 2)
    parent = iter(PARENT_ORDERS * 2)

    def canned(checkout, workload, seed, seconds, trace):
        orders = next(parent if checkout == tmp_path else change)
        return perf_pairs.result_of(f"{unscaled(0.009, 0.01, 0.007, 0.012)}\n"
                                    f"{line(orders, 0.01)}\n", workload)

    monkeypatch.setattr(perf_pairs, "run", canned)
    path = tmp_path / "BENCH_pairs.json"
    args = ["--parent", str(tmp_path), "--seed", "3", "--seconds", "8", "--record", str(path)]
    assert perf_pairs.main(["--workload", "deep_book", "--label", "first", *args]) == 0
    assert perf_pairs.main(["--workload", "retail_cross", *args]) == 0
    first, second = json.loads(path.read_text())
    assert len(path.read_text().splitlines()) == 4     # one record a line, inside [ and ]
    assert [first["workload"], first["label"], second["workload"], second["label"]] == [
        "deep_book", "first", "retail_cross", None]
    assert (first["seed"], first["seconds"], first["pairs"]) == (3, 8.0, 10)
    # only the end-to-end metrics: no unscaled phase, nothing outside the benchmark
    assert set(first["metrics"]) == {"orders_per_s", "report_s"}
    orders = first["metrics"]["orders_per_s"]
    assert orders == {"unit": "orders/s", "better": "higher", "parent": [101.75, 104.5, 107.25],
                      "change": [112.75, 115.5, 118.25], "percent": 100 * 11 / 104.5,
                      "wins": 9, "claim": True}
    assert first["metrics"]["report_s"]["claim"] is False
    assert second["metrics"] == first["metrics"]
