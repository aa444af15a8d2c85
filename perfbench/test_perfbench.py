"""The benchmark's own tests: python3 -m pytest perfbench -q"""

import re

import pytest

import harness
import spans
from workloads import WORKLOADS

# Sizes at which each workload runs in well under a second.
SMALL = {
    "retail_cross": {"pairs": 6},
    "deep_book": {"levels": 5},
    "block_alloc": {"blocks": 2, "allocations": 4},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    first = workload.scenario_text(7, **SMALL[name]).encode()
    assert workload.scenario_text(7, **SMALL[name]).encode() == first
    assert workload.scenario_text(8, **SMALL[name]).encode() != first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_workload_passes_its_check(name):
    workload = WORKLOADS[name]
    repeat = harness.run_once(workload.product, workload.scenario_text(3, **SMALL[name]))
    assert repeat.failures == []
    assert repeat.orders > 0


def test_check_rejects_a_wrong_expected_balance():
    workload = WORKLOADS["retail_cross"]
    text = workload.scenario_text(3, **SMALL["retail_cross"])
    tampered = re.sub(r"(expect: S0001 money=)(\d+)", lambda m: m[1] + str(int(m[2]) + 1),
                      text, count=1)
    assert tampered != text
    failures = harness.run_once(workload.product, tampered).failures
    assert any("final[S0001]" in failure for failure in failures)


def test_harness_matches_cli_on_shipped_pairs():
    assert harness.cli_parity() == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_add_up_to_traced_run(name):
    workload = WORKLOADS[name]
    with spans.Tracer() as tracer:
        repeat = harness.run_once(workload.product, workload.scenario_text(3, **SMALL[name]))
    spans.assert_untraced()
    assert repeat.failures == []

    (run,) = [s for s in tracer.spans if s.name == "lifecycle.ScenarioRunner.run"]
    inside = {run.sid}
    for span in tracer.spans:  # parents are recorded before their children
        if span.parent in inside:
            inside.add(span.sid)
    own = spans.self_times(tracer.spans)
    assert sum(own[sid] for sid in inside) == run.end - run.start
    assert all(own[sid] >= 0 for sid in own)

    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["ledger.snapshot_calls"] == metrics["lifecycle.steps"]
    assert metrics["exchange.trades"] > 0
    assert metrics["broker.rejections"] == 0


def test_tracer_restores_entry_points_after_an_error():
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer():
            1 / 0
    spans.assert_untraced()
