"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line. Balance comparisons are integer-exact (tolerance 0);
wall-clock budgets are asserted where stated.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import random
import time

import pytest

import bruteforce
from conftest import TOY_FM, TOY_LOGIC_FM, TOY_OR_FM, load_scenario
from faults import run_leaking
from matchdriver import COMBOS, drive_pair, random_instance
from stpsim.clearing import SettlementFailed
from stpsim.features import (
    Configuration,
    derive_product,
    enumerate_valid_configurations,
    parse_feature_model,
    validate_configuration,
)
from stpsim.ledger import Money
from stpsim.lifecycle import assert_conservation, run_scenario
from stpsim.report import render_machine
from stpsim.scenarios import SCENARIO_IDS


def _report(criterion: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: PASS"
    if detail:
        line += f" ({detail})"
    print(line)


# -- 1. two-product derivation ------------------------------------------------


def test_criterion_1_two_product_derivation(catalog, seco_a_config, seco_b_config):
    started = time.perf_counter()
    product_a = derive_product(catalog, seco_a_config, "SECO_A")
    product_b = derive_product(catalog, seco_b_config, "SECO_B")
    differing = {
        point
        for point in set(product_a.bindings) | set(product_b.bindings)
        if product_a.bindings.get(point) != product_b.bindings.get(point)
    }
    assert len(differing) >= 5
    assert product_a.bindings["SecondaryOrderPrecedenceRules"] == ("TimePriority",)
    assert product_b.bindings["SecondaryOrderPrecedenceRules"] == ("SizePriority",)
    assert product_a.bindings["TradeClearingRules"] == ("TradeForTradeClearing",)
    assert product_b.bindings["TradeClearingRules"] == ("MultilateralNettingClearing",)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report("1 two-product derivation",
            f"{len(differing)} binding differences, {elapsed:.3f}s")


# -- 2. three scenarios x two products ------------------------------------------


def test_criterion_2_three_scenarios_both_products(product_a, product_b):
    started = time.perf_counter()
    runs = 0
    for product in (product_a, product_b):
        for scenario_id in SCENARIO_IDS:
            report = run_scenario(product, load_scenario(scenario_id))
            assert report.aborted is None, (product.product_name, scenario_id)
            checks = assert_conservation(report)
            final_checks = [c for c in checks if c.name.startswith("final[")]
            assert final_checks
            bad = [c.line() for c in list(report.finals) + checks if not c.passed]
            assert not bad, (product.product_name, scenario_id, bad)
            runs += 1
    elapsed = time.perf_counter() - started
    assert runs == 6
    assert elapsed < 5.0
    _report("2 three-scenario validation", f"6 runs, exact finals, {elapsed:.2f}s")


# -- 3. conservation plus mutation detector --------------------------------------


def test_criterion_3_conservation_and_detector(product_a):
    for scenario_id in SCENARIO_IDS:
        report = run_scenario(product_a, load_scenario(scenario_id))
        conservation = [
            c for c in assert_conservation(report) if c.name.startswith("conserve")]
        assert conservation
        assert all(c.passed for c in conservation)

    # inject a ledger fault, a transfer that credits a cent more than it
    # debits; the detector must name the step that recorded it
    report, ledger = run_leaking(product_a, load_scenario("retail_retail"), kind="money")
    [at] = ledger.leaked
    victim = report.steps[at]
    failing = [c for c in assert_conservation(report)
               if not c.passed and victim.name in c.name]
    assert failing
    _report("3 conservation", "all pairs exact; injected ledger fault detected")


# -- 4. cross-tree constraint enforcement ----------------------------------------


ORDER_TYPE_ALGORITHMS = {
    "MarketOrderType": "MarketMatching",
    "LimitOrderType": "LimitMatching",
    "ImmediateOrCancelOrderType": "ImmediateOrCancelMatching",
    "FillOrKillOrderType": "FillOrKillMatching",
}


def test_criterion_4_cross_tree_enforcement(catalog, seco_a_config):
    for order_type, algorithm in ORDER_TYPE_ALGORITHMS.items():
        crippled = Configuration(seco_a_config.selected - {algorithm})
        report = validate_configuration(catalog, crippled)
        assert not report.valid, order_type
        expected_text = f"{order_type} => {algorithm}"
        assert any(expected_text in v.message for v in report.violations), expected_text
    _report("4 cross-tree enforcement", "all four order types")


# -- 5. enumeration oracle ---------------------------------------------------------


def test_criterion_5_enumeration_oracle(catalog):
    started = time.perf_counter()
    toys = [TOY_FM, TOY_OR_FM, TOY_LOGIC_FM]
    for text in toys:
        model = parse_feature_model(text)
        assert len(model) <= 12
        ours = {c.selected for c in enumerate_valid_configurations(model)}
        assert ours == bruteforce.enumerate_by_bruteforce(model)

    names = list(catalog.feature_names())
    rng = random.Random("catalog-selections")
    agreements = 0
    for _ in range(100):
        selection = frozenset(rng.sample(names, rng.randint(0, len(names))))
        ours = validate_configuration(catalog, Configuration(selection)).valid
        theirs = bruteforce.valid_with_closure(catalog, selection)
        assert ours == theirs
        agreements += 1
    elapsed = time.perf_counter() - started
    assert agreements == 100
    assert elapsed < 10.0
    _report("5 enumeration oracle",
            f"3 toy models exhaustive + 100 catalog selections, {elapsed:.2f}s")


# -- 6. matching-engine oracle ------------------------------------------------------


def test_criterion_6_matching_oracle():
    started = time.perf_counter()
    rng = random.Random("acceptance-matching")
    instances = [random_instance(rng) for _ in range(1000)]
    for secondary, tiebreak in COMBOS:
        for instance in instances:
            impl, ref, impl_state, ref_state, impl_crossed, ref_crossed = drive_pair(
                instance, secondary, tiebreak)
            flat_impl = sorted(t for sub in impl for t in sub)
            flat_ref = sorted(t for sub in ref for t in sub)
            assert flat_impl == flat_ref, (instance, secondary, tiebreak)
            assert impl_state == ref_state
            assert not impl_crossed and not ref_crossed
            for (side, otype, price, qty), trades in zip(instance, impl):
                if otype == "fok":
                    traded = sum(t[1] for t in trades)
                    assert traded in (0, qty)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report("6 matching-engine oracle",
            f"1000 instances x {len(COMBOS)} comparator combos, {elapsed:.1f}s")


# -- 7. clearing equivalence ---------------------------------------------------------


def test_criterion_7_clearing_equivalence():
    from test_clearing import _random_trades, _run_mode, make_clearing, street_trade

    started = time.perf_counter()
    rng = random.Random("acceptance-clearing")
    accounts = ["acct_a", "acct_b", "acct_c", "acct_d"]
    symbols = ["S0", "S1"]
    for _ in range(200):
        trades = _random_trades(rng, accounts, symbols, rng.randint(1, 10))
        _, gross_ledger = _run_mode(False, trades, accounts, symbols)
        _, net_ledger = _run_mode(True, trades, accounts, symbols)
        assert gross_ledger.snapshot() == net_ledger.snapshot()
        assert net_ledger.balance("CC1.ccp") == Money(0)
        # a recorded account drops its zero positions
        assert net_ledger.snapshot()["CC1.ccp"].positions == {}

    # injected single-leg failures: neither leg commits
    for netting in (False, True):
        clearing, ledger = make_clearing(
            netting=netting, endow_money=10**9, endow_shares=0, symbols=("S0",))
        clearing.submit_trade(
            street_trade("acct_a", "acct_b", qty=5, price=100))
        clearing.clear_rec()
        before = ledger.snapshot()
        with pytest.raises(SettlementFailed):
            clearing.settle_rec()
        assert ledger.snapshot() == before
        assert not ledger.journal or ledger.journal == []
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report("7 clearing equivalence",
            f"200 trade sets, CCP flat, atomic DVP, {elapsed:.2f}s")


# -- 8. catalog coverage ---------------------------------------------------------------


def test_criterion_8_catalog_coverage(catalog):
    from test_catalog import ALL_VARIATION_POINTS

    modeled = {p.name for p in catalog.variation_points()}
    assert modeled == set(ALL_VARIATION_POINTS)
    assert len(modeled) == 20
    per_point = {
        name: len(catalog.concrete_descendants(name)) for name in ALL_VARIATION_POINTS}
    assert all(count >= 2 for count in per_point.values())
    total = sum(per_point.values())
    assert total >= 46
    _report("8 catalog coverage", f"20 variation points, {total} variants")


# -- 9. determinism ---------------------------------------------------------------------


def test_criterion_9_run_determinism(product_a, product_b):
    for product in (product_a, product_b):
        for scenario_id in SCENARIO_IDS:
            outputs = set()
            for _ in range(3):
                report = run_scenario(product, load_scenario(scenario_id))
                checks = assert_conservation(report)
                outputs.add(render_machine(report, checks))
            assert len(outputs) == 1, (product.product_name, scenario_id)
    _report("9 determinism", "3 repeats x 6 runs byte-identical")
