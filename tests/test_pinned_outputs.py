"""The pinned outputs of the CLI: the feature layer's commands and machine runs.

Each row is one command line, the exit code it must return and the md5 of its
stdout; stderr must stay empty. `{data}` is the shipped data directory,
`{nofok}` SECO A's configuration without `FillOrKillMatching` (so the
constraint `FillOrKillOrderType => FillOrKillMatching` breaks), `{xcap}`
SECO A's with `ExchangeExtendedOrderChecks` in place of
`ExchangeStandardOrderChecks` (so the exchange caps an order's size that
the broker does not), `{root}` a configuration selecting only the root,
`{retail_cross}`, `{deep_book}` and `{block_alloc}` the benchmark
workloads' seed-1 scenarios, `{retail_cross_large}`, `{deep_book_large}`
and `{block_alloc_large}` their large seed-7 scenarios (see LARGE), and
each name in EDITS (`{underfunded}`, `{zero_split}`, ...) a shipped
scenario with a few lines edited. A `run --format machine` row also pins
the md5 of what `stpsim report` prints for that output, and that it equals
the human output of the same `run`.
Every row runs through `cli.main` in-process, and each `run` and `report`
must finish within LIMIT_S; the `run_no_fok_matching` row also runs as a
subprocess, to pin the process contract (exit code, nothing on stderr, no
traceback).
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stpsim
from stpsim.cli import main
from perfbench.workloads import WORKLOADS
from stpsim.data import catalog_path, config_path, scenario_path

PINS = {
    "validate_model": (
        ("validate-model", "{data}/catalog.fm"), 0, "a3418e289bae60e175f2210bed6b34c1"),
    "validate_config_seco_a": (
        ("validate-config", "{data}/catalog.fm", "{data}/seco_a.cfg"), 0,
        "0b7e08145c8c57bf66f12cccebbda40d"),
    "validate_config_seco_b": (
        ("validate-config", "{data}/catalog.fm", "{data}/seco_b.cfg"), 0,
        "41a28384a65ac97c9507b8b8ab1438ee"),
    "derive_seco_a": (
        ("derive", "{data}/catalog.fm", "{data}/seco_a.cfg", "SECO_A"), 0,
        "46b73116005fd8cefef2efb939d8ff34"),
    "derive_seco_b": (
        ("derive", "{data}/catalog.fm", "{data}/seco_b.cfg", "SECO_B"), 0,
        "c9bada12fd8a9565b966499e33c0793c"),
    "validate_config_no_fok_matching": (
        ("validate-config", "{data}/catalog.fm", "{nofok}"), 1,
        "b781b125c5f75e8a1ff86c5015f77ea7"),
    "validate_config_root_only": (
        ("validate-config", "{data}/catalog.fm", "{root}"), 1,
        "afb01eb58f67e1455e59c9cfcb7c6595"),
    # the same one report as validate-config prints, and nothing else
    "run_no_fok_matching": (
        ("run", "{data}/catalog.fm", "{nofok}", "retail_retail"), 1,
        "b781b125c5f75e8a1ff86c5015f77ea7"),
    "validate_config_xcap": (
        ("validate-config", "{data}/catalog.fm", "{xcap}"), 0, "0b7e08145c8c57bf66f12cccebbda40d"),
}


LIMIT_S = 60

# the benchmark workloads' large scenarios, at seed 7
LARGE = {"retail_cross": {"pairs": 1600}, "deep_book": {"levels": 384},
         "block_alloc": {"allocations": 400}}

# a shipped scenario with a few lines edited: (scenario, the lines, their edit)
EDITS = {
    "underfunded": ("retail_retail", "endow: RC1 money=150000\n", "endow: RC1 money=100000\n"),
    "short_allocation": ("institutional_institutional",
                         "allocate: INST1 order=2 EC1=60 EC2=40\n",
                         "allocate: INST1 order=2 EC1=60 EC2=30\n"),
    "zero_split": ("retail_institutional", "allocate: INST1 order=2 EC1=60 EC2=40\n",
                   "allocate: INST1 order=2 EC1=100 EC2=0\n"),
    "short_omnibus": ("retail_institutional", "endow: CU1.omnibus money=104000\n",
                      "endow: CU1.omnibus money=100000\n"),
    "two_fill_prices": ("retail_institutional",
                        "order: RC2 sell 100 ACME limit 1040\n"
                        "order: INST1 buy 100 ACME limit 1040\n"
                        "allocate: INST1 order=2 EC1=60 EC2=40\n",
                        "order: RC2 sell 60 ACME limit 1040\n"
                        "order: RC2 sell 40 ACME limit 1030\n"
                        "order: INST1 buy 100 ACME limit 1040\n"
                        "allocate: INST1 order=3 EC1=60 EC2=40\n"),
    "oversized_trade": ("retail_retail",
                        "endow: RC1 money=150000\n"
                        "endow: RC2 ACME=100\n\n"
                        "order: RC2 sell 100 ACME limit 1040\n"
                        "order: RC1 buy 100 ACME limit 1040\n",
                        "endow: RC1 money=3000000000000\n"
                        "endow: RC2 ACME=100\n\n"
                        "order: RC2 sell 100 ACME limit 20000000000\n"
                        "order: RC1 buy 100 ACME limit 20000000000\n"),
    "zero_quantity": ("retail_retail", "order: RC2 sell 100 ACME limit 1040\n",
                      "order: RC2 sell 0 ACME limit 1040\n"),
    "zero_price": ("retail_retail", "order: RC2 sell 100 ACME limit 1040\n",
                   "order: RC2 sell 100 ACME limit 0\n"),
    "capped_sell": ("retail_retail", "order: RC2 sell 100 ACME limit 1040\n",
                    "order: RC2 sell 100 ACME market cap=5\n"),
    "partial_block": ("retail_institutional", "order: RC2 sell 100 ACME limit 1040\n",
                      "order: RC2 sell 60 ACME limit 1040\n"),
    "missing_price": ("retail_retail", "order: RC2 sell 100 ACME limit 1040\n",
                      "order: RC2 sell 100 ACME limit\n"),
    "price_not_allowed": ("retail_retail", "order: RC2 sell 100 ACME limit 1040\n",
                          "order: RC2 sell 100 ACME market 1040\n"),
    "missing_cap": ("retail_retail", "order: RC1 buy 100 ACME limit 1040\n",
                    "order: RC1 buy 100 ACME market\n"),
    "too_large": ("retail_retail", "order: RC2 sell 100 ACME limit 1040\n",
                  "order: RC2 sell 1000001 ACME limit 1040\n"),
    "duplicate_order": ("retail_retail", "order: RC2 sell 100 ACME limit 1040\n",
                        "order: RC2 sell 50 ACME limit 1040 ref=S1\n"
                        "order: RC2 sell 50 ACME limit 1040 ref=S1\n"),
    "no_venues": ("retail_retail", "exchange: X1\n", ""),
    "no_details": ("retail_institutional", "allocate: INST1 order=2 EC1=60 EC2=40\n",
                   "allocate: INST1 order=2\n"),
    "short_position": ("retail_retail", "order: RC2 sell 100 ACME limit 1040\n",
                       "order: RC2 sell 101 ACME limit 1040\n"),
    "unallocated_block": ("retail_institutional", "allocate: INST1 order=2 EC1=60 EC2=40\n", ""),
    "oversized_order": ("retail_retail",
                        "endow: RC2 ACME=100\n\norder: RC2 sell 100 ACME limit 1040\n",
                        "endow: RC2 ACME=1000001\n\norder: RC2 sell 1000001 ACME limit 1\n"),
}


def _machine_run(product: str, scenario: str, digest: str, shown: str, code: int = 0):
    return (("run", "{data}/catalog.fm", f"{{data}}/{product}.cfg", scenario,
             "--format", "machine"), code, digest, shown)


# (argv, exit code, machine md5, `stpsim report` md5)
PINS.update({
    "seco_a_retail_retail": _machine_run(
        "seco_a", "retail_retail",
        "ed287364eb78e4b26ffdb2d5984b43cb", "c64608fd5a1ba1190e75c46563e53816"),
    "seco_a_retail_institutional": _machine_run(
        "seco_a", "retail_institutional",
        "6cf7f18dd31905eff2b6a87ad7e8754e", "f1b127afd2ff7878ea254fdc1ab2f02c"),
    "seco_a_institutional_institutional": _machine_run(
        "seco_a", "institutional_institutional",
        "702964ff34409842bcae992f9974f8cb", "b44c893c4a08070e9ef315c6735e8f02"),
    "seco_b_retail_retail": _machine_run(
        "seco_b", "retail_retail",
        "5c2eaa9ba52271c54f2c837a60bbb5bd", "0e7b0500a72ac343f636be71c35cf1a1"),
    "seco_b_retail_institutional": _machine_run(
        "seco_b", "retail_institutional",
        "58e9fa3b8301c74b5fa9d68d758d4bbc", "df49d079563860dc0fbbb9face93582f"),
    "seco_b_institutional_institutional": _machine_run(
        "seco_b", "institutional_institutional",
        "9e3b17596eaef58fe7caac2aacd96481", "b23218a7b4affcb9290fc6f3819876e9"),
    "seco_a_retail_cross_seed_1": _machine_run(
        "seco_a", "{retail_cross}",
        "52f8b118fb4e43e296ad1120242ec79f", "0df4306ab519e8dc04dd116acd1ee5ae"),
    "seco_b_deep_book_seed_1": _machine_run(
        "seco_b", "{deep_book}",
        "93e9e79d9930592ab711188b4e593bbb", "778d812aa768632403c98b5a0f455a11"),
    "seco_b_block_alloc_seed_1": _machine_run(
        "seco_b", "{block_alloc}",
        "e8b40c460eef4ef5d5656562fc8a2772", "0efe4ddf1ace8df349457d64ab41539c"),
    "seco_a_retail_cross_pairs_1600_seed_7": _machine_run(
        "seco_a", "{retail_cross_large}",
        "24d0f9dd7eca368e533589f6ddad6ea6", "6038610b0c9ffa3820589748d78b3910"),
    "seco_b_deep_book_levels_384_seed_7": _machine_run(
        "seco_b", "{deep_book_large}",
        "18eb267a95642752d044b970a306a0f0", "000634631cdeb467e88b22a5ea3b7ce3"),
    "seco_b_block_alloc_allocations_400_seed_7": _machine_run(
        "seco_b", "{block_alloc_large}",
        "57927c0f3a492dd4c52a64163c4cf1ba", "ecd8db2574aaf7e3981a2b5263d7cda1"),
    # aborted at the first order: RC1 cannot prepay its buy
    "seco_a_retail_retail_underfunded": _machine_run(
        "seco_a", "{underfunded}",
        "d400a679448e2f9939a5865dddce9ab0", "776dbac046e9864adc52e72f658d6d43", 1),
    "seco_b_retail_retail_underfunded": _machine_run(
        "seco_b", "{underfunded}",
        "27d0c2e20f9aa5d459fcfe1066444571", "7ed3b521c33899b558e736c70e4872fe", 1),
    # aborted at allocation_INST1: the splits miss the block's quantity
    "seco_a_institutional_institutional_short_allocation": _machine_run(
        "seco_a", "{short_allocation}",
        "e0595574db1e7ffc2fe0cda87d9890c8", "22ba781e9a1fe9a814a2f4426f05a8b4", 1),
    "seco_b_institutional_institutional_short_allocation": _machine_run(
        "seco_b", "{short_allocation}",
        "89b92160f2141a926ec60bc266f5ef91", "e971560dbc0b3ef19e1631f958462b02", 1),
    # aborted at allocation_INST1: the custodian refuses the zero split
    "seco_a_retail_institutional_zero_split": _machine_run(
        "seco_a", "{zero_split}",
        "8d49226383dd14f792e9c7520e5a8b3c", "404d1afee9ca810da141e04d67c5ecf3", 1),
    "seco_b_retail_institutional_zero_split": _machine_run(
        "seco_b", "{zero_split}",
        "2394dab6e4afdfd36b83320744b9a5ae", "113501ebc6b979f53f7a98497ff3853e", 1),
    # aborted at settle: the omnibus account is 4000USD short of the block's price
    "seco_a_retail_institutional_short_omnibus": _machine_run(
        "seco_a", "{short_omnibus}",
        "1f2831a60d8e8943b28051cc134f6bd5", "a12b247151eca77f1a8708e2257ba965", 1),
    "seco_b_retail_institutional_short_omnibus": _machine_run(
        "seco_b", "{short_omnibus}",
        "6689ae298d782b0b1cfa1e791bf61339", "70cd21f5d4a322f730508acdc7a104c3", 1),
    # aborted at allocation_INST1: the block filled at 1030 and at 1040
    "seco_a_retail_institutional_two_fill_prices": _machine_run(
        "seco_a", "{two_fill_prices}",
        "3df749fb5c1522763aad375ca9ad9fd9", "94539dd7c430b1f39b33f891cd779670", 1),
    "seco_b_retail_institutional_two_fill_prices": _machine_run(
        "seco_b", "{two_fill_prices}",
        "a65127a05bf5c3e68ddb79898157498b", "e45926d2188429f7456a4c7b430d7d64", 1),
    # aborted at order_1_RC2: SECO A's broker refuses the sell's value
    # (client_compliance: OrderValueOverCap)
    "seco_a_retail_retail_oversized_trade": _machine_run(
        "seco_a", "{oversized_trade}",
        "b0cbc1467be2cc02ea013479ef72802a", "ceeed32026d4b144a4f0fdd7438ddd85", 1),
    # aborted at report_trades: SECO B's broker caps no order value, and
    # clearing refuses the trade's (trade_validation: TradeValueTooLarge)
    "seco_b_retail_retail_oversized_trade": _machine_run(
        "seco_b", "{oversized_trade}",
        "07319780fb6d9e012a35d7539cf91053", "35c8e31a0437b8e4cae87af6ae68aac3", 1),
    # aborted at order_1_RC2: the broker's order-shape validation refuses
    # the sell (NonPositiveQuantity, NonPositivePrice, CapOnSell)
    "seco_a_retail_retail_zero_quantity": _machine_run(
        "seco_a", "{zero_quantity}",
        "a1f609c9540f693782a0376eff6ea9d2", "a1fc0dea12f93c4bd1f6f91204e62a1e", 1),
    "seco_a_retail_retail_zero_price": _machine_run(
        "seco_a", "{zero_price}",
        "85c37508dbb4a8fc45b60e536107ac74", "0037046b6036c14bb99318d5adb6e6bc", 1),
    "seco_a_retail_retail_capped_sell": _machine_run(
        "seco_a", "{capped_sell}",
        "419a3d66c13a68fe35bd4e2c869ecb8c", "3f968a38ae1fe2619bd4c7b1fa8c572e", 1),
    # aborted at allocation_INST1: 60 of the block's 100 fill and the rest
    # rests, so the broker refuses its allocation (BlockNotFilled)
    "seco_a_retail_institutional_partial_block": _machine_run(
        "seco_a", "{partial_block}",
        "e648855b7924c7cf3665ba3798f4f1e5", "9538db18c3d279bf516796b089b2973b", 1),
    "seco_b_retail_institutional_partial_block": _machine_run(
        "seco_b", "{partial_block}",
        "05fe78fe8c7d72f89576f95cc87b4a92", "9308462b2dd387c547ecb846c3dfe05b", 1),
    # aborted at order_1_RC2: the broker refuses a limit sell without its
    # price (validation: MissingPrice)
    "seco_a_retail_retail_missing_price": _machine_run(
        "seco_a", "{missing_price}",
        "00290ff16def11e86e6fcd04cbd1222a", "223f7519bbaff4c24be0479d2f5551b4", 1),
    "seco_b_retail_retail_missing_price": _machine_run(
        "seco_b", "{missing_price}",
        "ff79801e6310bbe4cdd64076da4d37ff", "1d3f79c15fdd822c56a1ecc3eba0bd78", 1),
    # aborted at order_1_RC2: the broker refuses a market sell with a limit
    # price (validation: PriceNotAllowed)
    "seco_a_retail_retail_price_not_allowed": _machine_run(
        "seco_a", "{price_not_allowed}",
        "f4708f55b80262efa2752e0a0ed6b363", "931ce740d9beeec442ce77f96df56dc4", 1),
    "seco_b_retail_retail_price_not_allowed": _machine_run(
        "seco_b", "{price_not_allowed}",
        "8aa870dcd022aed683dff78b25e96110", "f94048b0337586a865e98ecfdc0d2363", 1),
    # aborted at order_2_RC1: the broker refuses a retail market buy without
    # its cap= (validation: MissingPriceCap)
    "seco_a_retail_retail_missing_cap": _machine_run(
        "seco_a", "{missing_cap}",
        "b31aad51ad91f361edb9e52835916e31", "60e14937a2c5c78164605a2bc229d25d", 1),
    "seco_b_retail_retail_missing_cap": _machine_run(
        "seco_b", "{missing_cap}",
        "bedd357993cd6449be1a29b23ca6f170", "d0ba152b81b659f65cadb325e6d7ee3f", 1),
    # aborted at order_1_RC2: SECO B's broker caps the sell's size
    # (validation: OrderTooLarge), SECO A's its value (client_compliance:
    # OrderValueOverCap)
    "seco_a_retail_retail_too_large": _machine_run(
        "seco_a", "{too_large}",
        "092d0f83541c9ac79579f03369b69ff3", "43251773d8bf4612711a835fe60cc605", 1),
    "seco_b_retail_retail_too_large": _machine_run(
        "seco_b", "{too_large}",
        "6fc1c079f32f204d530ed63df4406808", "1f54e34674d97c9e42b71f0c2642d08c", 1),
    # aborted at order_2_RC2: the second sell reuses ref=S1 (risk: DuplicateOrder)
    "seco_a_retail_retail_duplicate_order": _machine_run(
        "seco_a", "{duplicate_order}",
        "658ea490132f9ded09a3aaec73eff3c0", "10c17a1ca0ece65b1b2bd059210a52b8", 1),
    "seco_b_retail_retail_duplicate_order": _machine_run(
        "seco_b", "{duplicate_order}",
        "7007d392326b73bd168e4eef1e79e4af", "669c5f2e0e64051aee9d315ea954803f", 1),
    # aborted at order_1_RC2: the scenario declares no exchange
    # (venue_selection: NoVenues)
    "seco_a_retail_retail_no_venues": _machine_run(
        "seco_a", "{no_venues}",
        "b1204c005ad74c2517112528546d1f95", "a33efd996650d4c83d2918c82150a26c", 1),
    "seco_b_retail_retail_no_venues": _machine_run(
        "seco_b", "{no_venues}",
        "3d747a38cf8095d1380d7b62feeab79c", "c55c5b210ece6567eb4ac256ce7a009d", 1),
    # aborted at allocation_INST1: the custodian refuses a split without
    # details (NoDetails)
    "seco_a_retail_institutional_no_details": _machine_run(
        "seco_a", "{no_details}",
        "b3f2b6dc0e5ccd639434592de9945669", "993b9cf85cc4675d304db79defbbc9b9", 1),
    "seco_b_retail_institutional_no_details": _machine_run(
        "seco_b", "{no_details}",
        "4e65e0f558ea0244130420fa08451a82", "52159c102705c3e3da75f8f27aeb88ad", 1),
    # aborted at order_1_RC2: RC2 sells 101 of its 100 ACME (SECO A prepayment:
    # InsufficientPosition, SECO B risk: InsufficientPrefunding)
    "seco_a_retail_retail_short_position": _machine_run(
        "seco_a", "{short_position}",
        "efbfaeccfd9b01ed67ff43e12f70a219", "4ec89f1b1489fdcb90ce234d5eaf6779", 1),
    "seco_b_retail_retail_short_position": _machine_run(
        "seco_b", "{short_position}",
        "6830722948add445abc29f03c72e8553", "86e64ae399541dc788367b35ca813b3b", 1),
    # completed with failed checks: the block is never allocated, so no client
    # trade covers its street trade, which waits in the clearing queue
    # (clearing_queue_empty, all_trades_settled: X1-T1 is executed, 5 final[...])
    "seco_a_retail_institutional_unallocated_block": _machine_run(
        "seco_a", "{unallocated_block}",
        "a3ecc992903b74ad0af571449717339c", "e5c3e10de76e8285c7c16eee02f5de02", 1),
    "seco_b_retail_institutional_unallocated_block": _machine_run(
        "seco_b", "{unallocated_block}",
        "45b69e86d282338914add4c20f8861c9", "465133b35f764ff25871b5ece2870b7c", 1),
    # aborted at order_1_RC2: SECO A's broker does not cap the sell's size, and
    # the exchange under the extended checks refuses it at routing
    # (OrderTooLarge); the broker refunds the prepaid shares
    "xcap_retail_retail_oversized_order": (
        ("run", "{data}/catalog.fm", "{xcap}", "{oversized_order}", "--format", "machine"), 1,
        "126e02622e6a1f9ef969db0e6e3dcbdb", "da4c977c34489ee0611897826973adad"),
})


@pytest.fixture(scope="module")
def argv_of(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("inputs")
    nofok = inputs / "nofok.cfg"
    nofok.write_text("".join(
        line for line in config_path("seco_a").read_text().splitlines(keepends=True)
        if line.strip() != "FillOrKillMatching"))
    xcap = inputs / "xcap.cfg"
    xcap.write_text(config_path("seco_a").read_text().replace(
        "\nExchangeStandardOrderChecks\n", "\nExchangeExtendedOrderChecks\n"))
    root = inputs / "root.cfg"
    root.write_text("EquityMarket\n")
    paths = {"data": catalog_path().parent, "nofok": nofok, "xcap": xcap, "root": root}
    for name, workload in WORKLOADS.items():
        paths[name] = inputs / f"{name}.scn"
        paths[name].write_text(workload.scenario_text(1), encoding="utf-8")
        paths[f"{name}_large"] = inputs / f"{name}_large.scn"
        paths[f"{name}_large"].write_text(workload.scenario_text(7, **LARGE[name]),
                                          encoding="utf-8")
    for name, (scenario_id, old, new) in EDITS.items():
        text = scenario_path(scenario_id).read_text(encoding="utf-8")
        assert text.count(old) == 1
        paths[name] = inputs / f"{name}.scn"
        paths[name].write_text(text.replace(old, new), encoding="utf-8")
    return lambda row: [word.format(**paths) for word in PINS[row][0]]


def md5(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("row", PINS)
def test_pinned_output(argv_of, capsys, tmp_path, row):
    _, code, digest, *shown = PINS[row]
    argv = argv_of(row)
    start = time.perf_counter()
    got = main(argv)
    assert time.perf_counter() - start < LIMIT_S
    captured = capsys.readouterr()
    assert (got, md5(captured.out), captured.err) == (code, digest, "")
    if shown:
        machine = tmp_path / "machine.txt"
        machine.write_text(captured.out, encoding="utf-8")
        start = time.perf_counter()
        report = main(["report", str(machine)]), capsys.readouterr()
        assert time.perf_counter() - start < LIMIT_S
        human = main(argv[:-2]), capsys.readouterr()   # the same run, in the human format
        assert (report[0], md5(report[1].out), report[1].err) == (code, shown[0], "")
        assert human == report


def test_pinned_output_as_a_process(argv_of):
    row = "run_no_fok_matching"
    _, code, digest = PINS[row]
    env = dict(os.environ, PYTHONPATH=str(Path(stpsim.__file__).parent.parent))
    result = subprocess.run([sys.executable, "-m", "stpsim.cli", *argv_of(row)],
                            capture_output=True, text=True, env=env, timeout=60)
    assert (result.returncode, md5(result.stdout), result.stderr) == (code, digest, "")
