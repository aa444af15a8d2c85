"""Differential oracle over the product line: label-only variants.

The four transfer-method variation points only name the method in the
`/method=` suffix of journal causes. Swapping any one of them to its other
variant in a shipped configuration must therefore leave every shipped
scenario's machine output unchanged once those suffixes are blanked, and
must change the output of at least one scenario (else the point labels
nothing and the oracle checks nothing).
"""

import re

import pytest

from conftest import load_scenario
from stpsim.data import config_path
from stpsim.features import derive_product, parse_configuration, validate_configuration
from stpsim.lifecycle import assert_conservation, run_scenario
from stpsim.report import render_machine
from stpsim.scenarios import SCENARIO_IDS

# each transfer-method point's two variants
TRANSFER_METHODS = {
    "BrokerMoneyTransferMethods": ("BrokerBookEntryPayment", "BrokerBankWirePayment"),
    "BrokerEquityTransferMethods": ("BrokerBookEntryEquityTransfer",
                                    "BrokerCertificateEquityTransfer"),
    "CustodianMoneyTransferMethods": ("CustodianBookEntryPayment", "CustodianBankWirePayment"),
    "CustodianEquityTransferMethods": ("CustodianBookEntryEquityTransfer",
                                       "CustodianCertificateEquityTransfer"),
}

_METHOD = re.compile(r"/method=[^/|\n]*")


def machine_outputs(catalog, config_text, name):
    config = parse_configuration(config_text)
    assert validate_configuration(catalog, config).valid
    product = derive_product(catalog, config, name)
    outputs = {}
    for scenario_id in SCENARIO_IDS:
        report = run_scenario(product, load_scenario(scenario_id))
        outputs[scenario_id] = render_machine(report, assert_conservation(report))
    return outputs


def swapped(config_text, variants):
    """The configuration text with the one bound variant of `variants` swapped."""
    lines = config_text.splitlines()
    bound = [i for i, line in enumerate(lines) if line.strip() in variants]
    assert len(bound) == 1
    index = bound[0]
    lines[index] = variants[1 - variants.index(lines[index].strip())]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("point", TRANSFER_METHODS)
@pytest.mark.parametrize("product", ["seco_a", "seco_b"])
def test_transfer_method_swap_changes_only_method_suffixes(catalog, product, point):
    text = config_path(product).read_text(encoding="utf-8")
    name = product.upper()
    base = machine_outputs(catalog, text, name)
    other = machine_outputs(catalog, swapped(text, TRANSFER_METHODS[point]), name)
    for scenario_id in SCENARIO_IDS:
        assert _METHOD.sub("/method=", other[scenario_id]) == \
            _METHOD.sub("/method=", base[scenario_id]), scenario_id
    assert any(other[s] != base[s] for s in SCENARIO_IDS)
