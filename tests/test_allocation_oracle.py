"""The allocation-detail rule against a naive rule-by-rule reference.

`allocation_detail_rule`, which the broker and the custodian both run,
makes one pass over the details; the reference below states each rule as
its own scan, in the documented order, and the two must agree on random
detail lists.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from stpsim.money import Money
from stpsim.trading import AllocationDetail, allocation_detail_rule


def naive_detail_rule(details, institution, block_order_id, symbol, extended):
    if any(d.institution != institution for d in details):
        return "InstitutionMismatch"
    if any(d.block_order_id != block_order_id for d in details):
        return "MixedBlockOrders"
    if any(d.quantity <= 0 for d in details):
        return "NonPositiveQuantity"
    if any(d.symbol != symbol for d in details):
        return "SymbolMismatch"
    if extended:
        if any(not d.end_client_account for d in details):
            return "EmptyEndClientAccount"
        if any(d.price.amount <= 0 for d in details):
            return "NonPositivePrice"
        if len({d.alloc_id for d in details}) != len(details):
            return "DuplicateAllocId"
    return None


def clean_detail(number, quantity, price):
    return AllocationDetail(f"INST1-A{number}", "INST1", f"EC{number}", "BR1-O1", "ACME",
                            quantity, Money(price))


# fault -> the edit it makes to one detail, given a drawn int and the list,
# in the order of the rules they break; a duplicate takes the id of the first
# or the last detail
FAULTS = {
    "institution": lambda d, n, ds: d._replace(institution="INST2"),
    "block": lambda d, n, ds: d._replace(block_order_id="BR1-O9"),
    "quantity": lambda d, n, ds: d._replace(quantity=-(n % 4)),
    "symbol": lambda d, n, ds: d._replace(symbol="OTHR"),
    "end_client": lambda d, n, ds: d._replace(end_client_account=""),
    "price": lambda d, n, ds: d._replace(price=Money(-(n % 4))),
    "duplicate": lambda d, n, ds: d._replace(alloc_id=ds[n % 2 - 1].alloc_id),
}


@st.composite
def faulty_details(draw):
    """1-40 details of one block, up to five of them with one to three faults
    each, of any mix of the seven kinds. Drawing a lowest kind first lets
    every rule be the first broken about as often."""
    count = draw(st.integers(1, 40))
    details = [clean_detail(n, draw(st.integers(1, 500)), draw(st.sampled_from([1040, 1041])))
               for n in range(1, count + 1)]
    kinds = list(FAULTS)[draw(st.integers(0, len(FAULTS) - 1)):]
    faults = draw(st.lists(st.tuples(
        st.integers(0, count - 1), st.sets(st.sampled_from(kinds), min_size=1, max_size=3),
        st.integers(0, 99)), max_size=5))
    for index, chosen, n in faults:
        for fault in chosen:
            details[index] = FAULTS[fault](details[index], n, details)
    return details


@settings(max_examples=250, deadline=None)
@given(details=faulty_details(), extended=st.booleans())
def test_the_one_pass_detail_rule_equals_the_rule_by_rule_reference(details, extended):
    args = (details, "INST1", "BR1-O1", "ACME", extended)
    assert allocation_detail_rule(*args) == naive_detail_rule(*args)


@pytest.mark.parametrize("extended", [False, True], ids=["standard", "extended"])
def test_every_mix_of_faults_in_one_detail_gives_the_reference_rule(extended):
    # the order of two rules shows only where one detail breaks both, which
    # random lists seldom draw, so every subset of the seven faults goes
    # into one detail
    clean = [clean_detail(n, 10, 1040) for n in range(1, 4)]
    for size in range(len(FAULTS) + 1):
        for chosen in combinations(FAULTS, size):
            for index in range(len(clean)):
                for n in (1, 2):
                    details = list(clean)
                    for fault in chosen:
                        details[index] = FAULTS[fault](details[index], n, details)
                    args = (details, "INST1", "BR1-O1", "ACME", extended)
                    assert allocation_detail_rule(*args) == naive_detail_rule(*args), \
                        (chosen, index, n)
