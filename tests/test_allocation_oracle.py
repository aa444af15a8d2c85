"""The institutional rule functions against naive rule-by-rule references.

`allocation_detail_rule` makes one pass over the details and
`CustodianService._affirmation_violations` walks the contracts once; the
references below state each rule as its own scan, in the documented order,
and the two must agree on random detail and contract lists.
"""

from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import projected
from stpsim.custodian import AffirmationViolation, CustodianConfig, CustodianService
from stpsim.ledger import Ledger
from stpsim.money import Money
from stpsim.registry import ParticipantId, ParticipantRole, ServiceRegistry
from stpsim.trading import AllocationDetail, Contract, allocation_detail_rule

BROKER_PID = ParticipantId(ParticipantRole.BROKER, "BR1")
CUSTODIAN_PID = ParticipantId(ParticipantRole.CUSTODIAN, "CU1")
SECO_A = CustodianConfig(**projected("seco_a")["Custodian"])
AFFIRMATION_RULES = ("FieldEqualityAffirmation", "CoverageAffirmation")


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


def naive_affirmation_violations(contracts, details, rules):
    violations = []
    by_alloc = {d.alloc_id: d for d in details}
    if "FieldEqualityAffirmation" in rules:
        seen_refs = set()
        for contract in sorted(contracts, key=lambda c: c.contract_id):
            detail = by_alloc.get(contract.alloc_ref)
            if detail is None:
                violations.append(AffirmationViolation(
                    "UnknownAllocationRef", contract.contract_id, contract.alloc_ref))
                continue
            if contract.alloc_ref in seen_refs:
                violations.append(AffirmationViolation(
                    "DuplicateAllocationRef", contract.contract_id, contract.alloc_ref))
                continue
            seen_refs.add(contract.alloc_ref)
            if contract.symbol != detail.symbol:
                violations.append(AffirmationViolation(
                    "SymbolMismatch", contract.contract_id, detail.alloc_id))
            if contract.quantity != detail.quantity:
                violations.append(AffirmationViolation(
                    "QuantityMismatch", contract.contract_id, detail.alloc_id))
            if contract.price != detail.price:
                violations.append(AffirmationViolation(
                    "PriceMismatch", contract.contract_id, detail.alloc_id))
    if "CoverageAffirmation" in rules:
        if sum(c.quantity for c in contracts) != sum(d.quantity for d in details):
            violations.append(AffirmationViolation("QuantitySumMismatch", "", ""))
        referenced = {c.alloc_ref for c in contracts}
        for detail in sorted(details, key=lambda d: d.alloc_id):
            if detail.alloc_id not in referenced:
                violations.append(AffirmationViolation("UnmatchedDetails", "", detail.alloc_id))
    return violations


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


@st.composite
def contracts_for(draw, details):
    """The broker's mirror of `details`, with random edits, dropped alloc
    ids, extra contracts and contract numbers, in a random order."""
    numbers = draw(st.permutations(range(1, 3 * len(details) + 9)))
    contracts = [Contract(f"BR1-C{numbers[n]}", BROKER_PID, CUSTODIAN_PID, d.alloc_id,
                          d.block_order_id, d.symbol, d.quantity, d.price)
                 for n, d in enumerate(details)]
    edits = draw(st.lists(st.tuples(
        st.sampled_from(["symbol", "quantity", "price", "drop", "duplicate", "alien"]),
        st.integers(0, 10**6)), max_size=6))
    extra = len(details)
    for edit, n in edits:
        if not contracts:
            break
        index = n % len(contracts)
        contract = contracts[index]
        if edit == "symbol":
            contracts[index] = contract._replace(symbol="OTHR")
        elif edit == "quantity":
            contracts[index] = contract._replace(quantity=contract.quantity + 1 + n % 3)
        elif edit == "price":
            contracts[index] = contract._replace(price=Money(contract.price.amount + 1))
        elif edit == "drop":  # every contract for one alloc id, leaving one at least
            kept = [c for c in contracts if c.alloc_ref != contract.alloc_ref]
            contracts = kept or contracts
        elif edit in ("duplicate", "alien"):
            extra += 1
            ref = contract.alloc_ref if edit == "duplicate" else f"GHOST{n % 3}"
            contracts.append(contract._replace(contract_id=f"BR1-C{numbers[extra]}",
                                               alloc_ref=ref))
    return draw(st.permutations(contracts))


@st.composite
def affirmation_cases(draw):
    """Details that pass the standard detail pack (which allows repeated
    alloc ids), and contracts for them."""
    count = draw(st.integers(1, 40))
    details = [clean_detail(n, draw(st.integers(1, 500)), draw(st.sampled_from([1040, 1041])))
               for n in range(1, count + 1)]
    for index, source in draw(st.lists(st.tuples(st.integers(0, count - 1),
                                                 st.integers(0, count - 1)), max_size=3)):
        details[index] = details[index]._replace(alloc_id=details[source].alloc_id)
    return tuple(details), draw(contracts_for(details))


@pytest.mark.parametrize("rules", [frozenset(chosen) for size in (1, 2)
                                   for chosen in combinations(AFFIRMATION_RULES, size)],
                         ids=lambda rules: "+".join(sorted(rules)))
@settings(max_examples=100, deadline=None)
@given(case=affirmation_cases())
def test_affirmation_violations_equal_the_naive_reference_in_order(rules, case):
    details, contracts = case
    custodian = CustodianService(CUSTODIAN_PID, ServiceRegistry(), Ledger(), "CU1.omnibus",
                                 replace(SECO_A, affirmation_rules=rules))
    assert (custodian._affirmation_violations(list(contracts), details)
            == naive_affirmation_violations(contracts, details, rules))
