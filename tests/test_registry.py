import pytest

from stpsim.registry import (
    DuplicateRegistration,
    NotFound,
    ParticipantId,
    ParticipantRole,
    ServiceRegistry,
)


def pid(role, ident):
    return ParticipantId(role, ident)


def test_register_then_lookup_returns_same_handle():
    registry = ServiceRegistry()
    handle = object()
    registry.register(pid(ParticipantRole.BROKER, "B1"), handle)
    assert registry.lookup(pid(ParticipantRole.BROKER, "B1")) is handle


def test_duplicate_registration_rejected():
    registry = ServiceRegistry()
    registry.register(pid(ParticipantRole.BROKER, "B1"), object())
    with pytest.raises(DuplicateRegistration):
        registry.register(pid(ParticipantRole.BROKER, "B1"), object())


def test_same_id_under_different_roles_is_fine():
    registry = ServiceRegistry()
    registry.register(pid(ParticipantRole.BROKER, "X"), "a")
    registry.register(pid(ParticipantRole.EXCHANGE, "X"), "b")
    assert registry.lookup(pid(ParticipantRole.EXCHANGE, "X")) == "b"


def test_lookup_unregistered_raises_not_found():
    with pytest.raises(NotFound):
        ServiceRegistry().lookup(pid(ParticipantRole.EXCHANGE, "X1"))


def test_list_by_role_in_registration_order():
    registry = ServiceRegistry()
    registry.register(pid(ParticipantRole.BROKER, "B2"), "x")
    registry.register(pid(ParticipantRole.EXCHANGE, "X1"), "y")
    registry.register(pid(ParticipantRole.BROKER, "B1"), "z")
    assert registry.list_by_role(ParticipantRole.BROKER) == [
        pid(ParticipantRole.BROKER, "B2"),
        pid(ParticipantRole.BROKER, "B1"),
    ]
    assert registry.list_by_role(ParticipantRole.DEPOSITORY) == []


def test_first_returns_first_registered_handle_or_names_the_role():
    registry = ServiceRegistry()
    registry.register(pid(ParticipantRole.CLEARING_BANK, "CB2"), "second-id-first")
    registry.register(pid(ParticipantRole.BROKER, "B1"), "broker")
    registry.register(pid(ParticipantRole.CLEARING_BANK, "CB1"), "later")
    assert registry.first(ParticipantRole.CLEARING_BANK) == "second-id-first"
    for role, message in [
        (ParticipantRole.CLEARING_CORPORATION, "no clearing corporation registered"),
        (ParticipantRole.DEPOSITORY, "no depository registered"),
    ]:
        with pytest.raises(NotFound, match=f"^{message}$"):
            registry.first(role)
    with pytest.raises(NotFound, match="^no clearing bank registered$"):
        ServiceRegistry().first(ParticipantRole.CLEARING_BANK)


def test_every_listed_id_is_lookupable():
    registry = ServiceRegistry()
    handles = {}
    for i in range(5):
        p = pid(ParticipantRole.CUSTODIAN, f"C{i}")
        handles[p] = object()
        registry.register(p, handles[p])
    for p in registry.list_by_role(ParticipantRole.CUSTODIAN):
        assert registry.lookup(p) is handles[p]
