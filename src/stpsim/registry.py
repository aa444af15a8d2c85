"""In-process service registry.

Participants find each other by (role, id) instead of network addresses;
the registered handle is a plain object reference to the participant's
operation surface. Assembly registers everything up front, after which the
registry is read-only.
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple


class RegistryError(Exception):
    pass


class DuplicateRegistration(RegistryError):
    pass


class NotFound(RegistryError):
    pass


class ParticipantRole(enum.Enum):
    BROKER = "broker"
    CUSTODIAN = "custodian"
    EXCHANGE = "exchange"
    CLEARING_CORPORATION = "clearing_corporation"
    CLEARING_BANK = "clearing_bank"
    DEPOSITORY = "depository"

    # Members are singletons that compare by identity, so they may hash by
    # identity too: in C, where Enum's own hash is a Python call per lookup.
    __hash__ = object.__hash__


# each member as a module constant, as `trading` explains
BROKER, CUSTODIAN = ParticipantRole.BROKER, ParticipantRole.CUSTODIAN
EXCHANGE, CLEARING_CORPORATION = ParticipantRole.EXCHANGE, ParticipantRole.CLEARING_CORPORATION
CLEARING_BANK, DEPOSITORY = ParticipantRole.CLEARING_BANK, ParticipantRole.DEPOSITORY


class ParticipantId(NamedTuple):
    role: ParticipantRole
    id: str

    def __str__(self) -> str:
        return f"{self.role.value}:{self.id}"


class ServiceRegistry:
    def __init__(self) -> None:
        self._entries: dict[ParticipantId, Any] = {}
        self._by_role: dict[ParticipantRole, list[ParticipantId]] = {}  # in registration order

    def register(self, pid: ParticipantId, handle: Any) -> None:
        if pid in self._entries:
            raise DuplicateRegistration(str(pid))
        self._entries[pid] = handle
        self._by_role.setdefault(pid.role, []).append(pid)

    def lookup(self, pid: ParticipantId) -> Any:
        try:
            return self._entries[pid]
        except KeyError:
            raise NotFound(str(pid)) from None

    def list_by_role(self, role: ParticipantRole) -> list[ParticipantId]:
        """All ids registered under `role`, in registration order."""
        return list(self._by_role.get(role, ()))

    def first(self, role: ParticipantRole) -> Any:
        """The handle of the first participant registered under `role`."""
        ids = self._by_role.get(role)
        if not ids:
            raise NotFound(f"no {role.value.replace('_', ' ')} registered")
        return self._entries[ids[0]]
