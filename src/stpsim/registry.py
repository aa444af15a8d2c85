"""In-process service registry.

Participants find each other by (role, id) instead of network addresses;
the registered handle is a plain object reference to the participant's
operation surface. Assembly registers everything up front, after which the
registry is read-only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any


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


@dataclass(frozen=True)
class ParticipantId:
    role: ParticipantRole
    id: str

    def __str__(self) -> str:
        return f"{self.role.value}:{self.id}"


class ServiceRegistry:
    def __init__(self) -> None:
        self._entries: dict[tuple[ParticipantRole, str], Any] = {}

    def register(self, pid: ParticipantId, handle: Any) -> None:
        key = (pid.role, pid.id)
        if key in self._entries:
            raise DuplicateRegistration(str(pid))
        self._entries[key] = handle

    def lookup(self, pid: ParticipantId) -> Any:
        try:
            return self._entries[(pid.role, pid.id)]
        except KeyError:
            raise NotFound(str(pid)) from None

    def list_by_role(self, role: ParticipantRole) -> list[ParticipantId]:
        """All ids registered under `role`, in registration order."""
        return [ParticipantId(r, i) for (r, i) in self._entries if r is role]

    def first(self, role: ParticipantRole) -> Any:
        """The handle of the first participant registered under `role`."""
        for (r, _), handle in self._entries.items():
            if r is role:
                return handle
        raise NotFound(f"no {role.value.replace('_', ' ')} registered")

    def __len__(self) -> int:
        return len(self._entries)
