"""Virtual CPU: the schedulable unit the credit scheduler allocates."""

from __future__ import annotations

from repro.errors import ConfigurationError


class Vcpu:
    """One virtual CPU belonging to a domain.

    The paper's testbed assigns up to two VCPUs per VM, "among which the
    number of active ones depends on applications"; :attr:`online`
    captures that an assigned VCPU may be offline.

    A VCPU held by a :class:`~repro.virt.domain.Domain` reports every
    online/offline transition to it, so the domain's online count stays
    current without a scan of its VCPU list.
    """

    def __init__(self, index: int, online: bool = True) -> None:
        if index < 0:
            raise ConfigurationError("vcpu index must be non-negative")
        self.index = int(index)
        self._online = bool(online)
        #: The domain whose online count this VCPU keeps (set by the
        #: domain when it takes the VCPU).
        self.domain = None

    @property
    def online(self) -> bool:
        return self._online

    @online.setter
    def online(self, online: bool) -> None:
        self.set_online(online)

    def set_online(self, online: bool) -> None:
        online = bool(online)
        if online == self._online:
            return
        self._online = online
        if self.domain is not None:
            self.domain._online_count += 1 if online else -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "online" if self.online else "offline"
        return f"<Vcpu {self.index} {state}>"
