"""IPv4 addresses and host identifiers for the simulated network."""

from __future__ import annotations

__all__ = ["ip_aton", "ip_ntoa", "HostAddress"]


def ip_aton(dotted: str) -> int:
    """'10.0.0.1' -> 32-bit integer."""
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address: {dotted!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"bad IPv4 octet in {dotted!r}")
        value = (value << 8) | octet
    return value


def ip_ntoa(value: int) -> str:
    """32-bit integer -> dotted quad."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"bad IPv4 integer: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class HostAddress:
    """A host's network identity: an IPv4 address plus a display name."""

    __slots__ = ("ip", "name")

    def __init__(self, dotted: str, name: str = ""):
        self.ip = ip_aton(dotted)
        self.name = name or dotted

    @property
    def dotted(self) -> str:
        return ip_ntoa(self.ip)

    def __eq__(self, other) -> bool:
        return isinstance(other, HostAddress) and self.ip == other.ip

    def __hash__(self) -> int:
        return hash(self.ip)

    def __repr__(self) -> str:
        return f"<HostAddress {self.name} {self.dotted}>"
