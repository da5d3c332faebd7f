"""The IP layer: ip_output and ipintr (ip_input).

Fragmentation is never exercised in this system (TCP's negotiated MSS is
always below the interface MTU), so datagrams larger than the MTU are a
programming error and raise; this is checked rather than silently
mis-modelled.
"""

from __future__ import annotations

import itertools
from typing import Generator

from repro.ip.fragment import IP_MF, FragmentReassembler, fragment_packet
from repro.net.headers import (HeaderError, IP_HEADER_LEN, IPHeader,
                               PROTO_TCP)
from repro.net.packet import Packet
from repro.sim.cpu import Priority
from repro.sim.engine import us

__all__ = ["IPLayer", "IPStats", "IPError"]


class IPError(Exception):
    """IP layer misuse (oversized datagram, no route)."""


class IPStats:
    __slots__ = ("sent", "received", "hdr_cksum_errors", "not_tcp",
                 "delivered", "fragments_sent", "fragments_received",
                 "bad_headers")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


class IPLayer:
    """Per-host IP input/output processing."""

    def __init__(self, host):
        self.host = host
        self.stats = IPStats()
        self._ident = itertools.count(1)
        #: protocol number -> input handler (generator taking a Packet).
        self._protocols = {}
        self.reassembler = FragmentReassembler(host.sim)

    def register_protocol(self, proto: int, handler) -> None:
        """Install the input handler for an IP protocol number."""
        self._protocols[proto] = handler

    def next_ident(self) -> int:
        return next(self._ident) & 0xFFFF

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def output(self, packet: Packet, priority: int = Priority.KERNEL,
               data_bearing: bool = True) -> Generator:
        """ip_output: header checksum, route to the interface."""
        iface = self.host.interface
        if iface is None:
            raise IPError(f"{self.host.name}: no interface attached")
        if (len(packet.data) > iface.mtu
                and packet.ip_header.protocol == PROTO_TCP):
            # TCP's MSS negotiation must keep segments under the MTU;
            # reaching here is a stack bug, not a fragmentation case.
            raise IPError(
                f"TCP segment of {len(packet.data)} bytes exceeds MTU "
                f"{iface.mtu}; MSS negotiation should prevent this"
            )
        costs = self.host.costs
        span = "tx.ip" if data_bearing else "tx.ack.ip"
        fragments = fragment_packet(packet, iface.mtu)
        if len(fragments) > 1:
            self.stats.fragments_sent += len(fragments)
        for fragment in fragments:
            if fragment is not packet:
                fragment.lineage = packet.lineage
            yield from self.host.charge(
                us(costs.ip_output_us + costs.ip_hdr_cksum_us),
                priority, "ip_output", span=span,
                lineage=fragment.lineage)
            self.stats.sent += 1
            if self.host.packet_log is not None:
                self.host.packet_log.record(self.host.name, "tx", fragment,
                                            self.host.sim.now / 1000.0)
            yield from iface.output(fragment, priority, data_bearing)

    # ------------------------------------------------------------------
    # Input (runs as the network software interrupt)
    # ------------------------------------------------------------------
    def input(self, packet: Packet) -> Generator:
        """ipintr body for one datagram (SOFT_INTR context)."""
        self.stats.received += 1
        costs = self.host.costs
        try:
            data_bearing = len(packet.payload) > 0
        except HeaderError:
            data_bearing = False
        span = "rx.ip" if data_bearing else "rx.ack.ip"
        yield from self.host.charge(
            us(costs.ip_input_us + costs.ip_hdr_cksum_us),
            Priority.SOFT_INTR, "ip_input", span=span,
            lineage=packet.lineage)
        try:
            ip_hdr = packet.ip_header
            header_ok = ip_hdr.header_valid(packet.data)
        except HeaderError:
            header_ok = False
        if not header_ok:
            # A corrupted header: caught by the IP header checksum (or
            # unparseable outright); the datagram is silently dropped.
            self.stats.hdr_cksum_errors += 1
            if self.host.lineage is not None:
                self.host.lineage.mark_dropped(packet.lineage,
                                               "ip-hdr-cksum")
            return
        # Total-length sanity (ip_input's ip_len checks): the field
        # must cover at least the header and at most the bytes that
        # actually arrived; link-layer padding beyond ip_len is
        # trimmed so it never reaches the transport checksum.
        total_length = ip_hdr.total_length
        if total_length < IP_HEADER_LEN or total_length > len(packet.data):
            self.stats.bad_headers += 1
            if self.host.lineage is not None:
                self.host.lineage.mark_dropped(packet.lineage,
                                               "ip-bad-length")
            return
        if total_length < len(packet.data):
            packet.data = packet.data[:total_length]
        if ip_hdr.flags_fragment & (IP_MF | 0x1FFF):
            # A fragment: hand to the reassembler; continue only when a
            # datagram completes.
            self.stats.fragments_received += 1
            whole = self.reassembler.input_fragment(packet)
            if whole is None:
                return
            packet = whole
            ip_hdr = packet.ip_header
        handler = self._protocols.get(ip_hdr.protocol)
        if handler is None:
            self.stats.not_tcp += 1
            return
        if ip_hdr.dst != self.host.address.ip:
            return  # not for us (no forwarding on this host)
        self.stats.delivered += 1
        yield from handler(packet)
