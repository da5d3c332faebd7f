"""The host-wide TCP layer: demultiplexing, listeners, statistics."""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Optional

from repro.kern.config import ChecksumMode
from repro.net.headers import (
    HeaderError,
    IP_HEADER_LEN,
    TCPFlags,
    TCPHeader,
)
from repro.net.packet import Packet, verify_tcp_checksum
from repro.sim.cpu import Priority
from repro.sim.engine import us
from repro.tcp.conn import ConnectionStats, TCPConnection
from repro.tcp.pcb import PCB, PCBTable
from repro.tcp.states import TCPState

__all__ = ["TCPLayer", "TCPLayerStats"]


class TCPLayerStats:
    """Host-wide TCP counters.

    ``bad_segments`` counts only segments no connection owned; each
    connection counts its own in its
    :class:`~repro.tcp.conn.ConnectionStats`.
    """

    __slots__ = ("segs_received", "cksum_errors", "no_pcb_drops",
                 "bad_segments", "cksum_verified", "cksum_skipped_off",
                 "cksum_precomputed")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


class TCPLayer:
    """Owns the PCB table and routes segments to connections."""

    ISS_INCREMENT = 64_000

    def __init__(self, host):
        self.host = host
        self.pcbs = PCBTable(
            host.costs,
            mode=host.config.pcb_lookup,
            cache_enabled=host.config.header_prediction,
        )
        self.stats = TCPLayerStats()
        #: Insertion-ordered identity set: append and close are O(1)
        #: (a plain list's ``remove`` made thousand-connection
        #: teardown quadratic).  ``connections`` presents the list view.
        self._connections: Dict[TCPConnection, None] = {}
        #: Every ConnectionStats field of the closed connections, each
        #: folded in once at close (see :meth:`connection_stats`).
        self.closed_stats = ConnectionStats()
        self._next_port = itertools.count(1024)
        self._iss = 1000
        self._populate_daemon_pcbs()

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _populate_daemon_pcbs(self) -> None:
        """Background PCBs for the 'standard ULTRIX daemons' (§3)."""
        for i in range(self.host.config.daemon_pcbs):
            self.pcbs.insert(PCB(local_ip=self.host.address.ip,
                                 local_port=512 + i))

    def next_iss(self) -> int:
        self._iss = (self._iss + self.ISS_INCREMENT) % (1 << 32)
        return self._iss

    def allocate_port(self) -> int:
        for _ in range(65_000):
            port = 1024 + (next(self._next_port) % 64_000)
            if not self.pcbs.local_port_bound(port):
                return port
        raise RuntimeError("out of ephemeral ports")

    @property
    def connections(self) -> List[TCPConnection]:
        """Live connections, oldest first."""
        return list(self._connections)

    def connection_stats(self) -> ConnectionStats:
        """Every connection's counts, closed and live, summed."""
        total = ConnectionStats()
        total.add(self.closed_stats)
        for conn in self._connections:
            total.add(conn.stats)
        return total

    # ------------------------------------------------------------------
    # Connection management (called by the socket layer)
    # ------------------------------------------------------------------
    def create_connection(self, socket, local_port: Optional[int],
                          remote_ip: int = 0,
                          remote_port: int = 0) -> TCPConnection:
        port = local_port if local_port else self.allocate_port()
        pcb = PCB(local_ip=self.host.address.ip, local_port=port,
                  remote_ip=remote_ip, remote_port=remote_port)
        self.pcbs.insert(pcb)
        conn = TCPConnection(self.host, socket, pcb, iss=self.next_iss())
        self._connections[conn] = None
        return conn

    def connection_closed(self, conn: TCPConnection) -> None:
        # Closing a socket whose connect was refused or reset runs
        # _close_now a second time: unlink and fold only once, so a
        # closed connection's counts stay in connection_stats().
        if conn not in self._connections:
            return
        del self._connections[conn]
        self.closed_stats.add(conn.stats)
        self.pcbs.remove(conn.pcb)

    # ------------------------------------------------------------------
    # Input path
    # ------------------------------------------------------------------
    def input(self, packet: Packet,
              priority: int = Priority.SOFT_INTR) -> Generator:
        """tcp_input entry: demux, checksum, dispatch."""
        self.stats.segs_received += 1
        if self.host.packet_log is not None:
            self.host.packet_log.record(self.host.name, "rx", packet,
                                        self.host.sim.now / 1000.0)
        try:
            ip_hdr = packet.ip_header
            tcp_hdr = packet.tcp_header
            payload = packet.payload
        except HeaderError:
            # Corrupted beyond parsing (bad data offset, truncation —
            # possible under fault injection or hostile mutation):
            # drop, and account for it as a malformed segment rather
            # than a checksum failure.
            self.stats.bad_segments += 1
            return

        pcb, lookup_cost, _cache_hit = self.pcbs.lookup(
            local_ip=ip_hdr.dst, local_port=tcp_hdr.dst_port,
            remote_ip=ip_hdr.src, remote_port=tcp_hdr.src_port,
        )
        span = ("rx.tcp.segment" if payload else "rx.ack.tcp.segment")
        yield from self.host.charge(lookup_cost, priority, "pcb lookup",
                                    span=span, lineage=packet.lineage)

        conn = pcb.connection if pcb is not None else None

        # ----- checksum verification ------------------------------------
        ok = yield from self._verify_checksum(packet, tcp_hdr, payload,
                                              conn, priority)
        if not ok:
            self.stats.cksum_errors += 1
            if conn is not None:
                conn.stats.cksum_errors += 1
            if self.host.lineage is not None:
                self.host.lineage.mark_dropped(packet.lineage, "cksum")
            return  # silently dropped; the retransmission timer recovers

        if pcb is None or (not pcb.is_listener and pcb.connection is None):
            # No one listening: answer with RST (connection refused),
            # unless the offender is itself an RST.
            self.stats.no_pcb_drops += 1
            if not tcp_hdr.flags & TCPFlags.RST:
                yield from self._send_rst(ip_hdr, tcp_hdr, len(payload),
                                          priority)
            return

        if pcb.is_listener:
            yield from self._input_listener(pcb, packet, tcp_hdr, priority)
            return
        yield from conn.input(packet, ip_hdr, tcp_hdr, payload, priority)

    def _send_rst(self, ip_hdr, tcp_hdr: TCPHeader, payload_len: int,
                  priority: int) -> Generator:
        """tcp_respond with RST for a segment that found no socket."""
        from repro.net.headers import IPHeader
        from repro.net.packet import build_tcp_packet

        costs = self.host.costs
        yield from self.host.charge(
            us(costs.tcp_output_fixed_us), priority, "tcp rst")
        if tcp_hdr.flags & TCPFlags.ACK:
            seq, ack, flags = tcp_hdr.ack, 0, TCPFlags.RST
        else:
            advance = payload_len + (1 if tcp_hdr.flags & TCPFlags.SYN
                                     else 0)
            seq = 0
            ack = (tcp_hdr.seq + advance) & 0xFFFFFFFF
            flags = TCPFlags.RST | TCPFlags.ACK
        rst_ip = IPHeader(src=ip_hdr.dst, dst=ip_hdr.src, total_length=0,
                          identification=self.host.ip.next_ident())
        rst_tcp = TCPHeader(src_port=tcp_hdr.dst_port,
                            dst_port=tcp_hdr.src_port,
                            seq=seq, ack=ack, flags=flags, window=0)
        packet = build_tcp_packet(rst_ip, rst_tcp, b"")
        packet.tx_host = self.host.name
        yield from self.host.ip.output(packet, priority,
                                       data_bearing=False)

    def _verify_checksum(self, packet: Packet, tcp_hdr: TCPHeader,
                         payload: bytes, conn: Optional[TCPConnection],
                         priority: int) -> Generator:
        """Charge and perform TCP checksum verification as configured.

        Returns True if the segment should be accepted.
        """
        costs = self.host.costs
        span = ("rx.tcp.checksum" if payload else "rx.ack.tcp.checksum")
        if (conn is not None and conn.checksum_off
                and tcp_hdr.checksum == 0):
            # Negotiated checksum-off connection: nothing to verify.
            self.stats.cksum_skipped_off += 1
            return True
        if packet.cksum_verified is not None:
            # The driver already folded verification into its copy
            # (integrated receive); the cost was charged there.
            self.stats.cksum_precomputed += 1
            return packet.cksum_verified
        # Checksummed region: the TCP segment plus the 20-byte IP
        # pseudo-header overlay (§2.2.2).
        cksum_bytes = len(packet.data) - IP_HEADER_LEN + 20
        yield from self.host.charge(
            costs.cksum_kernel.ns(cksum_bytes), priority, "tcp cksum",
            span=span, lineage=packet.lineage)
        self.stats.cksum_verified += 1
        return verify_tcp_checksum(packet)

    def _input_listener(self, pcb: PCB, packet: Packet,
                        tcp_hdr: TCPHeader, priority: int) -> Generator:
        flags = tcp_hdr.flags
        if not flags & TCPFlags.SYN or \
                flags & (TCPFlags.ACK | TCPFlags.RST | TCPFlags.FIN):
            # Not a clean fresh SYN: either a segment for a connection
            # this host no longer has, or a hostile SYN|FIN / SYN|RST
            # combination that must never spawn a half-open child.
            # Hostile combos are dropped *silently* — answering one
            # with a RST would both leak listener state to a scanner
            # and refuse a peer whose legitimate SYN was mangled in
            # flight (its own retransmission recovers the handshake).
            if flags & TCPFlags.SYN and \
                    flags & (TCPFlags.RST | TCPFlags.FIN):
                self.stats.bad_segments += 1
                return
            if not flags & TCPFlags.RST:
                yield from self._send_rst(
                    packet.ip_header, tcp_hdr, len(packet.payload),
                    priority)
            return
        listener_socket = pcb.connection.socket if pcb.connection else None
        if listener_socket is None:
            return
        # Create the child socket + connection in SYN_RECEIVED.
        child = listener_socket.spawn_child()
        conn = self.create_connection(
            child, local_port=pcb.local_port,
            remote_ip=packet.ip_header.src, remote_port=tcp_hdr.src_port,
        )
        child.conn = conn
        conn.listener_socket = listener_socket
        yield from conn.passive_open(tcp_hdr, priority)

    # ------------------------------------------------------------------
    # Listener registration
    # ------------------------------------------------------------------
    def create_listener(self, socket, port: int) -> TCPConnection:
        pcb = PCB(local_ip=self.host.address.ip, local_port=port)
        self.pcbs.insert(pcb)
        conn = TCPConnection(self.host, socket, pcb, iss=self.next_iss())
        conn.state = TCPState.LISTEN
        self._connections[conn] = None
        return conn
