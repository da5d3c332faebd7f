"""The LANCE Ethernet interface: the paper's Table 1 baseline.

Modelled after the DECstation 5000/200's on-board LANCE: a 10 Mb/s
half-duplex link, MTU 1500, with the driver copying each frame between
mbufs and the adapter's buffer memory and taking an interrupt per
received frame.  The fixed per-frame driver/adapter costs are what give
Ethernet its much higher small-packet latency in Table 1; the 10 Mb/s
line rate dominates at large sizes.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.checksum.crc import crc32
from repro.net.packet import Packet
from repro.sim.cpu import Priority
from repro.sim.engine import us
from repro.sim.resources import Semaphore

__all__ = ["EthernetLink", "LanceEthernet", "EthernetStats"]

#: Header (14) + FCS (4) bytes added to each frame.
FRAME_OVERHEAD = 18
#: Preamble (8) + inter-frame gap (12) in byte times.
WIRE_OVERHEAD = 20
#: Minimum frame (without preamble/IFG).
MIN_FRAME = 64


class EthernetStats:
    __slots__ = ("frames_sent", "frames_received", "bytes_sent",
                 "bytes_received", "fcs_errors", "rx_overruns")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


class EthernetLink:
    """A private 10 Mb/s Ethernet segment between two hosts."""

    def __init__(self, sim, bandwidth_bps: int = 10_000_000,
                 prop_delay_ns: int = 1000):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay_ns = prop_delay_ns
        self.byte_time_ns = int(round(8 * 1e9 / bandwidth_bps))
        self.fault_injector = None
        #: Chaos impairment layer (repro.chaos), duck-typed; None keeps
        #: the wire path byte-identical to the seed.
        self.impairments = None
        self._ends: List["LanceEthernet"] = []
        #: Shared medium: one frame at a time.
        self._medium_free_at = 0

    def attach(self, adapter: "LanceEthernet") -> None:
        if len(self._ends) >= 2:
            raise RuntimeError("Ethernet link already has two ends")
        self._ends.append(adapter)
        adapter.link = self

    def peer_of(self, adapter: "LanceEthernet") -> "LanceEthernet":
        if len(self._ends) != 2:
            raise RuntimeError("Ethernet link is not fully connected")
        return self._ends[1] if self._ends[0] is adapter else self._ends[0]

    def frame_wire_time_ns(self, payload_len: int) -> int:
        """Time to clock one frame (with padding/preamble/IFG) out."""
        frame = max(payload_len + FRAME_OVERHEAD, MIN_FRAME)
        return (frame + WIRE_OVERHEAD) * self.byte_time_ns

    def reserve_medium(self, earliest_ns: int, wire_time_ns: int) -> int:
        """Claim the shared medium; returns the transmit start time."""
        start = max(earliest_ns, self._medium_free_at)
        self._medium_free_at = start + wire_time_ns
        return start


class LanceEthernet:
    """One LANCE interface attached to a host."""

    mtu = 1500

    #: Receive descriptor ring depth (the LANCE's RX ring).  Frames
    #: arriving while every descriptor holds an undrained frame are
    #: dropped with an overrun (MISS/ERR_FRAM).
    RX_RING_FRAMES = 32

    def __init__(self, host):
        self.host = host
        self.link: Optional[EthernetLink] = None
        self.stats = EthernetStats()
        #: Effective ring depth; clamped by the chaos layer to force
        #: overruns.  At the default the ring never fills on a
        #: two-host segment (the 10 Mb/s wire is far slower than the
        #: driver's drain).
        self.rx_ring_limit = self.RX_RING_FRAMES
        self._rx_ring_frames = 0
        self._tx_lock = Semaphore(host.sim, value=1, name="ether-tx")
        #: The LANCE has a single transmit buffer: the driver cannot
        #: copy the next frame until the transmit-done interrupt for the
        #: previous one.  This serialization (copy, transmit, interrupt,
        #: copy, ...) is what keeps multi-frame transfers from
        #: pipelining, and is a large part of Ethernet's Table 1
        #: disadvantage at 4000/8000 bytes.
        self._tx_done_at = 0
        host.attach_interface(self)

    @property
    def suggested_mss(self) -> int:
        return self.host.config.mss_ethernet

    # ------------------------------------------------------------------
    # Transmit
    # ------------------------------------------------------------------
    def output(self, packet: Packet, priority: int = Priority.KERNEL,
               data_bearing: bool = True) -> Generator:
        if self.link is None:
            raise RuntimeError("Ethernet interface not attached to a link")
        ev = self._tx_lock.acquire(wait=True)
        if ev is not None:
            yield ev
        try:
            yield from self._transmit(packet, priority, data_bearing)
        finally:
            self._tx_lock.release()

    def _transmit(self, packet: Packet, priority: int,
                  data_bearing: bool) -> Generator:
        host = self.host
        costs = host.costs
        link = self.link
        length = len(packet.data)
        span = "tx.ether" if data_bearing else "tx.ack.ether"

        # Wait for the transmit-done interrupt of the previous frame
        # (single transmit buffer); the CPU is free meanwhile.
        if self._tx_done_at > host.sim.now:
            yield host.sim.timeout(self._tx_done_at - host.sim.now)

        cost = us(costs.ether_tx_fixed_us
                  + costs.ether_tx_per_byte_us * length)
        yield from host.charge(cost, priority, "ether tx", span=span,
                               lineage=packet.lineage)

        wire_time = link.frame_wire_time_ns(length)
        start = link.reserve_medium(host.sim.now, wire_time)
        arrival = start + wire_time + link.prop_delay_ns
        self._tx_done_at = start + wire_time
        if packet.lineage is not None:
            packet.lineage.add(
                "wire.ether" if data_bearing else "wire.ack.ether",
                "wire", start, arrival, (arrival - start) / 1000.0)

        self.stats.frames_sent += 1
        self.stats.bytes_sent += length

        wire_bytes = packet.data
        wire_fault = None
        if link.fault_injector is not None:
            wire_bytes, wire_fault = link.fault_injector.apply_link(
                wire_bytes, frame_check=crc32)
        peer = link.peer_of(self)
        delay_ns = max(0, arrival - host.sim.now)
        impairments = link.impairments
        if impairments is None:
            host.sim.schedule(delay_ns, peer.deliver,
                              wire_bytes, wire_fault, data_bearing)
        else:
            impairments.transmit_ether(self, peer, delay_ns, wire_bytes,
                                       wire_fault, data_bearing)

    # ------------------------------------------------------------------
    # Receive
    # ------------------------------------------------------------------
    def deliver(self, frame_payload: bytes, wire_fault,
                data_bearing: bool) -> None:
        if self._rx_ring_frames >= self.rx_ring_limit:
            # RX ring overrun: no free descriptor, the LANCE drops the
            # frame.  TCP's retransmission timer recovers.
            self.stats.rx_overruns += 1
            if self.host.lineage is not None:
                self.host.lineage.mark_dropped_pdu(frame_payload,
                                                   "rx-ring-overrun")
            return
        self._rx_ring_frames += 1
        self.host.sim.process(
            self._rx_interrupt(frame_payload, wire_fault, data_bearing),
            name=f"{self.host.name}:ether-rx",
        )

    def _rx_interrupt(self, frame_payload: bytes, wire_fault,
                      data_bearing: bool) -> Generator:
        host = self.host
        costs = host.costs
        arrived_at = host.sim.now
        if host.metrics is not None:
            host.metrics.inc("ether.interrupts")
        cpu = host.cpu
        job = cpu.run(us(costs.intr_overhead_us), Priority.HARD_INTR,
                      "ether intr", wait=True)
        if job is not None:
            yield job
        cost = us(costs.ether_rx_fixed_us
                  + costs.ether_rx_per_byte_us * len(frame_payload))
        job = cpu.run(cost, Priority.HARD_INTR, "ether rx copy", wait=True)
        if job is not None:
            yield job
        # Frame copied out of the adapter: the ring descriptor is free.
        self._rx_ring_frames -= 1
        lin = host.lineage
        seg_rec = None
        if lin is not None:
            seg_rec = lin.match_pdu(frame_payload)
            if seg_rec is not None:
                seg_rec.rx_host = host.name
        host.tracer.record_value(
            "rx.ether" if data_bearing else "rx.ack.ether", arrived_at,
            seg_rec)
        self.stats.frames_received += 1
        self.stats.bytes_received += len(frame_payload)
        if wire_fault is not None and wire_fault.detected_by_link_check:
            # The Ethernet CRC caught it: frame dropped by the adapter.
            self.stats.fcs_errors += 1
            if lin is not None:
                lin.mark_dropped(seg_rec, "fcs")
            return
        # ENOBUFS on the mbuf copy: the driver drops the frame (IF_DROP).
        if not host.pool.admit(len(frame_payload)):
            if lin is not None:
                lin.mark_dropped(seg_rec, "enobufs")
            return
        packet = Packet(frame_payload)
        packet.lineage = seg_rec
        packet.last_cell_arrival_ns = arrived_at
        if wire_fault is not None:
            packet.corrupted_by = wire_fault.source
        # Controller-stage errors: introduced while copying the frame
        # into mbufs, *after* the FCS check — the paper's error source
        # (2), which only the TCP checksum can see.
        injector = self.link.fault_injector
        if injector is not None:
            packet.data, tag = injector.apply_controller(packet.data)
            if tag is not None:
                packet.corrupted_by = tag
        host.softnet.schednetisr(packet)
