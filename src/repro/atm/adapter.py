"""The FORE TCA-100 ATM adapter, its driver, and the fiber link.

Device properties modelled from the paper's description:

* memory-mapped transmit FIFO holding 36 cells and receive FIFO holding
  292 cells;
* the transmit engine starts sending as soon as one complete cell is in
  the FIFO — so wire transmission overlaps the driver's copy loop, and
  (as §4.1.1 explains) the checksum cannot be deferred to the
  kernel-to-device copy;
* the driver and adapter implement AAL3/4 segmentation/reassembly with
  per-cell CRC-10 error detection;
* the adapter interrupts the host at end-of-message; the driver then
  drains the whole cell train through slow uncached TurboChannel reads
  (the dominant term in Table 3's ATM row).

The transmit timing honours FIFO backpressure exactly: the driver's
write of cell *k* stalls until cell *k−36* has left the wire.  With the
calibrated copy rate (≈2.4 µs/cell) against the 140 Mb/s TAXI cell time
(≈3.03 µs), the FIFO gains about one cell in five while the driver
copies: a 95-cell segment (the 4096-byte MSS) peaks at 21 cells and the
copy never stalls — consistent with the paper's measured transmit span.
Only a shallower FIFO, as in the depth ablation, makes the copy wait.

The schedule is two max-plus recurrences, which :func:`tx_schedule`
solves in closed form.  An *n*-cell packet is written from time *t0*,
one cell per *w* ns, into a FIFO of *F* cells; the wire clocks a cell
out in *c* ns and is free from the gate *g* on.  Write *k* ends at
``W[k] = max(W[k-1] + w, D[k-F])`` (the second term only for k > F) and
cell *k* leaves at ``D[k] = max(W[k], D[k-1]) + c``, with ``W[0] = t0``
and ``D[0] = g``.  Cell 1 leaves at ``A + c``, where ``A = max(g, t0 + w)``.

* *w < c: the copy outruns the wire* (every data segment of the
  calibrated model).  From write 2 on, every write ends no later than
  the previous cell's departure, so departures never wait on writes and
  the cells leave back to back: ``D[k] = A + k·c``.  Because c > w, the
  latest FIFO stall dominates the earlier ones:
  ``W[k] = max(t0 + k·w, A + (k-F)·c)``, the second term only for k > F.
  At write *k* the cells with ``D[j] <= W[k]`` have gone,
  ``⌊(W[k] - A)/c⌋`` of them (at most k − 1).  The first term leads
  for a prefix of the writes.  Over that prefix each write adds a cell
  while at most one leaves, so the occupancy never falls; over the rest
  it is exactly F, which the prefix never exceeds.  So the FIFO peaks
  at the last write, n.
* *w >= c: the wire keeps up once the gate opens* (small packets and
  every ACK).  Writes are at least a cell time apart, so
  ``D[k] = max(g + k·c, W[k] + c)``.  Only write F + 1 can wait on the
  wire, for cell 1: ``W[F+1] = max(t0 + (F+1)·w, D[1])``.  After it the
  writes are the bottleneck, so
  ``W[n] = max(t0 + n·w, D[1] + (n-F-1)·w)`` for n > F.  The FIFO
  holds every cell written before cell 1 leaves, at most F of them;
  from then on the wire drains at least as fast as the copy fills.  So
  it peaks at ``min(n, F, ⌈(D[1] - t0)/w⌉ - 1)`` cells.

``tests/test_atm_device.py`` checks it against a cell-by-cell replay of
the recurrences.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from repro.atm.aal import CELL_SIZE, cells_needed
from repro.kern.config import ChecksumMode
from repro.net.packet import Packet, verify_tcp_checksum
from repro.sim.cpu import Priority
from repro.sim.engine import us
from repro.sim.resources import Semaphore

__all__ = ["AtmLink", "ForeTca100", "AtmStats", "tx_schedule"]


class AtmStats:
    """Per-interface counters."""

    __slots__ = ("packets_sent", "packets_received", "cells_sent",
                 "cells_received", "tx_stall_ns", "rx_fifo_overflows",
                 "aal_errors", "max_tx_fifo_cells", "max_rx_fifo_cells")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


class AtmLink:
    """A point-to-point fiber between two TCA-100s (switchless, §1.2)."""

    def __init__(self, sim, bandwidth_bps: int = 140_000_000,
                 prop_delay_ns: int = 500):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay_ns = prop_delay_ns
        #: Time to clock one 53-byte cell onto the fiber.
        self.cell_time_ns = int(round(CELL_SIZE * 8 * 1e9 / bandwidth_bps))
        self.fault_injector = None  # set by fault experiments
        #: Chaos impairment layer (repro.chaos), duck-typed so this
        #: module never imports it; None (one attribute test per
        #: transmit) leaves the wire path byte-identical to the seed.
        self.impairments = None
        self._ends: List["ForeTca100"] = []

    def attach(self, adapter: "ForeTca100") -> None:
        if len(self._ends) >= 2:
            raise RuntimeError("ATM link already has two ends")
        self._ends.append(adapter)
        adapter.link = self

    def peer_of(self, adapter: "ForeTca100") -> "ForeTca100":
        if len(self._ends) != 2:
            raise RuntimeError("ATM link is not fully connected")
        return self._ends[1] if self._ends[0] is adapter else self._ends[0]


def tx_schedule(n: int, t0: int, gate: int, write_ns: int, cell_ns: int,
                fifo: int) -> Tuple[int, int, int, int]:
    """The TX FIFO schedule of an *n*-cell packet, in O(1).

    The driver writes one cell per *write_ns* from *t0* into a FIFO of
    *fifo* cells; the wire is free from *gate* (which may lie before
    *t0*) and clocks a cell out in *cell_ns*.  Returns ``(busy_ns,
    first_depart, last_depart, peak_cells)``: how long the copy loop
    runs (FIFO-full stalls included), when the first and the last cell
    have left the wire, and the most cells the FIFO holds as a write
    completes.  The module docstring derives it.
    """
    w, c = write_ns, cell_ns
    first = max(gate, t0 + w)       # cell 1 starts clocking out
    done = t0 + n * w               # the copy's end if no write waits
    if w < c:
        if n > fifo:
            done = max(done, first + (n - fifo) * c)
        last = first + n * c
        peak = n - min(n - 1, max(0, (done - first) // c))
    else:
        if n > fifo:
            done = max(done, first + c + (n - fifo - 1) * w)
        last = max(gate + n * c, done + c)
        peak = min(n, fifo, (first + c - t0 - 1) // w)
    return done - t0, first + c, last, peak


class ForeTca100:
    """One TCA-100 interface: adapter + ULTRIX driver, attached to a host."""

    TX_FIFO_CELLS = 36
    RX_FIFO_CELLS = 292

    #: Reported to TCP for MSS selection (paper: ATM MTU of 9 KB).
    mtu = 9188

    def __init__(self, host):
        self.host = host
        self.link: Optional[AtmLink] = None
        self.stats = AtmStats()
        self._tx_lock = Semaphore(host.sim, value=1, name="atm-tx")
        #: When the wire finishes clocking out the previous packet.
        self._wire_free_at = 0
        self._rx_fifo_cells = 0
        #: Effective RX FIFO depth; the chaos layer clamps this to force
        #: overruns, the default matches the TCA-100's 292 cells.
        self.rx_fifo_limit = self.RX_FIFO_CELLS
        host.attach_interface(self)

    @property
    def suggested_mss(self) -> int:
        """The driver's configured TCP MSS (page-sized; see DESIGN.md)."""
        return self.host.config.mss_atm

    # ------------------------------------------------------------------
    # Transmit
    # ------------------------------------------------------------------
    def output(self, packet: Packet, priority: int = Priority.KERNEL,
               data_bearing: bool = True) -> Generator:
        """Driver transmit: segment into cells and write to the TX FIFO."""
        if self.link is None:
            raise RuntimeError("ATM interface not attached to a link")
        ev = self._tx_lock.acquire(wait=True)
        if ev is not None:
            yield ev
        try:
            yield from self._transmit(packet, priority, data_bearing)
        finally:
            self._tx_lock.release()

    def _transmit(self, packet: Packet, priority: int,
                  data_bearing: bool) -> Generator:
        sim = self.host.sim
        costs = self.host.costs
        link = self.link
        n = cells_needed(len(packet.data))
        span = "tx.atm" if data_bearing else "tx.ack.atm"

        base_cost_ns = (us(costs.atm_tx_fixed_us)
                        + us(costs.atm_tx_per_cell_us) * n
                        + us(costs.atm_tx_per_mbuf_us) * packet.mbuf_count)
        per_cell_write_ns = max(1, base_cost_ns // n)

        # FIFO-backpressured write/drain schedule.
        driver_busy_ns, first_depart, last_depart, occupancy = tx_schedule(
            n, sim.now, self._wire_free_at, per_cell_write_ns,
            link.cell_time_ns, self.TX_FIFO_CELLS)
        stall_ns = driver_busy_ns - base_cost_ns
        if stall_ns > 0:
            self.stats.tx_stall_ns += stall_ns
        self.stats.max_tx_fifo_cells = max(self.stats.max_tx_fifo_cells,
                                           occupancy)

        # The driver's copy loop (including any FIFO-full spinning) is
        # CPU work in the caller's context; the span ends when the last
        # byte has been handed to the adapter (paper §2.2).
        yield from self.host.charge(driver_busy_ns, priority, "atm tx copy",
                                    span=span, lineage=packet.lineage)

        # Wire delivery: the last cell reaches the peer a propagation
        # delay after it finishes clocking out.  Under CPU preemption the
        # actual copy may have finished later than the analytic schedule;
        # never deliver before the copy is done.
        analytic_last_arrival = last_depart + link.prop_delay_ns
        last_arrival = max(analytic_last_arrival,
                           sim.now + link.cell_time_ns + link.prop_delay_ns)
        self._wire_free_at = last_arrival - link.prop_delay_ns

        if packet.lineage is not None:
            # The wire span: first cell starts clocking out while the
            # driver copy loop is still running — the TCA-100 overlap the
            # paper's timeline figures show.
            wire_start = first_depart - link.cell_time_ns
            packet.lineage.add(
                "wire.atm" if data_bearing else "wire.ack.atm",
                "wire", wire_start, last_arrival,
                (last_arrival - wire_start) / 1000.0)

        self.stats.packets_sent += 1
        self.stats.cells_sent += n
        if stall_ns > 0 and self.host.metrics is not None:
            self.host.metrics.inc("atm.tx_stalls")

        wire_bytes, wire_fault = self._apply_wire_faults(packet)
        peer = link.peer_of(self)
        delay_ns = max(0, last_arrival - sim.now)
        impairments = link.impairments
        if impairments is None:
            sim.schedule(delay_ns, peer.deliver,
                         wire_bytes, n, wire_fault, data_bearing)
        else:
            impairments.transmit_atm(self, peer, delay_ns, wire_bytes, n,
                                     wire_fault, data_bearing)

    def _apply_wire_faults(self, packet: Packet):
        """Link-stage fault injection on the serialized PDU.

        Returns ``(pdu_bytes, outcome)`` where *outcome* is None or a
        :class:`repro.faults.FaultOutcome` describing the corruption and
        whether the AAL3/4 cell CRCs caught it.
        """
        injector = self.link.fault_injector
        if injector is None:
            return packet.data, None
        return injector.apply_link(packet.data)

    # ------------------------------------------------------------------
    # Receive
    # ------------------------------------------------------------------
    def deliver(self, pdu: bytes, n_cells: int, wire_fault,
                data_bearing: bool) -> None:
        """Called at last-cell arrival: cells are in the RX FIFO."""
        self._rx_fifo_cells += n_cells
        # An overflowing train fills the FIFO to its limit, no further.
        self.stats.max_rx_fifo_cells = max(
            self.stats.max_rx_fifo_cells,
            min(self._rx_fifo_cells, self.rx_fifo_limit))
        if self._rx_fifo_cells > self.rx_fifo_limit:
            # FIFO overflow: the tail of this packet was lost.  TCP's
            # retransmission timer recovers.
            self._rx_fifo_cells -= n_cells
            self.stats.rx_fifo_overflows += 1
            if self.host.lineage is not None:
                self.host.lineage.mark_dropped_pdu(pdu, "rx-fifo-overflow")
            return
        self.host.sim.process(
            self._rx_interrupt(pdu, n_cells, wire_fault, data_bearing),
            name=f"{self.host.name}:atm-rx",
        )

    def _rx_interrupt(self, pdu: bytes, n_cells: int, wire_fault,
                      data_bearing: bool) -> Generator:
        host = self.host
        costs = host.costs
        arrived_at = host.sim.now
        if host.metrics is not None:
            host.metrics.inc("atm.interrupts")
        cpu = host.cpu
        job = cpu.run(us(costs.intr_overhead_us), Priority.HARD_INTR,
                      "atm intr", wait=True)
        if job is not None:
            yield job

        integrated = (host.config.checksum_mode is ChecksumMode.INTEGRATED)
        drain_cost = (us(costs.atm_rx_fixed_us)
                      + us(costs.atm_rx_per_cell_us) * n_cells)
        if integrated:
            drain_cost += us(costs.atm_rx_integrated_fixed_us)
            drain_cost += us(
                costs.atm_rx_integrated_extra_per_cell_us) * n_cells
        job = cpu.run(drain_cost, Priority.HARD_INTR, "atm rx drain",
                      wait=True)
        if job is not None:
            yield job
        self._rx_fifo_cells -= n_cells
        self.stats.packets_received += 1
        self.stats.cells_received += n_cells

        lin = host.lineage
        seg_rec = None
        if lin is not None:
            # Re-attach the sender's causal record (shared recorder,
            # keyed by the IP ident); the interrupt+drain span joins it.
            seg_rec = lin.match_pdu(pdu)
            if seg_rec is not None:
                seg_rec.rx_host = host.name
        host.tracer.record_value("rx.atm" if data_bearing else "rx.ack.atm",
                                 arrived_at, seg_rec)

        # AAL3/4 error detection: the adapter checks per-cell CRC-10s
        # and CPCS framing in hardware.  A wire fault the CRCs caught
        # makes reassembly fail and the datagram vanish here; TCP's
        # retransmission timer recovers.
        if wire_fault is not None and wire_fault.detected_by_link_check:
            self.stats.aal_errors += 1
            if lin is not None:
                lin.mark_dropped(seg_rec, "aal")
            return

        # The drained cells are copied into mbufs here; if the pool's
        # cap leaves no room (ENOBUFS on MGET), the driver drops the
        # datagram — BSD's IF_DROP — and TCP's rexmt recovers.
        if not host.pool.admit(len(pdu)):
            if lin is not None:
                lin.mark_dropped(seg_rec, "enobufs")
            return

        packet = Packet(pdu)
        packet.lineage = seg_rec
        packet.last_cell_arrival_ns = arrived_at
        if wire_fault is not None:
            packet.corrupted_by = wire_fault.source

        # Controller-stage errors: introduced while moving cells from
        # adapter memory to host mbufs, *after* the AAL CRC check — the
        # paper's error source (2), which only the TCP checksum can see.
        injector = self.link.fault_injector if self.link else None
        if injector is not None:
            packet.data, tag = injector.apply_controller(packet.data)
            if tag is not None:
                packet.corrupted_by = tag

        if integrated:
            # The driver folded TCP checksum verification into its
            # device->mbuf copy; record the verdict for tcp_input.
            packet.cksum_verified = verify_tcp_checksum(packet)
        self.host.softnet.schednetisr(packet)
