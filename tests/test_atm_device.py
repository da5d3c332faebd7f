"""Tests for the ATM subsystem: AAL3/4, adapter timing, FIFO behaviour."""

import bisect
import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from repro.atm.aal import (
    CELL_PAYLOAD,
    CELL_SIZE,
    CPCS_OVERHEAD,
    Aal34Codec,
    ReassemblyError,
    cells_needed,
)
from repro.atm.adapter import AtmLink, ForeTca100, tx_schedule
from repro.core.experiment import SERVER_PORT, payload_pattern
from repro.core.testbed import build_atm_pair
from repro.hw.costs import decstation_5000_200
from repro.kern.host import Host
from repro.net.headers import IPHeader, TCPHeader
from repro.net.packet import Packet, build_tcp_packet
from repro.sim import Priority, Simulator, us


class TestCellMath:
    def test_constants(self):
        assert CELL_SIZE == 53
        assert CELL_PAYLOAD == 44
        assert CPCS_OVERHEAD == 8

    def test_cells_needed_examples(self):
        # 4-byte payload + 40 header = 44 + 8 CPCS = 52 -> 2 cells.
        assert cells_needed(44) == 2
        assert cells_needed(36) == 1
        assert cells_needed(0) == 1
        # 8 KB segment: (4136+8)/44 -> 95 cells.
        assert cells_needed(4136) == 95

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cells_needed(-1)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_cells_cover_payload(self, n):
        assert cells_needed(n) * CELL_PAYLOAD >= n + CPCS_OVERHEAD


class TestAal34Codec:
    @given(st.binary(min_size=0, max_size=600))
    def test_segment_reassemble_roundtrip(self, pdu):
        cells = Aal34Codec.segment(pdu)
        assert len(cells) == cells_needed(len(pdu))
        assert Aal34Codec.reassemble(cells) == pdu

    def test_crc_failure_detected(self):
        cells = Aal34Codec.segment(b"hello world, this is a datagram")
        cells[0].crc ^= 1
        with pytest.raises(ReassemblyError,
                           match=r"^CRC-10 failure in cell 0$"):
            Aal34Codec.reassemble(cells)

    def test_payload_corruption_detected(self):
        cells = Aal34Codec.segment(bytes(range(100)))
        buf = bytearray(cells[1].payload)
        buf[3] ^= 0x10
        cells[1].payload = bytes(buf)
        with pytest.raises(ReassemblyError,
                           match=r"^CRC-10 failure in cell 1$"):
            Aal34Codec.reassemble(cells)

    def test_missing_cell_detected(self):
        cells = Aal34Codec.segment(bytes(200))
        with pytest.raises(ReassemblyError,
                           match=r"^cell sequence error at 0 \(got 1\)$"):
            Aal34Codec.reassemble(cells[:-1] and cells[1:])

    def test_reordered_cells_detected(self):
        cells = Aal34Codec.segment(bytes(200))
        cells[0], cells[1] = cells[1], cells[0]
        with pytest.raises(ReassemblyError,
                           match=r"^cell sequence error at 0 \(got 1\)$"):
            Aal34Codec.reassemble(cells)

    def test_missing_eom_detected(self):
        cells = Aal34Codec.segment(bytes(100))
        cells[-1].last = False
        with pytest.raises(ReassemblyError,
                           match=r"^missing end-of-message cell$"):
            Aal34Codec.reassemble(cells)

    def test_empty_train_rejected(self):
        with pytest.raises(ReassemblyError, match=r"^no cells$"):
            Aal34Codec.reassemble([])


def make_atm_pair(costs=None):
    sim = Simulator()
    a = Host(sim, "a", "10.0.0.1", costs=costs)
    b = Host(sim, "b", "10.0.0.2")
    link = AtmLink(sim)
    link.attach(ForeTca100(a))
    link.attach(ForeTca100(b))
    return sim, a, b, link


def make_packet(payload_len):
    ip = IPHeader(src=1, dst=0x0A000002, total_length=0)
    tcp = TCPHeader(src_port=1, dst_port=2, seq=0, ack=0)
    return build_tcp_packet(ip, tcp, payload_pattern(payload_len))


class TestAdapterTiming:
    def test_cell_time_matches_taxi_rate(self):
        sim = Simulator()
        link = AtmLink(sim, bandwidth_bps=140_000_000)
        assert link.cell_time_ns == pytest.approx(3029, abs=2)

    def test_wire_overlaps_driver_copy(self):
        """Transmission begins with the first cell: the last cell arrives
        roughly one cell-time after the driver finishes writing, not a
        full wire-serialization later."""
        sim, a, b, link = make_atm_pair()
        packet = make_packet(4000)

        delivered = {}
        orig_deliver = b.interface.deliver

        def spy(pdu, n_cells, fault, data_bearing):
            delivered["at"] = sim.now
            delivered["cells"] = n_cells
            orig_deliver(pdu, n_cells, fault, data_bearing)

        b.interface.deliver = spy

        def send():
            yield from a.interface.output(packet, Priority.KERNEL, True)
            delivered["copy_done"] = sim.now

        sim.process(send())
        sim.run()
        n = delivered["cells"]
        copy_done = delivered["copy_done"]
        arrival = delivered["at"]
        # Arrival trails the copy completion by much less than the full
        # n * cell_time serialization (the overlap the paper relies on).
        assert arrival > copy_done
        assert arrival - copy_done < n * link.cell_time_ns * 0.5

    def test_tx_fifo_never_exceeds_capacity(self):
        sim, a, b, link = make_atm_pair()

        def send():
            yield from a.interface.output(make_packet(8000 - 40),
                                          Priority.KERNEL, True)

        sim.process(send())
        sim.run()
        assert a.interface.stats.max_tx_fifo_cells <= ForeTca100.TX_FIFO_CELLS

    def test_back_to_back_packets_serialize_on_wire(self):
        sim, a, b, link = make_atm_pair()
        arrivals = []
        orig = b.interface.deliver

        def spy(pdu, n, fault, db):
            arrivals.append(sim.now)
            orig(pdu, n, fault, db)

        b.interface.deliver = spy

        def send():
            yield from a.interface.output(make_packet(4000),
                                          Priority.KERNEL, True)
            yield from a.interface.output(make_packet(4000),
                                          Priority.KERNEL, True)

        sim.process(send())
        sim.run()
        assert len(arrivals) == 2
        n = cells_needed(4040)
        # The second packet's last cell cannot arrive earlier than one
        # wire-serialization after the first packet's.
        assert arrivals[1] - arrivals[0] >= n * link.cell_time_ns * 0.9

    def test_rx_fifo_overflow_drops_packet(self):
        sim, a, b, link = make_atm_pair()
        # Stop the receive interrupt from draining by keeping the CPU
        # saturated with higher-priority work.
        b.cpu.run(10_000_000_000, Priority.HARD_INTR, "hog")

        def send():
            # 292-cell RX FIFO: four 95-cell packets overflow it.
            for _ in range(4):
                yield from a.interface.output(make_packet(4000),
                                              Priority.KERNEL, True)

        sim.process(send())
        sim.run()
        assert b.interface.stats.rx_fifo_overflows >= 1

    def test_rx_overflow_records_at_most_the_fifo_limit(self):
        sim, a, b, link = make_atm_pair()
        # Clamp the RX FIFO the way the chaos layer's "rx" clamp does.
        b.interface.rx_fifo_limit = 50

        def send():
            yield from a.interface.output(make_packet(4000),
                                          Priority.KERNEL, True)

        sim.process(send())
        sim.run()
        stats = b.interface.stats
        assert stats.rx_fifo_overflows == 1
        assert stats.max_rx_fifo_cells <= b.interface.rx_fifo_limit
        assert stats.max_rx_fifo_cells == 50  # the FIFO filled

    def test_stats_count_cells(self):
        sim, a, b, link = make_atm_pair()

        def send():
            yield from a.interface.output(make_packet(200),
                                          Priority.KERNEL, True)

        sim.process(send())
        sim.run()
        assert a.interface.stats.packets_sent == 1
        assert a.interface.stats.cells_sent == cells_needed(240)
        assert b.interface.stats.packets_received == 1


def reference_tx_schedule(n, t0, wire_gate, per_cell_write_ns,
                           cell_time_ns, fifo=ForeTca100.TX_FIFO_CELLS):
    """The driver's TX FIFO schedule, replayed cell by cell: the
    write/drain loop that ``tx_schedule`` replaces.  At every write it
    counts the cells already gone afresh, by bisecting the departure
    times (each cell leaves after the one before it).  Returns
    ``(driver busy ns, first cell's departure, last cell's departure,
    most cells in the FIFO)``."""
    write_done = [0] * (n + 1)
    depart = [0] * (n + 1)
    prev_depart = wire_gate
    max_occupancy = 0
    for k in range(1, n + 1):
        earliest = (write_done[k - 1] if k > 1 else t0) + per_cell_write_ns
        if k > fifo:
            earliest = max(earliest, depart[k - fifo])
        write_done[k] = earliest
        depart[k] = max(earliest, prev_depart) + cell_time_ns
        prev_depart = depart[k]
        in_fifo = k - (bisect.bisect_right(depart, write_done[k], 1, k) - 1)
        max_occupancy = max(max_occupancy, in_fifo)
    return write_done[n] - t0, depart[1], depart[n], max_occupancy


class TestTxFifoSchedule:
    """ForeTca100.output and tx_schedule against the per-cell reference
    schedule, for random and edge-case cell counts, copy rates and wire
    gates."""

    CASES = 150

    @pytest.mark.parametrize("busy_wire", [False, True],
                             ids=["idle-wire", "busy-wire"])
    def test_matches_quadratic_reference(self, busy_wire):
        rng = random.Random(1994 + busy_wire)
        stalled = filled = 0
        for case in range(self.CASES):
            n = rng.randint(1, 260)
            costs = dataclasses.replace(
                decstation_5000_200(),
                atm_tx_fixed_us=rng.uniform(0.0, 30.0),
                atm_tx_per_cell_us=rng.uniform(0.05, 5.0),
                atm_tx_per_mbuf_us=rng.uniform(0.0, 5.0))
            mbufs = rng.randint(1, 8)
            sim, a, b, link = make_atm_pair(costs)
            gate = rng.randint(1, 2 * n * link.cell_time_ns) \
                if busy_wire else 0
            a.interface._wire_free_at = gate
            arrivals = []
            b.interface.deliver = lambda *_args: arrivals.append(sim.now)
            copied = []

            def send():
                yield from a.interface.output(
                    Packet(bytes(n * CELL_PAYLOAD - CPCS_OVERHEAD),
                           mbuf_count=mbufs),
                    Priority.KERNEL, True)
                copied.append(sim.now)

            sim.process(send())
            sim.run()

            base_ns = (us(costs.atm_tx_fixed_us)
                       + us(costs.atm_tx_per_cell_us) * n
                       + us(costs.atm_tx_per_mbuf_us) * mbufs)
            busy_ns, _, last_depart, occupancy = reference_tx_schedule(
                n, 0, gate, max(1, base_ns // n), link.cell_time_ns)
            stats = a.interface.stats
            where = f"case {case}: {n} cells, gate {gate}"
            assert stats.cells_sent == n, where
            assert stats.max_tx_fifo_cells == occupancy, where
            assert stats.tx_stall_ns == max(0, busy_ns - base_ns), where
            assert copied == [busy_ns], where
            assert arrivals == [max(last_depart, busy_ns + link.cell_time_ns)
                                + link.prop_delay_ns], where
            stalled += stats.tx_stall_ns > 0
            filled += occupancy == ForeTca100.TX_FIFO_CELLS
        # The cases reach both a full FIFO and a stalled copy loop.
        assert stalled and filled

    def test_closed_form_matches_reference_at_the_edges(self):
        """tx_schedule against the per-cell loop around every edge of
        the closed form: cell counts around the FIFO depth, write times
        around the cell time, and wire gates from behind the copy's
        start to past the instant the FIFO fills."""
        c = AtmLink(Simulator()).cell_time_ns
        t0 = 1_000_000
        full_and_stalled = set()
        for fifo in (1, 8, 16, 36, 292):
            counts = {1, fifo - 1, fifo, fifo + 1, 2 * fifo, 3 * fifo + 5}
            for n in sorted(counts - {0}):
                for w in (1, c // 4, c - 1, c, c + 1, 4 * c):
                    # The wire opens behind the copy's start, with it,
                    # a few ns after, part-way through filling the FIFO,
                    # and only once write fifo + 1 waits for cell 1.
                    for gate in (t0 - 5 * c, t0, t0 + 3, t0 + 5 * c + 1,
                                 t0 + (fifo + 2) * w):
                        args = (n, t0, gate, w, c, fifo)
                        got = tx_schedule(*args)
                        assert got == reference_tx_schedule(*args), args
                        if got[3] == fifo and got[0] > n * w:
                            full_and_stalled.add(w < c)
        # Both regimes reach a full FIFO that stalls the copy loop.
        assert full_and_stalled == {True, False}


class TestEndToEndAtm:
    def test_link_requires_two_ends(self):
        sim = Simulator()
        host = Host(sim, "x", "10.0.0.1")
        link = AtmLink(sim)
        adapter = ForeTca100(host)
        link.attach(adapter)
        with pytest.raises(RuntimeError):
            link.peer_of(adapter)

    def test_third_attach_rejected(self):
        sim, a, b, link = make_atm_pair()
        c = Host(sim, "c", "10.0.0.3")
        with pytest.raises(RuntimeError):
            link.attach(ForeTca100(c))

    def test_mtu_and_mss(self):
        tb = build_atm_pair()
        assert tb.client.interface.mtu == 9188
        assert tb.client.interface.suggested_mss == 4096
