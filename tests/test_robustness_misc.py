"""Robustness odds and ends across the kernel and stack."""

import pytest

from repro.core.experiment import SERVER_PORT, payload_pattern
from repro.core.testbed import build_atm_pair
from repro.faults.injector import FaultInjector
from repro.checksum.crc import crc32
from repro.kern.host import Host
from repro.sim import Priority, Simulator
from repro.sim.engine import us
from repro.socket.socket import SocketError


class TestHostMisc:
    def test_charge_without_span_records_nothing(self):
        sim = Simulator()
        host = Host(sim, "h", "10.0.0.9")
        proc = host.spawn(host.charge(us(10), Priority.KERNEL, "x"))
        sim.run_until_triggered(proc)
        assert host.tracer.names() == []

    def test_host_repr(self):
        sim = Simulator()
        host = Host(sim, "box", "10.1.2.3")
        assert "box" in repr(host) and "10.1.2.3" in repr(host)


class TestSocketMisuse:
    def test_recv_before_connect(self):
        tb = build_atm_pair()
        sock = tb.client.socket()
        with pytest.raises(SocketError):
            next(sock.recv(10))

    def test_send_after_own_close(self):
        tb = build_atm_pair()
        listener = tb.server.socket()
        listener.listen(SERVER_PORT)

        def server(listener):
            yield from listener.accept()

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            yield from sock.close()
            try:
                yield from sock.send(b"late")
            except SocketError as exc:
                return str(exc)
            return "sent?!"

        tb.server.spawn(server(listener))
        done = tb.client.spawn(client())
        assert "close" in tb.sim.run_until_triggered(done)

    def test_listen_twice_rejected(self):
        tb = build_atm_pair()
        sock = tb.server.socket()
        sock.listen(SERVER_PORT)
        with pytest.raises(SocketError):
            sock.listen(SERVER_PORT + 1)


class TestEthernetFcsAliasing:
    def test_multi_bit_bursts_usually_caught(self):
        """CRC-32 catches all the burst patterns we can throw at it in a
        small sample — the behaviour the paper's CRC-vs-checksum
        comparison assumes."""
        inj = FaultInjector(seed=21, p_link=1.0, bits_per_fault=4)
        frame = payload_pattern(800)
        caught = 0
        for _ in range(30):
            _, fault = inj.apply_link(frame, frame_check=crc32)
            caught += fault.detected_by_link_check
        assert caught == 30


class TestPcbPopulationAblation:
    def test_cache_benefit_grows_with_population(self):
        """§3: 'Even if there were many connections, a hash table
        implementation of PCBs would yield similar results' — i.e. the
        *cache's* benefit depends on the list population, the hash
        table's does not."""
        from repro.hw import decstation_5000_200
        from repro.kern.config import PcbLookup
        from repro.tcp.pcb import PCB, PCBTable

        costs = decstation_5000_200()

        def miss_cost(population, mode):
            table = PCBTable(costs, mode=mode, cache_enabled=False)
            target = PCB(local_ip=1, local_port=9, remote_ip=2,
                         remote_port=9)
            table.insert(target)
            for i in range(population - 1):
                table.insert(PCB(local_ip=1, local_port=100 + i,
                                 remote_ip=2, remote_port=9))
            _, cost, _ = table.lookup(1, 9, 2, 9)
            return cost

        list_small = miss_cost(10, PcbLookup.LIST)
        list_big = miss_cost(500, PcbLookup.LIST)
        hash_small = miss_cost(10, PcbLookup.HASH)
        hash_big = miss_cost(500, PcbLookup.HASH)
        assert list_big > 10 * list_small  # the list decays badly
        assert hash_big == hash_small      # the hash table does not
