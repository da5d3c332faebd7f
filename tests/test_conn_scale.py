"""Many connections at once: TIME_WAIT drain and the N-connection runner.

Dozens of connections closing together must all expire out of
TIME_WAIT and leave the client's PCB table holding only the daemon
entries; the closed-loop workload runner
(``repro.core.workloads.run_connection_scale``) must finish every
connection, without a retransmit, on both PCB demultiplexing kernels.
"""

import pytest

from repro.core.experiment import SERVER_PORT
from repro.core.testbed import build_atm_pair
from repro.kern.config import KernelConfig, PcbLookup


class TestTimeWaitAtScale:
    def test_many_time_waits_expire_and_drain(self):
        """Dozens of client connections close together: every 2MSL
        expiry fires, all connections reach CLOSED, and the client's
        PCB table drains back to the daemon entries."""
        from repro.tcp.states import TCPState

        tb = build_atm_pair()
        count = 40
        finished = [0]
        done = tb.sim.event(name="all-closed")

        def server(listener):
            for _ in range(count):
                child = yield from listener.accept()
                tb.server.spawn(drain(child), name="drain")

        def drain(child):
            yield from child.recv(1, exact=True)  # EOF
            yield from child.close()

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            yield from sock.close()
            finished[0] += 1
            if finished[0] == count:
                done.succeed(None)
            return sock

        listener = tb.server.socket()
        listener.listen(SERVER_PORT)
        tb.server.spawn(server(listener), name="acceptor")
        socks = [tb.client.spawn(client(), name=f"closer-{i}")
                 for i in range(count)]
        tb.sim.run_until_triggered(done)
        tb.sim.run()  # drain TIME_WAIT (2MSL) and stray timers
        for proc in socks:
            assert proc.value.conn.state is TCPState.CLOSED
        assert len(tb.client.tcp.pcbs) == tb.client.config.daemon_pcbs
        assert tb.client.tcp.connections == []


class TestConnScaleRunner:
    @pytest.mark.parametrize("pcb_lookup", [PcbLookup.LIST, PcbLookup.HASH])
    def test_hundred_connections_complete(self, pcb_lookup):
        from repro.core.workloads import run_connection_scale

        result = run_connection_scale(
            100, rounds=2, config=KernelConfig(pcb_lookup=pcb_lookup))
        assert result.completed == result.connections == 100
        assert result.retransmits == 0
        assert result.events_executed > 0
        assert result.sim_duration_us > 0
        # Every connection moved its RPC bytes both ways.
        assert result.segments_received >= 100 * 2 * 2

    def test_rejects_bad_window(self):
        from repro.core.workloads import run_connection_scale

        with pytest.raises(ValueError):
            run_connection_scale(2, window=0)
