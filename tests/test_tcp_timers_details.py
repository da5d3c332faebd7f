"""Detailed timer and negotiation behaviour tests."""

from repro.core.experiment import SERVER_PORT, payload_pattern
from repro.core.testbed import build_atm_pair
from repro.kern.config import KernelConfig
from repro.tcp.options import TCPOptions
from repro.tcp.states import TCPState


def echo_pair(tb, size, rounds=1, post_run_ns=0):
    listener = tb.server.socket()
    listener.listen(SERVER_PORT)

    def server(listener):
        child = yield from listener.accept()
        for _ in range(rounds):
            data = yield from child.recv(size, exact=True)
            yield from child.send(data)
        return child

    def client():
        sock = tb.client.socket()
        yield from sock.connect(tb.server.address.ip, SERVER_PORT)
        for i in range(rounds):
            yield from sock.send(payload_pattern(size, seed=i))
            yield from sock.recv(size, exact=True)
        if post_run_ns:
            yield tb.sim.timeout(post_run_ns)
        return sock

    sdone = tb.server.spawn(server(listener))
    cdone = tb.client.spawn(client())
    tb.sim.run_until_triggered(cdone)
    tb.sim.run_until_triggered(sdone)
    return cdone.value, sdone.value


class TestDelackTimer:
    def test_final_reply_acked_by_delack_timer(self):
        """The last reply in an exchange has no piggyback opportunity;
        the 200 ms delayed-ACK timer covers it, well inside the 400 ms
        grace period."""
        tb = build_atm_pair()
        csock, ssock = echo_pair(tb, 500, rounds=2,
                                 post_run_ns=400_000_000)
        # After the grace period, everything the server sent is acked.
        assert ssock.conn.snd_una == ssock.conn.snd_max
        assert csock.conn.stats.delayed_acks_fired >= 1

    def test_delack_disabled_acks_immediately(self):
        tb = build_atm_pair(config=KernelConfig(delayed_ack=False))
        csock, ssock = echo_pair(tb, 500, rounds=2, post_run_ns=5_000_000)
        assert ssock.conn.snd_una == ssock.conn.snd_max
        assert csock.conn.stats.delayed_acks_fired == 0


class TestTimeWait:
    def test_time_wait_expires_to_closed(self):
        tb = build_atm_pair()
        listener = tb.server.socket()
        listener.listen(SERVER_PORT)

        def server(listener):
            child = yield from listener.accept()
            yield from child.recv(1, exact=True)  # EOF
            yield from child.close()
            return child

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            yield from sock.close()
            # Wait out 2MSL plus slack.
            yield tb.sim.timeout(5_000_000_000)
            return sock

        tb.server.spawn(server(listener))
        done = tb.client.spawn(client())
        sock = tb.sim.run_until_triggered(done)
        assert sock.conn.state is TCPState.CLOSED
        # The PCB has been reclaimed.
        assert sock.conn.pcb not in tb.client.tcp.pcbs.pcbs


class TestMssDefaults:
    def test_syn_without_mss_option_uses_536(self):
        """RFC 1122 default when the peer offers no MSS."""
        tb = build_atm_pair()
        # Strip the MSS option from everything the client sends.
        original_encode = TCPOptions.encode

        def no_mss_encode(self):
            self.mss = None
            return original_encode(self)

        TCPOptions.encode = no_mss_encode
        try:
            csock, ssock = echo_pair(tb, 100)
        finally:
            TCPOptions.encode = original_encode
        assert ssock.conn.t_maxseg == 536

    def test_iss_increments_between_connections(self):
        tb = build_atm_pair()
        a = tb.client.tcp.next_iss()
        b = tb.client.tcp.next_iss()
        assert (b - a) % (1 << 32) == tb.client.tcp.ISS_INCREMENT


class TestRtoBackoff:
    def test_backoff_doubles_up_to_cap(self):
        from tests.test_tcp_recovery import DropNth, echo_with_injector
        # Drop the first data segment and its first two retransmissions.
        tb, sock, results = echo_with_injector(DropNth(4, 5, 6),
                                               size=200, iterations=1)
        assert results[0][1]
        # Three losses -> first RTT carries ~500+500+1000 ms of RTO.
        assert results[0][0] > 1_500_000_000
        assert sock.conn.stats.retransmits >= 3
