"""TCP state-machine edge cases: RST, refusal, half-close, seq wrap."""

import pytest

from repro.core.experiment import SERVER_PORT, payload_pattern
from repro.core.testbed import build_atm_pair
from repro.socket.socket import SocketError
from repro.tcp.conn import ConnectionReset
from repro.tcp.states import TCPState


class TestConnectionRefused:
    def test_syn_to_closed_port_gets_rst(self):
        tb = build_atm_pair()

        def client():
            sock = tb.client.socket()
            try:
                yield from sock.connect(tb.server.address.ip, 4444)
            except Exception as exc:
                return type(exc).__name__, str(exc)
            return "connected", ""

        done = tb.client.spawn(client())
        name, message = tb.sim.run_until_triggered(done)
        assert "refused" in message
        # Refusal was immediate (RST), not a retransmission timeout.
        assert tb.sim.now < 100_000_000

    def test_data_to_vanished_connection_gets_rst(self):
        """A segment for a connection that no longer exists draws RST,
        which resets the sender."""
        tb = build_atm_pair()
        listener = tb.server.socket()
        listener.listen(SERVER_PORT)

        def server(listener):
            child = yield from listener.accept()
            # Destroy the server-side state without a FIN exchange.
            child.conn._close_now()
            return child

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            yield tb.sim.timeout(10_000_000)
            try:
                yield from sock.send(payload_pattern(100))
                yield from sock.recv(100, exact=True)
            except SocketError as exc:
                return str(exc)
            return "no error"

        tb.server.spawn(server(listener))
        done = tb.client.spawn(client())
        result = tb.sim.run_until_triggered(done)
        assert "reset" in result or "closed" in result

    def test_rst_does_not_answer_rst(self):
        """No RST storms: an RST to a closed port is silently dropped."""
        tb = build_atm_pair()

        def client():
            sock = tb.client.socket()
            try:
                yield from sock.connect(tb.server.address.ip, 4444)
            except Exception:
                pass

        done = tb.client.spawn(client())
        tb.sim.run_until_triggered(done)
        tb.sim.run(until=tb.sim.now + 50_000_000)
        # Exactly one RST crossed the wire (server -> client).
        assert tb.server.tcp.stats.no_pcb_drops == 1
        # The client's RST-triggered teardown sent nothing back that
        # drew another RST.
        assert tb.client.tcp.stats.no_pcb_drops <= 1

    def test_close_after_refused_connect(self):
        """The RST already tore the connection down and removed its PCB;
        close() runs the teardown a second time, which must return and
        leave only the daemon PCBs in the table."""
        tb = build_atm_pair()

        def client():
            sock = tb.client.socket()
            with pytest.raises(ConnectionReset):
                yield from sock.connect(tb.server.address.ip, 4444)
            yield from sock.close()
            return sock

        done = tb.client.spawn(client())
        sock = tb.sim.run_until_triggered(done)
        assert sock.conn.state is TCPState.CLOSED
        assert len(tb.client.tcp.pcbs) == tb.client.config.daemon_pcbs
        assert tb.client.tcp.connections == []


class TestHalfClose:
    def test_sender_closes_receiver_keeps_sending(self):
        """After the client's FIN the server can still push data; the
        client in FIN_WAIT_2 receives it."""
        tb = build_atm_pair()
        listener = tb.server.socket()
        listener.listen(SERVER_PORT)
        tail = payload_pattern(1200, seed=9)

        def server(listener):
            child = yield from listener.accept()
            first = yield from child.recv(100, exact=True)
            assert first == payload_pattern(100)
            # Read the EOF from the client's FIN...
            rest = yield from child.recv(1, exact=True)
            assert rest == b""
            # ...then keep talking on the half-open connection.
            yield from child.send(tail)
            yield from child.close()

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            yield from sock.send(payload_pattern(100))
            yield from sock.close()
            data = yield from sock.recv(1200, exact=True)
            return sock, data

        tb.server.spawn(server(listener))
        done = tb.client.spawn(client())
        sock, data = tb.sim.run_until_triggered(done)
        assert data == tail


class TestSequenceWraparound:
    def test_transfer_across_seq_wrap(self):
        """Force the ISS near 2^32 so live data crosses the wrap."""
        tb = build_atm_pair()
        # Pin both sides' initial sequence numbers just below the wrap.
        tb.client.tcp._iss = (1 << 32) - 3000
        tb.server.tcp._iss = (1 << 32) - 5000
        tb.client.tcp.ISS_INCREMENT = 0
        tb.server.tcp.ISS_INCREMENT = 0
        listener = tb.server.socket()
        listener.listen(SERVER_PORT)
        payload = payload_pattern(9000)

        def server(listener):
            child = yield from listener.accept()
            data = yield from child.recv(9000, exact=True)
            yield from child.send(data)

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            assert sock.conn.iss > (1 << 31)
            yield from sock.send(payload)
            echoed = yield from sock.recv(9000, exact=True)
            return sock, echoed

        tb.server.spawn(server(listener))
        done = tb.client.spawn(client())
        sock, echoed = tb.sim.run_until_triggered(done)
        assert echoed == payload
        # Sequence space really wrapped.
        assert sock.conn.snd_nxt < (1 << 31)


class TestDuplicateSyn:
    def test_retransmitted_syn_does_not_duplicate_connection(self):
        from tests.test_tcp_recovery import DropNth
        tb = build_atm_pair()
        # Drop the server's first SYN|ACK so the client re-SYNs.
        tb.link.fault_injector = DropNth(2)
        listener = tb.server.socket()
        listener.listen(SERVER_PORT)

        def server(listener):
            child = yield from listener.accept()
            data = yield from child.recv(50, exact=True)
            yield from child.send(data)

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            yield from sock.send(payload_pattern(50))
            return (yield from sock.recv(50, exact=True))

        tb.server.spawn(server(listener))
        done = tb.client.spawn(client())
        assert tb.sim.run_until_triggered(done) == payload_pattern(50)
        # One listener + one established child, not two children.
        non_listeners = [c for c in tb.server.tcp.connections
                         if c.state is not TCPState.LISTEN]
        assert len(non_listeners) == 1


class TestReceiveBufferOverflowLeaks:
    """Regression tests for mbuf leaks when sbappend refuses a chain.

    Two receive-path fixes under test: ``_append_receive_data`` must
    release the chain it built when ``so_rcv`` overflows (the mbufs
    leaked before), and the reassembly drain must check the socket
    buffer's free space before moving ``rcv_nxt`` — a drained run
    larger than ``so_rcv.space`` used to blow sbappend's high-water
    check after the chain was already built.
    """

    def _established_pair(self, config=None):
        tb = build_atm_pair(config=config)
        listener = tb.server.socket()
        listener.listen(SERVER_PORT)

        def server(listener):
            child = yield from listener.accept()
            return child

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            return sock

        server_done = tb.server.spawn(server(listener))
        client_done = tb.client.spawn(client())
        csock = tb.sim.run_until_triggered(client_done)
        ssock = tb.sim.run_until_triggered(server_done)
        return tb, csock, ssock

    def test_append_overflow_releases_built_chain(self):
        from repro.socket.sockbuf import SockBufError

        tb, _csock, ssock = self._established_pair()
        conn = ssock.conn
        pool = conn.host.pool
        conn.socket.so_rcv.hiwat = 4  # nothing fits any more
        before = pool.in_use
        with pytest.raises(SockBufError):
            conn._append_receive_data(b"does not fit")
        assert pool.in_use == before  # chain released, not leaked

    def test_append_overflow_leak_visible_to_sanitizer(self):
        """With REPRO_SANITIZE the failed append leaves no live
        allocation behind for the leak-at-quiesce audit to flag."""
        from repro.kern.config import KernelConfig
        from repro.socket.sockbuf import SockBufError

        tb, _csock, ssock = self._established_pair(
            config=KernelConfig(sanitize=True))
        conn = ssock.conn
        pool = conn.host.pool
        conn.socket.so_rcv.hiwat = 4
        live_before = len(pool.sanitizer.live_report(set()))
        with pytest.raises(SockBufError):
            conn._append_receive_data(b"does not fit")
        assert len(pool.sanitizer.live_report(set())) == live_before

    def test_drained_run_larger_than_socket_space_is_requeued(self):
        from repro.tcp.seq import seq_add

        tb, csock, ssock = self._established_pair()
        conn = ssock.conn
        # A tiny receive buffer: the next segment fits, the queued
        # out-of-order run does not.
        conn.socket.so_rcv.hiwat = 10
        run = b"R" * 50
        conn.reassembly.insert(seq_add(conn.rcv_nxt, 4), run)
        expected_nxt = seq_add(conn.rcv_nxt, 4)
        drops_before = conn.stats.mbuf_drops
        pool = conn.host.pool

        def client():
            yield from csock.send(b"abcd")

        done = tb.client.spawn(client())
        tb.sim.run_until_triggered(done)
        tb.sim.run(until=tb.sim.now + 50_000_000)  # let the ACK land
        # The in-sequence bytes were delivered; the drained run was put
        # back instead of overflowing sbappend (and leaking its chain).
        assert conn.socket.so_rcv.cc == 4
        assert conn.rcv_nxt == expected_nxt
        assert not conn.reassembly.empty
        assert conn.stats.mbuf_drops == drops_before + 1
        # Conservation: every allocation is freed or sits in a sockbuf.
        assert pool.in_use == conn.socket.so_rcv.chain.mbuf_count \
            + conn.socket.so_snd.chain.mbuf_count
