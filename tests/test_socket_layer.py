"""Tests for the socket layer: sockbufs, send/recv semantics, spans."""

import random

import pytest

from repro.core.experiment import SERVER_PORT, payload_pattern
from repro.core.testbed import build_atm_pair
from repro.hw import decstation_5000_200
from repro.kern.config import ChecksumMode, KernelConfig
from repro.mem.mbuf import MbufPool
from repro.socket.sockbuf import SockBuf, SockBufError
from repro.socket.socket import SocketError


@pytest.fixture()
def pool():
    return MbufPool(decstation_5000_200())


class TestSockBuf:
    def test_append_and_space(self, pool):
        sb = SockBuf(pool, hiwat=1000)
        chain, _ = pool.build_chain(b"x" * 300, use_clusters=False)
        sb.append(chain)
        assert sb.cc == 300
        assert sb.space == 700

    def test_overflow_rejected(self, pool):
        sb = SockBuf(pool, hiwat=100)
        chain, _ = pool.build_chain(b"x" * 200, use_clusters=False)
        with pytest.raises(SockBufError):
            sb.append(chain)

    def test_drop_and_peek(self, pool):
        sb = SockBuf(pool, hiwat=1000)
        data = payload_pattern(500)
        chain, _ = pool.build_chain(data, use_clusters=False)
        sb.append(chain)
        assert sb.peek(100) == data[:100]
        sb.drop(100)
        assert sb.peek(100) == data[100:200]
        assert sb.cc == 400

    def test_drop_underflow_rejected(self, pool):
        sb = SockBuf(pool, hiwat=100)
        with pytest.raises(SockBufError):
            sb.drop(1)

    def test_cc_is_kept_by_append_drop_and_flush(self, pool):
        """``cc`` is a running byte count (BSD's sb_cc); the chain's
        own length, summed over its mbufs, is the reference."""
        rng = random.Random(1994)
        sb = SockBuf(pool, hiwat=16384)
        expected = b""
        for _ in range(500):
            op = rng.random()
            if op < 0.45:
                room = sb.space
                size = rng.randrange(0, min(room, 6000) + 1)
                data = payload_pattern(size)[::-1]
                chain, _ = pool.build_chain(
                    data, use_clusters=rng.random() < 0.5)
                sb.append(chain)
                expected += data
            elif op < 0.85:
                size = rng.randrange(0, sb.cc + 1)
                sb.drop(size)
                expected = expected[size:]
            elif op < 0.9:
                chain, _ = pool.build_chain(
                    b"x" * (sb.space + 1), use_clusters=True)
                with pytest.raises(SockBufError):
                    sb.append(chain)
                pool.free_chain(chain)
                with pytest.raises(SockBufError):
                    sb.drop(sb.cc + 1)
            else:
                sb.flush()
                expected = b""
            assert sb.cc == sb.chain.length == len(expected)
            assert sb.space == max(0, sb.hiwat - sb.chain.length)
            assert sb.empty == (sb.chain.length == 0)
            assert sb.peek(sb.cc) == expected
        sb.flush()
        assert sb.cc == 0
        assert pool.in_use == 0

    def test_mbufs_in_first(self, pool):
        sb = SockBuf(pool, hiwat=2000)
        chain, _ = pool.build_chain(b"x" * 500, use_clusters=False)
        sb.append(chain)
        assert sb.mbufs_in_first(108) == 1
        assert sb.mbufs_in_first(109) == 2
        assert sb.mbufs_in_first(500) == 5


class TestSocketAPI:
    def test_send_before_connect_rejected(self):
        tb = build_atm_pair()
        sock = tb.client.socket()
        with pytest.raises(SocketError):
            # Drive the generator to trigger validation.
            next(sock.send(b"data"))

    def test_accept_on_non_listener_rejected(self):
        tb = build_atm_pair()
        sock = tb.client.socket()
        with pytest.raises(SocketError):
            next(sock.accept())

    def test_double_connect_rejected(self):
        tb = build_atm_pair()
        listener = tb.server.socket()
        listener.listen(SERVER_PORT)

        def server(listener):
            yield from listener.accept()

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            try:
                yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            except SocketError:
                return "rejected"
            return "accepted"

        tb.server.spawn(server(listener))
        done = tb.client.spawn(client())
        assert tb.sim.run_until_triggered(done) == "rejected"

    def test_nonexact_recv_returns_partial(self):
        tb = build_atm_pair()
        listener = tb.server.socket()
        listener.listen(SERVER_PORT)
        payload = payload_pattern(300)

        def server(listener):
            child = yield from listener.accept()
            yield from child.send(payload)

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            chunk = yield from sock.recv(10_000, exact=False)
            return chunk

        tb.server.spawn(server(listener))
        done = tb.client.spawn(client())
        assert tb.sim.run_until_triggered(done) == payload

    def test_recv_after_peer_close_returns_short(self):
        tb = build_atm_pair()
        listener = tb.server.socket()
        listener.listen(SERVER_PORT)

        def server(listener):
            child = yield from listener.accept()
            yield from child.send(b"bye")
            yield from child.close()

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            data = yield from sock.recv(100, exact=True)
            return data, sock.eof

        tb.server.spawn(server(listener))
        done = tb.client.spawn(client())
        data, eof = tb.sim.run_until_triggered(done)
        assert data == b"bye"
        assert eof


class TestSocketCopyCosts:
    def run_send(self, size, mode=ChecksumMode.STANDARD):
        config = KernelConfig(checksum_mode=mode)
        tb = build_atm_pair(config=config)
        listener = tb.server.socket()
        listener.listen(SERVER_PORT)

        def server(listener):
            child = yield from listener.accept()
            yield from child.recv(size, exact=True)

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            tb.client.tracer.reset()
            yield from sock.send(payload_pattern(size))
            return sock

        tb.server.spawn(server(listener))
        done = tb.client.spawn(client())
        tb.sim.run_until_triggered(done)
        return tb, done.value

    def test_cluster_switchover_shapes_user_span(self):
        """§2.2.1: copying 1400 bytes into one cluster is cheaper than
        copying 1000 bytes into ten 108-byte mbufs plus change."""
        _, sock_small = self.run_send(1000)
        small_span = sock_small.host.tracer.mean_us("tx.user")
        _, sock_cluster = self.run_send(1400)
        cluster_span = sock_cluster.host.tracer.mean_us("tx.user")
        assert cluster_span < small_span

    def test_integrated_mode_stores_partial_sums(self):
        tb, sock = self.run_send(4000, mode=ChecksumMode.INTEGRATED)
        # Socket buffer mbufs carry their partial checksums until acked.
        conn = sock.conn
        assert conn.stats.partial_cksum_hits >= 1

    def test_send_returns_byte_count(self):
        tb, sock = self.run_send(200)
        # send()'s return value flows through the generator protocol.
        assert sock.so_snd.cc <= 200
