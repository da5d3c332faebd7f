"""Closed connections keep their counts.

A connection folds its ``ConnectionStats`` into the host's
``TCPLayer.closed_stats`` exactly once when it closes, so every total
taken over a host (``TCPLayer.connection_stats()``, the observer's
``tcp.*`` gauges, the work gate) still holds what the closed
connections counted.
"""

import pytest

from repro.chaos import ImpairmentConfig, Impairments
from repro.core.experiment import SERVER_PORT, payload_pattern
from repro.core.testbed import build_atm_pair, build_ethernet_pair
from repro.obs import Observer
from repro.perf.bench import counters
from repro.tcp.conn import ConnectionReset
from repro.tcp.states import TCPState


def _echo_then_close(observer):
    """40 echoed 1400-byte RPCs on Ethernet at 5% loss, then both
    sides close; returns the testbed and the retransmits summed over
    the live connections just before the close."""
    tb = build_ethernet_pair(
        observer=observer,
        impairments=Impairments(ImpairmentConfig(seed=1994, p_drop=0.05)))
    size = 1400
    payload = payload_pattern(size)
    live_before_close = []

    def server(listener):
        child = yield from listener.accept()
        while True:
            data = yield from child.recv(size, exact=True)
            if len(data) < size:
                break
            yield from child.send(data)
        yield from child.close()

    def client():
        sock = tb.client.socket()
        yield from sock.connect(tb.server.address.ip, SERVER_PORT)
        for _ in range(40):
            yield from sock.send(payload)
            assert (yield from sock.recv(size, exact=True)) == payload
        live_before_close.append(sum(
            conn.stats.retransmits
            for host in tb.hosts for conn in host.tcp.connections))
        yield from sock.close()

    listener = tb.server.socket()
    listener.listen(SERVER_PORT)
    tb.server.spawn(server(listener), name="echo-server")
    tb.client.spawn(client(), name="echo-client")
    tb.sim.run()
    return tb, live_before_close[0]


def test_retransmits_survive_close():
    observer = Observer()
    tb, live_before_close = _echo_then_close(observer)
    assert live_before_close == 6
    # Both data connections are gone; only the listener is left.
    assert [conn.state for host in tb.hosts
            for conn in host.tcp.connections] == [TCPState.LISTEN]
    assert sum(host.tcp.connection_stats().retransmits
               for host in tb.hosts) == 6
    assert counters(tb)["tcp_retransmits"] == 6
    observer.collect()
    assert sum(observer.metrics.value(f"{host.name}.tcp.retransmits")
               for host in tb.hosts) == 6


def test_refused_connect_is_folded_once():
    """A refused connect runs the teardown twice (RST, then close());
    its counts land in the closed total once and stay on the
    connection itself."""
    tb = build_atm_pair()

    def client():
        sock = tb.client.socket()
        with pytest.raises(ConnectionReset):
            yield from sock.connect(tb.server.address.ip, 4444)
        yield from sock.close()
        return sock

    sock = tb.sim.run_until_triggered(tb.client.spawn(client()))
    assert tb.client.tcp.connections == []
    assert sock.conn.stats.segs_sent == 1      # the SYN
    assert tb.client.tcp.closed_stats.as_dict() == sock.conn.stats.as_dict()
    assert tb.client.tcp.connection_stats().segs_sent == 1
