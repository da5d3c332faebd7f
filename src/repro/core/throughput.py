"""Bulk-transfer throughput experiments (beyond the paper's tables).

The paper is a latency study, but its §4.2 notes that checksum
elimination "can also benefit throughput oriented applications" and that
the integrated copy+checksum loop caps memory bandwidth at ~9 MB/s on
the DECstation.  This harness measures one-way TCP goodput on the
simulated testbed per checksum mode and reports where the bottleneck
sits (the receiver's per-cell FIFO drain and checksum work make the
receive CPU the limit, which is exactly why the paper points at DMA +
no checksum for fast paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.experiment import SERVER_PORT, payload_pattern
from repro.core.testbed import build_pair
from repro.kern.config import ChecksumMode, KernelConfig

__all__ = ["ThroughputResult", "run_bulk_throughput"]


@dataclass
class ThroughputResult:
    """Outcome of one bulk transfer."""

    total_bytes: int
    elapsed_us: float
    sender_cpu_busy_frac: float
    receiver_cpu_busy_frac: float
    data_segments: int
    retransmits: int

    @property
    def goodput_mb_s(self) -> float:
        """Application payload rate in MB/s (bytes/µs)."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.total_bytes / self.elapsed_us


def run_bulk_throughput(total_bytes: int = 400_000,
                        checksum_mode: ChecksumMode = ChecksumMode.STANDARD,
                        network: str = "atm",
                        config: Optional[KernelConfig] = None,
                        ) -> ThroughputResult:
    """One-way bulk transfer of *total_bytes*; returns goodput and CPU
    utilization.  Larger socket buffers than the latency benchmark's
    defaults keep the pipe full."""
    if config is None:
        # A 12 KB receive window keeps at most three page-sized segments
        # in flight — inside what the 292-cell RX FIFO can absorb while
        # the driver drains, so the transfer stays loss-free.
        config = KernelConfig(checksum_mode=checksum_mode,
                              sendspace=32 * 1024, recvspace=12 * 1024)
    tb = build_pair(network, config=config)

    payload = payload_pattern(total_bytes)
    timing = {}

    WARM_ROUNDS = 4

    def client():
        sock = tb.client.socket()
        yield from sock.connect(tb.server.address.ip, SERVER_PORT)
        # Prime the congestion window with a few echo exchanges (their
        # replies piggyback the ACKs immediately) so the measurement
        # reflects steady state, not slow-start delayed-ACK stalls.
        for _ in range(WARM_ROUNDS):
            yield from sock.send(b"warmup--")
            yield from sock.recv(8, exact=True)
        timing["start"] = tb.sim.now
        yield from sock.send(payload)
        yield from sock.recv(4, exact=True)
        return sock

    def server_outer(listener):
        child = yield from listener.accept()
        for _ in range(WARM_ROUNDS):
            warm = yield from child.recv(8, exact=True)
            yield from child.send(warm)
        received = yield from child.recv(total_bytes, exact=True)
        timing["end"] = tb.sim.now
        assert received == payload, "bulk payload corrupted"
        yield from child.send(b"done")

    listener = tb.server.socket()
    listener.listen(SERVER_PORT)
    tb.server.spawn(server_outer(listener), name="bulk-server")
    busy0 = {h.name: h.cpu.busy_ns for h in tb.hosts}
    done = tb.client.spawn(client(), name="bulk-client")
    sock = tb.sim.run_until_triggered(done)

    elapsed_ns = timing["end"] - timing["start"]
    elapsed_us = elapsed_ns / 1000.0
    busy = {h.name: h.cpu.busy_ns - busy0[h.name] for h in tb.hosts}
    return ThroughputResult(
        total_bytes=total_bytes,
        elapsed_us=elapsed_us,
        sender_cpu_busy_frac=busy["client"] / max(1, elapsed_ns),
        receiver_cpu_busy_frac=busy["server"] / max(1, elapsed_ns),
        data_segments=sock.conn.stats.data_segs_sent,
        retransmits=sock.conn.stats.retransmits,
    )
