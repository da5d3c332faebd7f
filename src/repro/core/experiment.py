"""The paper's round-trip latency benchmark (§1.2).

A client process connects to a server over TCP and repeatedly sends
*size* bytes, then waits to receive *size* bytes back; the round-trip
time is read from the 40 ns clock card around each iteration.  The
paper runs 40 000 iterations × ≥3 repetitions; the simulator is
deterministic, so a much smaller iteration count (after warmup) gives
stable means — the defaults are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.kern.config import KernelConfig
from repro.core.testbed import Testbed, build_pair
from repro.hw.costs import MachineCosts

__all__ = ["RoundTripResult", "RoundTripBenchmark", "run_round_trip",
           "run_sweep", "PAPER_SIZES", "SERVER_PORT"]

#: The transfer sizes measured throughout the paper.
PAPER_SIZES = [4, 20, 80, 200, 500, 1400, 4000, 8000]

SERVER_PORT = 5001


def payload_pattern(size: int, seed: int = 0) -> bytes:
    """Deterministic, position-dependent payload (so corruption and
    misordering are functionally detectable)."""
    return bytes((i * 131 + seed * 17 + (i >> 8)) & 0xFF
                 for i in range(size))


@dataclass
class RoundTripResult:
    """Outcome of one benchmark point."""

    size: int
    iterations: int
    rtt_us: List[float] = field(default_factory=list)
    client_spans: Dict[str, float] = field(default_factory=dict)
    server_spans: Dict[str, float] = field(default_factory=dict)
    client_stats: Optional[dict] = None
    server_stats: Optional[dict] = None
    echo_errors: int = 0

    @property
    def mean_rtt_us(self) -> float:
        return sum(self.rtt_us) / len(self.rtt_us) if self.rtt_us else 0.0

    @property
    def min_rtt_us(self) -> float:
        return min(self.rtt_us) if self.rtt_us else 0.0

    @property
    def max_rtt_us(self) -> float:
        return max(self.rtt_us) if self.rtt_us else 0.0

    def span_per_transfer(self, host: str, name: str) -> float:
        """Mean per-round-trip total of a span (sums multi-packet
        transfers, like the paper's per-transfer rows)."""
        spans = self.client_spans if host == "client" else self.server_spans
        return spans.get(name, 0.0) / self.iterations

    def __repr__(self) -> str:
        return (f"<RoundTripResult size={self.size} "
                f"mean={self.mean_rtt_us:.0f}us n={self.iterations}>")


class RoundTripBenchmark:
    """Runs the client/server echo benchmark on a testbed."""

    def __init__(self, testbed: Testbed, size: int,
                 iterations: int = 12, warmup: int = 3,
                 verify_payload: bool = True):
        if size < 1:
            raise ValueError("size must be at least 1 byte")
        if iterations < 1:
            raise ValueError("need at least one iteration")
        self.testbed = testbed
        self.size = size
        self.iterations = iterations
        self.warmup = warmup
        self.verify_payload = verify_payload
        self.result = RoundTripResult(size=size, iterations=iterations)

    # ------------------------------------------------------------------
    def run(self) -> RoundTripResult:
        tb = self.testbed
        server_sock = tb.server.socket()
        server_sock.listen(SERVER_PORT)
        tb.server.spawn(self._server(server_sock), name="echo-server")
        client_done = tb.client.spawn(self._client(), name="echo-client")
        tb.sim.run_until_triggered(client_done)
        self._collect()
        return self.result

    def _server(self, listener):
        child = yield from listener.accept()
        while True:
            data = yield from child.recv(self.size, exact=True)
            if len(data) < self.size:
                return  # client closed
            yield from child.send(data)

    def _client(self):
        tb = self.testbed
        sock = tb.client.socket()
        yield from sock.connect(tb.server.address.ip, SERVER_PORT)
        clock = tb.client.clock
        expected = payload_pattern(self.size)
        for i in range(self.warmup + self.iterations):
            if i == self.warmup:
                # Steady state reached: start measuring, like the
                # paper's timer placed after connection setup.  An
                # attached observer has already streamed the warmup
                # spans, so its whole-run aggregate keeps them.
                tb.client.tracer.reset()
                tb.server.tracer.reset()
                # Lineage/flow recorders mark the same boundary so
                # their "measured" views align with the span totals
                # (duck-typed: None when the run is unobserved).
                if tb.client.lineage is not None:
                    tb.client.lineage.mark()
                if tb.client.flow is not None:
                    tb.client.flow.mark()
            t0 = clock.read_ticks()
            yield from sock.send(expected)
            echoed = yield from sock.recv(self.size, exact=True)
            t1 = clock.read_ticks()
            if self.verify_payload and echoed != expected:
                self.result.echo_errors += 1
            if i >= self.warmup:
                self.result.rtt_us.append(clock.delta_us(t0, t1))

    def _collect(self) -> None:
        tb = self.testbed
        self.result.client_spans = {
            name: tb.client.tracer.total_us(name)
            for name in tb.client.tracer.names()
        }
        self.result.server_spans = {
            name: tb.server.tracer.total_us(name)
            for name in tb.server.tracer.names()
        }
        client_conns = tb.client.tcp.connections
        server_conns = tb.server.tcp.connections
        if client_conns:
            self.result.client_stats = client_conns[0].stats.as_dict()
        data_conns = [c for c in server_conns if c.stats.segs_received]
        if data_conns:
            self.result.server_stats = data_conns[0].stats.as_dict()


def run_round_trip(size: int, network: str = "atm",
                   config: Optional[KernelConfig] = None,
                   costs: Optional[MachineCosts] = None,
                   iterations: int = 12, warmup: int = 3,
                   observer=None,
                   tiebreak: Optional[str] = None,
                   impairments=None) -> RoundTripResult:
    """Build a fresh testbed and run one benchmark point.

    Pass *observer* (a :class:`repro.obs.Observer`) to capture the
    run's full observability stream — CPU-context timeline, metrics,
    spans, packets; final host state is folded in via
    ``observer.collect`` before returning.  The observed run executes
    exactly the events of the unobserved one.  *tiebreak*
    perturbs same-timestamp event ordering for race detection
    (:mod:`repro.analysis.racecheck`); leave it None for the
    seed-identical FIFO order.  *impairments* (a
    :class:`repro.chaos.Impairments`) injects wire faults; None leaves
    the run byte-identical to the seed.
    """
    testbed = build_pair(network, config=config, costs=costs,
                         observer=observer, tiebreak=tiebreak,
                         impairments=impairments)
    bench = RoundTripBenchmark(testbed, size, iterations=iterations,
                               warmup=warmup)
    result = bench.run()
    if observer is not None:
        observer.collect()
    return result


def run_sweep(network: str = "atm",
              config: Optional[KernelConfig] = None,
              sizes: Optional[Sequence[int]] = None,
              iterations: int = 6, warmup: int = 2,
              ) -> Dict[int, RoundTripResult]:
    """One size sweep, ``{size: RoundTripResult}`` in *sizes* order.

    Every latency table of the paper is such a sweep over
    :data:`PAPER_SIZES` (the default); each point is one
    :func:`run_round_trip` on its own fresh testbed.
    """
    return {size: run_round_trip(size=size, network=network, config=config,
                                 iterations=iterations, warmup=warmup)
            for size in (PAPER_SIZES if sizes is None else sizes)}
