"""The network software interrupt and the IP input queue.

Device receive interrupts do as little as possible: they enqueue the
reassembled datagram on the IP input queue and post the network software
interrupt (``schednetisr(NETISR_IP)``).  The softint runs ``ipintr`` at
a priority below hardware interrupts but above all processes, and takes
the host's splnet mutex around each datagram it drains, so a
process-context protocol section can run between two queued datagrams.

The paper's *IPQ* span is "the time from when the ATM driver places
received data on the IP queue and signals a software interrupt until the
time the data is removed from the IP queue" — softint dispatch latency
plus any queueing behind interrupt-level work.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generator, Optional

from repro.net.packet import Packet
from repro.sim.cpu import CPU, Priority
from repro.sim.engine import Simulator
from repro.sim.trace import SpanTracer

__all__ = ["SoftNet"]


class SoftNet:
    """IP input queue + netisr dispatch."""

    #: BSD's IP input queue length limit (ipqmaxlen).
    IPQ_MAX = 50

    def __init__(self, sim: Simulator, cpu: CPU, costs,
                 tracer: SpanTracer):
        self.sim = sim
        self.cpu = cpu
        self.costs = costs
        self.tracer = tracer
        #: Installed by the IP layer: a generator function taking a Packet.
        self.ip_input: Optional[Callable[[Packet], Generator]] = None
        #: Installed by the host: the splnet mutex serializing protocol
        #: sections between the softint and process contexts.
        self.splnet = None
        self._queue: Deque[Packet] = deque()
        #: Effective queue limit.  Defaults to BSD's ipqmaxlen; the
        #: chaos impairment layer clamps it mid-run to force overflow
        #: drops without touching the class-level constant.
        self.ipq_limit = self.IPQ_MAX
        self._pending = False
        #: Datagrams presented to the queue (accepted *or* dropped on
        #: overflow); with `dispatched`, `dropped_full` and
        #: `queue_length` this makes the IPQ conservation invariant
        #: checkable (repro.analysis.invariants.check_ipq_conservation).
        self.enqueued = 0
        self.dispatched = 0
        self.dropped_full = 0
        #: Observability scope (repro.obs), installed by Observer.attach.
        self.metrics = None
        #: Causal lineage recorder (repro.obs.lineage), installed by
        #: Observer.attach(lineage=True).
        self.lineage = None

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def schednetisr(self, packet: Packet) -> None:
        """Enqueue *packet* and post the software interrupt.

        Called synchronously from a device interrupt handler; costs of
        the enqueue itself are part of the driver's receive cost.
        """
        self.enqueued += 1
        if len(self._queue) >= self.ipq_limit:
            # IP input queue overflow: silently dropped, as in BSD.
            self.dropped_full += 1
            if self.lineage is not None:
                self.lineage.mark_dropped(packet.lineage, "ipq-overflow")
            return
        packet.enqueued_ipq_at = self.sim.now
        self._queue.append(packet)
        if self.metrics is not None:
            self.metrics.set_max("ipq.depth_max", len(self._queue))
        if not self._pending:
            self._pending = True
            self.sim.process(self._netisr(), name="netisr")

    def _netisr(self) -> Generator:
        """The software interrupt: drain the IP queue through ip_input."""
        # Dispatch latency: getting from the hardware interrupt's
        # schednetisr to the softint running (splnet context entered).
        try:
            cpu = self.cpu
            job = cpu.run(
                int(self.costs.softint_dispatch_us * 1000),
                Priority.SOFT_INTR, "softint-dispatch", wait=True,
            )
            if job is not None:
                yield job
            while self._queue:
                packet = self._queue.popleft()
                self.dispatched += 1
                self._record_ipq_span(packet)
                if self.ip_input is None:
                    raise RuntimeError("SoftNet has no ip_input handler")
                if self.splnet is not None:
                    # Serialize against process-context protocol work
                    # (BSD's splnet discipline).
                    ev = self.splnet.acquire(wait=True)
                    if ev is not None:
                        yield ev
                    try:
                        yield from self.ip_input(packet)
                    finally:
                        self.splnet.release()
                else:
                    yield from self.ip_input(packet)
        finally:
            # Whatever happens while draining (including a datagram so
            # corrupted it cannot be parsed), the softint must not stay
            # marked pending or the host would never receive again.
            self._pending = False
            if self._queue:
                self._pending = True
                self.sim.process(self._netisr(), name="netisr")

    def _record_ipq_span(self, packet: Packet) -> None:
        enqueued_at = packet.enqueued_ipq_at
        if enqueued_at is None:
            return
        if self.metrics is not None:
            self.metrics.observe("ipq.wait_us",
                                 (self.sim.now - enqueued_at) / 1000.0)
        try:
            data_bearing = len(packet.payload) > 0
        except Exception:
            data_bearing = False  # unparseable (corrupted) datagram
        span = "rx.ipq" if data_bearing else "rx.ack.ipq"
        self.tracer.record_value(span, enqueued_at, packet.lineage)
