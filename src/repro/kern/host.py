"""The simulated workstation: CPU, clock, kernel services, stack.

A :class:`Host` corresponds to one DECstation 5000/200 in the paper's
testbed: one CPU shared by interrupts and processes, the measurement
clock card, the mbuf pool, the scheduler, the network software
interrupt, and the IP/TCP layers.  A network interface (ATM or
Ethernet) is attached after construction.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.hw.costs import MachineCosts, decstation_5000_200
from repro.kern.config import KernelConfig
from repro.kern.sched import ProcessScheduler
from repro.kern.softint import SoftNet
from repro.ip.layer import IPLayer
from repro.mem.mbuf import MbufPool
from repro.net.addresses import HostAddress
from repro.net.headers import PROTO_TCP
from repro.sim.clock import ClockCard
from repro.sim.cpu import CPU, Priority
from repro.sim.engine import Process, Simulator
from repro.sim.resources import Semaphore
from repro.sim.trace import SpanTracer
from repro.socket.socket import Socket
from repro.tcp.layer import TCPLayer
from repro.udp.layer import UDPLayer

__all__ = ["Host"]


class Host:
    """One simulated workstation."""

    def __init__(self, sim: Simulator, name: str, address: str,
                 costs: Optional[MachineCosts] = None,
                 config: Optional[KernelConfig] = None):
        self.sim = sim
        self.name = name
        self.address = HostAddress(address, name)
        self.costs = costs if costs is not None else decstation_5000_200()
        self.config = config if config is not None else KernelConfig()

        self.cpu = CPU(sim, f"{name}.cpu")
        self.clock = ClockCard(sim)
        self.tracer = SpanTracer(self.clock, name)
        self.pool = MbufPool(self.costs, sanitize=self.config.sanitize)
        self.scheduler = ProcessScheduler(sim, self.cpu, self.costs,
                                          self.tracer)
        self.softnet = SoftNet(sim, self.cpu, self.costs, self.tracer)
        self.ip = IPLayer(self)
        self.softnet.ip_input = self.ip.input
        self.tcp = TCPLayer(self)
        self.ip.register_protocol(PROTO_TCP, self._tcp_input)
        self.udp = UDPLayer(self)
        self.interface = None
        #: Every socket ever opened on this host, in creation order —
        #: lets audits (chaos/fuzz harnesses) find buffers orphaned by
        #: a process that died without closing, and model the
        #: process-exit soclose that reclaims them.
        self.sockets = []
        #: Optional tcpdump-style tracer (see repro.core.packetlog).
        self.packet_log = None
        #: Observability pipeline (see repro.obs): a ScopedMetrics view
        #: and the owning Observer, both installed by Observer.attach().
        #: The view takes only the counts no stats object keeps
        #: (prediction hits, interrupts, stalls); the observer publishes
        #: the stats themselves at collect.  None by default — each live
        #: site guards on it, so unobserved runs pay one attribute read.
        self.metrics = None
        self.observer = None
        #: Causal lineage recorder and flow telemetry
        #: (repro.obs.lineage / repro.obs.flow), installed by
        #: Observer.attach(lineage=True/flow=True).  None by default and
        #: duck-typed at every call site — one attribute read plus one
        #: None test is all an unobserved run pays.
        self.lineage = None
        self.flow = None
        #: splnet: BSD serializes protocol processing by masking the
        #: network software interrupt while a process runs inside the
        #: stack.  Here a mutex plays that role — the softint's
        #: per-packet input section and every process-context protocol
        #: section (sosend's output call, soreceive's buffer drain,
        #: timer-driven sends) take it.  Without it, an ACK processed
        #: mid-tcp_output would shift the send buffer under the copy.
        self.splnet = Semaphore(sim, value=1, name=f"{name}.splnet")
        self.softnet.splnet = self.splnet

    def _tcp_input(self, packet):
        yield from self.tcp.input(packet, Priority.SOFT_INTR)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_interface(self, iface) -> None:
        """Install the host's network interface (one per host)."""
        if self.interface is not None:
            raise RuntimeError(f"{self.name}: interface already attached")
        self.interface = iface

    # ------------------------------------------------------------------
    # Conveniences used throughout the stack
    # ------------------------------------------------------------------
    def charge(self, cost_ns: int, priority: int, label: str,
               span: Optional[str] = None, lineage=None) -> Generator:
        """Charge CPU time, optionally recording it as a latency span.

        With *lineage* (a duck-typed record from repro.obs.lineage), the
        tracer also appends the span occurrence to that causal chain.
        """
        start_ns = self.sim.now
        job = self.cpu.run(cost_ns, priority, label, wait=True)
        if job is not None:
            yield job
        if span:
            self.tracer.end(span, start_ns, lineage)

    def socket(self) -> Socket:
        """A fresh unconnected socket on this host."""
        return Socket(self)

    def spawn(self, gen, name: str = "proc") -> Process:
        """Start a simulated (user) process on this host."""
        return self.sim.process(gen, name=f"{self.name}:{name}")

    def __repr__(self) -> str:
        return f"<Host {self.name} {self.address.dotted}>"
