"""The observability pipeline hub.

An :class:`Observer` is the single object a run attaches to a testbed
to see everything the paper's measurement methodology sees — and more:

* it installs :class:`~repro.obs.hooks.SimHooks` on each host's CPU,
  so CPU context activity (hardware interrupts preempting softints
  preempting processes) becomes timeline slices;
* it owns the run's :class:`~repro.obs.metrics.MetricsRegistry` and
  hands each host a scoped view (``client.*`` / ``server.*``);
* it sinks :class:`~repro.sim.trace.SpanTracer` spans (the paper's
  ``tx.user`` ... ``rx.wakeup`` rows) and
  :class:`~repro.core.packetlog.PacketLog` packets into the same event
  stream, and sums the span stream into per-host whole-run aggregates
  (warmup included);
* it publishes the stack's own counters (``IPStats``, ``TCPLayerStats``,
  every ``ConnectionStats``, the interface, IP-queue, scheduler, mbuf
  pool and CPU counters) when :meth:`collect` is called at end of run,
  so each event the stack counts appears once.

Exporters (:mod:`repro.obs.export`) turn the accumulated state into a
Chrome ``trace_event`` file, a JSONL event stream, or a plain-text
metrics dump.

Everything here is opt-in: constructing a testbed without an observer
leaves ``CPU.hooks`` and every ``metrics`` attribute ``None``.  With
one, the run executes the same events as without it: observing a run
does not change it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.hooks import SimHooks
from repro.obs.metrics import MetricsRegistry
from repro.sim.trace import SpanStats

__all__ = ["Observer", "CpuTraceHooks", "TID_HARD_INTR", "TID_SOFT_INTR",
           "TID_KERNEL", "TID_USER", "TID_SPANS", "TID_NET",
           "span_tid"]

#: Chrome-trace thread ids: one per simulated CPU context, matching
#: :class:`repro.sim.cpu.Priority` (so preemption nests visually), plus
#: synthetic lanes for latency spans and wire packets.
TID_HARD_INTR = 0
TID_SOFT_INTR = 1
TID_KERNEL = 2
TID_USER = 3
TID_SPANS = 8
TID_NET = 9

#: Per-layer span lanes: each protocol layer renders as its own named
#: "thread" in Perfetto, so one RTT reads top-to-bottom as the paper's
#: Figure 1 stack walk.  ATM and Ethernet drivers share a lane (a host
#: has one interface); spans that fit no layer fall back to TID_SPANS.
TID_LAYER_USER = 10
TID_LAYER_TCP = 11
TID_LAYER_IP = 12
TID_LAYER_DRIVER = 13
TID_LAYER_IPQ = 14
TID_LAYER_WAKEUP = 15
TID_LAYER_WIRE = 16

_LAYER_TIDS = {
    "user": TID_LAYER_USER,
    "tcp": TID_LAYER_TCP,
    "ip": TID_LAYER_IP,
    "atm": TID_LAYER_DRIVER,
    "ether": TID_LAYER_DRIVER,
    "ipq": TID_LAYER_IPQ,
    "wakeup": TID_LAYER_WAKEUP,
    "wire": TID_LAYER_WIRE,
}

TID_NAMES = {
    TID_HARD_INTR: "cpu:hard_intr",
    TID_SOFT_INTR: "cpu:soft_intr",
    TID_KERNEL: "cpu:kernel",
    TID_USER: "cpu:user",
    TID_SPANS: "spans",
    TID_NET: "net",
    TID_LAYER_USER: "layer:user",
    TID_LAYER_TCP: "layer:tcp",
    TID_LAYER_IP: "layer:ip",
    TID_LAYER_DRIVER: "layer:driver",
    TID_LAYER_IPQ: "layer:ipq",
    TID_LAYER_WAKEUP: "layer:wakeup",
    TID_LAYER_WIRE: "layer:wire",
}


def span_tid(name: str) -> int:
    """Map a span name (``rx.ack.tcp.segment``) to its layer lane."""
    for part in name.split("."):
        if part in ("tx", "rx", "ack"):
            continue
        return _LAYER_TIDS.get(part, TID_SPANS)
    return TID_SPANS


class CpuTraceHooks(SimHooks):
    """SimHooks implementation feeding an :class:`Observer`.

    CPU job lifecycle becomes complete ("X") slices on the per-context
    thread of the owning host (events executed and preemptions are the
    stack's own counts, published by :meth:`Observer.collect`).  A job's
    slice is opened at start/resume and closed at preempt/finish, so a
    preempted copy shows up as two slices with the interrupt's slice
    between them — the paper's "interrupt steals cycles from a user
    process mid-copy" picture, literally visible in Perfetto.
    """

    def __init__(self, observer: "Observer"):
        self.observer = observer
        #: (cpu name, priority) -> (job name, slice start ns)
        self._open: Dict[Tuple[str, int], Tuple[str, int]] = {}

    def on_job_start(self, now_ns: int, cpu: Any, job: Any) -> None:
        self._open[(cpu.name, job.priority)] = (job.name, now_ns)
        self.observer.metrics.set_max(f"{cpu.name}.runq_max",
                                      cpu.queue_depth())

    def on_job_resume(self, now_ns: int, cpu: Any, job: Any) -> None:
        self._open[(cpu.name, job.priority)] = (job.name, now_ns)

    def on_job_preempt(self, now_ns: int, cpu: Any, job: Any) -> None:
        self._close(now_ns, cpu, job, preempted=True)

    def on_job_finish(self, now_ns: int, cpu: Any, job: Any) -> None:
        self._close(now_ns, cpu, job, preempted=False)

    def _close(self, now_ns: int, cpu: Any, job: Any,
               preempted: bool) -> None:
        opened = self._open.pop((cpu.name, job.priority), None)
        if opened is None:
            return
        name, start_ns = opened
        self.observer.emit_slice(
            pid=self.observer.pid_for_cpu(cpu.name),
            tid=job.priority, name=name, cat="cpu",
            start_ns=start_ns, end_ns=now_ns,
            args={"preempted": True} if preempted else None,
        )


class Observer:
    """Collects one run's trace events, metrics, spans and packets."""

    def __init__(self, capture_packets: bool = True,
                 lineage: bool = False, flow: bool = False):
        self.metrics = MetricsRegistry()
        #: Chrome-format event dicts (ts/dur in float microseconds).
        self.trace_events: List[dict] = []
        #: host name -> span name -> aggregate of every span streamed
        #: by a host of that name, in occurrence order.
        self._spans: Dict[str, Dict[str, SpanStats]] = {}
        self.capture_packets = capture_packets
        self.packet_log = None  # created on attach when capturing
        #: Causal packet lineage (repro.obs.lineage); one recorder is
        #: shared by every attached host so cross-wire correlation (tx
        #: record matched on the rx side) needs no extra plumbing.
        self.lineage = None
        #: Per-connection flow telemetry (repro.obs.flow).
        self.flow = None
        if lineage:
            from repro.obs.lineage import LineageRecorder
            self.lineage = LineageRecorder()
        if flow:
            from repro.obs.flow import FlowTelemetry
            self.flow = FlowTelemetry()
        self.hooks = CpuTraceHooks(self)
        self.testbeds: List[Any] = []
        self._pids: Dict[str, int] = {}       # host name -> pid
        self._pid_by_cpu: Dict[str, int] = {}  # cpu name -> pid

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, testbed) -> "Observer":
        """Wire this observer into a testbed (before running it)."""
        testbed.observer = self
        for host in testbed.hosts:
            self.attach_host(host)
        if self.capture_packets:
            from repro.core.packetlog import attach_packet_log
            self.packet_log = attach_packet_log(testbed, observer=self)
        self.testbeds.append(testbed)
        return self

    def attach_host(self, host) -> None:
        """Give one host CPU hooks, a metrics scope and a span sink."""
        pid = self._pids.get(host.name)
        if pid is None:
            pid = self._pids[host.name] = len(self._pids) + 1
            self._emit_metadata(pid, host.name)
        self._pid_by_cpu[host.cpu.name] = pid
        host.cpu.hooks = self.hooks
        host.observer = self
        scoped = self.metrics.scope(host.name)
        host.metrics = scoped
        host.softnet.metrics = scoped
        host.scheduler.metrics = scoped
        if self.lineage is not None:
            host.lineage = self.lineage
            host.scheduler.lineage = self.lineage
            host.softnet.lineage = self.lineage
        if self.flow is not None:
            host.flow = self.flow
        spans = self._spans.setdefault(host.name, {})

        def span_sink(name: str, duration_us: float, end_us: float,
                      _pid: int = pid) -> None:
            stats = spans.get(name)
            if stats is None:
                stats = spans[name] = SpanStats(name)
            stats.add(duration_us)
            self.on_span(_pid, name, duration_us, end_us)

        host.tracer.sink = span_sink

    @property
    def spans(self) -> Dict[str, Dict[str, dict]]:
        """host name -> span name -> whole-run aggregate as a dict
        (:meth:`SpanStats.as_dict`), warmup and every run included."""
        return {host: {name: stats.as_dict()
                       for name, stats in spans.items()}
                for host, spans in self._spans.items()}

    def pid_for_cpu(self, cpu_name: str) -> int:
        return self._pid_by_cpu.get(cpu_name, 0)

    def pid_for_host(self, host_name: str) -> int:
        return self._pids.get(host_name, 0)

    # ------------------------------------------------------------------
    # Sinks (called by hooks / SpanTracer / PacketLog)
    # ------------------------------------------------------------------
    def emit_slice(self, pid: int, tid: int, name: str, cat: str,
                   start_ns: int, end_ns: int,
                   args: Optional[dict] = None) -> None:
        event = {"name": name, "cat": cat, "ph": "X",
                 "ts": start_ns / 1000.0,
                 "dur": (end_ns - start_ns) / 1000.0,
                 "pid": pid, "tid": tid}
        if args:
            event["args"] = args
        self.trace_events.append(event)

    def emit_instant(self, pid: int, tid: int, name: str, cat: str,
                     ts_ns: float, args: Optional[dict] = None) -> None:
        event = {"name": name, "cat": cat, "ph": "i", "s": "t",
                 "ts": ts_ns / 1000.0, "pid": pid, "tid": tid}
        if args:
            event["args"] = args
        self.trace_events.append(event)

    def on_span(self, pid: int, name: str, duration_us: float,
                end_us: float) -> None:
        """A SpanTracer recorded one latency span."""
        self.trace_events.append({
            "name": name, "cat": "span", "ph": "X",
            "ts": end_us - duration_us, "dur": duration_us,
            "pid": pid, "tid": span_tid(name),
        })

    def on_packet(self, packet_event) -> None:
        """A PacketLog recorded one wire observation."""
        pid = self.pid_for_host(packet_event.host)
        self.metrics.inc(
            f"{packet_event.host}.packets.{packet_event.direction}")
        self.emit_instant(
            pid, TID_NET,
            f"{packet_event.direction} {packet_event.flags_text}"
            f" len={packet_event.payload_len}",
            cat="net", ts_ns=packet_event.time_us * 1000.0,
            args={"src": packet_event.src, "dst": packet_event.dst,
                  "seq": packet_event.seq, "ack": packet_event.ack,
                  "len": packet_event.payload_len},
        )

    def _emit_metadata(self, pid: int, host_name: str) -> None:
        self.trace_events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "ts": 0.0, "args": {"name": host_name}})
        for tid, tname in TID_NAMES.items():
            self.trace_events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "ts": 0.0, "args": {"name": tname}})
            self.trace_events.append({
                "name": "thread_sort_index", "ph": "M", "pid": pid,
                "tid": tid, "ts": 0.0, "args": {"sort_index": tid}})

    # ------------------------------------------------------------------
    # End-of-run collection
    # ------------------------------------------------------------------
    def collect(self) -> None:
        """Publish the stack's own counters.

        Every counter is published once, as a gauge summed over every
        attached testbed (high-water marks take the maximum), so counts
        are cumulative across runs and re-collecting is idempotent.
        """
        totals: Dict[str, float] = {}
        for tb in self.testbeds:
            counts = [("sim.events_executed", tb.sim.events_executed)]
            impairments = getattr(tb.link, "impairments", None)
            if impairments is not None:
                # Injected-impairment totals (link-wide, not per host).
                counts += [(f"chaos.{name}", value) for name, value
                           in impairments.stats.as_dict().items()]
            for host in tb.hosts:
                counts += [(f"{host.name}.{name}", value)
                           for name, value in _host_counts(host)]
            for name, value in counts:
                if name not in totals:
                    totals[name] = value
                elif name.endswith(_HIGH_WATER):
                    totals[name] = max(totals[name], value)
                else:
                    totals[name] += value
        for name, value in totals.items():
            self.metrics.set_gauge(name, value)


#: Counter names that are high-water marks, not counts.
_HIGH_WATER = ("max_tx_fifo_cells", "max_rx_fifo_cells", "rtx_shift_max")


def _fields(prefix: str, stats) -> List[Tuple[str, float]]:
    return [(prefix + name, getattr(stats, name))
            for name in stats.__slots__]


def _host_counts(host) -> List[Tuple[str, float]]:
    """One host's counters, each read from the object that keeps it."""
    from repro.core.profile import profile_host

    cpu, softnet, pool = host.cpu, host.softnet, host.pool
    counts = [("cpu.busy_us", cpu.busy_ns / 1000.0),
              ("cpu.jobs_completed", cpu.jobs_completed),
              ("cpu.preemptions", cpu.preemptions)]
    counts += [(f"cpu.us.{category}", usec)
               for category, usec in profile_host(host).items()]
    counts += [("ipq.enqueued", softnet.enqueued),
               ("ipq.dispatched", softnet.dispatched),
               ("ipq.dropped_full", softnet.dropped_full),
               ("sched.sleeps", host.scheduler.sleeps),
               ("sched.wakeups", host.scheduler.wakeups),
               ("mbuf.allocated", pool.allocated),
               ("mbuf.reused", pool.reused),
               ("mbuf.denied", pool.denied)]
    iface = host.interface
    if iface is not None and hasattr(iface, "stats"):
        counts += _fields("iface.", iface.stats)
    tcpstat = host.tcp.stats
    counts += _fields("ipstat.", host.ip.stats) + _fields("tcpstat.", tcpstat)
    # tcp.*: every connection's counts, closed and live; bad_segments
    # also adds the segments no connection owned (the rollup fuzz
    # expectations key on).
    conns = host.tcp.connection_stats()
    conns.bad_segments += tcpstat.bad_segments
    return counts + _fields("tcp.", conns)
