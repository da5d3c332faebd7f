"""Causal packet lineage: per-write trace records threaded through the stack.

Every application ``write`` is stamped with a :class:`WriteLineage`; the
tag rides on the mbufs of the socket-buffer chain, survives ``m_copy``
(cluster sharing and plain copies alike), and is collected into a
:class:`SegmentLineage` when TCP emits a segment.  The segment record is
keyed by its IP ``(src, ident)`` pair so the *receiving* host — which
shares the same recorder through the :class:`~repro.obs.observer.Observer`
— can re-attach it in the adapter receive interrupt and keep appending
events (IPQ wait, IP input, TCP input, socket wakeup, user copy) until
:class:`DeliveryLineage` closes the chain at the ``read`` system call.

Span events are appended by the :class:`~repro.sim.trace.SpanTracer`
call that records the span, so a span occurrence is recorded once and
the lineage event carries the tracer's own duration.  Every event lands
in **one global insertion-ordered log** as well as on its record.
Aggregating that log per ``(host, span-name)`` in insertion order
reproduces the exact float-summation order of the per-host tracer,
which is what makes :func:`repro.core.breakdown.breakdown_from_lineage`
byte-for-byte equal to the span-derived Table 2/3 figures.

The stack never imports this module: hosts carry ``host.lineage = None``
by default and every call site is duck-typed behind a single ``is not
None`` test, preserving the zero-overhead unobserved contract.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "LineageEvent",
    "WriteLineage",
    "SegmentLineage",
    "DeliveryLineage",
    "LineageRecorder",
    "allocation_count",
]


class LineageEvent:
    """One span occurrence on a causal chain.

    ``duration_us`` is the duration *as the tracer computed it*
    (tick-quantized for CPU charges, raw ``ns / 1000`` for the queue-wait
    style spans) so lineage aggregation reproduces the tracer's floats
    exactly.  The adapters' ``wire.*`` events are lineage-only and
    carry the raw wire time.
    """

    __slots__ = ("name", "host", "start_ns", "end_ns", "duration_us")

    allocated = 0

    def __init__(self, name: str, host: str, start_ns: int, end_ns: int,
                 duration_us: float) -> None:
        self.name = name
        self.host = host
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.duration_us = duration_us
        LineageEvent.allocated += 1

    def __repr__(self) -> str:
        return (f"<{self.name}@{self.host} "
                f"[{self.start_ns}..{self.end_ns}ns] "
                f"{self.duration_us:.3f}us>")


class _Record:
    """Common behaviour: events append to the record AND the global log."""

    __slots__ = ("recorder", "events")

    def __init__(self, recorder: "LineageRecorder") -> None:
        self.recorder = recorder
        self.events: List[LineageEvent] = []

    def add(self, name: str, host: str, start_ns: int, end_ns: int,
            duration_us: float) -> LineageEvent:
        ev = LineageEvent(name, host, start_ns, end_ns, duration_us)
        self.events.append(ev)
        self.recorder.events.append(ev)
        return ev


class WriteLineage(_Record):
    """One application ``write()``: the root of every causal chain."""

    __slots__ = ("write_id", "host", "size", "seq_lo")

    allocated = 0

    def __init__(self, recorder: "LineageRecorder", write_id: int,
                 host: str, size: int, seq_lo: int) -> None:
        super().__init__(recorder)
        self.write_id = write_id
        self.host = host
        self.size = size
        self.seq_lo = seq_lo
        WriteLineage.allocated += 1

    def __repr__(self) -> str:
        return (f"<write #{self.write_id} {self.size}B "
                f"seq={self.seq_lo} on {self.host}>")


class SegmentLineage(_Record):
    """One emitted TCP segment (data, ACK, or control)."""

    __slots__ = ("segment_id", "kind", "tx_host", "rx_host", "seq",
                 "length", "retransmit", "write_ids", "key", "outcome",
                 "chaos")

    allocated = 0

    def __init__(self, recorder: "LineageRecorder", segment_id: int,
                 tx_host: str, seq: int, length: int,
                 kind: str = "data") -> None:
        super().__init__(recorder)
        self.segment_id = segment_id
        self.kind = kind
        self.tx_host = tx_host
        self.rx_host: Optional[str] = None
        self.seq = seq
        self.length = length
        self.retransmit = False
        self.write_ids: List[int] = []
        self.key: Optional[Tuple[int, int]] = None
        self.outcome: Optional[str] = None
        self.chaos: List[str] = []
        SegmentLineage.allocated += 1

    def adopt_writes(self, mbufs) -> None:
        """Collect the distinct write ids tagged on *mbufs*, in order."""
        for m in mbufs:
            w = m.lineage
            if w is not None and hasattr(w, "write_id") \
                    and w.write_id not in self.write_ids:
                self.write_ids.append(w.write_id)

    def __repr__(self) -> str:
        return (f"<seg #{self.segment_id} {self.kind} seq={self.seq} "
                f"len={self.length} {self.tx_host}->"
                f"{self.rx_host or '?'} {self.outcome or 'in-flight'}>")


class DeliveryLineage(_Record):
    """One ``read()`` returning data to the application."""

    __slots__ = ("delivery_id", "host", "size", "segment_ids")

    allocated = 0

    def __init__(self, recorder: "LineageRecorder", delivery_id: int,
                 host: str, size: int) -> None:
        super().__init__(recorder)
        self.delivery_id = delivery_id
        self.host = host
        self.size = size
        self.segment_ids: List[int] = []
        DeliveryLineage.allocated += 1

    def adopt_segments(self, mbufs) -> None:
        """Collect the segments whose bytes this read returns; a segment
        reaching an application ``read`` is, by definition, delivered."""
        for m in mbufs:
            s = m.lineage
            if s is not None and hasattr(s, "segment_id"):
                if s.segment_id not in self.segment_ids:
                    self.segment_ids.append(s.segment_id)
                if s.outcome is None:
                    s.outcome = "delivered"

    def __repr__(self) -> str:
        return (f"<delivery #{self.delivery_id} {self.size}B on "
                f"{self.host} from segs {self.segment_ids}>")


def allocation_count() -> int:
    """Total lineage objects ever allocated (zero-overhead audit hook)."""
    return (LineageEvent.allocated + WriteLineage.allocated
            + SegmentLineage.allocated + DeliveryLineage.allocated)


class LineageRecorder:
    """The shared, cross-host causal event store.

    One recorder is installed on *every* host of a testbed (via
    ``Observer(lineage=True)``) so a segment record created on the sender
    is found again — keyed by ``(ip.src, ip.ident)`` — in the receiver's
    adapter interrupt.
    """

    def __init__(self) -> None:
        self.events: List[LineageEvent] = []
        self.writes: List[WriteLineage] = []
        self.segments: List[SegmentLineage] = []
        self.deliveries: List[DeliveryLineage] = []
        self._by_key: Dict[Tuple[int, int], SegmentLineage] = {}
        self._ids = itertools.count(1)
        # Warmup boundary: indices into the four lists above, set by
        # mark().  Index-based (not time-based) so the boundary matches
        # the tracer's reset exactly.
        self._mark = (0, 0, 0, 0)

    # ------------------------------------------------------------------
    # Record creation (duck-typed from the stack)
    # ------------------------------------------------------------------
    def begin_write(self, host: str, size: int, seq_lo: int) -> WriteLineage:
        rec = WriteLineage(self, next(self._ids), host, size, seq_lo)
        self.writes.append(rec)
        return rec

    def begin_segment(self, tx_host: str, seq: int, length: int,
                      kind: str = "data") -> SegmentLineage:
        rec = SegmentLineage(self, next(self._ids), tx_host, seq, length,
                             kind)
        self.segments.append(rec)
        return rec

    def begin_delivery(self, host: str, size: int) -> DeliveryLineage:
        rec = DeliveryLineage(self, next(self._ids), host, size)
        self.deliveries.append(rec)
        return rec

    def add(self, name: str, host: str, start_ns: int, end_ns: int,
            duration_us: float) -> LineageEvent:
        """A host-level event not tied to one record (e.g. rx.wakeup)."""
        ev = LineageEvent(name, host, start_ns, end_ns, duration_us)
        self.events.append(ev)
        return ev

    # ------------------------------------------------------------------
    # Cross-wire correlation
    # ------------------------------------------------------------------
    def set_key(self, rec: SegmentLineage, src_ip: int, ident: int) -> None:
        rec.key = (src_ip, ident)
        self._by_key[rec.key] = rec

    def match(self, src_ip: int, ident: int) -> Optional[SegmentLineage]:
        return self._by_key.get((src_ip, ident))

    def match_pdu(self, pdu: bytes) -> Optional[SegmentLineage]:
        """Find the segment record for a raw IP datagram / PDU."""
        from repro.net.headers import HeaderError
        from repro.net.packet import Packet

        try:
            hdr = Packet(pdu).ip_header
        except HeaderError:
            return None
        return self.match(hdr.src, hdr.identification)

    # ------------------------------------------------------------------
    # Outcomes and chaos annotation (duck-typed from chaos/adapters)
    # ------------------------------------------------------------------
    def mark_dropped(self, rec: Optional[SegmentLineage],
                     why: str) -> None:
        if rec is not None and rec.outcome is None:
            rec.outcome = f"dropped:{why}"

    def mark_dropped_pdu(self, pdu: bytes, why: str) -> None:
        self.mark_dropped(self.match_pdu(pdu), why)

    def annotate_pdu(self, pdu: bytes, note: str) -> None:
        rec = self.match_pdu(pdu)
        if rec is not None:
            rec.chaos.append(note)

    # ------------------------------------------------------------------
    # Warmup boundary + views
    # ------------------------------------------------------------------
    def mark(self) -> None:
        """Start measured collection here (mirrors tracer.reset())."""
        self._mark = (len(self.events), len(self.writes),
                      len(self.segments), len(self.deliveries))

    def measured_events(self) -> List[LineageEvent]:
        return self.events[self._mark[0]:]

    def measured_writes(self) -> List[WriteLineage]:
        return self.writes[self._mark[1]:]

    def measured_segments(self) -> List[SegmentLineage]:
        return self.segments[self._mark[2]:]

    def measured_deliveries(self) -> List[DeliveryLineage]:
        return self.deliveries[self._mark[3]:]

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def aggregate(self, host: Optional[str] = None) -> Dict[str, float]:
        """Sum measured event durations per span name, in insertion order.

        Filtering by *host* and accumulating in global insertion order
        reproduces the per-host tracer's float-summation order exactly;
        the totals are byte-for-byte identical to
        ``tracer.total_us(name)``.
        """
        totals: Dict[str, float] = {}
        for ev in self.measured_events():
            if host is not None and ev.host != host:
                continue
            totals[ev.name] = totals.get(ev.name, 0.0) + ev.duration_us
        return totals

    def events_between(self, start_ns: int, end_ns: int,
                       hosts: Optional[set] = None
                       ) -> Iterator[LineageEvent]:
        """Measured events overlapping the window (waterfall source)."""
        for ev in self.measured_events():
            if ev.end_ns < start_ns or ev.start_ns > end_ns:
                continue
            if hosts is not None and ev.host not in hosts:
                continue
            yield ev
