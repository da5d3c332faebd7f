"""Latency-span tracing.

The paper instruments the kernel by reading the 40 ns clock at span
boundaries (write syscall entry, start of TCP output, ...) and reporting
per-span averages over many round trips.  :class:`SpanTracer` reproduces
that methodology: code under measurement records named spans via clock
reads, and the tracer aggregates them per iteration and overall.

Span names used by the stack mirror the paper's tables:

* transmit side (Table 2): ``tx.user``, ``tx.tcp.checksum``,
  ``tx.tcp.mcopy``, ``tx.tcp.segment``, ``tx.ip``, ``tx.atm`` (or
  ``tx.ether``)
* receive side (Table 3): ``rx.atm``/``rx.ether``, ``rx.ipq``,
  ``rx.ip``, ``rx.tcp.checksum``, ``rx.tcp.segment``, ``rx.wakeup``,
  ``rx.user``

(ACK-path twins carry an ``.ack`` component: ``tx.ack.ip`` etc.)

The tracer is the one place a span occurrence is recorded.  Each span
site makes one call when the span ends, with its name, its start time
and the causal lineage record it belongs to (if any): CPU and user
spans call :meth:`SpanTracer.end`, which counts whole clock ticks;
queue waits call :meth:`SpanTracer.record_value`, which keeps raw
nanoseconds.  That call updates the Table 2/3 aggregate, streams the
span to the observability pipeline (:mod:`repro.obs`) when an
:class:`~repro.obs.observer.Observer` has installed itself as
:attr:`SpanTracer.sink`, and appends a
:class:`~repro.obs.lineage.LineageEvent` to the record.  The same
clock reads therefore build Tables 2/3, render as timeline slices in
``chrome://tracing``/Perfetto, and make up the lineage chain.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim.clock import ClockCard

__all__ = ["SpanTracer", "SpanStats"]


class SpanStats:
    """Aggregate of one span name: count, total and mean microseconds.

    ``min_us``/``max_us`` report ``0.0`` until the first recording (not
    ``inf``), so the aggregate serializes to valid JSON.
    """

    __slots__ = ("name", "count", "total_us", "min_us", "max_us")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_us = 0.0
        self.min_us = 0.0
        self.max_us = 0.0

    def add(self, duration_us: float) -> None:
        if self.count == 0 or duration_us < self.min_us:
            self.min_us = duration_us
        if duration_us > self.max_us:
            self.max_us = duration_us
        self.count += 1
        self.total_us += duration_us

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """A JSON-serializable copy of this span's aggregate."""
        return {"count": self.count, "total_us": self.total_us,
                "mean_us": self.mean_us, "min_us": self.min_us,
                "max_us": self.max_us}

    def __repr__(self) -> str:
        return (f"<SpanStats {self.name} n={self.count} "
                f"mean={self.mean_us:.1f}us>")


class SpanTracer:
    """Records one host's named latency spans with the clock's precision.

    A span runs from a start time the site saved to the moment it calls
    :meth:`end` or :meth:`record_value`.  The site keeps the start
    itself, so overlapping spans of the same name (e.g. two in-flight
    segments) never collide.

    When :attr:`sink` is set (by an attached observer), every recorded
    span is also forwarded as ``sink(name, duration_us, end_us)`` with
    *end_us* the simulated completion time, so exporters can place the
    span on an absolute timeline.  The sink survives :meth:`reset` —
    warmup spans stream to the pipeline even though the aggregate is
    cleared for steady-state measurement.
    """

    def __init__(self, clock: ClockCard, host: str):
        self.clock = clock
        #: The host name lineage events carry.
        self.host = host
        self._stats: Dict[str, SpanStats] = {}
        #: Observability pipeline tap: ``sink(name, duration_us, end_us)``.
        self.sink: Optional[Callable[[str, float, float], None]] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def end(self, name: str, start_ns: int, rec=None) -> float:
        """Record a CPU or user span from *start_ns* to now.

        The duration counts the whole clock ticks between the two
        reads, as the paper's clock card does.  *rec* (a lineage record
        or the :class:`~repro.obs.lineage.LineageRecorder`, duck-typed)
        gets the occurrence appended.  Returns the duration in µs.
        """
        period = self.clock.period_ns
        now = self.clock.sim.now
        return self._add(name, start_ns, now,
                         (now // period - start_ns // period)
                         * period / 1000.0, rec)

    def record_value(self, name: str, start_ns: int, rec=None) -> float:
        """Record a queue wait from *start_ns* to now, in raw ns.

        *rec* works as in :meth:`end`.  Returns the duration in µs.
        """
        now = self.clock.sim.now
        return self._add(name, start_ns, now, (now - start_ns) / 1000.0,
                         rec)

    def _add(self, name: str, start_ns: int, end_ns: int,
             duration_us: float, rec) -> float:
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = SpanStats(name)
        stats.add(duration_us)
        if self.sink is not None:
            self.sink(name, duration_us, end_ns / 1000.0)
        if rec is not None:
            rec.add(name, self.host, start_ns, end_ns, duration_us)
        return duration_us

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def mean_us(self, name: str) -> float:
        """Mean duration of *name* in microseconds (0 if never seen)."""
        stats = self._stats.get(name)
        return stats.mean_us if stats else 0.0

    def total_us(self, name: str) -> float:
        stats = self._stats.get(name)
        return stats.total_us if stats else 0.0

    def count(self, name: str) -> int:
        stats = self._stats.get(name)
        return stats.count if stats else 0

    def stats(self, name: str) -> Optional[SpanStats]:
        return self._stats.get(name)

    def names(self) -> List[str]:
        return sorted(self._stats)

    def reset(self) -> None:
        """Forget all recorded spans (e.g. after a warmup phase).

        The pipeline :attr:`sink`, if any, is left installed, so an
        observer still sees every span of the run.
        """
        self._stats.clear()
