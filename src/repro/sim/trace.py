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

The tracer is one producer of the unified observability pipeline
(:mod:`repro.obs`): when a :class:`~repro.obs.observer.Observer` is
attached it installs itself as :attr:`SpanTracer.sink` and every
recorded span is additionally streamed as a trace event, so the same
clock reads that build Tables 2/3 also render as timeline slices in
``chrome://tracing``/Perfetto.  :meth:`SpanTracer.snapshot` keeps the
warmup aggregate across a :meth:`SpanTracer.reset`, and
:meth:`SpanStats.merge` folds snapshots together for multi-run
aggregation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.sim.clock import ClockCard

__all__ = ["SpanTracer", "SpanStats"]


class SpanStats:
    """Aggregate of one span name: count, total and mean microseconds.

    ``min_us``/``max_us`` report ``0.0`` until the first recording (not
    ``inf``), so snapshots serialize to valid JSON.
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
        """A JSON-serializable snapshot of this span's aggregate."""
        return {"count": self.count, "total_us": self.total_us,
                "mean_us": self.mean_us, "min_us": self.min_us,
                "max_us": self.max_us}

    def merge(self, other: Union["SpanStats", Mapping]) -> None:
        """Fold another aggregate (stats or snapshot dict) into this."""
        if isinstance(other, SpanStats):
            count, total = other.count, other.total_us
            omin, omax = other.min_us, other.max_us
        else:
            count, total = other["count"], other["total_us"]
            omin, omax = other["min_us"], other["max_us"]
        if count == 0:
            return
        if self.count == 0:
            self.min_us, self.max_us = omin, omax
        else:
            self.min_us = min(self.min_us, omin)
            self.max_us = max(self.max_us, omax)
        self.count += count
        self.total_us += total

    def __repr__(self) -> str:
        return (f"<SpanStats {self.name} n={self.count} "
                f"mean={self.mean_us:.1f}us>")


class SpanTracer:
    """Records named latency spans with the measurement clock's precision.

    Spans are recorded as (start_ticks, end_ticks) pairs from a
    :class:`ClockCard`, so results carry the same 40 ns quantization the
    paper's numbers do.  ``begin``/``end`` use a token so overlapping
    spans of the same name (e.g. two in-flight segments) don't collide.

    When :attr:`sink` is set (by an attached observer), every recorded
    span is also forwarded as ``sink(name, duration_us, end_us)`` with
    *end_us* the simulated completion time, so exporters can place the
    span on an absolute timeline.  The sink survives :meth:`reset` —
    warmup spans stream to the pipeline even though the aggregate is
    cleared for steady-state measurement.
    """

    def __init__(self, clock: ClockCard):
        self.clock = clock
        self._stats: Dict[str, SpanStats] = {}
        #: Observability pipeline tap: ``sink(name, duration_us, end_us)``.
        self.sink: Optional[Callable[[str, float, float], None]] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str) -> Tuple[str, int]:
        """Start a span; returns a token to pass to :meth:`end`."""
        return (name, self.clock.read_ticks())

    def end(self, token: Tuple[str, int]) -> float:
        """Finish a span; returns its duration in microseconds."""
        name, start_ticks = token
        duration = self.clock.delta_us(start_ticks, self.clock.read_ticks())
        self.record_value(name, duration)
        return duration

    def record_value(self, name: str, duration_us: float) -> None:
        """Record a duration, ending now, under *name*."""
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = SpanStats(name)
        stats.add(duration_us)
        if self.sink is not None:
            self.sink(name, duration_us, self.clock.sim.now / 1000.0)

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

    # ------------------------------------------------------------------
    # Snapshot (warmup bookkeeping, multi-run aggregation)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """All current aggregates as plain JSON-serializable dicts."""
        return {name: s.as_dict() for name, s in self._stats.items()}

    def reset(self) -> None:
        """Forget all recorded spans (e.g. after a warmup phase).

        Call :meth:`snapshot` first if the data should survive; the
        pipeline :attr:`sink`, if any, is left installed.
        """
        self._stats.clear()
