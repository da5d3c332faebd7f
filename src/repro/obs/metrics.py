"""Metrics registry: counters, gauges and fixed-bucket histograms.

The countable side of the observability pipeline (the latency *spans*
live in :class:`repro.sim.trace.SpanTracer`).  The stack counts each
event once, in its own stats objects (``IPStats``, ``TCPLayerStats``,
``ConnectionStats``, the interface, IP-queue, scheduler, mbuf-pool and
CPU counters); :meth:`repro.obs.observer.Observer.collect` publishes
those as gauges.  Live counters and histograms hold only what no stat
records — header-prediction hits and misses, interrupts, ATM transmit
stalls, context switches, IP-queue depth and wait, wakeup latency and
the chaos/fuzz injections — on their host's :class:`ScopedMetrics`
view.  All views share one :class:`MetricsRegistry`, so a run's numbers
export together.

Every live instrumentation point is guarded by an ``is not None`` check
on its ``metrics`` attribute, so the default (unobserved) run pays a
single attribute read per site.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "ScopedMetrics", "DEFAULT_BUCKETS_US"]

#: Default histogram buckets, tuned for microsecond latencies (the
#: paper's spans run from ~1 us to ~10 ms).
DEFAULT_BUCKETS_US: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value; also tracks the maximum ever set."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def set_max(self, value: float) -> None:
        """Raise the gauge to *value* if it is a new high-water mark."""
        if value > self.value:
            self.set(value)

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value} max={self.max_value}>"


class Histogram:
    """Fixed upper-bound buckets plus count/sum (Prometheus-style).

    ``counts[i]`` is the number of observations ``<= bounds[i]``
    (non-cumulative); observations beyond the last bound land in the
    implicit overflow bucket ``counts[-1]``.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_BUCKETS_US):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted, non-empty")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return (f"<Histogram {self.name} n={self.count} "
                f"mean={self.mean:.1f}>")


class MetricsRegistry:
    """All metrics of one observed run, keyed by dotted name.

    Host-level instrumentation goes through :meth:`scope`, which
    prefixes names (``client.tcp.predict.hit``) while sharing this
    registry, so one export covers every host on the testbed.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Creation / lookup
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BUCKETS_US
                  ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, bounds)
        return h

    # ------------------------------------------------------------------
    # One-shot conveniences (what instrumentation sites call)
    # ------------------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def set_max(self, name: str, value: float) -> None:
        self.gauge(name).set_max(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def scope(self, prefix: str) -> "ScopedMetrics":
        """A view that prefixes every name with ``prefix + '.'``."""
        return ScopedMetrics(self, prefix)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def value(self, name: str) -> Optional[float]:
        """The current value of a counter or gauge (None if unknown)."""
        if name in self._counters:
            return float(self._counters[name].value)
        if name in self._gauges:
            return self._gauges[name].value
        return None

    def snapshot(self) -> dict:
        """A plain-data dump, JSON-serializable as-is."""
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: {"value": g.value, "max": g.max_value}
                       for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {"count": h.count, "sum": h.total, "mean": h.mean,
                    "bounds": list(h.bounds), "counts": list(h.counts)}
                for n, h in sorted(self._histograms.items())
            },
        }

    def format_text(self) -> str:
        """The plain-text metrics dump (``python -m repro metrics``)."""
        lines: List[str] = []
        if self._counters:
            lines.append("== counters ==")
            for name, c in sorted(self._counters.items()):
                lines.append(f"{name:<44} {c.value}")
        if self._gauges:
            lines.append("== gauges ==")
            for name, g in sorted(self._gauges.items()):
                lines.append(f"{name:<44} {g.value:g} (max {g.max_value:g})")
        if self._histograms:
            lines.append("== histograms ==")
            for name, h in sorted(self._histograms.items()):
                lines.append(f"{name:<44} count={h.count} "
                             f"sum={h.total:.1f} mean={h.mean:.1f}")
                if h.count:
                    cells = [f"<={b:g}:{n}" for b, n
                             in zip(h.bounds, h.counts) if n]
                    if h.counts[-1]:
                        cells.append(f">{h.bounds[-1]:g}:{h.counts[-1]}")
                    lines.append(f"    {' '.join(cells)}")
        return "\n".join(lines)


class ScopedMetrics:
    """A named-prefix view of a :class:`MetricsRegistry`.

    Hosts hold one of these as ``host.metrics`` so stack code can write
    ``m.inc("atm.interrupts")`` and land on ``client.atm.interrupts``.
    """

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str):
        self.registry = registry
        self.prefix = prefix.rstrip(".") + "." if prefix else ""

    def inc(self, name: str, n: int = 1) -> None:
        self.registry.inc(self.prefix + name, n)

    def set_gauge(self, name: str, value: float) -> None:
        self.registry.set_gauge(self.prefix + name, value)

    def set_max(self, name: str, value: float) -> None:
        self.registry.set_max(self.prefix + name, value)

    def observe(self, name: str, value: float) -> None:
        self.registry.observe(self.prefix + name, value)

    def counter(self, name: str) -> Counter:
        return self.registry.counter(self.prefix + name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(self.prefix + name)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BUCKETS_US
                  ) -> Histogram:
        return self.registry.histogram(self.prefix + name, bounds)
