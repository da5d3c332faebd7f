"""Exporters: Chrome ``trace_event`` JSON, JSONL streams, text dumps.

Three ways out of an :class:`~repro.obs.observer.Observer`:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` format (one JSON object with a ``traceEvents``
  array), loadable in ``chrome://tracing`` or https://ui.perfetto.dev.
  Each simulated host is a "process"; each CPU context
  (hard_intr > soft_intr > kernel > user) is a "thread", so interrupt
  preemption renders as nested timeline slices; the paper's latency
  spans (``tx.user``, ``rx.ipq``, ...) get their own lane.
* :func:`trace_jsonl` / :func:`write_jsonl` — one JSON object per
  line: every trace event, then the metrics snapshot and per-host span
  aggregates, for ad-hoc ``jq``/pandas analysis.
* :func:`metrics_text` — the plain-text dump behind
  ``python -m repro metrics``: counters, gauges, histograms, and the
  per-host span table in the paper's microseconds.
"""

from __future__ import annotations

import json
from typing import Iterator, List

__all__ = ["chrome_trace", "write_chrome_trace", "trace_jsonl",
           "write_jsonl", "metrics_text", "metrics_csv", "span_table"]


def _sorted_events(observer) -> List[dict]:
    """Trace events sorted by timestamp (metadata first), stably.

    Chrome's importer tolerates unsorted input but Perfetto warns and
    per-tid slice queries want non-decreasing ``ts``; sorting here also
    gives exporters a deterministic byte stream for identical runs.
    """
    metadata = [e for e in observer.trace_events if e.get("ph") == "M"]
    rest = [e for e in observer.trace_events if e.get("ph") != "M"]
    rest.sort(key=lambda e: e["ts"])  # stable: ties keep emit order
    return metadata + rest


def chrome_trace(observer) -> dict:
    """The full ``trace_event`` document for one observed run."""
    return {
        "traceEvents": _sorted_events(observer),
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "clock": "simulated-ns (ts in us)",
        },
    }


def write_chrome_trace(observer, path: str) -> int:
    """Write the Chrome trace JSON; returns the number of events."""
    doc = chrome_trace(observer)
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return len(doc["traceEvents"])


def trace_jsonl(observer) -> Iterator[str]:
    """Yield the run as JSON lines: events, then summary records."""
    for event in _sorted_events(observer):
        yield json.dumps({"type": "event", **event},
                         separators=(",", ":"))
    yield json.dumps({"type": "metrics", **observer.metrics.snapshot()},
                     separators=(",", ":"))
    for host_name, spans in sorted(observer.spans.items()):
        yield json.dumps({"type": "spans", "host": host_name,
                          "spans": spans}, separators=(",", ":"))


def write_jsonl(observer, path: str) -> int:
    """Write the JSONL event stream; returns the number of lines."""
    n = 0
    with open(path, "w") as fh:
        for line in trace_jsonl(observer):
            fh.write(line)
            fh.write("\n")
            n += 1
    return n


def span_table(observer) -> str:
    """Per-host span aggregates formatted like the paper's tables."""
    lines: List[str] = []
    for host_name, spans in sorted(observer.spans.items()):
        lines.append(f"== spans: {host_name} ==")
        lines.append(f"{'span':<24} {'count':>6} {'mean_us':>9} "
                     f"{'min_us':>9} {'max_us':>9} {'total_us':>10}")
        for name in sorted(spans):
            s = spans[name]
            lines.append(
                f"{name:<24} {s['count']:>6} {s['mean_us']:>9.1f} "
                f"{s['min_us']:>9.1f} {s['max_us']:>9.1f} "
                f"{s['total_us']:>10.1f}")
    return "\n".join(lines)


def metrics_csv(observer) -> str:
    """Metrics and span aggregates as flat CSV (``metrics --format=csv``).

    One row per datum: ``kind,name,field,value``.  Counters get a
    single ``value`` row; gauges get ``value`` and ``max``; histograms
    get ``count``/``sum``/``mean``; spans are scoped ``host.span`` names
    with the aggregate's five statistics.  Keys are sorted, so the byte
    stream is deterministic for identical runs.
    """
    snap = observer.metrics.snapshot()
    rows: List[str] = ["kind,name,field,value"]

    def emit(kind: str, name: str, field: str, value) -> None:
        rows.append(f"{kind},{name},{field},{value:g}")

    for name, value in snap["counters"].items():
        emit("counter", name, "value", value)
    for name, g in snap["gauges"].items():
        emit("gauge", name, "value", g["value"])
        emit("gauge", name, "max", g["max"])
    for name, h in snap["histograms"].items():
        emit("histogram", name, "count", h["count"])
        emit("histogram", name, "sum", h["sum"])
        emit("histogram", name, "mean", h["mean"])
    for host_name, spans in sorted(observer.spans.items()):
        for span_name in sorted(spans):
            s = spans[span_name]
            for field in ("count", "mean_us", "min_us", "max_us",
                          "total_us"):
                emit("span", f"{host_name}.{span_name}", field, s[field])
    return "\n".join(rows)


def metrics_text(observer) -> str:
    """The complete plain-text dump: metrics plus span tables."""
    parts = [observer.metrics.format_text()]
    spans = span_table(observer)
    if spans:
        parts.append(spans)
    return "\n".join(p for p in parts if p)
