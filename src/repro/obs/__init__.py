"""Unified observability for the simulated stack.

One pipeline behind all instrumentation, mirroring the paper's method
of reading a 40 ns clock at layer boundaries — but exportable:

* :mod:`repro.obs.hooks` — the :class:`SimHooks` protocol the CPU
  model fires from ``CPU.hooks`` (``None`` = zero overhead);
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms;
* :mod:`repro.obs.observer` — the :class:`Observer` that attaches to a
  testbed, accumulates slices, spans and packets, and publishes the
  stack's own stats objects as metrics;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto),
  JSONL streams, plain-text and CSV dumps;
* :mod:`repro.obs.lineage` — causal packet lineage: every user write,
  TCP segment and socket delivery gets a record whose events trace the
  bytes through mbuf copies, segmentation, IP, the driver, the wire,
  the receive interrupt, IPQ, the socket wakeup and the user copy;
* :mod:`repro.obs.flow` — per-connection flow telemetry (cwnd, rtt
  estimators, retransmit state) sampled at TCP state transitions;
* :mod:`repro.obs.explain` — the ``repro explain`` waterfall: one
  RTT decomposed into per-layer spans that sum to the measured time.

Quick use::

    from repro.obs import Observer, write_chrome_trace
    from repro.core.experiment import run_round_trip

    obs = Observer()
    run_round_trip(size=8000, observer=obs)
    write_chrome_trace(obs, "t2.json")   # open in ui.perfetto.dev

Import note: this ``__init__`` imports only the modules with no
dependency on the simulation kernel (hooks, metrics), so importing
:mod:`repro.obs` stays cheap; the rest load lazily.
"""

from repro.obs.hooks import SimHooks
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ScopedMetrics,
)

__all__ = [
    "SimHooks",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "ScopedMetrics",
    "Observer", "CpuTraceHooks",
    "chrome_trace", "write_chrome_trace", "trace_jsonl", "write_jsonl",
    "metrics_text", "metrics_csv", "span_table",
    "LineageRecorder", "FlowTelemetry",
    "run_traced", "explain_rtt", "write_rtt_trace", "diff_runs",
    "format_diff",
]

_LAZY = {
    "Observer": "repro.obs.observer",
    "CpuTraceHooks": "repro.obs.observer",
    "chrome_trace": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "trace_jsonl": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
    "metrics_text": "repro.obs.export",
    "metrics_csv": "repro.obs.export",
    "span_table": "repro.obs.export",
    "LineageRecorder": "repro.obs.lineage",
    "FlowTelemetry": "repro.obs.flow",
    "run_traced": "repro.obs.explain",
    "explain_rtt": "repro.obs.explain",
    "write_rtt_trace": "repro.obs.explain",
    "diff_runs": "repro.obs.explain",
    "format_diff": "repro.obs.explain",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value
