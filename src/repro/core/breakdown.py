"""Transmit/receive latency breakdowns (Tables 2 and 3).

The harness runs the round-trip benchmark and aggregates the kernel's
span instrumentation per transfer: the client's transmit-side spans form
Table 2 rows, the server's receive-side spans form Table 3 rows.  Spans
are per-transfer *sums* (a two-segment 8000-byte transfer contributes
both segments), which matches the paper everywhere except some rows of
its 8000-byte receive column — see EXPERIMENTS.md for the attribution
discussion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.experiment import PAPER_SIZES, RoundTripResult, run_round_trip
from repro.hw.costs import MachineCosts
from repro.kern.config import KernelConfig

__all__ = ["TransmitBreakdown", "ReceiveBreakdown", "measure_breakdowns",
           "breakdowns_from_results", "breakdown_from_lineage"]

#: Span-name mapping for the transmit side (Table 2 row -> span).
TX_SPANS = {
    "user": "tx.user",
    "checksum": "tx.tcp.checksum",
    "mcopy": "tx.tcp.mcopy",
    "segment": "tx.tcp.segment",
    "ip": "tx.ip",
    "atm": "tx.atm",
}

#: Span-name mapping for the receive side (Table 3 row -> span).
RX_SPANS = {
    "atm": "rx.atm",
    "ipq": "rx.ipq",
    "ip": "rx.ip",
    "checksum": "rx.tcp.checksum",
    "segment": "rx.tcp.segment",
    "wakeup": "rx.wakeup",
    "user": "rx.user",
}


@dataclass
class TransmitBreakdown:
    """One Table 2 column: per-transfer transmit-side costs (µs)."""

    size: int
    user: float
    checksum: float
    mcopy: float
    segment: float
    ip: float
    atm: float

    @property
    def tcp_total(self) -> float:
        return self.checksum + self.mcopy + self.segment

    @property
    def total(self) -> float:
        return (self.user + self.tcp_total + self.ip + self.atm)

    def row(self, name: str) -> float:
        if name == "total":
            return self.total
        return getattr(self, name)


@dataclass
class ReceiveBreakdown:
    """One Table 3 column: per-transfer receive-side costs (µs)."""

    size: int
    atm: float
    ipq: float
    ip: float
    checksum: float
    segment: float
    wakeup: float
    user: float

    @property
    def tcp_total(self) -> float:
        return self.checksum + self.segment

    @property
    def total(self) -> float:
        return (self.atm + self.ipq + self.ip + self.tcp_total
                + self.wakeup + self.user)

    def row(self, name: str) -> float:
        if name == "total":
            return self.total
        return getattr(self, name)


def _span_maps(network: str):
    """The Table 2 and 3 row -> span maps; Ethernet has its own link spans."""
    if network == "ethernet":
        return ({**TX_SPANS, "atm": "tx.ether"},
                {**RX_SPANS, "atm": "rx.ether"})
    return TX_SPANS, RX_SPANS


def breakdowns_from_results(results: Iterable[RoundTripResult],
                            network: str = "atm"):
    """(tx_rows, rx_rows), one column per round-trip result."""
    tx_spans, rx_spans = _span_maps(network)
    tx_rows: List[TransmitBreakdown] = []
    rx_rows: List[ReceiveBreakdown] = []
    for result in results:
        tx_rows.append(TransmitBreakdown(size=result.size, **{
            row: result.span_per_transfer("client", span)
            for row, span in tx_spans.items()
        }))
        rx_rows.append(ReceiveBreakdown(size=result.size, **{
            row: result.span_per_transfer("server", span)
            for row, span in rx_spans.items()
        }))
    return tx_rows, rx_rows


def measure_breakdowns(sizes: Optional[List[int]] = None,
                       config: Optional[KernelConfig] = None,
                       costs: Optional[MachineCosts] = None,
                       network: str = "atm",
                       iterations: int = 8, warmup: int = 2):
    """Run the benchmark per size and return (tx_rows, rx_rows)."""
    sizes = sizes if sizes is not None else PAPER_SIZES
    return breakdowns_from_results(
        [run_round_trip(size=size, network=network, config=config,
                        costs=costs, iterations=iterations, warmup=warmup)
         for size in sizes], network)


def breakdown_from_lineage(recorder, size: int, iterations: int,
                           network: str = "atm",
                           client: str = "client",
                           server: str = "server"):
    """Derive the Table 2/3 columns from a causal-lineage recorder.

    *recorder* is the :class:`repro.obs.lineage.LineageRecorder` of an
    observed round-trip run (``Observer(lineage=True)``); its global
    event log aggregated per host reproduces the SpanTracer's
    float-summation order, so the returned rows are byte-for-byte equal
    to what :func:`measure_breakdowns` computes from the span totals of
    the very same run.
    """
    tx_spans, rx_spans = _span_maps(network)
    client_totals = recorder.aggregate(host=client)
    server_totals = recorder.aggregate(host=server)
    tx = TransmitBreakdown(size=size, **{
        row: client_totals.get(span, 0.0) / iterations
        for row, span in tx_spans.items()
    })
    rx = ReceiveBreakdown(size=size, **{
        row: server_totals.get(span, 0.0) / iterations
        for row, span in rx_spans.items()
    })
    return tx, rx
