"""``repro bench``: the persistent performance regression harness.

Measures the hot layers of the reproduction —

* raw event-loop dispatch (deep and shallow queues),
* CPU-model job throughput (with preemption traffic),
* Internet-checksum bandwidth,
* mbuf chain build/free churn (exercises the free list),
* PCB demultiplexing, list vs hash, at 1, 20 and 1000 entries,
* the per-ACK retransmit-timer re-arm (cancel + schedule) with 1000
  resident connections,
* full-stack round-trip wall time,
* Table 1 regeneration wall time, and
* connection-scale closed-loop RPC workloads (events/s on the hash-PCB
  kernel at 100, 1000 and 10000 concurrent connections, and on the
  paper's list-PCB kernel at 1000) —

writes ``BENCH_<label>.json`` at the current directory, and compares
against a committed **per-path** baseline: ``benchmarks/baseline.json``
for the pure interpreter and ``benchmarks/baseline_native.json`` for
the compiled core (a compiled run compared against a pure baseline is
a multi-x gap, not a signal).  The committed baselines are the repo's
perf trajectory: update the matching one (``repro bench --label
baseline`` and copy the metrics in) whenever a PR deliberately moves
the numbers.

Wall-clock reads here are deliberate (this *is* the wall-time
harness) and never feed back into simulated time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List, Optional

import repro.perf.native as _native_dispatch
from repro.kern.config import KernelConfig, PcbLookup
from repro.sim.engine import Simulator

__all__ = ["run_benchmarks", "compare_to_baseline", "write_report",
           "format_report", "DEFAULT_TOLERANCE_PCT"]

#: Regressions within this band are noise on shared CI runners.
DEFAULT_TOLERANCE_PCT = 20.0

#: Metric-name suffix -> whether larger values are better.
_HIGHER_IS_BETTER_SUFFIX = "_per_sec"


# ----------------------------------------------------------------------
# Individual measurements
# ----------------------------------------------------------------------
def bench_eventloop_deep(events: int = 200_000, depth: int = 512) -> float:
    """Events/sec with *depth* timers outstanding (realistic heap)."""
    sim = Simulator()
    remaining = [events]

    def cb() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(1_000 + (remaining[0] % 97) * 13, cb)

    for i in range(depth):
        sim.schedule(i * 7 + 5, cb)
    start = time.perf_counter()  # repro: allow(wall-clock)
    sim.run()
    elapsed = time.perf_counter() - start  # repro: allow(wall-clock)
    return (events + depth) / elapsed


def bench_eventloop_shallow(events: int = 200_000) -> float:
    """Events/sec with a single self-rescheduling callback."""
    sim = Simulator()
    remaining = [events]

    def cb() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(10, cb)

    sim.schedule(0, cb)
    start = time.perf_counter()  # repro: allow(wall-clock)
    sim.run()
    elapsed = time.perf_counter() - start  # repro: allow(wall-clock)
    return events / elapsed


def bench_cpu_jobs(jobs: int = 30_000) -> float:
    """CPU-model jobs/sec: sequential kernel work with periodic
    hardware-interrupt preemption traffic."""
    from repro.sim.cpu import CPU, Priority

    def warm():  # untimed: specialize the hot bytecode paths first
        wsim = Simulator()
        wcpu = CPU(wsim)

        def wproc():
            for _ in range(2_000):
                yield wcpu.run(1_000, Priority.KERNEL, "warm")

        wsim.run_until_triggered(wsim.process(wproc()))

    warm()
    sim = Simulator()
    cpu = CPU(sim)

    def worker():
        for _ in range(jobs):
            yield cpu.run(1_000, Priority.KERNEL, "work")

    def interrupts():
        # One interrupt per ~8 jobs, arriving mid-job to force the
        # preempt/resume path the paper's receive side lives on.
        for _ in range(jobs // 8):
            yield 8_500
            yield cpu.run(300, Priority.HARD_INTR, "intr")

    done = sim.process(worker())
    sim.process(interrupts())
    start = time.perf_counter()  # repro: allow(wall-clock)
    sim.run_until_triggered(done)
    elapsed = time.perf_counter() - start  # repro: allow(wall-clock)
    return cpu.jobs_completed / elapsed


def bench_checksum(nbytes: int = 8192, rounds: int = 2_000) -> float:
    """Functional Internet-checksum bandwidth in MB/s."""
    from repro.checksum.internet import raw_sum

    data = bytes(i & 0xFF for i in range(nbytes))
    raw_sum(data)  # untimed warmup: triggers the lazy numpy import
    start = time.perf_counter()  # repro: allow(wall-clock)
    for _ in range(rounds):
        raw_sum(data)
    elapsed = time.perf_counter() - start  # repro: allow(wall-clock)
    return nbytes * rounds / elapsed / 1e6


def bench_mbuf_churn(rounds: int = 4_000) -> float:
    """Chain build+free cycles/sec (free-list hot path)."""
    from repro.hw import decstation_5000_200
    from repro.mem.mbuf import MbufPool

    pool = MbufPool(decstation_5000_200())
    data = bytes(500)
    start = time.perf_counter()  # repro: allow(wall-clock)
    for _ in range(rounds):
        chain, _cost = pool.build_chain(data, use_clusters=False)
        pool.free_chain(chain)
    elapsed = time.perf_counter() - start  # repro: allow(wall-clock)
    return rounds / elapsed


def bench_pcb_lookup(mode: str, entries: int) -> float:
    """Lookups/sec against a table of *entries* connected PCBs.

    Cache disabled so every call hits the configured structure; the
    target is the oldest (tail) PCB, the full-scan worst case of the
    §3 Table 4 points (1 / 20 / 1000 entries).
    """
    from repro.hw import decstation_5000_200
    from repro.tcp.pcb import PCB, PCBTable

    table = PCBTable(decstation_5000_200(),
                     mode=PcbLookup.HASH if mode == "hash"
                     else PcbLookup.LIST,
                     cache_enabled=False)
    for i in range(entries):
        table.insert(PCB(0x0A000001, 5000 + i, 0x0A000002, 6000 + i))
    target = table.pcbs[-1]
    key = (target.local_ip, target.local_port,
           target.remote_ip, target.remote_port)
    lookup = table.lookup
    lookup(*key)  # untimed warmup
    rounds = max(1_000, 20_000 // entries)
    start = time.perf_counter()  # repro: allow(wall-clock)
    for _ in range(rounds):
        lookup(*key)
    elapsed = time.perf_counter() - start  # repro: allow(wall-clock)
    return rounds / elapsed


def bench_timer_rearm(conns: int = 1000, ops: int = 200_000) -> float:
    """Re-arms/sec of the per-ACK retransmit-timer pattern with *conns*
    resident connections.

    Every ACK pushes the retransmit timer out by a full RTO, so the arm
    operation (not the expiry) is the hot path: a cancel plus a fresh
    schedule, as in ``TCPConnection`` (one heap push and one cancelled
    tombstone per ACK).
    """
    sim = Simulator()
    delay = 1_500_000_000  # a 1.5 s RTO, always re-armed before expiry

    def noop() -> None:
        pass

    warmup = min(20_000, ops)  # untimed: specialize the hot bytecode
    calls = [sim.schedule(delay, noop) for _ in range(conns)]
    schedule = sim.schedule
    for i in range(warmup):
        j = i % conns
        calls[j].cancel()
        calls[j] = schedule(delay, noop)
    start = time.perf_counter()  # repro: allow(wall-clock)
    for i in range(ops):
        j = i % conns
        calls[j].cancel()
        calls[j] = schedule(delay, noop)
    elapsed = time.perf_counter() - start  # repro: allow(wall-clock)
    return ops / elapsed


def bench_conn_scale(connections: int, pcb_lookup: PcbLookup,
                     rounds: int = 2) -> float:
    """Simulated events dispatched per wall second for an
    N-connection closed-loop RPC workload on the kernel with
    *pcb_lookup* demultiplexing.

    The workload (``repro.core.workloads.run_connection_scale``) ramps
    every connection up, holds all N open, then runs the RPC rounds
    through a bounded window — so the number measures per-connection
    kernel costs against full PCB tables, not queue-overflow recovery.
    """
    from repro.core.workloads import run_connection_scale

    config = KernelConfig(pcb_lookup=pcb_lookup)
    start = time.perf_counter()  # repro: allow(wall-clock)
    result = run_connection_scale(connections, rounds=rounds,
                                  config=config)
    elapsed = time.perf_counter() - start  # repro: allow(wall-clock)
    if result.completed != connections:
        raise RuntimeError(
            f"conn_scale_{connections}: only {result.completed} of "
            f"{connections} connections completed")
    return result.events_executed / elapsed


def bench_rtt_wall(size: int = 1400, iterations: int = 6,
                   warmup: int = 2, repeats: int = 5) -> float:
    """Wall ms for one full-stack round-trip benchmark point (best of
    *repeats*, so a background hiccup cannot fake a regression)."""
    from repro.core.experiment import run_round_trip

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()  # repro: allow(wall-clock)
        run_round_trip(size=size, iterations=iterations, warmup=warmup)
        elapsed = time.perf_counter() - start  # repro: allow(wall-clock)
        best = min(best, elapsed)
    return best * 1e3


def bench_table1_regen(iterations: int = 6, warmup: int = 2) -> float:
    """Wall seconds for a Table 1 regeneration (both networks, all
    eight paper sizes)."""
    from repro.core.experiment import run_sweep

    start = time.perf_counter()  # repro: allow(wall-clock)
    run_sweep("atm", iterations=iterations, warmup=warmup)
    run_sweep("ethernet", iterations=iterations, warmup=warmup)
    return time.perf_counter() - start  # repro: allow(wall-clock)


def run_benchmarks(quick: bool = False) -> Dict[str, float]:
    """Run the full suite; ``quick`` halves the event-loop workloads
    and trims repeats for CI.  Workload sizes otherwise stay identical
    to the full run so throughput numbers remain comparable to a
    baseline captured without ``--quick``."""
    scale = 2 if quick else 1
    metrics = {
        "eventloop_deep_events_per_sec":
            bench_eventloop_deep(events=200_000 // scale),
        "eventloop_shallow_events_per_sec":
            bench_eventloop_shallow(events=200_000 // scale),
        "cpu_jobs_per_sec": bench_cpu_jobs(),
        "checksum_mb_per_sec": bench_checksum(),
        "mbuf_churn_rounds_per_sec": bench_mbuf_churn(),
        "rtt_1400_wall_ms": bench_rtt_wall(repeats=5 if not quick else 3),
        "table1_cold_serial_wall_s": bench_table1_regen(),
    }
    # The §3 Table 4 demux points: both structures at 1/20/1000 PCBs.
    for mode in ("list", "hash"):
        for entries in (1, 20, 1000):
            metrics[f"pcb_lookup_{mode}_{entries}_per_sec"] = \
                bench_pcb_lookup(mode, entries)
    # Retransmit-timer re-arm hot path, 1000 resident connections.
    metrics["timer_rearm_faithful_per_sec"] = \
        bench_timer_rearm(ops=200_000 // scale)
    # Connection-scale closed-loop workloads: the hash-PCB kernel §3
    # suggests at the three population sizes, plus the paper's list-PCB
    # kernel at 1000.
    metrics["conn_scale_100_events_per_sec"] = \
        bench_conn_scale(100, PcbLookup.HASH)
    metrics["conn_scale_1000_events_per_sec"] = \
        bench_conn_scale(1000, PcbLookup.HASH)
    metrics["conn_scale_1000_faithful_events_per_sec"] = \
        bench_conn_scale(1000, PcbLookup.LIST)
    if not quick:
        # ~1.7M simulated events; full runs only (minutes on the pure
        # interpreter).
        metrics["conn_scale_10000_events_per_sec"] = \
            bench_conn_scale(10_000, PcbLookup.HASH, rounds=1)
    return metrics


# ----------------------------------------------------------------------
# Baseline comparison + report
# ----------------------------------------------------------------------
def compare_to_baseline(metrics: Dict[str, float],
                        baseline: Dict[str, float],
                        tolerance_pct: float = DEFAULT_TOLERANCE_PCT,
                        ) -> List[dict]:
    """Per-metric deltas vs *baseline*; ``regressed`` honors the
    metric's direction (throughput up = good, wall time down = good)."""
    rows = []
    for name, value in metrics.items():
        old = baseline.get(name)
        if old is None or old == 0:
            continue
        higher_is_better = name.endswith(_HIGHER_IS_BETTER_SUFFIX)
        change_pct = (value - old) / old * 100.0
        gain_pct = change_pct if higher_is_better else -change_pct
        rows.append({
            "metric": name,
            "baseline": old,
            "value": value,
            "change_pct": round(change_pct, 1),
            "regressed": gain_pct < -tolerance_pct,
        })
    return rows


def write_report(metrics: Dict[str, float], label: str,
                 out_path: Optional[str] = None,
                 baseline_path: Optional[str] = None,
                 tolerance_pct: float = DEFAULT_TOLERANCE_PCT) -> dict:
    """Assemble the report document and write ``BENCH_<label>.json``."""
    path_meta = _native_dispatch.describe()
    comparison = None
    if baseline_path and os.path.exists(baseline_path):
        with open(baseline_path, "r", encoding="utf-8") as fh:
            base_doc = json.load(fh)
        comparison = {
            "baseline_path": baseline_path,
            "baseline_label": base_doc.get("label", "?"),
            "tolerance_pct": tolerance_pct,
        }
        base_native = bool(base_doc.get("native", False))
        if base_native != path_meta["native"]:
            # A compiled run vs a pure baseline (or vice versa) is an
            # expected multi-x gap, not a regression signal: warn and
            # skip the tolerance comparison entirely.
            comparison["rows"] = []
            comparison["path_mismatch"] = (
                f"baseline ran {'native' if base_native else 'pure'}, "
                f"this run is "
                f"{'native' if path_meta['native'] else 'pure'}")
        else:
            comparison["rows"] = compare_to_baseline(
                metrics, base_doc.get("metrics", {}), tolerance_pct)
    doc = {
        "label": label,
        # Report metadata only; never feeds simulated time.
        "created_unix": int(time.time()),  # repro: allow(wall-clock)
        "python": sys.version.split()[0],
        "implementation": path_meta["implementation"],
        "native": path_meta["native"],
        "metrics": {k: round(v, 3) for k, v in metrics.items()},
        "comparison": comparison,
    }
    out_path = out_path or os.path.join(os.getcwd(),
                                        f"BENCH_{label}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    doc["out_path"] = out_path
    return doc


def format_report(doc: dict) -> str:
    """Human-readable dump of a report document."""
    path = "native" if doc.get("native") else "pure"
    lines = [f"repro bench [{doc['label']}] python {doc['python']} "
             f"({path})"]
    for name, value in sorted(doc["metrics"].items()):
        lines.append(f"  {name:<34} {value:>14,.1f}")
    comparison = doc.get("comparison")
    if comparison and comparison.get("path_mismatch"):
        lines.append(f"  WARNING: not compared to "
                     f"{comparison['baseline_path']}: "
                     f"{comparison['path_mismatch']}")
        lines.append(f"  report -> {doc.get('out_path', '?')}")
        return "\n".join(lines)
    if comparison:
        lines.append(f"  vs {comparison['baseline_path']} "
                     f"(label={comparison['baseline_label']}, "
                     f"tolerance {comparison['tolerance_pct']:.0f}%):")
        regressions = 0
        for row in comparison["rows"]:
            mark = "  "
            if row["regressed"]:
                mark = "!!"
                regressions += 1
            lines.append(
                f"  {mark}{row['metric']:<32} "
                f"{row['baseline']:>12,.1f} -> {row['value']:>12,.1f} "
                f"({row['change_pct']:+.1f}%)")
        if regressions:
            lines.append(f"  WARNING: {regressions} metric(s) regressed "
                         f"beyond tolerance")
        else:
            lines.append("  OK: within tolerance of baseline")
    lines.append(f"  report -> {doc.get('out_path', '?')}")
    return "\n".join(lines)
