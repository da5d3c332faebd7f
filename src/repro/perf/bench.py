"""``repro bench``: exact work counters of six fixed runs.

The simulator is deterministic, so the work a run does is an exact
count, not a noisy sample.  :func:`collect` runs the six workloads of
:data:`RUNS` and reads counters that the finished testbed already
keeps; no counter is added to the engine or to any hot path.

``benchmarks/counts.json`` commits the result and
``tests/test_perf_bench.py`` holds every fresh collection to it, run by
run and counter by counter.  A change that moves a count rewrites the
file with ``python -m repro bench > benchmarks/counts.json`` and says
why in CHANGES.md.  Wall time is perfbench's job (``perfbench/``).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.chaos import ImpairmentConfig, Impairments
from repro.core.experiment import RoundTripBenchmark
from repro.core.testbed import Testbed, build_atm_pair, build_ethernet_pair
from repro.core.workloads import run_connection_scale

__all__ = ["RUNS", "counters", "collect"]


def _round_trips(build: Callable[..., Testbed], size: int,
                 iterations: int = 8,
                 p_drop: float = 0.0) -> Callable[[], Testbed]:
    """The echo benchmark, unobserved: *iterations* measured round trips
    after 2 warmup."""
    def run() -> Testbed:
        impairments = (Impairments(ImpairmentConfig(seed=1994,
                                                    p_drop=p_drop))
                       if p_drop else None)
        tb = build(impairments=impairments)
        RoundTripBenchmark(tb, size, iterations=iterations,
                           warmup=2).run()
        return tb
    return run


def _conn_scale_100() -> Testbed:
    """100 held-open connections on the paper's list-PCB kernel."""
    return run_connection_scale(100).testbed


#: Run name -> a function that performs the run and returns its
#: finished testbed.
RUNS: Dict[str, Callable[[], Testbed]] = {
    "atm_4": _round_trips(build_atm_pair, 4),
    "atm_1400": _round_trips(build_atm_pair, 1400),
    "atm_8000": _round_trips(build_atm_pair, 8000),
    "ethernet_1400": _round_trips(build_ethernet_pair, 1400),
    # 40 iterations at 2% wire loss: six retransmits.
    "ethernet_1400_loss2": _round_trips(build_ethernet_pair, 1400,
                                        iterations=40, p_drop=0.02),
    "conn_scale_100": _conn_scale_100,
}


def counters(tb: Testbed) -> Dict[str, int]:
    """The work a finished run did, summed over both hosts."""
    hosts = tb.hosts
    return {
        "events_executed": tb.sim.events_executed,
        "cpu_jobs": sum(h.cpu.jobs_completed for h in hosts),
        "cpu_preemptions": sum(h.cpu.preemptions for h in hosts),
        "mbufs_allocated": sum(h.pool.allocated for h in hosts),
        "atm_cells": sum(getattr(h.interface.stats, "cells_sent", 0)
                         for h in hosts),
        "tcp_segs_received": sum(h.tcp.stats.segs_received
                                 for h in hosts),
        "tcp_retransmits": sum(h.tcp.connection_stats().retransmits
                               for h in hosts),
        "pcb_entries_scanned": sum(h.tcp.pcbs.entries_scanned
                                   for h in hosts),
    }


def collect() -> Dict[str, Dict[str, int]]:
    """Run name -> counters, for every run in :data:`RUNS`."""
    return {name: counters(run()) for name, run in RUNS.items()}
