"""One-call reproduction validation: run everything, score every table.

``validate_reproduction()`` regenerates each of the paper's artifacts
and grades it against the published numbers with per-artifact criteria
(orderings, crossovers, tolerances — the same ones the benchmark suite
asserts).  The result feeds the CLI's ``summary`` section and the
repository's final self-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.core import paperdata
from repro.core.experiment import PAPER_SIZES, run_sweep
from repro.core.microbench import (
    copy_checksum_bench,
    mbuf_alloc_bench,
    pcb_search_bench,
)
from repro.core.report import pct_change
from repro.kern.config import ChecksumMode, KernelConfig

__all__ = ["ArtifactScore", "ValidationReport", "validate_reproduction"]


@dataclass
class ArtifactScore:
    """Outcome for one paper artifact."""

    artifact: str
    passed: bool
    max_abs_deviation_pct: float
    notes: str = ""


@dataclass
class ValidationReport:
    scores: List[ArtifactScore] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.scores)

    def format(self) -> str:
        lines = ["Reproduction validation", "-" * 56]
        for s in self.scores:
            mark = "PASS" if s.passed else "FAIL"
            lines.append(f"[{mark}] {s.artifact:<28} "
                         f"max dev {s.max_abs_deviation_pct:5.1f}%"
                         + (f"  ({s.notes})" if s.notes else ""))
        return "\n".join(lines)


def _sweep(config=None, network="atm", iterations=6, warmup=2):
    results = run_sweep(network, config, iterations=iterations,
                        warmup=warmup)
    return {s: r.mean_rtt_us for s, r in results.items()}


def _max_dev(measured: Dict[int, float],
             paper: Dict[int, float]) -> float:
    return max(abs(measured[s] / paper[s] - 1) * 100 for s in paper)


def validate_reproduction(iterations: int = 6,
                          warmup: int = 2) -> ValidationReport:
    """Regenerate and grade every table; ~10 s of wall-clock time."""
    report = ValidationReport()
    atm = _sweep(iterations=iterations, warmup=warmup)
    eth = _sweep(network="ethernet", iterations=iterations, warmup=warmup)

    # Table 1 ------------------------------------------------------------
    dev = max(_max_dev(atm, paperdata.TABLE1_ATM_RTT),
              _max_dev(eth, paperdata.TABLE1_ETHERNET_RTT))
    wins = all(atm[s] < eth[s] for s in PAPER_SIZES)
    report.scores.append(ArtifactScore(
        "Table 1 (ATM vs Ethernet)", passed=wins and dev <= 20,
        max_abs_deviation_pct=dev,
        notes="ATM wins at every size" if wins else "ordering broken"))

    # Table 4 ------------------------------------------------------------
    nopred = _sweep(config=KernelConfig(header_prediction=False),
                    iterations=iterations, warmup=warmup)
    savings = [pct_change(nopred[s], atm[s]) for s in PAPER_SIZES]
    ok = all(-1.0 <= s <= 10.0 for s in savings)
    report.scores.append(ArtifactScore(
        "Table 4 (header prediction)", passed=ok,
        max_abs_deviation_pct=max(abs(s) for s in savings),
        notes="small, never harmful"))

    # Table 5 ------------------------------------------------------------
    points = copy_checksum_bench()
    dev5 = 0.0
    for p in points:
        paper = paperdata.TABLE5_COPY_CHECKSUM[p.size]
        for measured, expected in ((p.ultrix_checksum, paper[0]),
                                   (p.ultrix_bcopy, paper[1]),
                                   (p.optimized_checksum, paper[3]),
                                   (p.integrated, paper[4])):
            if expected >= 20:  # skip tiny values dominated by rounding
                dev5 = max(dev5, abs(measured / expected - 1) * 100)
    report.scores.append(ArtifactScore(
        "Table 5 (copy & checksum)", passed=dev5 <= 12,
        max_abs_deviation_pct=dev5))

    # Table 6 ------------------------------------------------------------
    integ = _sweep(config=KernelConfig(
        checksum_mode=ChecksumMode.INTEGRATED),
        iterations=iterations, warmup=warmup)
    sav6 = {s: pct_change(atm[s], integ[s]) for s in PAPER_SIZES}
    crossover_ok = sav6[500] < 5 and sav6[1400] > 0 and sav6[4] < -10
    dev6 = _max_dev(integ, paperdata.TABLE6_INTEGRATED)
    report.scores.append(ArtifactScore(
        "Table 6 (integrated cksum)",
        passed=crossover_ok and dev6 <= 16,
        max_abs_deviation_pct=dev6,
        notes="break-even between 500 and 1400 B"
        if crossover_ok else "crossover missed"))

    # Table 7 ------------------------------------------------------------
    nock = _sweep(config=KernelConfig(checksum_mode=ChecksumMode.OFF),
                  iterations=iterations, warmup=warmup)
    dev7 = _max_dev(nock, paperdata.TABLE7_NO_CHECKSUM)
    sav7 = {s: pct_change(atm[s], nock[s]) for s in PAPER_SIZES}
    shape7 = sav7[4] < 5 and sav7[8000] > 30 and sav7[4000] > 30
    report.scores.append(ArtifactScore(
        "Table 7 (no checksum)", passed=shape7 and dev7 <= 16,
        max_abs_deviation_pct=dev7,
        notes="saving grows with size" if shape7 else "shape broken"))

    # §3 PCB search --------------------------------------------------------
    points = {p.entries: p.cost_us for p in pcb_search_bench()}
    devp = max(abs(points[n] / expected - 1) * 100
               for n, expected in paperdata.PCB_SEARCH_POINTS)
    report.scores.append(ArtifactScore(
        "§3 PCB search", passed=devp <= 15, max_abs_deviation_pct=devp))

    # §2.2.1 mbuf ---------------------------------------------------------
    mbuf_us = mbuf_alloc_bench()
    devm = abs(mbuf_us / paperdata.MBUF_ALLOC_FREE_US - 1) * 100
    report.scores.append(ArtifactScore(
        "§2.2.1 mbuf alloc+free", passed=7.0 <= mbuf_us <= 7.6,
        max_abs_deviation_pct=devm))

    return report
