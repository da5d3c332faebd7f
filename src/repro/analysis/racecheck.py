"""Dynamic simulation race detector: ``repro racecheck``.

The event kernel tie-breaks same-timestamp events by insertion
sequence.  A *correct* model never depends on that choice: events at
the same nanosecond are logically concurrent, so any deterministic
order among them must yield the same observable results.  The race
detector tests this mechanically: it re-runs a target under perturbed
tie-break policies (reversed insertion order, seeded shuffles — see
:func:`repro.sim.engine.tiebreak_keyfn`) and diffs the observable
surface of each run against the FIFO baseline:

* the tcpdump-style packet log, line by line (byte-identical required),
* the measured per-iteration RTT samples,
* conservation counters (TCP segments, IPQ enqueue/dequeue, CPU jobs)
  and each host's measured Table 2/3 span totals.

Any difference means some handler pair racing at the same timestamp
reaches shared state in an order-dependent way — exactly the class of
bug that becomes unfindable once the ROADMAP pushes toward sharded or
parallel execution.  Each run is also checked by the engine's own
:class:`~repro.sim.errors.SchedulingError` raises and audited for IPQ
conservation afterwards (:mod:`repro.analysis.invariants`).  Nothing
is installed on the run, so it takes the same path as the unobserved
tables, inline CPU charges included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.invariants import check_ipq_conservation
from repro.core.experiment import RoundTripBenchmark
from repro.core.packetlog import attach_packet_log
from repro.core.testbed import build_pair
from repro.kern.config import KernelConfig

__all__ = ["RunDigest", "Divergence", "RaceReport", "DEFAULT_PERTURBATIONS",
           "digest_round_trip", "compare_digests", "check_scenario",
           "racecheck_round_trip"]

#: Tie-break orders checked against the 'fifo' baseline by default.
DEFAULT_PERTURBATIONS = ("lifo", "shuffle:1", "shuffle:2")


@dataclass
class RunDigest:
    """The observable surface of one run, for cross-order comparison."""

    tiebreak: str
    lines: List[str] = field(default_factory=list)
    samples: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    invariant_violations: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Divergence:
    """One observable difference between a perturbed run and baseline."""

    tiebreak: str
    kind: str  # 'packet-log' | 'samples' | 'counters' | 'invariant'
    detail: str

    def format(self) -> str:
        return f"[{self.tiebreak}] {self.kind}: {self.detail}"


@dataclass
class RaceReport:
    """Outcome of one race-check: baseline digest plus all divergences."""

    target: str
    baseline: RunDigest
    runs: List[RunDigest]
    divergences: List[Divergence]

    @property
    def ok(self) -> bool:
        return not self.divergences and \
            not self.baseline.invariant_violations

    def format(self) -> str:
        orders = ", ".join(run.tiebreak for run in self.runs)
        lines = [f"racecheck {self.target}: baseline fifo "
                 f"({len(self.baseline.lines)} packet-log lines, "
                 f"{len(self.baseline.samples)} samples) "
                 f"vs {orders}"]
        if self.ok:
            lines.append(
                "  OK: byte-identical packet logs and results under "
                "every tie-break perturbation; all invariants held")
        for violation in self.baseline.invariant_violations:
            lines.append(f"  INVARIANT(fifo): {violation}")
        for div in self.divergences:
            lines.append(f"  RACE {div.format()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def compare_digests(baseline: RunDigest,
                    other: RunDigest) -> List[Divergence]:
    """All observable differences of *other* against *baseline*."""
    divergences: List[Divergence] = []
    tb = other.tiebreak
    for violation in other.invariant_violations:
        divergences.append(Divergence(tb, "invariant", violation))
    if baseline.lines != other.lines:
        detail = _first_line_diff(baseline.lines, other.lines)
        divergences.append(Divergence(tb, "packet-log", detail))
    if baseline.samples != other.samples:
        detail = _first_sample_diff(baseline.samples, other.samples)
        divergences.append(Divergence(tb, "samples", detail))
    if baseline.counters != other.counters:
        keys = set(baseline.counters) | set(other.counters)
        diffs = [f"{key}: {baseline.counters.get(key)!r} != "
                 f"{other.counters.get(key)!r}"
                 for key in sorted(keys)
                 if baseline.counters.get(key) != other.counters.get(key)]
        divergences.append(
            Divergence(tb, "counters", "; ".join(diffs)))
    return divergences


def _first_line_diff(a: List[str], b: List[str]) -> str:
    for i, (line_a, line_b) in enumerate(zip(a, b)):
        if line_a != line_b:
            return (f"first divergence at line {i + 1}: "
                    f"{line_a!r} != {line_b!r}")
    return f"length {len(a)} != {len(b)}"


def _first_sample_diff(a: List[float], b: List[float]) -> str:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"sample {i}: {x!r} != {y!r}"
    return f"{len(a)} != {len(b)} samples"


def check_scenario(make_digest: Callable[[Optional[str]], RunDigest],
                   target: str = "scenario",
                   perturbations: Sequence[str] = DEFAULT_PERTURBATIONS,
                   ) -> RaceReport:
    """Generic driver: run *make_digest* under the FIFO baseline and
    each perturbation, collecting divergences.

    *make_digest* receives a tie-break policy string (None for the
    baseline) and must build a **fresh** simulation for each call.
    """
    baseline = make_digest(None)
    baseline.tiebreak = "fifo"
    runs: List[RunDigest] = []
    divergences: List[Divergence] = []
    for policy in perturbations:
        digest = make_digest(policy)
        digest.tiebreak = policy
        runs.append(digest)
        divergences.extend(compare_digests(baseline, digest))
    return RaceReport(target=target, baseline=baseline, runs=runs,
                      divergences=divergences)


# ----------------------------------------------------------------------
# The round-trip target (the paper's Tables 1-7 workload)
# ----------------------------------------------------------------------
def digest_round_trip(network: str = "atm",
                      config: Optional[KernelConfig] = None,
                      size: int = 1400, iterations: int = 4,
                      warmup: int = 1,
                      tiebreak: Optional[str] = None) -> RunDigest:
    """Run one echo benchmark under *tiebreak* and digest everything
    observable: packet log, RTT samples, conservation counters, span
    totals, the IPQ conservation audit."""
    testbed = build_pair(network, config=config, tiebreak=tiebreak)
    log = attach_packet_log(testbed)
    bench = RoundTripBenchmark(testbed, size, iterations=iterations,
                               warmup=warmup)
    result = bench.run()

    counters: Dict[str, float] = {"echo_errors": result.echo_errors}
    for host in testbed.hosts:
        prefix = host.name
        counters[f"{prefix}.ipq.enqueued"] = host.softnet.enqueued
        counters[f"{prefix}.ipq.dispatched"] = host.softnet.dispatched
        counters[f"{prefix}.ipq.dropped"] = host.softnet.dropped_full
        counters[f"{prefix}.cpu.busy_ns"] = host.cpu.busy_ns
        counters[f"{prefix}.cpu.jobs"] = host.cpu.jobs_completed
        counters[f"{prefix}.cpu.preemptions"] = host.cpu.preemptions
        conns = host.tcp.connection_stats()
        for fname in ("segs_sent", "segs_received", "retransmits"):
            counters[f"{prefix}.tcp.{fname}"] = getattr(conns, fname)
        for name in host.tracer.names():
            counters[f"{prefix}.span.{name}"] = host.tracer.total_us(name)

    violations: List[str] = []
    for host in testbed.hosts:
        violations.extend(check_ipq_conservation(host))

    return RunDigest(
        tiebreak=tiebreak or "fifo",
        lines=log.format().splitlines(),
        samples=list(result.rtt_us),
        counters=counters,
        invariant_violations=violations,
    )


def racecheck_round_trip(target: str = "table1", network: str = "atm",
                         config: Optional[KernelConfig] = None,
                         size: int = 1400, iterations: int = 4,
                         warmup: int = 1,
                         perturbations: Sequence[str]
                         = DEFAULT_PERTURBATIONS) -> RaceReport:
    """Race-check the round-trip benchmark behind a paper table."""
    def make_digest(tiebreak: Optional[str]) -> RunDigest:
        return digest_round_trip(network=network, config=config,
                                 size=size, iterations=iterations,
                                 warmup=warmup, tiebreak=tiebreak)
    return check_scenario(make_digest, target=target,
                          perturbations=perturbations)
