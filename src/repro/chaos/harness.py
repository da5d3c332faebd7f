"""The chaos recovery harness: impaired runs + recovery invariants.

One *cell* = the paper's echo benchmark run under a deterministic
impairment engine, followed by a quiesce and a recovery audit:

* all sent bytes were delivered exactly once and in order (the
  benchmark's position-dependent payload verification);
* no deadlock — a zero-window stall with the reopening ACK lost must
  be rescued by the persist timer, never by luck;
* the rexmt backoff shift stayed within BSD's cutoff;
* IPQ and mbuf conservation hold even though packets were dropped,
  duplicated, truncated and starved of buffers mid-run.

:func:`run_loss_sweep` grids loss rate x segment size and renders the
degradation table (RTT, goodput, retransmits) via
:mod:`repro.core.report`; :func:`racecheck_chaos` re-runs a cell under
the simulator's adversarial tie-break orders and diffs the digests, so
the impaired path is held to the same byte-reproducibility bar as the
clean one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.analysis.invariants import (
    check_ipq_conservation,
    check_mbuf_conservation,
    check_rexmt_backoff_bounded,
    check_timer_sanity,
)
from repro.analysis.racecheck import (
    DEFAULT_PERTURBATIONS,
    RaceReport,
    RunDigest,
    check_scenario,
)
from repro.chaos.impair import ImpairmentConfig, Impairments
from repro.core.experiment import RoundTripBenchmark
from repro.core.packetlog import attach_packet_log
from repro.core.report import format_table
from repro.core.testbed import build_pair
from repro.kern.config import KernelConfig
from repro.sim.engine import us
from repro.sim.errors import Deadlock
from repro.sim.rng import SplitMix64Stream

__all__ = ["ChaosCellResult", "run_chaos_cell", "run_loss_sweep",
           "format_loss_sweep", "digest_chaos", "racecheck_chaos",
           "DEFAULT_LOSSES", "DEFAULT_SIZES"]

#: The loss grid from the acceptance experiment (0-5% on ATM).
DEFAULT_LOSSES = (0.0, 0.01, 0.02, 0.05)
#: Transfer sizes spanning single-segment and multi-segment regimes.
DEFAULT_SIZES = (200, 1400, 8000)


@dataclass
class ChaosCellResult:
    """One impaired benchmark cell plus its recovery audit."""

    network: str
    size: int
    mss: int
    loss: float
    seed: int
    iterations: int
    completed: int = 0
    mean_rtt_us: float = 0.0
    max_rtt_us: float = 0.0
    goodput_mbps: float = 0.0
    retransmits: int = 0
    echo_errors: int = 0
    injected: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    log_lines: List[str] = field(default_factory=list)
    rtt_us: List[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        return (f"<ChaosCellResult {self.network} size={self.size} "
                f"loss={self.loss:.1%} {status}>")


def _effective_config(config: Optional[KernelConfig], network: str,
                      mss: Optional[int]) -> KernelConfig:
    base = config if config is not None else KernelConfig()
    if mss is None:
        return base
    if network == "atm":
        return replace(base, mss_atm=mss)
    return replace(base, mss_ethernet=mss)


def run_chaos_cell(size: int = 1400, loss: float = 0.0,
                   mss: Optional[int] = None,
                   seed: int = 1994,
                   network: str = "atm",
                   iterations: int = 8, warmup: int = 1,
                   config: Optional[KernelConfig] = None,
                   impairment_config: Optional[ImpairmentConfig] = None,
                   tiebreak: Optional[str] = None,
                   quiesce_us: float = 3_000_000.0) -> ChaosCellResult:
    """Run one impaired echo-benchmark cell and audit recovery.

    *loss* is the uniform per-PDU drop probability; pass a full
    *impairment_config* for burst loss, duplication, truncation,
    clamps, etc. (it overrides *loss* and *seed*).  The run quiesces
    for *quiesce_us* of simulated time past the workload so in-flight
    retransmission state drains before conservation is checked.
    """
    kconfig = _effective_config(config, network, mss)
    if impairment_config is None:
        impairment_config = ImpairmentConfig(seed=seed, p_drop=loss)
    impairments = Impairments(impairment_config)
    testbed = build_pair(network, config=kconfig, tiebreak=tiebreak,
                         impairments=impairments)
    effective_mss = (kconfig.mss_atm if network == "atm"
                     else kconfig.mss_ethernet)
    log = attach_packet_log(testbed)

    result = ChaosCellResult(
        network=network, size=size, mss=effective_mss,
        loss=impairment_config.p_drop, seed=impairment_config.seed,
        iterations=iterations)

    bench = RoundTripBenchmark(testbed, size, iterations=iterations,
                               warmup=warmup)
    try:
        bench.run()
    except Deadlock as exc:
        # The zero-window + lost-window-update scenario lands here if
        # the persist timer fails to rescue the stall.
        result.violations.append(f"deadlock: {exc}")
    except Exception as exc:  # noqa: BLE001 - audit, don't crash
        result.violations.append(
            f"benchmark-error[{type(exc).__name__}]: {exc}")

    bres = bench.result
    result.completed = len(bres.rtt_us)
    result.rtt_us = list(bres.rtt_us)
    result.mean_rtt_us = bres.mean_rtt_us
    result.max_rtt_us = bres.max_rtt_us
    result.echo_errors = bres.echo_errors
    if bres.rtt_us:
        # Application-level goodput over the measured iterations: each
        # round trip moves *size* bytes each way.
        total_bits = 2 * size * 8 * len(bres.rtt_us)
        result.goodput_mbps = total_bits / sum(bres.rtt_us)

    # Quiesce: let rexmt/persist/delayed-ACK timers fire and in-flight
    # copies drain so the conservation audit sees a settled kernel.
    testbed.sim.run(until=testbed.sim.now + us(quiesce_us))

    if result.echo_errors:
        result.violations.append(
            f"exactly-once-delivery: {result.echo_errors} echo payloads "
            f"corrupted, misordered or duplicated")
    if result.completed < iterations and not result.violations:
        result.violations.append(
            f"incomplete: {result.completed}/{iterations} iterations")
    for host in testbed.hosts:
        result.violations.extend(check_ipq_conservation(host))
        # With REPRO_SANITIZE=1 / KernelConfig.sanitize the mbuf check
        # also names each leaked allocation's site (leak-at-quiesce
        # audit), and the timer sanitizer reports callbacks that fired
        # on closed connections.
        result.violations.extend(check_mbuf_conservation(host))
        result.violations.extend(check_rexmt_backoff_bounded(host))
        result.violations.extend(check_timer_sanity(host))

    result.injected = impairments.stats.as_dict()
    result.log_lines = log.format().splitlines()
    for host in testbed.hosts:
        prefix = host.name
        softnet = host.softnet
        result.counters[f"{prefix}.ipq.enqueued"] = softnet.enqueued
        result.counters[f"{prefix}.ipq.dispatched"] = softnet.dispatched
        result.counters[f"{prefix}.ipq.dropped"] = softnet.dropped_full
        pool = host.pool
        result.counters[f"{prefix}.mbuf.allocated"] = pool.allocated
        result.counters[f"{prefix}.mbuf.freed"] = pool.freed
        result.counters[f"{prefix}.mbuf.denied"] = pool.denied
        iface = host.interface
        stats = iface.stats
        for fname in ("rx_fifo_overflows", "rx_overruns"):
            if hasattr(stats, fname):
                result.counters[f"{prefix}.iface.{fname}"] = \
                    getattr(stats, fname)
        conns = host.tcp.connection_stats()
        result.retransmits += conns.retransmits
        for fname in ("segs_sent", "segs_received", "retransmits",
                      "persist_probes", "mbuf_drops"):
            result.counters[f"{prefix}.tcp.{fname}"] = getattr(conns, fname)
    for name, value in result.injected.items():
        result.counters[f"chaos.{name}"] = value
    return result


# ----------------------------------------------------------------------
# The degradation sweep (loss rate x segment size)
# ----------------------------------------------------------------------
def run_loss_sweep(losses: Sequence[float] = DEFAULT_LOSSES,
                   sizes: Sequence[int] = DEFAULT_SIZES,
                   mss: Optional[int] = None,
                   seed: int = 1994,
                   network: str = "atm",
                   iterations: int = 8, warmup: int = 1,
                   config: Optional[KernelConfig] = None,
                   ) -> List[ChaosCellResult]:
    """Grid the echo benchmark over loss rate x transfer size.

    Each cell forks its own RNG seed from the sweep *seed* (mixed with
    the cell coordinates), so cells sample loss independently — without
    the fork, every cell would reuse the same draw sequence and a 5%
    cell could drop exactly the packets the 2% cell dropped, flattening
    the degradation curve.  The whole sweep is still a pure function of
    *seed*.
    """
    results = []
    for loss in losses:
        for size in sizes:
            cell_seed = SplitMix64Stream(
                seed, label=f"cell:{loss}:{size}").seed
            results.append(run_chaos_cell(
                size=size, loss=loss, mss=mss, seed=cell_seed,
                network=network, iterations=iterations, warmup=warmup,
                config=config))
    return results


def format_loss_sweep(results: Sequence[ChaosCellResult]) -> str:
    """The degradation table: RTT/goodput/retransmits per cell."""
    headers = ["loss%", "size", "mss", "rtt_us", "max_us",
               "mbit/s", "rexmt", "drops", "invariants"]
    rows = []
    for r in results:
        rows.append([
            f"{r.loss * 100:.1f}", r.size, r.mss,
            r.mean_rtt_us, r.max_rtt_us, r.goodput_mbps,
            r.retransmits,
            r.injected.get("drops", 0) + r.injected.get("burst_drops", 0),
            "ok" if r.ok else f"{len(r.violations)} BAD",
        ])
    title = (f"Chaos loss sweep ({results[0].network})"
             if results else "Chaos loss sweep")
    table = format_table(title, headers, rows, width=11)
    bad = [r for r in results if not r.ok]
    if bad:
        lines = [table, "", "violations:"]
        for r in bad:
            for v in r.violations:
                lines.append(f"  loss={r.loss:.1%} size={r.size}: {v}")
        return "\n".join(lines)
    return table


# ----------------------------------------------------------------------
# Race-checking the impaired path
# ----------------------------------------------------------------------
def digest_chaos(tiebreak: Optional[str] = None,
                 size: int = 1400, loss: float = 0.02,
                 seed: int = 1994, network: str = "atm",
                 iterations: int = 6, warmup: int = 1,
                 config: Optional[KernelConfig] = None,
                 impairment_config: Optional[ImpairmentConfig] = None,
                 ) -> RunDigest:
    """One impaired run digested for tie-break comparison."""
    cell = run_chaos_cell(size=size, loss=loss, seed=seed,
                          network=network, iterations=iterations,
                          warmup=warmup, config=config,
                          impairment_config=impairment_config,
                          tiebreak=tiebreak)
    return RunDigest(
        tiebreak=tiebreak or "fifo",
        lines=cell.log_lines,
        samples=list(cell.rtt_us),
        counters=dict(cell.counters),
        invariant_violations=list(cell.violations),
    )


def racecheck_chaos(size: int = 1400, loss: float = 0.02,
                    seed: int = 1994, network: str = "atm",
                    iterations: int = 6, warmup: int = 1,
                    config: Optional[KernelConfig] = None,
                    impairment_config: Optional[ImpairmentConfig] = None,
                    perturbations: Sequence[str] = DEFAULT_PERTURBATIONS,
                    ) -> RaceReport:
    """Verify the impaired run is byte-identical under adversarial
    same-timestamp orderings (the determinism contract of the
    impairment layer)."""
    def make_digest(tiebreak: Optional[str]) -> RunDigest:
        return digest_chaos(tiebreak=tiebreak, size=size, loss=loss,
                            seed=seed, network=network,
                            iterations=iterations, warmup=warmup,
                            config=config,
                            impairment_config=impairment_config)
    return check_scenario(make_digest, target="chaos",
                          perturbations=perturbations)
