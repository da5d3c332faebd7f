"""Fuzz campaign orchestration: oracle, dedup, ddmin, corpus replay.

A fuzz *cell* is the echo benchmark run with a :class:`PacketFuzzer`
on the wire and the runtime sanitizer enabled.  Because content
mutation legitimately corrupts streams and resets connections, the
cell's oracle is *not* "the transfer succeeded"; it is the set of
properties that must hold under arbitrary hostile input:

* no unhandled exception escapes the stack (crash oracle; the
  engine's own ``SchedulingError`` raises land here);
* the post-quiesce conservation audits (mbuf, IPQ, rexmt backoff,
  timer sanity — the sanitizer's runtime half) stay green;
* protocol conformance: no connection negotiates an absurd MSS
  (``t_maxseg`` below :data:`MIN_SANE_MSS`), and no reassembly queue
  holds bytes outside the receive window.

Directed *probes* add a stronger expectation: a single targeted
mutation (one blind RST, one poisoned MSS option, one far-future data
segment) must not stop the transfer — TCP's own retransmission has to
recover, which is exactly what the committed reproducers under
``tests/fuzz_corpus/`` assert post-hardening.

Triage: failures are deduplicated by violation signature, then the
recorded mutation schedule is delta-debugged (ddmin) down to a
minimal reproducer — schedule replay is exact (see
:mod:`repro.chaos.fuzz`), so subset runs are sound — and saved as a
JSON case that :func:`replay_case` re-executes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.invariants import (
    check_ipq_conservation,
    check_mbuf_conservation,
    check_rexmt_backoff_bounded,
    check_timer_sanity,
)
from repro.chaos.fuzz import FuzzConfig, PacketFuzzer
from repro.core.experiment import RoundTripBenchmark
from repro.core.testbed import build_pair
from repro.kern.config import KernelConfig
from repro.sim.engine import us
from repro.sim.errors import Deadlock
from repro.socket.socket import SocketError
from repro.tcp.conn import TCPError
from repro.tcp.seq import seq_diff

__all__ = ["FuzzCellResult", "FuzzFailure", "CampaignResult",
           "run_fuzz_cell", "run_fuzz_campaign", "ddmin_schedule",
           "save_case", "load_case", "replay_case", "campaign_findings",
           "MIN_SANE_MSS", "DEFAULT_FUZZ_SIZES"]

#: Below this, a negotiated MSS is an event-explosion attack, not a
#: configuration (RFC 791 guarantees 68-byte datagrams; BSD clamps
#: harder in practice).
MIN_SANE_MSS = 32

#: Transfer sizes cycled by the campaign: single-segment, the paper's
#: canonical 1400, and multi-segment with reassembly pressure.
DEFAULT_FUZZ_SIZES = (200, 1400, 8000)


@dataclass
class FuzzCellResult:
    """One fuzzed benchmark cell plus its oracle audit."""

    network: str
    size: int
    seed: int
    iterations: int
    p_mutate: float
    completed: int = 0
    echo_errors: int = 0
    mutations: int = 0
    packets_seen: int = 0
    schedule: List[dict] = field(default_factory=list)
    #: Outcomes a hostile peer is *allowed* to cause (resets, stalls,
    #: corrupted streams) — reported but not failures.
    tolerated: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def signature(self) -> Tuple[str, ...]:
        """Dedup key: the sorted set of violated oracle kinds."""
        return tuple(sorted({v.split(":", 1)[0] for v in self.violations}))

    def __repr__(self) -> str:
        status = "ok" if self.ok else "+".join(self.signature)
        return (f"<FuzzCellResult {self.network} size={self.size} "
                f"seed={self.seed} mutations={self.mutations} {status}>")


@dataclass
class FuzzFailure:
    """One deduplicated failure with its (minimized) schedule."""

    signature: Tuple[str, ...]
    violations: List[str]
    scenario: dict
    schedule: List[dict]
    minimized: bool = False

    @property
    def name(self) -> str:
        return "-".join(self.signature) or "unknown"


@dataclass
class CampaignResult:
    cells: int = 0
    mutated_packets: int = 0
    packets_seen: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _collect_counters(testbed, fuzzer: PacketFuzzer) -> Dict[str, int]:
    counters: Dict[str, int] = {}
    for name, value in fuzzer.stats.as_dict().items():
        counters[f"fuzz.{name}"] = value
    for host in testbed.hosts:
        prefix = host.name
        tstats = host.tcp.stats
        for fname in tstats.__slots__:
            counters[f"{prefix}.tcpstat.{fname}"] = getattr(tstats, fname)
        istats = host.ip.stats
        for fname in istats.__slots__:
            counters[f"{prefix}.ipstat.{fname}"] = getattr(istats, fname)
        for fname, value in host.tcp.connection_stats().as_dict().items():
            counters[f"{prefix}.tcp.{fname}"] = value
    # Link-wide rollups the corpus expectations key on: every
    # connection's drops, closed and live, plus the bad segments no
    # connection owned.
    names = [host.name for host in testbed.hosts]
    for fname in ("bad_segments", "rst_dropped", "bad_options"):
        counters[f"tcp.{fname}"] = sum(
            counters[f"{name}.tcp.{fname}"] for name in names)
    counters["tcp.bad_segments"] += sum(
        counters[f"{name}.tcpstat.bad_segments"] for name in names)
    counters["ip.bad_headers"] = sum(counters[f"{name}.ipstat.bad_headers"]
                                     for name in names)
    return counters


def _audit(testbed, config: KernelConfig, result: FuzzCellResult) -> None:
    """The oracle proper: invariants + conformance, never liveness."""
    for host in testbed.hosts:
        result.violations.extend(check_ipq_conservation(host))
        result.violations.extend(check_mbuf_conservation(host))
        result.violations.extend(check_rexmt_backoff_bounded(host))
        result.violations.extend(check_timer_sanity(host))
        for conn in host.tcp.connections:
            if conn.t_maxseg < MIN_SANE_MSS:
                result.violations.append(
                    f"mss-underflow: {host.name} connection negotiated "
                    f"t_maxseg={conn.t_maxseg} (< {MIN_SANE_MSS})")
            wnd_cap = config.recvspace
            for seq, data in getattr(conn.reassembly, "_segments", []):
                offset = seq_diff(seq, conn.rcv_nxt)
                if offset < 0 or offset + len(data) > wnd_cap:
                    result.violations.append(
                        f"reassembly-beyond-window: {host.name} holds "
                        f"{len(data)} bytes at rcv_nxt{offset:+d} "
                        f"(recvspace {wnd_cap})")


def run_fuzz_cell(size: int = 1400, seed: int = 1994,
                  network: str = "atm",
                  iterations: int = 6, warmup: int = 0,
                  p_mutate: float = 0.25,
                  config: Optional[KernelConfig] = None,
                  schedule: Optional[Sequence[dict]] = None,
                  expect_complete: bool = False,
                  tiebreak: Optional[str] = None,
                  quiesce_us: float = 3_000_000.0) -> FuzzCellResult:
    """Run one fuzzed echo-benchmark cell and audit the oracle.

    With *schedule* the fuzzer replays exactly those mutations (RNG
    unused); otherwise it draws from *seed* at rate *p_mutate*.  The
    cell always runs with the runtime sanitizer on (the campaign's
    ``REPRO_SANITIZE=1`` contract), regardless of the environment.

    *expect_complete* turns liveness into part of the oracle: a
    directed probe or committed reproducer applies so little damage
    that TCP's retransmission must fully recover, so an incomplete or
    corrupted transfer (or a reset connection) is itself a violation.
    """
    kconfig = replace(config if config is not None else KernelConfig(),
                      sanitize=True)
    if schedule is not None:
        fuzzer = PacketFuzzer.replay(schedule)
    else:
        fuzzer = PacketFuzzer(FuzzConfig(seed=seed, p_mutate=p_mutate))
    testbed = build_pair(network, config=kconfig, tiebreak=tiebreak,
                         impairments=fuzzer)

    result = FuzzCellResult(network=network, size=size, seed=seed,
                            iterations=iterations, p_mutate=p_mutate)

    bench = RoundTripBenchmark(testbed, size, iterations=iterations,
                               warmup=warmup)
    try:
        bench.run()
    except Deadlock as exc:
        # A wedged transfer under hostile input is a tolerated outcome
        # (the peer mutilated our segments); invariants still audit.
        result.tolerated.append(f"deadlock: {exc}")
    except (TCPError, SocketError) as exc:
        # Reset / refused / timed out: correct responses to garbage
        # (a mutated in-window SYN legitimately resets the connection,
        # surfacing as SocketError at the syscall boundary).
        result.tolerated.append(f"tcp-error[{type(exc).__name__}]: {exc}")
    except Exception as exc:  # noqa: BLE001 - the crash oracle
        result.violations.append(
            f"crash[{type(exc).__name__}]: {exc}")

    bres = bench.result
    result.completed = len(bres.rtt_us)
    result.echo_errors = bres.echo_errors
    if bres.echo_errors:
        result.tolerated.append(
            f"echo-errors: {bres.echo_errors} corrupted round trips")

    testbed.sim.run(until=testbed.sim.now + us(quiesce_us))

    # Model process exit: a benchmark generator that died on a reset
    # never ran soclose, so its buffers would read as mbuf leaks.  The
    # kernel reclaims them at exit; mirror that before the audit.
    for host in testbed.hosts:
        for sock in host.sockets:
            sock.so_snd.flush()
            sock.so_rcv.flush()

    _audit(testbed, kconfig, result)
    if expect_complete:
        if result.completed < iterations or result.echo_errors:
            result.violations.append(
                f"recovery-failed: {result.completed}/{iterations} "
                f"iterations completed, {result.echo_errors} echo "
                f"errors (single targeted mutation must be survivable)")
        for host in testbed.hosts:
            for conn in host.tcp.connections:
                if conn.error is not None:
                    result.violations.append(
                        f"recovery-failed: {host.name} connection died "
                        f"with {type(conn.error).__name__}: {conn.error}")

    result.mutations = fuzzer.stats.mutations
    result.packets_seen = fuzzer.stats.packets_seen
    result.schedule = list(schedule) if schedule is not None \
        else list(fuzzer.schedule)
    result.counters = _collect_counters(testbed, fuzzer)
    return result


# ----------------------------------------------------------------------
# Delta debugging (ddmin) over mutation schedules
# ----------------------------------------------------------------------
def ddmin_schedule(schedule: Sequence[dict],
                   failing: Callable[[List[dict]], bool],
                   ) -> List[dict]:
    """Zeller's ddmin: a 1-minimal sub-schedule still failing.

    *failing* must be deterministic in its argument — guaranteed here
    because schedule replay is exact and draw-free.
    """
    current = list(schedule)
    if not failing(current):
        return current  # not reproducible; return unminimized
    n = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // n)
        subsets = [current[i:i + chunk]
                   for i in range(0, len(current), chunk)]
        reduced = False
        for i, subset in enumerate(subsets):
            if len(subset) < len(current) and failing(subset):
                current, n = subset, 2
                reduced = True
                break
        if not reduced:
            for i in range(len(subsets)):
                complement = [e for j, s in enumerate(subsets)
                              if j != i for e in s]
                if complement and len(complement) < len(current) and \
                        failing(complement):
                    current, n = complement, max(n - 1, 2)
                    reduced = True
                    break
        if not reduced:
            if n >= len(current):
                break
            n = min(len(current), n * 2)
    return current


def _minimize_failure(cell: FuzzCellResult,
                      expect_complete: bool = False) -> FuzzFailure:
    """ddmin a failing cell's schedule to a minimal reproducer."""
    target = cell.signature
    scenario = {"network": cell.network, "size": cell.size,
                "iterations": cell.iterations, "seed": cell.seed,
                "p_mutate": cell.p_mutate}

    def failing(subset: List[dict]) -> bool:
        probe = run_fuzz_cell(size=cell.size, seed=cell.seed,
                              network=cell.network,
                              iterations=cell.iterations,
                              schedule=subset,
                              expect_complete=expect_complete)
        return bool(set(target) & set(probe.signature))

    minimal = ddmin_schedule(cell.schedule, failing)
    replayed = run_fuzz_cell(size=cell.size, seed=cell.seed,
                             network=cell.network,
                             iterations=cell.iterations,
                             schedule=minimal,
                             expect_complete=expect_complete)
    reproduced = bool(set(target) & set(replayed.signature))
    return FuzzFailure(signature=target,
                       violations=list(replayed.violations
                                       if reproduced else cell.violations),
                       scenario=scenario,
                       schedule=minimal,
                       minimized=reproduced)


# ----------------------------------------------------------------------
# The campaign loop
# ----------------------------------------------------------------------
def run_fuzz_campaign(seeds: int = 8, packets: int = 2000,
                      sizes: Sequence[int] = DEFAULT_FUZZ_SIZES,
                      network: str = "atm",
                      iterations: int = 6,
                      p_mutate: float = 0.25,
                      base_seed: int = 1994,
                      config: Optional[KernelConfig] = None,
                      minimize: bool = True,
                      budget_secs: Optional[float] = None,
                      log: Optional[Callable[[str], None]] = None,
                      ) -> CampaignResult:
    """Run cells until ≥ *packets* mutated PDUs have been injected.

    At least *seeds* cells always run (cycling *sizes*); the loop then
    continues with fresh derived seeds until the mutation target is
    met.  Failures are deduplicated by signature and (optionally)
    ddmin-minimized.  The campaign is a pure function of its arguments
    unless *budget_secs* truncates it — the wall-clock budget only
    ever stops *between* cells, so every cell that did run is still
    exactly reproducible from its seed.
    """
    import time

    deadline = None
    if budget_secs is not None:
        deadline = time.monotonic() + budget_secs  # repro: allow(wall-clock)
    result = CampaignResult()
    seen: Dict[Tuple[str, ...], FuzzFailure] = {}
    k = 0
    while k < seeds or result.mutated_packets < packets:
        if deadline is not None and \
                time.monotonic() > deadline:  # repro: allow(wall-clock)
            if log:
                log(f"fuzz: budget exhausted after {result.cells} cells, "
                    f"{result.mutated_packets}/{packets} mutated packets")
            break
        size = sizes[k % len(sizes)]
        seed = base_seed + 7919 * k
        cell = run_fuzz_cell(size=size, seed=seed, network=network,
                             iterations=iterations, p_mutate=p_mutate,
                             config=config)
        result.cells += 1
        result.mutated_packets += cell.mutations
        result.packets_seen += cell.packets_seen
        if not cell.ok and cell.signature not in seen:
            if log:
                log(f"fuzz: seed={seed} size={size} -> "
                    f"{'+'.join(cell.signature)}")
            failure = (_minimize_failure(cell) if minimize else
                       FuzzFailure(signature=cell.signature,
                                   violations=list(cell.violations),
                                   scenario={"network": network,
                                             "size": size,
                                             "iterations": iterations,
                                             "seed": seed,
                                             "p_mutate": p_mutate},
                                   schedule=list(cell.schedule)))
            seen[cell.signature] = failure
            result.failures.append(failure)
        k += 1
    return result


# ----------------------------------------------------------------------
# Corpus: save / load / replay committed reproducers
# ----------------------------------------------------------------------
def save_case(failure: FuzzFailure, directory: str,
              name: Optional[str] = None,
              expect_stats: Optional[Dict[str, int]] = None,
              notes: str = "") -> str:
    """Write a reproducer JSON under *directory*; returns the path."""
    os.makedirs(directory, exist_ok=True)
    case = {
        "name": name or failure.name,
        "signature": list(failure.signature),
        "violations": failure.violations,
        "scenario": failure.scenario,
        "schedule": failure.schedule,
        "expect_stats": expect_stats or {},
        "notes": notes,
    }
    path = os.path.join(directory, f"{case['name']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(case, handle, indent=2)
        handle.write("\n")
    return path


def load_case(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def replay_case(path: str) -> FuzzCellResult:
    """Re-run a committed reproducer against the current stack.

    Post-hardening expectation baked into every corpus case: the
    minimized mutation schedule must no longer violate any oracle,
    the transfer must fully recover (``expect_complete``), and the
    named drop counters must actually tick — a fix that silently
    swallows the hostile segment without accounting for it fails the
    replay.
    """
    case = load_case(path)
    scenario = case["scenario"]
    cell = run_fuzz_cell(size=scenario["size"],
                         seed=scenario.get("seed", 1994),
                         network=scenario.get("network", "atm"),
                         iterations=scenario.get("iterations", 6),
                         schedule=case["schedule"],
                         expect_complete=True)
    for stat, minimum in case.get("expect_stats", {}).items():
        if cell.counters.get(stat, 0) < minimum:
            cell.violations.append(
                f"stat-missing: expected {stat} >= {minimum}, got "
                f"{cell.counters.get(stat, 0)} (drop not accounted)")
    return cell


def campaign_findings(campaign: CampaignResult,
                      corpus_dir: Optional[str] = None) -> List[Finding]:
    """Render a campaign as findings for the shared lint pipeline."""
    findings: List[Finding] = []
    for failure in campaign.failures:
        detail = failure.violations[0] if failure.violations else ""
        sched = ", ".join(f"{e['endpoint']}#{e['index']}:{e['op']}"
                          for e in failure.schedule[:4])
        if len(failure.schedule) > 4:
            sched += f", ... ({len(failure.schedule)} total)"
        path = (os.path.join(corpus_dir, f"{failure.name}.json")
                if corpus_dir else "src/repro/chaos/fuzz.py")
        findings.append(Finding(
            path=path, line=1, col=1,
            rule=f"fuzz-{failure.name}",
            severity=Severity.ERROR,
            message=(f"{detail or 'oracle violation'} "
                     f"[scenario seed={failure.scenario.get('seed')} "
                     f"size={failure.scenario.get('size')}; "
                     f"schedule: {sched or 'empty'}]")))
    return findings
