"""The §4.2 error-detection study.

The paper argues TCP checksum elimination is safe for local-area ATM
traffic because (a) the AAL3/4 cell CRCs catch link errors end-to-end,
and (b) their Ethernet experiment showed TCP detecting two orders of
magnitude fewer errors than the link CRC once wide-area (gateway)
traffic was excluded — with no TCP checksum errors at all on purely
local traffic.

This harness runs the echo benchmark under fault injection and counts,
per error source, which layer detected each corruption:

* the link check (AAL3/4 CRC-10s or Ethernet FCS),
* the TCP checksum,
* the application's own integrity check (the echoed payload pattern),
* or nobody (silent corruption — the end-to-end argument's concern).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.experiment import (
    RoundTripBenchmark,
    SERVER_PORT,
    payload_pattern,
)
from repro.core.testbed import build_pair
from repro.faults.injector import FaultInjector
from repro.kern.config import ChecksumMode, KernelConfig

__all__ = ["ErrorStudyResult", "run_error_study"]


@dataclass
class ErrorStudyResult:
    """Detection counts for one fault-injection run."""

    iterations: int = 0
    injected_link: int = 0
    injected_controller: int = 0
    injected_gateway: int = 0
    caught_by_link_check: int = 0
    caught_by_tcp_checksum: int = 0
    caught_by_application: int = 0
    retransmissions: int = 0

    @property
    def total_injected(self) -> int:
        return (self.injected_link + self.injected_controller
                + self.injected_gateway)

    @property
    def undetected(self) -> int:
        """Corruptions no layer caught before the application check."""
        return max(0, self.total_injected - self.caught_by_link_check
                   - self.caught_by_tcp_checksum - self.caught_by_application)


def run_error_study(size: int = 1400, iterations: int = 60,
                    p_link: float = 0.0, p_controller: float = 0.0,
                    p_gateway: float = 0.0,
                    checksum_mode: ChecksumMode = ChecksumMode.STANDARD,
                    network: str = "atm",
                    seed: int = 1994) -> ErrorStudyResult:
    """Run the echo benchmark under fault injection and count detections."""
    config = KernelConfig(checksum_mode=checksum_mode)
    testbed = build_pair(network, config=config)
    injector = FaultInjector(seed=seed, p_link=p_link,
                             p_controller=p_controller,
                             p_gateway=p_gateway)
    testbed.link.fault_injector = injector

    bench = RoundTripBenchmark(testbed, size=size, iterations=iterations,
                               warmup=2, verify_payload=True)
    result = bench.run()

    out = ErrorStudyResult(iterations=iterations)
    out.injected_link = injector.stats.injected_link
    out.injected_controller = injector.stats.injected_controller
    out.injected_gateway = injector.stats.injected_gateway
    out.caught_by_link_check = injector.stats.link_check_caught
    client, server = testbed.client, testbed.server
    out.caught_by_tcp_checksum = (client.tcp.stats.cksum_errors
                                  + server.tcp.stats.cksum_errors)
    out.caught_by_application = result.echo_errors
    out.retransmissions = sum(host.tcp.connection_stats().retransmits
                              for host in (client, server))
    return out
