"""Kernel build configuration: the variants the paper compares.

Each experiment in the paper boots a differently configured kernel; a
:class:`KernelConfig` captures one such build.  Only ``sanitize`` reads
the environment (``REPRO_SANITIZE``), and it never changes simulated
behaviour, so ``KernelConfig()`` is the same kernel in every process.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from repro.mem.sanitize import sanitize_enabled

__all__ = ["ChecksumMode", "PcbLookup", "KernelConfig"]


class ChecksumMode(Enum):
    """How the kernel handles the TCP checksum (§4)."""

    #: Stock BSD 4.4: in_cksum over the assembled segment in tcp_output /
    #: tcp_input (Tables 1-4 baseline).
    STANDARD = "standard"
    #: The paper's combined copy+checksum kernel: partial checksums during
    #: the user->kernel copy on transmit, checksum folded into the
    #: device->kernel copy on receive (Table 6).
    INTEGRATED = "integrated"
    #: Checksum elimination for local-area ATM traffic (Table 7).
    OFF = "off"


class PcbLookup(Enum):
    """PCB demultiplexing structure (§3 discussion)."""

    LIST = "list"  #: BSD's linear list, most-recently-created at head.
    HASH = "hash"  #: The 'simple hash table' the paper suggests.


@dataclass(frozen=True)
class KernelConfig:
    """One kernel build.

    Defaults correspond to the paper's baseline: BSD 4.4 alpha TCP with
    header prediction on, the standard checksum, and list-based PCBs.
    """

    #: PCB one-entry cache + TCP input fast path (disabled for Table 4).
    header_prediction: bool = True
    checksum_mode: ChecksumMode = ChecksumMode.STANDARD
    pcb_lookup: PcbLookup = PcbLookup.LIST
    #: Maximum TCP segment payload on the ATM path.  The FORE driver
    #: configuration in the paper produces two packets for an 8000-byte
    #: write and one for 4000 bytes; a page-sized MSS (4096) reproduces
    #: that segmentation.
    mss_atm: int = 4096
    #: Ethernet MSS: MTU 1500 minus 40 bytes of headers.
    mss_ethernet: int = 1460
    #: BSD delayed ACKs: piggyback on replies, force an ACK every second
    #: segment, flush on the 200 ms fast timer otherwise.
    delayed_ack: bool = True
    delack_timeout_us: float = 200_000.0
    #: Initial retransmission timeout (before RTT samples arrive), and
    #: the lower clamp of the adaptive RTO.
    rtx_timeout_us: float = 500_000.0
    min_rto_us: float = 200_000.0
    max_rto_us: float = 64_000_000.0
    #: Van Jacobson smoothed-RTT estimation with Karn's rule (BSD 4.4).
    rtt_estimation: bool = True
    #: Slow start + congestion avoidance (BSD 4.4 Reno-style).
    congestion_control: bool = True
    #: Zero-window persist probing interval.
    persist_timeout_us: float = 500_000.0
    #: Background PCBs representing 'standard ULTRIX daemons' (§3: all
    #: sampled workstations had fewer than 50 active PCBs).
    daemon_pcbs: int = 8
    #: §4.1.1 extension: socket layer predicts TCP segment boundaries
    #: when chunking partial checksums (paper's suggested improvement).
    socket_segment_prediction: bool = False
    #: Number of partial-checksum chunks per mbuf (§4.1.1 alternative:
    #: 'split the data in an mbuf into smaller chunks').
    partial_chunks_per_mbuf: int = 1
    #: Whether UDP computes its (optional) checksum.  ULTRIX-era
    #: deployments commonly disabled it for local NFS traffic (§4.2).
    udp_checksum: bool = True
    #: Socket buffer sizes (BSD 4.4 defaults).
    sendspace: int = 8192 * 2
    recvspace: int = 8192 * 2
    #: How long ``sosend`` sleeps in ``m_wait`` before retrying when the
    #: mbuf pool is exhausted (only reachable with an MbufPool limit).
    mbuf_wait_us: float = 1_000.0
    #: Runtime sanitizer (repro.mem.sanitize): allocation provenance,
    #: poison-on-free, leak-at-quiesce audits, timer-on-closed-conn
    #: detection.  Defaults to the ``REPRO_SANITIZE`` environment
    #: opt-in; never changes modelled costs or timing.
    sanitize: bool = field(default_factory=sanitize_enabled)

    def with_overrides(self, **kwargs) -> "KernelConfig":
        """A copy with some fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """Short human-readable tag for reports."""
        parts = [f"cksum={self.checksum_mode.value}"]
        if not self.header_prediction:
            parts.append("no-predict")
        if self.pcb_lookup is not PcbLookup.LIST:
            parts.append(f"pcb={self.pcb_lookup.value}")
        return ",".join(parts)
