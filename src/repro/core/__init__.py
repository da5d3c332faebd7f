"""The latency-analysis harness: testbeds, experiments, reports."""

from repro.core.breakdown import (
    ReceiveBreakdown,
    TransmitBreakdown,
    measure_breakdowns,
)
from repro.core.errorstudy import ErrorStudyResult, run_error_study
from repro.core.experiment import (
    PAPER_SIZES,
    RoundTripBenchmark,
    RoundTripResult,
    payload_pattern,
    run_round_trip,
    run_sweep,
)
from repro.core.microbench import (
    CopyChecksumPoint,
    copy_checksum_bench,
    mbuf_alloc_bench,
    pcb_search_bench,
)
from repro.core.packetlog import PacketEvent, PacketLog, attach_packet_log
from repro.core.profile import format_profile, profile_host
from repro.core.report import ascii_chart, format_table, pct_change
from repro.core.testbed import Testbed, build_atm_pair, build_ethernet_pair
from repro.core.throughput import ThroughputResult, run_bulk_throughput
from repro.core.workloads import (
    BULKY_MIX,
    LRPC_MIX,
    NFS_MIX,
    MixResult,
    RPCMix,
    run_mix,
)
from repro.core.validation import (
    ArtifactScore,
    ValidationReport,
    validate_reproduction,
)
from repro.core import paperdata

__all__ = [
    "BULKY_MIX",
    "CopyChecksumPoint",
    "LRPC_MIX",
    "MixResult",
    "NFS_MIX",
    "RPCMix",
    "run_mix",
    "ArtifactScore",
    "ValidationReport",
    "validate_reproduction",
    "ErrorStudyResult",
    "PAPER_SIZES",
    "PacketEvent",
    "PacketLog",
    "ThroughputResult",
    "attach_packet_log",
    "format_profile",
    "profile_host",
    "run_bulk_throughput",
    "ReceiveBreakdown",
    "RoundTripBenchmark",
    "RoundTripResult",
    "Testbed",
    "TransmitBreakdown",
    "ascii_chart",
    "build_atm_pair",
    "build_ethernet_pair",
    "copy_checksum_bench",
    "format_table",
    "mbuf_alloc_bench",
    "measure_breakdowns",
    "paperdata",
    "payload_pattern",
    "pcb_search_bench",
    "pct_change",
    "run_error_study",
    "run_round_trip",
    "run_sweep",
]
