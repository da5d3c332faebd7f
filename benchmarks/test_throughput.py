"""Beyond the tables: bulk throughput under the three checksum modes.

§4.2 argues that checksum elimination "can also benefit throughput
oriented applications", and §4.1 notes the integrated loop's ~9 MB/s
memory ceiling.  This benchmark measures one-way TCP goodput on the
simulated testbed and confirms (a) the receiver CPU is the bottleneck,
(b) the checksum modes order exactly as the paper predicts, and (c)
absolute numbers sit in the era-plausible single-digit MB/s range, well
below both the 140 Mb/s wire and the 9 MB/s copy ceiling.
"""

from repro.core.report import format_table
from repro.core.throughput import run_bulk_throughput
from repro.kern.config import ChecksumMode


def test_bulk_throughput_by_checksum_mode():
    def run():
        return {
            mode: run_bulk_throughput(total_bytes=300_000,
                                      checksum_mode=mode)
            for mode in (ChecksumMode.STANDARD, ChecksumMode.INTEGRATED,
                         ChecksumMode.OFF)
        }

    results = run()

    rows = [(mode.value, round(r.goodput_mb_s, 2),
             round(r.receiver_cpu_busy_frac * 100),
             round(r.sender_cpu_busy_frac * 100), r.retransmits)
            for mode, r in results.items()]
    print()
    print(format_table(
        "One-way bulk TCP goodput over ATM (300 KB)",
        ("mode", "MB/s", "rx_cpu%", "tx_cpu%", "rtx"), rows, width=10))

    std = results[ChecksumMode.STANDARD]
    integ = results[ChecksumMode.INTEGRATED]
    off = results[ChecksumMode.OFF]
    # Clean transfers.
    for r in results.values():
        assert r.retransmits == 0
    # §4.2 ordering: no checksum > integrated > standard.
    assert off.goodput_mb_s > integ.goodput_mb_s > std.goodput_mb_s
    # The receiver's drain/checksum path is the bottleneck.
    assert std.receiver_cpu_busy_frac > 0.7
    # All far below the 17.5 MB/s wire and the 9 MB/s copy ceiling:
    # protocol + driver costs dominate, the paper's overall story.
    assert off.goodput_mb_s < 9.0


def test_ethernet_throughput_wire_limited():
    result = run_bulk_throughput(total_bytes=120_000, network="ethernet")
    print(f"\nEthernet bulk goodput: {result.goodput_mb_s:.2f} MB/s "
          f"(wire ceiling 1.25 MB/s)")
    assert result.goodput_mb_s < 1.25
    # On Ethernet the wire, not the CPU, is the limit.
    assert result.receiver_cpu_busy_frac < 0.9
