"""Table 3: breakdown of BSD 4.4 alpha receive-side latency.

Regenerates the per-layer receive spans (ATM, IPQ, IP, TCP checksum/
segment, Wakeup, User).  Sizes up to 4000 bytes are single-segment and
compare row-by-row; the 8000-byte transfer is two segments whose
attribution differs from the paper's last-segment methodology (see
EXPERIMENTS.md), so only shape properties are asserted there.
"""

from repro.core import paperdata
from repro.core.breakdown import measure_breakdowns
from repro.core.report import format_table

SINGLE_SEGMENT_SIZES = [4, 20, 80, 200, 500, 1400, 4000]

TOLERANCE = {"atm": 0.25, "ipq": 0.25, "ip": 0.35, "checksum": 0.12,
             "segment": 0.20, "wakeup": 0.26, "user": 0.35, "total": 0.20}

ROWS = ("atm", "ipq", "ip", "checksum", "segment", "wakeup", "user",
        "total")


def test_table3():
    _, rx_rows = measure_breakdowns()

    print()
    table_rows = []
    for rx in rx_rows:
        paper = dict(zip(paperdata.TABLE3_ROWS,
                         paperdata.TABLE3_RECEIVE[rx.size]))
        for row in ROWS:
            table_rows.append((rx.size, row, round(rx.row(row), 1),
                               paper[row]))
    print(format_table("Table 3: receive-side breakdown (us)",
                       ("size", "layer", "sim", "paper"), table_rows,
                       width=10))

    for rx in rx_rows:
        if rx.size not in SINGLE_SEGMENT_SIZES:
            continue
        paper = dict(zip(paperdata.TABLE3_ROWS,
                         paperdata.TABLE3_RECEIVE[rx.size]))
        for row in ("atm", "ipq", "checksum", "segment", "wakeup",
                    "total"):
            if row == "ipq" and rx.size >= 1400:
                # The paper's IPQ roughly doubles at >=1400 bytes, an
                # artifact its text does not explain; our dispatch
                # latency stays flat (see EXPERIMENTS.md).
                continue
            sim = rx.row(row)
            assert abs(sim / paper[row] - 1) <= TOLERANCE[row], (
                f"{rx.size}B {row}: sim {sim:.1f} vs paper {paper[row]}")


def test_table3_atm_drain_dominates_large_receives():
    _, rx_rows = measure_breakdowns(sizes=[1400, 4000])
    for rx in rx_rows:
        # The uncached per-cell FIFO drain is the largest receive cost.
        assert rx.atm > rx.checksum
        assert rx.atm > rx.segment + rx.ip + rx.ipq


def test_table3_scheduling_share_small_transfers():
    """§2.2.4: IPQ+Wakeup ≈ 68 µs, ~6.7% of the 4-byte round trip."""
    _, rx_rows = measure_breakdowns(sizes=[4])
    rx = rx_rows[0]
    sched = rx.ipq + rx.wakeup
    assert 50 <= sched <= 85
