"""Table 1: comparison of ATM versus Ethernet round-trip latencies.

Regenerates both columns of Table 1 and the percentage-decrease column.
Reproduction criteria: ATM beats Ethernet at every size, the decrease is
in the paper's 45-55% band (±10 points), and absolute RTTs are within
±20% of the published values.
"""

from conftest import run_sweep

from repro.core import paperdata
from repro.core.report import format_table, pct_change


def test_table1(atm_baseline):
    ethernet = run_sweep(network="ethernet")

    rows = []
    for size in paperdata.SIZES:
        eth = ethernet[size].mean_rtt_us
        atm = atm_baseline[size].mean_rtt_us
        decrease = pct_change(eth, atm)
        rows.append((size, round(eth), paperdata.TABLE1_ETHERNET_RTT[size],
                     round(atm), paperdata.TABLE1_ATM_RTT[size],
                     round(decrease), paperdata.TABLE1_DECREASE_PCT[size]))
    print()
    print(format_table(
        "Table 1: ATM vs Ethernet round-trip times (us)",
        ("size", "ether", "(paper)", "atm", "(paper)", "dec%", "(paper)"),
        rows))

    for size in paperdata.SIZES:
        eth = ethernet[size].mean_rtt_us
        atm = atm_baseline[size].mean_rtt_us
        # Who wins: ATM, at every size.
        assert atm < eth, f"ATM should beat Ethernet at {size}B"
        # By roughly the paper's factor.
        decrease = pct_change(eth, atm)
        assert abs(decrease - paperdata.TABLE1_DECREASE_PCT[size]) <= 12, (
            f"{size}B: decrease {decrease:.0f}% vs paper "
            f"{paperdata.TABLE1_DECREASE_PCT[size]}%")
        # Absolute values in range.
        assert abs(atm / paperdata.TABLE1_ATM_RTT[size] - 1) <= 0.20
        assert abs(eth / paperdata.TABLE1_ETHERNET_RTT[size] - 1) <= 0.20


def test_table1_monotonic_in_size(atm_baseline):
    def check():
        rtts = [atm_baseline[s].mean_rtt_us for s in paperdata.SIZES]
        return rtts

    rtts = check()
    assert rtts == sorted(rtts), "RTT must grow with transfer size"
