"""Table 6: round-trip latency with the combined copy+checksum kernel.

The paper's kernel integrates the checksum with the user->kernel copy on
transmit (partial sums stored in mbuf headers) and with the device->
kernel copy on receive.  Reproduction criteria: the integrated kernel
*loses* at small sizes, *wins* at large sizes (~24% at 8000 bytes), and
the break-even point falls between 500 and 1400 bytes — the paper's
headline crossover.
"""

from conftest import run_sweep

from repro.core import paperdata
from repro.core.report import format_table, pct_change
from repro.kern.config import ChecksumMode, KernelConfig


def test_table6(atm_baseline):
    integrated = run_sweep(
        config=KernelConfig(checksum_mode=ChecksumMode.INTEGRATED))

    rows = []
    savings = {}
    for size in paperdata.SIZES:
        std = atm_baseline[size].mean_rtt_us
        integ = integrated[size].mean_rtt_us
        savings[size] = pct_change(std, integ)
        rows.append((size, round(std), round(integ),
                     paperdata.TABLE6_INTEGRATED[size],
                     round(savings[size], 1),
                     paperdata.TABLE6_SAVING_PCT[size]))
    print()
    print(format_table(
        "Table 6: standard vs combined copy+checksum round trips (us)",
        ("size", "standard", "combined", "(paper)", "sav%", "(paper)"),
        rows, width=10))

    # Loses at small sizes (negative saving), by roughly -22%..-12%.
    for size in (4, 20, 80, 200):
        assert savings[size] < -5, f"{size}B should get worse"
    # Wins at large sizes.
    for size in (1400, 4000, 8000):
        assert savings[size] > 5, f"{size}B should improve"
    # Paper: 24% improvement at 8000 bytes.
    assert abs(savings[8000] - paperdata.TABLE6_SAVING_PCT[8000]) <= 7
    # Break-even between 500 and 1400 bytes.
    assert savings[500] < 5
    assert savings[1400] > 0
    # Absolute values within 15%.
    for size in paperdata.SIZES:
        assert abs(integrated[size].mean_rtt_us
                   / paperdata.TABLE6_INTEGRATED[size] - 1) <= 0.15


def test_partial_checksums_cover_page_aligned_segments():
    result = run_sweep(
        sizes=[8000],
        config=KernelConfig(checksum_mode=ChecksumMode.INTEGRATED))
    stats = result[8000].client_stats
    # The socket layer's 4 KB chunks line up with the page-sized MSS, so
    # TCP combines stored partials instead of re-checksumming.
    assert stats["partial_cksum_hits"] > 0
    assert stats["partial_cksum_misses"] == 0
