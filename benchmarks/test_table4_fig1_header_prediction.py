"""Table 4 / Figure 1: effects of header prediction.

Compares a kernel with the PCB cache and TCP input fast path disabled
against the stock kernel, reproducing the paper's findings:

* below 8000 bytes the improvement is small and roughly independent of
  size (only the PCB cache helps; the fast path never fires for
  round-trip RPC traffic with piggybacked ACKs);
* at 8000 bytes the fast path succeeds for the second segment of each
  transfer, so the benefit is visibly larger.
"""

from conftest import run_sweep

from repro.core import paperdata
from repro.core.report import ascii_chart, format_table, pct_change
from repro.kern.config import KernelConfig


def test_table4_and_figure1(atm_baseline):
    no_predict = run_sweep(config=KernelConfig(header_prediction=False))

    rows = []
    for size in paperdata.SIZES:
        off = no_predict[size].mean_rtt_us
        on = atm_baseline[size].mean_rtt_us
        rows.append((size, round(off), paperdata.TABLE4_NO_PREDICTION[size],
                     round(on), paperdata.TABLE4_PREDICTION[size],
                     round(pct_change(off, on), 1)))
    print()
    print(format_table(
        "Table 4: round-trip times with and without header prediction",
        ("size", "no-pred", "(paper)", "pred", "(paper)", "dec%"), rows))
    print()
    print(ascii_chart(
        "Figure 1: Effects of Header Prediction (round-trip us)",
        paperdata.SIZES,
        {
            "with prediction": [atm_baseline[s].mean_rtt_us
                                for s in paperdata.SIZES],
            "without prediction": [no_predict[s].mean_rtt_us
                                   for s in paperdata.SIZES],
        }))

    for size in paperdata.SIZES:
        off = no_predict[size].mean_rtt_us
        on = atm_baseline[size].mean_rtt_us
        decrease = pct_change(off, on)
        # Prediction never hurts, and the improvement is small (<=10%),
        # matching the paper's 0-8% band.
        assert decrease >= -1.0, f"{size}B: prediction should not hurt"
        assert decrease <= 10.0, f"{size}B: improvement implausibly large"

    small_sizes = [4, 20, 80, 200, 500]
    small = [pct_change(no_predict[s].mean_rtt_us,
                        atm_baseline[s].mean_rtt_us) for s in small_sizes]
    # "basically independent of data size" below the two-segment case.
    assert max(small) - min(small) <= 5.0


def test_fast_path_hit_pattern(atm_baseline):
    """The mechanism behind Table 4's 8000-byte row: the fast path
    succeeds only for the second segment of two-segment transfers."""
    def collect():
        hits = {}
        for size in (200, 4000, 8000):
            stats = atm_baseline[size].server_stats
            hits[size] = (stats["fast_path_data_hits"],
                          stats["data_segs_received"])
        return hits

    hits = collect()
    # One hit per connection for the very first data segment (empty
    # pipe), none for the steady-state single-segment RPC exchanges...
    assert hits[200][0] <= 1
    assert hits[4000][0] <= 1
    # ...but roughly one hit for every two segments at 8000 bytes.
    data_hits, data_segs = hits[8000]
    assert data_hits >= data_segs // 2


def test_pcb_cache_savings_are_modest():
    """§3 summary: 'the PCB cache accounted for only a small improvement
    in latency (about 4% on average)'."""
    def ratio():
        on = run_sweep(sizes=[4, 200]).items()
        off = run_sweep(sizes=[4, 200],
                        config=KernelConfig(header_prediction=False))
        savings = []
        for size, r in on:
            savings.append(pct_change(off[size].mean_rtt_us,
                                      r.mean_rtt_us))
        return savings

    savings = ratio()
    # The paper itself records a -0.5% point (1400 bytes); the
    # benefit can vanish when the failed-prediction check overhead
    # cancels the cache hit.
    assert all(-2 <= s <= 8 for s in savings)
