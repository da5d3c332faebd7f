"""§2.2.1 in-text: mbuf allocate+free costs 'just over 7 µs'."""

from repro.core import paperdata
from repro.core.microbench import mbuf_alloc_bench


def test_mbuf_alloc_free_cost():
    mean_us = mbuf_alloc_bench()
    print(f"\nmbuf allocate+free: {mean_us:.2f} us "
          f"(paper: just over {paperdata.MBUF_ALLOC_FREE_US} us)")
    assert paperdata.MBUF_ALLOC_FREE_US <= mean_us <= 7.6


def test_mbuf_cost_small_relative_to_transfer(atm_baseline):
    """§2.2.1: 'mbuf manipulation is a small cost relative to the
    overall cost of sending or receiving data'."""
    def fraction():
        rtt = atm_baseline[500].mean_rtt_us
        # ~6 mbufs per 500-byte direction, four alloc/free rounds/RT.
        mbuf_cost = 7.2 * 6 * 2
        return mbuf_cost / rtt

    frac = fraction()
    assert frac < 0.10
