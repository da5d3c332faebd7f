"""Tests for the microbenchmarks, breakdown harness, and paper data."""

import pytest

from repro.core import paperdata
from repro.core.breakdown import (
    ReceiveBreakdown,
    TransmitBreakdown,
    breakdowns_from_results,
    measure_breakdowns,
)
from repro.core.experiment import run_sweep
from repro.core.microbench import (
    copy_checksum_bench,
    mbuf_alloc_bench,
    pcb_search_bench,
)
from repro.hw import decstation_5000_200, sun_3


class TestCopyChecksumBench:
    def test_points_cover_requested_sizes(self):
        points = copy_checksum_bench(sizes=[4, 500])
        assert [p.size for p in points] == [4, 500]

    def test_functional_cross_check_runs(self):
        # The bench itself raises if the variants disagree; this runs it.
        points = copy_checksum_bench(sizes=[200])
        p = points[0]
        assert p.ultrix_total == p.ultrix_checksum + p.ultrix_bcopy
        assert p.savings_when_integrated_pct > 0

    def test_sun3_machine_selectable(self):
        points = copy_checksum_bench(machine=sun_3(), sizes=[1024])
        assert points[0].integrated == pytest.approx(200, rel=0.05)


class TestPcbBench:
    def test_default_lengths(self):
        points = pcb_search_bench()
        assert points[0].entries == 20
        assert points[-1].entries == 1000

    def test_cost_monotone(self):
        points = pcb_search_bench(lengths=[10, 100, 500])
        costs = [p.cost_us for p in points]
        assert costs == sorted(costs)


class TestMbufBench:
    def test_mean_cost(self):
        assert 6.5 < mbuf_alloc_bench() < 8.0

    def test_rounds_parameter(self):
        assert mbuf_alloc_bench(rounds=4) == pytest.approx(
            mbuf_alloc_bench(rounds=64), abs=0.5)


class TestBreakdownHarness:
    @pytest.fixture(scope="class")
    def rows(self):
        return measure_breakdowns(sizes=[200, 1400], iterations=4,
                                  warmup=1)

    def test_row_types_and_sizes(self, rows):
        tx, rx = rows
        assert [t.size for t in tx] == [200, 1400]
        assert isinstance(tx[0], TransmitBreakdown)
        assert isinstance(rx[0], ReceiveBreakdown)

    def test_totals_are_row_sums(self, rows):
        tx, rx = rows
        for t in tx:
            assert t.total == pytest.approx(
                t.user + t.checksum + t.mcopy + t.segment + t.ip + t.atm)
        for r in rx:
            assert r.total == pytest.approx(
                r.atm + r.ipq + r.ip + r.checksum + r.segment + r.wakeup
                + r.user)

    def test_tcp_total_property(self, rows):
        tx, rx = rows
        assert tx[0].tcp_total == pytest.approx(
            tx[0].checksum + tx[0].mcopy + tx[0].segment)
        assert rx[0].tcp_total == pytest.approx(
            rx[0].checksum + rx[0].segment)

    def test_row_accessor(self, rows):
        tx, _ = rows
        assert tx[0].row("user") == tx[0].user
        assert tx[0].row("total") == tx[0].total

    def test_ethernet_breakdowns_use_ether_span(self):
        tx, rx = measure_breakdowns(sizes=[200], network="ethernet",
                                    iterations=3, warmup=1)
        assert tx[0].atm > 0  # populated from tx.ether
        assert rx[0].atm > 0

    def test_rows_of_a_sweep_equal_a_breakdown_run(self, rows):
        # The CLI prints Tables 2 and 3 from Table 1's ATM sweep.
        swept = run_sweep(sizes=[200, 1400], iterations=4, warmup=1)
        assert breakdowns_from_results(swept.values()) == rows


class TestPaperData:
    def test_all_tables_cover_all_sizes(self):
        for table in (paperdata.TABLE1_ETHERNET_RTT,
                      paperdata.TABLE1_ATM_RTT,
                      paperdata.TABLE2_TRANSMIT,
                      paperdata.TABLE3_RECEIVE,
                      paperdata.TABLE4_NO_PREDICTION,
                      paperdata.TABLE5_COPY_CHECKSUM,
                      paperdata.TABLE6_INTEGRATED,
                      paperdata.TABLE7_NO_CHECKSUM):
            assert sorted(table) == sorted(paperdata.SIZES)

    def test_breakdown_rows_sum_to_totals(self):
        """The paper's own Tables 2/3 are internally consistent: the
        layer rows sum to the printed totals (within rounding)."""
        for size, row in paperdata.TABLE2_TRANSMIT.items():
            user, cksum, mcopy, seg, ip, atm, total = row
            assert user + cksum + mcopy + seg + ip + atm == pytest.approx(
                total, abs=2.5), f"Table 2 size {size}"
        for size, row in paperdata.TABLE3_RECEIVE.items():
            atm, ipq, ip, cksum, seg, wakeup, user, total = row
            assert (atm + ipq + ip + cksum + seg + wakeup
                    + user) == pytest.approx(total, abs=2.5), (
                f"Table 3 size {size}")

    def test_table1_decrease_consistent(self):
        for size in paperdata.SIZES:
            eth = paperdata.TABLE1_ETHERNET_RTT[size]
            atm = paperdata.TABLE1_ATM_RTT[size]
            assert (1 - atm / eth) * 100 == pytest.approx(
                paperdata.TABLE1_DECREASE_PCT[size], abs=1.0)

    def test_shared_baselines_are_identical_objects(self):
        assert paperdata.TABLE6_STANDARD is paperdata.TABLE1_ATM_RTT
        assert paperdata.TABLE7_CHECKSUM is paperdata.TABLE1_ATM_RTT
        assert paperdata.TABLE4_PREDICTION is paperdata.TABLE1_ATM_RTT
