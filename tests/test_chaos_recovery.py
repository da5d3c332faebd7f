"""Recovery invariants under chaos: the harness, sweep and racecheck.

Includes the zero-window persist-timer regression: a lost window-update
ACK must be rescued by the persist timer (tcp/conn.py promises this in
its output() comment), not by a lucky reverse-path segment.
"""

from dataclasses import replace

from repro.chaos import (
    ImpairmentConfig,
    Impairments,
    format_loss_sweep,
    racecheck_chaos,
    run_chaos_cell,
    run_loss_sweep,
)
from repro.core.experiment import SERVER_PORT, payload_pattern
from repro.core.testbed import build_atm_pair
from repro.kern.config import KernelConfig
from repro.sim.engine import us


class TestChaosCell:
    def test_clean_cell_is_green(self):
        cell = run_chaos_cell(size=1400, loss=0.0, iterations=4)
        assert cell.ok, cell.violations
        assert cell.completed == 4
        assert cell.goodput_mbps > 0
        assert cell.retransmits >= 0

    def test_lossy_cell_recovers(self):
        cell = run_chaos_cell(size=8000, loss=0.02, seed=1994,
                              iterations=12, warmup=2)
        assert cell.injected["drops"] > 0
        assert cell.retransmits > 0
        assert cell.ok, cell.violations

    def test_ethernet_path(self):
        cell = run_chaos_cell(size=1400, loss=0.02, seed=8,
                              network="ethernet", iterations=8)
        assert cell.ok, cell.violations

    def test_loss_degrades_goodput(self):
        clean = run_chaos_cell(size=8000, loss=0.0, iterations=8)
        lossy = run_chaos_cell(size=8000, loss=0.05, seed=1994,
                               iterations=8)
        assert clean.ok and lossy.ok
        if lossy.injected["drops"]:
            assert lossy.goodput_mbps < clean.goodput_mbps
            assert lossy.mean_rtt_us > clean.mean_rtt_us


class TestZeroWindowPersistRegression:
    def _run(self, drop_updates: int):
        """One-way transfer into a slow reader whose window-reopening
        ACK is deterministically dropped *drop_updates* times."""
        config = replace(KernelConfig(), recvspace=2048, sendspace=8192)
        impairments = Impairments(ImpairmentConfig(
            seed=7, drop_window_updates=drop_updates))
        testbed = build_atm_pair(config=config, impairments=impairments)
        size = 6000
        received = []

        def server(listener):
            child = yield from listener.accept()
            # Sleep well past the 200 ms delayed-ACK timer so the full
            # buffer is advertised as a real zero window before the app
            # drains it.
            yield testbed.sim.timeout(us(500_000))
            data = yield from child.recv(size, exact=True)
            received.append(data)

        def client():
            sock = testbed.client.socket()
            yield from sock.connect(testbed.server.address.ip,
                                    SERVER_PORT)
            yield from sock.send(payload_pattern(size))

        listener = testbed.server.socket()
        listener.listen(SERVER_PORT)
        server_done = testbed.server.spawn(server(listener),
                                           name="slow-reader")
        testbed.client.spawn(client(), name="one-way-sender")
        testbed.sim.run_until_triggered(server_done)
        conn = testbed.client.tcp.connections[0]
        return received, conn, impairments

    def test_zero_window_advertised_and_reopened(self):
        received, conn, impairments = self._run(drop_updates=0)
        assert received and received[0] == payload_pattern(6000)
        assert impairments.stats.window_update_drops == 0
        assert conn.stats.persist_probes == 0

    def test_lost_window_update_does_not_deadlock(self):
        received, conn, impairments = self._run(drop_updates=1)
        # The update was really dropped, the transfer still completed,
        # and it was the persist timer that probed the window open.
        assert impairments.stats.window_update_drops == 1
        assert received and received[0] == payload_pattern(6000)
        assert conn.stats.persist_probes >= 1


class TestSweepAndRacecheck:
    def test_small_sweep_all_green(self):
        results = run_loss_sweep(losses=(0.0, 0.02), sizes=(1400,),
                                 iterations=6)
        assert len(results) == 2
        assert all(r.ok for r in results), [
            v for r in results for v in r.violations]
        table = format_loss_sweep(results)
        assert "Chaos loss sweep" in table
        assert "ok" in table

    def test_sweep_table_reports_violations(self):
        cell = run_chaos_cell(size=200, loss=1.0, seed=5, iterations=2)
        assert not cell.ok
        table = format_loss_sweep([cell])
        assert "BAD" in table
        assert "violations:" in table

    def test_impaired_run_is_racecheck_clean(self):
        # seed 3 @ 8% drops packets within 4 iterations, so the check
        # really covers the recovery path, not a clean run.
        report = racecheck_chaos(size=1400, loss=0.08, seed=3,
                                 iterations=4)
        assert report.ok, report.format()
        assert report.baseline.counters.get("chaos.drops", 0) > 0
