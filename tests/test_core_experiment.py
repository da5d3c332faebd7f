"""Tests for the round-trip experiment harness."""

import dataclasses

import pytest

from repro.core.experiment import (
    PAPER_SIZES,
    RoundTripBenchmark,
    payload_pattern,
    run_round_trip,
    run_sweep,
)
from repro.core.testbed import build_atm_pair, build_pair
from repro.kern.config import KernelConfig


def _network_entry_points():
    """The entry points besides run_round_trip (see
    TestBenchmarkValidation) that build a testbed for a *network*
    name."""
    from repro.analysis.racecheck import digest_round_trip
    from repro.chaos.harness import run_chaos_cell
    from repro.chaos.triage import run_fuzz_cell
    from repro.core.errorstudy import run_error_study
    from repro.core.throughput import run_bulk_throughput
    from repro.core.workloads import LRPC_MIX, run_connection_scale, run_mix

    return {
        "build_pair": lambda net: build_pair(net),
        "run_error_study": lambda net: run_error_study(iterations=1,
                                                       network=net),
        "run_bulk_throughput": lambda net: run_bulk_throughput(network=net),
        "run_mix": lambda net: run_mix(LRPC_MIX, network=net),
        "run_connection_scale": lambda net: run_connection_scale(
            2, network=net),
        "run_chaos_cell": lambda net: run_chaos_cell(network=net),
        "run_fuzz_cell": lambda net: run_fuzz_cell(network=net),
        "digest_round_trip": lambda net: digest_round_trip(network=net),
    }


class TestPayloadPattern:
    def test_deterministic(self):
        assert payload_pattern(100) == payload_pattern(100)

    def test_seed_changes_content(self):
        assert payload_pattern(100, seed=1) != payload_pattern(100, seed=2)

    def test_position_dependent(self):
        data = payload_pattern(1000)
        # No long runs of identical bytes (mis-ordering is detectable).
        assert data[:100] != data[100:200]

    def test_length(self):
        assert len(payload_pattern(0)) == 0
        assert len(payload_pattern(8000)) == 8000


class TestBenchmarkValidation:
    def test_zero_size_rejected(self):
        tb = build_atm_pair()
        with pytest.raises(ValueError):
            RoundTripBenchmark(tb, size=0)

    def test_zero_iterations_rejected(self):
        tb = build_atm_pair()
        with pytest.raises(ValueError):
            RoundTripBenchmark(tb, size=100, iterations=0)

    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError):
            run_round_trip(size=4, network="token-ring")

    @pytest.mark.parametrize("entry", sorted(_network_entry_points()))
    def test_every_entry_point_rejects_an_unknown_network(self, entry):
        # run_error_study used to fall through to Ethernet.
        with pytest.raises(ValueError, match="unknown network 'bogus'"):
            _network_entry_points()[entry]("bogus")


class TestResults:
    def test_result_structure(self):
        result = run_round_trip(size=200, iterations=5, warmup=1)
        assert result.size == 200
        assert result.iterations == 5
        assert len(result.rtt_us) == 5
        assert result.mean_rtt_us > 0
        assert result.min_rtt_us <= result.mean_rtt_us <= result.max_rtt_us
        assert result.echo_errors == 0
        assert result.client_stats is not None
        assert result.server_stats is not None

    def test_steady_state_rtts_are_stable(self):
        """After warmup the simulator's RTTs are essentially constant."""
        result = run_round_trip(size=500, iterations=6, warmup=2)
        spread = result.max_rtt_us - result.min_rtt_us
        assert spread < 0.02 * result.mean_rtt_us

    def test_determinism_across_runs(self):
        a = run_round_trip(size=1400, iterations=4, warmup=1)
        b = run_round_trip(size=1400, iterations=4, warmup=1)
        assert a.rtt_us == b.rtt_us
        assert a.client_spans == b.client_spans

    def test_warmup_excluded_from_spans(self):
        """Tracer resets at the measurement boundary: span counts match
        the measured iterations only."""
        result = run_round_trip(size=200, iterations=5, warmup=3)
        # One data packet per direction per iteration.
        assert result.client_spans["tx.user"] > 0
        # tx.user recorded once per send; 5 measured sends.
        tb_count = 5
        per = result.span_per_transfer("client", "tx.user")
        assert per * tb_count == pytest.approx(
            result.client_spans["tx.user"])

    def test_span_per_transfer_unknown_is_zero(self):
        result = run_round_trip(size=4, iterations=3, warmup=1)
        assert result.span_per_transfer("client", "no.such.span") == 0.0

    def test_rtt_scales_with_size(self):
        small = run_round_trip(size=4, iterations=4, warmup=1)
        large = run_round_trip(size=8000, iterations=4, warmup=1)
        assert large.mean_rtt_us > 5 * small.mean_rtt_us


class TestRunSweep:
    def test_equals_run_round_trip_per_size_in_paper_order(self):
        config = KernelConfig(header_prediction=False)
        swept = run_sweep("atm", config, iterations=2, warmup=1)
        assert list(swept) == PAPER_SIZES
        for size, result in swept.items():
            direct = run_round_trip(size=size, config=config,
                                    iterations=2, warmup=1)
            assert dataclasses.asdict(result) == dataclasses.asdict(direct)


class TestResourceHygiene:
    def test_no_mbuf_leaks_after_run(self):
        tb = build_atm_pair()
        bench = RoundTripBenchmark(tb, size=500, iterations=5, warmup=1)
        bench.run()
        for host in tb.hosts:
            # Only the last un-acked reply may still sit in a sockbuf.
            assert host.pool.in_use <= 12, (
                f"{host.name} leaked {host.pool.in_use} mbufs")

    def test_cpu_goes_idle_after_run(self):
        tb = build_atm_pair()
        bench = RoundTripBenchmark(tb, size=200, iterations=3, warmup=1)
        bench.run()
        for host in tb.hosts:
            assert host.cpu.idle

    def test_both_hosts_do_comparable_work(self):
        tb = build_atm_pair()
        RoundTripBenchmark(tb, size=500, iterations=5, warmup=1).run()
        c, s = tb.client.cpu.busy_ns, tb.server.cpu.busy_ns
        assert 0.7 < c / s < 1.4
