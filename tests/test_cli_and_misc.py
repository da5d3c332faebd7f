"""CLI smoke tests and odds-and-ends coverage."""

import pytest

from repro.__main__ import SECTIONS, main
from repro.core import testbed
from repro.hw.costs import LinearCost, decstation_5000_200
from repro.kern.config import ChecksumMode, KernelConfig, PcbLookup


class TestCLI:
    def test_unknown_section_rejected(self, capsys):
        assert main(["repro", "nonsense"]) == 2
        out = capsys.readouterr().out
        assert "unknown section" in out
        assert "table1" in out

    def test_fast_sections_run(self, capsys):
        assert main(["repro", "pcb", "mbuf", "sun3"]) == 0
        out = capsys.readouterr().out
        assert "PCB linear search" in out
        assert "mbuf allocate+free" in out
        assert "Sun-3" in out or "scaling" in out

    def test_table5_section(self, capsys):
        assert main(["repro", "table5"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "Figure 2" in out

    def test_bench_both_rejects_out(self, capsys):
        assert main(["repro", "bench", "--both", "--out", "r.json"]) == 2
        assert capsys.readouterr().out == \
            "bench: takes no arguments, got --both --out r.json\n"

    @pytest.mark.parametrize("argv", [
        *([tool, *bad] for tool in ("trace", "metrics", "explain",
                                    "racecheck")
          for bad in (["--size", "0"], ["--size", "-5"],
                      ["--iterations", "0"])),
        ["racecheck", "--tiebreaks", "lifo,bogus"],
        ["racecheck", "--tiebreaks", "shuffle:z"],
        ["racecheck", "--tiebreaks", ","],
        ["racecheck", "--tiebreaks", "fifo"],
        ["chaos", "--network", "bogus"],
        ["chaos", "--sizes", "1400,0"],
        ["chaos", "--iterations", "0"],
        ["chaos", "--losses", "1.5"],
        ["chaos", "--losses", "0,1.5"],
        ["chaos", "--losses", "nan"],
        ["chaos", "--losses", ","],
        ["chaos", "--sizes", ","],
        ["fuzz", "--network", "bogus"],
        ["fuzz", "--seeds", "0"],
        ["fuzz", "--seeds", "-2"],
        ["fuzz", "--packets", "-5"],
        ["fuzz", "--budget", "-1"],
        ["fuzz", "--budget", "0"],
        ["fuzz", "--budget", "nan"],
        ["fuzz", "--replay", "no/such/case.json"],
        ["bench", "--quick"],
    ], ids=" ".join)
    def test_usage_error_exits_2_with_one_line(self, argv, capsys,
                                               monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError(f"{argv} started a run")

        monkeypatch.setattr(testbed, "Simulator", no_run)
        assert main(["repro", *argv]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"{argv[0]}: ") and out.count("\n") == 1

    @pytest.mark.parametrize("tool", ["lint", "sanitize"])
    def test_finding_tool_rejects_missing_path(self, tool, capsys,
                                               tmp_path):
        assert main(["repro", tool, str(tmp_path), "no/such/path"]) == 2
        assert capsys.readouterr().out == \
            f"{tool}: no such file or directory: no/such/path\n"

    def test_all_sections_registered(self):
        for name in ("table1", "table2", "table3", "table4", "table5",
                     "table6", "table7", "pcb", "mbuf", "sun3", "errors",
                     "summary"):
            assert name in SECTIONS


class TestKernelConfig:
    def test_describe_baseline(self):
        assert KernelConfig().describe() == "cksum=standard"

    def test_describe_variants(self):
        config = KernelConfig(header_prediction=False,
                              checksum_mode=ChecksumMode.OFF,
                              pcb_lookup=PcbLookup.HASH)
        text = config.describe()
        assert "cksum=off" in text
        assert "no-predict" in text
        assert "pcb=hash" in text

    def test_with_overrides_immutable(self):
        base = KernelConfig()
        changed = base.with_overrides(mss_atm=2048)
        assert base.mss_atm == 4096
        assert changed.mss_atm == 2048

    def test_frozen(self):
        with pytest.raises(Exception):
            KernelConfig().mss_atm = 1  # type: ignore[misc]


class TestLinearCost:
    def test_ns_rounding(self):
        cost = LinearCost(1.5, 0.1)
        assert cost.ns(10) == 2500

    def test_bandwidth(self):
        cost = LinearCost(0.0, 0.1)  # 10 bytes per us
        assert cost.bandwidth_mb_s(1000) == pytest.approx(10.0)

    def test_bandwidth_zero_cost(self):
        assert LinearCost(0.0, 0.0).bandwidth_mb_s(100) == float("inf")

    def test_machine_override(self):
        dec = decstation_5000_200()
        tweaked = dec.with_overrides(ip_output_us=99.0)
        assert tweaked.ip_output_us == 99.0
        assert dec.ip_output_us != 99.0
        assert tweaked.name == dec.name


class TestMultipleAccepts:
    def test_listener_accepts_sequential_clients(self):
        from repro.core.experiment import SERVER_PORT, payload_pattern
        from repro.core.testbed import build_atm_pair
        tb = build_atm_pair()
        listener = tb.server.socket()
        listener.listen(SERVER_PORT)

        def server(listener):
            served = 0
            for _ in range(3):
                child = yield from listener.accept()
                data = yield from child.recv(64, exact=True)
                yield from child.send(data)
                served += 1
            return served

        def client(index):
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            payload = payload_pattern(64, seed=index)
            yield from sock.send(payload)
            echoed = yield from sock.recv(64, exact=True)
            assert echoed == payload
            return sock

        server_done = tb.server.spawn(server(listener))
        for i in range(3):
            done = tb.client.spawn(client(i))
            tb.sim.run_until_triggered(done)
        tb.sim.run_until_triggered(server_done)
        assert server_done.value == 3
        # Three distinct child connections were demultiplexed.
        ports = {c.pcb.remote_port for c in tb.server.tcp.connections
                 if not c.pcb.is_listener}
        assert len(ports) == 3
