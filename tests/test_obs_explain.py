"""``repro explain``: single-RTT waterfalls, attribution, and diffs."""

import json

import pytest

from repro.obs.explain import (
    diff_runs,
    explain_rtt,
    run_traced,
    write_rtt_trace,
)


@pytest.fixture(scope="module")
def traced_1400():
    return run_traced(size=1400, iterations=3, warmup=1, label="t1400")


# ----------------------------------------------------------------------
# The tentpole acceptance: rows sum to the measured RTT
# ----------------------------------------------------------------------
class TestWaterfall:
    def test_rows_sum_exactly_to_window(self, traced_1400):
        for index in range(3):
            ex = explain_rtt(traced_1400, index=index)
            assert sum(r.ns for r in ex.rows) == ex.window_ns

    def test_window_matches_measured_rtt_within_clock_quantum(
            self, traced_1400):
        for index in range(3):
            ex = explain_rtt(traced_1400, index=index)
            assert abs(ex.window_us - ex.measured_rtt_us) <= 0.04 + 1e-9

    def test_every_layer_appears(self, traced_1400):
        ex = explain_rtt(traced_1400, index=0)
        names = {(r.name, r.host) for r in ex.rows}
        for host in ("client", "server"):
            for span in ("tx.user", "tx.tcp.segment", "tx.tcp.mcopy",
                         "tx.tcp.checksum", "tx.ip", "tx.atm", "rx.atm",
                         "rx.ipq", "rx.ip", "rx.tcp.checksum",
                         "rx.wakeup", "rx.user"):
                assert (span, host) in names, (span, host)
        assert ("wire.atm", "wire") in names

    def test_driver_copy_wire_overlap_reproduced(self, traced_1400):
        ex = explain_rtt(traced_1400, index=0)
        assert ex.overlap_ns > 0
        # The overlap is visible in the raw events: a wire event starts
        # before the driver-copy charge it rides under has ended.
        wire = next(e for e in ex.events if e.name == "wire.atm")
        tx_atm = next(e for e in ex.events if e.name == "tx.atm")
        assert wire.start_ns < tx_atm.end_ns
        assert wire.end_ns > tx_atm.end_ns

    def test_format_is_presentable(self, traced_1400):
        text = explain_rtt(traced_1400, index=1).format()
        assert "RTT #1" in text
        assert "driver-copy/wire overlap" in text
        assert "100.0%" in text

    def test_bad_index_raises(self, traced_1400):
        with pytest.raises(ValueError):
            explain_rtt(traced_1400, index=99)


class TestRttTraceExport:
    def test_chrome_trace_of_one_rtt(self, traced_1400, tmp_path):
        ex = explain_rtt(traced_1400, index=0)
        path = tmp_path / "rtt.json"
        n = write_rtt_trace(ex, str(path))
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == n
        assert doc["otherData"]["measured_rtt_us"] == ex.measured_rtt_us
        processes = {e["args"]["name"] for e in doc["traceEvents"]
                     if e.get("ph") == "M"
                     and e["name"] == "process_name"}
        assert processes == {"client", "server", "wire"}
        slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert slices
        assert all(e["ts"] >= 0.0 for e in slices)


# ----------------------------------------------------------------------
# Profile diffing
# ----------------------------------------------------------------------
class TestDiff:
    def test_identical_runs_diff_to_zero(self, traced_1400):
        other = run_traced(size=1400, iterations=3, warmup=1,
                           label="again")
        rows = diff_runs(traced_1400, other)
        assert rows
        assert all(row["delta_us"] == 0.0 for row in rows)

    def test_impaired_run_names_a_layer(self):
        from repro.chaos import ImpairmentConfig, Impairments
        from repro.obs.explain import format_diff

        imp = Impairments(ImpairmentConfig(seed=1994, p_drop=0.15))
        impaired = run_traced(size=1400, iterations=4, warmup=1,
                              impairments=imp, label="impaired")
        assert imp.stats.drops > 0
        clean = run_traced(size=1400, iterations=4, warmup=1,
                           label="clean")
        rows = diff_runs(clean, impaired)
        assert abs(rows[0]["delta_us"]) > 0  # sorted largest first
        text = format_diff(clean, impaired)
        assert "=>" in text


# ----------------------------------------------------------------------
# CLI (satellites 3 and 6)
# ----------------------------------------------------------------------
class TestExplainCLI:
    def test_explain_renders_waterfall(self, capsys):
        from repro.__main__ import main
        assert main(["repro", "explain", "table1", "--size", "1400",
                     "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "driver-copy/wire overlap" in out
        assert "attributed to" in out

    def test_explain_writes_rtt_trace(self, tmp_path, capsys):
        from repro.__main__ import main
        out_path = tmp_path / "rtt.json"
        assert main(["repro", "explain", "table1", "--size", "200",
                     "--iterations", "2", "--rtt", "1",
                     "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["otherData"]["rtt_index"] == 1

    def test_explain_diff_smoke(self, capsys):
        from repro.__main__ import main
        assert main(["repro", "explain", "--diff", "table1", "impaired",
                     "--size", "1400", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "attribution diff" in out
        assert "=>" in out

    def test_explain_rejects_unknown_target_and_index(self, capsys):
        from repro.__main__ import main
        assert main(["repro", "explain", "bogus"]) == 2
        assert main(["repro", "explain", "table1", "--size", "80",
                     "--iterations", "2", "--rtt", "99"]) == 2

    def test_metrics_csv_format(self, capsys):
        from repro.__main__ import main
        assert main(["repro", "metrics", "table1", "--size", "80",
                     "--iterations", "2", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "kind,name,field,value"
        assert all(len(line.split(",")) == 4 for line in lines)
        assert any(line.startswith("gauge,client.tcpstat.segs_received,")
                   for line in lines)
        assert any(line.startswith("span,server.rx.atm,") for line
                   in lines)

    def test_metrics_rejects_unknown_format(self, capsys):
        from repro.__main__ import main
        assert main(["repro", "metrics", "table1", "--format",
                     "yaml"]) == 2

    def test_trace_flow_jsonl(self, tmp_path, capsys):
        from repro.__main__ import main
        out_path = tmp_path / "t.json"
        flow_path = tmp_path / "flow.jsonl"
        assert main(["repro", "trace", "table1", "--size", "200",
                     "--iterations", "2", "--out", str(out_path),
                     "--flow", str(flow_path)]) == 0
        lines = flow_path.read_text().splitlines()
        assert lines
        assert {json.loads(line)["host"] for line in lines} \
            == {"client", "server"}
