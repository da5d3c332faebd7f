"""The unified observability layer (repro.obs): hooks, metrics, export.

Covers the ISSUE-1 checklist: deterministic hook ordering, metrics
agreeing with the packet log, Chrome-trace structural validity, the
zero-overhead (byte-identical) unobserved path, and the satellite
fixes in SpanStats/PacketLog/SpanTracer.
"""

import json
from collections import Counter

import pytest

from repro.core.experiment import run_round_trip
from repro.core.packetlog import PacketLog, attach_packet_log
from repro.core.testbed import build_atm_pair
from repro.obs import (
    MetricsRegistry,
    Observer,
    SimHooks,
    chrome_trace,
    metrics_text,
    trace_jsonl,
    write_chrome_trace,
)
from repro.sim.trace import SpanStats


# ----------------------------------------------------------------------
# Satellite fixes
# ----------------------------------------------------------------------
class TestSpanStatsMinFix:
    def test_never_recorded_min_is_zero_not_inf(self):
        stats = SpanStats("empty")
        assert stats.min_us == 0.0
        # The snapshot must be valid JSON (inf is not).
        json.dumps(stats.as_dict())

    def test_min_tracks_first_and_smallest(self):
        stats = SpanStats("s")
        stats.add(10.0)
        assert stats.min_us == 10.0
        stats.add(4.0)
        stats.add(25.0)
        assert stats.min_us == 4.0
        assert stats.max_us == 25.0
        assert stats.count == 3


class TestPacketLogLimit:
    def _log_with(self, n):
        tb = build_atm_pair()
        log = attach_packet_log(tb)
        result_holder = []

        # Cheaper: fabricate events through a real tiny run.
        from repro.core.experiment import RoundTripBenchmark
        RoundTripBenchmark(tb, size=4, iterations=n, warmup=0).run()
        return log

    def test_limit_zero_returns_no_events(self):
        log = self._log_with(1)
        assert len(log) > 0
        assert log.format(limit=0) == ""

    def test_limit_none_returns_everything(self):
        log = self._log_with(1)
        assert log.format(limit=None).count("\n") == len(log) - 1

    def test_limit_positive_truncates(self):
        log = self._log_with(2)
        assert log.format(limit=3).count("\n") == 2

    def test_sink_sees_every_event(self):
        seen = []
        log = PacketLog(sink=seen.append)
        tb = build_atm_pair()
        for host in tb.hosts:
            host.packet_log = log
        from repro.core.experiment import RoundTripBenchmark
        RoundTripBenchmark(tb, size=4, iterations=1, warmup=0).run()
        assert seen == log.events


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.inc("a.count")
        reg.inc("a.count", 4)
        reg.set_gauge("a.depth", 3)
        reg.set_max("a.depth", 2)     # not a new max: value stays
        reg.observe("a.wait_us", 15.0)
        reg.observe("a.wait_us", 3000.0)
        snap = reg.snapshot()
        assert snap["counters"]["a.count"] == 5
        assert snap["gauges"]["a.depth"] == {"value": 3, "max": 3}
        hist = snap["histograms"]["a.wait_us"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(3015.0)

    def test_scope_prefixes_names(self):
        reg = MetricsRegistry()
        reg.scope("client").inc("atm.interrupts")
        assert reg.value("client.atm.interrupts") == 1

    def test_format_text_lists_everything(self):
        reg = MetricsRegistry()
        reg.inc("x.n")
        reg.set_gauge("x.g", 2.5)
        reg.observe("x.h", 1.0)
        text = reg.format_text()
        for token in ("x.n", "x.g", "x.h", "counters", "gauges",
                      "histograms"):
            assert token in text

    def test_histogram_bounds_must_be_sorted(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", bounds=(5, 1))


# ----------------------------------------------------------------------
# Hooks: determinism and the zero-overhead default
# ----------------------------------------------------------------------
class _RecordingHooks(SimHooks):
    def __init__(self):
        self.log = []

    def on_job_start(self, now_ns, cpu, job):
        self.log.append(("start", now_ns, cpu.name, job.name))

    def on_job_preempt(self, now_ns, cpu, job):
        self.log.append(("preempt", now_ns, cpu.name, job.name))

    def on_job_resume(self, now_ns, cpu, job):
        self.log.append(("resume", now_ns, cpu.name, job.name))

    def on_job_finish(self, now_ns, cpu, job):
        self.log.append(("finish", now_ns, cpu.name, job.name))


class TestHooks:
    def _hooked_run(self):
        from repro.core.experiment import RoundTripBenchmark
        tb = build_atm_pair()
        hooks = _RecordingHooks()
        for host in tb.hosts:
            host.cpu.hooks = hooks
        RoundTripBenchmark(tb, size=200, iterations=3, warmup=1).run()
        return hooks.log, sum(host.cpu.jobs_completed for host in tb.hosts)

    def test_hooks_fire_in_deterministic_order(self):
        (first, jobs), (second, _) = self._hooked_run(), self._hooked_run()
        assert first == second
        assert len(first) > 100
        kinds = {entry[0] for entry in first}
        # Every job callback is exercised by a real run, including
        # preemption (ATM interrupt vs user copy).
        assert kinds == {"start", "preempt", "resume", "finish"}
        assert {entry[2] for entry in first} == {"client.cpu", "server.cpu"}
        # Inline charges report too: one finish per completed job.
        assert [entry[0] for entry in first].count("finish") == jobs

    def test_observed_run_rtts_byte_identical_to_seed(self):
        plain = run_round_trip(size=500, iterations=4, warmup=1)
        observed = run_round_trip(size=500, iterations=4, warmup=1,
                                  observer=Observer())
        assert observed.rtt_us == plain.rtt_us
        assert observed.client_spans == plain.client_spans
        assert observed.server_spans == plain.server_spans


def _execution(network, size, observed, p_drop=0.0):
    """What a run executed: its events, each host's CPU work, its RTT
    samples and its packet log, with or without a full observer."""
    from repro.chaos import ImpairmentConfig, Impairments
    from repro.core.experiment import RoundTripBenchmark
    from repro.core.testbed import build_pair

    impairments = (Impairments(ImpairmentConfig(seed=1994, p_drop=p_drop))
                   if p_drop else None)
    observer = Observer(lineage=True, flow=True) if observed else None
    tb = build_pair(network, observer=observer, impairments=impairments)
    log = observer.packet_log if observed else attach_packet_log(tb)
    result = RoundTripBenchmark(tb, size, iterations=8, warmup=1).run()
    if p_drop:
        assert impairments.stats.drops > 0
    return (tb.sim.events_executed,
            [(host.cpu.jobs_completed, host.cpu.preemptions,
              host.cpu.busy_ns) for host in tb.hosts],
            list(result.rtt_us), log.format())


@pytest.mark.parametrize("network,size,p_drop", [
    ("atm", 4, 0.0), ("atm", 8000, 0.0), ("ethernet", 1400, 0.0),
    ("atm", 1400, 0.15)], ids=["atm_4", "atm_8000", "ethernet_1400",
                               "atm_1400_lossy"])
def test_observing_does_not_change_execution(network, size, p_drop):
    """An observed run executes exactly the events of the unobserved
    one: no hook point in the event kernel, and inline CPU charges stay
    inline with hooks installed."""
    assert _execution(network, size, True, p_drop) == \
        _execution(network, size, False, p_drop)


# ----------------------------------------------------------------------
# Metrics vs packet log cross-check (table-1 style run)
# ----------------------------------------------------------------------
class TestMetricsAgainstPacketLog:
    def test_counters_match_packet_log(self):
        obs = Observer()
        run_round_trip(size=200, iterations=4, warmup=1, observer=obs)
        log = obs.packet_log
        assert log is not None and len(log) > 0
        for host in ("client", "server"):
            tx = len(log.filter(host=host, direction="tx"))
            rx = len(log.filter(host=host, direction="rx"))
            assert obs.metrics.value(f"{host}.packets.tx") == tx
            assert obs.metrics.value(f"{host}.packets.rx") == rx
            assert obs.metrics.value(f"{host}.ipstat.sent") == tx
            assert obs.metrics.value(f"{host}.tcpstat.segs_received") == rx

    def test_prediction_and_interrupt_counters_populated(self):
        obs = Observer()
        run_round_trip(size=200, iterations=4, warmup=1, observer=obs)
        assert obs.metrics.value("server.tcp.predict.hit") > 0
        assert obs.metrics.value("server.atm.interrupts") > 0
        assert obs.metrics.value("server.sched.cswitch") > 0
        # collect() folded final host state in as gauges.
        assert obs.metrics.value("server.cpu.busy_us") > 0
        assert obs.metrics.value("server.iface.cells_received") > 0


def _observed_table1():
    """The run behind ``repro metrics table1 --size 1400 --iterations 4``."""
    obs = Observer()
    run_round_trip(size=1400, iterations=4, warmup=1, observer=obs)
    return obs


def _observed_lossy_ethernet():
    from repro.chaos import ImpairmentConfig, Impairments
    obs = Observer()
    run_round_trip(size=1400, network="ethernet", iterations=20, warmup=2,
                   observer=obs, impairments=Impairments(
                       ImpairmentConfig(seed=1994, p_drop=0.05)))
    assert obs.metrics.value("client.tcp.retransmits") > 0
    return obs


@pytest.mark.parametrize("observed", [_observed_table1,
                                      _observed_lossy_ethernet],
                         ids=["table1", "lossy_ethernet"])
def test_no_name_is_both_counter_and_gauge(observed):
    """Each count has one source, so one name: the stack's stats are
    published as gauges, the live counters are what no stat records."""
    snap = observed().metrics.snapshot()
    assert not set(snap["counters"]) & set(snap["gauges"])


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestChromeTraceExport:
    def _observed(self):
        obs = Observer()
        run_round_trip(size=8000, iterations=2, warmup=1, observer=obs)
        return obs

    def test_round_trips_through_json_with_monotone_ts(self, tmp_path):
        obs = self._observed()
        path = tmp_path / "trace.json"
        n = write_chrome_trace(obs, str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == n > 0
        last = {}
        for event in events:
            if event.get("ph") == "M":
                continue
            key = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(key, -1.0)
            last[key] = event["ts"]

    def test_slices_include_paper_span_names(self):
        doc = chrome_trace(self._observed())
        names = {e["name"] for e in doc["traceEvents"]}
        for span in ("tx.user", "tx.tcp.checksum", "tx.tcp.mcopy",
                     "tx.ip", "tx.atm", "rx.atm", "rx.ipq", "rx.ip",
                     "rx.tcp.checksum", "rx.wakeup", "rx.user"):
            assert span in names, f"missing span {span}"

    def test_cpu_contexts_are_threads(self):
        doc = chrome_trace(self._observed())
        thread_names = {e["args"]["name"]
                        for e in doc["traceEvents"]
                        if e.get("ph") == "M"
                        and e["name"] == "thread_name"}
        assert {"cpu:hard_intr", "cpu:soft_intr", "cpu:kernel",
                "cpu:user", "spans", "net"} <= thread_names
        # Hardware-interrupt work really lands on tid 0.
        hard = [e for e in doc["traceEvents"]
                if e.get("cat") == "cpu" and e["tid"] == 0]
        assert any("intr" in e["name"] for e in hard)

    def test_jsonl_stream_is_parseable_and_summarized(self):
        obs = self._observed()
        lines = list(trace_jsonl(obs))
        records = [json.loads(line) for line in lines]
        types = {r["type"] for r in records}
        assert types == {"event", "metrics", "spans"}
        span_hosts = {r["host"] for r in records if r["type"] == "spans"}
        assert span_hosts == {"client", "server"}

    def test_metrics_text_includes_span_table(self):
        text = metrics_text(self._observed())
        assert "== spans: server ==" in text
        assert "rx.ipq" in text
        assert "client.tcp.segs_sent" in text

    def test_per_layer_thread_lanes(self):
        from repro.obs.observer import span_tid
        doc = chrome_trace(self._observed())
        thread_names = {e["args"]["name"]
                        for e in doc["traceEvents"]
                        if e.get("ph") == "M"
                        and e["name"] == "thread_name"}
        assert {"layer:user", "layer:tcp", "layer:ip", "layer:driver",
                "layer:ipq", "layer:wakeup"} <= thread_names
        spans = [e for e in doc["traceEvents"]
                 if e.get("cat") == "span"]
        assert spans
        assert all(e["tid"] == span_tid(e["name"]) for e in spans)
        # Distinct layers really land on distinct lanes.
        assert len({e["tid"] for e in spans}) >= 5


# ----------------------------------------------------------------------
# Multi-run aggregation on one Observer
# ----------------------------------------------------------------------
class TestObserverMultiRun:
    def test_collect_exposes_chaos_gauges(self):
        from repro.chaos import ImpairmentConfig, Impairments
        imp = Impairments(ImpairmentConfig(seed=7, p_drop=0.1))
        obs = Observer()
        run_round_trip(size=1400, iterations=6, warmup=1, observer=obs,
                       impairments=imp)
        assert imp.stats.packets_seen > 0
        for name, value in imp.stats.as_dict().items():
            assert obs.metrics.value(f"chaos.{name}") == value

    def test_two_sequential_runs_merge_spans(self):
        obs = Observer()
        run_round_trip(size=200, iterations=2, warmup=1, observer=obs)
        first = obs.spans["client"]["tx.user"]["count"]
        assert first > 0
        run_round_trip(size=200, iterations=2, warmup=1, observer=obs)
        merged = obs.spans["client"]["tx.user"]
        # The identical second run doubles counts and totals...
        assert merged["count"] == 2 * first
        # ...while min/max/mean are unchanged (idempotent under an
        # identical merge).
        single = Observer()
        run_round_trip(size=200, iterations=2, warmup=1,
                       observer=single)
        one = single.spans["client"]["tx.user"]
        assert merged["min_us"] == one["min_us"]
        assert merged["max_us"] == one["max_us"]
        assert merged["mean_us"] == pytest.approx(one["mean_us"])

    def test_recollect_is_idempotent_for_gauges(self):
        obs = Observer()
        run_round_trip(size=200, iterations=2, warmup=1, observer=obs)
        busy = obs.metrics.value("client.cpu.busy_us")
        snap = obs.metrics.snapshot()
        obs.collect()
        assert obs.metrics.value("client.cpu.busy_us") == busy
        assert obs.metrics.snapshot()["gauges"] == snap["gauges"]

    def test_recollect_is_idempotent_for_spans(self):
        obs = Observer()
        run_round_trip(size=200, iterations=2, warmup=1, observer=obs)
        counts = [obs.spans["client"]["tx.user"]["count"]]
        spans = json.dumps(obs.spans, sort_keys=True)
        obs.collect()
        counts.append(obs.spans["client"]["tx.user"]["count"])
        obs.collect()
        counts.append(obs.spans["client"]["tx.user"]["count"])
        # Two measured iterations plus the warmup one, every time.
        assert counts == [3, 3, 3]
        assert json.dumps(obs.spans, sort_keys=True) == spans

    def test_span_counts_equal_streamed_span_events(self):
        # The per-host aggregate and the trace come from one stream:
        # every span event counted once, warmup and both runs included.
        obs = Observer()
        run_round_trip(size=1400, iterations=3, warmup=2, observer=obs)
        run_round_trip(size=200, iterations=2, warmup=1, observer=obs)
        assert set(obs.spans) == {"client", "server"}
        for host, spans in obs.spans.items():
            pid = obs.pid_for_host(host)
            streamed = Counter(e["name"] for e in obs.trace_events
                               if e.get("cat") == "span"
                               and e["pid"] == pid)
            assert streamed
            assert {name: s["count"] for name, s in spans.items()} == \
                dict(streamed)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestObservabilityCLI:
    def test_list(self, capsys):
        from repro.__main__ import main
        assert main(["repro", "--list"]) == 0
        out = capsys.readouterr().out
        assert "sections:" in out and "table1" in out
        assert "trace-targets:" in out and "table2" in out

    def test_trace_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main
        out_path = tmp_path / "t2.json"
        assert main(["repro", "trace", "table2", "--out", str(out_path),
                     "--size", "1400", "--iterations", "2"]) == 0
        doc = json.loads(out_path.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "tx.tcp.checksum" in names

    def test_metrics_subcommand(self, capsys):
        from repro.__main__ import main
        assert main(["repro", "metrics", "table1", "--size", "80",
                     "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "client.tcpstat.segs_received" in out
        assert "== spans: client ==" in out

    def test_unknown_trace_target(self, capsys):
        from repro.__main__ import main
        assert main(["repro", "trace", "bogus"]) == 2
        assert "unknown trace target" in capsys.readouterr().out
