"""Unit tests for the measurement clock card and the span tracer."""

import pytest

from repro.sim import AN1_PERIOD_NS, ClockCard, Simulator, SpanTracer


class TestClockCard:
    def test_default_period_matches_paper(self):
        assert AN1_PERIOD_NS == 40

    def test_quantizes_to_ticks(self):
        sim = Simulator()
        clock = ClockCard(sim)
        sim.schedule(95, lambda: None)
        sim.run()
        assert sim.now == 95
        assert clock.read_ticks() == 2
        assert clock.read_ns() == 80
        assert clock.read_us() == 0.08

    def test_delta_us(self):
        sim = Simulator()
        clock = ClockCard(sim)
        assert clock.delta_us(0, 25) == 1.0

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            ClockCard(Simulator(), period_ns=0)


class TestSpanTracer:
    def make(self):
        sim = Simulator()
        tracer = SpanTracer(ClockCard(sim), "client")
        return sim, tracer

    def advance(self, sim, ns):
        sim.schedule(ns, lambda: None)
        sim.run()

    def test_begin_end_records_duration(self):
        sim, tracer = self.make()
        start_ns = sim.now
        self.advance(sim, 1000)
        duration = tracer.end("tx.user", start_ns)
        assert duration == 1.0
        assert tracer.mean_us("tx.user") == 1.0
        assert tracer.count("tx.user") == 1

    def test_quantization_rounds_down(self):
        sim, tracer = self.make()
        start_ns = sim.now
        self.advance(sim, 79)  # 1 tick = 40ns
        assert tracer.end("x", start_ns) == pytest.approx(0.04)

    def test_end_counts_whole_ticks_record_value_raw_ns(self):
        sim, tracer = self.make()
        self.advance(sim, 39)
        start_ns = sim.now
        self.advance(sim, 42)  # now = 81: ticks 0 -> 2
        assert tracer.end("cpu", start_ns) == pytest.approx(0.08)
        assert tracer.record_value("wait", start_ns) == pytest.approx(0.042)

    def test_mean_over_multiple_spans(self):
        sim, tracer = self.make()
        self.advance(sim, 30_000)
        tracer.record_value("rx.ip", 20_000)
        tracer.record_value("rx.ip", 10_000)
        assert tracer.mean_us("rx.ip") == 15.0
        stats = tracer.stats("rx.ip")
        assert stats.min_us == 10.0
        assert stats.max_us == 20.0
        assert stats.total_us == 30.0

    def test_one_call_feeds_aggregate_sink_and_lineage(self):
        from repro.obs.lineage import LineageRecorder

        sim, tracer = self.make()
        streamed = []
        tracer.sink = lambda *args: streamed.append(args)
        recorder = LineageRecorder()
        write = recorder.begin_write("client", 4, 0)
        self.advance(sim, 1_000)
        tracer.end("tx.user", 200, write)
        tracer.record_value("rx.wakeup", 500, recorder)
        assert streamed == [("tx.user", 0.8, 1.0), ("rx.wakeup", 0.5, 1.0)]
        assert [(ev.name, ev.host, ev.start_ns, ev.end_ns, ev.duration_us)
                for ev in recorder.events] == [
            ("tx.user", "client", 200, 1_000, 0.8),
            ("rx.wakeup", "client", 500, 1_000, 0.5)]
        assert write.events == recorder.events[:1]
        assert recorder.aggregate("client") == {
            name: tracer.total_us(name) for name in tracer.names()}

    def test_unknown_span_is_zero(self):
        _, tracer = self.make()
        assert tracer.mean_us("nothing") == 0.0
        assert tracer.count("nothing") == 0
        assert tracer.stats("nothing") is None

    def test_reset_clears_everything(self):
        _, tracer = self.make()
        tracer.record_value("x", 0)
        tracer.reset()
        assert tracer.names() == []
