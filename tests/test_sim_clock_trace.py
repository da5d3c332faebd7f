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
        tracer = SpanTracer(ClockCard(sim))
        return sim, tracer

    def test_begin_end_records_duration(self):
        sim, tracer = self.make()
        token = tracer.begin("tx.user")
        sim.schedule(1000, lambda: None)
        sim.run()
        duration = tracer.end(token)
        assert duration == 1.0
        assert tracer.mean_us("tx.user") == 1.0
        assert tracer.count("tx.user") == 1

    def test_quantization_rounds_down(self):
        sim, tracer = self.make()
        token = tracer.begin("x")
        sim.schedule(79, lambda: None)  # 1 tick = 40ns
        sim.run()
        assert tracer.end(token) == pytest.approx(0.04)

    def test_mean_over_multiple_spans(self):
        _, tracer = self.make()
        tracer.record_value("rx.ip", 10.0)
        tracer.record_value("rx.ip", 20.0)
        assert tracer.mean_us("rx.ip") == 15.0
        stats = tracer.stats("rx.ip")
        assert stats.min_us == 10.0
        assert stats.max_us == 20.0
        assert stats.total_us == 30.0

    def test_unknown_span_is_zero(self):
        _, tracer = self.make()
        assert tracer.mean_us("nothing") == 0.0
        assert tracer.count("nothing") == 0
        assert tracer.stats("nothing") is None

    def test_reset_clears_everything(self):
        _, tracer = self.make()
        tracer.record_value("x", 1.0)
        tracer.reset()
        assert tracer.names() == []
