"""Tests for kernel services: scheduler sleep/wakeup and the softint."""

import pytest

from repro.hw import decstation_5000_200
from repro.kern.sched import ProcessScheduler
from repro.kern.softint import SoftNet
from repro.net.headers import IPHeader, TCPHeader
from repro.net.packet import build_tcp_packet
from repro.sim import CPU, ClockCard, Priority, Simulator, SpanTracer
from repro.sim.engine import us


def make_kernel():
    sim = Simulator()
    cpu = CPU(sim)
    costs = decstation_5000_200()
    tracer = SpanTracer(ClockCard(sim), "host")
    sched = ProcessScheduler(sim, cpu, costs, tracer)
    softnet = SoftNet(sim, cpu, costs, tracer)
    return sim, cpu, costs, tracer, sched, softnet


def make_packet(payload=b"x"):
    ip = IPHeader(src=1, dst=2, total_length=0)
    tcp = TCPHeader(src_port=1, dst_port=2, seq=0, ack=0)
    return build_tcp_packet(ip, tcp, payload)


class TestScheduler:
    def test_sleep_until_wakeup(self):
        sim, cpu, costs, tracer, sched, _ = make_kernel()
        timeline = {}

        def sleeper():
            yield from sched.sleep("chan", span="rx.wakeup")
            timeline["woke"] = sim.now

        def waker():
            yield sim.timeout(10_000)
            yield from sched.wakeup("chan")

        sim.process(sleeper())
        sim.process(waker())
        sim.run()
        # wakeup cost + context switch after the wakeup call at 10us.
        expected = 10_000 + us(costs.wakeup_us) + us(costs.context_switch_us)
        assert timeline["woke"] == expected
        assert tracer.mean_us("rx.wakeup") == pytest.approx(
            costs.context_switch_us)

    def test_wakeup_with_no_sleepers_is_free(self):
        sim, cpu, _, _, sched, _ = make_kernel()

        def waker():
            yield from sched.wakeup("empty-chan")

        sim.process(waker())
        sim.run()
        assert cpu.busy_ns == 0
        assert sched.wakeups == 0

    def test_wakeup_latency_grows_under_interrupt_load(self):
        """The Wakeup span includes waiting for interrupt-level work —
        the mechanism behind the larger Wakeup values at large sizes."""
        sim, cpu, costs, tracer, sched, _ = make_kernel()

        def sleeper():
            yield from sched.sleep("chan", span="rx.wakeup")

        def waker():
            yield sim.timeout(1_000)
            yield from sched.wakeup("chan")
            # Immediately submit soft-interrupt work that outranks the
            # awakened process's context switch.
            yield cpu.run(us(100), Priority.SOFT_INTR, "more softint work")

        sim.process(sleeper())
        sim.process(waker())
        sim.run()
        assert tracer.mean_us("rx.wakeup") == pytest.approx(
            100 + costs.context_switch_us)

    def test_multiple_sleepers_all_wake(self):
        sim, _, _, _, sched, _ = make_kernel()
        woken = []

        def sleeper(tag):
            yield from sched.sleep("chan")
            woken.append(tag)

        for tag in range(3):
            sim.process(sleeper(tag))

        def waker():
            yield sim.timeout(5_000)
            yield from sched.wakeup("chan")

        sim.process(waker())
        sim.run()
        assert sorted(woken) == [0, 1, 2]
        assert sched.sleeps == 3

    def test_sleeping_on_count(self):
        sim, _, _, _, sched, _ = make_kernel()

        def sleeper():
            yield from sched.sleep("chan")

        sim.process(sleeper())
        sim.run(until=1)
        assert sched.sleeping_on("chan") == 1
        assert sched.sleeping_on("other") == 0


class TestSoftNet:
    def install_counter(self, softnet):
        seen = []

        def ip_input(packet):
            seen.append(packet)
            yield softnet.cpu.run(us(10), Priority.SOFT_INTR, "ip_input")

        softnet.ip_input = ip_input
        return seen

    def test_dispatch_latency_is_ipq_span(self):
        sim, cpu, costs, tracer, _, softnet = make_kernel()
        seen = self.install_counter(softnet)
        softnet.schednetisr(make_packet())
        sim.run()
        assert len(seen) == 1
        assert tracer.mean_us("rx.ipq") == pytest.approx(
            costs.softint_dispatch_us)

    def test_pure_ack_uses_ack_span(self):
        sim, _, _, tracer, _, softnet = make_kernel()
        self.install_counter(softnet)
        softnet.schednetisr(make_packet(payload=b""))
        sim.run()
        assert tracer.count("rx.ack.ipq") == 1
        assert tracer.count("rx.ipq") == 0

    def test_batch_drains_in_one_softint(self):
        sim, _, costs, tracer, _, softnet = make_kernel()
        seen = self.install_counter(softnet)
        for _ in range(3):
            softnet.schednetisr(make_packet())
        sim.run()
        assert len(seen) == 3
        # Only one dispatch: later packets waited behind earlier input
        # processing, so their IPQ spans grow.
        stats = tracer.stats("rx.ipq")
        assert stats.count == 3
        assert stats.max_us > stats.min_us

    def test_queue_overflow_drops(self):
        sim, _, _, _, _, softnet = make_kernel()
        seen = self.install_counter(softnet)
        for _ in range(SoftNet.IPQ_MAX + 10):
            softnet.schednetisr(make_packet())
        sim.run()
        assert len(seen) == SoftNet.IPQ_MAX
        assert softnet.dropped_full == 10

    def test_crash_in_ip_input_does_not_wedge_queue(self):
        """A corrupted datagram must not kill packet reception."""
        sim, cpu, _, _, _, softnet = make_kernel()
        seen = []

        def ip_input(packet):
            if not seen:
                seen.append("boom")
                raise RuntimeError("corrupted beyond parsing")
            seen.append(packet)
            yield cpu.run(us(5), Priority.SOFT_INTR, "ok")

        softnet.ip_input = ip_input
        softnet.schednetisr(make_packet())
        sim.run()
        softnet.schednetisr(make_packet())
        sim.run()
        assert len(seen) == 2  # the second packet was still processed

    def test_missing_handler_is_an_error(self):
        sim, _, _, _, _, softnet = make_kernel()
        softnet.schednetisr(make_packet())
        # The netisr process fails; the queue must not wedge.
        sim.run()
        assert softnet.queue_length == 0 or not softnet._pending
