"""Process scheduling: sleep/wakeup and the run-queue latency.

The paper's *Wakeup* span (Table 3) is "the time from when the user
process is placed on the run queue until the time it runs": in BSD terms
``wakeup()`` + ``setrunqueue()`` + the context switch, plus any time the
awakened process waits for interrupt-level work to drain.  The model
charges the ``wakeup()`` bookkeeping to the waker's context, then makes
the awakened process pay a context-switch cost on the CPU at process
priority — so if software interrupts are still running, the wakeup
latency grows, exactly as on the real machine.
"""

from __future__ import annotations

from typing import Dict, Generator, Hashable, Optional

from repro.sim.cpu import CPU, Priority
from repro.sim.engine import Simulator
from repro.sim.resources import Signal
from repro.sim.trace import SpanTracer

__all__ = ["ProcessScheduler"]


class ProcessScheduler:
    """Sleep channels plus wakeup/context-switch cost accounting."""

    def __init__(self, sim: Simulator, cpu: CPU, costs,
                 tracer: SpanTracer):
        self.sim = sim
        self.cpu = cpu
        self.costs = costs
        self.tracer = tracer
        self._channels: Dict[Hashable, Signal] = {}
        self.sleeps = 0
        self.wakeups = 0
        #: Observability scope (repro.obs), installed by Observer.attach.
        self.metrics = None
        #: Causal lineage recorder (repro.obs.lineage), installed by
        #: Observer.attach(lineage=True).
        self.lineage = None

    def _channel(self, chan: Hashable) -> Signal:
        signal = self._channels.get(chan)
        if signal is None:
            signal = self._channels[chan] = Signal(self.sim, name=str(chan))
        return signal

    def sleeping_on(self, chan: Hashable) -> int:
        """How many processes are currently asleep on *chan*."""
        signal = self._channels.get(chan)
        return signal.waiter_count if signal else 0

    def sleep(self, chan: Hashable,
              span: Optional[str] = None) -> Generator:
        """``yield from`` this to sleep until :meth:`wakeup` on *chan*.

        On wakeup the process pays the context-switch cost at process
        priority; with *span* given, the wakeup-to-running latency is
        recorded under that name (the paper's Wakeup row).
        """
        self.sleeps += 1
        wake_time_ns = yield self._channel(chan).wait()
        # Placed on the run queue: now compete for the CPU to switch in.
        cpu = self.cpu
        job = cpu.run(
            int(self.costs.context_switch_us * 1000),
            Priority.KERNEL, "cswitch", wait=True,
        )
        if job is not None:
            yield job
        if self.metrics is not None:
            self.metrics.inc("sched.cswitch")
            self.metrics.observe(
                "sched.wakeup_us", (self.sim.now - wake_time_ns) / 1000.0)
        if span:
            # A host-level span: it joins the recorder's event log but
            # no single causal record.
            self.tracer.record_value(span, wake_time_ns, self.lineage)

    def wakeup(self, chan: Hashable,
               priority: int = Priority.SOFT_INTR) -> Generator:
        """``yield from`` this from kernel code to wake sleepers on *chan*.

        Charges the ``wakeup()``/``setrunqueue()`` cost to the caller's
        CPU context (at *priority*), then fires the channel with the
        wakeup timestamp.
        """
        signal = self._channels.get(chan)
        if signal is None or signal.waiter_count == 0:
            return
        self.wakeups += 1
        cpu = self.cpu
        job = cpu.run(int(self.costs.wakeup_us * 1000), priority, "wakeup",
                      wait=True)
        if job is not None:
            yield job
        signal.fire(self.sim.now)
