"""Preemptive priority CPU model.

The DECstation in the paper has a single R3000 CPU shared by hardware
interrupt handlers, software interrupts (the IP input queue), and user
processes executing in kernel or user mode.  The latency spans the paper
measures — in particular *IPQ* (software-interrupt dispatch latency) and
*Wakeup* (run-queue scheduling latency) — are consequences of this
sharing, so the CPU is modelled explicitly:

* Work is submitted as a :class:`Job` with a duration and a priority
  level (:class:`Priority`).
* The highest-priority ready job runs; arrival of a strictly
  higher-priority job preempts the running one, which keeps its remaining
  work and resumes later (this is how an ATM receive interrupt steals
  cycles from a user process mid-copy, exactly the "cache effects /
  overlap" structure the paper describes).
* Equal priorities are FIFO and non-preemptive with respect to each
  other, matching the BSD kernel's non-preemptive top half.

A charge costs at most one heap event: the job is its own completion
:class:`~repro.sim.engine.Event`, and when the job finishes the CPU
first starts the next ready job and then resumes the job's waiters
straight from the completion's dispatch slot (the direct path
:meth:`Simulator.timeout` also takes), with no delay-0 hop through
:meth:`Event.succeed`.  Starting the next job first keeps the order
the hop gave: a more urgent job the resumed process submits at once
still preempts that job at the same instant.  A job that can start at
once (the CPU is idle, or it preempts a less urgent job) starts
without a trip through the ready heap.

A charge that nothing can interrupt builds nothing at all.  A submitter
that waits on its job at once passes ``wait=True``.  When the job
would start at once and :meth:`Simulator.advance` finds nothing the
loop could run before it ends, :meth:`CPU.run` does the work on the
spot and returns ``None``: no :class:`Job`, no event, and the
submitter carries on without suspending its generator chain.
Otherwise it returns the job to yield.  A plain ``yield cpu.run(...)``
keeps the one-event path.  Locks take the same shortcut through the
same test: :meth:`repro.sim.resources.Semaphore.acquire` with
``wait=True``.

Observability enters here and nowhere in the event kernel:
:attr:`CPU.hooks` (a :class:`repro.obs.hooks.SimHooks`, ``None`` by
default) hears each job start, preemption, resumption and finish.  An
inline charge builds a :class:`Job` only when hooks are installed, and
reports its start and finish with the times and order the completion
dispatch would have used, so installed hooks never change which path
a charge takes or how many events a run executes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, List, Optional, Tuple

from repro.sim.engine import Event, ScheduledCall, Simulator

__all__ = ["Priority", "Job", "CPU"]


class Priority:
    """CPU priority levels; lower value = more urgent."""

    HARD_INTR = 0  #: hardware interrupt (device) handlers
    SOFT_INTR = 1  #: software interrupts (e.g. ipintr off the IP queue)
    KERNEL = 2     #: a process executing in the kernel (syscall path)
    USER = 3       #: a process executing user-mode code

    NAMES = {0: "hard_intr", 1: "soft_intr", 2: "kernel", 3: "user"}


class Job(Event):
    """One piece of CPU work: a duration at a priority level.

    A job is its own completion event, named by its label: it succeeds
    (with value ``None``) once the CPU has dedicated ``duration_ns`` of
    (possibly non-contiguous) time to it, so a process simply yields
    the job that :meth:`CPU.run` returns.
    """

    __slots__ = ("priority", "seq", "remaining", "started")

    def __init__(self, sim: Simulator, priority: int, seq: int,
                 duration_ns: int, name: str):
        Event.__init__(self, sim, name)
        self.priority = priority
        self.seq = seq
        self.remaining = duration_ns
        #: Whether the job has ever held the CPU (start vs resume hooks).
        self.started = False

    def __repr__(self) -> str:
        return (f"<Job {self.name!r} prio={self.priority} "
                f"remaining={self.remaining}ns>")


class CPU:
    """A single processor multiplexed between priority levels."""

    def __init__(self, sim: Simulator, name: str = "cpu"):
        self.sim = sim
        self.name = name
        #: Ready jobs as ``(priority, seq, job)``: equal priorities are
        #: FIFO by submission order, and sift compares stay on ints.
        self._ready: List[Tuple[int, int, Job]] = []
        self._running: Optional[Job] = None
        self._completion: Optional[ScheduledCall] = None
        self._run_started_at = 0
        self._seq = itertools.count()
        #: Job lifecycle hooks (a repro.obs.hooks.SimHooks) or None;
        #: Observer.attach_host installs them.
        self.hooks: Optional[Any] = None
        # Accounting (diagnostics and utilization tests).
        self.busy_ns = 0
        self.preemptions = 0
        self.jobs_completed = 0
        #: CPU time by job label (a cycles-profile of the kernel).
        self.busy_by_label: dict = {}

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def run(self, duration_ns: int, priority: int = Priority.KERNEL,
            name: str = "work", wait: bool = False) -> Optional[Job]:
        """Submit *duration_ns* of work; returns the :class:`Job`, which
        is the completion event.

        Typical use from a simulated process::

            yield cpu.run(cost.copyin(n), Priority.KERNEL, "copyin")

        A submitter that waits on the job at once passes ``wait=True``
        and yields only what comes back::

            job = cpu.run(cost, Priority.KERNEL, "copyin", wait=True)
            if job is not None:
                yield job

        ``None`` means the work is already done: the job would have
        started at once and :meth:`Simulator.advance` found nothing the
        loop could run before it ended, so the clock stands at its end,
        a preempted job has resumed, and the accounting and the
        :attr:`hooks` calls are exactly what the completion's dispatch
        would have left.
        """
        if duration_ns < 0:
            raise ValueError(f"negative CPU work: {duration_ns}")
        duration_ns = int(duration_ns)
        sim = self.sim
        running = self._running
        if running is not None and priority >= running.priority:
            # Not more urgent than the running job: wait in the ready
            # heap, FIFO among equal priorities.
            seq = next(self._seq)
            job = Job(sim, priority, seq, duration_ns, name)
            heapq.heappush(self._ready, (priority, seq, job))
            return job
        if running is not None:
            self._preempt()
        if wait and sim.advance(sim.now + duration_ns):
            self._account(name, duration_ns)
            self.jobs_completed += 1
            hooks = self.hooks
            if hooks is not None:
                # A job for the hooks alone: _start's and _complete's
                # calls, at their times, before the next job starts.
                job = Job(sim, priority, next(self._seq), duration_ns, name)
                hooks.on_job_start(sim.now - duration_ns, self, job)
                hooks.on_job_finish(sim.now, self, job)
            if self._ready:
                self._start(heapq.heappop(self._ready)[2])
            return None
        job = Job(sim, priority, next(self._seq), duration_ns, name)
        self._start(job)
        return job

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when nothing is running or ready."""
        return self._running is None and not self._ready

    @property
    def running_job(self) -> Optional[Job]:
        """The job currently holding the CPU, if any."""
        return self._running

    def queue_depth(self, priority: Optional[int] = None) -> int:
        """Number of ready (not running) jobs, optionally per priority."""
        if priority is None:
            return len(self._ready)
        return sum(1 for entry in self._ready if entry[0] == priority)

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------
    def _start(self, job: Job) -> None:
        """Give the idle CPU to *job* until it completes or is
        preempted."""
        sim = self.sim
        now = sim.now
        self._running = job
        self._run_started_at = now
        hooks = self.hooks
        if hooks is not None:
            if job.started:
                hooks.on_job_resume(now, self, job)
            else:
                hooks.on_job_start(now, self, job)
        job.started = True
        self._completion = sim.schedule(job.remaining, self._complete, job)

    def _account(self, label: str, elapsed: int) -> None:
        self.busy_ns += elapsed
        if elapsed:
            self.busy_by_label[label] = (
                self.busy_by_label.get(label, 0) + elapsed)

    def _preempt(self) -> None:
        job = self._running
        assert job is not None and self._completion is not None
        elapsed = self.sim.now - self._run_started_at
        job.remaining -= elapsed
        self._account(job.name, elapsed)
        self._completion.cancel()
        self._completion = None
        self._running = None
        self.preemptions += 1
        heapq.heappush(self._ready, (job.priority, job.seq, job))
        if self.hooks is not None:
            self.hooks.on_job_preempt(self.sim.now, self, job)

    def _complete(self, job: Job) -> None:
        assert job is self._running
        self._account(job.name, self.sim.now - self._run_started_at)
        self._running = None
        self._completion = None
        self.jobs_completed += 1
        if self.hooks is not None:
            self.hooks.on_job_finish(self.sim.now, self, job)
        # Next job first, then the waiters: see the module docstring.
        if self._ready:
            self._start(heapq.heappop(self._ready)[2])
        job._fire()
