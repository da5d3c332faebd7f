"""Unit tests for the preemptive priority CPU model."""

import random

import pytest

from repro.obs.hooks import SimHooks
from repro.sim import (
    CPU,
    Event,
    EventError,
    Job,
    Priority,
    Semaphore,
    Simulator,
)


def make_cpu():
    sim = Simulator()
    return sim, CPU(sim, "cpu0")


def test_single_job_takes_its_duration():
    sim, cpu = make_cpu()
    done = cpu.run(1000, Priority.KERNEL, "work")
    sim.run_until_triggered(done)
    assert sim.now == 1000
    assert cpu.busy_ns == 1000
    assert cpu.jobs_completed == 1
    assert cpu.idle


def test_zero_duration_job_completes_immediately():
    sim, cpu = make_cpu()
    done = cpu.run(0, Priority.KERNEL)
    sim.run_until_triggered(done)
    assert sim.now == 0


def test_negative_duration_rejected():
    _, cpu = make_cpu()
    with pytest.raises(ValueError):
        cpu.run(-5)


def test_equal_priority_fifo_no_preemption():
    sim, cpu = make_cpu()
    finish = {}

    def submit(tag, duration):
        cpu.run(duration, Priority.KERNEL, tag).add_callback(
            lambda _e: finish.setdefault(tag, sim.now)
        )

    submit("first", 100)
    submit("second", 50)
    sim.run()
    assert finish == {"first": 100, "second": 150}
    assert cpu.preemptions == 0


def test_higher_priority_preempts_and_work_is_conserved():
    sim, cpu = make_cpu()
    finish = {}

    def user():
        yield cpu.run(1000, Priority.USER, "user-copy")
        finish["user"] = sim.now

    def interrupt():
        yield 300  # arrive while the user copy is in progress
        yield cpu.run(200, Priority.HARD_INTR, "rx-intr")
        finish["intr"] = sim.now

    sim.process(user())
    sim.process(interrupt())
    sim.run()
    # Interrupt runs 300..500; user work resumes and finishes at 1200.
    assert finish == {"intr": 500, "user": 1200}
    assert cpu.preemptions == 1
    assert cpu.busy_ns == 1200


def test_priority_ladder_hard_over_soft_over_user():
    sim, cpu = make_cpu()
    order = []

    def at(delay, duration, prio, tag):
        def proc():
            yield delay
            yield cpu.run(duration, prio, tag)
            order.append(tag)

        sim.process(proc())

    # All become ready at t=0 except user, which starts running first.
    at(0, 900, Priority.USER, "user")
    at(10, 100, Priority.SOFT_INTR, "soft")
    at(20, 100, Priority.HARD_INTR, "hard")
    sim.run()
    assert order == ["hard", "soft", "user"]


def test_nested_preemption_resumes_in_priority_order():
    sim, cpu = make_cpu()
    timeline = []

    def track(tag, done_ev):
        done_ev.add_callback(lambda _e: timeline.append((tag, sim.now)))

    def scenario():
        track("user", cpu.run(1000, Priority.USER, "user"))
        yield 100
        track("soft", cpu.run(400, Priority.SOFT_INTR, "soft"))
        yield 100  # soft has run 100ns
        track("hard", cpu.run(50, Priority.HARD_INTR, "hard"))

    sim.process(scenario())
    sim.run()
    # hard: 200..250, soft: 100..200 then 250..550, user: 0..100 then 550..1450
    assert timeline == [("hard", 250), ("soft", 550), ("user", 1450)]
    assert cpu.preemptions == 2
    assert cpu.busy_ns == 1450


def test_equal_priority_arrival_does_not_preempt():
    sim, cpu = make_cpu()
    finish = {}

    def scenario():
        done_a = cpu.run(500, Priority.SOFT_INTR, "a")
        done_a.add_callback(lambda _e: finish.setdefault("a", sim.now))
        yield 100
        done_b = cpu.run(100, Priority.SOFT_INTR, "b")
        done_b.add_callback(lambda _e: finish.setdefault("b", sim.now))

    sim.process(scenario())
    sim.run()
    assert finish == {"a": 500, "b": 600}


def test_queue_depth_reporting():
    sim, cpu = make_cpu()
    cpu.run(100, Priority.USER)
    cpu.run(100, Priority.USER)
    cpu.run(100, Priority.SOFT_INTR)
    # One of these is running (dispatched synchronously), two are ready.
    assert cpu.queue_depth() == 2
    assert cpu.queue_depth(Priority.SOFT_INTR) in (0, 1)
    sim.run()
    assert cpu.queue_depth() == 0
    assert cpu.idle


def test_busy_accounting_with_gaps():
    sim, cpu = make_cpu()

    def proc():
        yield cpu.run(100, Priority.KERNEL)
        yield 400  # CPU idle
        yield cpu.run(100, Priority.KERNEL)

    sim.process(proc())
    sim.run()
    assert sim.now == 600
    assert cpu.busy_ns == 200


def test_sequential_yields_model_a_kernel_path():
    """A syscall path submits work piecewise; total time is the sum."""
    sim, cpu = make_cpu()

    def syscall():
        yield cpu.run(10_000, Priority.KERNEL, "entry")
        yield cpu.run(20_000, Priority.KERNEL, "copyin")
        yield cpu.run(5_000, Priority.KERNEL, "exit")

    p = sim.process(syscall())
    sim.run_until_triggered(p)
    assert sim.now == 35_000


def test_each_charge_costs_one_event():
    """A finished job resumes its waiter from its own dispatch slot, so
    N back-to-back charges take the process start plus N completions."""
    sim, cpu = make_cpu()
    charges = 5

    def syscall():
        for _ in range(charges):
            yield cpu.run(100, Priority.KERNEL, "step")

    sim.process(syscall())
    sim.run()
    assert sim.now == charges * 100
    assert sim.events_executed == charges + 1


def test_resumed_waiter_preempts_the_next_ready_job():
    """The CPU starts the next ready job before resuming the finished
    job's waiter, so a more urgent job the waiter submits at once
    preempts that job at the same instant."""
    sim, cpu = make_cpu()
    finish = {}

    def waiter():
        yield cpu.run(100, Priority.KERNEL, "a")
        finish["a"] = sim.now
        yield cpu.run(50, Priority.HARD_INTR, "c")
        finish["c"] = sim.now

    def queued():
        yield cpu.run(200, Priority.USER, "b")
        finish["b"] = sim.now

    sim.process(waiter())
    sim.process(queued())
    sim.run()
    assert finish == {"a": 100, "c": 150, "b": 350}
    assert cpu.preemptions == 1
    assert cpu.busy_by_label == {"a": 100, "b": 200, "c": 50}


def test_run_returns_a_job_that_is_its_completion_event():
    sim, cpu = make_cpu()
    job = cpu.run(100, Priority.KERNEL, "copyin")
    assert isinstance(job, Job)
    assert isinstance(job, Event)
    assert job.name == "copyin"
    assert sim.run_until_triggered(job) is None
    assert job.ok
    with pytest.raises(EventError):
        job.succeed()


def test_completing_an_already_triggered_job_raises():
    sim, cpu = make_cpu()
    job = cpu.run(100, Priority.KERNEL, "copyin")
    job.succeed()
    with pytest.raises(EventError):
        sim.run()


# ----------------------------------------------------------------------
# CPU.run(..., wait=True): an uncontended charge completes inside its
# submitter
# ----------------------------------------------------------------------

def charge(cpu, duration, priority, name):
    """``yield from`` this: the wait=True idiom of the stack."""
    job = cpu.run(duration, priority, name, wait=True)
    if job is not None:
        yield job


def test_uncontended_host_charges_cost_no_event():
    """N back-to-back charges in a quiet simulator leave only the
    process start in events_executed (the plain-yield path, pinned by
    test_each_charge_costs_one_event, keeps one event per charge)."""
    from repro.kern.host import Host

    sim = Simulator()
    host = Host(sim, "h", "10.0.0.9")

    def syscall():
        for _ in range(5):
            yield from host.charge(100, Priority.KERNEL, "step")

    sim.process(syscall())
    sim.run()
    assert sim.now == 500
    assert host.cpu.busy_ns == 500
    assert host.cpu.jobs_completed == 5
    assert sim.events_executed == 1


def test_wait_finishes_a_preempting_job_but_not_a_queued_one():
    sim = Simulator()
    cpu = CPU(sim, "cpu0")
    seen = []

    def proc():
        low = cpu.run(100, Priority.USER, "low")
        # Behind low at the same priority: it comes back unfinished.
        queued = cpu.run(100, Priority.USER, "queued", wait=True)
        seen.append((isinstance(queued, Job), sim.now))
        # More urgent than low: it preempts low and finishes inline,
        # and low resumes after it.
        seen.append(cpu.run(10, Priority.HARD_INTR, "urgent", wait=True))
        seen.append((sim.now, cpu.running_job is low, cpu.preemptions))
        yield low
        seen.append(sim.now)
        yield queued
        seen.append(sim.now)

    sim.run_until_triggered(sim.process(proc()))
    assert seen == [(True, 0), None, (10, True, 1), 110, 210]
    assert cpu.preemptions == 1
    assert cpu.jobs_completed == 3
    assert cpu.busy_by_label == {"low": 100, "queued": 100, "urgent": 10}


@pytest.mark.parametrize("trigger", ["timeout", "succeed"])
def test_only_the_last_waiter_of_a_fanned_out_event_may_take(trigger):
    """Two processes wait on one event; the first charges 50 ns with
    wait=True.  Taking the shortcut would move the clock before the
    second waiter ran, so the second must still resume at 100."""
    sim = Simulator()
    cpu = CPU(sim, "cpu0")
    if trigger == "timeout":
        tick = sim.timeout(100)
    else:
        tick = sim.event()
        sim.schedule(100, tick.succeed)
    resumed = {}

    def first():
        yield tick
        resumed["first"] = sim.now
        yield from charge(cpu, 50, Priority.KERNEL, "charge")
        resumed["first charged"] = sim.now

    def second():
        yield tick
        resumed["second"] = sim.now

    sim.process(first())
    sim.process(second())
    sim.run()
    assert resumed == {"first": 100, "second": 100, "first charged": 150}


class _JobLog(SimHooks):
    """Every job callback with its time, job and ready-queue depth."""

    def __init__(self):
        self.entries = []

    def _log(self, kind, now_ns, cpu, job):
        self.entries.append((kind, now_ns, job.name, job.priority,
                             cpu.queue_depth()))

    def on_job_start(self, now_ns, cpu, job):
        self._log("start", now_ns, cpu, job)

    def on_job_preempt(self, now_ns, cpu, job):
        self._log("preempt", now_ns, cpu, job)

    def on_job_resume(self, now_ns, cpu, job):
        self._log("resume", now_ns, cpu, job)

    def on_job_finish(self, now_ns, cpu, job):
        self._log("finish", now_ns, cpu, job)


def _random_run(seed, tiebreak, shortcut, hooks=True):
    """Random processes at random priorities charging with wait=True and
    through plain yields, with random timeouts, shared (fanned-out)
    ticks, cancelled timers and a shared lock taken both ways, driven
    across a run(until) deadline.  Without *shortcut* every advance
    refuses, so each charge and each acquire takes the event path."""
    sim = Simulator(tiebreak=tiebreak)
    if not shortcut:
        sim.advance = lambda time: False
    cpu = CPU(sim, "cpu0")
    log = _JobLog()
    if hooks:
        cpu.hooks = log
    priorities = (Priority.HARD_INTR, Priority.SOFT_INTR, Priority.KERNEL,
                  Priority.USER)
    ticks = [sim.timeout(t) for t in (500, 1_000, 2_500)]
    lock = Semaphore(sim, value=1, name="lock")
    traces = {}

    def proc(pid):
        rng = random.Random(seed * 1_000 + pid)
        trace = traces[pid] = []
        timers = []
        yield rng.randrange(0, 300)
        for step in range(rng.randrange(5, 25)):
            action = rng.random()
            label = f"p{pid % 3}"
            if action < 0.3:
                yield from charge(cpu, rng.randrange(0, 200),
                                  rng.choice(priorities), label)
            elif action < 0.5:
                yield cpu.run(rng.randrange(0, 200), rng.choice(priorities),
                              label)
            elif action < 0.6:
                cpu.run(rng.randrange(0, 100), rng.choice(priorities),
                        "background")
            elif action < 0.68:
                yield rng.randrange(0, 150)
            elif action < 0.74:
                yield sim.timeout(rng.randrange(0, 150))
            elif action < 0.8:
                tick = rng.choice(ticks)
                if not tick.triggered:
                    yield tick
            elif action < 0.9:
                if rng.random() < 0.3:
                    # A live entry due now, which the resume of a
                    # triggered acquire must not overtake.
                    sim.schedule(0, trace.append, (sim.now, "due", step))
                if rng.random() < 0.5:
                    ev = lock.acquire(wait=True)
                    if ev is not None:
                        yield ev
                else:
                    yield lock.acquire()
                trace.append((sim.now, "locked", step))
                if rng.random() < 0.5:
                    yield rng.randrange(0, 150)
                else:
                    yield from charge(cpu, rng.randrange(0, 200),
                                      rng.choice(priorities), label)
                lock.release()
            else:
                timers.append(sim.schedule(
                    rng.randrange(0, 300),
                    lambda t=trace, s=step: t.append((sim.now, "timer", s))))
                if len(timers) > 1 and rng.random() < 0.5:
                    timers.pop(rng.randrange(len(timers))).cancel()
            trace.append((sim.now, step))

    for pid in range(random.Random(seed).randrange(2, 7)):
        sim.process(proc(pid))
    sim.run(until=700)
    sim.run()
    return ((traces, sim.now, cpu.busy_ns, cpu.busy_by_label,
             cpu.preemptions, cpu.jobs_completed), log.entries,
            sim.events_executed)


@pytest.mark.parametrize("tiebreak", ["fifo", "lifo", "shuffle:7"])
def test_shortcut_is_invisible_to_random_workloads(tiebreak):
    """The (time, label) trace of every process, the CPU's accounting
    and its hook log are the same with the shortcut on and forced off,
    and installing the hooks changes nothing, the event count included."""
    saved = 0
    for seed in range(40):
        on, log_on, events_on = _random_run(seed, tiebreak, shortcut=True)
        off, log_off, events_off = _random_run(seed, tiebreak,
                                               shortcut=False)
        bare, _, events_bare = _random_run(seed, tiebreak, shortcut=True,
                                           hooks=False)
        assert on == off == bare, f"seed {seed}"
        assert log_on == log_off, f"seed {seed}"
        assert events_on == events_bare, f"seed {seed}"
        saved += events_off - events_on
    assert saved > 0  # the shortcut was taken
