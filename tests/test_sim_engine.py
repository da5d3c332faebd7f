"""Unit tests for the discrete-event engine."""

import gc

import pytest

from repro.sim import (
    Deadlock,
    Event,
    EventError,
    ProcessError,
    SchedulingError,
    Simulator,
    to_us,
    us,
)


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0
    assert sim.now_us == 0.0


def test_unit_conversions():
    assert us(1.5) == 1500
    assert us(0) == 0
    assert to_us(2500) == 2.5


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(30, seen.append, "c")
    sim.schedule(10, seen.append, "a")
    sim.schedule(20, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_run_fifo():
    sim = Simulator()
    seen = []
    for tag in range(5):
        sim.schedule(100, seen.append, tag)
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule(-1, lambda: None)


def test_cancelled_call_does_not_run():
    sim = Simulator()
    seen = []
    call = sim.schedule(10, seen.append, "x")
    sim.schedule(5, seen.append, "y")
    call.cancel()
    sim.run()
    assert seen == ["y"]


def test_cancel_is_idempotent():
    sim = Simulator()
    call = sim.schedule(10, lambda: None)
    call.cancel()
    call.cancel()
    sim.run()


def test_handle_contract_is_the_same_on_both_engines():
    """A handle is time, fn and args plus cancel(): ``cancelled`` is
    read-only, cancel() clears fn, and there is no seq, key or order."""
    sim = Simulator()
    seen = []
    call = sim.schedule(10, seen.append, "x")
    other = sim.schedule(20, seen.append, "y")
    with pytest.raises(AttributeError):
        call.cancelled = True
    assert not call.cancelled
    assert (call.time, call.fn, call.args) == (10, seen.append, ("x",))
    assert not hasattr(call, "seq")
    assert not hasattr(call, "key")
    with pytest.raises(TypeError):
        sorted([call, other])
    other.cancel()
    assert other.cancelled
    assert (other.fn, other.args) == (None, ())
    sim.run()
    assert seen == ["x"]


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    seen = []
    sim.schedule(10, seen.append, 1)
    sim.schedule(100, seen.append, 2)
    sim.run(until=50)
    assert seen == [1]
    assert sim.now == 50
    sim.run()
    assert seen == [1, 2]


def test_run_until_in_past_rejected():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run(until=100)
    with pytest.raises(SchedulingError):
        sim.run(until=50)


class TestEvent:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        ev = sim.event()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed(42)
        sim.run()
        assert got == [42]

    def test_callback_after_trigger_still_runs(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("late")
        sim.run()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == ["late"]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(EventError):
            ev.succeed()
        with pytest.raises(EventError):
            ev.fail(RuntimeError("boom"))

    def test_value_before_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(EventError):
            _ = ev.value

    def test_fail_requires_exception(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(EventError):
            ev.fail("not an exception")  # type: ignore[arg-type]

    def test_timeout_value(self):
        sim = Simulator()
        ev = sim.timeout(250, value="done")
        sim.run()
        assert ev.triggered and ev.value == "done"
        assert sim.now == 250


class TestProcess:
    def test_yield_int_is_timeout(self):
        sim = Simulator()
        marks = []

        def proc():
            marks.append(sim.now)
            yield 100
            marks.append(sim.now)
            yield 50
            marks.append(sim.now)

        sim.process(proc())
        sim.run()
        assert marks == [0, 100, 150]

    def test_process_return_value(self):
        sim = Simulator()

        def proc():
            yield 10
            return "result"

        p = sim.process(proc())
        assert sim.run_until_triggered(p) == "result"

    def test_process_waits_on_event(self):
        sim = Simulator()
        ev = sim.event()
        got = []

        def waiter():
            value = yield ev
            got.append((sim.now, value))

        sim.process(waiter())
        sim.schedule(500, ev.succeed, "ping")
        sim.run()
        assert got == [(500, "ping")]

    def test_process_waits_on_process(self):
        sim = Simulator()

        def child():
            yield 100
            return 7

        def parent():
            value = yield sim.process(child())
            return value * 2

        p = sim.process(parent())
        assert sim.run_until_triggered(p) == 14

    def test_failed_event_raises_in_process(self):
        sim = Simulator()
        ev = sim.event()
        caught = []

        def waiter():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        sim.schedule(10, ev.fail, RuntimeError("boom"))
        sim.run()
        assert caught == ["boom"]

    def test_exception_in_process_fails_its_event(self):
        sim = Simulator()

        def bad():
            yield 10
            raise ValueError("broken")

        p = sim.process(bad())
        sim.run()
        assert p.triggered and not p.ok
        with pytest.raises(ValueError):
            _ = p.value

    def test_yield_garbage_rejected(self):
        sim = Simulator()

        def bad():
            yield "not waitable"

        p = sim.process(bad())
        sim.run()
        assert not p.ok
        with pytest.raises(ProcessError):
            _ = p.value

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(ProcessError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_run_until_triggered_deadlock(self):
        sim = Simulator()
        ev = sim.event()

        def waiter():
            yield ev

        p = sim.process(waiter())
        with pytest.raises(Deadlock):
            sim.run_until_triggered(p)


class TestCombinators:
    def test_all_of_collects_values_in_order(self):
        sim = Simulator()
        done = sim.all_of([sim.timeout(30, "c"), sim.timeout(10, "a")])
        sim.run()
        assert done.value == ["c", "a"]
        assert sim.now == 30

    def test_all_of_empty(self):
        sim = Simulator()
        done = sim.all_of([])
        sim.run()
        assert done.value == []

    def test_any_of_first_wins(self):
        sim = Simulator()
        done = sim.any_of([sim.timeout(30, "slow"), sim.timeout(10, "fast")])
        assert sim.run_until_triggered(done) == (1, "fast")

    def test_any_of_empty_rejected(self):
        sim = Simulator()
        with pytest.raises(EventError):
            sim.any_of([])


def test_determinism_event_counts_match():
    def build():
        sim = Simulator()
        order = []

        def proc(tag, delay):
            for i in range(5):
                yield delay
                order.append((tag, i, sim.now))

        for tag, delay in (("a", 7), ("b", 11), ("c", 7)):
            sim.process(proc(tag, delay))
        sim.run()
        return order, sim.events_executed

    first = build()
    second = build()
    assert first == second


class TestHotPathMachinery:
    """The perf machinery behind the fast path: heap compaction, the
    inline hooks test and the direct timeout dispatch — all invisible
    to simulation results (see tests/test_perf_equivalence.py for the
    end-to-end byte-identity proof).  Neither engine pools handles: each
    is dropped once it has run, so the pool tests check that a run
    leaves no spent handle alive."""

    @staticmethod
    def _live_handles():
        """Live handles of the engine in use, pure or compiled."""
        handle_type = type(Simulator().schedule(0, lambda: None))
        return sum(1 for obj in gc.get_objects()
                   if type(obj) is handle_type)

    def test_dispatched_handles_are_pooled_and_reused(self):
        gc.collect()
        live_before = self._live_handles()
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(i, fired.append, i)
        sim.run()
        assert fired == list(range(10))
        # Nothing kept for reuse: every spent handle is freed.
        assert self._live_handles() <= live_before
        sim.schedule(100, fired.append, 10)
        sim.run()
        assert fired[-1] == 10

    def test_retained_handle_is_never_recycled(self):
        """A caller keeping the handle (timer-style) must keep a dead
        object, not a recycled one: cancel() after dispatch stays a
        harmless no-op."""
        sim = Simulator()
        fired = []
        handle = sim.schedule(5, fired.append, "kept")
        sim.schedule(10, fired.append, "later")
        sim.run()
        handle.cancel()  # stale cancel on a retained, spent handle
        # New work is unaffected by the stale cancel.
        sim.schedule(20, fired.append, "after")
        sim.run()
        assert fired == ["kept", "later", "after"]

    def test_cancelled_majority_triggers_in_place_compaction(self):
        from repro.sim import engine as engine_mod

        sim = Simulator()
        keep = [sim.schedule(10_000_000 + i, lambda: None)
                for i in range(10)]
        cancelled = []
        # Enough entries to clear _COMPACT_MIN, almost all cancelled.
        for i in range(engine_mod._COMPACT_MIN * 2):
            handle = sim.schedule(1_000 + i, lambda: None)
            handle.cancel()
            cancelled.append(handle)
        heap_before = sim._queue
        # Force the periodic check (it runs every _COMPACT_MASK+1
        # schedules) by scheduling through the boundary.
        for _ in range(engine_mod._COMPACT_MASK + 1):
            sim.schedule(20_000_000, lambda: None).cancel()
        assert sim._queue is heap_before  # compacted IN PLACE
        # The thousands of cancelled entries scheduled before the
        # periodic check were dropped; only entries scheduled after the
        # compaction point (at most _COMPACT_MASK of them) may linger.
        assert len(sim._queue) < engine_mod._COMPACT_MASK
        assert {e[2] for e in sim._queue if not e[2].cancelled} >= \
            set(keep)
        sim.run()

    def test_run_until_skips_cancelled_heads(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(10 + i, fired.append, i).cancel()
        sim.schedule(50, fired.append, "live")
        sim.run(until=40)
        assert sim.now == 40
        assert fired == []
        sim.run(until=60)
        assert fired == ["live"]

    def test_timeout_direct_dispatch_matches_event_semantics(self):
        sim = Simulator()
        seen = []
        ev = sim.timeout(10, "val")
        ev.add_callback(lambda e: seen.append(("a", e.value, sim.now)))
        ev.add_callback(lambda e: seen.append(("b", e.value, sim.now)))
        sim.run()
        assert seen == [("a", "val", 10), ("b", "val", 10)]
        assert ev.triggered and ev.ok and ev.value == "val"
        # Late registration still fires (scheduled, same timestamp).
        ev.add_callback(lambda e: seen.append(("late", e.value, sim.now)))
        sim.run()
        assert seen[-1] == ("late", "val", 10)

    def test_timeout_double_trigger_still_rejected(self):
        sim = Simulator()
        ev = sim.timeout(10)
        ev.succeed("early")  # user triggers it before the deadline
        with pytest.raises(EventError):
            sim.run()

    def test_pool_never_grows_beyond_cap(self):
        """The cap is zero: a long run keeps no spent handle either."""
        gc.collect()
        live_before = self._live_handles()
        sim = Simulator()
        for i in range(1500):
            sim.schedule(i, lambda: None)
        sim.run()
        assert self._live_handles() <= live_before

    def test_hooks_installed_mid_run_take_guarded_path(self):
        from repro.obs.hooks import SimHooks

        class Counting(SimHooks):
            def __init__(self):
                self.dispatched = 0

            def on_dispatch(self, now_ns, call):
                self.dispatched += 1

        sim = Simulator()
        hooks = Counting()
        fired = []

        def install():
            sim.set_hooks(hooks)

        sim.schedule(10, install)
        for i in range(5):
            sim.schedule(20 + i, fired.append, i)
        sim.run()
        assert fired == list(range(5))
        assert hooks.dispatched == 5  # events after install are seen


class TestKernelContract:
    """Stop rules of the one dispatch loop behind step(), run(until),
    run() and run_until_triggered()."""

    def test_run_until_runs_the_event_at_until_and_keeps_later_ones(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, seen.append, "at-until")
        for tag in ("x", "y", "z"):
            sim.schedule(150, seen.append, tag)
        sim.run(until=100)
        assert seen == ["at-until"]
        assert sim.now == 100
        assert len(sim._queue) == 3
        sim.run()
        # The entry the loop stopped before keeps its place among
        # equal-time events.
        assert seen == ["at-until", "x", "y", "z"]
        assert sim.now == 150

    def test_step_skips_cancelled_heads_and_runs_one_callback(self):
        sim = Simulator()
        seen = []
        for i in range(3):
            sim.schedule(i, seen.append, f"dead{i}").cancel()
        sim.schedule(10, seen.append, "a")
        sim.schedule(10, seen.append, "b")
        assert sim.step() is True
        assert seen == ["a"]
        assert sim.now == 10
        assert sim.events_executed == 1
        assert sim.step() is True
        assert seen == ["a", "b"]
        assert sim.step() is False

    def test_step_on_only_cancelled_entries_returns_false(self):
        sim = Simulator()
        seen = []
        for i in range(4):
            sim.schedule(i, seen.append, i).cancel()
        assert sim.step() is False
        assert seen == []
        assert sim.events_executed == 0
        assert sim.now == 0

    def test_run_until_triggered_returns_at_once_on_a_triggered_event(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("ready")
        seen = []
        sim.schedule(5, seen.append, "later")
        assert sim.run_until_triggered(ev) == "ready"
        assert seen == []
        assert sim.events_executed == 0

    def test_run_until_triggered_raises_a_failed_events_exception(self):
        sim = Simulator()
        ev = sim.event()
        sim.schedule(20, ev.fail, ValueError("broken"))
        sim.schedule(30, lambda: None)
        with pytest.raises(ValueError, match="broken"):
            sim.run_until_triggered(ev)
        assert sim.now == 20
        assert ev.triggered and not ev.ok

    def test_run_until_triggered_raises_deadlock_when_the_queue_drains(self):
        sim = Simulator()
        ev = sim.event(name="never")
        sim.schedule(5, lambda: None)
        sim.schedule(7, lambda: None).cancel()
        with pytest.raises(Deadlock, match="never"):
            sim.run_until_triggered(ev)
        assert sim.events_executed == 1

    @staticmethod
    def _build():
        sim = Simulator()
        order = []

        def proc(tag, delay):
            for i in range(4):
                yield delay
                order.append((tag, i, sim.now))

        for tag, delay in (("a", 7), ("b", 11), ("c", 7)):
            sim.process(proc(tag, delay))
        sim.schedule(15, order.append, "cancelled").cancel()
        # The last event of the schedule: run_until_triggered drains
        # exactly what run() and a step() loop drain.
        end = sim.timeout(100)
        return sim, order, end

    def test_events_executed_equal_across_drain_styles(self):
        results = []

        sim, order, _end = self._build()
        sim.run()
        results.append((order, sim.now, sim.events_executed))

        sim, order, _end = self._build()
        while sim.step():
            pass
        results.append((order, sim.now, sim.events_executed))

        sim, order, end = self._build()
        sim.run_until_triggered(end)
        assert not sim.step()  # nothing live was left behind
        results.append((order, sim.now, sim.events_executed))

        assert results[0] == results[1] == results[2]
        assert results[0][2] == 3 * 5 + 1  # starts, timeouts, the end
