"""Unit tests for Store / Semaphore / Signal primitives."""

import pytest

from repro.sim import Semaphore, Signal, Simulator, Store


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("a")
        ev = store.get()
        sim.run()
        assert ev.value == "a"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((sim.now, item))

        sim.process(consumer())
        sim.schedule(100, store.put, "x")
        sim.run()
        assert got == [(100, "x")]

    def test_fifo_ordering_items_and_getters(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer(tag):
            item = yield store.get()
            got.append((tag, item))

        sim.process(consumer(1))
        sim.process(consumer(2))
        sim.schedule(10, store.put, "a")
        sim.schedule(20, store.put, "b")
        sim.run()
        assert got == [(1, "a"), (2, "b")]

    def test_get_nowait_and_peek(self):
        sim = Simulator()
        store = Store(sim)
        assert store.get_nowait() is None
        assert store.peek() is None
        store.put(1)
        store.put(2)
        assert store.peek() == 1
        assert len(store) == 2
        assert store.get_nowait() == 1
        assert store.get_nowait() == 2
        assert store.get_nowait() is None

    def test_counters(self):
        sim = Simulator()
        store = Store(sim)
        store.put("a")
        store.get()
        sim.run()
        assert store.puts == 1
        assert store.gets == 1


class TestSemaphore:
    def test_initial_value_acquires(self):
        sim = Simulator()
        sem = Semaphore(sim, value=2)
        a = sem.acquire()
        b = sem.acquire()
        c = sem.acquire()
        sim.run()
        assert a.triggered and b.triggered and not c.triggered
        sem.release()
        sim.run()
        assert c.triggered
        assert sem.value == 0

    def test_release_without_waiters_increments(self):
        sim = Simulator()
        sem = Semaphore(sim, value=0)
        sem.release()
        assert sem.value == 1

    def test_negative_value_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Semaphore(sim, value=-1)

    def test_mutual_exclusion_of_processes(self):
        sim = Simulator()
        sem = Semaphore(sim, value=1)
        active = [0]
        max_active = [0]

        def worker():
            yield sem.acquire()
            active[0] += 1
            max_active[0] = max(max_active[0], active[0])
            yield 100
            active[0] -= 1
            sem.release()

        for _ in range(5):
            sim.process(worker())
        sim.run()
        assert max_active[0] == 1
        assert sim.now == 500

    @staticmethod
    def _enter(sem, seen):
        """A process body: acquire with wait=True, logging what came
        back and the value, then the time it holds the unit."""
        ev = sem.acquire(wait=True)
        seen.append((ev, sem.value))
        if ev is not None:
            yield ev
        seen.append(sem.sim.now)

    def test_wait_takes_a_free_unit_with_no_event(self):
        """Nothing is due, so the unit is taken inline: no event, no
        suspension; the process start is the only dispatch."""
        sim = Simulator()
        sem = Semaphore(sim, value=1)
        seen = []
        sim.process(self._enter(sem, seen))
        sim.run()
        assert seen == [(None, 0), 0]
        assert sim.events_executed == 1

    def test_wait_yields_to_an_entry_due_now(self):
        """A live entry due at ``now`` would run before the resume, so
        the triggered event comes back and the process resumes after
        that entry, as with a plain acquire."""

        def order(wait):
            sim = Simulator()
            sem = Semaphore(sim, value=1)
            ran = []

            def proc():
                sim.schedule(0, ran.append, "due")
                ev = sem.acquire(wait=wait)
                ran.append((ev.triggered, sem.value))
                yield ev
                ran.append("resumed")

            sim.process(proc())
            sim.run()
            return ran, sim.events_executed

        assert order(wait=True) == order(wait=False) == (
            [(True, 0), "due", "resumed"], 3)

    def test_shuffle_keys_match_the_event_it_replaces(self):
        """An inline acquire consumes the sequence number of the resume
        it skips, so under a shuffled tie-break every later same-time
        event keeps its key and its turn."""

        def order(wait):
            sim = Simulator(tiebreak="shuffle:3")
            sem = Semaphore(sim, value=1)
            ran = []

            def proc():
                yield 10
                ev = sem.acquire(wait=wait)
                assert (ev is None) == wait
                if ev is not None:
                    yield ev
                for i in range(8):
                    sim.schedule(10, ran.append, i)

            sim.process(proc())
            sim.run()
            assert sim.now == 20
            return ran

        assert order(wait=True) == order(wait=False)
        assert order(wait=True) != list(range(8))

    def test_wait_on_a_held_semaphore_queues_fifo(self):
        sim = Simulator()
        sem = Semaphore(sim, value=1)
        pending, entered = [], []

        def worker(tag, start):
            yield start
            ev = sem.acquire(wait=True)
            if ev is not None:
                pending.append((tag, ev.triggered))
                yield ev
            entered.append((tag, sim.now))
            yield 100
            sem.release()

        for tag, start in (("a", 0), ("b", 30), ("c", 10), ("d", 20)):
            sim.process(worker(tag, start))
        sim.run()
        assert pending == [("c", False), ("d", False), ("b", False)]
        assert entered == [("a", 0), ("c", 100), ("d", 200), ("b", 300)]
        assert sem.value == 1

    def test_wait_returns_an_event_in_step_and_outside_a_loop(self):
        sim = Simulator()
        sem = Semaphore(sim, value=2)
        outside = sem.acquire(wait=True)
        assert outside is not None and outside.triggered
        seen = []
        sim.process(self._enter(sem, seen))
        assert sim.step()
        ev, value = seen[0]
        assert ev is not None and ev.triggered and value == 0


class TestSignal:
    def test_fire_wakes_all_current_waiters(self):
        sim = Simulator()
        sig = Signal(sim)
        woken = []

        def waiter(tag):
            value = yield sig.wait()
            woken.append((tag, value, sim.now))

        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.schedule(50, sig.fire, "go")
        sim.run()
        assert sorted(woken) == [("a", "go", 50), ("b", "go", 50)]

    def test_fire_with_no_waiters_returns_zero(self):
        sim = Simulator()
        sig = Signal(sim)
        assert sig.fire() == 0

    def test_signal_is_reusable(self):
        sim = Simulator()
        sig = Signal(sim)
        hits = []

        def repeat_waiter():
            for _ in range(3):
                yield sig.wait()
                hits.append(sim.now)

        sim.process(repeat_waiter())
        for t in (10, 20, 30):
            sim.schedule(t, sig.fire)
        sim.run()
        assert hits == [10, 20, 30]

    def test_waiter_count(self):
        sim = Simulator()
        sig = Signal(sim)
        sig.wait()
        sig.wait()
        assert sig.waiter_count == 2
        sig.fire()
        assert sig.waiter_count == 0
