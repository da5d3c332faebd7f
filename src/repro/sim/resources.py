"""Synchronization and queueing primitives built on the event kernel."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Event, Simulator

__all__ = ["Store", "Semaphore", "Signal"]


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    Used for device queues (the IP input queue, adapter FIFO handoff,
    the wire itself) where a consumer process waits for work.
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.puts = 0
        self.gets = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Add *item*; wakes the oldest blocked getter, FIFO order."""
        self.puts += 1
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that succeeds with the next item (immediately if one
        is queued, otherwise when a future ``put`` arrives)."""
        self.gets += 1
        ev = self.sim.event(name=f"{self.name}:get")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def get_nowait(self) -> Optional[Any]:
        """Pop the next item without blocking; None when empty."""
        if self._items:
            self.gets += 1
            return self._items.popleft()
        return None

    def peek(self) -> Optional[Any]:
        """The next item without removing it; None when empty."""
        return self._items[0] if self._items else None


class Semaphore:
    """A counting semaphore with FIFO wakeup."""

    def __init__(self, sim: Simulator, value: int = 1, name: str = "sem"):
        if value < 0:
            raise ValueError("semaphore value must be non-negative")
        self.sim = sim
        self.name = name
        self._value = value
        self._waiters: Deque[Event] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self, wait: bool = False) -> Optional[Event]:
        """Event that succeeds once a unit is held.

        A caller that yields the event at once passes ``wait=True`` and
        yields only what comes back::

            ev = sem.acquire(wait=True)
            if ev is not None:
                yield ev

        ``None`` means the unit is already held: one was free, and
        :meth:`Simulator.advance` found nothing the loop could run
        before the delay-0 resume that yielding the triggered event
        would cost, so the caller carries on without suspending.
        ``advance`` refuses when a live entry due at ``now`` would run
        first under the tie-break policy, when the loop stops after
        this dispatch (always in :meth:`Simulator.step` and outside any
        loop), and in all but the last waiter of a fanned-out event;
        the event then comes back already triggered, as without
        *wait*.  With no unit free it comes back pending, and waiters
        wake in FIFO order.
        """
        if self._value > 0:
            self._value -= 1
            if wait and self.sim.advance(self.sim.now):
                return None
            return self.sim.event(name=f"{self.name}:acquire").succeed()
        ev = self.sim.event(name=f"{self.name}:acquire")
        self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return a unit, waking the oldest waiter if any."""
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._value += 1


class Signal:
    """A broadcast condition: many waiters, each ``fire`` wakes all.

    Unlike :class:`Event` it is reusable; this is the substrate for the
    kernel's ``sleep``/``wakeup`` channels.
    """

    def __init__(self, sim: Simulator, name: str = "signal"):
        self.sim = sim
        self.name = name
        self._waiters: Deque[Event] = deque()

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def wait(self) -> Event:
        """Event that succeeds at the next :meth:`fire`."""
        ev = self.sim.event(name=f"{self.name}:wait")
        self._waiters.append(ev)
        return ev

    def fire(self, value: Any = None) -> int:
        """Wake every current waiter; returns how many were woken."""
        waiters, self._waiters = self._waiters, deque()
        for ev in waiters:
            ev.succeed(value)
        return len(waiters)
