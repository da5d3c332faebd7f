"""Discrete-event simulation kernel.

The kernel is deliberately small and deterministic:

* Time is an integer number of **nanoseconds** (`Simulator.now`).
* Work is scheduled as callbacks on a binary heap, tie-broken by a
  monotonically increasing sequence number, so two runs of the same model
  produce byte-identical event orderings.
* Concurrency is expressed with generator-based :class:`Process` objects
  (in the style of simpy): a process ``yield``\\ s an :class:`Event` (or a
  plain integer, treated as a timeout in nanoseconds) and is resumed with
  the event's value when it triggers.
* The kernel has no observer hook: scheduling and dispatch test
  nothing for observability, so an observed run executes exactly the
  events of the same unobserved run.  CPU work is observed through
  the CPU model's job hooks (:attr:`repro.sim.cpu.CPU.hooks`).

Performance notes.

* Heap entries are ``(time, key, call)`` tuples, so every sift
  comparison during push/pop is a C-level integer compare —
  :class:`ScheduledCall` objects are never compared by the heap.
* One dispatch loop, :meth:`Simulator._run`, serves :meth:`step`,
  :meth:`run` with and without a deadline, and
  :meth:`run_until_triggered`; they differ only in its two stop tests
  (a deadline and an event).
* :meth:`Simulator.advance` moves the clock to a time the caller is
  about to wait for when the loop would run nothing before it, so the
  caller does the work itself and no event is built.  The CPU model
  finishes uncontended charges this way (``CPU.run(..., wait=True)``),
  so most charges never reach the heap.  The loop publishes its stop
  rules for this test, and a multi-waiter event hides them from all
  but its last waiter.
* A :class:`ScheduledCall` is three fields.  :meth:`ScheduledCall.cancel`
  clears ``fn``, which is the loop's single cancelled-entry test; a
  handle is never reused, so a stale ``cancel()`` on a spent handle is
  a harmless no-op.
* Lazily-cancelled entries stay in the heap until they surface, and the
  heap is compacted in place once cancelled entries outnumber live ones
  (the CPU model's preemption leaves dead completions far in the
  future; TCP cancels retransmit/delayed-ack timers constantly).
* ``Simulator.now`` is a plain attribute: the model reads it a few
  hundred times per round trip.

Everything else in :mod:`repro` — the CPU model, the device models, the
protocol stack — is built on these primitives.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, List, Optional

from repro.sim.errors import (
    Deadlock,
    EventError,
    ProcessError,
    SchedulingError,
)

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "ScheduledCall",
    "NS_PER_US",
    "us",
    "to_us",
    "tiebreak_keyfn",
]

#: Nanoseconds per microsecond; the paper reports everything in µs.
NS_PER_US = 1000

#: Cancelled-entry compaction is considered every this-many schedules.
_COMPACT_MASK = 0xFFF

#: Heaps smaller than this are never compacted (not worth the scan).
_COMPACT_MIN = 64


def _mix64(seed: int, seq: int) -> int:
    """splitmix64-style integer hash: a deterministic pseudo-random
    permutation of *seq* parameterized by *seed* (no `random` module, so
    the shuffle itself cannot perturb global RNG state)."""
    z = (seed * 0x9E3779B97F4A7C15 + seq * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def tiebreak_keyfn(policy: Optional[str]) -> Optional[Callable[[int], int]]:
    """Resolve a tie-break *policy* to a sequence->sort-key function.

    ``None``/``"fifo"`` return ``None``: the caller should use the raw
    sequence number (insertion order), which is the seed-identical fast
    path.  ``"lifo"`` reverses insertion order among equal-time events;
    ``"shuffle:<seed>"`` applies a seeded deterministic permutation.
    These perturbed orderings are the substrate of the race detector
    (:mod:`repro.analysis.racecheck`): a model whose results change
    under them depends on same-timestamp event ordering.
    """
    if policy is None or policy == "fifo":
        return None
    if policy == "lifo":
        return lambda seq: -seq
    if isinstance(policy, str) and policy.startswith("shuffle:"):
        try:
            seed = int(policy.split(":", 1)[1], 0)
        except ValueError:
            raise SchedulingError(f"bad shuffle seed in {policy!r}")
        return lambda seq: _mix64(seed, seq)
    raise SchedulingError(
        f"unknown tie-break policy {policy!r} "
        "(expected 'fifo', 'lifo' or 'shuffle:<seed>')")


def us(value: float) -> int:
    """Convert a duration in microseconds to integer nanoseconds."""
    return int(round(value * NS_PER_US))


def to_us(ns: int) -> float:
    """Convert integer nanoseconds to microseconds (float)."""
    return ns / NS_PER_US


class ScheduledCall:
    """Handle for a callback sitting in the event queue.

    Cancellation is lazy: the heap entry stays in place and is skipped by
    the dispatch loop once :meth:`cancel` has cleared ``fn``.  This is how
    the CPU model revokes a completion event when a job is preempted.
    """

    __slots__ = ("time", "fn", "args")

    def __init__(self, time: int, fn: Optional[Callable], args: tuple):
        self.time = time
        self.fn = fn
        self.args = args

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self.fn is None

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        # Drop references eagerly so cancelled chains do not pin memory.
        self.fn = None
        self.args = ()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* once, with either a value (:meth:`succeed`) or
    an exception (:meth:`fail`).  Callbacks registered before the trigger
    run at the trigger's simulated time, in registration order; callbacks
    registered after the trigger run immediately (still via the event
    queue, preserving determinism).
    """

    _PENDING = object()

    __slots__ = ("sim", "_callbacks", "_value", "_exc", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        #: ``_PENDING`` until triggered; ``None`` once failed.
        self._value: Any = Event._PENDING
        self._exc: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not Event._PENDING

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The value the event succeeded with."""
        if not self.triggered:
            raise EventError(f"event {self.name!r} has not been triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering *value* to waiters."""
        if self._value is not Event._PENDING:
            raise EventError(f"event {self.name!r} already triggered")
        self._value = value
        self._schedule_callbacks()
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception, raised in each waiter."""
        if self._value is not Event._PENDING:
            raise EventError(f"event {self.name!r} already triggered")
        if not isinstance(exc, BaseException):
            raise EventError("fail() requires an exception instance")
        self._value = None
        self._exc = exc
        self._schedule_callbacks()
        return self

    def _fire(self, value: Any = None) -> None:
        """Trigger successfully and run the waiters now, from the
        caller's own dispatch slot: the direct path that
        :meth:`Simulator.timeout` and CPU job completion take instead of
        :meth:`succeed`'s delay-0 hop.  Waiters run at the same
        simulated time and in registration order; callbacks added after
        the trigger still go through :meth:`add_callback`'s scheduled
        path."""
        if self._value is not Event._PENDING:
            raise EventError(f"event {self.name!r} already triggered")
        self._value = value
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            if len(callbacks) == 1:
                callbacks[0](self)
            else:
                self._dispatch(callbacks)

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` once the event triggers."""
        if self._callbacks is None:
            # Already triggered and dispatched: run at the current time.
            self.sim.schedule(0, fn, self)
        else:
            self._callbacks.append(fn)

    def _schedule_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            if len(callbacks) == 1:
                # Single waiter (the overwhelmingly common case): skip
                # the _dispatch wrapper frame.  Same queue position,
                # same dispatch time and order.
                self.sim.schedule(0, callbacks[0], self)
            else:
                self.sim.schedule(0, self._dispatch, callbacks)

    def _dispatch(self, callbacks: List[Callable[["Event"], None]]) -> None:
        """Run several waiters in registration order.  Until the last
        one runs, the loop's stop token reads as triggered, so only the
        last waiter can :meth:`Simulator.advance` the clock: an earlier
        one that moved it would hand the rest a later ``now``."""
        sim = self.sim
        stop, sim._stop = sim._stop, _ONCE
        for fn in callbacks[:-1]:
            fn(self)
        sim._stop = stop
        callbacks[-1](self)

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Process(Event):
    """A generator-based simulated process.

    The process *is* an event: it triggers with the generator's return
    value when the generator finishes, so processes can wait on each other
    simply by yielding them.
    """

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise ProcessError(
                f"Process requires a generator, got {type(gen).__name__}"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        sim.schedule(0, self._resume, None)

    @property
    def alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return not self.triggered

    def _resume(self, event: Optional[Event]) -> None:
        """Advance the generator to its next wait.

        The one entry point of a process: its start and its integer
        timeouts pass ``None``, and an event it waits on calls this
        with itself (its value is sent in, its exception thrown in).
        """
        try:
            if event is None:
                target = self._gen.send(None)
            elif event._exc is None:
                target = self._gen.send(event._value)
            else:
                target = self._gen.throw(event._exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - propagate via event
            self.fail(error)
            return
        if isinstance(target, Event):
            callbacks = target._callbacks
            if callbacks is not None:
                callbacks.append(self._resume)
            else:
                # Already triggered and dispatched: resume at once,
                # through the queue (add_callback's path).
                self.sim.schedule(0, self._resume, target)
        elif isinstance(target, int):
            # Plain integers are timeouts in nanoseconds.
            self.sim.schedule(target, self._resume, None)
        else:
            self._gen.close()
            self.fail(ProcessError(
                f"process {self.name!r} yielded non-waitable "
                f"{type(target).__name__}: {target!r}"
            ))


class _StopToken:
    """A stand-in stop event for the dispatch loop: only its
    ``_value`` is read."""

    __slots__ = ("_value",)

    def __init__(self, value: Any):
        self._value = value


#: Reads as triggered: :meth:`Simulator.step` returns after its first
#: callback, and :meth:`Simulator.advance` refuses outside a loop.
_ONCE = _StopToken(None)
#: Never triggers: the stop event of :meth:`Simulator.run`.
_NEVER = _StopToken(Event._PENDING)


class Simulator:
    """The event loop: a clock plus a heap of scheduled callbacks."""

    def __init__(self, tiebreak: Optional[str] = None) -> None:
        #: Current simulated time in nanoseconds.
        self.now = 0
        #: Heap of ``(time, key, ScheduledCall)``: comparisons stay on
        #: the integer prefix (keys are unique per simulator), so the
        #: heap never falls back to comparing ScheduledCall objects.
        self._queue: List[tuple] = []
        #: The running loop's stop rules, read by :meth:`advance`.
        self._until: Optional[int] = None
        self._stop: Any = _ONCE
        self._seq_next = 0
        self._events_executed = 0
        #: Same-timestamp tie-break policy ('fifo' when None); see
        #: :func:`tiebreak_keyfn`.  Only the race detector passes a
        #: non-default value.
        self.tiebreak = tiebreak or "fifo"
        self._keyfn = tiebreak_keyfn(tiebreak)

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return to_us(self.now)

    @property
    def events_executed(self) -> int:
        """Number of callbacks the loop has dispatched so far
        (diagnostics); an :meth:`advance` does not count."""
        return self._events_executed

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay_ns: int, fn: Callable, *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` after *delay_ns* nanoseconds."""
        if delay_ns < 0:
            raise SchedulingError(f"negative delay: {delay_ns}")
        seq = self._seq_next
        self._seq_next = seq + 1
        time = self.now + int(delay_ns)
        call = ScheduledCall(time, fn, args)
        heappush(self._queue, (
            time, seq if self._keyfn is None else self._keyfn(seq), call))
        if not (seq & _COMPACT_MASK):
            self._maybe_compact()
        return call

    def _maybe_compact(self) -> None:
        """Drop lazily-cancelled heap entries once they are the majority.

        Rebuilds **in place** (slice assignment + heapify) because the
        dispatch loop holds a direct reference to the heap list.
        """
        queue = self._queue
        if len(queue) < _COMPACT_MIN:
            return
        live = [entry for entry in queue if entry[2].fn is not None]
        if len(live) * 2 <= len(queue):
            queue[:] = live
            heapify(queue)

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay_ns: int, value: Any = None) -> Event:
        """An event that succeeds with *value* after *delay_ns*.

        Fast path: waiters registered before the deadline are invoked
        directly from the timeout's own dispatch slot
        (:meth:`Event._fire`) instead of hopping through a second
        delay-0 event, so a process yielding a timeout resumes one
        queue operation earlier.
        """
        ev = Event(self, name="timeout")
        self.schedule(delay_ns, ev._fire, value)
        return ev

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a generator as a simulated process."""
        return Process(self, gen, name=name)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _run(self, until: Optional[int], stop: Any) -> bool:
        """The dispatch loop: run live callbacks in ``(time, key)`` order.

        Returns True when it stops early: at the first live entry due
        after *until* (``None``: no deadline), which stays queued, or
        once the event *stop* has triggered after a dispatch.  Returns
        False when the queue holds nothing live.  Both stop rules are
        published for :meth:`advance` while the loop runs.
        """
        queue = self._queue
        pending = Event._PENDING
        executed = 0
        outer = self._until, self._stop
        self._until = until
        self._stop = stop
        try:
            while queue:
                time, key, call = heappop(queue)
                fn = call.fn
                if fn is None:
                    continue  # cancelled
                if until is not None and time > until:
                    heappush(queue, (time, key, call))
                    return True
                if time < self.now:
                    raise SchedulingError(
                        "event queue went backwards in time")
                self.now = time
                executed += 1
                fn(*call.args)
                if stop._value is not pending:
                    return True
            return False
        finally:
            self._events_executed += executed
            self._until, self._stop = outer

    def advance(self, time: int) -> bool:
        """Move the clock to *time* if the loop would run nothing first.

        For a caller that would otherwise schedule an event at *time* and
        wait for it: on True the clock stands at *time*, exactly as if
        the loop had just dispatched that event, and the caller does its
        work itself.  That holds only when no live entry is due at or
        before *time* ahead of the key the event would have had
        (cancelled ones are dropped, as the loop would), *time* is within
        :meth:`run`'s deadline, the loop's stop event is still pending
        (so never in :meth:`step`, outside a loop, or in any but the last
        waiter of a fanned-out event).  True consumes the event's sequence
        number, so later keys are unchanged; False leaves the clock and
        the sequence alone.  An advance does not count in
        :attr:`events_executed`.
        """
        seq = self._seq_next
        entry = (time, seq if self._keyfn is None else self._keyfn(seq))
        queue = self._queue
        # The usual refusal first: a live entry is due no later.
        while queue and queue[0] < entry:
            if queue[0][2].fn is not None:
                return False
            heappop(queue)
        until = self._until
        if self._stop._value is not Event._PENDING \
                or (until is not None and time > until):
            return False
        self._seq_next = seq + 1
        self.now = time
        return True

    def step(self) -> bool:
        """Execute the next non-cancelled callback.  Returns False when
        the queue holds none."""
        return self._run(None, _ONCE)

    def run(self, until: Optional[int] = None) -> None:
        """Run the event loop.

        With *until* (nanoseconds), stop once the clock reaches it (or the
        queue drains, whichever comes first) and advance the clock to
        *until*; an event due exactly at *until* runs.  Without it, run
        until the queue is empty.
        """
        if until is None:
            self._run(None, _NEVER)
            return
        if until < self.now:
            raise SchedulingError(f"until={until} is in the past")
        self._run(until, _NEVER)
        self.now = until

    def run_until_triggered(self, event: Event) -> Any:
        """Run until *event* triggers; return its value."""
        if event._value is Event._PENDING and not self._run(None, event):
            raise Deadlock(f"event queue drained; {event!r} never triggered")
        return event.value
