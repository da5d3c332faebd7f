"""Per-layer wall-time attribution for the traced run.

The benchmark wraps the public entry points of each simulator layer
from its own files (nothing under ``src/`` changes).  A wrapper opens a
span on the :class:`Tracer`'s stack when called and closes it on
return; a generator entry point (``Host.charge``, ``Socket.send``,
``IPLayer.output``, ...) is timed per resumption, so time a process
spends suspended in simulated time is not counted.  A layer's self
time is its spans' time minus the time covered by their child spans,
so the self times of all layers sum exactly to the root spans
(``Simulator.run_until_triggered``).

Wrappers always count their calls, so ``run.py`` can cross-check them
against each layer's own counters; a missed entry point then fails the
run instead of showing up as engine self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: Layers in report order; ``bench.app`` is the benchmark's own client
#: and server code.
LAYERS = ("sim.engine", "sim.cpu", "kern", "socket", "tcp", "tcp.pcb",
          "ip", "atm", "ethernet", "mem", "checksum", "chaos", "sim.trace",
          "bench.app")

#: (layer, module, class or None for a module function, attributes,
#: required).  Required are the root span and the entry points the run
#: cross-checks against layer counters.  Any other entry point that a
#: later change renames or removes is reported under ``unwrapped``, and
#: its time then shows under its caller's layer.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...], bool],
                    ...] = (
    ("sim.engine", "repro.sim.engine", "Simulator",
     ("run_until_triggered",), True),
    ("sim.engine", "repro.sim.engine", "Simulator",
     ("schedule", "timeout", "process"), False),
    ("sim.engine", "repro.sim.engine", "ScheduledCall", ("cancel",), False),
    ("sim.engine", "repro.sim.engine", "Event", ("succeed",), False),
    ("sim.cpu", "repro.sim.cpu", "CPU", ("run",), True),
    ("sim.cpu", "repro.sim.cpu", "CPU", ("_complete",), False),
    ("kern", "repro.kern.host", "Host", ("charge",), False),
    ("kern", "repro.kern.sched", "ProcessScheduler",
     ("sleep", "wakeup"), False),
    ("kern", "repro.kern.softint", "SoftNet",
     ("schednetisr", "_netisr"), False),
    ("socket", "repro.socket.socket", "Socket",
     ("connect", "listen", "accept", "send", "recv", "close"), False),
    ("tcp", "repro.tcp.layer", "TCPLayer",
     ("input", "create_connection"), False),
    ("tcp", "repro.tcp.conn", "TCPConnection",
     ("connect", "output", "input", "passive_open", "usr_close",
      "window_update", "_rtx_fire", "_retransmit", "_delack_fire",
      "_persist_fire"), False),
    ("tcp.pcb", "repro.tcp.pcb", "PCBTable",
     ("lookup", "insert", "remove"), False),
    ("ip", "repro.ip.layer", "IPLayer", ("output",), True),
    ("ip", "repro.ip.layer", "IPLayer", ("input",), False),
    ("atm", "repro.atm.adapter", "ForeTca100", ("output",), True),
    ("atm", "repro.atm.adapter", "ForeTca100",
     ("deliver", "_rx_interrupt"), False),
    ("ethernet", "repro.ethernet.adapter", "LanceEthernet",
     ("output",), True),
    ("ethernet", "repro.ethernet.adapter", "LanceEthernet",
     ("deliver", "_rx_interrupt"), False),
    ("mem", "repro.mem.mbuf", "MbufPool",
     ("alloc", "alloc_cluster", "m_copy"), True),
    ("mem", "repro.mem.mbuf", "MbufPool",
     ("build_chain", "free_chain", "drop_front"), False),
    ("checksum", "repro.checksum.internet", None, ("raw_sum",), False),
    ("checksum", "repro.checksum.crc", None, ("crc10", "crc32"), False),
    ("chaos", "repro.chaos.impair", "Impairments",
     ("transmit_atm", "transmit_ether"), False),
    ("sim.trace", "repro.sim.trace", "SpanTracer",
     ("begin", "end", "record_value"), False),
)

#: Spans kept in memory for the Chrome trace; later spans still count
#: towards the per-layer totals.
MAX_SPANS = 100_000


class WrapError(RuntimeError):
    """An entry point could not be wrapped, or a wrapper disagrees with
    the layer's own counters."""


class Tracer:
    """Span stack, per-layer self time and call counts.

    Counting in :attr:`total_calls` and :attr:`mbufs_seen` is always on;
    spans, self time and window counts are recorded only while
    :attr:`active`.  ``run.py`` toggles :attr:`active` between
    ``run_until_triggered`` calls, when no span is open.
    """

    def __init__(self):
        self.active = False
        #: Entry point name -> calls since the last :meth:`reset_totals`.
        self.total_calls: Dict[str, int] = defaultdict(int)
        #: Mbufs allocated through the wrapped MbufPool entry points.
        self.mbufs_seen = 0
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Entry point name -> calls inside the window.
        self.name_calls: Dict[str, int] = defaultdict(int)
        self.checksum_bytes = 0
        self.root_ns = 0
        self.root_spans = 0
        #: [name, layer, start_ns, end_ns, parent id, rpc id]
        self.spans: List[list] = []
        self.spans_dropped = 0
        #: RPC the benchmark's client most recently started.
        self.rpc = -1
        #: Open spans: [layer, start_ns, child_ns, span id]
        self._stack: List[list] = []

    def reset_totals(self) -> None:
        self.total_calls.clear()
        self.mbufs_seen = 0

    def enter(self, layer: str, name: str, count: bool = True) -> None:
        """Open a span; *count* is False when a generator resumes."""
        if count:
            self.calls[layer] += 1
            self.name_calls[name] += 1
        stack = self._stack
        start = time.perf_counter_ns()
        spans = self.spans
        if len(spans) < MAX_SPANS:
            sid = len(spans)
            spans.append([name, layer, start, 0,
                          stack[-1][3] if stack else -1, self.rpc])
        else:
            sid = -1
            self.spans_dropped += 1
        stack.append([layer, start, 0, sid])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        layer, start, child_ns, sid = stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child_ns
        if stack:
            stack[-1][2] += duration
        else:
            self.root_ns += duration
            self.root_spans += 1
        if sid >= 0:
            self.spans[sid][3] = end

    def in_layer(self, layer: str) -> bool:
        return bool(self._stack) and self._stack[-1][0] == layer

    def chrome_trace(self) -> dict:
        """The recorded spans as Chrome ``trace_event`` JSON."""
        origin = self.spans[0][2] if self.spans else 0
        events = []
        for sid, (name, layer, start, end, parent, rpc) in enumerate(
                self.spans):
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "args": {"id": sid, "parent": parent, "rpc": rpc},
            })
        return {"traceEvents": events, "displayTimeUnit": "ns",
                "otherData": {"spans_dropped": self.spans_dropped}}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap_plain(tracer: Tracer, layer: str, name: str, fn):
    totals = tracer.total_calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        totals[name] += 1
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.enter(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


def _wrap_checksum(tracer: Tracer, layer: str, name: str, fn):
    totals = tracer.total_calls

    @functools.wraps(fn)
    def wrapper(data, *args, **kwargs):
        totals[name] += 1
        if not tracer.active:
            return fn(data, *args, **kwargs)
        if not tracer.in_layer(layer):
            tracer.checksum_bytes += len(data)
        tracer.enter(layer, name)
        try:
            return fn(data, *args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


def _wrap_generator(tracer: Tracer, layer: str, name: str, fn):
    totals = tracer.total_calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        totals[name] += 1
        return _drive(tracer, layer, name, fn(*args, **kwargs))
    return wrapper


def wrap_app(tracer: Tracer, fn):
    """Wrap one of the benchmark's own client or server generator
    functions in a ``bench.app`` span."""
    return _wrap_generator(tracer, "bench.app", f"bench.{fn.__name__}", fn)


def _drive(tracer: Tracer, layer: str, name: str, gen):
    """Run *gen* as ``yield from`` would, one span per resumption.

    The call is counted at its first resumption inside the window.
    """
    value = None
    exc: Optional[BaseException] = None
    counted = False
    while True:
        if tracer.active:
            tracer.enter(layer, name, count=not counted)
            counted = True
            try:
                target = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.exit()
        else:
            try:
                target = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                return stop.value
        try:
            value = yield target
            exc = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as error:  # forwarded into gen, like yield from
            value = None
            exc = error


def _wrap_mbuf(tracer: Tracer, layer: str, name: str, fn):
    """MbufPool entry points also count the mbufs they allocate."""
    plain = _wrap_plain(tracer, layer, name, fn)
    if name.endswith((".alloc", ".alloc_cluster")):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = plain(*args, **kwargs)
            tracer.mbufs_seen += 1
            return result
        return wrapper
    if name.endswith(".m_copy"):
        # m_copy allocates through alloc() (counted there) and also
        # builds cluster-sharing headers directly: one mbuf per piece.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer.mbufs_seen
            chain, cost = plain(*args, **kwargs)
            tracer.mbufs_seen = before + chain.mbuf_count
            return chain, cost
        return wrapper
    return plain


class Patcher:
    """Installs the wrappers and restores the exact original objects."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: (owner, attribute, original) in installation order.
        self.patches: List[Tuple[object, str, object]] = []
        #: Optional entry points that no longer exist.
        self.unwrapped: List[str] = []

    def install(self) -> None:
        if self.patches:
            raise WrapError("wrappers already installed")
        originals: Dict[int, str] = {}
        try:
            for layer, module_name, cls_name, attrs, required in \
                    ENTRY_POINTS:
                module = importlib.import_module(module_name)
                owner = (module if cls_name is None
                         else getattr(module, cls_name, None))
                for attr in attrs:
                    name = f"{cls_name or module_name}.{attr}"
                    original = (None if owner is None
                                else vars(owner).get(attr))
                    if original is None:
                        if required:
                            raise WrapError(f"{name} not found")
                        self.unwrapped.append(name)
                        continue
                    if not inspect.isfunction(original):
                        raise WrapError(f"{name} is not a plain function")
                    wrapper = self._make(layer, name, original)
                    self._set(owner, attr, original, wrapper)
                    originals[id(original)] = name
                    if cls_name is None:
                        self._rebind_imports(original, wrapper)
            self._check_no_stale(originals)
        except BaseException:
            self.restore()
            raise

    def _make(self, layer: str, name: str, fn):
        if layer == "checksum":
            return _wrap_checksum(self.tracer, layer, name, fn)
        if inspect.isgeneratorfunction(fn):
            return _wrap_generator(self.tracer, layer, name, fn)
        if layer == "mem":
            return _wrap_mbuf(self.tracer, layer, name, fn)
        return _wrap_plain(self.tracer, layer, name, fn)

    def _set(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def _rebind_imports(self, original, wrapper) -> None:
        """Patch every ``from module import fn`` copy of a function."""
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, original, wrapper)

    def _check_no_stale(self, originals: Dict[int, str]) -> None:
        """Fail if any module, class or default argument still holds an
        unwrapped original (a by-name import the patch missed)."""
        for module in _repro_modules():
            for where, value in _references(module):
                if id(value) in originals:
                    raise WrapError(
                        f"{where} still refers to the unwrapped "
                        f"{originals[id(value)]}")

    def restore(self) -> None:
        """Put every original back, newest patch first, and check it.

        A module imported while the wrappers were installed copied a
        wrapper by name; it gets the original back too.
        """
        patches, self.patches = self.patches, []
        wrappers = [vars(owner)[attr] for owner, attr, _o in patches]
        originals = {id(wrapper): original for wrapper, (_w, _a, original)
                     in zip(wrappers, patches)}
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, attr, originals[id(value)])
        for owner, attr, original in patches:
            if vars(owner).get(attr) is not original:
                raise WrapError(f"{attr} on {owner!r} was not restored")

    def __enter__(self) -> "Patcher":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _references(module):
    """(where, value) for the module's globals, its classes' attributes
    and the default arguments of its functions."""
    for attr, value in vars(module).items():
        where = f"{module.__name__}.{attr}"
        yield where, value
        functions = [value]
        if inspect.isclass(value) and value.__module__ == module.__name__:
            for cattr, cvalue in vars(value).items():
                cvalue = getattr(cvalue, "__func__", cvalue)
                yield f"{where}.{cattr}", cvalue
                functions.append(cvalue)
        for fn in functions:
            if inspect.isfunction(fn):
                for default in (fn.__defaults__ or ()):
                    yield f"{where} default", default
                for default in (fn.__kwdefaults__ or {}).values():
                    yield f"{where} default", default
