"""Host-speed normalization of the benchmark's wall-time figures.

The benchmark runs on shared machines whose speed drifts, by up to a
factor of two, over seconds to minutes (busy neighbours, turbo
frequency).  Process CPU time drifts with it, so it is no cure.  A run
therefore keeps a :class:`HostClock`: about every 100 ms of measured
time it pauses the clock and times a fixed *reference computation* that
runs no ``repro`` code.  Every wall interval is then rescaled by the
ratio of the reference's nominal time, ``REF_NS``, to its time measured
around that interval.  A normalized figure reads as the wall figure on
a host that runs the reference in exactly ``REF_NS``.

The reference mixes the kinds of work the simulator does: a heap of
generator processes, a table of a few thousand objects with attribute
updates, bytes slicing and CRCs, and JSON, regex and sorting from the
standard library.  Its result is checked, so a run cannot silently time
different work.  It is part of the benchmark's definition: changing it
changes every normalized figure.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import json
import re
import time
import zlib
from typing import Callable, List

#: Nominal time of one reference computation: the unit every
#: normalized figure is expressed in.
REF_NS = 13_000_000

#: Measured time between two reference probes during a timed loop.
PROBE_EVERY_NS = 100_000_000


def _generators() -> int:
    """A heap of generator processes, as in an event kernel."""
    heap = []
    buf = bytes(range(64)) * 4

    def proc(n, k):
        acc = 0
        for i in range(n):
            acc += buf[(i * 7 + k) % 256]
            yield (i * 3 + k) % 7 + 1
    for k in range(40):
        heapq.heappush(heap, (0, k, proc(50, k)))
    total = 0
    while heap:
        t, k, p = heapq.heappop(heap)
        try:
            dt = next(p)
        except StopIteration:
            continue
        total += dt
        heapq.heappush(heap, (t + dt, k, p))
    return total


class _Seg:
    __slots__ = ("seq", "ack", "data")

    def __init__(self, seq, ack, data):
        self.seq = seq
        self.ack = ack
        self.data = data


class _Conn:
    def __init__(self, cid):
        self.snd_nxt = cid * 1000
        self.rcv_nxt = 0
        self.queue = []
        self.stats = {"in": 0, "out": 0, "bytes": 0}

    def output(self, data):
        seg = _Seg(self.snd_nxt, self.rcv_nxt, data)
        self.snd_nxt += len(data)
        self.stats["out"] += 1
        return seg

    def input(self, seg):
        self.rcv_nxt = seg.seq + len(seg.data)
        self.stats["in"] += 1
        self.stats["bytes"] += len(seg.data)
        self.queue.append(seg.data)
        if len(self.queue) > 8:
            del self.queue[:4]


_POOL = bytes((i * 131 + 7) & 0xFF for i in range(1 << 16))


def connection_table() -> dict:
    """The 3000 connection objects the reference updates.  A clock
    builds them once and keeps them, so every probe touches the same
    long-lived objects, as the simulator's own lookups do."""
    return {((c * 7919) & 0xFFFF, 7000): _Conn(c) for c in range(3000)}


def _objects(conns: dict) -> int:
    """A table of connection objects fed segments through a heap."""
    keys = list(conns)
    x = 12345
    heap = []
    total = 0
    for step in range(1500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        conn = conns[keys[x % len(keys)]]
        off = x % 60000
        seg = conn.output(_POOL[off:off + 40 + (x >> 8) % 400])
        heapq.heappush(heap, (step + (x & 15), step, seg, conn))
        if len(heap) > 64:
            _t, _s, seg, conn = heapq.heappop(heap)
            conn.input(seg)
            total += zlib.crc32(seg.data[:64]) & 0xFF
    return total


_DOC = {"hosts": [{"name": f"h{i}", "ports": list(range(i, i + 20)),
                   "up": i % 3 == 0, "rtt": i * 1.5} for i in range(60)]}
_TEXT = " ".join(f"seg{i} seq={i * 1460} ack={i * 40} len={i % 1461}"
                 for i in range(300))
_PATTERN = re.compile(r"seq=(\d+) ack=(\d+)")


def _stdlib() -> int:
    """JSON, sorting, regex and string formatting."""
    text = json.dumps(_DOC, sort_keys=True)
    back = json.loads(text)
    rows = sorted((h["rtt"], h["name"]) for h in back["hosts"])
    out = "".join(f"{a}:{b};" for a, b in _PATTERN.findall(_TEXT)[:200])
    return len(text) + len(rows) + len(out)


#: The reference computation's result; any other value fails the run.
REFERENCE_RESULT = 283325


class ReferenceMismatch(RuntimeError):
    """The reference computation returned an unexpected result."""


def reference_ns(conns: dict) -> int:
    """Wall ns of one reference computation on the table *conns* (11
    to 17 ms on a shared 2-CPU Xeon VM under Python 3.11).

    The cyclic garbage collector is off meanwhile: a collection would
    scan the simulator's objects, whose number has nothing to do with
    the host's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        total = 0
        for _ in range(3):
            total += _generators()
        total += _objects(conns)
        for _ in range(8):
            total += _stdlib()
        elapsed = time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()
    if total != REFERENCE_RESULT:
        raise ReferenceMismatch(f"reference computed {total}, "
                                f"expected {REFERENCE_RESULT}")
    return elapsed


class HostClock:
    """A wall clock that stops while the reference is probed.

    ``now()`` is ``perf_counter_ns`` minus the time spent in probes, so
    a probe taken in the middle of an RPC adds nothing to its wall
    time.  ``tick()`` probes when ``PROBE_EVERY_NS`` of clock time have
    passed since the last probe.  After the run, ``normalizer()`` turns
    clock times into normalized ns.
    """

    def __init__(self, every_ns: int = PROBE_EVERY_NS):
        self.every_ns = every_ns
        self._conns = connection_table()
        self.paused_ns = 0
        #: Clock time of each probe, and the reference's time there.
        self.at: List[int] = []
        self.ref_ns: List[int] = []
        self._next = 0

    def now(self) -> int:
        return time.perf_counter_ns() - self.paused_ns

    def probe(self) -> None:
        start = time.perf_counter_ns()
        self.at.append(start - self.paused_ns)
        self.ref_ns.append(reference_ns(self._conns))
        self.paused_ns += time.perf_counter_ns() - start
        self._next = self.at[-1] + self.every_ns

    def tick(self) -> None:
        if self.now() >= self._next:
            self.probe()

    def normalizer(self) -> Callable[[int], float]:
        """Map a clock time to normalized ns since the first probe.

        Between two probes the clock runs at the rate ``REF_NS`` over
        the mean of their reference times; before the first and after
        the last probe, at that probe's rate.  The difference of two
        mapped times is the normalized length of the interval.
        """
        at, ref = self.at, self.ref_ns
        if not at:
            raise ValueError("the host clock was never probed")
        rates = [2 * REF_NS / (ref[k] + ref[k + 1])
                 for k in range(len(at) - 1)]
        cumulative = [0.0]
        for k, rate in enumerate(rates):
            cumulative.append(cumulative[-1] + (at[k + 1] - at[k]) * rate)
        first_rate = REF_NS / ref[0]
        last_rate = REF_NS / ref[-1]

        def normalized(t: int) -> float:
            k = bisect.bisect_right(at, t) - 1
            if k < 0:
                return (t - at[0]) * first_rate
            if k >= len(rates):
                return cumulative[-1] + (t - at[-1]) * last_rate
            return cumulative[k] + (t - at[k]) * rates[k]
        return normalized

    def factor(self) -> float:
        """Median measured reference time over ``REF_NS``: how much
        slower than nominal the host ran."""
        ordered = sorted(self.ref_ns)
        return ordered[len(ordered) // 2] / REF_NS
