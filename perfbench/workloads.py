"""Seeded closed-loop RPC workloads on the simulated testbed.

Each workload builds a testbed with ``build_atm_pair`` or
``build_ethernet_pair`` and drives it only through the public socket
API: the benchmark's own client and server processes call
``Host.socket()`` and the ``Socket`` generator methods.  Every workload
is a closed loop: a client sends its next request only after the reply
to the previous one has arrived and matched the expected bytes.

Request and reply sizes and contents are drawn per RPC from the
workload seed; the simulator only ever sees the generated bytes.

``repro`` is imported inside functions, never at module level, so the
set-up probe in ``run.py`` can time a fresh import of the package.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: TCP port of the benchmark's RPC server.
PORT = 7000

#: Size of the seeded byte pool every request and reply is cut from.
POOL_BYTES = 1 << 16

#: RPCs completed before a run starts measuring (the first round trips
#: pay for Python's lazy specialization of the hot paths).
WARMUP_RPCS = 20

#: Seed of the reference window whose digest ``digests.json`` commits.
REFERENCE_SEED = 1

#: Counters folded into the simulated-behaviour digest.  They are
#: modelled outcomes, so a change that only makes the simulator faster
#: leaves every one of them unchanged.  Engine event counts and CPU job
#: counts are deliberately absent: an optimisation may lower them.
DIGEST_COUNTERS = {
    "tcp": ("segs_received", "cksum_errors", "no_pcb_drops"),
    "conn": ("segs_sent", "segs_received", "data_segs_sent",
             "data_segs_received", "fast_path_hits", "retransmits",
             "dup_segments", "out_of_order", "cksum_errors"),
    "ip": ("sent", "received", "delivered", "hdr_cksum_errors"),
    "atm": ("packets_sent", "packets_received", "cells_sent",
            "cells_received", "tx_stall_ns", "rx_fifo_overflows"),
    "ethernet": ("frames_sent", "frames_received", "bytes_sent",
                 "bytes_received", "rx_overruns"),
    "softnet": ("enqueued", "dispatched", "dropped_full"),
    "chaos": ("packets_seen", "drops"),
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a testbed shape and a traffic mix."""

    name: str
    why: str
    network: str
    sizes: Tuple[int, ...]
    #: Concurrent connections; more than one selects the ramp/RPC/close
    #: shape of ``conn_1000``.
    connections: int = 1
    #: RPCs per connection when ``connections > 1``.
    rpcs_per_conn: int = 0
    #: Handshakes, and then RPC slots, in flight at once.
    in_flight: int = 1
    #: Uniform per-PDU drop probability on the wire (0: no chaos layer).
    p_drop: float = 0.0
    #: Hash PCB demultiplexing instead of the paper's linear list.
    pcb_hash: bool = False
    #: RPCs in the fixed window that the traced run attributes and the
    #: reference digest covers (``connections > 1``: one whole round).
    window_rpcs: int = 0

    @property
    def multi(self) -> bool:
        return self.connections > 1

    def kernel_config(self):
        """The kernel build this workload runs: the paper's default,
        or hash PCB demux and nothing else."""
        from repro import KernelConfig, PcbLookup

        if self.pcb_hash:
            return KernelConfig(pcb_lookup=PcbLookup.HASH)
        return KernelConfig()


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="rpc_small",
        why="per-packet regime: event kernel, CPU model, charge chain, "
            "syscalls and headers dominate; byte-proportional layers idle",
        network="atm", sizes=(4, 20, 80, 200, 500), window_rpcs=1500),
    Workload(
        name="rpc_bulk",
        why="per-byte regime: multi-segment sends, cluster mbufs, the "
            "checksum and the ATM cell/FIFO loop dominate",
        network="atm", sizes=(1400, 4000, 8000), window_rpcs=500),
    Workload(
        name="conn_1000",
        why="1000 held-open connections: handshakes, teardown, PCB demux "
            "over 1000 entries, a deep timer heap and cancel churn",
        network="atm", sizes=(64,), connections=1000, rpcs_per_conn=2,
        in_flight=24, pcb_hash=True, window_rpcs=2000),
    Workload(
        name="lossy_ether",
        why="2% wire loss on Ethernet: retransmit timers that fire, "
            "duplicate and out-of-order segments, the chaos layer; no ATM",
        network="ethernet", sizes=(200, 500, 1400, 4000), p_drop=0.02,
        window_rpcs=1000),
)}


class RpcInputs:
    """The seeded request/reply stream of one workload.

    ``inputs[i]`` is ``(request, reply)`` for RPC *i*.  Size pairs are
    dealt from a seeded shuffle of every (request size, reply size)
    combination, reshuffled when used up, so any stretch of RPCs holds
    the same size mix as any other to within one deck.  The per-block
    figures of a run then differ by the host's noise, not by their luck
    of the draw.  RPCs are drawn lazily but always in index order, so
    the same seed gives the same stream however far a run gets.  Only
    offsets and sizes are kept; the bytes are slices of one seeded pool.
    """

    def __init__(self, workload: Workload, seed: int):
        self._rng = random.Random(f"perfbench:{workload.name}:{seed}")
        self._pool = self._rng.randbytes(POOL_BYTES + max(workload.sizes))
        self._pairs = [(req, rep) for req in workload.sizes
                       for rep in workload.sizes]
        self._deck: List[Tuple[int, int]] = []
        #: Multi-connection RPCs carry their index in the first four
        #: request bytes, so the server can tell which RPC it received.
        self._tagged = workload.multi
        self._drawn: List[Tuple[int, int, int, int]] = []

    def __getitem__(self, index: int) -> Tuple[bytes, bytes]:
        drawn = self._drawn
        rng = self._rng
        while len(drawn) <= index:
            if not self._deck:
                self._deck = list(self._pairs)
                rng.shuffle(self._deck)
            req_len, rep_len = self._deck.pop()
            drawn.append((rng.randrange(POOL_BYTES), req_len,
                          rng.randrange(POOL_BYTES), rep_len))
        req_off, req_len, rep_off, rep_len = drawn[index]
        request = self._pool[req_off:req_off + req_len]
        if self._tagged:
            request = index.to_bytes(4, "big") + request[4:]
        return request, self._pool[rep_off:rep_off + rep_len]


def _identity(gen_fn):
    return gen_fn


def _noop() -> None:
    pass


class Loop:
    """One testbed carrying one workload's closed RPC loop.

    *wrap_app* wraps the benchmark's own client and server generator
    functions (the traced run gives them a ``bench.app`` span).
    *marks* maps completed-RPC counts to simulator events that trigger
    when the count is reached; ``run.py`` uses them to run a fixed
    window of RPCs between two ``run_until_triggered`` calls.
    Wall times are read from ``clock``, and ``tick`` is called before
    every connect and every RPC; ``run.py`` points both at a
    ``hostspeed.HostClock``.
    """

    def __init__(self, workload: Workload, seed: int,
                 wrap_app: Callable = _identity):
        from repro import build_atm_pair, build_ethernet_pair

        self.workload = workload
        self.inputs = RpcInputs(workload, seed)
        self.impairments = None
        if workload.p_drop:
            from repro.chaos import ImpairmentConfig, Impairments

            self.impairments = Impairments(
                ImpairmentConfig(seed=seed, p_drop=workload.p_drop))
        build = (build_atm_pair if workload.network == "atm"
                 else build_ethernet_pair)
        self.tb = build(config=workload.kernel_config(),
                        impairments=self.impairments)
        self._wrap = wrap_app
        #: Wall ns from send to checked reply, in completion order.
        self.wall_ns: List[int] = []
        #: ``clock()`` at each completion.
        self.done_at_ns: List[int] = []
        #: RPC index -> simulated round trip in clock ticks.
        self.sim_ticks: Dict[int, int] = {}
        self.attempted = 0
        self.completed = 0
        self.mismatched = 0
        self._server_bad: set = set()
        #: Every TCP connection the benchmark's sockets used; their
        #: counters outlive the connection, unlike ``tcp.connections``.
        self.conns: list = []
        self.marks: Dict[int, object] = {}
        self.ramp_wall_ns = 0
        self.rpc_phase_start_ns = 0
        self.rpc_phase_wall_ns = 0
        self.connect_wall_ns: List[int] = []
        #: Called with each RPC's index as the client starts it.
        self.on_rpc: Optional[Callable[[int], None]] = None
        self.clock: Callable[[], int] = time.perf_counter_ns
        self.tick: Callable[[], None] = _noop
        self.ramp_start_ns = 0

    # -- hooks for tests --------------------------------------------------
    def reply_for(self, index: int, reply: bytes) -> bytes:
        """The bytes the server sends back for RPC *index*."""
        return reply

    # -- bookkeeping --------------------------------------------------------
    def mark(self, completed: int):
        """An event that triggers once *completed* RPCs have finished."""
        event = self.tb.sim.event(name=f"perfbench-{completed}-rpcs")
        self.marks[completed] = event
        return event

    @property
    def failed(self) -> int:
        """RPCs whose reply differed or that never completed."""
        return self.mismatched + (self.attempted - self.completed)

    # -- single-connection loop ---------------------------------------------
    def start(self, stop: Optional[Callable[[int], bool]],
              single: bool = False):
        """Spawn the server and clients; returns the event that
        triggers when the loop is done.

        A single-connection client stops before RPC *i* when
        ``stop(i)`` is true.  *single* runs that one-connection loop on
        a multi-connection workload's testbed (the set-up probe).
        """
        tb = self.tb
        listener = tb.server.socket()
        listener.listen(PORT)
        if self.workload.multi and not single:
            tb.server.spawn(self._wrap(self._acceptor)(listener),
                            name="perfbench-acceptor")
            return self._start_multi()
        tb.server.spawn(self._wrap(self._server)(listener),
                        name="perfbench-server")
        return tb.client.spawn(self._wrap(self._client)(stop),
                               name="perfbench-client")

    def _call(self, sock, index: int):
        """The client side of RPC *index*: send, then read and check."""
        request, reply = self.inputs[index]
        self.attempted += 1
        if self.on_rpc is not None:
            self.on_rpc(index)
        self.tick()
        t0 = self.clock()
        s0 = self.tb.client.clock.read_ticks()
        yield from sock.send(request)
        data = yield from sock.recv(len(reply), exact=True)
        t1 = self.clock()
        self.sim_ticks[index] = self.tb.client.clock.read_ticks() - s0
        self.wall_ns.append(t1 - t0)
        self.done_at_ns.append(t1)
        self.completed += 1
        if data != reply or index in self._server_bad:
            self.mismatched += 1
        event = self.marks.get(self.completed)
        if event is not None:
            event.succeed(self.completed)

    def _answer(self, child, index: int, data: bytes):
        """The server side of RPC *index*: check the request, reply."""
        request, reply = self.inputs[index]
        if data != request:
            self._server_bad.add(index)
        yield from child.send(self.reply_for(index, reply))

    def _server(self, listener):
        child = yield from listener.accept()
        self.conns.append(child.conn)
        index = 0
        while True:
            size = len(self.inputs[index][0])
            data = yield from child.recv(size, exact=True)
            if len(data) < size:
                return  # the client closed
            yield from self._answer(child, index, data)
            index += 1

    def _client(self, stop):
        tb = self.tb
        sock = tb.client.socket()
        self.tick()
        t0 = self.clock()
        yield from sock.connect(tb.server.address.ip, PORT)
        self.connect_wall_ns.append(self.clock() - t0)
        self.conns.append(sock.conn)
        index = 0
        while not stop(index):
            yield from self._call(sock, index)
            index += 1
        yield from sock.close()

    # -- many connections: ramp, RPCs, close --------------------------------
    def _start_multi(self):
        from repro.sim.resources import Semaphore

        tb = self.tb
        w = self.workload
        self._ramp_done = tb.sim.event(name="perfbench-ramp")
        self._all_done = tb.sim.event(name="perfbench-done")
        self._connect_slots = Semaphore(tb.sim, value=w.in_flight,
                                        name="perfbench-connect")
        self._rpc_slots = Semaphore(tb.sim, value=w.in_flight,
                                    name="perfbench-rpc")
        self._connected = 0
        self._finished = 0
        self.ramp_start_ns = self.clock()
        for c in range(w.connections):
            tb.client.spawn(self._wrap(self._multi_client)(c),
                            name=f"perfbench-client-{c}")
        return self._all_done

    def _acceptor(self, listener):
        for _ in range(self.workload.connections):
            child = yield from listener.accept()
            self.conns.append(child.conn)
            self.tb.server.spawn(self._wrap(self._handler)(child),
                                 name="perfbench-handler")

    def _handler(self, child):
        # Multi-connection workloads use a single request size.
        size = self.workload.sizes[0]
        for _ in range(self.workload.rpcs_per_conn):
            data = yield from child.recv(size, exact=True)
            if len(data) < size:
                return
            yield from self._answer(child, int.from_bytes(data[:4], "big"),
                                    data)
        yield from child.close()

    def _multi_client(self, c):
        tb = self.tb
        w = self.workload
        yield self._connect_slots.acquire()
        sock = tb.client.socket()
        self.tick()
        yield from sock.connect(tb.server.address.ip, PORT)
        self._connect_slots.release()
        self.conns.append(sock.conn)
        self._connected += 1
        if self._connected == w.connections:
            now = self.clock()
            self.ramp_wall_ns = now - self.ramp_start_ns
            self.rpc_phase_start_ns = now
            self._ramp_done.succeed(None)
        yield self._ramp_done
        yield self._rpc_slots.acquire()
        for r in range(w.rpcs_per_conn):
            yield from self._call(sock, c * w.rpcs_per_conn + r)
        yield from sock.close()
        self._rpc_slots.release()
        self._finished += 1
        if self._finished == w.connections:
            self.rpc_phase_wall_ns = (self.clock()
                                      - self.rpc_phase_start_ns)
            self._all_done.succeed(None)

    # -- simulated-behaviour digest -----------------------------------------
    def counters(self) -> dict:
        """The modelled counters the digest covers, summed per host."""
        out: dict = {}
        for host in self.tb.hosts:
            iface = host.interface
            kind = "atm" if self.workload.network == "atm" else "ethernet"
            out[host.name] = {
                "tcp": _pick(host.tcp.stats, DIGEST_COUNTERS["tcp"]),
                "ip": _pick(host.ip.stats, DIGEST_COUNTERS["ip"]),
                kind: _pick(iface.stats, DIGEST_COUNTERS[kind]),
                "softnet": _pick(host.softnet, DIGEST_COUNTERS["softnet"]),
                "conn": _sum_conns([c for c in self.conns
                                    if c.host is host]),
            }
        if self.impairments is not None:
            out["chaos"] = _pick(self.impairments.stats,
                                 DIGEST_COUNTERS["chaos"])
        return out

    def digest(self) -> str:
        """Hash of every simulated RTT (in clock ticks, by RPC index),
        the final simulated time and :meth:`counters`."""
        doc = {
            "rtt_ticks": [self.sim_ticks[i] for i in sorted(self.sim_ticks)],
            "now_ns": self.tb.sim.now,
            "counters": self.counters(),
        }
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _pick(obj, names) -> dict:
    return {name: getattr(obj, name) for name in names}


def _sum_conns(conns) -> dict:
    total = dict.fromkeys(DIGEST_COUNTERS["conn"], 0)
    for conn in conns:
        for name in total:
            total[name] += getattr(conn.stats, name)
    return total


def run_window(loop: Loop, rpcs: int,
               on_window_start: Optional[Callable[[], None]] = None,
               on_window_end: Optional[Callable[[], None]] = None) -> dict:
    """Run *loop* through a fixed window of *rpcs* RPCs.

    Single-connection workloads run ``WARMUP_RPCS`` first; the window
    is then exactly *rpcs* RPCs, bounded by two ``run_until_triggered``
    calls so the callbacks run with no simulator code on the stack.
    A multi-connection window is one whole round (ramp, RPCs, close).
    Returns the window's wall time and engine events.
    """
    sim = loop.tb.sim
    if loop.workload.multi:
        finish = window_end = loop.start(stop=None)
    else:
        last = WARMUP_RPCS + rpcs
        window_end = loop.mark(last)
        warm = loop.mark(WARMUP_RPCS)
        finish = loop.start(stop=lambda i: i >= last)
        sim.run_until_triggered(warm)
    if on_window_start is not None:
        on_window_start()
    events0 = sim.events_executed
    t0 = time.perf_counter_ns()
    sim.run_until_triggered(window_end)
    wall_ns = time.perf_counter_ns() - t0
    events = sim.events_executed - events0
    if on_window_end is not None:
        on_window_end()
    sim.run_until_triggered(finish)
    return {"wall_ns": wall_ns, "events": events}
