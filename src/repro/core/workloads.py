"""RPC traffic-mix workloads (§1.2's size-selection rationale).

The paper chose its sizes "based upon previous studies of RPC and TCP
traffic behavior ... a variety of packet lengths sized 500 bytes and
smaller" [Bershad et al.'s LRPC study; Kay & Pasquale's traffic
analysis].  This module provides those distributions as runnable
workloads: a mix is a weighted set of (request, reply) sizes, and the
harness measures the *weighted mean* round-trip latency a kernel
configuration delivers for it — the number an RPC system designer would
actually compare kernels by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.experiment import SERVER_PORT, payload_pattern
from repro.core.testbed import Testbed, build_pair
from repro.kern.config import KernelConfig

__all__ = ["RPCMix", "MixResult", "LRPC_MIX", "NFS_MIX", "BULKY_MIX",
           "run_mix", "ConnScaleResult", "run_connection_scale"]


@dataclass(frozen=True)
class RPCCall:
    """One call class: request/reply sizes plus its share of traffic."""

    request: int
    reply: int
    weight: float


@dataclass(frozen=True)
class RPCMix:
    """A named traffic mix."""

    name: str
    calls: Tuple[RPCCall, ...]

    def normalized(self) -> List[RPCCall]:
        total = sum(c.weight for c in self.calls)
        return [RPCCall(c.request, c.reply, c.weight / total)
                for c in self.calls]


#: Small-argument RPC dominance, after the LRPC observation that the
#: vast majority of calls move little data.
LRPC_MIX = RPCMix("lrpc-small", (
    RPCCall(request=32, reply=32, weight=0.55),
    RPCCall(request=32, reply=200, weight=0.25),
    RPCCall(request=200, reply=500, weight=0.15),
    RPCCall(request=500, reply=1400, weight=0.05),
))

#: NFS-flavoured: lookups and getattrs plus 8 KB reads.
NFS_MIX = RPCMix("nfs-like", (
    RPCCall(request=120, reply=120, weight=0.5),
    RPCCall(request=120, reply=500, weight=0.2),
    RPCCall(request=120, reply=8000, weight=0.3),
))

#: A bulk-leaning mix where the checksum work dominates.
BULKY_MIX = RPCMix("bulk-heavy", (
    RPCCall(request=200, reply=4000, weight=0.5),
    RPCCall(request=4000, reply=8000, weight=0.5),
))


@dataclass
class MixResult:
    """Weighted-mean latency for one mix under one configuration."""

    mix: str
    weighted_mean_us: float
    per_call_us: Dict[Tuple[int, int], float]


def run_mix(mix: RPCMix, config: Optional[KernelConfig] = None,
            network: str = "atm", iterations: int = 5,
            warmup: int = 2) -> MixResult:
    """Measure every call class in the mix on one connection and return
    the weighted mean (call classes interleave on the same connection,
    like real RPC traffic on a cached binding)."""
    tb = build_pair(network, config=config)

    calls = mix.normalized()
    schedule: List[Tuple[int, RPCCall]] = []
    for _ in range(warmup):
        for call in calls:
            schedule.append((0, call))  # warmup pass, unmeasured
    for _ in range(iterations):
        for call in calls:
            schedule.append((1, call))

    samples: Dict[Tuple[int, int], List[float]] = {
        (c.request, c.reply): [] for c in calls}

    def server(listener):
        child = yield from listener.accept()
        for _measured, call in schedule:
            request = yield from child.recv(call.request, exact=True)
            if len(request) < call.request:
                return
            yield from child.send(payload_pattern(call.reply, seed=1))

    def client():
        sock = tb.client.socket()
        yield from sock.connect(tb.server.address.ip, SERVER_PORT)
        clock = tb.client.clock
        for measured, call in schedule:
            t0 = clock.read_ticks()
            yield from sock.send(payload_pattern(call.request))
            reply = yield from sock.recv(call.reply, exact=True)
            assert len(reply) == call.reply
            if measured:
                samples[(call.request, call.reply)].append(
                    clock.delta_us(t0, clock.read_ticks()))

    listener = tb.server.socket()
    listener.listen(SERVER_PORT)
    tb.server.spawn(server(listener), name="mix-server")
    done = tb.client.spawn(client(), name="mix-client")
    tb.sim.run_until_triggered(done)

    per_call = {key: sum(vals) / len(vals)
                for key, vals in samples.items()}
    weighted = sum(per_call[(c.request, c.reply)] * c.weight
                   for c in calls)
    return MixResult(mix=mix.name, weighted_mean_us=weighted,
                     per_call_us=per_call)


# ----------------------------------------------------------------------
# Connection-scale workload (§3's motivation, run as traffic)
# ----------------------------------------------------------------------
@dataclass
class ConnScaleResult:
    """What an N-connection run did, in simulator terms.

    ``events_executed`` is the engine's dispatch count for the whole
    run.  ``testbed`` is the finished pair, from which ``repro bench``
    reads its work counters as it does for every other run.
    """

    connections: int
    completed: int
    rounds: int
    events_executed: int
    sim_duration_us: float
    segments_received: int
    retransmits: int
    testbed: Testbed = field(repr=False, compare=False)


def run_connection_scale(connections: int, rounds: int = 2,
                         request: int = 64, reply: int = 64,
                         config: Optional[KernelConfig] = None,
                         network: str = "atm",
                         window: int = 24,
                         close: bool = True) -> ConnScaleResult:
    """Stand up *connections* concurrent TCP connections between the
    pair and run *rounds* small RPCs on each.

    The run is a closed loop in two phases.  **Ramp**: every client
    connects, at most *window* handshakes in flight at once, and then
    holds its connection open until all N are established — so the RPC
    phase really runs against N-entry PCB tables and N live
    connections.  **RPC**: each connection takes a *window* slot, runs
    its *rounds* request/reply exchanges, and (with *close*) closes
    before releasing the slot.  The window caps in-flight segments
    below the bounded IP input queue's limit: an open-loop 10k-client
    stampede overflows the queue, and the ensuing loss/backoff
    collapse measures the drop path, not per-connection costs (BSD's
    FIN_WAIT_2 even wedges permanently when the peer's retransmitted
    FIN is dropped often enough — faithfully reproduced here, and
    exactly what a workload harness must not trip over).
    """
    if window <= 0:
        raise ValueError("window must be positive")
    tb = build_pair(network, config=config)
    from repro.sim.resources import Semaphore

    req_payload = payload_pattern(request)
    rep_payload = payload_pattern(reply, seed=1)
    connected = [0]
    finished = [0]
    ramp_done = tb.sim.event(name="conn-scale-ramp")
    all_done = tb.sim.event(name="conn-scale-done")
    connect_sem = Semaphore(tb.sim, value=window, name="scale-connect")
    rpc_sem = Semaphore(tb.sim, value=window, name="scale-rpc")

    def handler(child):
        for _ in range(rounds):
            data = yield from child.recv(request, exact=True)
            if len(data) < request:
                return
            yield from child.send(rep_payload)
        if close:
            yield from child.close()

    def acceptor(listener):
        for _ in range(connections):
            child = yield from listener.accept()
            tb.server.spawn(handler(child), name="scale-worker")

    def client(index):
        yield connect_sem.acquire()
        sock = tb.client.socket()
        yield from sock.connect(tb.server.address.ip, SERVER_PORT)
        connect_sem.release()
        connected[0] += 1
        if connected[0] == connections:
            ramp_done.succeed(None)
        yield ramp_done
        yield rpc_sem.acquire()
        for _ in range(rounds):
            yield from sock.send(req_payload)
            data = yield from sock.recv(reply, exact=True)
            assert len(data) == reply
        if close:
            yield from sock.close()
        rpc_sem.release()
        finished[0] += 1
        if finished[0] == connections:
            all_done.succeed(None)

    listener = tb.server.socket()
    listener.listen(SERVER_PORT)
    tb.server.spawn(acceptor(listener), name="scale-acceptor")
    for i in range(connections):
        tb.client.spawn(client(i), name=f"scale-client-{i}")
    tb.sim.run_until_triggered(all_done)

    return ConnScaleResult(
        connections=connections,
        completed=finished[0],
        rounds=rounds,
        events_executed=tb.sim.events_executed,
        sim_duration_us=tb.sim.now / 1000.0,
        segments_received=sum(h.tcp.stats.segs_received
                              for h in tb.hosts),
        retransmits=sum(h.tcp.connection_stats().retransmits
                        for h in tb.hosts),
        testbed=tb,
    )
