"""Conservation audits for simulation runs.

The engine itself raises :class:`~repro.sim.errors.SchedulingError` on
the two hard kernel invariants, a negative delay and a queue that goes
backwards in time.  The audits here read the stack's own counters once
a run is over, so an audited run executes exactly the events of an
unaudited one; each returns violation strings, empty when sound.
:func:`check_ipq_conservation` is the queueing invariant the paper's
IPQ span depends on: every datagram placed on the IP input queue is
eventually dispatched, dropped on overflow, or still queued — none are
duplicated or lost.
"""

from __future__ import annotations

from typing import Any, List

__all__ = ["check_ipq_conservation", "check_mbuf_conservation",
           "check_rexmt_backoff_bounded", "check_timer_sanity"]


def check_ipq_conservation(host: Any) -> List[str]:
    """IPQ conservation for one host: enqueued = dispatched + dropped +
    still-queued.  Returns violation strings (empty when sound)."""
    softnet = host.softnet
    accounted = (softnet.dispatched + softnet.dropped_full
                 + softnet.queue_length)
    if softnet.enqueued != accounted:
        return [
            f"ipq-conservation[{host.name}]: enqueued="
            f"{softnet.enqueued} != dispatched={softnet.dispatched} "
            f"+ dropped={softnet.dropped_full} "
            f"+ queued={softnet.queue_length}"]
    return []


def check_mbuf_conservation(host: Any) -> List[str]:
    """Mbuf conservation for one host after the run has quiesced.

    Every allocation must be balanced by a free or still be reachable
    from a socket buffer: ``pool.in_use`` equals the mbufs held by the
    send/receive chains of the host's connections.  Drops, ENOBUFS
    denials, and retransmission copies must never leak — the checker
    catches a chain freed twice (in_use < live) as well as a copy
    chain that escaped its ``free_chain`` (in_use > live).

    Call this only once the simulation has drained in-flight protocol
    work (e.g. after running a few seconds past the workload end);
    a parked transmit still holding its retransmission copy would
    otherwise count as a leak.
    """
    pool = host.pool
    violations: List[str] = []
    if pool.freed > pool.allocated:
        violations.append(
            f"mbuf-overfree[{host.name}]: freed={pool.freed} > "
            f"allocated={pool.allocated}")
    live = 0
    seen = set()
    held_ids = set()
    for conn in host.tcp.connections:
        sock = conn.socket
        if sock is None or id(sock) in seen:
            continue
        seen.add(id(sock))
        live += sock.so_snd.chain.mbuf_count
        live += sock.so_rcv.chain.mbuf_count
        held_ids.update(id(m) for m in sock.so_snd.chain.mbufs)
        held_ids.update(id(m) for m in sock.so_rcv.chain.mbufs)
    if pool.in_use != live:
        violations.append(
            f"mbuf-conservation[{host.name}]: in_use={pool.in_use} != "
            f"{live} mbufs live in socket buffers "
            f"(allocated={pool.allocated} freed={pool.freed})")
        # With the runtime sanitizer active, name each leaked
        # allocation by its provenance (site + generation).
        if pool.sanitizer is not None:
            for description in pool.sanitizer.live_report(held_ids):
                violations.append(
                    f"mbuf-leak[{host.name}]: {description}")
    return violations


def check_timer_sanity(host: Any) -> List[str]:
    """Timer-sanitizer audit: no callback may fire on a closed connection.

    Only meaningful when the runtime sanitizer is active
    (``REPRO_SANITIZE=1`` / ``KernelConfig.sanitize``) — TCP records the
    violations as they happen; this collects them at quiesce.
    """
    sanitizer = host.pool.sanitizer
    if sanitizer is None:
        return []
    return [f"timer-sanity[{host.name}]: {violation}"
            for violation in sanitizer.timer_violations]


def check_rexmt_backoff_bounded(host: Any) -> List[str]:
    """The rexmt backoff shift must never exceed BSD's cutoff.

    A shift beyond ``MAX_RTX_SHIFT`` means a connection kept backing
    off after it should have been dropped — the unbounded-retry bug
    class the chaos harness exists to catch.
    """
    from repro.tcp.states import MAX_RTX_SHIFT
    violations: List[str] = []
    for conn in host.tcp.connections:
        shift = conn.stats.rtx_shift_max
        if shift > MAX_RTX_SHIFT + 1:
            # +1: the shift that *triggers* the drop is one past the max.
            violations.append(
                f"rexmt-backoff[{host.name}]: shift reached {shift} "
                f"(cutoff {MAX_RTX_SHIFT})")
    return violations
