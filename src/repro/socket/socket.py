"""The socket layer: the user-process-facing API.

``send``/``recv`` model the write/read system calls the paper's
benchmark issues, charging syscall entry/exit, the socket-layer copies
between user and kernel space (with the 1 KB mbuf/cluster switchover of
§2.2.1), and — in the integrated-checksum kernel — the partial checksums
computed during copyin (§4.1.1).

All methods that do simulated work are generators meant to be driven
with ``yield from`` inside a simulated user process.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.kern.config import ChecksumMode
from repro.mem.mbuf import CLUSTER_THRESHOLD, MbufChain, MbufExhausted
from repro.checksum.internet import raw_sum
from repro.tcp.partials import chunk_partial_sums
from repro.sim.cpu import Priority
from repro.sim.engine import us
from repro.sim.resources import Store
from repro.socket.sockbuf import SockBuf

__all__ = ["Socket", "SocketError"]


class SocketError(Exception):
    """Socket API misuse or delivered connection error."""


class Socket:
    """A stream (TCP) socket on one host."""

    _counter = 0

    def __init__(self, host):
        self.host = host
        config = host.config
        self.so_snd = SockBuf(host.pool, config.sendspace, "so_snd")
        self.so_rcv = SockBuf(host.pool, config.recvspace, "so_rcv")
        self.conn = None  # TCPConnection once connected/accepted
        self.eof = False
        self.error: Optional[Exception] = None
        self.accept_queue: Optional[Store] = None
        Socket._counter += 1
        self.sock_id = Socket._counter
        registry = getattr(host, "sockets", None)
        if registry is not None:
            registry.append(self)

    # ------------------------------------------------------------------
    # Sleep channels
    # ------------------------------------------------------------------
    @property
    def rcv_channel(self):
        return ("so_rcv", self.host.name, self.sock_id)

    @property
    def snd_channel(self):
        return ("so_snd", self.host.name, self.sock_id)

    # ------------------------------------------------------------------
    # Connection establishment
    # ------------------------------------------------------------------
    def connect(self, remote_ip: int, remote_port: int) -> Generator:
        """Active open; completes when the connection is ESTABLISHED."""
        if self.conn is not None:
            raise SocketError("socket already connected")
        yield from self._charge_syscall_entry()
        ev = self.host.splnet.acquire(wait=True)
        if ev is not None:
            yield ev
        try:
            self.conn = self.host.tcp.create_connection(
                self, local_port=None,
                remote_ip=remote_ip, remote_port=remote_port)
            yield from self.conn.connect(Priority.KERNEL)
        finally:
            self.host.splnet.release()
        yield self.conn.established_event
        yield from self._charge_syscall_exit()

    def listen(self, port: int) -> None:
        """Passive open: become a listener on *port*."""
        if self.conn is not None:
            raise SocketError("socket already in use")
        self.accept_queue = Store(self.host.sim, name="accept")
        self.conn = self.host.tcp.create_listener(self, port)

    def accept(self) -> Generator:
        """Wait for and return an established child socket."""
        if self.accept_queue is None:
            raise SocketError("accept on a non-listening socket")
        yield from self._charge_syscall_entry()
        while len(self.accept_queue) == 0:
            yield from self.host.scheduler.sleep(self.rcv_channel)
        child = (yield self.accept_queue.get())
        yield from self._charge_syscall_exit()
        return child

    def spawn_child(self) -> "Socket":
        """A fresh socket for a passively opened connection."""
        return Socket(self.host)

    # ------------------------------------------------------------------
    # send (write system call + sosend)
    # ------------------------------------------------------------------
    def send(self, data: bytes) -> Generator:
        """Write *data* to the connection; returns when fully buffered."""
        self._require_connected()
        remaining = memoryview(bytes(data))
        # The paper's transmit-side *User* span: from the write system
        # call to the beginning of TCP output processing.
        user_start_ns = self.host.clock.read_ns()
        yield from self._charge_syscall_entry()
        while len(remaining):
            # Enter the protocol section (splnet) before touching the
            # socket buffer; sleep for space with the section released.
            ev = self.host.splnet.acquire(wait=True)
            if ev is not None:
                yield ev
            if self.so_snd.space == 0:
                self.host.splnet.release()
                self._raise_if_cannot_send()
                yield from self.host.scheduler.sleep(self.snd_channel)
                continue
            take = min(len(remaining), self.so_snd.space)
            if not self.host.pool.can_admit(take):
                # ENOBUFS: sosend sleeps in m_wait and retries rather
                # than failing the write.  The section must be released
                # first so the receive path can free mbufs meanwhile.
                self.host.splnet.release()
                self._raise_if_cannot_send()
                yield self.host.sim.timeout(
                    us(self.host.config.mbuf_wait_us))
                continue
            wait_enobufs = False
            try:
                self._raise_if_cannot_send()
                try:
                    yield from self._sosend_copyin(bytes(remaining[:take]),
                                                   user_start_ns)
                    # The span covers the first chunk only.
                    user_start_ns = None
                    remaining = remaining[take:]
                except MbufExhausted:
                    # Lost the last mbufs between the admission check
                    # and the copy (predicted chunking can need more
                    # headers than the default policy): m_wait again.
                    wait_enobufs = True
                if not wait_enobufs:
                    yield from self.conn.output(Priority.KERNEL)
                    self.conn.end_output_call()
            finally:
                self.host.splnet.release()
            if wait_enobufs:
                yield self.host.sim.timeout(
                    us(self.host.config.mbuf_wait_us))
        yield from self._charge_syscall_exit()
        return len(data)

    def _sosend_copyin(self, data: bytes,
                       user_start_ns: Optional[int]) -> Generator:
        """Copy user data into mbufs, charging per the checksum mode;
        ends the *User* span begun at *user_start_ns*, if given."""
        host = self.host
        costs = host.costs
        config = host.config
        use_clusters = len(data) > CLUSTER_THRESHOLD
        mode = config.checksum_mode
        chunk_override = None
        if (mode is ChecksumMode.INTEGRATED
                and config.socket_segment_prediction):
            chunk_override = self._predicted_chunks(len(data))
        chain, alloc_cost = host.pool.build_chain(
            data, use_clusters, chunk_sizes=chunk_override)
        cost = alloc_cost + us(costs.sosend_fixed_us)
        cost += us(costs.mbuf_chain_setup_us) * chain.mbuf_count
        if mode is ChecksumMode.INTEGRATED:
            # One pass that copies and sums each chunk (§4.1.1), plus the
            # per-chunk partial-checksum bookkeeping.
            cost += costs.copy_user_integrated.ns(len(data))
            sub_chunks = max(1, config.partial_chunks_per_mbuf)
            total_chunks = 0
            for mbuf in chain.mbufs:
                if sub_chunks > 1 and len(mbuf) > 2 * sub_chunks:
                    sums = chunk_partial_sums(mbuf.data, sub_chunks)
                else:
                    sums = [(raw_sum(mbuf.data), len(mbuf))]
                mbuf.partial_sum = sums
                total_chunks += len(sums)
            cost += us(costs.partial_cksum_per_chunk_us) * total_chunks
        elif use_clusters:
            cost += costs.copy_user_cluster.ns(len(data))
        else:
            cost += costs.copy_user_mbuf.ns(len(data))
        cpu = host.cpu
        job = cpu.run(cost, Priority.KERNEL, "sosend copyin", wait=True)
        if job is not None:
            yield job
        lin = host.lineage
        write_rec = None
        if lin is not None:
            # First byte of this write, relative to the ISS: the unacked
            # bytes already buffered sit between snd_una and the new data.
            seq_lo = 0
            if self.conn is not None:
                seq_lo = ((self.conn.snd_una + self.so_snd.cc
                           - self.conn.iss) & 0xFFFFFFFF)
            write_rec = lin.begin_write(host.name, len(data), seq_lo)
            for mbuf in chain.mbufs:
                mbuf.lineage = write_rec
        self.so_snd.append(chain)
        if user_start_ns is not None:
            host.tracer.end("tx.user", user_start_ns, write_rec)

    def _predicted_chunks(self, total: int) -> Optional[list]:
        """§4.1.1 segment-size prediction: chunk the copy at the
        connection's current MSS so partial checksums line up with
        future TCP segments."""
        if self.conn is None or total == 0:
            return None
        from repro.mem.mbuf import MCLBYTES

        unit = min(self.conn.t_maxseg, MCLBYTES)
        if unit <= 0:
            return None
        sizes = []
        remaining = total
        while remaining > 0:
            take = min(unit, remaining)
            sizes.append(take)
            remaining -= take
        return sizes

    # ------------------------------------------------------------------
    # recv (read system call + soreceive)
    # ------------------------------------------------------------------
    def recv(self, nbytes: int, exact: bool = True) -> Generator:
        """Read from the connection.

        With ``exact=True`` (the paper's benchmark loop), keep issuing
        reads until *nbytes* have been returned; each pass models one
        read system call.  With ``exact=False``, return whatever a single
        read delivers (possibly less than requested).
        """
        self._require_connected()
        received = bytearray()
        while len(received) < nbytes:
            yield from self._charge_syscall_entry()
            ev = self.host.splnet.acquire(wait=True)
            if ev is not None:
                yield ev
            while self.so_rcv.empty:
                self.host.splnet.release()
                if self.eof or self.error:
                    yield from self._charge_syscall_exit()
                    self._raise_if_dead(allow_eof=True)
                    return bytes(received)
                yield from self.host.scheduler.sleep(
                    self.rcv_channel, span="rx.wakeup")
                ev = self.host.splnet.acquire(wait=True)
                if ev is not None:
                    yield ev
            try:
                chunk = yield from self._soreceive_copyout(
                    nbytes - len(received))
            finally:
                self.host.splnet.release()
            received.extend(chunk)
            if not exact:
                break
        return bytes(received)

    def _soreceive_copyout(self, max_bytes: int) -> Generator:
        """Copy buffered data out to user space; one read syscall's work.

        Records the receive-side *User* span: data leaving TCP to the
        read returning (minus the separately recorded wakeup time).
        """
        host = self.host
        costs = host.costs
        start_ns = host.clock.read_ns()
        take = min(max_bytes, self.so_rcv.cc)
        data = self.so_rcv.peek(take)
        nmbufs = self.so_rcv.mbufs_in_first(take)
        spanning = self.so_rcv.chain.mbufs_spanning(0, take)
        has_cluster = any(m.is_cluster for m, _s, _t in spanning)
        lin = host.lineage
        delivery = None
        if lin is not None:
            # Close the causal chain: which segments' bytes this read
            # returns (adopted before sbdrop frees the mbufs).
            delivery = lin.begin_delivery(host.name, take)
            delivery.adopt_segments(m for m, _s, _t in spanning)
        cost = us(costs.soreceive_fixed_us)
        if has_cluster:
            cost += costs.copy_user_cluster.ns(take)
        else:
            cost += costs.copy_user_mbuf.ns(take)
        cost += self.so_rcv.drop(take)  # sbdrop frees the mbufs
        cpu = host.cpu
        job = cpu.run(cost, Priority.KERNEL, "soreceive copyout", wait=True)
        if job is not None:
            yield job
        if self.conn is not None:
            # Draining the buffer may reopen a closed receive window;
            # tell the peer (BSD sends a window update from sbdrop's
            # caller when the window grows by >= 2 segments).
            yield from self.conn.window_update(Priority.KERNEL)
        yield from self._charge_syscall_exit()
        host.tracer.end("rx.user", start_ns, delivery)
        return data

    # ------------------------------------------------------------------
    # close
    # ------------------------------------------------------------------
    def close(self) -> Generator:
        """Close the socket: FIN handshake via the connection."""
        if self.conn is None:
            return
        yield from self._charge_syscall_entry()
        ev = self.host.splnet.acquire(wait=True)
        if ev is not None:
            yield ev
        try:
            yield from self.conn.usr_close(Priority.KERNEL)
        finally:
            self.host.splnet.release()
        yield from self._charge_syscall_exit()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _charge_syscall_entry(self) -> Generator:
        cpu = self.host.cpu
        job = cpu.run(us(self.host.costs.syscall_entry_us),
                      Priority.KERNEL, "syscall entry", wait=True)
        if job is not None:
            yield job

    def _charge_syscall_exit(self) -> Generator:
        cpu = self.host.cpu
        job = cpu.run(us(self.host.costs.syscall_exit_us),
                      Priority.KERNEL, "syscall exit", wait=True)
        if job is not None:
            yield job

    def _require_connected(self) -> None:
        if self.conn is None:
            raise SocketError("socket not connected")

    def _raise_if_dead(self, allow_eof: bool = False) -> None:
        if self.error is not None:
            raise SocketError(str(self.error))
        if self.eof and not allow_eof:
            raise SocketError("connection closed by peer")

    def _raise_if_cannot_send(self) -> None:
        """Half-close aware: the peer's FIN (our read-side EOF) does not
        forbid sending — only our own close or a dead connection does."""
        if self.error is not None:
            raise SocketError(str(self.error))
        conn = self.conn
        if conn is None:
            raise SocketError("socket not connected")
        if conn.fin_pending or conn.fin_sent:
            raise SocketError("cannot send after close")
        from repro.tcp.states import TCPState

        if conn.state in (TCPState.CLOSED, TCPState.TIME_WAIT):
            raise SocketError("connection closed")

    def __repr__(self) -> str:
        state = self.conn.state.value if self.conn else "unbound"
        return f"<Socket #{self.sock_id} on {self.host.name} {state}>"
