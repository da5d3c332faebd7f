"""One TCP connection: the BSD 4.4 alpha send/receive engine.

This module is the heart of the reproduction.  It implements, with real
sequence numbers and real checksums over real bytes:

* ``tcp_output`` — segmentation against the negotiated MSS, the Nagle
  rule with BSD's *idle-computed-at-entry* semantics (which is what lets
  an 8000-byte write go out as two back-to-back segments), the
  retransmission copy of socket-buffer mbufs (the paper's *mcopy* span),
  and the per-mode checksum work (standard in_cksum, partial-checksum
  combination for the integrated kernel, or nothing for negotiated
  checksum-off connections);
* ``tcp_input`` — the header-prediction fast path with BSD's exact
  success conditions (pure in-sequence ACK, or pure in-sequence data
  whose ACK field acknowledges nothing new), the slow path state
  machine, out-of-order reassembly, delayed ACKs with the
  ack-every-other-segment rule, and FIN processing;
* timers — retransmission with exponential backoff, delayed-ACK, and
  TIME_WAIT expiry.

The paper's central header-prediction finding falls out of this code:
in round-trip RPC traffic each data segment carries a piggybacked ACK
for new data, so neither fast-path case applies — except for the second
segment of a two-segment transfer, whose ACK field is by then stale.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from repro.mem.mbuf import MbufExhausted
from repro.net.headers import IPHeader, TCPFlags, TCPHeader
from repro.net.packet import Packet, build_tcp_packet
from repro.sim.cpu import Priority
from repro.sim.engine import us
from repro.kern.config import ChecksumMode
from repro.socket.sockbuf import SockBufError
from repro.tcp.options import ALT_CKSUM_NONE, TCPOptions
from repro.tcp.partials import Coverage, coverage_for_span
from repro.tcp.reassembly import ReassemblyQueue
from repro.tcp.seq import seq_add, seq_diff, seq_geq, seq_gt, seq_leq, seq_lt
from repro.tcp.states import MAX_RTX_SHIFT, TCPState

if TYPE_CHECKING:  # pragma: no cover
    from repro.tcp.pcb import PCB

__all__ = ["TCPConnection", "ConnectionStats", "TCPError",
           "ConnectionReset", "ConnectionTimedOut", "TCP_MINMSS"]

#: Floor on the negotiated MSS (tcp_mss's TCP_MINMSS idea): a poisoned
#: MSS option must not melt the connection into one-byte segments.
TCP_MINMSS = 32


class TCPError(Exception):
    """Connection-fatal TCP errors delivered to the socket."""


class ConnectionReset(TCPError):
    pass


class ConnectionTimedOut(TCPError):
    pass


class ConnectionStats:
    """Per-connection counters (mirrors tcpstat where it matters)."""

    __slots__ = (
        "segs_sent", "segs_received", "data_segs_sent", "data_segs_received",
        "bytes_sent", "bytes_received", "pure_acks_sent",
        "fast_path_hits", "fast_path_data_hits", "fast_path_ack_hits",
        "retransmits", "dup_segments", "out_of_order", "cksum_errors",
        "partial_cksum_hits", "partial_cksum_misses", "delayed_acks_fired",
        "persist_probes", "rtx_shift_max", "mbuf_drops",
        "bad_segments", "rst_dropped", "bad_options",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def add(self, other: "ConnectionStats") -> None:
        """Fold *other* in: counts add, ``rtx_shift_max`` keeps the max."""
        shift_max = max(self.rtx_shift_max, other.rtx_shift_max)
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.rtx_shift_max = shift_max


class TCPConnection:
    """Protocol state machine for one connection on one host."""

    def __init__(self, host, socket, pcb: "PCB", iss: int):
        self.host = host
        self.socket = socket
        self.pcb = pcb
        pcb.connection = self

        self.state = TCPState.CLOSED
        self.iss = iss
        self.snd_una = iss
        self.snd_nxt = iss
        self.snd_max = iss
        self.snd_wnd = 0
        self.irs = 0
        self.rcv_nxt = 0

        config = host.config
        self.t_maxseg = host.config.mss_atm  # refined at negotiation
        self.nodelay = False
        self.ack_now = False
        self.delack_pending = False
        self.fin_pending = False
        self.fin_sent = False
        self.checksum_off_requested = (
            config.checksum_mode is ChecksumMode.OFF
        )
        self.checksum_off = False
        self.reassembly = ReassemblyQueue()
        self.stats = ConnectionStats()
        self.error: Optional[TCPError] = None

        self._rtx_timer = None
        self._rtx_shift = 0
        self._delack_timer = None
        self._time_wait_timer = None
        self._persist_timer = None
        self._in_sendalot = False
        self._grant_no_checksum = False
        self.t_force = False

        # Congestion control (BSD 4.4 slow start / congestion avoidance).
        self.snd_cwnd = self.t_maxseg
        self.snd_ssthresh = 0xFFFF

        # Van Jacobson RTT estimation with Karn's rule.
        self.srtt_us: Optional[float] = None
        self.rttvar_us = 0.0
        self.rto_us = config.rtx_timeout_us
        self._rtt_seq: Optional[int] = None
        self._rtt_start_ns: Optional[int] = None
        self.rtt_samples = 0
        #: Receive window advertised in the most recent segment sent.
        self.last_adv_wnd = 0
        #: Largest send window the peer has ever advertised (BSD's
        #: max_sndwnd, used by the half-window Nagle clause).
        self.max_sndwnd = 0
        self.established_event = host.sim.event(
            name=f"{host.name}:established")
        #: Set by the layer for passively opened connections: the
        #: listening socket to notify at establishment.
        self.listener_socket = None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def _costs(self):
        return self.host.costs

    @property
    def _config(self):
        return self.host.config

    def _span(self, base: str, payload_len: int, direction: str) -> str:
        """Span name, separating data-bearing from pure-ACK packets so
        the breakdown tables aggregate only what the paper measured."""
        kind = "" if payload_len > 0 else "ack."
        return f"{direction}.{kind}{base}"

    def _flow_sample(self, reason: str) -> None:
        """Record a per-connection telemetry sample (repro.obs.flow),
        taken at control-state transitions; free when unobserved."""
        flow = self.host.flow
        if flow is not None:
            flow.sample(self, reason)

    def local_mss(self) -> int:
        iface = self.host.interface
        if iface is None:
            return self._config.mss_atm
        return min(iface.suggested_mss, iface.mtu - 40)

    # ------------------------------------------------------------------
    # Active open (connect)
    # ------------------------------------------------------------------
    def connect(self, priority: int = Priority.KERNEL) -> Generator:
        """Send the initial SYN; caller waits on ``established_event``."""
        if self.state is not TCPState.CLOSED:
            raise TCPError(f"connect in state {self.state}")
        self.state = TCPState.SYN_SENT
        options = TCPOptions(
            mss=self.local_mss(),
            alt_checksum=(ALT_CKSUM_NONE if self.checksum_off_requested
                          else None),
        )
        yield from self._send_control(
            TCPFlags.SYN, seq=self.iss, options=options, priority=priority)
        self.snd_nxt = seq_add(self.iss, 1)
        self.snd_max = self.snd_nxt
        self._start_rtx_timer()

    # ------------------------------------------------------------------
    # tcp_output
    # ------------------------------------------------------------------
    def output(self, priority: int = Priority.KERNEL) -> Generator:
        """The data/ACK transmit engine; returns segments emitted.

        BSD computes ``idle`` once per call, before the ``again:`` label;
        the Nagle check inside the loop therefore lets a multi-segment
        write stream out back-to-back (the 8000-byte case).
        """
        if not self.state.synchronized:
            return 0
        if self.state is TCPState.TIME_WAIT and not self.ack_now:
            # Only the final ACK (or a re-ACK of a retransmitted FIN)
            # leaves a TIME_WAIT connection.
            return 0
        sent = 0
        idle = self.snd_una == self.snd_max
        while True:
            off = seq_diff(self.snd_nxt, self.snd_una)
            if self.fin_sent:
                off -= 1  # the FIN consumed one sequence number
            if off < 0:
                off = 0
            sb_cc = self.socket.so_snd.cc
            wnd = self.snd_wnd
            if self._config.congestion_control:
                wnd = min(wnd, self.snd_cwnd)
            win = min(wnd, sb_cc)
            length = win - off
            if length < 0:
                length = 0
            if (self.t_force and length == 0 and sb_cc > off):
                # Zero-window probe: force one byte past the window.
                length = 1
            sendalot = False
            if length > self.t_maxseg:
                length = self.t_maxseg
                sendalot = True
            fin_now = (self.fin_pending and not self.fin_sent
                       and self.state.can_send_data
                       and off + length >= sb_cc)
            send = False
            if length > 0:
                if length == self.t_maxseg:
                    send = True
                elif ((idle or self.nodelay)
                      and off + length >= sb_cc):
                    send = True
                elif self.max_sndwnd and length >= self.max_sndwnd // 2:
                    send = True  # can fill half the peer's best window
                elif seq_lt(self.snd_nxt, self.snd_max):
                    send = True  # retransmission
                elif self.t_force:
                    send = True  # window probe
            if self.ack_now or fin_now:
                send = True
            if not send:
                break
            try:
                yield from self._emit_segment(length, off, fin_now, priority)
            except MbufExhausted:
                # ENOBUFS from the retransmission copy: BSD's tcp_output
                # abandons the attempt and leaves the data in the socket
                # buffer; the rexmt timer retries once mbufs free up.
                # (m_copy raises before any sequence state moved.)
                self.stats.mbuf_drops += 1
                if self.snd_una != self.snd_max or length > 0:
                    self._start_rtx_timer()
                break
            sent += 1
            if not sendalot and not self.ack_now and not (
                    self.fin_pending and not self.fin_sent):
                # One more loop iteration would just re-evaluate to
                # "don't send"; checking here keeps the common case to a
                # single pass like BSD's !sendalot fallthrough.
                break
        self.t_force = False
        # Data is pending but the peer's window is closed: arm the
        # persist timer so a lost window update cannot deadlock us.
        if (sent == 0 and self.snd_wnd == 0
                and self.socket.so_snd.cc > 0
                and self.state.can_send_data
                and self._rtx_timer is None):
            self._start_persist_timer()
        return sent

    def _emit_segment(self, length: int, off: int, fin: bool,
                      priority: int) -> Generator:
        """Build and send one segment starting at snd_nxt."""
        costs = self._costs
        span_seg = self._span("tcp.segment", length, "tx")
        lin = self.host.lineage
        seg_rec = None
        if lin is not None:
            seg_rec = lin.begin_segment(
                self.host.name, seq=self.snd_nxt, length=length,
                kind="data" if length > 0 else "ack")

        # --- protocol processing (the "segment" span) -------------------
        # The per-call fixed cost is charged once per tcp_output call;
        # further sendalot iterations pay only the per-segment increment.
        seg_cost = us(costs.tcp_output_per_segment_us)
        if not self._in_sendalot:
            seg_cost += us(costs.tcp_output_fixed_us)
            self._in_sendalot = True
        if self._config.header_prediction:
            seg_cost += us(costs.header_predict_setup_us)
        yield from self.host.charge(seg_cost, priority, "tcp_output",
                                    span=span_seg, lineage=seg_rec)

        # --- retransmission copy (the "mcopy" span) --------------------
        payload = b""
        mbuf_count = 1  # the header mbuf
        cluster_count = 0
        coverage: Optional[Coverage] = None
        if length > 0:
            sb_chain = self.socket.so_snd.chain
            copy_chain, mcopy_cost = self.host.pool.m_copy(
                sb_chain, off, length)
            yield from self.host.charge(
                mcopy_cost, priority, "tcp mcopy",
                span=self._span("tcp.mcopy", length, "tx"),
                lineage=seg_rec)
            if seg_rec is not None:
                # The copy chain carries the originating writes' tags
                # (m_copy propagated them); adopt before free_chain.
                seg_rec.adopt_writes(copy_chain.mbufs)
            payload = copy_chain.to_bytes()
            mbuf_count += copy_chain.mbuf_count
            cluster_count = copy_chain.cluster_count
            if self._config.checksum_mode is ChecksumMode.INTEGRATED:
                # How much of this segment the partial sums stored at
                # copyin (§4.1.1) cover; the remainder is re-summed.
                coverage = coverage_for_span(sb_chain, off, length)
            # The copy chain is consumed by the driver after transmit;
            # freeing happens off the latency path (overlapped), so no
            # time is charged, but the pool bookkeeping must balance.
            self.host.pool.free_chain(copy_chain)

        # --- checksum work ---------------------------------------------
        flags = TCPFlags.ACK
        if length > 0 and off + length >= self.socket.so_snd.cc:
            flags |= TCPFlags.PSH
        if fin:
            flags |= TCPFlags.FIN
        # The checksum covers the data, the 20-byte TCP header, and the
        # 20-byte IP pseudo-header overlay (§2.2.2: "20 bytes for TCP
        # header + 20 bytes for IP overlay").
        cksum_bytes = 40
        mode = self._config.checksum_mode
        span_ck = self._span("tcp.checksum", length, "tx")
        if self.checksum_off:
            explicit_cksum: Optional[int] = 0
        elif mode is ChecksumMode.INTEGRATED and length > 0:
            explicit_cksum = None
            assert coverage is not None
            if coverage.full:
                self.stats.partial_cksum_hits += 1
            else:
                self.stats.partial_cksum_misses += 1
            # Header (+pseudo) is always summed fresh; covered payload
            # costs only a combine per chunk; uncovered payload is
            # re-summed at the kernel checksum rate.
            ck_cost = (costs.cksum_kernel.ns(cksum_bytes
                                             + coverage.uncovered_bytes)
                       + us(costs.partial_cksum_tx_fixed_us)
                       + us(0.5) * coverage.chunks_combined)
            yield from self.host.charge(ck_cost, priority, "tcp cksum",
                                        span=span_ck, lineage=seg_rec)
        else:
            explicit_cksum = None
            ck_cost = costs.cksum_kernel.ns(cksum_bytes + length)
            yield from self.host.charge(ck_cost, priority, "tcp cksum",
                                        span=span_ck, lineage=seg_rec)

        # --- assemble and hand to IP ------------------------------------
        ip_hdr = IPHeader(
            src=self.pcb.local_ip, dst=self.pcb.remote_ip,
            total_length=0,
            identification=self.host.ip.next_ident(),
        )
        adv_wnd = min(self.socket.so_rcv.space, 0xFFFF)
        self.last_adv_wnd = adv_wnd
        tcp_hdr = TCPHeader(
            src_port=self.pcb.local_port, dst_port=self.pcb.remote_port,
            seq=self.snd_nxt, ack=self.rcv_nxt, flags=flags,
            window=adv_wnd,
        )
        packet = build_tcp_packet(ip_hdr, tcp_hdr, payload,
                                  tcp_checksum=explicit_cksum)
        packet.mbuf_count = mbuf_count
        packet.cluster_count = cluster_count
        packet.tx_host = self.host.name
        if seg_rec is not None:
            # Keyed by (ip.src, ident) so the receiving host — sharing
            # the recorder — re-attaches the record on rx.
            lin.set_key(seg_rec, ip_hdr.src, ip_hdr.identification)
            packet.lineage = seg_rec

        self.stats.segs_sent += 1
        if length > 0:
            self.stats.data_segs_sent += 1
            self.stats.bytes_sent += length
        else:
            self.stats.pure_acks_sent += 1
        is_retransmit = seq_lt(self.snd_nxt, self.snd_max)
        if is_retransmit:
            self.stats.retransmits += 1
        if seg_rec is not None:
            seg_rec.retransmit = is_retransmit

        advance = length + (1 if fin else 0)
        is_new_data = not seq_lt(self.snd_nxt, self.snd_max)
        self.snd_nxt = seq_add(self.snd_nxt, advance)
        if seq_gt(self.snd_nxt, self.snd_max):
            self.snd_max = self.snd_nxt
        # Time one new data segment per window (Karn: never a
        # retransmission) for the RTT estimator.
        if (self._config.rtt_estimation and length > 0 and is_new_data
                and self._rtt_seq is None):
            self._rtt_seq = self.snd_nxt
            self._rtt_start_ns = self.host.sim.now
        if fin:
            self.fin_sent = True
            if self.state is TCPState.ESTABLISHED:
                self.state = TCPState.FIN_WAIT_1
            elif self.state is TCPState.CLOSE_WAIT:
                self.state = TCPState.LAST_ACK
        self.ack_now = False
        self.delack_pending = False
        self._cancel_delack_timer()
        if advance > 0:
            self._start_rtx_timer()

        yield from self.host.ip.output(packet, priority,
                                       data_bearing=length > 0)

    def end_output_call(self) -> None:
        """Reset the per-call fixed-cost flag (see _emit_segment)."""
        self._in_sendalot = False

    # ------------------------------------------------------------------
    # Control segments (SYN / SYN|ACK / RST)
    # ------------------------------------------------------------------
    def _send_control(self, flags: int, seq: int,
                      options: Optional[TCPOptions] = None,
                      priority: int = Priority.KERNEL) -> Generator:
        costs = self._costs
        lin = self.host.lineage
        seg_rec = None
        if lin is not None:
            seg_rec = lin.begin_segment(
                self.host.name, seq=seq, length=0,
                kind="ctl" if flags & TCPFlags.SYN else "ack")
        cost = us(costs.tcp_output_fixed_us
                  + costs.tcp_output_per_segment_us)
        yield from self.host.charge(cost, priority, "tcp_output ctrl",
                                    span="tx.ack.tcp.segment",
                                    lineage=seg_rec)
        opt_bytes = options.encode() if options else b""
        header_len = 20 + len(opt_bytes)
        # Control segments are always checksummed: checksum-off only
        # applies after it has been negotiated at establishment.
        yield from self.host.charge(
            costs.cksum_kernel.ns(header_len + 20), priority,
            "tcp cksum ctrl", span="tx.ack.tcp.checksum",
            lineage=seg_rec)
        ip_hdr = IPHeader(src=self.pcb.local_ip, dst=self.pcb.remote_ip,
                          total_length=0,
                          identification=self.host.ip.next_ident())
        adv_wnd = min(self.socket.so_rcv.space, 0xFFFF)
        self.last_adv_wnd = adv_wnd
        tcp_hdr = TCPHeader(
            src_port=self.pcb.local_port, dst_port=self.pcb.remote_port,
            seq=seq, ack=self.rcv_nxt,
            flags=flags | (TCPFlags.ACK if self.state.synchronized
                           or flags & TCPFlags.ACK else 0),
            window=adv_wnd,
            options=opt_bytes,
        )
        packet = build_tcp_packet(ip_hdr, tcp_hdr, b"")
        packet.tx_host = self.host.name
        if seg_rec is not None:
            lin.set_key(seg_rec, ip_hdr.src, ip_hdr.identification)
            packet.lineage = seg_rec
        self.stats.segs_sent += 1
        if not flags & TCPFlags.SYN:
            self.stats.pure_acks_sent += 1
        yield from self.host.ip.output(packet, priority, data_bearing=False)

    # ------------------------------------------------------------------
    # tcp_input
    # ------------------------------------------------------------------
    def input(self, packet: Packet, ip_hdr: IPHeader, tcp_hdr: TCPHeader,
              payload: bytes,
              priority: int = Priority.SOFT_INTR) -> Generator:
        """Process one incoming segment (checksum already verified)."""
        self.stats.segs_received += 1
        if payload:
            self.stats.data_segs_received += 1

        fast = self._try_fast_path(tcp_hdr, payload)
        metrics = self.host.metrics
        if metrics is not None and self.state is TCPState.ESTABLISHED:
            # Header-prediction outcome (only meaningful once
            # established, where the fast path is even possible).
            metrics.inc("tcp.predict.hit" if fast
                        else "tcp.predict.miss")
        if fast:
            yield from self._fast_path(tcp_hdr, payload, priority,
                                       lineage=packet.lineage)
            return
        yield from self._slow_path(packet, tcp_hdr, payload, priority)

    # --- header prediction -------------------------------------------
    def _try_fast_path(self, tcp_hdr: TCPHeader, payload: bytes) -> bool:
        """BSD 4.4's exact header-prediction success conditions."""
        if not self._config.header_prediction:
            return False
        if self.state is not TCPState.ESTABLISHED:
            return False
        # Flags: only ACK (PSH tolerated), no SYN/FIN/RST/URG.
        if tcp_hdr.flags & ~TCPFlags.PSH != TCPFlags.ACK:
            return False
        if tcp_hdr.options:
            return False
        if tcp_hdr.seq != self.rcv_nxt:
            return False
        if tcp_hdr.window == 0 or tcp_hdr.window != self.snd_wnd:
            return False
        if self.snd_nxt != self.snd_max:
            return False  # retransmission in progress
        if len(payload) == 0:
            # Pure ACK: must acknowledge new data.
            return (seq_gt(tcp_hdr.ack, self.snd_una)
                    and seq_leq(tcp_hdr.ack, self.snd_max))
        # Pure data: the ACK field must acknowledge nothing new, the
        # reassembly queue must be empty, and the data must fit.
        return (tcp_hdr.ack == self.snd_una
                and self.reassembly.empty
                and len(payload) <= self.socket.so_rcv.space)

    def _fast_path(self, tcp_hdr: TCPHeader, payload: bytes,
                   priority: int, lineage=None) -> Generator:
        costs = self._costs
        self.stats.fast_path_hits += 1
        yield from self.host.charge(
            us(costs.tcp_input_fast_us), priority, "tcp_input fast",
            span=self._span("tcp.segment", len(payload), "rx"),
            lineage=lineage)
        if len(payload) == 0:
            self.stats.fast_path_ack_hits += 1
            acked = seq_diff(tcp_hdr.ack, self.snd_una)
            drop = min(acked, self.socket.so_snd.cc)
            if drop:
                self.socket.so_snd.drop(drop)
            self.snd_una = tcp_hdr.ack
            self._ack_advanced(tcp_hdr.ack)
            self._manage_rtx_after_ack()
            yield from self.host.scheduler.wakeup(
                self.socket.snd_channel, priority)
            # More buffered data may now be sendable.
            yield from self.output(priority)
            self.end_output_call()
            return
        self.stats.fast_path_data_hits += 1
        if not self.host.pool.can_admit(len(payload)):
            # ENOBUFS on sbappend: checked *before* rcv_nxt moves, so
            # the segment is dropped as if lost and the peer's rexmt
            # recovers without losing bytes.
            self.stats.mbuf_drops += 1
            return
        self.rcv_nxt = seq_add(self.rcv_nxt, len(payload))
        self._append_receive_data(payload, lineage=lineage)
        self._note_delack()
        yield from self.host.scheduler.wakeup(
            self.socket.rcv_channel, priority)
        if self.ack_now:
            yield from self.output(priority)
            self.end_output_call()
        elif self.delack_pending:
            self._start_delack_timer()

    # --- slow path ----------------------------------------------------
    def _slow_path(self, packet: Packet, tcp_hdr: TCPHeader,
                   payload: bytes, priority: int) -> Generator:
        costs = self._costs
        yield from self.host.charge(
            us(costs.tcp_input_slow_us), priority, "tcp_input slow",
            span=self._span("tcp.segment", len(payload), "rx"),
            lineage=packet.lineage)

        flags = tcp_hdr.flags
        if flags & TCPFlags.RST:
            if self.state is TCPState.SYN_SENT:
                # RST answering our SYN: honored only with an
                # acceptable ACK (RFC 793 p.67) — anything else is a
                # blind connection-refused forgery.
                if flags & TCPFlags.ACK and \
                        tcp_hdr.ack == seq_add(self.iss, 1):
                    self._drop_connection(
                        ConnectionReset("connection refused"))
                    yield from self._wake_all(priority)
                else:
                    self.stats.rst_dropped += 1
            elif self.state.synchronized:
                # RFC 793 p.37: an RST is valid only if its sequence
                # number is in the receive window; a blind RST with a
                # guessed seq must not kill the connection.
                if self._segment_in_window(tcp_hdr.seq):
                    self._drop_connection(
                        ConnectionReset("connection reset"))
                    yield from self._wake_all(priority)
                else:
                    self.stats.rst_dropped += 1
            return

        if self.state is TCPState.SYN_SENT:
            yield from self._input_syn_sent(tcp_hdr, priority)
            return

        seq = tcp_hdr.seq
        data = payload
        fin = bool(flags & TCPFlags.FIN)

        if flags & TCPFlags.SYN:
            if self.state is TCPState.SYN_RECEIVED:
                # Retransmitted SYN: re-ack it.
                self.ack_now = True
            elif not self.state.synchronized:
                # Stray SYN for a dead (CLOSED) connection: nothing
                # to reset, nothing to re-ack.
                self.stats.bad_segments += 1
                return
            elif self._segment_in_window(tcp_hdr.seq):
                # In-window SYN on a synchronized connection: the peer
                # restarted (RFC 793 p.71) — reset and tell the user
                # (no RFC 5961 challenge-ACK machinery in 4.4BSD).
                self.stats.bad_segments += 1
                self._drop_connection(ConnectionReset("connection reset"))
                yield from self._wake_all(priority)
                return
            else:
                # Blind SYN outside the window: drop it and re-ack so
                # a legitimate-but-confused peer learns where we are.
                self.stats.bad_segments += 1
                self.ack_now = True
            yield from self.output(priority)
            self.end_output_call()
            return

        if not flags & TCPFlags.ACK:
            # RFC 793 p.72: every post-handshake segment carries ACK;
            # a flagless or FIN-only segment without it is dropped.
            self.stats.bad_segments += 1
            return

        # Trim duplicate data below rcv_nxt.
        if seq_lt(seq, self.rcv_nxt):
            dup = seq_diff(self.rcv_nxt, seq)
            if dup >= len(data):
                # Entirely duplicate (keep FIN if it is the next byte).
                if not (fin and seq_add(seq, len(data)) == self.rcv_nxt):
                    fin = False
                data = b""
                seq = self.rcv_nxt
                self.stats.dup_segments += 1
                self.ack_now = True
            else:
                data = data[dup:]
                seq = self.rcv_nxt

        # ACK processing.
        if flags & TCPFlags.ACK:
            yield from self._process_ack(
                tcp_hdr, priority,
                span=self._span("tcp.segment", len(payload), "rx"),
                lineage=packet.lineage)
            if self.state is TCPState.CLOSED:
                return
        if flags & TCPFlags.ACK:
            # Take the advertised window even when it is zero: a closed
            # window must reach snd_wnd or output() keeps pushing into
            # it and the persist machinery below never engages.
            self.snd_wnd = tcp_hdr.window
            self.max_sndwnd = max(self.max_sndwnd, tcp_hdr.window)
            if tcp_hdr.window:
                self._cancel_persist_timer()

        # Data processing.
        if data and self.state.can_receive_data:
            # Trim to the receive buffer (the part of a window probe or
            # overrun beyond our advertised window is dropped and will
            # be retransmitted once the window reopens).
            space = self.socket.so_rcv.space
            if len(data) > space:
                data = data[:space]
                fin = False  # anything beyond the window cut the FIN off
                self.ack_now = True
        if data and self.state.can_receive_data:
            if seq == self.rcv_nxt and not self.host.pool.can_admit(
                    len(data)):
                # ENOBUFS on sbappend (checked before rcv_nxt moves):
                # drop the segment as if lost; the peer retransmits.
                self.stats.mbuf_drops += 1
            elif seq == self.rcv_nxt:
                self.rcv_nxt = seq_add(self.rcv_nxt, len(data))
                self._append_receive_data(data, lineage=packet.lineage)
                if not self.reassembly.empty:
                    drained, new_nxt = self.reassembly.drain(self.rcv_nxt)
                    # Admission must check the socket buffer as well as
                    # the pool: a drained run larger than so_rcv's free
                    # space would blow sbappend's high-water check after
                    # the chain was already built.
                    if drained and \
                            len(drained) <= self.socket.so_rcv.space and \
                            self.host.pool.can_admit(len(drained)):
                        self.rcv_nxt = new_nxt
                        self._append_receive_data(drained)
                    elif drained:
                        # No room to append the drained run: put it back
                        # so rcv_nxt and the queue stay consistent.
                        self.stats.mbuf_drops += 1
                        self.reassembly.insert(self.rcv_nxt, drained)
                self._note_delack()
                yield from self.host.scheduler.wakeup(
                    self.socket.rcv_channel, priority)
            elif seq_diff(seq, self.rcv_nxt) + len(data) > \
                    self.socket.so_rcv.hiwat:
                # Out-of-order data beyond any window we could ever
                # have advertised (e.g. a mutated or forged sequence
                # number): queueing it would pin buffer space for data
                # that can never be drained.  Drop and dup-ACK.
                self.stats.bad_segments += 1
                self.ack_now = True
                fin = False
            else:
                self.reassembly.insert(seq, data)
                self.stats.out_of_order += 1
                self.ack_now = True  # duplicate ACK
                fin = False  # cannot process FIN ahead of a gap

        # FIN processing.
        if fin and self.state.can_receive_data and (
                seq_add(seq, len(data)) == self.rcv_nxt):
            self.rcv_nxt = seq_add(self.rcv_nxt, 1)
            self.ack_now = True
            self.socket.eof = True
            if self.state is TCPState.ESTABLISHED:
                self.state = TCPState.CLOSE_WAIT
            elif self.state is TCPState.FIN_WAIT_1:
                self.state = TCPState.CLOSING
            elif self.state is TCPState.FIN_WAIT_2:
                self._enter_time_wait()
            yield from self.host.scheduler.wakeup(
                self.socket.rcv_channel, priority)

        yield from self.output(priority)
        self.end_output_call()
        if self.delack_pending:
            self._start_delack_timer()

    def _input_syn_sent(self, tcp_hdr: TCPHeader,
                        priority: int) -> Generator:
        flags = tcp_hdr.flags
        if not flags & TCPFlags.SYN:
            # Only a SYN (or RST, handled earlier) means anything in
            # SYN_SENT; stray ACKs/data are hostile or very stale.
            self.stats.bad_segments += 1
            return
        self.irs = tcp_hdr.seq
        self.rcv_nxt = seq_add(tcp_hdr.seq, 1)
        self.snd_wnd = tcp_hdr.window
        self.max_sndwnd = max(self.max_sndwnd, tcp_hdr.window)
        self._negotiate(TCPOptions.decode(tcp_hdr.options),
                        syn_ack=bool(flags & TCPFlags.ACK))
        if flags & TCPFlags.ACK and tcp_hdr.ack == seq_add(self.iss, 1):
            self.snd_una = tcp_hdr.ack
            self.state = TCPState.ESTABLISHED
            self._flow_sample("established")
            self._cancel_rtx_timer()
            self.ack_now = True
            if not self.established_event.triggered:
                self.established_event.succeed(self)
            yield from self.host.scheduler.wakeup(
                self.socket.rcv_channel, priority)
        else:
            # Simultaneous open.
            self.state = TCPState.SYN_RECEIVED
            self.ack_now = True
        yield from self.output(priority)
        self.end_output_call()

    def _process_ack(self, tcp_hdr: TCPHeader, priority: int,
                     span: Optional[str] = None, lineage=None) -> Generator:
        ack = tcp_hdr.ack
        if self.state is TCPState.SYN_RECEIVED:
            if ack == seq_add(self.iss, 1):
                self.snd_una = ack
                self.state = TCPState.ESTABLISHED
                self._flow_sample("established")
                self._cancel_rtx_timer()
                self._rtx_shift = 0
                if not self.established_event.triggered:
                    self.established_event.succeed(self)
                if self.listener_socket is not None:
                    self.listener_socket.accept_queue.put(self.socket)
                    yield from self.host.scheduler.wakeup(
                        self.listener_socket.rcv_channel, priority)
            return
        if seq_gt(ack, self.snd_max):
            self.ack_now = True
            return
        if seq_leq(ack, self.snd_una):
            return  # old or duplicate ACK
        yield from self.host.charge(
            us(self._costs.tcp_ack_processing_us), priority, "tcp ack",
            span=span, lineage=lineage)
        acked = seq_diff(ack, self.snd_una)
        drop = min(acked, self.socket.so_snd.cc)
        if drop:
            self.socket.so_snd.drop(drop)
        fin_acked = self.fin_sent and acked > drop
        self.snd_una = ack
        self._ack_advanced(ack)
        self._manage_rtx_after_ack()
        if fin_acked:
            if self.state is TCPState.FIN_WAIT_1:
                self.state = TCPState.FIN_WAIT_2
            elif self.state is TCPState.CLOSING:
                self._enter_time_wait()
            elif self.state is TCPState.LAST_ACK:
                self._close_now()
        yield from self.host.scheduler.wakeup(
            self.socket.snd_channel, priority)

    # ------------------------------------------------------------------
    # Passive open support (called by the layer for a SYN to a listener)
    # ------------------------------------------------------------------
    def passive_open(self, tcp_hdr: TCPHeader,
                     priority: int = Priority.SOFT_INTR) -> Generator:
        self.irs = tcp_hdr.seq
        self.rcv_nxt = seq_add(tcp_hdr.seq, 1)
        self.snd_wnd = tcp_hdr.window
        self.max_sndwnd = max(self.max_sndwnd, tcp_hdr.window)
        self.state = TCPState.SYN_RECEIVED
        self._negotiate(TCPOptions.decode(tcp_hdr.options), syn_ack=False)
        options = TCPOptions(
            mss=self.local_mss(),
            alt_checksum=(ALT_CKSUM_NONE if self._grant_no_checksum
                          else None),
        )
        yield from self._send_control(
            TCPFlags.SYN | TCPFlags.ACK, seq=self.iss, options=options,
            priority=priority)
        self.snd_nxt = seq_add(self.iss, 1)
        self.snd_max = self.snd_nxt
        self._start_rtx_timer()

    def _negotiate(self, opts: TCPOptions, syn_ack: bool) -> None:
        """Apply the peer's SYN options."""
        if opts.malformed:
            self.stats.bad_options += 1
        peer_mss = opts.mss if opts.mss else 536
        if peer_mss < TCP_MINMSS:
            # A poisoned MSS would shatter every write into tiny
            # segments (an event-amplification attack on the stack);
            # clamp to the floor and account for the hostile option.
            self.stats.bad_options += 1
            peer_mss = TCP_MINMSS
        self.t_maxseg = min(peer_mss, self.local_mss())
        self.snd_cwnd = self.t_maxseg  # slow start from one segment
        self._grant_no_checksum = (self.checksum_off_requested
                                   and opts.wants_no_checksum)
        if syn_ack:
            # Active side: the SYN|ACK carries the grant.
            self.checksum_off = (self.checksum_off_requested
                                 and opts.wants_no_checksum)
        else:
            # Passive side: in effect only if we also grant it.
            self.checksum_off = self._grant_no_checksum

    # ------------------------------------------------------------------
    # Receive-side helpers
    # ------------------------------------------------------------------
    def _segment_in_window(self, seq: int) -> bool:
        """RFC 793 acceptability of *seq* against the receive window.

        With a closed window only ``seq == rcv_nxt`` is acceptable;
        otherwise ``rcv_nxt <= seq < rcv_nxt + wnd`` in sequence space.
        """
        wnd = min(self.socket.so_rcv.space, 0xFFFF)
        if wnd == 0:
            return seq == self.rcv_nxt
        return (seq_geq(seq, self.rcv_nxt)
                and seq_lt(seq, seq_add(self.rcv_nxt, wnd)))

    def _append_receive_data(self, data: bytes, lineage=None) -> None:
        """sbappend the payload into the receive buffer.

        The mbufs were conceptually produced by the driver's reassembly;
        the allocation cost is part of the driver receive span, so no
        extra time is charged here.
        """
        use_clusters = len(data) > 1024
        chain, _cost = self.host.pool.build_chain(data, use_clusters)
        if lineage is not None:
            # Tag the receive-buffer mbufs with the segment's record so
            # the read syscall can name the segments it delivers.
            for mbuf in chain.mbufs:
                mbuf.lineage = lineage
        try:
            self.socket.so_rcv.append(chain)
        except SockBufError:
            # sbappend refused the chain (receive buffer overflow):
            # release it, or the mbufs leak — callers treat the failure
            # like a dropped segment and let the peer retransmit.
            self.host.pool.free_chain(chain)
            raise
        self.stats.bytes_received += len(data)

    def _note_delack(self) -> None:
        """BSD's ack-every-other-segment rule."""
        if not self._config.delayed_ack:
            self.ack_now = True
            return
        if self.delack_pending:
            self.ack_now = True
            self.delack_pending = False
        else:
            self.delack_pending = True

    # ------------------------------------------------------------------
    # Close / teardown
    # ------------------------------------------------------------------
    def usr_close(self, priority: int = Priority.KERNEL) -> Generator:
        """User close: send FIN once buffered data drains."""
        if self.state in (TCPState.CLOSED, TCPState.LISTEN):
            self._close_now()
            return
        if self.state is TCPState.SYN_SENT:
            self._close_now()
            return
        self.fin_pending = True
        yield from self.output(priority)
        self.end_output_call()

    def _enter_time_wait(self) -> None:
        self.state = TCPState.TIME_WAIT
        self._flow_sample("time-wait")
        self._cancel_rtx_timer()
        msl_ns = us(self._config.rtx_timeout_us)  # 2MSL ~ 2 * RTO here
        self._time_wait_timer = self.host.sim.schedule(
            2 * msl_ns, self._close_now)

    def _close_now(self) -> None:
        self.state = TCPState.CLOSED
        self._flow_sample("closed")
        self._cancel_rtx_timer()
        self._cancel_delack_timer()
        self._cancel_persist_timer()
        if self._time_wait_timer is not None:
            self._time_wait_timer.cancel()
            self._time_wait_timer = None
        self.host.tcp.connection_closed(self)

    def _drop_connection(self, error: TCPError) -> None:
        self.error = error
        self.socket.error = error
        self.socket.eof = True
        if not self.established_event.triggered:
            self.established_event.fail(error)
        self._close_now()

    def _wake_all(self, priority: int) -> Generator:
        yield from self.host.scheduler.wakeup(self.socket.rcv_channel,
                                              priority)
        yield from self.host.scheduler.wakeup(self.socket.snd_channel,
                                              priority)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    # Each armed timer is one engine callback, held in its _*_timer
    # handle until it fires or is cancelled.  Re-arming the retransmit
    # timer on an ACK is a cancel plus a fresh schedule; the goldens pin
    # that event order.
    def _start_rtx_timer(self) -> None:
        if self._rtx_timer is not None:
            return
        self._cancel_persist_timer()
        delay = us(self.rto_us) << min(self._rtx_shift, 6)
        delay = min(delay, us(self._config.max_rto_us))
        self._rtx_timer = self.host.sim.schedule(delay, self._rtx_fire)

    def _cancel_rtx_timer(self) -> None:
        if self._rtx_timer is not None:
            self._rtx_timer.cancel()
            self._rtx_timer = None

    def _manage_rtx_after_ack(self) -> None:
        self._rtx_shift = 0
        self._cancel_rtx_timer()
        if self.snd_una != self.snd_max:
            self._start_rtx_timer()

    def _ack_advanced(self, ack: int) -> None:
        """Bookkeeping common to both ACK paths once new data is acked:
        snd_nxt resync, RTT sampling, congestion-window growth, persist
        cancellation."""
        if seq_lt(self.snd_nxt, self.snd_una):
            # An ACK overtook a retransmission in progress (we had
            # pulled snd_nxt back to snd_una).  Without this resync the
            # next *new* data would be sent at a stale sequence number
            # — BSD's exact `if (SEQ_LT(tp->snd_nxt, tp->snd_una))`
            # fix-up in tcp_input.
            self.snd_nxt = self.snd_una
        if (self._rtt_seq is not None
                and seq_geq(ack, self._rtt_seq)):
            self._record_rtt_sample()
        if self._config.congestion_control:
            if self.snd_cwnd < self.snd_ssthresh:
                self.snd_cwnd += self.t_maxseg  # slow start
            else:
                self.snd_cwnd += max(
                    1, self.t_maxseg * self.t_maxseg // self.snd_cwnd)
            self.snd_cwnd = min(self.snd_cwnd, 0xFFFF)
        self._cancel_persist_timer()
        self._flow_sample("ack")

    # ------------------------------------------------------------------
    # RTT estimation (Van Jacobson + Karn)
    # ------------------------------------------------------------------
    def _record_rtt_sample(self) -> None:
        assert self._rtt_start_ns is not None
        sample_us = (self.host.sim.now - self._rtt_start_ns) / 1000.0
        self._rtt_seq = None
        self._rtt_start_ns = None
        if not self._config.rtt_estimation:
            return
        self.rtt_samples += 1
        if self.srtt_us is None:
            self.srtt_us = sample_us
            self.rttvar_us = sample_us / 2.0
        else:
            delta = sample_us - self.srtt_us
            self.srtt_us += delta / 8.0
            self.rttvar_us += (abs(delta) - self.rttvar_us) / 4.0
        self.rto_us = min(
            max(self.srtt_us + 4.0 * self.rttvar_us,
                self._config.min_rto_us),
            self._config.max_rto_us,
        )
        self._flow_sample("rtt-sample")

    def _discard_rtt_sample(self) -> None:
        """Karn's rule: a retransmission invalidates the pending sample
        (the eventual ACK would be ambiguous)."""
        self._rtt_seq = None
        self._rtt_start_ns = None

    def _sanitize_timer_fire(self, name: str) -> None:
        """Timer sanitizer: flag callbacks firing on a closed connection.

        ``_close_now`` cancels every timer, so a fire after CLOSED means
        a cancellation path was missed — the class of bug that becomes a
        crash (or a retransmission of freed mbufs) on a real kernel.
        Detection only: behaviour is unchanged so sanitized runs stay
        byte-identical.
        """
        if self.state is not TCPState.CLOSED:
            return
        sanitizer = self.host.pool.sanitizer
        if sanitizer is not None:
            sanitizer.record_timer_violation(
                f"{name} timer fired on closed connection {self!r}")

    def _rtx_fire(self) -> None:
        self._rtx_timer = None
        self._sanitize_timer_fire("rexmt")
        self._rtx_shift += 1
        self.stats.rtx_shift_max = max(self.stats.rtx_shift_max,
                                       self._rtx_shift)
        if self._rtx_shift > MAX_RTX_SHIFT:
            self._drop_connection(
                ConnectionTimedOut("retransmission limit reached"))
            self.host.sim.process(
                self._wake_all(Priority.SOFT_INTR), name="tcp-drop-wake")
            return
        self._discard_rtt_sample()  # Karn's rule
        if self._config.congestion_control and self.state.synchronized:
            # Timeout: halve the pipe estimate and restart slow start.
            flight = min(self.snd_cwnd, self.snd_wnd or self.snd_cwnd)
            self.snd_ssthresh = max(2 * self.t_maxseg, flight // 2)
            self.snd_cwnd = self.t_maxseg
        self._flow_sample("rexmt")
        self.host.sim.process(self._under_splnet(self._retransmit()),
                              name="tcp-rtx")

    def _under_splnet(self, body) -> Generator:
        """Run a timer-driven protocol section under the splnet mutex."""
        ev = self.host.splnet.acquire(wait=True)
        if ev is not None:
            yield ev
        try:
            yield from body
        finally:
            self.host.splnet.release()

    def _retransmit(self) -> Generator:
        if self.state is TCPState.SYN_SENT:
            options = TCPOptions(
                mss=self.local_mss(),
                alt_checksum=(ALT_CKSUM_NONE if self.checksum_off_requested
                              else None))
            yield from self._send_control(TCPFlags.SYN, seq=self.iss,
                                          options=options,
                                          priority=Priority.SOFT_INTR)
            self._start_rtx_timer()
            return
        if self.state is TCPState.SYN_RECEIVED:
            options = TCPOptions(
                mss=self.local_mss(),
                alt_checksum=(ALT_CKSUM_NONE if self._grant_no_checksum
                              else None))
            yield from self._send_control(
                TCPFlags.SYN | TCPFlags.ACK, seq=self.iss, options=options,
                priority=Priority.SOFT_INTR)
            self._start_rtx_timer()
            return
        if not self.state.synchronized:
            return
        # Go back to snd_una and resend.
        self.snd_nxt = self.snd_una
        if self.fin_sent:
            self.fin_sent = False  # resend FIN with the data
        yield from self.output(Priority.SOFT_INTR)
        self.end_output_call()
        self._start_rtx_timer()

    def _start_persist_timer(self) -> None:
        if self._persist_timer is not None:
            return
        self._persist_timer = self.host.sim.schedule(
            us(self._config.persist_timeout_us), self._persist_fire)

    def _cancel_persist_timer(self) -> None:
        if self._persist_timer is not None:
            self._persist_timer.cancel()
            self._persist_timer = None

    def _persist_fire(self) -> None:
        self._persist_timer = None
        self._sanitize_timer_fire("persist")
        if (self.snd_wnd > 0 or self.socket.so_snd.cc == 0
                or not self.state.can_send_data):
            return

        def probe():
            self.t_force = True
            self.stats.persist_probes += 1
            self._flow_sample("persist")
            yield from self.output(Priority.SOFT_INTR)
            self.end_output_call()
            self._start_persist_timer()

        self.host.sim.process(self._under_splnet(probe()),
                              name="tcp-persist")

    # ------------------------------------------------------------------
    # Receiver window updates
    # ------------------------------------------------------------------
    def window_update(self, priority: int = Priority.KERNEL) -> Generator:
        """Called after the application drains the receive buffer: send
        a window-update ACK if the window opened significantly (BSD: by
        two segments or half the buffer)."""
        if not self.state.synchronized:
            return
        space = self.socket.so_rcv.space
        opened = space - self.last_adv_wnd
        if opened >= 2 * self.t_maxseg or \
                opened >= self.socket.so_rcv.hiwat // 2:
            self.ack_now = True
            yield from self.output(priority)
            self.end_output_call()

    def _start_delack_timer(self) -> None:
        if self._delack_timer is not None:
            return
        self._delack_timer = self.host.sim.schedule(
            us(self._config.delack_timeout_us), self._delack_fire)

    def _cancel_delack_timer(self) -> None:
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None

    def _delack_fire(self) -> None:
        self._delack_timer = None
        self._sanitize_timer_fire("delack")
        if not self.delack_pending:
            return
        self.delack_pending = False
        self.ack_now = True
        self.stats.delayed_acks_fired += 1

        def send_ack():
            yield from self.output(Priority.SOFT_INTR)
            self.end_output_call()

        self.host.sim.process(self._under_splnet(send_ack()),
                              name="tcp-delack")

    def __repr__(self) -> str:
        return (f"<TCPConnection {self.host.name} {self.state.value} "
                f"snd_una={self.snd_una} snd_nxt={self.snd_nxt} "
                f"rcv_nxt={self.rcv_nxt}>")
