"""BSD-style mbuf buffer management.

The paper's §2.2.1 behaviour we must reproduce:

* Normal mbufs hold up to 108 bytes of data; cluster mbufs hold a full
  4 KB page.  The socket layer switches to clusters once a transfer
  exceeds 1 KB — the cause of the non-linearity between the 500- and
  1400-byte rows of Table 2.
* Copying a chain of normal mbufs (``m_copy``) allocates new mbufs and
  copies the data; copying cluster mbufs only bumps a reference count.
  TCP copies the socket-buffer chain on every transmit to keep data for
  retransmission, so this asymmetry shows up directly in the "mcopy"
  row.
* Allocating and freeing an mbuf (either type) costs just over 7 µs.

Data here is *real*: an mbuf stores actual bytes, and chains serialize
to the exact byte sequence that gets checksummed and put on the wire.
"""

from __future__ import annotations

from sys import getrefcount as _refcount
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Tuple, Union

from repro.mem.sanitize import MbufProvenance, MbufSanitizer, sanitize_enabled
import repro.perf.native as _native_dispatch
from repro.sim.engine import us as _us

if TYPE_CHECKING:
    from repro.hw.costs import MachineCosts

#: Compiled chain helpers (repro._native._corec) or None; selected once
#: at import time by repro.perf.native.  Byte-identical to the pure
#: branches below, including use-after-free and bounds error messages.
_NATIVE = _native_dispatch.lib

__all__ = [
    "MBUF_DATA_SIZE",
    "MCLBYTES",
    "CLUSTER_THRESHOLD",
    "Mbuf",
    "ClusterStorage",
    "MbufChain",
    "MbufPool",
    "MbufError",
    "MbufExhausted",
]

#: Data bytes in a normal mbuf (paper §2.2.1: "normal mbufs hold only
#: 108 bytes of data").
MBUF_DATA_SIZE = 108

#: Cluster mbuf data size: one memory page.
MCLBYTES = 4096

#: The ULTRIX 4.2A socket layer switches to cluster mbufs once the
#: transfer size grows above 1 KB (§2.2.1).
CLUSTER_THRESHOLD = 1024

Buffer = Union[bytes, bytearray, memoryview]


class MbufError(Exception):
    """Mbuf misuse (double free, over-capacity store, ...)."""


if _NATIVE is not None:
    _NATIVE.mbuf_install(MbufError)


class MbufExhausted(MbufError):
    """Allocation denied: the pool's capacity limit is reached.

    This is the simulated kernel's ENOBUFS: real BSD ``MGET`` fails
    once ``mbstat.m_mbufs`` hits the map limit, ``tcp_output`` returns
    ENOBUFS, drivers drop the incoming datagram, and ``sosend`` blocks
    in ``m_wait``.  Callers on those paths catch this and recover; a
    pool with no ``limit`` configured (the default) never raises it.
    """


class ClusterStorage:
    """A reference-counted 4 KB page shared by cluster mbufs."""

    __slots__ = ("data", "refs")

    def __init__(self, data: bytes):
        if len(data) > MCLBYTES:
            raise MbufError(
                f"cluster data {len(data)} exceeds MCLBYTES {MCLBYTES}"
            )
        self.data = data
        self.refs = 1

    def ref(self) -> "ClusterStorage":
        self.refs += 1
        return self

    def unref(self) -> bool:
        """Drop one reference; True when the storage is now dead."""
        if self.refs <= 0:
            raise MbufError("cluster storage over-released")
        self.refs -= 1
        return self.refs == 0


class Mbuf:
    """One mbuf: either normal (owns ≤108 B) or cluster (shares a page).

    ``partial_sum`` is the paper's §4.1.1 transmit-side optimization: the
    socket layer stores the raw Internet-checksum sum of this mbuf's data
    in the mbuf header while copying it in, for TCP to combine later.
    """

    __slots__ = ("_data", "cluster", "partial_sum", "freed", "lineage",
                 "san")

    def __init__(self, data: Buffer = b"",
                 cluster: Optional[ClusterStorage] = None) -> None:
        if cluster is not None:
            self._data = None
            self.cluster = cluster
        else:
            if len(data) > MBUF_DATA_SIZE:
                raise MbufError(
                    f"{len(data)} bytes exceed normal mbuf capacity "
                    f"{MBUF_DATA_SIZE}"
                )
            self._data = bytes(data)
            self.cluster = None
        self.partial_sum: Optional[Tuple[int, int]] = None
        self.freed = False
        #: Causal lineage tag (repro.obs.lineage record), duck-typed;
        #: None on every unobserved run.  Propagated by m_copy so TCP's
        #: retransmission copy keeps the originating write's identity.
        self.lineage: Any = None
        #: Sanitizer provenance (repro.mem.sanitize.MbufProvenance):
        #: allocation site + generation, filled in by a sanitizing pool;
        #: None on every non-sanitized run.
        self.san: Optional[MbufProvenance] = None

    @property
    def is_cluster(self) -> bool:
        return self.cluster is not None

    @property
    def data(self) -> bytes:
        if self.freed:
            if self.san is not None:
                raise MbufError(f"use after free: {self.san.describe()}")
            raise MbufError("use after free")
        if self.cluster is not None:
            return self.cluster.data
        return self._data  # type: ignore[return-value]

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        kind = "cluster" if self.is_cluster else "mbuf"
        return f"<{kind} len={len(self)}>"


class MbufChain:
    """An ordered chain of mbufs holding one logical run of bytes."""

    __slots__ = ("mbufs",)

    def __init__(self, mbufs: Optional[Iterable[Mbuf]] = None):
        self.mbufs: List[Mbuf] = list(mbufs) if mbufs else []

    @property
    def length(self) -> int:
        """Total data bytes across the chain."""
        if _NATIVE is not None:
            return _NATIVE.chain_length(self.mbufs)  # type: ignore[no-any-return]
        return sum(len(m) for m in self.mbufs)

    @property
    def mbuf_count(self) -> int:
        return len(self.mbufs)

    @property
    def cluster_count(self) -> int:
        return sum(1 for m in self.mbufs if m.is_cluster)

    def to_bytes(self) -> bytes:
        """The chain's contents as one contiguous byte string."""
        if _NATIVE is not None:
            return _NATIVE.chain_to_bytes(self.mbufs)  # type: ignore[no-any-return]
        return b"".join(m.data for m in self.mbufs)

    def append(self, mbuf: Mbuf) -> None:
        self.mbufs.append(mbuf)

    def extend(self, other: "MbufChain") -> None:
        self.mbufs.extend(other.mbufs)

    def slice_bytes(self, offset: int, length: int) -> bytes:
        """Bytes ``[offset, offset+length)`` of the chain's contents."""
        if _NATIVE is not None:
            return _NATIVE.chain_slice(  # type: ignore[no-any-return]
                self.mbufs, offset, length)
        if offset < 0 or length < 0 or offset + length > self.length:
            raise MbufError(
                f"slice [{offset}:{offset + length}] outside chain "
                f"of {self.length} bytes"
            )
        return self.to_bytes()[offset:offset + length]

    def mbufs_spanning(self, offset: int, length: int) -> List[Tuple[Mbuf, int, int]]:
        """The mbufs overlapping ``[offset, offset+length)``.

        Returns ``(mbuf, start_within_mbuf, bytes_taken)`` triples; used
        by TCP both for the retransmission copy and to decide whether the
        stored partial checksums cover a segment exactly.
        """
        if _NATIVE is not None:
            return _NATIVE.chain_spans(  # type: ignore[no-any-return]
                self.mbufs, offset, length)
        if offset < 0 or length < 0 or offset + length > self.length:
            raise MbufError("span outside chain")
        result = []
        pos = 0
        remaining = length
        for m in self.mbufs:
            mlen = len(m)
            if remaining == 0:
                break
            if pos + mlen <= offset:
                pos += mlen
                continue
            start = max(0, offset - pos)
            take = min(mlen - start, remaining)
            result.append((m, start, take))
            remaining -= take
            pos += mlen
        return result

    def __repr__(self) -> str:
        return f"<MbufChain {self.mbuf_count} mbufs, {self.length} bytes>"


#: Upper bound on recycled Mbuf headers kept per pool.
_FREE_LIST_MAX = 256


class MbufPool:
    """The mbuf allocator, with §2.2.1's cost model and usage statistics.

    The pool is pure bookkeeping: it returns the *cost* of each operation
    in nanoseconds and the caller (simulated kernel code) charges that
    time to the CPU.  This keeps the data structures synchronous and
    easily testable.

    Freed mbuf *headers* are recycled on a free list instead of being
    reallocated — a host-level optimization that cuts Python allocation
    churn on the socket-buffer hot path (``sbdrop`` after ACKs,
    ``free_chain`` on received segments).  The *modelled* alloc/free
    cycle costs are unchanged: the paper's machine never had a free
    Python object either way.  A header is only recycled when its
    caller passed in the sole remaining reference, so a stale chain
    that kept an mbuf can never observe its object being reused and
    use-after-free detection still fires for retained references.
    """

    def __init__(self, costs: "MachineCosts", limit: Optional[int] = None,
                 sanitize: Optional[bool] = None) -> None:
        self.costs = costs
        #: Runtime sanitizer (repro.mem.sanitize): allocation-site
        #: provenance, generation counters, poison-on-free, and the
        #: leak-at-quiesce live table.  ``None`` (the default, unless
        #: ``REPRO_SANITIZE=1`` is set) costs one attribute test per
        #: alloc/free; modelled costs never change either way.
        if sanitize is None:
            sanitize = sanitize_enabled()
        self.sanitizer: Optional[MbufSanitizer] = (
            MbufSanitizer() if sanitize else None)
        #: Optional capacity cap in mbufs (normal + cluster alike).
        #: ``None`` (the default) keeps the historical unbounded
        #: behaviour; when set, allocations beyond the cap raise
        #: :class:`MbufExhausted` and bump :attr:`denied`.
        self.limit = limit
        self.allocated = 0
        self.freed = 0
        self.cluster_allocated = 0
        #: Allocations (or admission checks) refused by :attr:`limit`.
        self.denied = 0
        self.high_water = 0
        #: Free-list bookkeeping: headers handed back out instead of
        #: freshly constructed.  An observer publishes ``allocated``,
        #: ``reused`` and ``denied`` as ``mbuf.*`` at collect.
        self.reused = 0
        self._free: List[Mbuf] = []

    @property
    def free_list_depth(self) -> int:
        """Recycled headers currently waiting for reuse (diagnostics)."""
        return len(self._free)

    def _reuse_or_new(self, data: Buffer,
                      cluster: Optional[ClusterStorage]) -> Mbuf:
        free = self._free
        if free:
            mbuf = free.pop()
            if cluster is not None:
                mbuf._data = None  # noqa: SLF001 - pool owns mbufs
                mbuf.cluster = cluster
            else:
                if len(data) > MBUF_DATA_SIZE:
                    free.append(mbuf)
                    raise MbufError(
                        f"{len(data)} bytes exceed normal mbuf capacity "
                        f"{MBUF_DATA_SIZE}"
                    )
                mbuf._data = bytes(data)  # noqa: SLF001
                mbuf.cluster = None
            mbuf.partial_sum = None
            mbuf.freed = False
            # lineage and san are already None: free() clears both
            # before a header enters the free list, and __init__ starts
            # them cleared.
            self.reused += 1
            return mbuf
        return Mbuf(data=data, cluster=cluster)

    @property
    def in_use(self) -> int:
        return self.allocated - self.freed

    # ------------------------------------------------------------------
    # Capacity limit (ENOBUFS)
    # ------------------------------------------------------------------
    def _check_limit(self, extra: int = 1) -> None:
        limit = self.limit
        if limit is not None and self.in_use + extra > limit:
            self.denied += 1
            raise MbufExhausted(
                f"pool limit {limit} reached "
                f"({self.in_use} in use, {extra} requested)")

    def can_admit(self, nbytes: int,
                  use_clusters: Optional[bool] = None) -> bool:
        """Whether a *nbytes* chain fits under the limit right now.

        Pure check — no counters move.  Callers that must not tear
        half-built state down on ENOBUFS (TCP's receive append) test
        this *before* committing.
        """
        limit = self.limit
        if limit is None:
            return True
        if use_clusters is None:
            use_clusters = nbytes > CLUSTER_THRESHOLD
        needed = len(self.chunk_sizes(nbytes, use_clusters))
        return self.in_use + needed <= limit

    def admit(self, nbytes: int,
              use_clusters: Optional[bool] = None) -> bool:
        """Counting admission check for driver receive paths.

        Like :meth:`can_admit`, but a refusal is recorded in
        :attr:`denied` — this is the IF_DROP a real driver takes when
        ``MGET`` fails for an incoming datagram.
        """
        if self.can_admit(nbytes, use_clusters):
            return True
        self.denied += 1
        return False

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, data: Buffer = b"") -> Tuple[Mbuf, int]:
        """Allocate a normal mbuf holding *data*; returns (mbuf, cost_ns)."""
        self._check_limit()
        mbuf = self._reuse_or_new(data, None)
        self._count_alloc(mbuf, cluster=False)
        return mbuf, self.costs.mbuf_alloc_ns()

    def alloc_cluster(self, data: Buffer) -> Tuple[Mbuf, int]:
        """Allocate a cluster mbuf holding *data*; returns (mbuf, cost_ns)."""
        self._check_limit()
        mbuf = self._reuse_or_new(b"", ClusterStorage(bytes(data)))
        self._count_alloc(mbuf, cluster=True)
        return mbuf, self.costs.mbuf_alloc_ns()

    def free(self, mbuf: Mbuf) -> int:
        """Free one mbuf; returns cost_ns.

        The header is recycled onto the free list only when the caller
        handed over the *sole* remaining reference (e.g. popped it off
        a chain first); a header some other chain still points at
        stays live so its ``freed`` flag keeps use-after-free
        detection intact.
        """
        sanitizer = self.sanitizer
        if mbuf.freed:
            if sanitizer is not None:
                raise MbufError(sanitizer.double_free_message(mbuf))
            raise MbufError("double free")
        mbuf.freed = True
        storage_dead = False
        if mbuf.cluster is not None:
            storage_dead = mbuf.cluster.unref()
        self.freed += 1
        if sanitizer is not None:
            sanitizer.note_free(mbuf, storage_dead=storage_dead)
        if _refcount(mbuf) == 2 and len(self._free) < _FREE_LIST_MAX:
            mbuf._data = b""  # noqa: SLF001 - drop data refs eagerly
            mbuf.cluster = None
            mbuf.partial_sum = None
            mbuf.lineage = None
            mbuf.san = None
            self._free.append(mbuf)
        return self.costs.mbuf_free_ns()

    def free_chain(self, chain: MbufChain) -> int:
        """Free every mbuf in *chain*; returns total cost_ns."""
        total = 0
        mbufs = chain.mbufs
        while mbufs:
            # Pop before freeing so the header's last reference is the
            # free() argument and the header is free-list eligible.
            total += self.free(mbufs.pop())
        return total

    def _count_alloc(self, mbuf: Mbuf, cluster: bool) -> None:
        self.allocated += 1
        if cluster:
            self.cluster_allocated += 1
        self.high_water = max(self.high_water, self.in_use)
        if self.sanitizer is not None:
            self.sanitizer.note_alloc(mbuf, cluster=cluster)

    # ------------------------------------------------------------------
    # Chain builders (the socket layer's copyin policy)
    # ------------------------------------------------------------------
    def chunk_sizes(self, total: int, use_clusters: bool) -> List[int]:
        """How the socket layer splits *total* bytes into mbufs."""
        if _NATIVE is not None:
            return _NATIVE.chunk_sizes(  # type: ignore[no-any-return]
                total, MCLBYTES if use_clusters else MBUF_DATA_SIZE)
        if total == 0:
            return [0]
        unit = MCLBYTES if use_clusters else MBUF_DATA_SIZE
        sizes = []
        remaining = total
        while remaining > 0:
            take = min(unit, remaining)
            sizes.append(take)
            remaining -= take
        return sizes

    def build_chain(self, data: Buffer, use_clusters: bool,
                    chunk_sizes: Optional[List[int]] = None,
                    ) -> Tuple[MbufChain, int]:
        """Copy *data* into a fresh chain; returns (chain, alloc_cost_ns).

        Only allocator cost is returned — the *copy* cost depends on the
        copy/checksum mode and is charged by the socket layer.  An
        explicit *chunk_sizes* list overrides the default policy (used
        by the §4.1.1 segment-size-prediction extension); each chunk
        must fit its mbuf type.
        """
        data = bytes(data)
        if chunk_sizes is not None:
            if sum(chunk_sizes) != len(data):
                raise MbufError(
                    f"chunk sizes sum to {sum(chunk_sizes)}, "
                    f"data is {len(data)} bytes")
        else:
            chunk_sizes = self.chunk_sizes(len(data), use_clusters)
        chain = MbufChain()
        cost = 0
        offset = 0
        try:
            for size in chunk_sizes:
                chunk = data[offset:offset + size]
                if (use_clusters or size > MBUF_DATA_SIZE) and size > 0:
                    mbuf, c = self.alloc_cluster(chunk)
                else:
                    mbuf, c = self.alloc(chunk)
                chain.append(mbuf)
                cost += c
                offset += size
        except MbufExhausted:
            # ENOBUFS mid-copy: release the partial chain so the pool's
            # conservation (allocated == freed + in_use) still holds.
            self.free_chain(chain)
            raise
        return chain, cost

    # ------------------------------------------------------------------
    # m_copy (§2.2.1): the TCP transmit-path retransmission copy
    # ------------------------------------------------------------------
    def m_copy(self, chain: MbufChain, offset: int,
               length: int) -> Tuple[MbufChain, int]:
        """Copy ``[offset, offset+length)`` of *chain* into a new chain.

        Normal mbufs: allocate + copy the bytes (charged per byte).
        Cluster mbufs: allocate only an mbuf header and share the page
        via its reference count — no data copy (§2.2.1).

        Returns ``(new_chain, cost_ns)``; the cost is what the paper's
        "mcopy" row measures.
        """
        new_chain = MbufChain()
        cost = _us(self.costs.m_copy_fixed_us)
        try:
            for mbuf, start, take in chain.mbufs_spanning(offset, length):
                if mbuf.is_cluster and start == 0 and take == len(mbuf):
                    # Reference-counted share of the whole page.
                    self._check_limit()
                    shared = Mbuf(cluster=mbuf.cluster.ref())
                    shared.partial_sum = mbuf.partial_sum
                    shared.lineage = mbuf.lineage
                    self._count_alloc(shared, cluster=True)
                    cost += _us(self.costs.cluster_ref_us)
                    new_chain.append(shared)
                elif mbuf.is_cluster:
                    # Partial cluster reference: BSD shares the page and
                    # records an offset; we copy the slice view (the page is
                    # immutable here) but charge only the header allocation.
                    self._check_limit()
                    shared = Mbuf(cluster=ClusterStorage(
                        mbuf.data[start:start + take]))
                    shared.lineage = mbuf.lineage
                    self._count_alloc(shared, cluster=True)
                    cost += _us(self.costs.cluster_ref_us)
                    new_chain.append(shared)
                else:
                    piece = mbuf.data[start:start + take]
                    copied, alloc_cost = self.alloc(piece)
                    copied.partial_sum = (
                        mbuf.partial_sum if start == 0 and take == len(mbuf)
                        else None
                    )
                    copied.lineage = mbuf.lineage
                    cost += alloc_cost
                    cost += self.costs.copy_mbuf_mbuf.ns(take)
                    new_chain.append(copied)
        except MbufExhausted:
            # ENOBUFS mid-copy: tcp_output sees the failure, drops this
            # transmit attempt, and leaves the data for the rexmt timer.
            # Free what we built so mbuf conservation holds.
            self.free_chain(new_chain)
            raise
        return new_chain, cost

    # ------------------------------------------------------------------
    # sbdrop: release acked bytes from the front of a chain
    # ------------------------------------------------------------------
    def drop_front(self, chain: MbufChain, length: int) -> int:
        """Remove *length* bytes from the chain head; returns cost_ns."""
        if length > chain.length:
            raise MbufError(
                f"dropping {length} bytes from {chain.length}-byte chain"
            )
        cost = 0
        remaining = length
        while remaining > 0 and chain.mbufs:
            head_len = len(chain.mbufs[0])
            if head_len <= remaining:
                remaining -= head_len
                # Pop inside the call so free() holds the only
                # reference and can recycle the header.
                cost += self.free(chain.mbufs.pop(0))
            else:
                head = chain.mbufs[0]
                # Trim within the mbuf (no alloc/free).
                keep = head.data[remaining:]
                if head.is_cluster:
                    # Replacing the page with the trimmed slice drops
                    # this header's share of the old storage; without
                    # the unref, a page shared with an m_copy'd chain
                    # (TCP's retransmission copy) never reaches zero
                    # references and the page leaks.
                    old = head.cluster
                    head.cluster = ClusterStorage(keep)
                    assert old is not None
                    old.unref()
                else:
                    head._data = keep  # noqa: SLF001 - pool owns mbufs
                head.partial_sum = None
                remaining = 0
        return cost
