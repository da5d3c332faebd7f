"""Socket buffers (``struct sockbuf``): mbuf chains with flow control."""

from __future__ import annotations

from typing import Optional

from repro.mem.mbuf import MbufChain, MbufPool

__all__ = ["SockBuf", "SockBufError"]


class SockBufError(Exception):
    """Socket-buffer misuse (overflow, underflow)."""


class SockBuf:
    """One direction's buffered data plus its high-water mark.

    :attr:`cc` is BSD's ``sb_cc``: the byte count, kept by
    :meth:`append`, :meth:`drop` and :meth:`flush` (every change to the
    chain goes through them) rather than summed over the chain on each
    read.  The chain holds the actual data.  Sleep channels for
    readers/writers are managed by the owning socket — the sockbuf
    itself is a pure data structure.
    """

    def __init__(self, pool: MbufPool, hiwat: int, name: str = "sockbuf"):
        self.pool = pool
        self.hiwat = hiwat
        self.name = name
        self.chain = MbufChain()
        #: Bytes currently buffered (sb_cc); equal to ``chain.length``.
        self.cc = 0
        self.appends = 0
        self.drops = 0

    @property
    def space(self) -> int:
        """Free space before the high-water mark (sbspace)."""
        return max(0, self.hiwat - self.cc)

    @property
    def empty(self) -> bool:
        return self.cc == 0

    def append(self, chain: MbufChain) -> None:
        """sbappend: add a chain's mbufs to the tail."""
        length = chain.length
        if length > self.space:
            raise SockBufError(
                f"{self.name}: appending {length} bytes into "
                f"{self.space} bytes of space"
            )
        self.chain.extend(chain)
        self.cc += length
        self.appends += 1

    def drop(self, nbytes: int) -> int:
        """sbdrop: release *nbytes* from the head; returns cost_ns."""
        if nbytes > self.cc:
            raise SockBufError(
                f"{self.name}: dropping {nbytes} of {self.cc} bytes"
            )
        self.drops += 1
        cost = self.pool.drop_front(self.chain, nbytes)
        self.cc -= nbytes
        return cost

    def flush(self) -> None:
        """sbflush: release every buffered mbuf (socket teardown).

        Unlike :meth:`drop`, this also frees zero-length mbufs left by
        trimming, so a torn-down socket holds nothing from the pool.
        """
        if self.chain.mbuf_count:
            self.pool.free_chain(self.chain)
            self.chain = MbufChain()
            self.cc = 0
            self.drops += 1

    def peek(self, nbytes: int) -> bytes:
        """The first *nbytes* buffered bytes, without consuming them."""
        take = min(nbytes, self.cc)
        return self.chain.slice_bytes(0, take)

    def mbufs_in_first(self, nbytes: int) -> int:
        """How many mbufs hold the first *nbytes* (for copyout costs)."""
        return len(self.chain.mbufs_spanning(0, min(nbytes, self.cc)))

    def __repr__(self) -> str:
        return f"<SockBuf {self.name} cc={self.cc}/{self.hiwat}>"
