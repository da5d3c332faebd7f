"""The Internet (RFC 1071) 16-bit one's-complement checksum.

This is a *functional* implementation: the simulated TCP/IP stack
computes real checksums over real packet bytes, so corrupted data is
actually detected (or missed) the way the real protocol would detect
(or miss) it.  The *time cost* of checksumming on the modelled 1994
hardware is a separate concern, handled by :mod:`repro.hw.costs`.

The key property the paper's integrated copy+checksum relies on is that
partial sums over chunks of a packet can be combined later — including
chunks that start at odd offsets, whose byte-swapped contribution must
be corrected when combining (RFC 1071 §2B).
"""

from __future__ import annotations

import struct
from typing import Iterable, Tuple, Union

__all__ = [
    "raw_sum",
    "fold",
    "byte_swap16",
    "combine",
    "internet_checksum",
]

Buffer = Union[bytes, bytearray, memoryview]

#: numpy, imported on the first large-buffer sum.  Deferring it keeps
#: ``import repro`` (and every short CLI/test run) off the ~0.2 s numpy
#: startup cost; the per-call indirection is noise next to the ~3 µs
#: the vectorized path already pays in call overhead.
_np = None


def _numpy():
    global _np
    if _np is None:
        import numpy
        _np = numpy
    return _np


#: Below this many bytes, a struct.unpack_from + sum() beats the numpy
#: call overhead (~3 µs per frombuffer/sum pair); above it, the
#: vectorized path wins by an order of magnitude.  The small path
#: covers the stack's hottest callers — 20–40-byte TCP/IP headers and
#: 108-byte normal-mbuf partial sums — while full-segment and cluster
#: checksums stay on numpy.  Both paths are bit-identical.
_SMALL_BUFFER = 256

#: Precomputed big-endian word formats for the small path (avoids
#: building a format string per call).
_WORD_FMT = tuple(">%dH" % i for i in range(_SMALL_BUFFER // 2 + 1))


def raw_sum(data: Buffer) -> int:
    """The unfolded 16-bit-word sum of *data* (big-endian words).

    An odd trailing byte is padded with a zero byte on the right, as if
    the buffer were extended — the standard convention.
    """
    n = len(data)
    if n == 0:
        return 0
    if n < _SMALL_BUFFER:
        words = n >> 1
        total = sum(struct.unpack_from(_WORD_FMT[words], data)) \
            if words else 0
        if n & 1:
            total += data[n - 1] << 8
        return total
    np = _numpy()
    view = memoryview(data)
    even = n & ~1
    words = np.frombuffer(view[:even], dtype=">u2")
    total = int(words.sum(dtype=np.uint64))
    if n & 1:
        total += view[n - 1] << 8
    return total


def fold(total: int) -> int:
    """Fold a raw sum into 16 bits with end-around carry."""
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def byte_swap16(value16: int) -> int:
    """Swap the bytes of a folded 16-bit sum.

    A chunk summed as if it started on an even boundary, but actually
    located at an odd offset in the packet, contributes its byte-swapped
    sum (RFC 1071 §2B).
    """
    value16 &= 0xFFFF
    return ((value16 << 8) | (value16 >> 8)) & 0xFFFF


def combine(parts: Iterable[Tuple[int, int]]) -> int:
    """Combine ``(raw_sum, byte_length)`` chunk sums into one raw sum.

    Chunks must be given in packet order; each chunk's sum is the value
    :func:`raw_sum` returned for its bytes considered in isolation.
    Chunks beginning at an odd absolute offset are byte-swapped before
    being added, which is exactly the fix-up the paper's socket-layer
    partial checksums must perform.
    """
    offset = 0
    total = 0
    for part_sum, length in parts:
        if offset & 1:
            total += byte_swap16(fold(part_sum))
        else:
            total += part_sum
        offset += length
    return total


def internet_checksum(data: Buffer) -> int:
    """The Internet checksum of *data*: one's complement of the folded sum."""
    return ~fold(raw_sum(data)) & 0xFFFF
