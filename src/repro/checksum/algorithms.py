"""The checksum / copy algorithm variants studied in §4.1.

Each variant pairs the *functional* result (a real checksum and/or a
real copy of the bytes) with the *modelled cost* of running it on a
given machine.  The four variants are exactly the columns of Table 5:

* ``UltrixChecksum``   — halfword loads, no unrolling (ULTRIX 4.2A).
* ``OptimizedChecksum``— word loads + loop unrolling.
* ``Bcopy``            — plain memory-to-memory copy.
* ``IntegratedCopyChecksum`` — one loop that copies and sums together,
  eliminating one pass over the memory bus.

The functional inner loops all route through
:func:`repro.checksum.internet.raw_sum`, which vectorizes through
numpy above a small-buffer threshold and a C-level ``struct`` unpack
below it — the *modelled* cycle costs (:mod:`repro.hw.costs`) are
untouched, and the outputs are bit-identical either way.
"""

from __future__ import annotations

from typing import Tuple, Union

from repro.checksum.internet import raw_sum
from repro.hw.costs import LinearCost, MachineCosts

__all__ = [
    "UltrixChecksum",
    "OptimizedChecksum",
    "Bcopy",
    "IntegratedCopyChecksum",
    "separate_copy_and_checksum_ns",
]

Buffer = Union[bytes, bytearray, memoryview]


class _CostedOp:
    """Shared plumbing: an operation with a linear cost on a machine."""

    def __init__(self, machine: MachineCosts, cost: LinearCost, name: str):
        self.machine = machine
        self.cost = cost
        self.name = name

    def cost_ns(self, nbytes: int) -> int:
        """Modelled running time in nanoseconds for *nbytes*."""
        return self.cost.ns(nbytes)

    def cost_us(self, nbytes: int) -> float:
        """Modelled running time in microseconds for *nbytes*."""
        return self.cost.us_at(nbytes)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} on {self.machine.name}>"


class UltrixChecksum(_CostedOp):
    """The stock ULTRIX 4.2A checksum loop."""

    def __init__(self, machine: MachineCosts):
        super().__init__(machine, machine.cksum_ultrix, "ultrix-cksum")

    def run(self, data: Buffer) -> Tuple[int, int]:
        """Returns ``(raw_sum, cost_ns)``."""
        return raw_sum(data), self.cost_ns(len(data))


class OptimizedChecksum(_CostedOp):
    """Word-at-a-time, unrolled checksum (the §4.1 optimization)."""

    def __init__(self, machine: MachineCosts):
        super().__init__(machine, machine.cksum_optimized, "optimized-cksum")

    def run(self, data: Buffer) -> Tuple[int, int]:
        """Returns ``(raw_sum, cost_ns)``."""
        return raw_sum(data), self.cost_ns(len(data))


class Bcopy(_CostedOp):
    """Plain memory copy."""

    def __init__(self, machine: MachineCosts):
        super().__init__(machine, machine.bcopy, "bcopy")

    def run(self, data: Buffer) -> Tuple[bytes, int]:
        """Returns ``(copied_bytes, cost_ns)``."""
        return bytes(data), self.cost_ns(len(data))


class IntegratedCopyChecksum(_CostedOp):
    """Copy and checksum fused into a single pass over the data.

    Functionally it produces both the copied bytes and the raw sum; its
    cost is a single traversal of the memory bus rather than two.
    """

    def __init__(self, machine: MachineCosts):
        super().__init__(machine, machine.copy_cksum_integrated,
                         "integrated-copy-cksum")

    def run(self, data: Buffer) -> Tuple[bytes, int, int]:
        """Returns ``(copied_bytes, raw_sum, cost_ns)``."""
        # Materialize once and sum the copy: a single contiguous
        # buffer feeds the vectorized raw_sum, mirroring the fused
        # loop's one pass over the data.
        copied = bytes(data)
        return copied, raw_sum(copied), self.cost_ns(len(copied))


def separate_copy_and_checksum_ns(machine: MachineCosts, nbytes: int,
                                  optimized: bool = True) -> int:
    """Cost of doing the copy and the checksum as two separate loops.

    This is the baseline the paper compares the integrated loop against
    (Table 5's "Savings When Integrated" column).
    """
    cksum = machine.cksum_optimized if optimized else machine.cksum_ultrix
    return machine.bcopy.ns(nbytes) + cksum.ns(nbytes)
