"""Checksums: functional Internet checksum, CRCs, and §4.1 algorithm models."""

from repro.checksum.algorithms import (
    Bcopy,
    IntegratedCopyChecksum,
    OptimizedChecksum,
    UltrixChecksum,
    separate_copy_and_checksum_ns,
)
from repro.checksum.crc import crc10, crc10_check, crc32
from repro.checksum.internet import (
    byte_swap16,
    combine,
    fold,
    internet_checksum,
    raw_sum,
)

__all__ = [
    "Bcopy",
    "IntegratedCopyChecksum",
    "OptimizedChecksum",
    "UltrixChecksum",
    "byte_swap16",
    "combine",
    "crc10",
    "crc10_check",
    "crc32",
    "fold",
    "internet_checksum",
    "raw_sum",
    "separate_copy_and_checksum_ns",
]
