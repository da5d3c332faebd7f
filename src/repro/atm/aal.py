"""ATM AAL3/4 segmentation and reassembly.

The FORE TCA-100 path in the paper uses the Class 3/4 ATM Adaptation
Layer: the CPCS wraps the datagram in an 8-byte header+trailer (with a
length field), and the SAR sublayer splits the result into cells
carrying 44 payload bytes each, protected by a per-cell CRC-10 and a
2-byte SAR header / 2-byte trailer inside the 48-byte cell body.

Two levels of fidelity are provided:

* *Arithmetic* (:func:`cells_needed`) — cell counts for cost models and
  wire timing; used on every packet.
* *Functional* (:class:`Aal34Codec`) — real segmentation with real
  CRC-10s, used when fault injection needs real error-detection
  behaviour (``KernelConfig.model_cell_crc``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.checksum.crc import crc10

__all__ = [
    "CELL_SIZE",
    "CELL_PAYLOAD",
    "CPCS_OVERHEAD",
    "cells_needed",
    "Aal34Codec",
    "Cell",
    "ReassemblyError",
]

#: A full ATM cell: 5-byte header + 48-byte body.
CELL_SIZE = 53

#: AAL3/4 SAR payload per cell: 48 - 2 (SAR header) - 2 (SAR trailer).
CELL_PAYLOAD = 44

#: CPCS header + trailer around the datagram.
CPCS_OVERHEAD = 8


class ReassemblyError(Exception):
    """AAL3/4 reassembly failure (CRC, length, missing cells)."""


def cells_needed(pdu_len: int) -> int:
    """Number of cells to carry a *pdu_len*-byte datagram."""
    if pdu_len < 0:
        raise ValueError(f"negative PDU length: {pdu_len}")
    total = pdu_len + CPCS_OVERHEAD
    return max(1, (total + CELL_PAYLOAD - 1) // CELL_PAYLOAD)


class Cell:
    """One SAR cell: 44 payload bytes plus its CRC-10."""

    __slots__ = ("payload", "crc", "index", "last")

    def __init__(self, payload: bytes, crc: int, index: int, last: bool):
        self.payload = payload
        self.crc = crc
        self.index = index
        self.last = last

    def crc_ok(self) -> bool:
        return crc10(self.payload) == self.crc

    def __repr__(self) -> str:
        return f"<Cell #{self.index}{' EOM' if self.last else ''}>"


class Aal34Codec:
    """Functional AAL3/4 segmentation/reassembly with real CRC-10s."""

    @staticmethod
    def segment(pdu: bytes) -> List[Cell]:
        """Wrap *pdu* in CPCS framing and split into SAR cells."""
        length = len(pdu)
        cpcs = (
            bytes([0xAA, 0x00]) + length.to_bytes(2, "big")  # header
            + pdu
            + bytes([0x55, 0x00]) + length.to_bytes(2, "big")  # trailer
        )
        cells: List[Cell] = []
        n = cells_needed(length)
        for i in range(n):
            chunk = cpcs[i * CELL_PAYLOAD:(i + 1) * CELL_PAYLOAD]
            chunk = chunk.ljust(CELL_PAYLOAD, b"\x00")
            cells.append(Cell(chunk, crc10(chunk), i, last=(i == n - 1)))
        return cells

    @staticmethod
    def reassemble(cells: List[Cell]) -> bytes:
        """Check and unwrap a cell train back into the datagram.

        Raises :class:`ReassemblyError` on any CRC failure, missing or
        out-of-order cell, or CPCS length/framing mismatch — the checks
        the TCA-100 AAL performs in hardware.
        """
        if not cells:
            raise ReassemblyError("no cells")
        for i, cell in enumerate(cells):
            if cell.index != i:
                raise ReassemblyError(
                    f"cell sequence error at {i} (got {cell.index})")
            if not cell.crc_ok():
                raise ReassemblyError(f"CRC-10 failure in cell {i}")
        if not cells[-1].last:
            raise ReassemblyError("missing end-of-message cell")
        body = b"".join(cell.payload for cell in cells)
        if len(body) < CPCS_OVERHEAD:
            raise ReassemblyError("short CPCS PDU")
        if body[0] != 0xAA:
            raise ReassemblyError("bad CPCS header tag")
        length = int.from_bytes(body[2:4], "big")
        pdu = body[4:4 + length]
        if len(pdu) != length:
            raise ReassemblyError("CPCS length exceeds received data")
        trailer = body[4 + length:4 + length + 4]
        if len(trailer) < 4 or trailer[0] != 0x55:
            raise ReassemblyError("bad CPCS trailer tag")
        if int.from_bytes(trailer[2:4], "big") != length:
            raise ReassemblyError("CPCS header/trailer length mismatch")
        return pdu
