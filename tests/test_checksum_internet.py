"""Unit + property tests for the functional Internet checksum."""

import struct

from hypothesis import given, strategies as st

from repro.checksum import (
    byte_swap16,
    combine,
    fold,
    internet_checksum,
    raw_sum,
)


def reference_checksum(data: bytes) -> int:
    """Straightforward RFC 1071 reference implementation."""
    if len(data) % 2:
        data = data + b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


class TestRawSumAndFold:
    def test_empty(self):
        assert raw_sum(b"") == 0
        assert internet_checksum(b"") == 0xFFFF

    def test_single_byte_pads_right(self):
        assert raw_sum(b"\xab") == 0xAB00

    def test_simple_words(self):
        assert raw_sum(b"\x00\x01\x00\x02") == 3

    def test_fold_end_around_carry(self):
        assert fold(0x1FFFE) == 0xFFFF
        assert fold(0x10000) == 1
        assert fold(0xFFFF) == 0xFFFF
        assert fold(0) == 0

    def test_known_rfc1071_example(self):
        # RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2 (before ~)
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert fold(raw_sum(data)) == 0xDDF2
        assert internet_checksum(data) == (~0xDDF2) & 0xFFFF

    @given(st.binary(max_size=512))
    def test_matches_reference(self, data):
        assert internet_checksum(data) == reference_checksum(data)


class TestVerify:
    @given(st.binary(min_size=2, max_size=256).filter(lambda b: len(b) % 2 == 0))
    def test_packet_with_embedded_checksum_verifies(self, payload):
        # Real protocols place the checksum at an even offset; with the
        # checksum word appended at an odd offset the sum would not fold
        # to 0xFFFF (one's-complement sums are offset-parity sensitive).
        cksum = internet_checksum(payload)
        packet = payload + struct.pack(">H", cksum)
        assert internet_checksum(packet) == 0

    def test_corruption_detected(self):
        payload = bytes(range(100))
        cksum = internet_checksum(payload)
        packet = bytearray(payload + struct.pack(">H", cksum))
        packet[10] ^= 0x40
        assert internet_checksum(bytes(packet)) != 0

    def test_swapped_aligned_words_not_detected(self):
        # The classic weakness: one's-complement sums are order-blind,
        # so swapping two aligned 16-bit words goes unnoticed.
        payload = bytearray(bytes(range(64)))
        cksum = internet_checksum(bytes(payload))
        payload[0:2], payload[2:4] = payload[2:4], payload[0:2]
        packet = bytes(payload) + struct.pack(">H", cksum)
        assert internet_checksum(packet) == 0


class TestPartialCombination:
    def test_byte_swap16(self):
        assert byte_swap16(0x1234) == 0x3412
        assert byte_swap16(0xFF00) == 0x00FF

    @given(st.binary(max_size=300), st.binary(max_size=300))
    def test_two_chunk_combine_matches_whole(self, a, b):
        whole = fold(raw_sum(a + b))
        combined = fold(combine([(raw_sum(a), len(a)), (raw_sum(b), len(b))]))
        assert combined == whole

    @given(st.lists(st.binary(max_size=64), max_size=8))
    def test_many_chunk_combine_matches_whole(self, chunks):
        whole = fold(raw_sum(b"".join(chunks)))
        parts = [(raw_sum(c), len(c)) for c in chunks]
        assert fold(combine(parts)) == whole

    def test_odd_offset_chunk_is_byte_swapped(self):
        a, b = b"\x01", b"\x02\x03"
        # Whole buffer 01 02 03 -> words 0102, 0300.
        assert fold(raw_sum(a + b)) == fold(0x0102 + 0x0300)
        combined = fold(combine([(raw_sum(a), 1), (raw_sum(b), 2)]))
        assert combined == fold(raw_sum(a + b))
