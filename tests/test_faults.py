"""Tests for the fault injector and the §4.2 error-detection layering."""

import pytest

from repro.checksum.crc import crc32
from repro.core.errorstudy import run_error_study
from repro.faults.injector import FaultInjector
from repro.kern.config import ChecksumMode


class TestInjectorBasics:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(p_link=1.5)
        with pytest.raises(ValueError):
            FaultInjector(p_controller=-0.1)
        with pytest.raises(ValueError):
            FaultInjector(bits_per_fault=0)

    def test_zero_probability_never_corrupts(self):
        inj = FaultInjector(seed=1)
        pdu = bytes(range(200))
        for _ in range(50):
            out, fault = inj.apply_link(pdu)
            assert out == pdu and fault is None
            out, tag = inj.apply_controller(pdu)
            assert out == pdu and tag is None

    def test_controller_corruption_changes_bytes(self):
        inj = FaultInjector(seed=2, p_controller=1.0)
        pdu = bytes(200)
        out, tag = inj.apply_controller(pdu)
        assert tag == "controller"
        assert out != pdu
        assert len(out) == len(pdu)

    def test_deterministic_given_seed(self):
        a = FaultInjector(seed=42, p_controller=0.5)
        b = FaultInjector(seed=42, p_controller=0.5)
        pdu = bytes(100)
        for _ in range(20):
            assert a.apply_controller(pdu) == b.apply_controller(pdu)


class TestLinkStageDetection:
    def test_atm_link_errors_usually_caught_by_crc10(self):
        inj = FaultInjector(seed=3, p_link=1.0)
        pdu = bytes(range(256)) * 2
        caught = 0
        for _ in range(40):
            _, fault = inj.apply_link(pdu)
            assert fault is not None
            if fault.detected_by_link_check:
                caught += 1
        # Single-bit flips in payload or CRC are always caught by a real
        # CRC-10 (flips in padding are the only silent case).
        assert caught >= 35

    def test_ethernet_link_errors_caught_by_fcs(self):
        inj = FaultInjector(seed=4, p_link=1.0)
        frame = bytes(range(200))
        for _ in range(20):
            _, fault = inj.apply_link(frame, frame_check=crc32)
            assert fault is not None and fault.detected_by_link_check

    def test_gateway_errors_not_caught_by_link_check(self):
        inj = FaultInjector(seed=5, p_gateway=1.0)
        pdu = bytes(300)
        out, fault = inj.apply_link(pdu)
        assert fault is not None
        assert fault.source == "gateway"
        assert not fault.detected_by_link_check
        assert out != pdu


class TestErrorStudyLayering:
    """The paper's §4.2 argument, reproduced end to end."""

    def test_link_errors_stop_at_aal_crc(self):
        r = run_error_study(size=500, iterations=25, p_link=0.25, seed=11)
        assert r.injected_link > 0
        assert r.caught_by_link_check >= r.injected_link - 1
        assert r.caught_by_tcp_checksum == 0
        assert r.caught_by_application == 0
        assert r.retransmissions >= 1  # recovery really happened

    def test_controller_errors_need_the_tcp_checksum(self):
        r = run_error_study(size=500, iterations=25, p_controller=0.2,
                            seed=12)
        assert r.injected_controller > 0
        assert r.caught_by_link_check == 0
        assert r.caught_by_tcp_checksum > 0
        assert r.caught_by_application == 0

    def test_ethernet_controller_errors_need_the_tcp_checksum(self):
        """The controller stage sits after the FCS check on Ethernet
        too: the frame's CRC cannot see it, only TCP's checksum can."""
        r = run_error_study(size=500, iterations=25, p_controller=0.2,
                            network="ethernet", seed=12)
        assert r.injected_controller > 0
        assert r.caught_by_link_check == 0
        assert r.caught_by_tcp_checksum > 0
        assert r.caught_by_application == 0

    def test_gateway_errors_need_the_tcp_checksum(self):
        r = run_error_study(size=500, iterations=25, p_gateway=0.2,
                            seed=13)
        assert r.injected_gateway > 0
        assert r.caught_by_link_check == 0
        assert r.caught_by_tcp_checksum > 0

    def test_without_checksum_application_is_last_line(self):
        r = run_error_study(size=500, iterations=25, p_controller=0.15,
                            checksum_mode=ChecksumMode.OFF, seed=14)
        assert r.injected_controller > 0
        # Handshake (control) segments remain checksummed until the
        # no-checksum option takes effect, so at most the rare hit on a
        # SYN/SYN|ACK is caught by TCP; data corruption is not.
        assert r.caught_by_tcp_checksum <= 2
        # Corruption reached the application (or corrupted headers got
        # dropped and retransmitted); nothing below TCP saw it.
        assert r.caught_by_application + r.undetected > 0

    def test_local_area_clean_link_sees_no_errors(self):
        """The paper's key observation: without wide-area (gateway)
        traffic and with a quiet fiber, TCP detects no errors at all."""
        r = run_error_study(size=1400, iterations=20, seed=15)
        assert r.total_injected == 0
        assert r.caught_by_tcp_checksum == 0
        assert r.caught_by_application == 0
