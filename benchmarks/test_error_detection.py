"""§4.2.1: the error-detection layering experiment.

The paper's argument for optional checksum elimination on local ATM:

* link errors are caught by the AAL3/4 CRCs (end-to-end across
  switches);
* TCP detects orders of magnitude fewer errors than the link CRC once
  wide-area (gateway) traffic is excluded — and none at all on purely
  local traffic;
* applications with their own integrity checks lose nothing.

Regenerated with real bit flips against real CRC-10 / Internet-checksum
implementations.
"""

from repro.core.errorstudy import run_error_study
from repro.core.report import format_table
from repro.kern.config import ChecksumMode


def test_error_detection_layering():
    def run():
        scenarios = {}
        scenarios["local+link-noise"] = run_error_study(
            size=1400, iterations=40, p_link=0.15, seed=101)
        scenarios["wide-area-mix"] = run_error_study(
            size=1400, iterations=40, p_link=0.05, p_gateway=0.15,
            seed=102)
        scenarios["local-clean"] = run_error_study(
            size=1400, iterations=40, seed=103)
        return scenarios

    scen = run()

    rows = []
    for name, r in scen.items():
        rows.append((name, r.total_injected, r.caught_by_link_check,
                     r.caught_by_tcp_checksum, r.caught_by_application))
    print()
    print(format_table(
        "Error detection by layer (counts over 40 RPCs)",
        ("scenario", "injected", "link-crc", "tcp-cksum", "app"), rows,
        width=17))

    # Link noise on local traffic: the AAL CRC catches essentially all
    # of it; TCP sees (almost) nothing -- the paper's two-orders claim.
    local = scen["local+link-noise"]
    assert local.caught_by_link_check >= 0.9 * local.injected_link
    assert local.caught_by_tcp_checksum <= max(
        1, local.caught_by_link_check // 10)

    # Wide-area mix: gateway-injected errors sail past the link check
    # and only the TCP checksum catches them.
    wan = scen["wide-area-mix"]
    assert wan.injected_gateway > 0
    assert wan.caught_by_tcp_checksum > 0

    # Purely local clean fiber: nothing for TCP to catch.
    clean = scen["local-clean"]
    assert clean.total_injected == 0
    assert clean.caught_by_tcp_checksum == 0


def test_checksum_off_is_safe_for_checking_applications():
    """With the checksum eliminated and realistic (tiny) local error
    rates, the application-level check is the end-to-end backstop."""
    def run():
        return run_error_study(
            size=1400, iterations=40, p_controller=0.1,
            checksum_mode=ChecksumMode.OFF, seed=104)

    r = run()
    # Errors reach the application (or vanish as header corruption and
    # get retransmitted) -- but the run completes with every transfer
    # ultimately delivered, because the application detects and the
    # protocol recovers what it can see.
    assert r.caught_by_tcp_checksum <= 2
    assert r.caught_by_application + r.undetected >= 1
